"""Concurrent calls: the paired ledgers stay a clean chain, and a check and
the act that depends on it are not split by another thread."""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from regctl import Basis, Deployment, Scope, SiloSchema, cross_verify
from regctl.deploy import REGISTRY_DOMAIN
from regctl.errors import NotFound, TicketConsumed
from regctl.events import EventKind
from regctl.gate import AccessRequest
from regctl.registry import Registry
from regctl.vault import Vault

from conftest import make_request


def test_parallel_submits_keep_ledger_sequence_intact():
    dep = Deployment(seed=83)
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.registry.register_purpose("CARE_AUDIT", "care")
    manifest = dep.registry.sign_program("p1", b"prog", "CARE_AUDIT",
                                         Scope("health", ("health",), "read"))
    auth = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                              "CARE_AUDIT", Basis.LEGAL, 0, 10_000)
    masters = [dep.vault.register_master({"name": f"p{i}"}) for i in range(16)]
    vids = [dep.vault.derive_vid(m, "health").vid for m in masters]
    for vid in vids:
        dep.silos["health"].put_record(vid, {"bp": "120/80"})

    requests = [
        AccessRequest.build(
            controller=dep.controller,
            request_id=f"q{i:02d}",
            program_id="p1",
            content_digest=manifest.content_digest,
            auth_id=auth.auth_id,
            domain="health",
            operation="read",
            subject_vids=[vids[i]],
            requested_fields=["health"],
            purpose_code="CARE_AUDIT",
            timestamp=dep.clock.now(),
            nonce=dep.rand_bytes(16),
        )
        for i in range(16)
    ]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(dep.gate.submit, requests))

    assert all(r.decision.allowed for r in results)
    for ledger in (dep.event_log.regulator_ledger, dep.event_log.controller_ledger):
        assert [e.seq for e in ledger.entries] == list(range(16))
        assert ledger.verify_chain() is None
    assert cross_verify(dep.event_log.regulator_ledger, dep.event_log.controller_ledger) is None
    assert dep.event_log.expected_notification_pairs() == dep.notifier.pairs()


def test_parallel_replays_burn_each_nonce_exactly_once():
    dep = Deployment(seed=84)
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.registry.register_purpose("CARE_AUDIT", "care")
    manifest = dep.registry.sign_program("p1", b"prog", "CARE_AUDIT",
                                         Scope("health", ("health",), "read"))
    auth = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                              "CARE_AUDIT", Basis.LEGAL, 0, 10_000)
    master = dep.vault.register_master({"name": "p"})
    vid = dep.vault.derive_vid(master, "health").vid
    request = AccessRequest.build(
        controller=dep.controller, request_id="q1", program_id="p1",
        content_digest=manifest.content_digest, auth_id=auth.auth_id,
        domain="health", operation="read", subject_vids=[vid],
        requested_fields=["health"], purpose_code="CARE_AUDIT",
        timestamp=dep.clock.now(), nonce=dep.rand_bytes(16),
    )
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(dep.gate.submit, [request] * 8))
    allowed = [r for r in results if r.decision.allowed]
    assert len(allowed) == 1  # exactly one submission wins the nonce
    assert all(r.decision.reason.value == "Replay" for r in results if not r.decision.allowed)


# The races below hold one thread inside a check-then-act sequence while a
# second one runs. Every barrier wait and join is bounded, so a correct
# deployment, which makes the second thread wait on its lock, cannot hang them.

WAIT = 0.5


def test_racing_opens_of_one_ticket_release_the_record_once(populated):
    dep = populated["dep"]
    silo = dep.silos["health"]
    ticket = dep.gate.submit(make_request(dep, populated)).ticket
    record_id = populated["record_id"]
    share = silo.controller_share(record_id)
    barrier = threading.Barrier(2, timeout=WAIT)
    fetch = silo.fetch_ciphertext

    def fetch_at_barrier(rid):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return fetch(rid)

    silo.fetch_ciphertext = fetch_at_barrier
    outcomes = []

    def open_once():
        try:
            outcomes.append(dep.gate.open_record(ticket, record_id, share))
        except TicketConsumed as exc:
            outcomes.append(exc)

    other = threading.Thread(target=open_once)
    other.start()
    open_once()
    other.join(WAIT)
    assert not other.is_alive()
    assert sorted(type(o).__name__ for o in outcomes) == ["TicketConsumed", "dict"]
    assert {"bp": "120/80", "visits": "3"} in outcomes
    assert dep.gate.plaintext_releases == 1


def test_opt_out_during_cohort_submit_is_ledgered_after_the_access(populated):
    dep = populated["dep"]
    first = populated
    master = dep.vault.register_master({"name": "second subject"})
    second_vid = dep.vault.derive_vid(master, "health").vid
    dep.registry.record_consent(dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid, "CARE_AUDIT")
    dep.silos["health"].put_record(second_vid, {"bp": "110/70"})
    lookup = dep.vault.registry_vid_of
    opt_out = threading.Thread(target=dep.process_opt_out,
                               args=(first["registry_vid"], "CARE_AUDIT"))

    def lookup_with_opt_out(domain, vid):
        if vid == second_vid:  # the first subject's consent is already checked
            opt_out.start()
            opt_out.join(WAIT)
        return lookup(domain, vid)

    dep.vault.registry_vid_of = lookup_with_opt_out
    result = dep.gate.submit(make_request(dep, first, subjects=[first["vid"], second_vid]))
    opt_out.join(WAIT)
    assert not opt_out.is_alive()
    assert result.decision.allowed
    kinds = [e.kind for e in dep.event_log.events_from_ledger(dep.event_log.regulator_ledger)
             if first["vid"] in e.subjects]
    assert kinds.index(EventKind.ACCESS_ALLOWED) < kinds.index(EventKind.DELETION)


def test_every_service_shares_the_deployment_lock(tmp_path):
    dep = Deployment(seed=85, state_dir=tmp_path)
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.create_silo(SiloSchema(domain="tax", field_classes=(("income", "financial"),)))
    dep.save()
    reloaded = Deployment(seed=85, state_dir=tmp_path)
    for d in (dep, reloaded):
        services = [d.gate, d.vault, d.registry, d.notifier, *d.silos.values()]
        assert len(services) == 6
        assert all(s._lock is d._lock for s in services)
    assert reloaded._lock is not dep._lock


def test_threads_reaching_an_unloaded_service_load_it_once(populated, tmp_path, monkeypatch):
    dep = populated["dep"]
    dep.state_dir = tmp_path
    dep.save()
    reloaded = Deployment(seed=42, state_dir=tmp_path)
    loads = {"registry": 0, "vault": 0}

    def slow(name, load):
        def counted(*args):
            loads[name] += 1
            time.sleep(0.01)  # a window in which an unlocked getter builds twice
            return load(*args)
        return counted

    monkeypatch.setattr(Registry, "load", slow("registry", Registry.load))
    monkeypatch.setattr(Vault, "load_state", slow("vault", Vault.load_state))
    start = threading.Barrier(8, timeout=5)
    reached = []

    def reach(i):
        start.wait()
        first, second = ("registry", "gate") if i % 2 else ("gate", "registry")
        services = {name: getattr(reloaded, name) for name in (first, second, "vault")}
        reached.append(tuple(id(services[name]) for name in ("registry", "gate", "vault")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reach, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert loads == {"registry": 1, "vault": 1}
    assert len(reached) == 8 and len(set(reached)) == 1


def test_mixed_concurrent_calls_keep_the_ledgers_and_mailboxes_whole(populated):
    dep = populated["dep"]
    silo = dep.silos["health"]
    subjects = []  # (vid, registry vid, record id, controller share)
    for i in range(12):
        master = dep.vault.register_master({"name": f"stress {i}"})
        vid = dep.vault.derive_vid(master, "health").vid
        registry_vid = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
        dep.registry.record_consent(registry_vid, "CARE_AUDIT")
        record_id = silo.put_record(vid, {"bp": "100/60"})
        subjects.append((vid, registry_vid, record_id, silo.controller_share(record_id)))
    requests = [make_request(dep, populated, request_id=f"s{i}", subjects=[s[0]])
                for i, s in enumerate(subjects)]
    leaving = range(0, len(subjects), 3)

    def access(i):
        _, _, record_id, share = subjects[i]
        ticket = dep.gate.submit(requests[i]).ticket
        if ticket is None or record_id not in ticket.regulator_shares:
            return 0
        try:
            dep.gate.open_record(ticket, record_id, share)
        except NotFound:  # erased by an opt-out since the submit
            return 0
        return 1

    def leave(i):
        dep.process_opt_out(subjects[i][1], "CARE_AUDIT")
        return 0

    jobs = [(access, i) for i in range(len(subjects))] + [(leave, i) for i in leaving]
    random.Random(7).shuffle(jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(job, i) for job, i in jobs]
            opened = sum(f.result(timeout=30) for f in futures)
    finally:
        sys.setswitchinterval(interval)

    assert opened == dep.gate.plaintext_releases
    log = dep.event_log
    for ledger in (log.regulator_ledger, log.controller_ledger):
        assert ledger.verify_chain() is None
    assert cross_verify(log.regulator_ledger, log.controller_ledger) is None
    assert log.expected_notification_pairs() == dep.notifier.pairs()
    events = log.events_from_ledger(log.regulator_ledger)
    for i in leaving:
        kinds = [e.kind for e in events if subjects[i][0] in e.subjects]
        assert kinds.count(EventKind.DELETION) == 1
        # a submit after the opt-out is denied; none is allowed on withdrawn consent
        assert EventKind.ACCESS_ALLOWED not in kinds[kinds.index(EventKind.DELETION):]
