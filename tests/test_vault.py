"""Identity vault: registration, derivation, authorized resolution, aliases."""

from __future__ import annotations

import json

import pytest

from regctl import Basis, Deployment, DenyReason, Scope
from regctl import vault as vault_module
from regctl.crypto import sign
from regctl.deploy import REGISTRY_DOMAIN
from regctl.errors import (
    DomainUnregistered,
    DuplicateMaster,
    EncodingError,
    Expired,
    InvalidDomain,
    MissingAttribute,
    NotFound,
    Unauthorized,
)
from regctl.events import EventKind
from regctl.gate import AccessTicket
from regctl.scenario import control_linkage_accuracy, linkage_accuracy
from regctl.vault import derive_vid_value

from conftest import count_calls, make_request


def make_ticket(dep: Deployment, operation: str, domain: str, subjects: tuple[str, ...],
                ttl: int = 60) -> AccessTicket:
    ticket = AccessTicket(
        ticket_id="T-test",
        request_id="q-test",
        granted_scope=Scope(domain, (), operation),
        subject_vids=subjects,
        regulator_shares={},
        expires_at=dep.clock.now() + ttl,
        signature=b"",
    )
    ticket.signature = sign(dep.regulator, ticket.signing_payload())
    return ticket


# -- registration --------------------------------------------------------------

def test_distinct_attributes_distinct_masters(deployment):
    a = deployment.vault.register_master({"name": "one"})
    b = deployment.vault.register_master({"name": "two"})
    assert a != b


def test_identical_attributes_rejected(deployment):
    deployment.vault.register_master({"name": "same", "real_phone": "0011223344"})
    with pytest.raises(DuplicateMaster):
        deployment.vault.register_master({"real_phone": "0011223344", "name": "same"})


def test_empty_attributes_rejected(deployment):
    with pytest.raises(MissingAttribute):
        deployment.vault.register_master({})


def test_thousand_registrations_all_distinct(deployment):
    ids = {deployment.vault.register_master({"name": f"p{i}"}) for i in range(1000)}
    assert len(ids) == 1000


def test_domain_format_enforced(deployment):
    with pytest.raises(InvalidDomain):
        deployment.vault.register_domain("Health")
    with pytest.raises(InvalidDomain):
        deployment.vault.register_domain("muchtoolongdomain")
    deployment.vault.register_domain("health_2")


# -- derivation -------------------------------------------------------------------

def test_derive_is_idempotent(deployment):
    deployment.vault.register_domain("health")
    master = deployment.vault.register_master({"name": "p"})
    first = deployment.vault.derive_vid(master, "health")
    second = deployment.vault.derive_vid(master, "health")
    assert first == second


def test_vid_is_20_decimal_digits(deployment):
    deployment.vault.register_domain("health")
    master = deployment.vault.register_master({"name": "p"})
    vid = deployment.vault.derive_vid(master, "health").vid
    assert len(vid) == 20 and vid.isdigit()


def test_unknown_master_and_domain(deployment):
    deployment.vault.register_domain("health")
    master = deployment.vault.register_master({"name": "p"})
    with pytest.raises(NotFound):
        deployment.vault.derive_vid("f" * 32, "health")
    with pytest.raises(DomainUnregistered):
        deployment.vault.derive_vid(master, "unknown")


def test_same_master_distinct_domains_distinct_vids(deployment):
    for d in ("d1", "d2", "d3", "d4"):
        deployment.vault.register_domain(d)
    master = deployment.vault.register_master({"name": "p"})
    vids = {deployment.vault.derive_vid(master, d).vid for d in ("d1", "d2", "d3", "d4")}
    assert len(vids) == 4


def test_vid_uniqueness_scan_many_masters():
    dep = Deployment(seed=11)
    domains = ("d1", "d2", "d3", "d4")
    for d in domains:
        dep.vault.register_domain(d)
    masters = [dep.vault.register_master({"name": f"p{i}"}) for i in range(10_000)]
    per_master: dict[str, set[str]] = {m: set() for m in masters}
    for domain in domains:
        vids = set()
        for m in masters:
            vid = dep.vault.derive_vid(m, domain).vid
            vids.add(vid)
            per_master[m].add(vid)
        assert len(vids) == 10_000  # unique within the domain
    for m in masters:  # and never the same vid for one person in two domains
        assert len(per_master[m]) == 4


def test_derivation_is_pure_function_of_secret_and_inputs(deployment):
    deployment.vault.register_domain("health")
    master = deployment.vault.register_master({"name": "p"})
    virtual = deployment.vault.derive_vid(master, "health")
    recomputed = derive_vid_value(deployment.vault._secret, master, "health",
                                  virtual.derivation_counter)
    assert recomputed == virtual.vid


def test_vault_rebuild_reproduces_vids(tmp_path):
    dep = Deployment(seed=21, state_dir=tmp_path / "state")
    dep.vault.register_domain("health")
    masters = [dep.vault.register_master({"name": f"p{i}"}) for i in range(50)]
    vids = {m: dep.vault.derive_vid(m, "health").vid for m in masters}
    dep.save()

    rebuilt = Deployment(seed=21, state_dir=tmp_path / "state")
    for master, vid in vids.items():
        assert rebuilt.vault.derive_vid(master, "health").vid == vid


# -- authorized resolution ----------------------------------------------------------

def test_resolve_round_trip_with_ticket(deployment):
    deployment.vault.register_domain("health")
    master = deployment.vault.register_master({"name": "p"})
    vid = deployment.vault.derive_vid(master, "health").vid
    ticket = make_ticket(deployment, "resolve", "health", (vid,))
    assert deployment.vault.resolve(vid, "health", ticket) == master


def test_link_agrees_with_derivation(deployment):
    deployment.vault.register_domain("health")
    deployment.vault.register_domain("tax")
    master = deployment.vault.register_master({"name": "p"})
    vid_health = deployment.vault.derive_vid(master, "health").vid
    vid_tax = deployment.vault.derive_vid(master, "tax")
    ticket = make_ticket(deployment, "link", "tax", (vid_tax.vid,))
    assert deployment.vault.link(vid_health, "health", "tax", ticket) == vid_tax


def test_resolve_without_ticket_is_denied_and_logged(deployment):
    deployment.vault.register_domain("health")
    master = deployment.vault.register_master({"name": "p"})
    vid = deployment.vault.derive_vid(master, "health").vid
    before = len(deployment.event_log.regulator_ledger.entries)
    with pytest.raises(Unauthorized):
        deployment.vault.resolve(vid, "health", None)
    assert len(deployment.event_log.regulator_ledger.entries) == before + 1


def test_resolve_with_wrong_scope_denied(deployment):
    deployment.vault.register_domain("health")
    deployment.vault.register_domain("tax")
    master = deployment.vault.register_master({"name": "p"})
    vid = deployment.vault.derive_vid(master, "health").vid
    with pytest.raises(Unauthorized):
        deployment.vault.resolve(vid, "health", make_ticket(deployment, "resolve", "tax", (vid,)))
    with pytest.raises(Unauthorized):
        deployment.vault.resolve(vid, "health", make_ticket(deployment, "read", "health", (vid,)))


def test_resolve_with_expired_ticket_denied(deployment):
    deployment.vault.register_domain("health")
    master = deployment.vault.register_master({"name": "p"})
    vid = deployment.vault.derive_vid(master, "health").vid
    ticket = make_ticket(deployment, "resolve", "health", (vid,), ttl=5)
    deployment.clock.advance(10)
    with pytest.raises(Unauthorized):
        deployment.vault.resolve(vid, "health", ticket)


def test_successful_resolve_notifies_subject(deployment):
    deployment.vault.register_domain("health")
    master = deployment.vault.register_master({"name": "p"})
    vid = deployment.vault.derive_vid(master, "health").vid
    deployment.vault.resolve(vid, "health", make_ticket(deployment, "resolve", "health", (vid,)))
    notifications = deployment.notifier.fetch(vid)
    assert len(notifications) == 1 and notifications[0].outcome.value == "Allowed"


def test_a_ticket_resolves_and_links_only_the_subjects_it_names(populated):
    # Alice has consented to CARE_AUDIT and Bob has not
    dep, alice, alice_master = populated["dep"], populated["vid"], populated["master"]
    bob_master = dep.vault.register_master({"name": "bob"})
    bob = dep.vault.derive_vid(bob_master, "health").vid
    dep.vault.derive_vid(bob_master, REGISTRY_DOMAIN)
    dep.vault.register_domain("tax")
    alice_tax, bob_tax = (dep.vault.derive_vid(m, "tax").vid for m in (alice_master, bob_master))
    tickets = {}
    for operation in ("resolve", "link"):
        scope = Scope("health", (), operation)
        manifest = dep.registry.sign_program(f"p-{operation}", operation.encode(), "CARE_AUDIT",
                                             scope)
        auth = dep.registry.grant(dep.controller.key_id, scope, "CARE_AUDIT", Basis.CONSENT,
                                  0, 10_000)

        def submit(vid):
            return dep.gate.submit(make_request(
                dep, populated, request_id=f"q-{operation}", subjects=[vid], classes=(),
                operation=operation, digest=manifest.content_digest, auth_id=auth.auth_id))

        assert submit(bob).decision.reason == DenyReason.CONSENT
        tickets[operation] = submit(alice).ticket

    for _ in range(2):  # a refusal uses nothing up
        with pytest.raises(Unauthorized):
            dep.vault.resolve(bob, "health", tickets["resolve"])
        with pytest.raises(Unauthorized):
            dep.vault.link(bob_tax, "tax", "health", tickets["link"])
    denials = [e for e in dep.event_log.events_from_ledger(dep.event_log.regulator_ledger)
               if e.kind is EventKind.VAULT_DENIED]
    assert [e.subjects for e in denials] == [(bob,), (bob_tax,)] * 2
    assert dep.vault.resolve(alice, "health", tickets["resolve"]) == alice_master
    assert dep.vault.link(alice_tax, "tax", "health", tickets["link"]).vid == alice


def test_a_link_names_no_vid_the_vault_has_not_derived(deployment):
    deployment.vault.register_domain("health")
    deployment.vault.register_domain("tax")
    master = deployment.vault.register_master({"name": "p"})
    vid = deployment.vault.derive_vid(master, "health").vid
    unseen = derive_vid_value(deployment.vault._secret, master, "tax", 0)
    with pytest.raises(Unauthorized):
        deployment.vault.link(vid, "health", "tax", make_ticket(deployment, "link", "tax", (unseen,)))
    assert deployment.vault.vid_if_derived(master, "tax") is None


def _saved_with_bob(populated, tmp_path) -> tuple[Deployment, str]:
    """``populated`` saved with a second subject, Bob, who has a record and no consent."""
    dep = populated["dep"]
    bob_master = dep.vault.register_master({"name": "bob"})
    bob = dep.vault.derive_vid(bob_master, "health").vid
    dep.vault.derive_vid(bob_master, REGISTRY_DOMAIN)
    dep.silos["health"].put_record(bob, {"bp": "135/90", "visits": "1"})
    dep.state_dir = tmp_path / "state"
    dep.save()
    return dep, bob


def _edit_state(dep: Deployment, edit) -> None:
    """Apply ``edit`` to the document of ``vault/state.json``, which is not signed."""
    path = dep.state_dir / "vault" / "state.json"
    state = json.loads(path.read_text())
    edit(state)
    path.write_text(json.dumps(state))


def _edit_vids(dep: Deployment, masters: dict[str, str]) -> None:
    """Map each vid in ``masters`` to the master named there."""
    def remap(state: dict) -> None:
        for vids, master_ids, _ in state["vids"].values():
            for row, vid in enumerate(vids):
                master_ids[row] = masters.get(vid, master_ids[row])
    _edit_state(dep, remap)


def test_a_vid_remapped_to_another_master_fails_the_load(populated, tmp_path):
    dep, bob = _saved_with_bob(populated, tmp_path)
    _edit_vids(dep, {bob: populated["master"]})
    with pytest.raises(EncodingError, match=r"state\.json: vid mappings are not one-to-one"):
        Deployment(state_dir=dep.state_dir).vault


def test_a_vid_repeated_in_a_domain_column_fails_the_load(populated, tmp_path):
    dep, _ = _saved_with_bob(populated, tmp_path)

    def repeat_alice(state: dict) -> None:
        vids = state["vids"]["health"][0]  # Alice's row, then Bob's
        vids[1] = vids[0]
    _edit_state(dep, repeat_alice)
    with pytest.raises(EncodingError, match=r"state\.json: vid mappings are not one-to-one"):
        Deployment(state_dir=dep.state_dir).vault


def test_a_load_builds_no_virtual_id_and_no_attribute_index(populated, tmp_path, monkeypatch):
    dep, _ = _saved_with_bob(populated, tmp_path)
    built = count_calls(monkeypatch, "VirtualId", "_attribute_key", owner=vault_module)
    reloaded = Deployment(state_dir=dep.state_dir)
    assert reloaded.vault.vid_if_derived(populated["master"], "health") == populated["vid"]
    assert built == {"VirtualId": 0, "_attribute_key": 0}
    carol = reloaded.vault.register_master({"name": "carol"})
    reloaded.vault.derive_vid(carol, "health")
    assert built == {"VirtualId": 1, "_attribute_key": len(reloaded.vault.masters)}


def test_identical_attributes_rejected_after_a_reload(populated, tmp_path):
    dep, _ = _saved_with_bob(populated, tmp_path)
    reloaded = Deployment(state_dir=dep.state_dir)
    with pytest.raises(DuplicateMaster):
        reloaded.vault.register_master({"name": "bob"})
    reloaded.vault.register_master({"name": "carol"})
    with pytest.raises(DuplicateMaster):
        reloaded.vault.register_master({"name": "carol"})


def test_swapped_vids_fail_their_first_use_and_release_nothing(populated, tmp_path):
    dep, bob = _saved_with_bob(populated, tmp_path)
    alice, alice_master = populated["vid"], populated["master"]
    bob_master = dep.vault.master_for_vid("health", bob)
    swap = {alice: bob_master, bob: alice_master}
    _edit_vids(dep, swap)

    reloaded = Deployment(state_dir=dep.state_dir)
    with pytest.raises(EncodingError, match=r"state\.json: a stored health vid does not re-derive"):
        reloaded.gate.submit(make_request(reloaded, populated, subjects=[bob]))
    assert reloaded.gate.tickets == {} and reloaded.gate.plaintext_releases == 0


def _negative_counter(state: dict) -> None:
    state["vids"]["health"][2][0] = -1  # Alice's row


def _master_id_not_hex(state: dict) -> None:
    master_ids = state["vids"]["health"][1]
    state["masters"]["not hex"] = state["masters"][master_ids[0]]
    master_ids[0] = "not hex"


@pytest.mark.parametrize("edit", [_negative_counter, _master_id_not_hex])
def test_a_mapping_that_cannot_be_re_derived_fails_its_first_use(populated, tmp_path, edit):
    dep, _ = _saved_with_bob(populated, tmp_path)
    _edit_state(dep, edit)
    vault = Deployment(state_dir=dep.state_dir).vault
    with pytest.raises(EncodingError, match=r"state\.json: a stored health vid does not re-derive"):
        vault.master_for_vid("health", populated["vid"])


def test_a_loaded_vid_is_re_derived_once_per_process(populated, tmp_path, monkeypatch):
    dep, _ = _saved_with_bob(populated, tmp_path)
    reloaded = Deployment(state_dir=dep.state_dir)
    derived = []
    real = vault_module.derive_vid_value
    monkeypatch.setattr(vault_module, "derive_vid_value",
                        lambda *args: derived.append(args[2]) or real(*args))
    for request_id in ("q1", "q2"):
        result = reloaded.gate.submit(make_request(reloaded, populated, request_id=request_id))
        assert result.decision.allowed
    assert sorted(derived) == sorted(["health", REGISTRY_DOMAIN])


# -- unlinkability ---------------------------------------------------------------------

def test_adversary_without_vault_is_near_chance_and_control_is_total():
    dep = Deployment(seed=31)
    domains = ("d1", "d2", "d3")
    for d in domains:
        dep.vault.register_domain(d)
    masters = [dep.vault.register_master({"name": f"p{i}"}) for i in range(100)]
    truth = {m: {d: dep.vault.derive_vid(m, d).vid for d in domains} for m in masters}
    order = {d: list(range(100)) for d in domains}
    import random
    shuffler = random.Random(5)
    for d in domains:
        shuffler.shuffle(order[d])
    visible = {d: [truth[masters[i]][d] for i in order[d]] for d in domains}

    assert linkage_accuracy(visible, truth) <= 0.05
    assert control_linkage_accuracy(dep.vault._secret, sorted(truth), visible, truth) == 1.0


# -- aliases -----------------------------------------------------------------------------

def test_alias_routes_within_window(deployment):
    master = deployment.vault.register_master({"name": "p", "real_phone": "0012345678"})
    grant = deployment.vault.issue_alias(master, ttl_seconds=30)
    assert grant.alias_number.startswith("99") and len(grant.alias_number) == 10
    assert grant.expires_at == deployment.clock.now() + 30
    assert deployment.vault.route(grant.alias_number) == "0012345678"
    deployment.clock.set_tick(grant.expires_at - 1)
    assert deployment.vault.route(grant.alias_number) == "0012345678"


def test_alias_expires_at_boundary(deployment):
    master = deployment.vault.register_master({"name": "p", "real_phone": "0012345678"})
    grant = deployment.vault.issue_alias(master, ttl_seconds=30)
    deployment.clock.set_tick(grant.expires_at)
    with pytest.raises(Expired):
        deployment.vault.route(grant.alias_number)


def test_unknown_alias(deployment):
    with pytest.raises(NotFound):
        deployment.vault.route("9900000000")


def test_concurrent_aliases_share_target(deployment):
    master = deployment.vault.register_master({"name": "p", "real_phone": "0012345678"})
    a = deployment.vault.issue_alias(master, ttl_seconds=30)
    b = deployment.vault.issue_alias(master, ttl_seconds=30)
    assert a.alias_number != b.alias_number
    assert deployment.vault.route(a.alias_number) == deployment.vault.route(b.alias_number)


def test_alias_requires_phone_attribute(deployment):
    master = deployment.vault.register_master({"name": "p"})
    with pytest.raises(MissingAttribute):
        deployment.vault.issue_alias(master, ttl_seconds=30)
