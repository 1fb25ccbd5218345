"""Acceptance criteria. One test per criterion, at its stated tolerance,
with runtime budgets asserted where the criterion sets one. Each test
prints a single PASS line on success (visible with pytest -s / -v output).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from regctl import Basis, Deployment, Scope, SiloSchema, cross_verify
from regctl import crypto
from regctl.cli import main as cli_main
from regctl.crypto import Holder, KeyShare
from regctl.deploy import REGISTRY_DOMAIN
from regctl.errors import DecryptFailure, NotFound
from regctl.events import EventKind
from regctl.gate import AccessRequest
from regctl.ledger import Ledger, verify_ledger_files
from regctl.scenario import (
    control_linkage_accuracy,
    linkage_accuracy,
    load_scenario,
    run,
    scan_for_sentinels,
)
from regctl.silo import record_aad

from conftest import state_files
from truthtable import build_matrix

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


# ---------------------------------------------------------------------------
# 1. Unlinkability
# ---------------------------------------------------------------------------

def _linkage_trial(seed: int, subjects: int = 100, domains: tuple[str, ...] = ("d1", "d2", "d3")):
    dep = Deployment(seed=seed)
    for domain in domains:
        dep.create_silo(SiloSchema(domain=domain, field_classes=(("v", "other"),)))
    masters = [dep.vault.register_master({"name": f"subject {i}"}) for i in range(subjects)]
    truth = {m: {d: dep.vault.derive_vid(m, d).vid for d in domains} for m in masters}
    shuffler = random.Random(seed ^ 0x5EED)
    visible = {}
    for domain in domains:
        order = list(masters)
        shuffler.shuffle(order)  # uncorrelated transaction timing per domain
        for master in order:
            dep.silos[domain].put_record(truth[master][domain], {"v": "x"})
        visible[domain] = [vid for _, vid in dep.silos[domain].list_records()]
    adversary = linkage_accuracy(visible, truth)
    control = control_linkage_accuracy(dep.vault._secret, sorted(truth), visible, truth)
    return adversary, control


def test_acceptance_1_unlinkability():
    started = time.monotonic()
    trials = 50
    total_adversary = 0.0
    worst = 0.0
    for trial in range(trials):
        adversary, control = _linkage_trial(seed=10_000 + trial)
        total_adversary += adversary
        worst = max(worst, adversary)
        assert control == 1.0, f"trial {trial}: vault-secret control must fully link"
    aggregate = total_adversary / trials
    elapsed = time.monotonic() - started
    assert aggregate <= 0.05, f"adversary aggregate accuracy {aggregate:.4f} exceeds 0.05"
    assert elapsed < 10.0, f"unlinkability suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 unlinkability: PASS "
          f"(aggregate={aggregate:.4f} worst={worst:.4f} control=1.0 {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Dual custody
# ---------------------------------------------------------------------------

def test_acceptance_2_dual_custody():
    started = time.monotonic()
    dep = Deployment(seed=20_000)
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.registry.register_purpose("CARE_AUDIT", "care")
    manifest = dep.registry.sign_program("p1", b"prog", "CARE_AUDIT",
                                         Scope("health", ("health",), "read"))
    auth = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                              "CARE_AUDIT", Basis.LEGAL, 0, 100_000)
    silo = dep.silos["health"]
    records = []
    for i in range(100):
        master = dep.vault.register_master({"name": f"subject {i}"})
        vid = dep.vault.derive_vid(master, "health").vid
        record_id = silo.put_record(vid, {"bp": f"{100 + i}/80"})
        records.append((record_id, vid, f"{100 + i}/80"))

    substitute_failures = 0
    attempts = 0
    for record_id, vid, expected_bp in records:
        controller_share = silo.controller_share(record_id)
        regulator_share = dep.share_store.get(record_id)
        ciphertext = silo.fetch_ciphertext(record_id)
        nonce = crypto.record_nonce(record_id)
        aad = record_aad(record_id, vid, "health")
        for c, r in [
            (controller_share, KeyShare(b"\x00" * 32, Holder.REGULATOR)),
            (controller_share, KeyShare(dep.rand_bytes(32), Holder.REGULATOR)),
            (KeyShare(b"\x00" * 32, Holder.CONTROLLER), regulator_share),
            (KeyShare(dep.rand_bytes(32), Holder.CONTROLLER), regulator_share),
        ]:
            attempts += 1
            try:
                crypto.aead_decrypt(crypto.combine_shares(c, r), nonce, ciphertext, aad)
            except DecryptFailure:
                substitute_failures += 1

        request = AccessRequest.build(
            controller=dep.controller, request_id=f"q-{record_id}", program_id="p1",
            content_digest=manifest.content_digest, auth_id=auth.auth_id,
            domain="health", operation="read", subject_vids=[vid],
            requested_fields=["health"], purpose_code="CARE_AUDIT",
            timestamp=dep.clock.now(), nonce=dep.rand_bytes(16),
        )
        result = dep.gate.submit(request)
        assert result.decision.allowed
        fields = dep.gate.open_record(result.ticket, record_id, controller_share)
        assert fields == {"bp": expected_bp}

    elapsed = time.monotonic() - started
    assert substitute_failures == attempts == 400
    assert elapsed < 5.0, f"dual custody suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 dual custody: PASS "
          f"(records=100 single-share failures={substitute_failures}/{attempts} {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Tamper evidence
# ---------------------------------------------------------------------------

def _ten_entry_state(tmp_path: Path, seed: int) -> Deployment:
    dep = Deployment(seed=seed, state_dir=tmp_path)
    for i in range(10):
        dep.event_log.record(EventKind.VAULT_ROUTE, f"E{i:04d}", [], f"event {i}")
    dep.save()
    return dep


def test_acceptance_3_tamper_evidence(tmp_path):
    started = time.monotonic()
    dep = _ten_entry_state(tmp_path / "state", seed=30_000)
    reg_path = tmp_path / "state" / "ledgers" / "regulator.log"
    ctrl_path = tmp_path / "state" / "ledgers" / "controller.log"
    assert verify_ledger_files(reg_path, ctrl_path, dep.regulator, dep.controller).ok

    original = reg_path.read_bytes()
    undetected = []
    for position in range(len(original)):
        mutated = bytearray(original)
        mutated[position] ^= 0x01
        reg_path.write_bytes(bytes(mutated))
        if verify_ledger_files(reg_path, ctrl_path, dep.regulator, dep.controller).ok:
            undetected.append(position)
    reg_path.write_bytes(original)
    assert not undetected, f"mutations not detected at byte positions {undetected[:10]}"

    truncation_hits = insertion_hits = 0
    for trial in range(20):
        world = Deployment(seed=31_000 + trial)
        for i in range(5 + trial % 4):
            world.event_log.record(EventKind.VAULT_ROUTE, f"E{i:04d}", [], f"event {i}")
        reg, ctrl = world.event_log.regulator_ledger, world.event_log.controller_ledger

        truncated = Ledger(owner=ctrl.owner, counterpart=ctrl.counterpart)
        truncated.load_entries(ctrl.entries[:-1])
        if cross_verify(reg, truncated) is not None:
            truncation_hits += 1

        forged = Ledger(owner=reg.owner, counterpart=reg.counterpart)
        forged.load_entries(reg.entries)
        forged.append(crypto.sha256(b"fabricated access nobody saw"), ctrl.head(),
                      timestamp=world.clock.now())
        if cross_verify(forged, ctrl) is not None:
            insertion_hits += 1

    elapsed = time.monotonic() - started
    assert truncation_hits == 20 and insertion_hits == 20
    assert elapsed < 60.0, f"tamper evidence suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 tamper evidence: PASS "
          f"(byte positions={len(original)} truncations=20/20 insertions=20/20 {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. Access-log-notification bijection
# ---------------------------------------------------------------------------

def test_acceptance_4_bijection():
    started = time.monotonic()
    dep = Deployment(seed=40_000)
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.registry.register_purpose("CARE_AUDIT", "care")
    dep.registry.register_purpose("OTHER_USE", "unrelated")
    manifest = dep.registry.sign_program("p1", b"prog", "CARE_AUDIT",
                                         Scope("health", ("health",), "read"))
    legal = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                               "CARE_AUDIT", Basis.LEGAL, 0, 10**9)
    consent = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                                 "CARE_AUDIT", Basis.CONSENT, 0, 10**9)
    expired = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                                 "CARE_AUDIT", Basis.LEGAL, 0, 1)
    revoked = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                                 "CARE_AUDIT", Basis.LEGAL, 0, 10**9)
    dep.registry.revoke(revoked.auth_id)

    vids = []
    for i in range(20):
        master = dep.vault.register_master({"name": f"subject {i}"})
        vid = dep.vault.derive_vid(master, "health").vid
        dep.silos["health"].put_record(vid, {"bp": "120/80"})
        if i < 10:
            dep.registry.record_consent(dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid,
                                        "CARE_AUDIT")
        vids.append(vid)

    rng = random.Random(404)
    submitted = 0
    allowed = denied = 0
    previous_requests: list[AccessRequest] = []
    for i in range(200):
        dep.clock.advance(1)
        roll = rng.random()
        if roll < 0.1 and previous_requests:  # replay an earlier request verbatim
            request = rng.choice(previous_requests)
        else:
            auth = rng.choice([legal, consent, expired, revoked])
            purpose = "CARE_AUDIT" if rng.random() > 0.1 else "OTHER_USE"
            digest = manifest.content_digest if rng.random() > 0.1 else crypto.sha256(b"tampered")
            timestamp = dep.clock.now() - (0 if rng.random() > 0.1 else 10_000)
            subjects = rng.sample(vids, k=rng.randint(1, 3))
            request = AccessRequest.build(
                controller=dep.controller, request_id=f"q{i:03d}", program_id="p1",
                content_digest=digest, auth_id=auth.auth_id, domain="health",
                operation="read", subject_vids=subjects, requested_fields=["health"],
                purpose_code=purpose, timestamp=timestamp,
                nonce=dep.rand_bytes(16),
            )
            previous_requests.append(request)
        result = dep.gate.submit(request)
        submitted += 1
        if result.decision.allowed:
            allowed += 1
        else:
            denied += 1

    reg_count = dep.event_log.access_entry_count(dep.event_log.regulator_ledger)
    ctrl_count = dep.event_log.access_entry_count(dep.event_log.controller_ledger)
    expected_pairs = dep.event_log.expected_notification_pairs()
    actual_pairs = dep.notifier.pairs()
    elapsed = time.monotonic() - started

    assert allowed > 0 and denied > 0, "scenario must mix outcomes"
    assert submitted == 200 == reg_count == ctrl_count
    assert expected_pairs == actual_pairs
    assert elapsed < 10.0, f"bijection suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4 bijection: PASS (submits=200 allowed={allowed} denied={denied} "
          f"pairs={len(actual_pairs)} {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. Authorization truth table
# ---------------------------------------------------------------------------

def test_acceptance_5_truth_table():
    matrix = build_matrix()
    mismatches = []
    for bits in range(128):
        got = matrix.check(bits)
        want = matrix.oracle(bits)
        if got != want:
            mismatches.append((bits, str(got), str(want)))
    assert not mismatches, f"decision mismatches: {mismatches[:5]}"
    assert matrix.check(0b1111111).allowed
    print("\nACCEPTANCE 5 truth table: PASS (128/128 combinations match the oracle)")


# ---------------------------------------------------------------------------
# 6. Weak-identifier exclusion
# ---------------------------------------------------------------------------

def test_acceptance_6_weak_identifier_exclusion(tmp_path):
    scanned = 0
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        scenario = load_scenario(path)
        state_dir = tmp_path / path.stem
        report = run(scenario, state_dir=state_dir)
        sentinel_result = next(inv for inv in report.invariants if inv.name == "sentinel-scan")
        assert sentinel_result.ok, f"{path.stem}: {sentinel_result.detail}"

        sentinels = []
        for step in scenario.steps:
            if step.keyword == "MASTER":
                sentinels.extend(v for _, v in step.args)
            elif step.keyword == "PUT":
                sentinels.extend(v for k, v in step.args if k not in ("silo", "master"))
        hits = scan_for_sentinels(state_dir, sentinels)
        assert hits == [], f"{path.stem}: sentinel bytes leaked: {hits[:5]}"
        scanned += 1
    assert scanned >= 3
    print(f"\nACCEPTANCE 6 weak-identifier exclusion: PASS (scenarios={scanned}, zero hits)")


# ---------------------------------------------------------------------------
# 7. Opt-out deletion
# ---------------------------------------------------------------------------

def test_acceptance_7_optout_deletion(tmp_path):
    dep = Deployment(seed=70_000, state_dir=tmp_path / "state")
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.registry.register_purpose("CARE_AUDIT", "care")
    manifest = dep.registry.sign_program("p1", b"prog", "CARE_AUDIT",
                                         Scope("health", ("health",), "read"))
    auth = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                              "CARE_AUDIT", Basis.CONSENT, 0, 10**6)
    master = dep.vault.register_master({"name": "SENTINEL-LEAVER-71"})
    vid = dep.vault.derive_vid(master, "health").vid
    registry_vid = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
    dep.registry.record_consent(registry_vid, "CARE_AUDIT")
    silo = dep.silos["health"]
    record_ids = [silo.put_record(vid, {"bp": f"1{i}9/80"}) for i in range(4)]
    captured = [(silo.fetch_ciphertext(rid), silo.controller_share(rid).share,
                 dep.share_store.get(rid).share) for rid in record_ids]

    proofs = dep.process_opt_out(registry_vid, "CARE_AUDIT")
    dep.save()

    # (a) subsequent checks deny
    decision = dep.registry.check(auth.auth_id, manifest.content_digest,
                                  Scope("health", ("health",), "read"),
                                  "CARE_AUDIT", registry_vid, dep.clock.now())
    assert not decision.allowed and decision.reason.value == "Consent"
    for rid in record_ids:
        with pytest.raises(NotFound):
            silo.fetch_ciphertext(rid)

    # (b) zero bytes of ciphertext or shares anywhere in persisted state
    import base64
    needles = []
    for ciphertext, cshare, rshare in captured:
        needles += [ciphertext, cshare, rshare,
                    ciphertext.hex().encode(), cshare.hex().encode(), rshare.hex().encode(),
                    base64.b64encode(ciphertext)]
    leftovers = []
    for path, raw in state_files(tmp_path / "state").items():
        blobs = [raw]
        for line in raw.splitlines():
            try:
                blobs.append(base64.b64decode(line, validate=True))
            except Exception:
                pass
        for needle in needles:
            if any(needle in blob for blob in blobs):
                leftovers.append(str(path))
    assert leftovers == [], f"deleted material survives in {leftovers}"

    # (c) dual-signed deletion proof verifies
    assert len(proofs) == 1
    assert proofs[0].verify(dep.regulator, dep.controller)
    assert sorted(proofs[0].record_ids) == sorted(record_ids)
    print("\nACCEPTANCE 7 opt-out deletion: PASS (denied + erased + proof verifies)")


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

def test_acceptance_8_determinism(tmp_path, capsys):
    scenario = load_scenario(SCENARIO_DIR / "attacks.scn")
    first = run(scenario).render()
    second = run(scenario).render()
    assert first == second

    cli_runs = []
    for i in range(2):
        code = cli_main(["--state-dir", str(tmp_path / f"cli{i}"), "run-scenario",
                         str(SCENARIO_DIR / "attacks.scn")])
        assert code == 0
        cli_runs.append(capsys.readouterr().out)
    assert cli_runs[0] == cli_runs[1] == first
    print("\nACCEPTANCE 8 determinism: PASS (library x2 and CLI x2 byte-identical)")


# ---------------------------------------------------------------------------
# 9. Crypto conformance
# ---------------------------------------------------------------------------

def test_acceptance_9_crypto_conformance():
    from regctl.crypto import hmac_sha256, sha256
    # published HMAC-SHA-256 vectors
    assert hmac_sha256(b"\x0b" * 20, b"Hi There").hex() == (
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
    assert hmac_sha256(b"", b"").hex() == (
        "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad")
    # published SHA-256 vectors
    assert sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    # committed canonical-encoding goldens
    assert crypto.canon_encode("T", []) == bytes.fromhex("0000000154")
    assert crypto.canon_encode("T", ["A"]) == bytes.fromhex("00000001540000000141")
    fixture = json.loads((Path(__file__).parent / "data" / "crypto_conformance.json").read_text())
    from test_crypto import build_conformance_entries
    assert build_conformance_entries() == fixture["entries"]
    print("\nACCEPTANCE 9 crypto conformance: PASS (vectors + committed goldens)")
