"""Authorization registry: purposes, manifests, grants, consent, check."""

from __future__ import annotations

import base64
import itertools
from pathlib import Path

import pytest

from regctl import Basis, Decision, DenyReason, Deployment, Scope
from regctl import crypto, store
from regctl.errors import (
    DuplicatePurpose,
    EncodingError,
    InvalidWindow,
    NoConsentToWithdraw,
    NotFound,
    UnknownPurpose,
)

from conftest import count_calls
from truthtable import build_matrix


@pytest.fixture
def dep():
    d = Deployment(seed=57)
    d.vault.register_domain("health")
    d.registry.register_purpose("TAX_AUDIT", "income assessment")
    return d


def scope(classes=("financial",), domain="health", op="read") -> Scope:
    return Scope(domain, tuple(classes), op)


# -- purposes -------------------------------------------------------------------

def test_registered_purpose_usable_in_grant(dep):
    auth = dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.LEGAL, 0, 10)
    assert auth.purpose_code == "TAX_AUDIT"


def test_grant_with_unregistered_purpose(dep):
    with pytest.raises(UnknownPurpose):
        dep.registry.grant(dep.controller.key_id, scope(), "NOPE", Basis.LEGAL, 0, 10)


def test_duplicate_purpose(dep):
    with pytest.raises(DuplicatePurpose):
        dep.registry.register_purpose("TAX_AUDIT", "again")


# -- manifests ------------------------------------------------------------------

def test_manifest_digest_is_artifact_hash(dep):
    artifact = b"the program bytes"
    manifest = dep.registry.sign_program("p1", artifact, "TAX_AUDIT", scope())
    assert manifest.content_digest == crypto.sha256(artifact)


def test_artifact_mutation_invalidates_manifest_lookup(dep):
    artifact = bytes(range(200))
    manifest = dep.registry.sign_program("p1", artifact, "TAX_AUDIT", scope())
    for position in range(len(artifact)):
        mutated = bytearray(artifact)
        mutated[position] ^= 0x01
        digest = crypto.sha256(bytes(mutated))
        assert digest != manifest.content_digest
        assert dep.registry.manifests_by_digest.get(digest) is None


def test_manifest_signature_verifies(dep):
    manifest = dep.registry.sign_program("p1", b"prog", "TAX_AUDIT", scope())
    assert crypto.verify(dep.regulator, manifest.signing_payload(), manifest.signature)


def test_manifest_signature_checked_once_until_it_changes(dep, monkeypatch):
    manifest = dep.registry.sign_program("p1", b"prog", "TAX_AUDIT", scope())
    other = dep.registry.sign_program("p2", b"other prog", "TAX_AUDIT", scope())
    auth = dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.LEGAL, 0, 10)
    verifies = count_calls(monkeypatch, "verify")

    def check():
        return dep.registry.check(auth.auth_id, manifest.content_digest, scope(),
                                  "TAX_AUDIT", "subject-1", now=5)

    assert [check() for _ in range(3)] == [Decision.allow()] * 3
    assert verifies == {"verify": 1}
    manifest.signature = other.signature  # a valid regulator signature, for another manifest
    assert check() == Decision.deny(DenyReason.MANIFEST)


def test_manifest_requires_registered_purpose(dep):
    with pytest.raises(UnknownPurpose):
        dep.registry.sign_program("p1", b"prog", "NOPE", scope())


# -- grants ---------------------------------------------------------------------

def test_inverted_window_rejected(dep):
    with pytest.raises(InvalidWindow):
        dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.LEGAL, 10, 5)


def test_stored_objects_verify_at_read_time(dep):
    dep.registry.sign_program("p1", b"prog", "TAX_AUDIT", scope())
    dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.LEGAL, 0, 10)
    assert dep.registry.verify_stored_objects()


def test_legal_basis_needs_no_consent(dep):
    manifest = dep.registry.sign_program("p1", b"prog", "TAX_AUDIT", scope())
    auth = dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.LEGAL, 0, 10)
    decision = dep.registry.check(auth.auth_id, manifest.content_digest, scope(),
                                  "TAX_AUDIT", "never-consented", now=5)
    assert decision.allowed


def test_consent_basis_denies_without_consent(dep):
    manifest = dep.registry.sign_program("p1", b"prog", "TAX_AUDIT", scope())
    auth = dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.CONSENT, 0, 10)
    decision = dep.registry.check(auth.auth_id, manifest.content_digest, scope(),
                                  "TAX_AUDIT", "never-consented", now=5)
    assert decision == Decision.deny(DenyReason.CONSENT)


# -- consent lifecycle --------------------------------------------------------------

def test_consent_then_optout_then_reconsent(dep):
    manifest = dep.registry.sign_program("p1", b"prog", "TAX_AUDIT", scope())
    auth = dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.CONSENT, 0, 100)

    def decision():
        return dep.registry.check(auth.auth_id, manifest.content_digest, scope(),
                                  "TAX_AUDIT", "subject-1", now=5)

    dep.registry.record_consent("subject-1", "TAX_AUDIT")
    assert decision().allowed
    dep.registry.opt_out("subject-1", "TAX_AUDIT")
    assert decision() == Decision.deny(DenyReason.CONSENT)
    dep.registry.record_consent("subject-1", "TAX_AUDIT")
    assert decision().allowed


def test_optout_without_consent(dep):
    with pytest.raises(NoConsentToWithdraw):
        dep.registry.opt_out("subject-1", "TAX_AUDIT")


def test_optout_twice_rejected(dep):
    dep.registry.record_consent("subject-1", "TAX_AUDIT")
    dep.registry.opt_out("subject-1", "TAX_AUDIT")
    with pytest.raises(NoConsentToWithdraw):
        dep.registry.opt_out("subject-1", "TAX_AUDIT")


# -- purpose extension ----------------------------------------------------------------

def _extension_world(dep, basis: Basis):
    dep.registry.register_purpose("TAX_RESEARCH", "new use")
    manifest = dep.registry.sign_program("p-research", b"research prog", "TAX_RESEARCH", scope())
    auth = dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", basis, 0, 100)
    return manifest, auth


def test_consent_extension_denied_until_renewal(dep):
    manifest, auth = _extension_world(dep, Basis.CONSENT)
    dep.registry.record_consent("subject-1", "TAX_AUDIT")
    extended = dep.registry.extend_purpose(auth.auth_id, "TAX_RESEARCH")
    assert extended.status.value == "PendingConsent"
    decision = dep.registry.check(extended.auth_id, manifest.content_digest, scope(),
                                  "TAX_RESEARCH", "subject-1", now=5)
    assert not decision.allowed


def test_renewal_activates_for_that_subject_only(dep):
    manifest, auth = _extension_world(dep, Basis.CONSENT)
    dep.registry.record_consent("subject-1", "TAX_AUDIT")
    dep.registry.record_consent("subject-2", "TAX_AUDIT")
    extended = dep.registry.extend_purpose(auth.auth_id, "TAX_RESEARCH")
    dep.registry.record_consent_renewal("subject-1", "TAX_RESEARCH")

    def decision(subject):
        return dep.registry.check(extended.auth_id, manifest.content_digest, scope(),
                                  "TAX_RESEARCH", subject, now=5)

    assert decision("subject-1").allowed
    assert decision("subject-2") == Decision.deny(DenyReason.CONSENT)


def test_legal_extension_is_immediately_active_and_notifies(dep):
    # a subject with data in scope gets told even though no consent is needed
    from regctl import SiloSchema
    silo = dep.create_silo(SiloSchema(domain="tax", field_classes=(("income", "financial"),)))
    master = dep.vault.register_master({"name": "p"})
    vid = dep.vault.derive_vid(master, "tax").vid
    silo.put_record(vid, {"income": "55000"})

    dep.registry.register_purpose("TAX_RESEARCH", "new use")
    auth = dep.registry.grant(dep.controller.key_id, scope(domain="tax"), "TAX_AUDIT",
                              Basis.LEGAL, 0, 100)
    extended = dep.registry.extend_purpose(auth.auth_id, "TAX_RESEARCH")
    assert extended.status.value == "Active"
    notifications = dep.notifier.fetch(vid)
    assert [n.outcome.value for n in notifications] == ["ConsentRenewalRequested"]
    assert notifications[0].request_id == extended.auth_id


def test_extend_unknown_auth(dep):
    with pytest.raises(NotFound):
        dep.registry.extend_purpose("A99999", "TAX_AUDIT")


# -- the decision -------------------------------------------------------------------------

def test_all_conditions_met_allows():
    matrix = build_matrix()
    assert matrix.check(0b1111111).allowed


def test_expired_window_denies_with_window_reason():
    matrix = build_matrix()
    assert matrix.check(0b1111011) == Decision.deny(DenyReason.WINDOW)


def test_check_is_pure_given_state():
    matrix = build_matrix()
    for bits in (0, 0b1010101, 0b1111111):
        assert matrix.check(bits) == matrix.check(bits)


def test_deny_reason_follows_fixed_first_failure_order():
    matrix = build_matrix()
    from truthtable import CONDITION_ORDER
    for first_false in range(7):
        bits = 0b1111111 & ~(1 << first_false)
        decision = matrix.check(bits)
        assert decision == Decision.deny(CONDITION_ORDER[first_false])


def test_condition_matrix_small_sample_matches_oracle():
    matrix = build_matrix()
    for bits in itertools.islice(range(128), 0, 128, 7):
        assert matrix.check(bits) == matrix.oracle(bits)


# -- journal -----------------------------------------------------------------------------

def test_journal_replay_rebuilds_state(dep, tmp_path):
    from regctl import SiloSchema
    from regctl.deploy import REGISTRY_DOMAIN
    manifest, auth = _extension_world(dep, Basis.CONSENT)
    revoked = dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.LEGAL, 0, 10)
    dep.registry.revoke(revoked.auth_id)
    dep.registry.record_consent("subject-1", "TAX_AUDIT")
    extended = dep.registry.extend_purpose(auth.auth_id, "TAX_RESEARCH")
    dep.registry.record_consent_renewal("subject-1", "TAX_RESEARCH")
    dep.registry.opt_out("subject-1", "TAX_AUDIT")
    # opting out a subject with data journals an obligation and a proof
    silo = dep.create_silo(SiloSchema(domain="health", field_classes=(("income", "financial"),)))
    master = dep.vault.register_master({"name": "leaving"})
    silo.put_record(dep.vault.derive_vid(master, "health").vid, {"income": "55000"})
    leaving = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
    dep.registry.record_consent(leaving, "TAX_AUDIT")
    assert len(dep.process_opt_out(leaving, "TAX_AUDIT")) == 1
    path = tmp_path / "registry.journal"
    dep.registry.save(path)

    from regctl.registry import Registry
    replayed = Registry(dep.regulator, dep.clock, dep.event_log, dep._subjects_in_scope)
    replayed.load(path)
    kinds = {crypto.decode_str(crypto.canon_decode(base64.b64decode(line))[1][1])
             for line in path.read_text().splitlines()}
    assert kinds == {"purpose", "manifest", "auth", "auth-status", "consent", "renewal",
                     "optout", "obligation", "proof"}
    for name in ("purposes", "manifests", "manifests_by_digest", "authorizations", "consents",
                 "obligations", "deletion_proofs", "_auth_counter", "_obligation_counter"):
        assert getattr(replayed, name) == getattr(dep.registry, name), name
    assert replayed.authorizations[extended.auth_id].status.value == "Active"
    assert replayed.authorizations[revoked.auth_id].status.value == "Revoked"
    assert not replayed.has_live_consent("subject-1", "TAX_AUDIT")
    assert replayed.has_live_consent("subject-1", "TAX_RESEARCH")
    again = tmp_path / "again.journal"
    replayed.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_journal_rejects_out_of_sequence_record(dep, tmp_path):
    dep.registry.record_consent("subject-1", "TAX_AUDIT")
    dep.registry.opt_out("subject-1", "TAX_AUDIT")
    dep.registry.record_consent("subject-2", "TAX_AUDIT")
    path = tmp_path / "registry.journal"
    dep.registry.save(path)
    lines = path.read_text().splitlines()
    del lines[2]  # the opt-out: without the check, subject-1 consents again
    path.write_text("".join(l + "\n" for l in lines))

    from regctl.registry import Registry
    replayed = Registry(dep.regulator, dep.clock, dep.event_log, dep._subjects_in_scope)
    with pytest.raises(EncodingError):
        replayed.load(path)


def test_journal_rejects_tampered_record(dep, tmp_path):
    dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.LEGAL, 0, 10)
    path = tmp_path / "registry.journal"
    dep.registry.save(path)
    lines = path.read_text().splitlines()
    blob = bytearray(base64.b64decode(lines[0]))
    blob[20] ^= 0x01
    lines[0] = base64.b64encode(bytes(blob)).decode()
    path.write_text("".join(l + "\n" for l in lines))

    from regctl.registry import Registry
    replayed = Registry(dep.regulator, dep.clock, dep.event_log, dep._subjects_in_scope)
    with pytest.raises(EncodingError):
        replayed.load(path)


@pytest.mark.parametrize("damage", ["stray characters", "no final newline"])
def test_journal_reload_is_strict(dep, tmp_path, damage):
    dep.registry.record_consent("subject-1", "TAX_AUDIT")
    dep.registry.opt_out("subject-1", "TAX_AUDIT")
    path = tmp_path / "registry.journal"
    dep.registry.save(path)
    lines = path.read_text().split("\n")
    if damage == "stray characters":
        lines[1] = lines[1][:8] + "!*" + lines[1][8:]  # a lax decoder skips them
        bad = 1
    else:
        lines.pop()
        bad = 2
    path.write_text("\n".join(lines))

    from regctl.registry import Registry
    replayed = Registry(dep.regulator, dep.clock, dep.event_log, dep._subjects_in_scope)
    with pytest.raises(EncodingError, match=f"at line {bad}$"):
        replayed.load(path)


def _saved_journal(dep, tmp_path) -> tuple[Path, list[bytes]]:
    for i in range(4):
        dep.registry.record_consent(f"subject-{i}", "TAX_AUDIT")
    path = tmp_path / "registry.journal"
    dep.registry.save(path)
    return path, store.read_records(path, bytes)


def _assert_rejected_before_apply(dep, path):
    from regctl.registry import Registry
    replayed = Registry(dep.regulator, dep.clock, dep.event_log, dep._subjects_in_scope)
    with pytest.raises(EncodingError):
        replayed.load(path)
    assert replayed.journal == []
    assert replayed.purposes == {} and replayed.consents == {}


def _record_fields(record: bytes) -> list[bytes]:
    tag, fields = crypto.canon_decode(record)
    assert tag == "RECv1"
    return fields


def test_journal_rejects_flipped_bit_in_middle_signature(dep, tmp_path):
    path, records = _saved_journal(dep, tmp_path)
    middle = bytearray(records[2])
    middle[-10] ^= 0x01  # inside the 64 signature bytes that end the record
    records[2] = bytes(middle)
    store.write_records(path, records)
    _assert_rejected_before_apply(dep, path)


def test_journal_rejects_swapped_bodies(dep, tmp_path):
    path, records = _saved_journal(dep, tmp_path)
    one, two = _record_fields(records[1]), _record_fields(records[2])
    one[2], two[2] = two[2], one[2]
    records[1], records[2] = (crypto.canon_encode("RECv1", fields) for fields in (one, two))
    store.write_records(path, records)
    _assert_rejected_before_apply(dep, path)


@pytest.mark.parametrize("source", ["another seed", "same regulator"])
def test_journal_rejects_record_spliced_from_another_journal(dep, tmp_path, source):
    from regctl.registry import Registry
    if source == "another seed":
        other = Deployment(seed=58).registry
    else:
        other = Registry(dep.regulator, dep.clock, dep.event_log, dep._subjects_in_scope)
    other.register_purpose("TAX_AUDIT", "income assessment")
    for i in range(4):
        other.record_consent(f"someone-{i}", "TAX_AUDIT")
    path, records = _saved_journal(dep, tmp_path)
    assert _record_fields(other.journal[2])[0] == _record_fields(records[2])[0]  # same seq
    records[2] = other.journal[2]
    store.write_records(path, records)
    _assert_rejected_before_apply(dep, path)


@pytest.mark.parametrize("consents", [1, 500])
def test_reload_verifies_one_signature_and_signs_none(tmp_path, monkeypatch, consents):
    state = tmp_path / "state"
    dep = Deployment(seed=59, state_dir=state)
    dep.vault.register_domain("health")
    dep.registry.register_purpose("TAX_AUDIT", "income assessment")
    dep.registry.register_purpose("TAX_RESEARCH", "new use")
    auth = dep.registry.grant(dep.controller.key_id, scope(), "TAX_AUDIT", Basis.LEGAL, 0, 100)
    dep.registry.extend_purpose(auth.auth_id, "TAX_RESEARCH")  # an event on both ledgers
    for i in range(consents):
        dep.registry.record_consent(f"subject-{i}", "TAX_AUDIT")
    dep.save()
    calls = count_calls(monkeypatch, "sign", "verify")
    again = Deployment(seed=59, state_dir=state)
    assert calls == {"sign": 0, "verify": 0}  # the registry loads when first reached
    journal = again.registry.journal
    assert calls == {"sign": 0, "verify": 1}
    assert journal == dep.registry.journal
    assert len(again.event_log.regulator_ledger.entries) == 1
