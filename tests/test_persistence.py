"""Deployment persistence: save, reload, keep operating, stay consistent."""

from __future__ import annotations

import base64
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regctl import Basis, Deployment, Scope, SiloSchema, cross_verify, store
from regctl.crypto import SHARE_BYTES, Holder, KeyShare
from regctl.deploy import REGISTRY_DOMAIN
from regctl.errors import TicketConsumed, TicketExpired
from regctl.gate import FRESHNESS_WINDOW_SECONDS, TICKET_TTL_SECONDS, AccessRequest, AccessTicket
from regctl.notify import Notification
from regctl.registry import (
    FIELD_CLASSES,
    OPERATIONS,
    Authorization,
    DeletionObligation,
    DeletionProof,
    ProgramManifest,
)
from regctl.scenario import load_scenario, run

ROOT = Path(__file__).resolve().parents[1]


def _working_world(dep: Deployment) -> dict:
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.registry.register_purpose("CARE_AUDIT", "care")
    manifest = dep.registry.sign_program("p1", b"prog", "CARE_AUDIT",
                                         Scope("health", ("health",), "read"))
    auth = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                              "CARE_AUDIT", Basis.CONSENT, 0, 10**6)
    master = dep.vault.register_master({"name": "persistent person"})
    vid = dep.vault.derive_vid(master, "health").vid
    registry_vid = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
    dep.registry.record_consent(registry_vid, "CARE_AUDIT")
    record_id = dep.silos["health"].put_record(vid, {"bp": "120/80"})
    return {"manifest": manifest, "auth": auth, "master": master, "vid": vid,
            "registry_vid": registry_vid, "record_id": record_id}


def _request(dep: Deployment, world: dict, request_id: str,
             subject_vids: list[str] | None = None) -> AccessRequest:
    return AccessRequest.build(
        controller=dep.controller, request_id=request_id, program_id="p1",
        content_digest=world["manifest"].content_digest, auth_id=world["auth"].auth_id,
        domain="health", operation="read", subject_vids=subject_vids or [world["vid"]],
        requested_fields=["health"], purpose_code="CARE_AUDIT",
        timestamp=dep.clock.now(), nonce=dep.rand_bytes(16),
    )


def _submit(dep: Deployment, world: dict, request_id: str):
    return dep.gate.submit(_request(dep, world, request_id))


def _snapshot(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_reload_and_continue_operating(tmp_path):
    state = tmp_path / "state"
    first = Deployment(seed=90, state_dir=state)
    world = _working_world(first)
    result = _submit(first, world, "q-before")
    assert result.decision.allowed
    fields = first.gate.open_record(result.ticket, world["record_id"],
                                    first.silos["health"].controller_share(world["record_id"]))
    assert fields == {"bp": "120/80"}
    first.clock.advance(5)
    first.save()

    second = Deployment(seed=90, state_dir=state)
    # identities, vault mapping and registry state all came back
    assert second.regulator.public_key == first.regulator.public_key
    assert second.vault.derive_vid(world["master"], "health").vid == world["vid"]
    assert second.registry.has_live_consent(world["registry_vid"], "CARE_AUDIT")
    assert second.registry.verify_stored_objects()
    assert len(second.event_log.regulator_ledger.entries) == len(
        first.event_log.regulator_ledger.entries)

    # paired appends resume cleanly on top of the reloaded chains
    world["manifest"] = second.registry.manifests["p1"]
    world["auth"] = second.registry.authorizations[world["auth"].auth_id]
    again = _submit(second, world, "q-after")
    assert again.decision.allowed
    assert second.event_log.regulator_ledger.verify_chain() is None
    assert second.event_log.controller_ledger.verify_chain() is None
    assert cross_verify(second.event_log.regulator_ledger,
                        second.event_log.controller_ledger) is None
    assert second.event_log.expected_notification_pairs() == second.notifier.pairs()
    second.save()

    # a third generation still agrees after two save/load cycles
    third = Deployment(seed=90, state_dir=state)
    assert len(third.event_log.regulator_ledger.entries) == len(
        second.event_log.regulator_ledger.entries)
    assert third.event_log.regulator_ledger.verify_chain() is None
    assert cross_verify(third.event_log.regulator_ledger,
                        third.event_log.controller_ledger) is None


def test_vault_secret_saved_only_under_keys(tmp_path):
    state = tmp_path / "state"
    dep = Deployment(seed=91, state_dir=state)
    assert _submit(dep, _working_world(dep), "q1").decision.allowed
    dep.save()
    secret_hex = (state / "keys" / "vault.secret").read_text().strip()
    needles = (secret_hex.encode(), bytes.fromhex(secret_hex))
    holders = [path.relative_to(state).as_posix() for path in sorted(state.rglob("*"))
               if path.is_file() and any(n in path.read_bytes() for n in needles)]
    assert holders == ["keys/vault.secret"]


def test_consumed_tickets_stay_consumed_across_reload(tmp_path):
    state = tmp_path / "state"
    first = Deployment(seed=91, state_dir=state)
    world = _working_world(first)
    result = _submit(first, world, "q1")
    record_id = world["record_id"]
    first.gate.open_record(result.ticket, record_id,
                           first.silos["health"].controller_share(record_id))
    first.save()

    second = Deployment(seed=91, state_dir=state)
    ticket = second.gate.tickets.get(result.ticket.ticket_id)
    assert ticket is not None  # still within its 60-tick life
    with pytest.raises(TicketConsumed):
        second.gate.open_record(ticket, record_id,
                                second.silos["health"].controller_share(record_id))


def _opened(dep: Deployment, world: dict):
    result = _submit(dep, world, "q1")
    record_id = world["record_id"]
    dep.gate.open_record(result.ticket, record_id,
                         dep.silos["health"].controller_share(record_id))
    return result.ticket


def test_consumed_marks_leave_gate_state_with_their_ticket(tmp_path):
    state = tmp_path / "state"
    first = Deployment(seed=94, state_dir=state)
    world = _working_world(first)
    ticket = _opened(first, world)
    first.save()
    assert json.loads((state / "gate.json").read_text())["consumed"] == [
        [ticket.ticket_id, world["record_id"], ticket.expires_at]]
    first.clock.advance(TICKET_TTL_SECONDS)
    first.save()
    assert json.loads((state / "gate.json").read_text())["consumed"] == []
    assert first.gate.consumed_count() == first.gate.plaintext_releases == 1

    second = Deployment(seed=94, state_dir=state)
    with pytest.raises(TicketExpired):  # expiry is checked before consumption
        second.gate.open_record(ticket, world["record_id"],
                                second.silos["health"].controller_share(world["record_id"]))


def test_consumed_mark_outlives_its_ticket_dropped_by_erasure(tmp_path):
    state = tmp_path / "state"
    first = Deployment(seed=96, state_dir=state)
    world = _working_world(first)
    other = first.vault.register_master({"name": "second person"})
    other_vid = first.vault.derive_vid(other, "health").vid
    first.registry.record_consent(first.vault.derive_vid(other, REGISTRY_DOMAIN).vid,
                                  "CARE_AUDIT")
    kept = first.silos["health"].put_record(other_vid, {"bp": "110/70"})
    ticket = first.gate.submit(_request(first, world, "q2", [world["vid"], other_vid])).ticket
    assert set(ticket.regulator_shares) == {world["record_id"], kept}
    # erasing one of its records drops the ticket from the gate's saved tickets
    first.process_opt_out(world["registry_vid"], "CARE_AUDIT")
    assert ticket.ticket_id not in first.gate.tickets
    first.gate.open_record(ticket, kept, first.silos["health"].controller_share(kept))
    first.save()

    second = Deployment(seed=96, state_dir=state)
    with pytest.raises(TicketConsumed):
        second.gate.open_record(ticket, kept, second.silos["health"].controller_share(kept))


def test_replayed_nonce_rejected_across_reload(tmp_path):
    state = tmp_path / "state"
    first = Deployment(seed=92, state_dir=state)
    world = _working_world(first)
    request = AccessRequest.build(
        controller=first.controller, request_id="q1", program_id="p1",
        content_digest=world["manifest"].content_digest, auth_id=world["auth"].auth_id,
        domain="health", operation="read", subject_vids=[world["vid"]],
        requested_fields=["health"], purpose_code="CARE_AUDIT",
        timestamp=first.clock.now(), nonce=first.rand_bytes(16),
    )
    assert first.gate.submit(request).decision.allowed
    first.save()

    second = Deployment(seed=92, state_dir=state)
    replay = second.gate.submit(request)
    assert not replay.decision.allowed
    assert replay.decision.reason.value == "Replay"


def test_stale_nonces_leave_gate_state_and_stay_refused(tmp_path):
    state = tmp_path / "state"
    first = Deployment(seed=93, state_dir=state)
    world = _working_world(first)
    request = _request(first, world, "q1")
    assert first.gate.submit(request).decision.allowed
    first.clock.advance(FRESHNESS_WINDOW_SECONDS)
    first.save()
    assert request.nonce.hex() in json.loads((state / "gate.json").read_text())["nonces"]
    first.clock.advance(1)
    first.save()
    assert json.loads((state / "gate.json").read_text())["nonces"] == {}

    second = Deployment(seed=93, state_dir=state)
    replay = second.gate.submit(request)
    assert not replay.decision.allowed
    assert replay.decision.reason.value == "Stale"


def test_erasure_after_an_earlier_save_leaves_no_trace(tmp_path):
    state = tmp_path / "state"
    dep = Deployment(seed=95, state_dir=state)
    world = _working_world(dep)
    record_id = world["record_id"]
    silo = dep.silos["health"]
    dep.save()
    result = _submit(dep, world, "q1")
    assert dep.gate.open_record(result.ticket, record_id,
                                silo.controller_share(record_id)) == {"bp": "120/80"}
    dep.save()
    secrets = [silo.fetch_ciphertext(record_id), silo.controller_share(record_id).share,
               dep.share_store.get(record_id).share]
    needles = [form for secret in secrets
               for form in (secret, secret.hex().encode(), base64.b64encode(secret))]

    def holders() -> list[str]:
        found = []
        for name, raw in _snapshot(state).items():
            blobs = [raw]
            for line in raw.splitlines():
                try:
                    blobs.append(base64.b64decode(line, validate=True))
                except ValueError:
                    pass
            if any(needle in blob for needle in needles for blob in blobs):
                found.append(name)
        return found

    # the earlier save holds the record, its shares and the ticket
    assert {"silos/health/records.log", "regulator_shares.json", "gate.json"} <= set(holders())
    dep.process_opt_out(world["registry_vid"], "CARE_AUDIT")
    dep.save()
    assert holders() == []


def test_interrupted_save_leaves_each_file_old_or_new(tmp_path, monkeypatch):
    state = tmp_path / "state"
    dep = Deployment(seed=94, state_dir=state)
    world = _working_world(dep)
    dep.save()
    before = _snapshot(state)
    assert _submit(dep, world, "q1").decision.allowed
    master = dep.vault.register_master({"name": "second person"})
    dep.registry.record_consent(dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid, "CARE_AUDIT")
    dep.silos["health"].put_record(dep.vault.derive_vid(master, "health").vid, {"bp": "110/70"})
    dep.clock.advance(1)
    dep.state_dir = tmp_path / "after"
    dep.save()
    after = _snapshot(dep.state_dir)
    changed = {name for name in after if before.get(name) != after[name]}
    assert len(changed) >= 10

    real_replace = store.os.replace
    for k in range(1, 100):
        shutil.rmtree(state)
        for name, data in before.items():
            (state / name).parent.mkdir(parents=True, exist_ok=True)
            (state / name).write_bytes(data)
        calls = []

        def crash_at_k(src, dst):
            calls.append(dst)
            if len(calls) == k:
                raise OSError("injected crash")
            real_replace(src, dst)

        dep.state_dir = state
        with monkeypatch.context() as patch:
            patch.setattr(store.os, "replace", crash_at_k)
            try:
                dep.save()
                crashed = False
            except OSError:
                crashed = True
        now = _snapshot(state)
        leftovers = set(now) - set(before) - set(after)
        assert not leftovers, f"write {k} left {leftovers}"
        for name, data in now.items():
            assert data in (before.get(name), after.get(name)), f"write {k} tore {name}"
        if not crashed:
            assert now == before | after
            break
    assert k == len(calls) + 1  # every write was interrupted once
    assert len(calls) >= len(changed)


def test_state_directory_layout_matches_readme(tmp_path):
    block = (ROOT / "README.md").read_text().split("## State directory layout", 1)[1]
    entries: dict[str, str] = {}
    for line in block.split("```")[1].strip("\n").splitlines():
        if line[:1].isspace():
            entries[name] += " " + line.strip()
        else:
            name, _, text = line.partition(" ")
            entries[name] = text
    state = tmp_path / "state"
    assert run(load_scenario(ROOT / "scenarios" / "honest.scn"), state_dir=state).passed

    assert {name.split("/")[0] for name in entries} == {p.name for p in state.iterdir()}
    for name, text in entries.items():
        if not name.endswith("/"):
            continue
        listed = set(re.findall(r"[a-z_]+\.[a-z]+", text))
        dirs = list(state.glob(name.rstrip("/").replace("<domain>", "*")))
        assert dirs, name
        for directory in dirs:
            assert {p.name for p in directory.iterdir()} == listed, directory


_scopes = st.builds(Scope, field_classes=st.lists(st.sampled_from(FIELD_CLASSES)).map(tuple),
                    operation=st.sampled_from(OPERATIONS))
_shares = st.binary(min_size=SHARE_BYTES, max_size=SHARE_BYTES).map(
    lambda share: KeyShare(share, Holder.REGULATOR))


_CODEC_CASES = {
    Scope: _scopes,
    ProgramManifest: st.builds(ProgramManifest, allowed_scope=_scopes),
    Authorization: st.builds(Authorization, scope=_scopes),
    DeletionObligation: st.builds(DeletionObligation),
    DeletionProof: st.builds(DeletionProof),
    Notification: st.builds(Notification, delivered=st.booleans()),
    SiloSchema: st.builds(SiloSchema, contact_approved=st.booleans()),
    AccessTicket: st.builds(AccessTicket, granted_scope=_scopes,
                            regulator_shares=st.dictionaries(st.text(), _shares)),
}


@pytest.mark.parametrize("cls", list(_CODEC_CASES), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_document_codec_round_trips_through_json(cls, data):
    value = data.draw(_CODEC_CASES[cls])
    doc = store.to_doc(value)
    built = {}
    if cls is AccessTicket:  # the gate writes and reads ticket shares itself
        built["regulator_shares"] = value.regulator_shares
        doc["regulator_shares"] = {rid: s.share.hex() for rid, s in value.regulator_shares.items()}
    assert store.from_doc(cls, json.loads(json.dumps(doc)), **built) == value


def test_document_codec_refuses_a_tuple_of_mixed_item_types():
    @dataclass
    class Mixed:
        pair: tuple[str, bytes]

    with pytest.raises(TypeError, match="items differ in type"):
        store.to_doc(Mixed(("a", b"b")))
