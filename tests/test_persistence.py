"""Deployment persistence: save, reload, keep operating, stay consistent."""

from __future__ import annotations

from pathlib import Path

from regctl import Basis, Deployment, Scope, SiloSchema, cross_verify
from regctl.deploy import REGISTRY_DOMAIN
from regctl.gate import AccessRequest


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


def _submit(dep: Deployment, world: dict, request_id: str):
    request = AccessRequest.build(
        controller=dep.controller, request_id=request_id, program_id="p1",
        content_digest=world["manifest"].content_digest, auth_id=world["auth"].auth_id,
        domain="health", operation="read", subject_vids=[world["vid"]],
        requested_fields=["health"], purpose_code="CARE_AUDIT",
        timestamp=dep.clock.now(), nonce=dep.rand_bytes(16),
    )
    return dep.gate.submit(request)


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
    import pytest
    from regctl.errors import TicketConsumed
    with pytest.raises(TicketConsumed):
        second.gate.open_record(ticket, record_id,
                                second.silos["health"].controller_share(record_id))


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
