"""Deployment persistence: save, reload, keep operating, stay consistent."""

from __future__ import annotations

import base64
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regctl import Basis, Deployment, Scope, SiloSchema, cross_verify, store
from regctl.cli import main as cli_main
from regctl.crypto import SHARE_BYTES, Holder, KeyShare, canon_encode, prf_derive, sha256
from regctl.deploy import REGISTRY_DOMAIN
from regctl.errors import EncodingError, TicketConsumed, TicketExpired
from regctl.gate import FRESHNESS_WINDOW_SECONDS, TICKET_TTL_SECONDS, AccessRequest, AccessTicket
from regctl.ledger import LogEntry
from regctl.registry import (
    FIELD_CLASSES,
    OPERATIONS,
    Authorization,
    DeletionObligation,
    DeletionProof,
    DenyReason,
    ProgramManifest,
)
from regctl.scenario import load_scenario, run
from regctl.silo import RegulatorShareStore, SiloRecord

from conftest import CHECKPOINT, checkpoint_marks, count_calls, seal_checkpoint, state_files

ROOT = Path(__file__).resolve().parents[1]
STREAMS = ("regulator.log", "controller.log", "events.log")


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
    holders = [name for name, data in state_files(state).items()
               if any(n in data for n in needles)]
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
    ticket = second.gate.ticket(result.ticket.ticket_id)
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
    assert first.gate.ticket(ticket.ticket_id) is None
    first.gate.open_record(ticket, kept, first.silos["health"].controller_share(kept))
    first.save()

    second = Deployment(seed=96, state_dir=state)
    with pytest.raises(TicketConsumed):
        second.gate.open_record(ticket, kept, second.silos["health"].controller_share(kept))


def _held_tickets(tmp_path) -> tuple[Path, dict, list[AccessTicket]]:
    """A saved state directory holding two live tickets: one for two subjects,
    then, 30 ticks later, one for the first subject alone."""
    state = tmp_path / "state"
    dep = Deployment(seed=98, state_dir=state)
    world = _working_world(dep)
    other = dep.vault.register_master({"name": "second person"})
    other_vid = dep.vault.derive_vid(other, "health").vid
    world["other_registry_vid"] = dep.vault.derive_vid(other, REGISTRY_DOMAIN).vid
    dep.registry.record_consent(world["other_registry_vid"], "CARE_AUDIT")
    dep.silos["health"].put_record(other_vid, {"bp": "110/70"})
    both = dep.gate.submit(_request(dep, world, "q1", [world["vid"], other_vid])).ticket
    dep.clock.advance(30)
    alone = _submit(dep, world, "q2").ticket
    dep.save()
    return state, world, [both, alone]


def _gate_doc(state: Path) -> dict:
    return json.loads((state / "gate.json").read_text())


def test_a_gate_saved_with_no_lookup_writes_its_file_back_and_builds_no_share(tmp_path,
                                                                               monkeypatch):
    state, _, tickets = _held_tickets(tmp_path)
    built = count_calls(monkeypatch, "__post_init__", owner=KeyShare)
    gate = Deployment(state_dir=state).gate
    assert gate.save()["gate.json"] == (state / "gate.json").read_bytes()
    assert built["__post_init__"] == 0
    # a lookup builds the ticket and its shares, and a save writes it as before
    assert gate.ticket(tickets[0].ticket_id) == tickets[0]
    assert built["__post_init__"] == len(tickets[0].regulator_shares) == 2
    assert gate.save()["gate.json"] == (state / "gate.json").read_bytes()
    assert gate.ticket("T-none") is None


def test_held_tickets_past_their_expiry_leave_the_saved_gate(tmp_path):
    state, _, tickets = _held_tickets(tmp_path)
    dep = Deployment(state_dir=state)
    dep.clock.advance(TICKET_TTL_SECONDS - 30)  # the first ticket's last tick has passed
    saved = json.loads(dep.gate.save()["gate.json"])
    assert [t["ticket_id"] for t in saved["tickets"]] == [tickets[1].ticket_id]
    dep.clock.advance(30)
    assert json.loads(dep.gate.save()["gate.json"])["tickets"] == []


def test_an_opt_out_drops_a_held_ticket_naming_an_erased_record(tmp_path):
    state, world, (both, alone) = _held_tickets(tmp_path)
    dep = Deployment(state_dir=state)
    assert len(dep.process_opt_out(world["other_registry_vid"], "CARE_AUDIT")) == 1
    dep.save()
    assert [t["ticket_id"] for t in _gate_doc(state)["tickets"]] == [alone.ticket_id]
    assert dep.gate.ticket(both.ticket_id) is None
    assert dep.gate.ticket(alone.ticket_id) == alone


def _first_share(ticket: dict) -> str:
    return next(iter(ticket["regulator_shares"]))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda t: t.pop("request_id"), id="missing field"),
    pytest.param(lambda t: t["regulator_shares"].update(
        {_first_share(t): t["regulator_shares"][_first_share(t)][:62]}), id="62-character share"),
    pytest.param(lambda t: t["regulator_shares"].update(
        {_first_share(t): "zz" + t["regulator_shares"][_first_share(t)][2:]}), id="non-hex share"),
    pytest.param(lambda t: t["granted_scope"].update(operation="bogus"), id="unknown operation"),
    pytest.param(lambda t: t["granted_scope"].update(field_classes=["bogus"]),
                 id="unknown field class"),
    pytest.param(lambda t: t["regulator_shares"].update(
        {_first_share(t): t["regulator_shares"][_first_share(t)][:2] + " "
         + t["regulator_shares"][_first_share(t)][2:]}), id="a space"),
])
def test_a_held_ticket_that_does_not_build_is_refused_at_load(tmp_path, edit):
    state, _, _ = _held_tickets(tmp_path)
    doc = _gate_doc(state)
    edit(doc["tickets"][1])
    (state / "gate.json").write_bytes(store.json_bytes(doc))
    with pytest.raises(EncodingError, match=r"gate\.json: not a gate state document"):
        Deployment(state_dir=state).gate


@pytest.mark.parametrize("spell", [str.upper], ids=["upper case"])
def test_a_held_share_in_another_spelling_of_its_hex_is_saved_as_lowercase_hex(tmp_path, spell):
    state, _, tickets = _held_tickets(tmp_path)
    own = (state / "gate.json").read_bytes()
    doc = _gate_doc(state)
    shares = doc["tickets"][0]["regulator_shares"]
    shares[_first_share(doc["tickets"][0])] = spell(shares[_first_share(doc["tickets"][0])])
    (state / "gate.json").write_bytes(store.json_bytes(doc))
    gate = Deployment(state_dir=state).gate
    assert gate.save()["gate.json"] == own
    assert gate.ticket(tickets[0].ticket_id) == tickets[0]


def test_an_open_on_a_gate_naming_an_unknown_operation_fails_and_saves_nothing(tmp_path, capsys):
    state = tmp_path / "state"
    world = _cli_world(lambda *argv: _cli(capsys, state, *argv))
    doc = _gate_doc(state)
    doc["tickets"][0]["granted_scope"]["operation"] = "bogus"
    (state / "gate.json").write_bytes(store.json_bytes(doc))
    before = state_files(state)
    assert cli_main(["--state-dir", str(state), "open", "--ticket", world["ticket"],
                     "--record", world["record"]]) == 1
    assert capsys.readouterr().err == (f"error={state / 'gate.json'}: not a gate state document: "
                                       "unknown operation: bogus\n")
    assert state_files(state) == before


def test_an_open_reads_no_share_file_and_a_put_or_a_submit_reads_it_once(tmp_path, capsys,
                                                                         monkeypatch):
    state = tmp_path / "state"
    world = _cli_world(lambda *argv: _cli(capsys, state, *argv))
    loads = count_calls(monkeypatch, "load", owner=RegulatorShareStore)
    counted = {}
    for name, argv in [
            ("open", ["open", "--ticket", world["ticket"], "--record", world["record"]]),
            ("silo put", ["silo", "put", "--domain", "health", "--vid", world["vid"], "bp=1"]),
            ("submit", ["submit", "--request-id", "q2", "--program", "p1", "--auth",
                        world["auth"], "--domain", "health", "--subjects", world["vid"],
                        "--classes", "health", "--purpose", "CARE_AUDIT"])]:
        loads["load"] = 0
        _cli(capsys, state, *argv)
        counted[name] = loads["load"]
    assert counted == {"open": 0, "silo put": 1, "submit": 1}


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
        for name, raw in state_files(state).items():
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


def test_a_save_with_no_change_replaces_no_file(tmp_path, monkeypatch):
    dep = Deployment(seed=95, state_dir=tmp_path / "state")
    world = _working_world(dep)
    assert _submit(dep, world, "q1").decision.allowed
    dep.save()
    before = state_files(dep.state_dir)
    calls = count_calls(monkeypatch, "replace", owner=store.os)
    dep.save()
    assert calls["replace"] == 0
    assert state_files(dep.state_dir) == before


_STREAM_FILES = ("ledgers/regulator.log", "ledgers/controller.log", "ledgers/events.log",
                 "registry.journal")


def _restore(root: Path, files: dict[str, bytes]) -> None:
    """Make ``root`` hold exactly ``files``."""
    shutil.rmtree(root, ignore_errors=True)
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)


def _cut_fragments(root: Path) -> None:
    """Drop what follows the last newline of each record stream under ``root``."""
    for name in _STREAM_FILES:
        data = (root / name).read_bytes()
        (root / name).write_bytes(data[:data.rfind(b"\n") + 1])


@pytest.mark.parametrize("how", ["appended", "rewritten"])
def test_interrupted_save_leaves_each_file_old_or_new(tmp_path, monkeypatch, how):
    """A save is cut at each point where a crash can land: before a stream's
    tail is written, with half of it written, before its fsync, and at each
    fsync and rename of a whole file. A deployment loaded from the old files
    appends each stream's tail; one whose stamps are of another directory
    rewrites every file whole."""
    state = tmp_path / "state"
    dep = Deployment(seed=94, state_dir=state)
    world = _working_world(dep)
    assert _submit(dep, world, "q0").decision.allowed  # so the checkpoint vouches for entries
    dep.save()
    before = state_files(state)

    def changed(root: Path) -> Deployment:
        """A deployment with a change to every service, to save under ``root``:
        three lines to append to each stream, so half a tail ends mid-line
        after a whole new line."""
        changing = dep
        if how == "appended":
            _restore(root, before)
            changing = Deployment(seed=94, state_dir=root)
        for request_id in ("q1", "q2", "q3"):
            assert _submit(changing, world, request_id).decision.allowed
        changing.registry.register_purpose("CARE_REVIEW", "review")
        changing.registry.register_purpose("CARE_RECALL", "recall")
        master = changing.vault.register_master({"name": "second person"})
        changing.registry.record_consent(
            changing.vault.derive_vid(master, REGISTRY_DOMAIN).vid, "CARE_AUDIT")
        changing.silos["health"].put_record(changing.vault.derive_vid(master, "health").vid,
                                            {"bp": "110/70"})
        changing.clock.advance(1)
        changing.state_dir = root
        return changing

    saved = changed(tmp_path / "after")
    saved.save()
    after = state_files(tmp_path / "after")
    changed_names = {name for name in after if before.get(name) != after[name]}
    assert len(changed_names) >= 10 and {"registry.journal", "registry.json"} <= changed_names

    real = {name: getattr(store.os, name) for name in ("write", "fsync", "replace")}
    for k in range(1, 200):
        points: list[str] = []  # each point a crash could be injected at, so far

        def crash_at(point: str) -> bool:
            points.append(point)
            return len(points) == k

        def write(fd, data):
            if crash_at("before a tail"):
                raise OSError("injected crash")
            if crash_at("half a tail"):
                real["write"](fd, data[:len(data) // 2])
                raise OSError("injected crash")
            return real["write"](fd, data)

        def fsync(fd):
            if crash_at("fsync"):
                raise OSError("injected crash")
            real["fsync"](fd)

        def replace(src, dst):
            if crash_at("replace"):
                raise OSError("injected crash")
            real["replace"](src, dst)

        if how == "appended":
            saving = changed(state)
        else:
            _restore(state, before)
            saving = saved
            saving.state_dir = state
        with monkeypatch.context() as patch:
            for name, call in (("write", write), ("fsync", fsync), ("replace", replace)):
                patch.setattr(store.os, name, call)
            try:
                saving.save()
                crashed = False
            except OSError:
                crashed = True
        now = state_files(state)
        leftovers = set(now) - set(before) - set(after)
        assert not leftovers, f"point {k} left {leftovers}"
        for name, data in now.items():
            old, new = before.get(name), after.get(name)
            torn = (how == "appended" and name in _STREAM_FILES
                    and data.startswith(old) and new.startswith(data))
            assert data in (old, new) or torn, f"point {k} tore {name}"
        strict = _strict_copy(state, tmp_path)
        _cut_fragments(strict)
        events = _loaded_events(state)
        assert events == _loaded_events(strict), k
        _, _, entries, payloads = events
        # the ledgers are the commit: as many payloads as both hold entries; a
        # crash between their two appends leaves them unequal (ROADMAP item 8)
        if len(entries[0]) == len(entries[1]):
            assert len(payloads) == len(entries[0]), k
        assert _loaded_registry(state) == _loaded_registry(strict), k
        assert _loaded_silos(state) == _loaded_silos(strict), k
        if not crashed:
            assert now == before | after
            break
    assert k == len(points) + 1  # a crash was injected once at every point
    assert points.count("replace") >= len(changed_names) - 4 * (how == "appended")
    tails = points.count("before a tail")
    assert tails == points.count("half a tail") == (4 if how == "appended" else 0)


def _cli(capsys, state: Path, *argv: str) -> dict[str, str]:
    """Run one seeded CLI command on ``state``; its key=value output."""
    assert cli_main(["--state-dir", str(state), "--seed", "99", *argv]) == 0
    return dict(pair.split("=", 1) for pair in capsys.readouterr().out.split())


def _cli_world(run) -> dict[str, str]:
    """Build a world by CLI commands, each run by ``run(*argv)``, which
    returns the command's output. The commands change the vault in every
    way (a domain, a master, a vid, an alias), a silo and the share store.
    Returns the ticket of an allowed submit, the record it covers, the
    subject's registry vid and health vid, and the grant."""
    run("purpose", "add", "CARE_AUDIT")
    run("silo", "create", "--domain", "health", "--field", "bp:health")
    master = run("vault", "register", "name=oracle", "real_phone=0012")["master_id"]
    vid = run("vault", "derive", "--master", master, "--domain", "health")["vid"]
    run("vault", "alias", "--master", master, "--ttl", "100")
    record = run("silo", "put", "--domain", "health", "--vid", vid, "bp=120/80")["record_id"]
    run("program", "sign", "--program-id", "p1", "--artifact-text", "v1",
        "--purpose", "CARE_AUDIT", "--domain", "health", "--classes", "health")
    auth = run("grant", "--grantee", "controller", "--domain", "health", "--classes", "health",
               "--purpose", "CARE_AUDIT", "--basis", "Legal", "--from", "0",
               "--until", "1000")["auth_id"]
    # the submit derives the subject's registry vid to check consent
    ticket = run("submit", "--request-id", "q1", "--program", "p1", "--auth", auth,
                 "--domain", "health", "--subjects", vid, "--classes", "health",
                 "--purpose", "CARE_AUDIT")["ticket_id"]
    subject = run("vault", "derive", "--master", master, "--domain", REGISTRY_DOMAIN)["vid"]
    return {"ticket": ticket, "record": record, "subject": subject, "vid": vid, "auth": auth}


def test_skipped_saves_leave_the_bytes_every_save_encoding_leaves(tmp_path, capsys, monkeypatch):
    stamped, encoded = tmp_path / "stamped", tmp_path / "encoded"

    def run(*argv: str) -> dict[str, str]:
        out = _cli(capsys, stamped, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(store, "stamp", lambda *paths: None)  # no stamp ever matches
            _cli(capsys, encoded, *argv)
        assert state_files(encoded) == state_files(stamped), argv
        return out

    world = _cli_world(run)
    run("open", "--ticket", world["ticket"], "--record", world["record"])
    run("consent", "give", "--subject", world["subject"], "--purpose", "CARE_AUDIT")
    run("consent", "optout", "--subject", world["subject"], "--purpose", "CARE_AUDIT")
    assert (stamped / "silos" / "health" / "records.log").read_bytes() == b""


def test_open_and_consent_give_encode_no_vault_silo_or_share_store(tmp_path, capsys, monkeypatch):
    state = tmp_path / "state"
    world = _cli_world(lambda *argv: _cli(capsys, state, *argv))
    files = [state / name for name in
             ("vault/state.json", "silos/health/records.log", "regulator_shares.json")]
    stamp = store.stamp(*files)
    encoded = count_calls(monkeypatch, "canonical_bytes", owner=SiloRecord)
    _cli(capsys, state, "open", "--ticket", world["ticket"], "--record", world["record"])
    _cli(capsys, state, "consent", "give", "--subject", world["subject"], "--purpose", "CARE_AUDIT")
    assert encoded["canonical_bytes"] == 0
    assert store.stamp(*files) == stamp


@pytest.mark.parametrize("name", [
    "vault/state.json", "silos/health/schema.json", "silos/health/records.log",
    "ledgers/events.log", "ledgers/checkpoint.json", "registry.journal", "registry.json",
    "regulator_shares.json"])
def test_a_file_replaced_behind_a_loaded_deployment_is_rewritten(tmp_path, name):
    state = tmp_path / "state"
    dep = Deployment(seed=96, state_dir=state)
    assert _submit(dep, _working_world(dep), "q1").decision.allowed  # so events.log holds one
    dep.save()
    loaded = Deployment(state_dir=state)
    # each service loads its files when first reached
    loaded.vault, loaded.silos, loaded.registry, loaded.share_store
    path = state / name
    own = path.read_bytes()
    assert own
    store.write_atomic(path, b"x" * len(own))
    loaded.save()
    assert path.read_bytes() == own


def test_a_save_appends_each_streams_new_lines_and_replaces_no_stream(tmp_path, capsys,
                                                                      monkeypatch):
    state = tmp_path / "state"
    world = _cli_world(lambda *argv: _cli(capsys, state, *argv))
    streams = [state / name for name in _STREAM_FILES]
    old = {path: (path.stat().st_ino, path.read_bytes()) for path in streams}
    replaced = []
    replace = store.os.replace
    monkeypatch.setattr(store.os, "replace",
                        lambda src, dst: replaced.append(Path(dst)) or replace(src, dst))
    _cli(capsys, state, "open", "--ticket", world["ticket"], "--record", world["record"])
    _cli(capsys, state, "consent", "give", "--subject", world["subject"], "--purpose", "CARE_AUDIT")
    for path, (inode, data) in old.items():
        grown = path.read_bytes()
        assert path.stat().st_ino == inode, path.name
        assert len(grown) > len(data) and grown[:len(data)] == data, path.name
    assert not set(replaced) & set(streams)
    assert {state / "ledgers" / "checkpoint.json", state / "registry.json"} <= set(replaced)


def _output(capsys, state: Path, *argv: str) -> tuple[int, str, str]:
    """Run one seeded CLI command on ``state``: its exit code, stdout and stderr."""
    code = cli_main(["--state-dir", str(state), "--seed", "99", *argv])
    out, err = capsys.readouterr()
    return code, out.replace(str(state), "<state>"), err.replace(str(state), "<state>")


def test_a_fragment_after_the_sealed_lines_is_dropped_and_the_next_logging_save_rewrites_it(
        tmp_path, capsys):
    """A crash in the middle of an append leaves part of a line after the
    lines the checkpoint vouches for: a load drops it and decides as the
    clean state does. Without the checkpoint it is refused, as any stream
    that does not end in a newline is."""
    state, twin, unsealed = tmp_path / "state", tmp_path / "twin", tmp_path / "unsealed"
    world = _cli_world(lambda *argv: _cli(capsys, state, *argv))
    shutil.copytree(state, twin)
    events = state / "ledgers" / "events.log"
    clean = events.read_bytes()
    with events.open("ab") as f:
        f.write(b"QUJD")
    shutil.copytree(state, unsealed)
    (unsealed / "ledgers" / "checkpoint.json").unlink()

    assert _loaded_events(state) == _loaded_events(twin)
    listed = _output(capsys, twin, "notifications", "--all", world["vid"])
    assert listed[0] == 0 and "request_id=q1 " in listed[1]
    assert _output(capsys, state, "notifications", "--all", world["vid"]) == listed
    assert events.read_bytes() == clean + b"QUJD"  # a command that logs nothing writes nothing
    before, lines = state_files(unsealed), clean.count(b"\n")
    assert _output(capsys, unsealed, "notifications", "--all", world["vid"]) == (
        1, "", f"error=<state>/ledgers/events.log: undecodable record at line {lines}\n")
    assert state_files(unsealed) == before

    opened = _output(capsys, twin, "open", "--ticket", world["ticket"], "--record", world["record"])
    assert opened[0] == 0
    assert _output(capsys, state, "open", "--ticket", world["ticket"],
                   "--record", world["record"]) == opened
    assert events.read_bytes().endswith(b"\n")
    assert state_files(state) == state_files(twin)


@pytest.mark.parametrize("checkpoint", ["kept", "deleted"])
def test_payloads_past_both_ledgers_are_dropped_and_the_next_logging_save_rewrites_them(
        tmp_path, capsys, checkpoint):
    """A crash after the events.log append and before the ledger appends
    leaves a payload no ledger entry commits to: a load holds only as many
    payloads as both ledgers hold entries, and decides as the clean twin does."""
    state, commands = _cli_state(tmp_path)
    twin, later = tmp_path / "twin", tmp_path / "later"
    shutil.copytree(state, twin)
    shutil.copytree(state, later)
    on = lambda root, argv: [argv[0], str(root), *argv[2:]]  # argv[1] is the state directory
    assert cli_main(on(later, commands[0])) == 0
    shutil.copyfile(later / "ledgers" / "events.log", state / "ledgers" / "events.log")
    if checkpoint == "deleted":
        for root in (state, twin):
            (root / CHECKPOINT).unlink()
    vid = commands[0][commands[0].index("--subjects") + 1]
    capsys.readouterr()
    listed = [_output(capsys, root, "notifications", "--all", vid) for root in (state, twin)]
    assert listed[0] == listed[1] and listed[0][0] == 0
    for root in (state, twin):
        assert cli_main(on(root, commands[1])) == 0
    assert state_files(state) == state_files(twin)
    log = Deployment(state_dir=state).event_log
    events = log.events_from_ledger(log.regulator_ledger, log.controller_ledger)
    assert [event.event_id for event in events] == ["q1", "q2", "q4"]
    ledgers = state / "ledgers"
    capsys.readouterr()
    assert cli_main(["--state-dir", str(state), "verify-logs", str(ledgers / "regulator.log"),
                     str(ledgers / "controller.log")]) == 0
    assert capsys.readouterr().out.endswith("cross=ok\n")


def _cli_state(tmp_path) -> tuple[Path, list[list[str]]]:
    """A state directory after a few CLI commands, and two more commands to run."""
    state = tmp_path / "state"
    dep = Deployment(seed=97, state_dir=state)
    world = _working_world(dep)
    dep.save()

    def submit(request_id: str) -> list[str]:
        return ["--state-dir", str(state), "--seed", "97", "submit", "--request-id", request_id,
                "--program", "p1", "--auth", world["auth"].auth_id, "--domain", "health",
                "--subjects", world["vid"], "--classes", "health", "--purpose", "CARE_AUDIT"]

    for argv in (submit("q1"), submit("q2")):
        assert cli_main(argv) == 0
    return state, [submit("q3"), submit("q4")]


def _strict_copy(state: Path, tmp_path: Path) -> Path:
    """A copy of ``state`` with no checkpoint, so every stream loads strictly
    and the registry journal is replayed."""
    strict = tmp_path / "strict"
    shutil.rmtree(strict, ignore_errors=True)
    shutil.copytree(state, strict)
    (strict / CHECKPOINT).unlink(missing_ok=True)
    return strict


def _loaded_events(state: Path):
    """What an event log loaded from ``state`` holds, tips and heads read
    before anything decodes every entry; or the error the load raised."""
    try:
        log = Deployment(state_dir=state).event_log
    except EncodingError as exc:
        return repr(exc).replace(str(state), "<state>")
    ledgers = (log.regulator_ledger, log.controller_ledger)
    tips = [ledger.tip() for ledger in ledgers]
    heads = [ledger.head() for ledger in ledgers]
    return tips, heads, [ledger.entries for ledger in ledgers], log.payloads


def _loaded_registry(state: Path):
    """What a registry loaded from ``state`` holds; or the error the load raised."""
    try:
        registry = Deployment(state_dir=state).registry
    except EncodingError as exc:
        return repr(exc).replace(str(state), "<state>")
    return [getattr(registry, name) for name in ("purposes", "manifests", "authorizations",
                                                 "consents", "obligations", "journal")]


def _loaded_silos(state: Path):
    """Each record of each silo loaded from ``state``, looked up by the ids a
    second load lists, before anything decodes every record; or the error
    the load raised."""
    try:
        silos, listed = Deployment(state_dir=state).silos, Deployment(state_dir=state).silos
    except EncodingError as exc:
        return repr(exc).replace(str(state), "<state>")
    return {domain: [(rid, vid, silo.vid_of(rid), silo.fetch_ciphertext(rid),
                      silo.controller_share(rid)) for rid, vid in listed[domain].list_records()]
            for domain, silo in silos.items()}


def test_held_load_equals_strict_load(tmp_path):
    state, _ = _cli_state(tmp_path)
    held = _loaded_events(state)
    assert held == _loaded_events(_strict_copy(state, tmp_path))
    tips, _, entries, payloads = held
    assert [seq for seq, _ in tips] == [len(e) - 1 for e in entries] == [len(payloads) - 1] * 2


def test_a_checkpoint_that_is_not_json_loads_every_stream_strictly(tmp_path):
    state, _ = _cli_state(tmp_path)
    strict = _loaded_events(_strict_copy(state, tmp_path))
    (state / "ledgers" / "checkpoint.json").write_bytes(b"{")
    assert _loaded_events(state) == strict


def test_commands_write_the_same_bytes_with_or_without_checkpoint(tmp_path):
    state, commands = _cli_state(tmp_path)
    strict = _strict_copy(state, tmp_path)
    for argv in commands:
        assert cli_main(argv) == 0
        (strict / "ledgers" / "checkpoint.json").unlink(missing_ok=True)
        assert cli_main([str(strict) if arg == str(state) else arg for arg in argv]) == 0
    assert state_files(strict) == state_files(state)


def test_held_submit_decodes_one_last_entry_per_ledger_at_most(tmp_path, monkeypatch):
    state, commands = _cli_state(tmp_path)
    decoded = count_calls(monkeypatch, "from_canonical", owner=LogEntry)
    streams = []
    real_decode = store.decode_records

    def decode_records(path, data, decode):
        streams.append(path.name)
        return real_decode(path, data, decode)

    monkeypatch.setattr(store, "decode_records", decode_records)
    assert cli_main(commands[0]) == 0
    assert decoded["from_canonical"] <= 2
    assert not set(streams) & set(STREAMS)


def test_a_checkpoint_that_still_records_heads_loads_held(tmp_path, monkeypatch):
    # checkpoints used to record each ledger's head hash (empty for events.log)
    state, commands = _cli_state(tmp_path)
    dep = Deployment(state_dir=state)
    path = state / CHECKPOINT
    files = checkpoint_marks(state)
    files["ledgers/regulator.log"]["head"] = dep.event_log.regulator_ledger.tip()[1].hex()
    files["ledgers/controller.log"]["head"] = dep.event_log.controller_ledger.tip()[1].hex()
    files["ledgers/events.log"]["head"] = ""
    seal_checkpoint(state, files)

    decoded = count_calls(monkeypatch, "from_canonical", owner=LogEntry)
    streams = []
    real_decode = store.decode_records
    monkeypatch.setattr(store, "decode_records",
                        lambda path, *args: streams.append(path.name) or real_decode(path, *args))
    assert cli_main(commands[0]) == 0
    assert decoded["from_canonical"] <= 2
    assert not set(streams) & set(STREAMS)
    assert "head" not in checkpoint_marks(state)["ledgers/regulator.log"]


@pytest.mark.parametrize("name, edit", [
    ("ledgers/events.log", {"sha256": "zz"}),
    ("ledgers/events.log", {"sha256": "ab" * 31}),
    ("ledgers/regulator.log", {"count": "7"}),
    ("ledgers/regulator.log", {"count": -1}),
    ("registry.journal", {"count": True}),
    ("silos/health/records.log", {"count": 1.0}),
    ("registry.json", None),
], ids=["non-hex", "short-digest", "text-count", "negative-count", "bool-count", "float-count",
        "not-a-mark"])
def test_a_sealed_checkpoint_with_a_malformed_mark_fails_a_command_naming_it(tmp_path, capsys,
                                                                            name, edit):
    state, _ = _cli_state(tmp_path)
    path = state / CHECKPOINT
    files = checkpoint_marks(state)
    files[name] = None if edit is None else {**files[name], **edit}
    seal_checkpoint(state, files)
    before = state_files(state)
    capsys.readouterr()
    assert cli_main(["--state-dir", str(state), "notifications", "--all", "v1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"error={re.escape(str(path))}: not a checkpoint: [^\n]*\n", err)
    assert state_files(state) == before


@pytest.mark.parametrize("name, count", [
    ("ledgers/regulator.log", 1_000_000), ("ledgers/controller.log", 0),
    ("ledgers/events.log", 7), ("registry.journal", 7), ("registry.journal", 2**64)])
def test_a_mark_that_miscounts_its_stream_vouches_for_nothing(tmp_path, capsys, monkeypatch,
                                                              name, count):
    """A sealed mark with the right SHA-256 and a wrong count loads its
    stream strictly: the next ledger entries and journal record follow the
    records the stream holds, as on a twin whose checkpoint counts right."""
    state, commands = _cli_state(tmp_path)
    twin = tmp_path / "twin"
    shutil.copytree(state, twin)
    marks = checkpoint_marks(state)
    assert marks[name]["count"] != count
    marks[name]["count"] = count
    seal_checkpoint(state, marks)
    strict = []
    real_decode = store.decode_records
    monkeypatch.setattr(store, "decode_records",
                        lambda path, *args: strict.append(path) or real_decode(path, *args))
    capsys.readouterr()
    for argv in (commands[0][4:], ["consent", "give", "--subject", "s9", "--purpose", "CARE_AUDIT"]):
        decided = [(cli_main(["--state-dir", str(root), "--seed", "97", *argv]), capsys.readouterr())
                   for root in (state, twin)]
        assert decided[0] == decided[1] and decided[0][0] == 0, argv
    assert strict == [state / name]  # the twin's checkpoint vouches for every stream
    assert state_files(state) == state_files(twin)
    ledgers = state / "ledgers"
    assert cli_main(["--state-dir", str(state), "verify-logs", str(ledgers / "regulator.log"),
                     str(ledgers / "controller.log")]) == 0
    assert capsys.readouterr().out == "regulator_chain=ok\ncontroller_chain=ok\ncross=ok\n"
    (state / CHECKPOINT).unlink()
    assert Deployment(state_dir=state).registry.has_live_consent("s9", "CARE_AUDIT")


def test_a_rolled_back_clock_json_does_not_reopen_an_expired_window(tmp_path):
    state = tmp_path / "state"
    dep = Deployment(seed=98, state_dir=state)
    world = _working_world(dep)
    world["auth"] = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                                       "CARE_AUDIT", Basis.LEGAL, 0, 5)
    dep.clock.set_tick(6)
    assert _submit(dep, world, "q1").decision.reason is DenyReason.WINDOW
    dep.save()
    (state / "clock.json").write_bytes(store.json_bytes(2))
    reloaded = Deployment(state_dir=state)
    assert reloaded.clock.now() == 6
    assert _submit(reloaded, world, "q2").decision.reason is DenyReason.WINDOW


@pytest.mark.parametrize("checkpoint", ["stale", "digests without a MAC"])
@pytest.mark.parametrize("name", STREAMS)
def test_malformed_line_after_a_save_is_refused_at_that_line(tmp_path, name, checkpoint):
    state, _ = _cli_state(tmp_path)
    path = state / "ledgers" / name
    lines = path.read_text().split("\n")
    lines[1] = lines[1][:8] + "!*" + lines[1][8:]
    path.write_text("\n".join(lines))
    if checkpoint != "stale":
        doc_path = state / CHECKPOINT
        doc = json.loads(doc_path.read_text())
        doc["files"][f"ledgers/{name}"]["sha256"] = sha256(path.read_bytes()).hex()
        doc_path.write_text(json.dumps(doc))
    with pytest.raises(EncodingError, match=f"{re.escape(str(path))}: undecodable record at line 1$"):
        Deployment(state_dir=state)


@pytest.mark.parametrize("name", ["regulator.log", "controller.log"])
def test_a_held_last_entry_that_does_not_decode_fails_a_command_naming_its_file_and_line(
        tmp_path, capsys, name):
    """A checkpoint re-sealed over a ledger whose last entry is one byte
    short holds the file; decoding its head at load names the file and the line."""
    state, _ = _cli_state(tmp_path)
    path = state / "ledgers" / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-1] = base64.b64encode(base64.b64decode(lines[-1])[:-1]) + b"\n"
    path.write_bytes(b"".join(lines))
    marks = checkpoint_marks(state)
    marks[f"ledgers/{name}"]["sha256"] = sha256(path.read_bytes()).hex()
    seal_checkpoint(state, marks)
    before = state_files(state)
    capsys.readouterr()
    assert _output(capsys, state, "silo", "list", "--domain", "health") == (
        1, "", f"error=<state>/ledgers/{name}: undecodable record at line {len(lines) - 1}\n")
    assert state_files(state) == before


# -- the fast strict decode, the lean silo records and shares, the carried digest ---------

_silo_records = st.lists(
    st.builds(lambda rid, vid, ciphertext, share: SiloRecord.new(
        rid, vid, ciphertext, KeyShare(share, Holder.CONTROLLER)).canonical_bytes(),
        st.text(max_size=6), st.text(max_size=6), st.binary(max_size=9),
        st.binary(min_size=SHARE_BYTES, max_size=SHARE_BYTES)),
    max_size=4)
# (kind, where, byte): flip the byte at ``where`` by ``byte``, insert ``byte`` there,
# or drop the newline nearest after it
_mutations = st.lists(st.tuples(st.sampled_from(["flip", "insert", "drop newline"]),
                                st.floats(0, 1, exclude_max=True),
                                st.sampled_from(b"\n=A/+ \x0b\xff") | st.integers(1, 255)),
                      max_size=3)


def _mutated(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for kind, where, byte in mutations:
        at = int(where * len(out))
        if kind == "insert":
            out.insert(at, byte)
        elif at < len(out) and kind == "flip":
            out[at] ^= byte
        elif (newline := out.find(b"\n", at)) >= 0:
            del out[newline]
    return bytes(out)


@given(records=_silo_records, mutations=_mutations)
def test_the_fast_decode_refuses_at_the_line_the_loop_names(records, mutations):
    data = _mutated(store.encode_records(records), mutations)
    path = Path("records.log")
    expected, bad = store._parse_lines(data, SiloRecord.from_canonical)
    if bad is None:
        decoded = store.decode_records(path, data, SiloRecord.from_canonical)
        assert [r.canonical_bytes() for r in decoded] == [r.canonical_bytes() for r in expected]
    else:
        with pytest.raises(EncodingError) as err:
            store.decode_records(path, data, SiloRecord.from_canonical)
        assert str(err.value) == f"{path}: undecodable record at line {bad}"


@pytest.mark.parametrize("fields", [
    ("SRECv1", ["R1", "v1", b"ct", b"s" * SHARE_BYTES]),
    ("SRECv2", ["R1", "v1", b"ct"]),
    ("SRECv2", ["R1", "v1", b"ct", b"s" * (SHARE_BYTES - 1)]),
    ("SRECv2", ["R1", b"\xff\xfe", b"ct", b"s" * SHARE_BYTES]),
], ids=["wrong-tag", "three-fields", "short-share", "non-utf8-vid"])
def test_a_records_log_line_the_silo_cannot_hold_is_refused_at_load(tmp_path, fields):
    state = tmp_path / "state"
    dep = Deployment(seed=99, state_dir=state)
    _working_world(dep)
    dep.save()
    path = state / "silos" / "health" / "records.log"
    path.write_bytes(path.read_bytes() + store.encode_records([canon_encode(*fields)]))
    with pytest.raises(EncodingError, match=f"^{re.escape(str(path))}: undecodable record at line 1$"):
        Deployment(state_dir=state).silos


def _stream_loaded(how: str, tmp_path: Path) -> tuple[store.Stream, bytes]:
    """A stream loaded from two records' bytes: held, strictly or held and then decoded."""
    data = store.encode_records([b"first", b"second"])
    stream = store.Stream(bytes, bytes)
    mark = store.FileMark(sha256(data), 2) if how != "strict" else None
    stream.load(tmp_path / "s.log", data, mark)
    if how == "decoded":
        assert stream.records == [b"first", b"second"]
    return stream, data


@pytest.mark.parametrize("how", ["held", "strict", "decoded"])
def test_a_streams_mark_is_the_digest_of_its_file_after_appends(tmp_path, how):
    stream, data = _stream_loaded(how, tmp_path)
    for appended in ([b"third"], [], [b"fourth", b"fifth"]):
        for record in appended:
            stream.append(record)
        data += store.encode_records(appended)
        assert stream.file() == (data, store.FileMark(sha256(data), len(stream)))
    assert store.decode_records(tmp_path / "s.log", data, bytes) == stream.records


def _marks_vouch_for_their_files(state: Path) -> None:
    checkpoint = checkpoint_marks(state)
    streams = [f"ledgers/{name}" for name in STREAMS] + ["registry.journal",
                                                          "silos/health/records.log"]
    assert set(checkpoint) == {*streams, "registry.json"}
    for name in streams:
        data = (state / name).read_bytes()
        assert checkpoint[name] == {"sha256": sha256(data).hex(), "count": data.count(b"\n")}, name
    assert checkpoint["registry.json"] == {
        "sha256": sha256((state / "registry.json").read_bytes()).hex(), "count": 1}


@pytest.mark.parametrize("how", ["held", "strict", "decoded"])
def test_checkpoint_and_snapshot_vouch_for_the_bytes_each_save_writes(tmp_path, how):
    state, _ = _cli_state(tmp_path)
    if how == "strict":
        state = _strict_copy(state, tmp_path)
    dep = Deployment(state_dir=state)
    world = {"manifest": dep.registry.manifests["p1"],
             "auth": next(iter(dep.registry.authorizations.values())),
             "vid": dep.silos["health"].list_records()[0][1]}
    if how == "decoded":
        dep.event_log.payloads, dep.event_log.regulator_ledger.entries, dep.registry.journal
    for request_id in ("q3", "q4"):  # the second save hashes only what the first did not
        assert _submit(dep, world, request_id).decision.allowed
        dep.registry.register_purpose(f"P_{request_id}", "more")
        dep.save()
        _marks_vouch_for_their_files(state)


def test_a_snapshot_load_encodes_no_content_and_a_save_encodes_it_once(tmp_path, monkeypatch):
    state, _ = _cli_state(tmp_path)
    encoded = []
    json_bytes = store.json_bytes
    monkeypatch.setattr(store, "json_bytes", lambda doc: encoded.append(doc) or json_bytes(doc))

    def snapshots() -> int:
        """How many documents encoded so far hold the snapshot content."""
        return sum(isinstance(doc, dict) and "consents" in doc for doc in encoded)
    registry = Deployment(state_dir=state).registry
    assert not registry.changed and snapshots() == 0  # loaded from the snapshot
    assert registry.save()["registry.json"][0] == (state / "registry.json").read_bytes()
    assert snapshots() == 1


def test_a_respaced_checkpoint_loads_every_stream_strictly_and_is_written_back(
        tmp_path, capsys, monkeypatch):
    state, commands = _cli_state(tmp_path)
    clean = tmp_path / "clean"
    shutil.copytree(state, clean)
    checkpoint = state / "ledgers" / "checkpoint.json"
    checkpoint.write_bytes(json.dumps(json.loads(checkpoint.read_bytes()), sort_keys=True).encode())
    capsys.readouterr()
    streams = []
    real_decode = store.decode_records
    monkeypatch.setattr(store, "decode_records",
                        lambda path, *args: streams.append(path.name) or real_decode(path, *args))
    assert cli_main(commands[0]) == 0
    assert set(STREAMS) <= set(streams)
    decided = capsys.readouterr()
    assert cli_main([str(clean) if arg == str(state) else arg for arg in commands[0]]) == 0
    assert capsys.readouterr() == decided
    assert state_files(state) == state_files(clean)


_json_docs = st.dictionaries(st.text(max_size=4),
                             st.none() | st.integers() | st.text(max_size=4)
                             | st.lists(st.integers(), max_size=2), max_size=3)


@given(name=st.sampled_from(["files", "registry"]), content=_json_docs,
       separators=st.sampled_from([(",", ":"), (", ", ": "), (",", ": ")]),
       mutations=_mutations, cut=st.integers(0, 2), junk=st.binary(max_size=80))
def test_unseal_takes_only_the_bytes_sealed_wrote(name, content, separators, mutations, cut,
                                                  junk):
    key = bytes(range(SHARE_BYTES))
    data = store.sealed(name, content, key, "SEALv1")
    mac = prf_derive(key, "SEALv1", store.json_bytes(content))
    assert data == store.json_bytes({name: content, "mac": mac.hex()})
    # the same document and seal, spaced anew, then edited byte by byte
    edited = json.dumps(json.loads(data), sort_keys=True, separators=separators).encode()
    edited = _mutated(edited, mutations)
    edited = edited[:len(edited) - cut]
    assert store.unseal(edited, name, key, "SEALv1") == (content if edited == data else None)
    assert store.unseal(junk, name, key, "SEALv1") is None
    assert store.unseal(data, name, bytes(SHARE_BYTES), "SEALv1") is None


def test_a_loaded_share_is_decoded_once(tmp_path):
    state = tmp_path / "state"
    dep = Deployment(seed=99, state_dir=state)
    record_id = _working_world(dep)["record_id"]
    dep.save()
    shares = Deployment(state_dir=state).share_store
    share = shares.get(record_id)
    assert share is shares.get(record_id)
    assert share == dep.share_store.get(record_id)
    assert shares.get("R-none") is None


@pytest.mark.parametrize("value", [" " + "ab" * 31 + " ", "ab" * 15 + "  " + "ab" * 16,
                                   "g" * 64, "é" * 64, "ab" * 31, "ab" * 33, 7],
                         ids=["spaced-ends", "spaced-inside", "non-hex", "non-ascii",
                              "short", "long", "number"])
def test_a_share_store_value_that_is_not_a_shares_hex_is_refused_at_load(tmp_path, value):
    path = tmp_path / "regulator_shares.json"
    data = json.dumps({"R1": "cd" * 32, "R2": value}).encode()
    shares = RegulatorShareStore()
    with pytest.raises(EncodingError, match=f"^{re.escape(str(path))}: not regulator shares"):
        shares.load([(path, data)])


def test_a_loaded_share_store_saves_lowercase_hex(tmp_path):
    path = tmp_path / "regulator_shares.json"
    data = store.json_bytes({"R1": "cd" * 32, "R2": "AB" * 32})
    shares = RegulatorShareStore()
    shares.load([(path, data)])
    assert shares.get("R2").share == b"\xab" * 32
    assert shares.save() == {path.name: store.json_bytes({"R1": "cd" * 32, "R2": "ab" * 32})}


@st.composite
def _share_spellings(draw) -> str:
    """A spelling of a share's hex: each digit in either case, then maybe one
    flaw: a whitespace character put in or put in place of a digit, a digit
    dropped or added, or a digit replaced by a non-hex or a non-ASCII one."""
    digits = draw(st.lists(st.sampled_from("0123456789abcdefABCDEF"), min_size=64, max_size=64))
    at = draw(st.integers(0, 63))
    flaw = draw(st.sampled_from(["none", "whitespace", "short", "long", "non-hex", "non-ascii"]))
    if flaw == "whitespace":
        digits[at:at + draw(st.integers(0, 1))] = draw(st.sampled_from(" \t\n"))
    elif flaw == "short":
        del digits[at]
    elif flaw == "long":
        digits.insert(at, draw(st.sampled_from("0aF")))
    elif flaw != "none":
        digits[at] = draw(st.sampled_from("gxZ-" if flaw == "non-hex" else "\u00e9\uff41\u0663"))
    return "".join(digits)


@pytest.fixture(scope="module")
def held_gate(tmp_path_factory) -> tuple[Path, bytes, AccessTicket]:
    state, _, tickets = _held_tickets(tmp_path_factory.mktemp("held"))
    return state, (state / "gate.json").read_bytes(), tickets[0]


@settings(derandomize=True, deadline=None)
@given(spelling=_share_spellings())
@example(spelling="ab " + "cd" * 31)
@example(spelling="AB" * 32)
def test_both_share_files_accept_exactly_64_hex_digits_in_either_case(held_gate, spelling):
    accepted = re.fullmatch("[0-9a-fA-F]{64}", spelling) is not None
    state, saved, ticket = held_gate
    doc = json.loads(saved)
    shares = doc["tickets"][0]["regulator_shares"]
    record_id = next(iter(shares))
    shares[record_id] = spelling
    (state / "gate.json").write_bytes(store.json_bytes(doc))
    path = state / "regulator_shares.json"
    share_store = RegulatorShareStore()
    shares_file = [(path, store.json_bytes({record_id: spelling}))]
    if not accepted:
        with pytest.raises(EncodingError, match=f"^{re.escape(str(state / 'gate.json'))}: "):
            Deployment(state_dir=state).gate
        with pytest.raises(EncodingError, match=f"^{re.escape(str(path))}: "):
            share_store.load(shares_file)
        return
    gate = Deployment(state_dir=state).gate
    shares[record_id] = spelling.lower()
    assert gate.save()["gate.json"] == store.json_bytes(doc)
    assert gate.ticket(ticket.ticket_id).regulator_shares[record_id].share == bytes.fromhex(spelling)
    share_store.load(shares_file)
    assert share_store.save() == {path.name: store.json_bytes({record_id: spelling.lower()})}
    assert share_store.get(record_id).share == bytes.fromhex(spelling)


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
