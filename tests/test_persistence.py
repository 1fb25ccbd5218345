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
from regctl.cli import main as cli_main
from regctl.crypto import SHARE_BYTES, Holder, KeyShare, prf_derive, seed_key, sha256
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
from regctl.silo import SiloRecord

from conftest import count_calls

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


def test_a_save_with_no_change_replaces_no_file(tmp_path, monkeypatch):
    dep = Deployment(seed=95, state_dir=tmp_path / "state")
    world = _working_world(dep)
    assert _submit(dep, world, "q1").decision.allowed
    dep.save()
    before = _snapshot(dep.state_dir)
    calls = count_calls(monkeypatch, "replace", owner=store.os)
    dep.save()
    assert calls["replace"] == 0
    assert _snapshot(dep.state_dir) == before


def test_interrupted_save_leaves_each_file_old_or_new(tmp_path, monkeypatch):
    state = tmp_path / "state"
    dep = Deployment(seed=94, state_dir=state)
    world = _working_world(dep)
    assert _submit(dep, world, "q0").decision.allowed  # so the checkpoint vouches for entries
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
        assert _loaded_events(state) == _loaded_events(_without_checkpoint(state, tmp_path)), k
        if not crashed:
            assert now == before | after
            break
    assert k == len(calls) + 1  # every write was interrupted once
    assert len(calls) >= len(changed)


def _cli(capsys, state: Path, *argv: str) -> dict[str, str]:
    """Run one seeded CLI command on ``state``; its key=value output."""
    assert cli_main(["--state-dir", str(state), "--seed", "99", *argv]) == 0
    return dict(pair.split("=", 1) for pair in capsys.readouterr().out.split())


def _cli_world(run) -> dict[str, str]:
    """Build a world by CLI commands, each run by ``run(*argv)``, which
    returns the command's output. The commands change the vault in every
    way (a domain, a master, a vid, an alias), a silo and the share store.
    Returns the ticket of an allowed submit, the record it covers and the
    subject's registry vid."""
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
    return {"ticket": ticket, "record": record, "subject": subject}


def test_skipped_saves_leave_the_bytes_every_save_encoding_leaves(tmp_path, capsys, monkeypatch):
    stamped, encoded = tmp_path / "stamped", tmp_path / "encoded"

    def run(*argv: str) -> dict[str, str]:
        out = _cli(capsys, stamped, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(store, "stamp", lambda *paths: None)  # no stamp ever matches
            _cli(capsys, encoded, *argv)
        assert _snapshot(encoded) == _snapshot(stamped), argv
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


@pytest.mark.parametrize("name", ["vault/state.json", "silos/health/records.log",
                                  "ledgers/events.log"])
def test_a_file_replaced_behind_a_loaded_deployment_is_rewritten(tmp_path, name):
    state = tmp_path / "state"
    dep = Deployment(seed=96, state_dir=state)
    _working_world(dep)
    dep.save()
    loaded = Deployment(state_dir=state)
    loaded.vault, loaded.silos  # each service loads its files when first reached
    path = state / name
    own = path.read_bytes()
    store.write_atomic(path, b"x" * len(own))
    loaded.save()
    assert path.read_bytes() == own


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


def _without_checkpoint(state: Path, tmp_path: Path) -> Path:
    """A copy of ``state`` with no checkpoint, so every stream loads strictly."""
    strict = tmp_path / "strict"
    shutil.rmtree(strict, ignore_errors=True)
    shutil.copytree(state, strict)
    (strict / "ledgers" / "checkpoint.json").unlink(missing_ok=True)
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


def test_held_load_equals_strict_load(tmp_path):
    state, _ = _cli_state(tmp_path)
    held = _loaded_events(state)
    assert held == _loaded_events(_without_checkpoint(state, tmp_path))
    tips, _, entries, payloads = held
    assert [seq for seq, _ in tips] == [len(e) - 1 for e in entries] == [len(payloads) - 1] * 2


def test_a_checkpoint_that_is_not_json_loads_every_stream_strictly(tmp_path):
    state, _ = _cli_state(tmp_path)
    strict = _loaded_events(_without_checkpoint(state, tmp_path))
    (state / "ledgers" / "checkpoint.json").write_bytes(b"{")
    assert _loaded_events(state) == strict


def test_commands_write_the_same_bytes_with_or_without_checkpoint(tmp_path):
    state, commands = _cli_state(tmp_path)
    strict = _without_checkpoint(state, tmp_path)
    for argv in commands:
        assert cli_main(argv) == 0
        (strict / "ledgers" / "checkpoint.json").unlink(missing_ok=True)
        assert cli_main([str(strict) if arg == str(state) else arg for arg in argv]) == 0
    assert _snapshot(strict) == _snapshot(state)


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
    path = state / "ledgers" / "checkpoint.json"
    files = json.loads(path.read_text())["files"]
    files["regulator.log"]["head"] = dep.event_log.regulator_ledger.tip()[1].hex()
    files["controller.log"]["head"] = dep.event_log.controller_ledger.tip()[1].hex()
    files["events.log"]["head"] = ""
    mac = prf_derive(seed_key(dep.controller, "CKPTKEYv1"), "CKPTv1", store.json_bytes(files))
    path.write_bytes(store.json_bytes({"files": files, "mac": mac.hex()}))

    decoded = count_calls(monkeypatch, "from_canonical", owner=LogEntry)
    streams = []
    real_decode = store.decode_records
    monkeypatch.setattr(store, "decode_records",
                        lambda path, *args: streams.append(path.name) or real_decode(path, *args))
    assert cli_main(commands[0]) == 0
    assert decoded["from_canonical"] <= 2
    assert not set(streams) & set(STREAMS)
    assert "head" not in json.loads(path.read_text())["files"]["regulator.log"]


def test_a_rolled_back_clock_json_does_not_reopen_an_expired_window(tmp_path):
    state = tmp_path / "state"
    dep = Deployment(seed=98, state_dir=state)
    world = _working_world(dep)
    world["auth"] = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                                       "CARE_AUDIT", Basis.LEGAL, 0, 5)
    dep.clock.set_tick(6)
    assert _submit(dep, world, "q1").decision.reason is DenyReason.WINDOW
    dep.save()
    store.write_json(state / "clock.json", 2)
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
        doc_path = state / "ledgers" / "checkpoint.json"
        doc = json.loads(doc_path.read_text())
        doc["files"][name]["sha256"] = sha256(path.read_bytes()).hex()
        doc_path.write_text(json.dumps(doc))
    with pytest.raises(EncodingError, match=f"{re.escape(str(path))}: undecodable record at line 1$"):
        Deployment(state_dir=state)


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
