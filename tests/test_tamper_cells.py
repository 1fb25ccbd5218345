"""Cells of the tamper matrix (ROADMAP item 1).

Each open-cell test rolls state files back to the bytes they held before
a command, or edits one, and asserts today's outcome: the change goes
unseen, and the reloaded state decides as the rolled-back or edited bytes
say. Each names the
ROADMAP item that closes its cell. Closing a cell makes its test fail, and
the test then asserts the refusal instead, as each closed-cell test does.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from regctl import AccessRequest, Basis, Deployment, Scope, SiloSchema, store
from regctl.cli import main as cli_main
from regctl.crypto import sha256
from regctl.deploy import REGISTRY_DOMAIN
from regctl.errors import EncodingError
from regctl.registry import Registry

from conftest import CHECKPOINT, checkpoint_marks, count_calls, seal_checkpoint, state_files


def _saved_world(state: Path, seed: int = 23) -> dict[str, str]:
    """One consenting subject with a health record, a signed program and a
    consent-basis grant for it."""
    dep = Deployment(seed=seed, state_dir=state)
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.registry.register_purpose("CARE_AUDIT", "care")
    scope = Scope("health", ("health",), "read")
    dep.registry.sign_program("p1", b"prog", "CARE_AUDIT", scope)
    auth = dep.registry.grant(dep.controller.key_id, scope, "CARE_AUDIT", Basis.CONSENT, 0, 10**6)
    master = dep.vault.register_master({"name": "tampered person"})
    vid = dep.vault.derive_vid(master, "health").vid
    subject = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
    dep.registry.record_consent(subject, "CARE_AUDIT")
    record = dep.silos["health"].put_record(vid, {"bp": "120/80"})
    dep.save()
    return {"auth": auth.auth_id, "vid": vid, "subject": subject, "record": record}


def _run(capsys, state: Path, *argv: str) -> tuple[int, str, str]:
    code = cli_main(["--state-dir", str(state), "--seed", "23", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _submit(capsys, state: Path, world: dict[str, str], request_id: str) -> tuple[int, str, str]:
    return _run(capsys, state, "submit", "--request-id", request_id, "--program", "p1",
                "--auth", world["auth"], "--domain", "health", "--subjects", world["vid"],
                "--classes", "health", "--purpose", "CARE_AUDIT")


def test_open_cell_a_journal_rolled_back_past_an_optout_revives_the_consent(tmp_path, capsys):
    """Closed by ROADMAP item 2: anchor each journal head in the ledgers. The
    checkpoint no longer vouches for the older journal, so it is replayed,
    and nothing tells it from a journal whose checkpoint was lost."""
    state = tmp_path / "state"
    world = _saved_world(state)
    journal = state / "registry.journal"
    before_optout = journal.read_bytes()
    assert _run(capsys, state, "consent", "optout", "--subject", world["subject"],
                "--purpose", "CARE_AUDIT")[0] == 0
    assert _submit(capsys, state, world, "q1") == (1, "", "error=Deny(Consent)\n")
    journal.write_bytes(before_optout)
    code, stdout, _ = _submit(capsys, state, world, "q2")
    assert code == 0 and stdout.startswith("ticket_id=")  # the cell is open


def test_open_cell_a_gate_file_rolled_back_past_an_open_reopens_the_record(tmp_path, capsys):
    """Closed by ROADMAP item 2: derive the consumed marks from the ledger.
    The checkpoint names no document, so nothing vouches for gate.json."""
    state = tmp_path / "state"
    world = _saved_world(state)
    code, stdout, _ = _submit(capsys, state, world, "q1")
    assert code == 0
    ticket = stdout.splitlines()[0].removeprefix("ticket_id=")
    gate = state / "gate.json"
    before_open = gate.read_bytes()
    opened = _run(capsys, state, "open", "--ticket", ticket, "--record", world["record"])
    assert opened == (0, "bp=120/80\n", "")
    assert _run(capsys, state, "open", "--ticket", ticket, "--record", world["record"])[0] == 1
    gate.write_bytes(before_open)
    assert _run(capsys, state, "open", "--ticket", ticket,
                "--record", world["record"]) == opened  # the cell is open


def test_open_cell_the_ledgers_rolled_back_past_a_grant_erase_its_audit_and_notice(tmp_path,
                                                                                   capsys):
    """Closed by ROADMAP item 11: check the ledgers against an auditor-held
    checkpoint. Both ledgers, events.log and the checkpoint roll back
    together, so the checkpoint still vouches for the streams."""
    state = tmp_path / "state"
    world = _saved_world(state)
    ledgers = state / "ledgers"
    shutil.copytree(ledgers, tmp_path / "before")
    code, stdout, _ = _submit(capsys, state, world, "q1")
    assert code == 0 and stdout.startswith("ticket_id=")
    code, stdout, _ = _run(capsys, state, "notifications", "--all", world["vid"])
    assert code == 0 and "request_id=q1 " in stdout
    shutil.rmtree(ledgers)
    shutil.copytree(tmp_path / "before", ledgers)
    assert _run(capsys, state, "verify-logs", str(ledgers / "regulator.log"),
                str(ledgers / "controller.log")) == (
        0, "regulator_chain=ok\ncontroller_chain=ok\ncross=ok\n", "")
    assert _run(capsys, state, "notifications", "--all", world["vid"]) == (0, "", "")
    code, stdout, _ = _submit(capsys, state, world, "q2")
    assert code == 0 and stdout.startswith("ticket_id=")  # the cell is open


def test_closed_cell_an_emptied_share_store_fails_the_submit_and_saves_nothing(tmp_path,
                                                                              capsys):
    """A silo record whose regulator share is gone can only come from a lost
    or tampered share store: the submit that meets it fails naming the file.
    The emptied store is caught when a submit uses it, not when it loads."""
    state = tmp_path / "state"
    world = _saved_world(state)
    shares = state / "regulator_shares.json"
    shares.write_bytes(b"{}")
    before = state_files(state)
    assert _submit(capsys, state, world, "q1") == (
        1, "", f"error={shares}: no regulator share for record {world['record']}\n")
    assert state_files(state) == before


def test_closed_cell_a_lost_share_fails_the_submit_in_process_with_the_nonce_unspent(tmp_path):
    """In process the refusal logs nothing and spends no nonce: once the
    share is back, the same request is granted."""
    state = tmp_path / "state"
    world = _saved_world(state)
    dep = Deployment(seed=23, state_dir=state)
    share = dep.share_store.get(world["record"])
    dep.share_store.destroy(world["record"])
    request = AccessRequest.build(
        controller=dep.controller, request_id="q1", program_id="p1",
        content_digest=dep.registry.manifests["p1"].content_digest, auth_id=world["auth"],
        domain="health", operation="read", subject_vids=[world["vid"]],
        requested_fields=["health"], purpose_code="CARE_AUDIT", timestamp=dep.clock.now(),
        nonce=dep.rand_bytes(16))
    events = len(dep.event_log.payloads)
    with pytest.raises(EncodingError, match="regulator_shares.json: no regulator share"):
        dep.gate.submit(request)
    assert len(dep.event_log.payloads) == events
    dep.share_store.deposit(world["record"], share)
    assert set(dep.gate.submit(request).ticket.regulator_shares) == {world["record"]}


def test_open_cell_a_records_log_rolled_back_to_the_previous_save_loads_the_older_records(
        tmp_path, capsys):
    """Closed by ROADMAP item 8: a root commit over every file. The
    checkpoint no longer vouches for the older bytes, so they load strictly,
    and nothing tells them from a records.log whose checkpoint was lost."""
    state = tmp_path / "state"
    world = _saved_world(state)
    records = state / "silos" / "health" / "records.log"
    before_put = records.read_bytes()
    code, stdout, _ = _run(capsys, state, "silo", "put", "--domain", "health",
                           "--vid", world["vid"], "bp=110/70")
    assert code == 0
    put = stdout.strip().removeprefix("record_id=")
    listed = _run(capsys, state, "silo", "list", "--domain", "health")[1]
    assert f"record_id={put} " in listed
    records.write_bytes(before_put)
    assert _run(capsys, state, "silo", "list", "--domain", "health") == (
        0, f"record_id={world['record']} vid={world['vid']}\n", "")  # the cell is open


def test_open_cell_a_clock_json_moved_forward_opens_a_window_that_has_not_begun(tmp_path,
                                                                              capsys):
    """Closed by ROADMAP item 8: seal the tick. A load only floors
    clock.json at the last ledger entry's timestamp, and nothing vouches
    for it, so a tick moved forward goes unseen."""
    state = tmp_path / "state"
    world = _saved_world(state)
    code, stdout, _ = _run(capsys, state, "grant", "--grantee", "controller", "--domain",
                           "health", "--classes", "health", "--purpose", "CARE_AUDIT",
                           "--basis", "Legal", "--from", "1000", "--until", "2000")
    assert code == 0
    world["auth"] = stdout.strip().removeprefix("auth_id=")
    assert _submit(capsys, state, world, "q1") == (1, "", "error=Deny(Window)\n")
    (state / "clock.json").write_bytes(b"1500")
    code, stdout, _ = _submit(capsys, state, world, "q2")
    assert code == 0 and stdout.startswith("ticket_id=")  # the cell is open
    assert "expires_at=1561\n" in stdout


def test_open_cell_an_edited_alias_real_number_routes_the_alias_to_the_edited_number(
        tmp_path, capsys):
    """Closed by ROADMAP item 8: name vault/state.json in the checkpoint.
    Nothing vouches for the vault's document, so an alias grant edited in
    place routes where the edit says."""
    state = tmp_path / "state"
    _saved_world(state)
    master = _run(capsys, state, "vault", "register", "name=caller",
                  "real_phone=0012300456")[1].strip().removeprefix("master_id=")
    alias = _run(capsys, state, "vault", "alias", "--master", master,
                 "--ttl", "30")[1].splitlines()[0].removeprefix("alias=")
    assert _run(capsys, state, "vault", "route", "--alias", alias) == (
        0, "real_number=0012300456\n", "")
    path = state / "vault" / "state.json"
    doc = json.loads(path.read_bytes())
    (grant,) = doc["aliases"]
    grant["real_number"] = "0099999999"
    path.write_bytes(store.json_bytes(doc))
    assert _run(capsys, state, "vault", "route", "--alias", alias) == (
        0, "real_number=0099999999\n", "")  # the cell is open


def test_open_cell_a_rolled_back_invocations_json_draws_an_earlier_commands_bytes(tmp_path,
                                                                                 capsys):
    """Closed by ROADMAP item 8: name invocations.json in the checkpoint.
    Nothing vouches for the count that numbers each seeded command's byte
    stream, so after a rollback the next seeded command draws the bytes an
    earlier one drew: here a submit's nonce, which the gate has burned."""
    state, twin = tmp_path / "state", tmp_path / "twin"
    world = _saved_world(state)
    invocations = state / "invocations.json"
    before_submit = invocations.read_bytes()
    code, stdout, _ = _submit(capsys, state, world, "q1")
    assert code == 0 and stdout.startswith("ticket_id=")
    shutil.copytree(state, twin)
    code, stdout, _ = _submit(capsys, twin, world, "q2")
    assert code == 0 and stdout.startswith("ticket_id=")
    invocations.write_bytes(before_submit)
    assert _submit(capsys, state, world, "q2") == (
        1, "", "error=Deny(Replay)\n")  # the cell is open


def test_open_cell_a_lowered_delivered_count_redelivers_fetched_notices(tmp_path, capsys):
    """Closed by ROADMAP item 8: name notifications.json in the checkpoint.
    Nothing vouches for the count of notices delivered to each vid, so a
    count lowered by hand makes the next fetch deliver again what an
    earlier fetch delivered."""
    state = tmp_path / "state"
    world = _saved_world(state)
    assert _submit(capsys, state, world, "q1")[0] == 0
    fetched = _run(capsys, state, "notifications", world["vid"])
    assert fetched[0] == 0 and fetched[1].count("request_id=q1 ") == 1
    assert _run(capsys, state, "notifications", world["vid"]) == (0, "", "")
    path = state / "notifications.json"
    counts = json.loads(path.read_bytes())
    counts[world["vid"]] -= 1
    path.write_bytes(store.json_bytes(counts))
    assert _run(capsys, state, "notifications", world["vid"]) == fetched  # the cell is open


def test_closed_cell_a_byte_flipped_in_records_log_under_an_intact_mark_is_refused_at_reach(
        tmp_path, capsys):
    """The checkpoint vouches only for the bytes it was sealed over: a
    records.log with a byte's high bit flipped loads strictly, which refuses
    its line, and nothing is saved."""
    state = tmp_path / "state"
    world = _saved_world(state)
    code, stdout, _ = _submit(capsys, state, world, "q1")
    assert code == 0
    ticket = stdout.splitlines()[0].removeprefix("ticket_id=")
    records = state / "silos" / "health" / "records.log"
    original = records.read_bytes()
    for at in (0, len(original) // 2, len(original) - 2):
        flipped = bytearray(original)
        flipped[at] ^= 0x80
        records.write_bytes(bytes(flipped))
        before = state_files(state)
        with pytest.raises(EncodingError, match="records.log: undecodable record at line 0"):
            Deployment(state_dir=state).silos  # the first reach loads them
        assert _run(capsys, state, "open", "--ticket", ticket, "--record", world["record"]) == (
            1, "", f"error={records}: undecodable record at line 0\n"), at
        assert state_files(state) == before


# -- the checkpoint, or a file it names, edited: the one seal ----------------------------

def _delete(path: Path, **_) -> None:
    path.unlink()


def _roll_back(path: Path, earlier: bytes, **_) -> None:
    path.write_bytes(earlier)


def _respace(path: Path, **_) -> None:
    """The same document, with JSON's default separators."""
    path.write_bytes(json.dumps(json.loads(path.read_bytes()), sort_keys=True).encode())


def _flip_byte(path: Path, **_) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _from_another_seed(path: Path, tmp_path: Path, **_) -> None:
    other = tmp_path / "other"
    _saved_world(other, seed=24)
    shutil.copyfile(other / path.name, path)


def _forged(key: str):
    def forge(path: Path, **_) -> None:
        """Drop every consent from the snapshot, and seal a checkpoint that
        names the edited bytes under ``key``, from one seed alone."""
        state = path.parent.parent
        snapshot = state / "registry.json"
        doc = json.loads(snapshot.read_bytes())
        doc["consents"] = [[] for _ in doc["consents"]]
        snapshot.write_bytes(store.json_bytes(doc))
        marks = checkpoint_marks(state)
        marks["registry.json"]["sha256"] = sha256(snapshot.read_bytes()).hex()
        seal_checkpoint(state, marks, key)
    return forge


_EDITS = [*((CHECKPOINT, edit) for edit in (_delete, _roll_back, _respace, _flip_byte,
                                             _forged("regulator"), _forged("controller"))),
          *(("registry.json", edit) for edit in (_delete, _roll_back, _respace, _flip_byte,
                                                  _from_another_seed))]


@pytest.mark.parametrize("name, edit", _EDITS, ids=[
    "checkpoint-deleted", "checkpoint-rolled-back", "checkpoint-re-spaced",
    "checkpoint-flipped-byte", "checkpoint-resealed-by-the-regulator-alone",
    "checkpoint-resealed-by-the-controller-alone", "snapshot-deleted", "snapshot-rolled-back",
    "snapshot-re-spaced", "snapshot-flipped-byte", "snapshot-of-another-seed"])
def test_closed_cell_an_unvouched_file_loads_strictly_and_decides_and_saves_as_the_twin(
        tmp_path, capsys, monkeypatch, name, edit):
    """The checkpoint vouches only for the bytes it names, and only when its
    seal is the one both seeds make: after any other edit to it or to the
    registry snapshot, the streams it no longer vouches for load strictly
    and the journal is replayed. The next open and opt-out print what the
    intact twin prints, and leave every file, the checkpoint included, as
    the twin's."""
    state, twin = tmp_path / "state", tmp_path / "twin"
    world = _saved_world(state)
    earlier = (state / name).read_bytes()  # the bytes before the last two saves
    assert _run(capsys, state, "consent", "give", "--subject", "s2",
                "--purpose", "CARE_AUDIT") == (0, "consent=recorded\n", "")
    code, stdout, _ = _submit(capsys, state, world, "q1")
    assert code == 0
    ticket = stdout.splitlines()[0].removeprefix("ticket_id=")
    shutil.copytree(state, twin)
    edit(state / name, earlier=earlier, tmp_path=tmp_path)
    assert state_files(state) != state_files(twin)
    replays = []
    replay = Registry._replay
    monkeypatch.setattr(Registry, "_replay",
                        lambda self, path, data: replays.append(path.parent) or replay(
                            self, path, data))
    decoded = count_calls(monkeypatch, "decode_records", owner=store)
    for argv in (["open", "--ticket", ticket, "--record", world["record"]],
                 ["consent", "optout", "--subject", world["subject"], "--purpose", "CARE_AUDIT"]):
        result = _run(capsys, state, *argv)
        assert result[0] == 0
        strict = decoded["decode_records"]
        assert _run(capsys, twin, *argv) == result, argv
        assert decoded["decode_records"] == strict  # the intact checkpoint vouches: none strict
    assert replays == [state] and decoded["decode_records"] > 0
    assert state_files(state) == state_files(twin)
