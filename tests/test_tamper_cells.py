"""Cells of the tamper matrix (ROADMAP item 1).

Each open-cell test rolls state files back to the bytes they held before
a command and asserts today's outcome: the rollback goes unseen, and the
reloaded state decides as it did before that command. Each names the
ROADMAP item that closes its cell. Closing a cell makes its test fail, and
the test then asserts the refusal instead, as each closed-cell test does.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from regctl import AccessRequest, Basis, Deployment, Scope, SiloSchema, store
from regctl.cli import main as cli_main
from regctl.deploy import REGISTRY_DOMAIN
from regctl.errors import EncodingError

from conftest import count_calls


def _saved_world(state: Path) -> dict[str, str]:
    """One consenting subject with a health record, a signed program and a
    consent-basis grant for it."""
    dep = Deployment(seed=23, state_dir=state)
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


def _files(state: Path) -> dict[str, bytes]:
    """Every state file's bytes."""
    return {p.relative_to(state).as_posix(): p.read_bytes()
            for p in sorted(state.rglob("*")) if p.is_file()}


def _run(capsys, state: Path, *argv: str) -> tuple[int, str, str]:
    code = cli_main(["--state-dir", str(state), "--seed", "23", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _submit(capsys, state: Path, world: dict[str, str], request_id: str) -> tuple[int, str, str]:
    return _run(capsys, state, "submit", "--request-id", request_id, "--program", "p1",
                "--auth", world["auth"], "--domain", "health", "--subjects", world["vid"],
                "--classes", "health", "--purpose", "CARE_AUDIT")


def test_open_cell_a_journal_rolled_back_past_an_optout_revives_the_consent(tmp_path, capsys):
    """Closed by ROADMAP item 2: anchor each journal head in the ledgers."""
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
    """Closed by ROADMAP item 2: derive the consumed marks from the ledger."""
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
    together, so each still vouches for the others."""
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
    before = _files(state)
    assert _submit(capsys, state, world, "q1") == (
        1, "", f"error={shares}: no regulator share for record {world['record']}\n")
    assert _files(state) == before


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
    """Closed by ROADMAP item 8: one root commit over every file. The mark
    no longer vouches for the older bytes, so they load strictly, and
    nothing tells them from a records.log whose mark was lost."""
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


def test_closed_cell_a_byte_flipped_in_records_log_under_an_intact_mark_is_refused_at_reach(
        tmp_path, capsys):
    """The mark vouches only for the bytes it was sealed over: a records.log
    with a byte's high bit flipped loads strictly, which refuses its line,
    and nothing is saved."""
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
        before = _files(state)
        with pytest.raises(EncodingError, match="records.log: undecodable record at line 0"):
            Deployment(state_dir=state).silos  # the first reach loads them
        assert _run(capsys, state, "open", "--ticket", ticket, "--record", world["record"]) == (
            1, "", f"error={records}: undecodable record at line 0\n"), at
        assert _files(state) == before


@pytest.mark.parametrize("edit", ["deleted", "re-spaced"])
def test_closed_cell_a_lost_or_re_spaced_mark_loads_strictly_and_decides_and_saves_the_same(
        tmp_path, capsys, monkeypatch, edit):
    """A silo whose mark.json is gone or not byte for byte what the seal
    writes loads records.log strictly, opens as the intact state does, and
    its save seals the same mark again."""
    state, twin = tmp_path / "state", tmp_path / "twin"
    world = _saved_world(state)
    code, stdout, _ = _submit(capsys, state, world, "q1")
    assert code == 0
    ticket = stdout.splitlines()[0].removeprefix("ticket_id=")
    shutil.copytree(state, twin)
    mark = state / "silos" / "health" / "mark.json"
    if edit == "deleted":
        mark.unlink()
    else:
        mark.write_bytes(mark.read_bytes().replace(b":", b": "))
    decoded = count_calls(monkeypatch, "decode_records", owner=store)
    opened = _run(capsys, state, "open", "--ticket", ticket, "--record", world["record"])
    assert decoded["decode_records"] == 1
    assert _run(capsys, twin, "open", "--ticket", ticket, "--record", world["record"]) == opened
    assert decoded["decode_records"] == 1  # the intact mark vouches: no strict load
    assert opened == (0, "bp=120/80\n", "")
    assert _files(state) == _files(twin)
