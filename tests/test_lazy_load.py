"""A command loads only the services it reaches, and decides and saves
exactly as it would if it had loaded every service."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from regctl import Basis, Deployment, Scope, SiloSchema, deploy, store
from regctl.cli import _Cli, main as cli_main
from regctl.deploy import REGISTRY_DOMAIN
from regctl.gate import FRESHNESS_WINDOW_SECONDS, TICKET_TTL_SECONDS, AccessRequest
from regctl.registry import Decision, DenyReason
from regctl.silo import SiloRecord

from conftest import count_calls, state_files

GATE_COMMANDS = ("submit", "open", "optout")  # the oracle's commands that reach the gate


def _saved_world(state: Path) -> dict[str, str]:
    """A state directory with one silo, one consenting subject with a record,
    a signed program and a consent-basis grant for it."""
    dep = Deployment(seed=31, state_dir=state)
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.registry.register_purpose("CARE_AUDIT", "care")
    scope = Scope("health", ("health",), "read")
    dep.registry.sign_program("p1", b"prog", "CARE_AUDIT", scope)
    auth = dep.registry.grant(dep.controller.key_id, scope, "CARE_AUDIT", Basis.CONSENT, 0, 10**6)
    master = dep.vault.register_master({"name": "lazy person"})
    vid = dep.vault.derive_vid(master, "health").vid
    dep.registry.record_consent(dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid, "CARE_AUDIT")
    record = dep.silos["health"].put_record(vid, {"bp": "120/80"})
    dep.gate  # so that the save writes every service's files
    dep.save()
    return {"auth": auth.auth_id, "master": master, "vid": vid, "record": record}


def _run(capsys, state: Path, argv: list[str]) -> tuple[int, str, str]:
    code = cli_main(["--state-dir", str(state), "--seed", "31", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _out(result: tuple[int, str, str]) -> dict[str, str]:
    return dict(pair.split("=", 1) for pair in result[1].split())


def test_a_command_decides_and_saves_as_if_every_service_were_loaded(tmp_path, capsys,
                                                                     monkeypatch):
    _decides_and_saves_as_if_every_service_were_loaded(tmp_path, capsys, monkeypatch, False)


def test_a_command_decides_and_saves_as_if_every_service_were_loaded_strictly(
        tmp_path, capsys, monkeypatch):
    """The eager twin's checkpoint is deleted before each command, so it
    loads every stream strictly and replays the registry journal."""
    _decides_and_saves_as_if_every_service_were_loaded(tmp_path, capsys, monkeypatch, True)


def _decides_and_saves_as_if_every_service_were_loaded(tmp_path, capsys, monkeypatch,
                                                       strict: bool):
    lazy, eager = tmp_path / "lazy", tmp_path / "eager"
    world = _saved_world(lazy)
    shutil.copytree(lazy, eager)
    deployment = _Cli.deployment

    def every_service_reached(cli):
        dep = deployment(cli)
        dep.registry, dep.vault, dep.share_store, dep.silos, dep.gate
        return dep

    def run(*argv: str) -> tuple[int, str, str]:
        result = _run(capsys, lazy, list(argv))
        if strict:
            (eager / "ledgers" / "checkpoint.json").unlink(missing_ok=True)
        with monkeypatch.context() as patch:
            patch.setattr(_Cli, "deployment", every_service_reached)
            assert _run(capsys, eager, list(argv)) == result, argv
        got, want = state_files(lazy), state_files(eager)
        if not any(word in argv for word in GATE_COMMANDS):
            got.pop("gate.json"), want.pop("gate.json")
        if strict:
            got.pop("ledgers/checkpoint.json"), want.pop("ledgers/checkpoint.json", None)
        assert got == want, argv
        return result

    def submit(request_id: str, *vids: str) -> str:
        return _out(run("submit", "--request-id", request_id, "--program", "p1",
                        "--auth", world["auth"], "--domain", "health", "--subjects", ",".join(vids),
                        "--classes", "health", "--purpose", "CARE_AUDIT"))["ticket_id"]

    # the operator workload's block
    master = _out(run("vault", "register", "name=second person"))["master_id"]
    vid = _out(run("vault", "derive", "--master", master, "--domain", "health"))["vid"]
    subject = _out(run("vault", "derive", "--master", master, "--domain", REGISTRY_DOMAIN))["vid"]
    run("consent", "give", "--subject", subject, "--purpose", "CARE_AUDIT")
    record = _out(run("silo", "put", "--domain", "health", "--vid", vid, "bp=110/70"))["record_id"]
    run("open", "--ticket", submit("q1", vid), "--record", record)
    submit("q2", vid, world["vid"])
    run("open", "--ticket", submit("q3", world["vid"]), "--record", world["record"])
    run("notifications", vid)
    submit("q4", world["vid"], vid)
    # commands outside the block
    run("purpose", "add", "CARE_RESEARCH")
    run("extend", "--auth", world["auth"], "--purpose", "CARE_RESEARCH")
    run("silo", "list", "--domain", "health")
    run("notifications", world["vid"], "--all")
    # a ticket that expires while no command reaches the gate
    ticket = submit("q5", world["vid"])
    for _ in range(TICKET_TTL_SECONDS + 1):
        run("vault", "derive", "--master", world["master"], "--domain", "health")
    entries = (lazy / "ledgers" / "regulator.log").read_bytes().count(b"\n")
    code, _, err = run("open", "--ticket", ticket, "--record", world["record"])
    assert (code, err) == (1, f"error=ticket {ticket} not found (expired tickets are pruned)\n")
    assert (lazy / "ledgers" / "regulator.log").read_bytes().count(b"\n") == entries
    # an opt-out that erases a record some live tickets cover
    submit("q6", vid)
    assert "records=1" in run("consent", "optout", "--subject", subject,
                              "--purpose", "CARE_AUDIT")[1]


def test_a_request_replayed_past_its_window_is_stale_though_no_save_rewrote_the_gate(tmp_path):
    state = tmp_path / "state"
    world = _saved_world(state)
    dep = Deployment(seed=31, state_dir=state)
    request = AccessRequest.build(
        controller=dep.controller, request_id="q1", program_id="p1",
        content_digest=dep.registry.manifests["p1"].content_digest, auth_id=world["auth"],
        domain="health", operation="read", subject_vids=[world["vid"]],
        requested_fields=["health"], purpose_code="CARE_AUDIT", timestamp=dep.clock.now(),
        nonce=dep.rand_bytes(16))
    assert dep.gate.submit(request).decision.allowed
    dep.save()
    later = Deployment(state_dir=state)
    later.clock.advance(FRESHNESS_WINDOW_SECONDS + 1)
    later.vault.derive_vid(world["master"], "health")  # reaches no gate
    later.save()
    replayed = Deployment(state_dir=state).gate.submit(request)
    assert replayed.decision == Decision.deny(DenyReason.STALE)


def test_vault_and_notification_commands_load_no_other_service(tmp_path, capsys, monkeypatch):
    state = tmp_path / "state"
    world = _saved_world(state)
    _run(capsys, state, ["submit", "--request-id", "q1", "--program", "p1", "--auth", world["auth"],
                         "--domain", "health", "--subjects", world["vid"], "--classes", "health",
                         "--purpose", "CARE_AUDIT"])
    untouched = [state / name for name in ("registry.journal", "gate.json", "regulator_shares.json",
                                           "silos/health/records.log")]
    stamp = store.stamp(*untouched)
    calls = count_calls(monkeypatch, "verify")
    decoded = count_calls(monkeypatch, "from_canonical", owner=SiloRecord)
    for argv in (["vault", "derive", "--master", world["master"], "--domain", "health"],
                 ["notifications", world["vid"]]):
        assert _run(capsys, state, argv)[0] == 0
    assert calls == {"verify": 0} and decoded == {"from_canonical": 0}
    assert store.stamp(*untouched) == stamp


def test_consent_give_reads_no_vault_or_silo_file(tmp_path, capsys, monkeypatch):
    state = tmp_path / "state"
    _saved_world(state)
    read = []
    read_files = deploy.read_files

    def recorded(root, names):
        files = read_files(root, names)
        read.extend(path.relative_to(state).as_posix() for path, _ in files)
        return files
    monkeypatch.setattr(deploy, "read_files", recorded)
    assert _run(capsys, state, ["consent", "give", "--subject", "someone",
                                "--purpose", "CARE_AUDIT"])[0] == 0
    assert {"registry.journal", "registry.json"} <= set(read)
    assert not [path for path in read if path.startswith(("vault/", "silos/"))]


def test_a_command_that_reaches_a_vault_file_failing_its_load_saves_nothing(tmp_path, capsys):
    state = tmp_path / "state"
    world = _saved_world(state)
    other = _out(_run(capsys, state, ["vault", "register", "name=other person"]))["master_id"]
    vid = _out(_run(capsys, state, ["vault", "derive", "--master", other, "--domain", "health"]))["vid"]
    path = state / "vault" / "state.json"
    doc = json.loads(path.read_bytes())
    vids, master_ids, _ = doc["vids"]["health"]
    master_ids[vids.index(vid)] = world["master"]  # two health vids for one master
    path.write_text(json.dumps(doc))
    before = state_files(state)
    code, _, err = _run(capsys, state, [
        "submit", "--request-id", "q1", "--program", "p1", "--auth", world["auth"],
        "--domain", "health", "--subjects", world["vid"], "--classes", "health",
        "--purpose", "CARE_AUDIT"])
    assert (code, err) == (1, f"error={path}: vid mappings are not one-to-one\n")
    assert state_files(state) == before


def test_a_command_that_logs_no_event_leaves_the_ledger_files_alone(tmp_path, capsys,
                                                                   monkeypatch):
    state = tmp_path / "state"
    world = _saved_world(state)
    files = [state / "ledgers" / name
             for name in ("regulator.log", "controller.log", "events.log", "checkpoint.json")]
    stamp = store.stamp(*files)
    written = []
    for writer in ("write_atomic", "write_tail"):  # a stream is appended, a seal replaced
        write = getattr(store, writer)
        monkeypatch.setattr(store, writer, lambda path, data, write=write:
                            written.append(path) or write(path, data))
    assert _run(capsys, state, ["vault", "derive", "--master", world["master"],
                                "--domain", "health"])[0] == 0
    assert store.stamp(*files) == stamp
    assert not set(written) & set(files)  # not even compared with what a save would write
    assert _run(capsys, state, ["submit", "--request-id", "q1", "--program", "p1",
                                "--auth", world["auth"], "--domain", "health",
                                "--subjects", world["vid"], "--classes", "health",
                                "--purpose", "CARE_AUDIT"])[0] == 0
    assert set(written) >= set(files)
    assert all(after != before for after, before in zip(store.stamp(*files), stamp))


def _old_layout(doc: dict) -> dict:
    """``doc`` in the layout of one object per master and per vid mapping."""
    return {"domains": doc["domains"], "aliases": doc["aliases"],
            "masters": [{"master_id": master_id, "attributes": attributes}
                        for master_id, attributes in doc["masters"].items()],
            "vids": [{"domain": domain, "vid": vid, "master_id": master_id,
                      "derivation_counter": counter}
                     for domain, columns in doc["vids"].items()
                     for vid, master_id, counter in zip(*columns)]}


def _short_column(index: int):
    def edit(doc: dict) -> dict:
        doc["vids"]["health"][index].pop()
        return doc
    return edit


@pytest.mark.parametrize("edit", [
    lambda doc: {"domains": doc["domains"]},
    lambda doc: [],
    lambda doc: {**doc, "masters": list(doc["masters"])},
    lambda doc: {**doc, "vids": {"health": doc["vids"]["health"][:2]}},
    lambda doc: {**doc, "vids": {"health": [[1, 2], *doc["vids"]["health"][1:]]}},
    lambda doc: {**doc, "masters": {m: [0, a] for m, a in doc["masters"].items()}},
    lambda doc: {**doc, "masters": {m: {**a, "age": 40} for m, a in doc["masters"].items()}},
    lambda doc: {**doc, "aliases": [{"alias_number": "9912345678"}]},
    lambda doc: {**doc, "aliases": [{"alias_number": "9912345678", "real_number": "0012300456",
                                     "issued_at": 1, "expires_at": 9}]},
    _old_layout,
    _short_column(0),
    _short_column(2),
], ids=["missing-keys", "list", "masters-list", "two-columns", "int-vids", "list-master",
        "int-attribute", "bare-alias", "issued-alias", "old-layout", "short-vid-column",
        "short-counter-column"])
def test_a_vault_state_of_the_wrong_shape_fails_the_load_and_saves_nothing(tmp_path, capsys,
                                                                          edit):
    state = tmp_path / "state"
    world = _saved_world(state)
    derive = ["vault", "derive", "--master", world["master"], "--domain", "health"]
    assert _run(capsys, state, derive)[0] == 0
    path = state / "vault" / "state.json"
    path.write_text(json.dumps(edit(json.loads(path.read_bytes()))))
    before = state_files(state)
    code, _, err = _run(capsys, state, derive)
    assert code == 1 and err.startswith(f"error={path}: not a vault state document: ")
    assert state_files(state) == before
