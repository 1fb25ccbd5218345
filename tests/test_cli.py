"""CLI: thin-adapter behavior, key=value output, exit codes."""

from __future__ import annotations

import argparse
import base64
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regctl.cli import build_parser, main
from regctl.crypto import canon_decode, canon_encode
from regctl.deploy import REGISTRY_DOMAIN, Deployment


def invoke(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(line: str) -> dict[str, str]:
    return dict(pair.split("=", 1) for pair in line.split(" ") if "=" in pair)


@pytest.fixture
def state(tmp_path):
    return str(tmp_path / "state")


def seeded(state, *argv):
    return ["--state-dir", state, "--seed", "17", *argv]


def bootstrap(capsys, state) -> dict[str, str]:
    """purpose, silo, subject, record, program, grant, all via the CLI itself."""
    out = {}
    invoke(capsys, *seeded(state, "purpose", "add", "CARE_AUDIT", "--desc", "care audit"))
    invoke(capsys, *seeded(state, "silo", "create", "--domain", "health",
                           "--field", "bp:health", "--field", "visits:other"))
    code, stdout, _ = invoke(capsys, *seeded(state, "vault", "register",
                                             "name=SENTINEL-CLI-PERSON", "real_phone=0012300456"))
    out["master"] = kv(stdout.strip())["master_id"]
    code, stdout, _ = invoke(capsys, *seeded(state, "vault", "derive",
                                             "--master", out["master"], "--domain", "health"))
    out["vid"] = kv(stdout.strip())["vid"]
    code, stdout, _ = invoke(capsys, *seeded(state, "silo", "put", "--domain", "health",
                                             "--vid", out["vid"], "bp=130/85", "visits=2"))
    out["record"] = kv(stdout.strip())["record_id"]
    invoke(capsys, *seeded(state, "program", "sign", "--program-id", "p1",
                           "--artifact-text", "care audit v1", "--purpose", "CARE_AUDIT",
                           "--domain", "health", "--classes", "health,other", "--op", "read"))
    code, stdout, _ = invoke(capsys, *seeded(state, "grant", "--grantee", "controller",
                                             "--domain", "health", "--classes", "health,other",
                                             "--op", "read", "--purpose", "CARE_AUDIT",
                                             "--basis", "Legal", "--from", "0", "--until", "1000"))
    out["auth"] = kv(stdout.strip())["auth_id"]
    return out


def test_unknown_subcommand_is_usage_error(capsys, state):
    with pytest.raises(SystemExit) as err:
        main(["--state-dir", state, "bogus"])
    assert err.value.code == 2


def test_register_derive_matches_library(capsys, state):
    world = bootstrap(capsys, state)
    dep = Deployment(state_dir=Path(state))
    assert dep.vault.derive_vid(world["master"], "health").vid == world["vid"]


def test_submit_open_round_trip(capsys, state):
    world = bootstrap(capsys, state)
    code, stdout, _ = invoke(capsys, *seeded(state, "submit", "--request-id", "q1",
                                             "--program", "p1", "--auth", world["auth"],
                                             "--domain", "health", "--subjects", world["vid"],
                                             "--classes", "health,other",
                                             "--purpose", "CARE_AUDIT"))
    assert code == 0
    ticket = kv(stdout.splitlines()[0])["ticket_id"]
    code, stdout, _ = invoke(capsys, *seeded(state, "open", "--ticket", ticket,
                                             "--record", world["record"]))
    assert code == 0
    assert sorted(stdout.strip().splitlines()) == ["bp=130/85", "visits=2"]


def test_expired_grant_denies_with_window_reason(capsys, state):
    world = bootstrap(capsys, state)
    # by now the logical clock is several ticks in, so [0, 1) has expired
    code, stdout, _ = invoke(capsys, *seeded(state, "grant", "--grantee", "controller",
                                             "--domain", "health", "--classes", "health",
                                             "--op", "read", "--purpose", "CARE_AUDIT",
                                             "--basis", "Legal", "--from", "0", "--until", "1"))
    expired_auth = kv(stdout.strip())["auth_id"]
    code, _, stderr = invoke(capsys, *seeded(state, "submit", "--request-id", "q-exp",
                                             "--program", "p1", "--auth", expired_auth,
                                             "--domain", "health", "--subjects", world["vid"],
                                             "--classes", "health",
                                             "--purpose", "CARE_AUDIT"))
    assert code == 1
    assert "Deny(Window)" in stderr


def test_consent_cycle_and_notifications(capsys, state):
    world = bootstrap(capsys, state)
    code, stdout, _ = invoke(capsys, *seeded(state, "vault", "derive",
                                             "--master", world["master"], "--domain", "registry"))
    registry_vid = kv(stdout.strip())["vid"]
    assert invoke(capsys, *seeded(state, "consent", "give", "--subject", registry_vid,
                                  "--purpose", "CARE_AUDIT"))[0] == 0
    code, stdout, _ = invoke(capsys, *seeded(state, "consent", "optout", "--subject", registry_vid,
                                             "--purpose", "CARE_AUDIT"))
    assert code == 0
    assert "obligations=1" in stdout
    code, stdout, _ = invoke(capsys, *seeded(state, "notifications", world["vid"]))
    assert code == 0
    assert "outcome=Deleted" in stdout


def test_extension_pending_until_renewal_across_invocations(capsys, state):
    world = bootstrap(capsys, state)
    invoke(capsys, *seeded(state, "purpose", "add", "CARE_RESEARCH", "--desc", "new use"))
    invoke(capsys, *seeded(state, "program", "sign", "--program-id", "p2",
                           "--artifact-text", "care research v1", "--purpose", "CARE_RESEARCH",
                           "--domain", "health", "--classes", "health,other", "--op", "read"))
    code, stdout, _ = invoke(capsys, *seeded(state, "grant", "--grantee", "controller",
                                             "--domain", "health", "--classes", "health,other",
                                             "--op", "read", "--purpose", "CARE_AUDIT",
                                             "--basis", "Consent", "--from", "0", "--until", "1000"))
    consent_auth = kv(stdout.strip())["auth_id"]
    code, stdout, _ = invoke(capsys, *seeded(state, "vault", "derive",
                                             "--master", world["master"], "--domain", "registry"))
    registry_vid = kv(stdout.strip())["vid"]
    invoke(capsys, *seeded(state, "consent", "give", "--subject", registry_vid,
                           "--purpose", "CARE_AUDIT"))
    code, stdout, _ = invoke(capsys, *seeded(state, "extend", "--auth", consent_auth,
                                             "--purpose", "CARE_RESEARCH"))
    assert code == 0
    extended = kv(stdout.splitlines()[0])["auth_id"]
    assert kv(stdout.splitlines()[1])["status"] == "PendingConsent"

    def submit(request_id):
        return invoke(capsys, *seeded(state, "submit", "--request-id", request_id,
                                      "--program", "p2", "--auth", extended,
                                      "--domain", "health", "--subjects", world["vid"],
                                      "--classes", "health,other", "--purpose", "CARE_RESEARCH"))

    code, _, stderr = submit("q-pending")
    assert code == 1
    assert "Deny(Status)" in stderr
    code, stdout, _ = invoke(capsys, *seeded(state, "consent", "renew", "--subject", registry_vid,
                                             "--purpose", "CARE_RESEARCH"))
    assert (code, stdout.strip()) == (0, "consent=renewed")
    code, stdout, _ = submit("q-renewed")
    assert code == 0
    assert "ticket_id=" in stdout


def test_verify_logs_ok_and_detects_tamper(capsys, state, tmp_path):
    world = bootstrap(capsys, state)
    invoke(capsys, *seeded(state, "submit", "--request-id", "q1", "--program", "p1",
                           "--auth", world["auth"], "--domain", "health",
                           "--subjects", world["vid"], "--classes", "health,other",
                           "--purpose", "CARE_AUDIT"))
    reg = Path(state) / "ledgers" / "regulator.log"
    ctrl = Path(state) / "ledgers" / "controller.log"
    code, stdout, _ = invoke(capsys, *seeded(state, "verify-logs", str(reg), str(ctrl)))
    assert code == 0
    assert "cross=ok" in stdout

    tampered = tmp_path / "tampered.log"
    original = reg.read_bytes()
    middle = len(original) // 2
    for flip in (0x01, 0x80):
        raw = bytearray(original)
        raw[middle] ^= flip
        tampered.write_bytes(bytes(raw))
        code, stdout, _ = invoke(capsys, *seeded(state, "verify-logs", str(tampered), str(ctrl)))
        assert code == 1
    # the high-bit flip leaves a byte that is not UTF-8: only its line fails
    line = original[:middle].count(b"\n")
    assert stdout.splitlines()[0] == f"regulator_chain=parse_error_at:{line}"


def test_verify_logs_reads_only_keys_and_writes_nothing(capsys, state, tmp_path):
    world = bootstrap(capsys, state)
    invoke(capsys, *seeded(state, "submit", "--request-id", "q1", "--program", "p1",
                           "--auth", world["auth"], "--domain", "health",
                           "--subjects", world["vid"], "--classes", "health,other",
                           "--purpose", "CARE_AUDIT"))
    ledgers = Path(state) / "ledgers"
    argv = ["verify-logs", str(ledgers / "regulator.log"), str(ledgers / "controller.log")]
    before = {p: p.read_bytes() for p in Path(state).rglob("*") if p.is_file()}
    assert invoke(capsys, *seeded(state, *argv)) == (
        0, "regulator_chain=ok\ncontroller_chain=ok\ncross=ok\n", "")
    assert {p: p.read_bytes() for p in Path(state).rglob("*") if p.is_file()} == before

    code, stdout, stderr = invoke(capsys, *seeded(str(tmp_path / "empty"), *argv))
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error=no keys in ")


def test_alias_and_route(capsys, state):
    world = bootstrap(capsys, state)
    code, stdout, _ = invoke(capsys, *seeded(state, "vault", "alias",
                                             "--master", world["master"], "--ttl", "30"))
    alias = kv(stdout.splitlines()[0])["alias"]
    assert alias.startswith("99")
    code, stdout, _ = invoke(capsys, *seeded(state, "vault", "route", "--alias", alias))
    assert code == 0
    assert kv(stdout.strip())["real_number"] == "0012300456"


def test_silo_list_matches_library(capsys, state):
    world = bootstrap(capsys, state)
    code, stdout, _ = invoke(capsys, *seeded(state, "silo", "list", "--domain", "health"))
    assert code == 0
    dep = Deployment(state_dir=Path(state))
    expected = [f"record_id={rid} vid={vid}" for rid, vid in sorted(dep.silos["health"].list_records())]
    assert stdout.strip().splitlines() == expected


def test_route_matches_library(capsys, state):
    world = bootstrap(capsys, state)
    code, stdout, _ = invoke(capsys, *seeded(state, "vault", "alias",
                                             "--master", world["master"], "--ttl", "99"))
    alias = kv(stdout.splitlines()[0])["alias"]
    code, stdout, _ = invoke(capsys, *seeded(state, "vault", "route", "--alias", alias))
    dep = Deployment(state_dir=Path(state))
    assert kv(stdout.strip())["real_number"] == dep.vault.route(alias)


def test_silo_create_rejects_a_field_without_a_class(capsys, state):
    code, _, stderr = invoke(capsys, "--state-dir", state, "silo", "create", "--domain", "health",
                             "--field", "bp:health", "--field", "x")
    assert code == 1
    assert stderr == "error=field spec needs name:class, got 'x'\n"


def test_missing_state_dir_is_domain_error(capsys, monkeypatch):
    monkeypatch.delenv("REGCTL_STATE_DIR", raising=False)
    code, _, stderr = invoke(capsys, "purpose", "add", "X")
    assert code == 1
    assert "state directory" in stderr


@pytest.mark.parametrize("basis", ["Consent", "Legal"])
def test_a_submit_for_a_subject_with_no_registry_vid_leaves_the_vault_file_alone(capsys, state,
                                                                                  basis):
    world = bootstrap(capsys, state)  # its subject has a health vid and no registry vid
    _, stdout, _ = invoke(capsys, *seeded(state, "grant", "--grantee", "controller",
                                          "--domain", "health", "--classes", "health,other",
                                          "--op", "read", "--purpose", "CARE_AUDIT",
                                          "--basis", basis, "--from", "0", "--until", "1000"))
    vault = Path(state) / "vault" / "state.json"
    before = vault.read_bytes()
    code, stdout, stderr = invoke(capsys, *seeded(state, "submit", "--request-id", "q1",
                                                  "--program", "p1", "--auth",
                                                  kv(stdout.strip())["auth_id"],
                                                  "--domain", "health", "--subjects", world["vid"],
                                                  "--classes", "health,other",
                                                  "--purpose", "CARE_AUDIT"))
    if basis == "Consent":
        assert (code, stdout, stderr) == (1, "", "error=Deny(Consent)\n")
    else:
        assert code == 0
        ticket = kv(stdout.splitlines()[0])["ticket_id"]
        assert invoke(capsys, *seeded(state, "open", "--ticket", ticket,
                                      "--record", world["record"]))[1] == "bp=130/85\nvisits=2\n"
    assert vault.read_bytes() == before
    dep = Deployment(state_dir=Path(state))
    assert dep.vault.vid_if_derived(world["master"], REGISTRY_DOMAIN) is None


def test_a_state_file_that_is_not_json_is_reported_and_left_alone(capsys, state):
    world = bootstrap(capsys, state)
    gate = Path(state) / "gate.json"
    gate.write_bytes(b"{")
    code, _, stderr = invoke(capsys, *seeded(state, "submit", "--request-id", "q1",
                                             "--program", "p1", "--auth", world["auth"],
                                             "--domain", "health", "--subjects", world["vid"],
                                             "--classes", "health", "--purpose", "CARE_AUDIT"))
    assert code == 1
    assert stderr.startswith(f"error={gate}: not a JSON document: ")
    assert gate.read_bytes() == b"{"


@pytest.mark.parametrize("doc", ['[1]', '"9"', '-1', '2.5', 'true',
                                 '{"mode": "logical", "tick": 3}',
                                 '{"mode": "real", "tick": 1792406910}'],
                         ids=["list", "string", "negative", "float", "bool", "logical clock",
                              "real clock"])
@pytest.mark.parametrize("name", ["clock.json", "invocations.json"])
def test_a_counter_file_of_the_wrong_shape_is_reported_and_nothing_is_saved(capsys, state,
                                                                             name, doc):
    bootstrap(capsys, state)
    root = Path(state)
    path = root / name
    path.write_text(doc)

    def files():
        return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    before = files()
    # every load reads clock.json; only the first seeded draw reads invocations.json
    argv = (("silo", "list", "--domain", "health") if name == "clock.json"
            else ("vault", "register", "name=drawn"))
    code, _, stderr = invoke(capsys, *seeded(state, *argv))
    assert code == 1
    assert stderr.startswith(f"error={path}: ")
    assert files() == before


def test_the_clock_option_is_gone(capsys, state):
    with pytest.raises(SystemExit) as err:
        main(["--state-dir", state, "--clock", "real", "silo", "list", "--domain", "health"])
    assert err.value.code == 2
    assert not Path(state).exists()


def test_the_route_at_option_is_gone(capsys, state):
    with pytest.raises(SystemExit) as err:
        main(["--state-dir", state, "vault", "route", "--alias", "9900000000", "--at", "3"])
    assert err.value.code == 2
    assert not Path(state).exists()


def test_an_expired_alias_is_refused_on_the_clock(capsys, state):
    world = bootstrap(capsys, state)
    code, stdout, _ = invoke(capsys, *seeded(state, "vault", "alias",
                                             "--master", world["master"], "--ttl", "2"))
    alias = kv(stdout.splitlines()[0])["alias"]
    expires_at = int(kv(stdout.splitlines()[1])["expires_at"])
    assert invoke(capsys, *seeded(state, "vault", "route", "--alias", alias))[1] == (
        "real_number=0012300456\n")
    assert invoke(capsys, *seeded(state, "vault", "route", "--alias", alias)) == (
        1, "", f"error=alias {alias} not active at {expires_at}\n")


@pytest.mark.parametrize("name, content", [
    ("gate.json", "[1]"),
    ("gate.json", '"x"'),
    ("gate.json", '{"nonces": {"zz": 1}}'),
    ("regulator_shares.json", "[1]"),
    ("regulator_shares.json", '"x"'),
    ("regulator_shares.json", '{"R1": "zz"}'),
    ("regulator_shares.json", '{"R1": "ab"}'),
    ("silos/health/schema.json", "[1]"),
    ("silos/health/schema.json", "{}"),
    ("silos/health/schema.json", '"x"'),
    ("silos/health/schema.json", None),
    ("keys/regulator.seed", "zz"),
], ids=["gate-list", "gate-string", "gate-non-hex-nonce", "shares-list", "shares-string",
        "shares-non-hex", "shares-short", "schema-list", "schema-empty", "schema-string",
        "schema-missing", "seed-non-hex"])
def test_a_state_file_of_the_wrong_shape_is_reported_and_nothing_is_saved(capsys, state,
                                                                          name, content):
    world = bootstrap(capsys, state)
    root = Path(state)
    path = root / name
    if content is None:
        path.unlink()
    else:
        path.write_text(content)

    def files():
        return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    before = files()
    code, stdout, stderr = invoke(capsys, *seeded(state, "submit", "--request-id", "q1",
                                                  "--program", "p1", "--auth", world["auth"],
                                                  "--domain", "health",
                                                  "--subjects", world["vid"],
                                                  "--classes", "health",
                                                  "--purpose", "CARE_AUDIT"))
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"error={path}: ")
    assert files() == before


@pytest.mark.parametrize("domain", ["tax", "health"])
def test_a_silo_schema_that_names_another_domain_is_refused(capsys, state, domain):
    bootstrap(capsys, state)
    root = Path(state)
    schema = root / "silos" / "health" / "schema.json"
    edited = schema.read_bytes().replace(b'"domain":"health"', b'"domain":"tax"')
    assert edited != schema.read_bytes()
    schema.write_bytes(edited)
    before = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    code, stdout, stderr = invoke(capsys, *seeded(state, "silo", "list", "--domain", domain))
    assert (code, stdout) == (1, "")
    assert stderr == f"error={schema}: names domain 'tax', not 'health'\n"
    assert {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()} == before


def _edited_access_payload(events_log: Path, edit) -> int:
    """Replace the first access-allowed payload of ``events_log`` by the
    canonical bytes of ``edit(fields)``; the index of that payload."""
    lines = events_log.read_bytes().splitlines(keepends=True)
    for index, line in enumerate(lines):
        tag, fields = canon_decode(base64.b64decode(line))
        if fields[0] == b"access-allowed":
            lines[index] = base64.b64encode(canon_encode(tag, edit(fields))) + b"\n"
            events_log.write_bytes(b"".join(lines))
            return index
    raise AssertionError("no access-allowed payload")


@pytest.mark.parametrize("edit, reason", [
    (lambda f: [b"access-allowet", *f[1:]], "unknown event kind b'access-allowet'"),
    (lambda f: [*f[:-1], b"\xff" + f[-1]], "payload is not valid UTF-8"),
    (lambda f: [*f[:3], (len(f) - 4).to_bytes(8, "big"), *f[4:]], "event subject count mismatch"),
], ids=["unknown-kind", "non-utf8-summary", "wrong-subject-count"])
def test_a_payload_that_is_not_an_event_is_reported_by_index_and_nothing_is_saved(
        capsys, state, edit, reason):
    world = bootstrap(capsys, state)
    assert invoke(capsys, *seeded(state, "submit", "--request-id", "q1", "--program", "p1",
                                  "--auth", world["auth"], "--domain", "health",
                                  "--subjects", world["vid"], "--classes", "health",
                                  "--purpose", "CARE_AUDIT"))[0] == 0
    root = Path(state)
    events_log = root / "ledgers" / "events.log"
    index = _edited_access_payload(events_log, edit)
    before = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    code, stdout, stderr = invoke(capsys, *seeded(state, "notifications", world["vid"]))
    assert (code, stdout) == (1, "")
    assert stderr == f"error={events_log}: payload {index} is not an event: {reason}\n"
    assert {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()} == before


def test_run_scenario_exit_codes(capsys, state, tmp_path):
    scenario_dir = Path(__file__).parent.parent / "scenarios"
    code, stdout, _ = invoke(capsys, "--state-dir", state, "run-scenario",
                             str(scenario_dir / "optout.scn"))
    assert code == 0
    assert "result: pass" in stdout

    broken = tmp_path / "broken.scn"
    broken.write_text("DOMAIN health\nATTACK kind=WeakIdSmuggle domain=health field=income class=financial\n")
    code, stdout, _ = invoke(capsys, "--state-dir", str(tmp_path / "s2"), "run-scenario", str(broken))
    assert code == 1  # the "attack" is not caught: income is a legitimate field
    assert "result: FAIL" in stdout


def test_report_flag_writes_file(capsys, tmp_path):
    scenario_dir = Path(__file__).parent.parent / "scenarios"
    out = tmp_path / "report.txt"
    code, stdout, _ = invoke(capsys, "--state-dir", str(tmp_path / "s"), "run-scenario",
                             str(scenario_dir / "optout.scn"), "--report", str(out))
    assert code == 0
    assert out.read_text() == stdout


def _state_files(root: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


_PROGRAM = ("program", "sign", "--program-id", "p2", "--purpose", "CARE_AUDIT",
            "--domain", "health", "--classes", "health")


@pytest.mark.parametrize("argv, reason", [
    ((*_PROGRAM, "--artifact", "{missing}"), "No such file or directory"),
    ((*_PROGRAM, "--artifact", "{tmp}"), "Is a directory"),
    (("run-scenario", "{missing}"), "No such file or directory"),
    (("run-scenario", "{not_utf8}"), "not UTF-8 text: invalid start byte"),
    (("verify-logs", "{missing}", "{missing}"), "No such file or directory"),
], ids=["missing artifact", "directory artifact", "missing scenario", "non-UTF-8 scenario",
        "missing ledgers"])
def test_an_unreadable_file_argument_is_reported_and_the_state_is_left_alone(
        capsys, state, tmp_path, argv, reason):
    names = {"missing": str(tmp_path / "missing" / "file"), "tmp": str(tmp_path),
             "not_utf8": str(tmp_path / "latin.scn")}
    (tmp_path / "latin.scn").write_bytes(b"\xffDOMAIN health\n")
    bootstrap(capsys, state)
    before = _state_files(Path(state))
    argv = [arg.format(**names) for arg in argv]
    path = next(arg for arg in argv if arg in names.values())
    assert invoke(capsys, *seeded(state, *argv)) == (1, "", f"error={path}: {reason}\n")
    assert _state_files(Path(state)) == before
    fresh = tmp_path / "fresh"
    if argv[0] != "verify-logs":  # which needs keys
        assert invoke(capsys, *seeded(str(fresh), *argv)) == (1, "", f"error={path}: {reason}\n")
        assert not fresh.exists()


def test_a_report_that_cannot_be_written_is_reported_after_the_run_saved(capsys, tmp_path):
    scenario = Path(__file__).parent.parent / "scenarios" / "honest.scn"
    report = tmp_path / "missing" / "report.txt"
    state = tmp_path / "state"
    assert invoke(capsys, "--state-dir", str(state), "run-scenario", str(scenario),
                  "--report", str(report)) == (
        1, "", f"error={report}: No such file or directory\n")
    assert (state / "ledgers" / "checkpoint.json").exists()


def test_only_run_scenario_loads_the_scenario_harness(tmp_path):
    """The package root re-exports only the names callers import from it, and
    the CLI imports the scenario harness inside the one command that runs it."""
    state = str(tmp_path / "state")
    program = f"""
import sys
import regctl.cli
assert "regctl.scenario" not in sys.modules
for argv in (["silo", "create", "--domain", "health", "--field", "bp:health"],
             ["silo", "list", "--domain", "health"]):
    assert regctl.cli.main(["--state-dir", {state!r}, *argv]) == 0
assert "regctl.scenario" not in sys.modules
from regctl import (AccessRequest, Basis, Decision, Deployment, DenyReason, Scope, SiloSchema,
                    canon_decode, canon_encode, chain_hash, combine_shares, cross_verify,
                    prf_derive, sign, verify)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "domain=health\n"


@pytest.mark.parametrize("argv", [
    ("silo", "create", "--domain", "tax", "--field", "x"),
    ("silo", "put", "--domain", "health", "--vid", "v", "bp"),
    ("vault", "register", "name"),
    ("program", "sign", "--program-id", "p2", "--artifact-text", "v2", "--purpose", "CARE_AUDIT",
     "--domain", "health", "--classes", "nonsense"),
    ("grant", "--grantee", "controller", "--domain", "health", "--classes", "health",
     "--op", "erase", "--purpose", "CARE_AUDIT", "--basis", "Legal", "--from", "0",
     "--until", "10"),
], ids=["silo create", "silo put", "vault register", "program sign", "grant"])
def test_refused_argument_leaves_state_untouched(capsys, state, argv):
    bootstrap(capsys, state)
    root = Path(state)
    before = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    assert {"clock.json", "invocations.json"} <= {p.name for p in before}
    code, _, stderr = invoke(capsys, *seeded(state, *argv))
    assert (code, stderr.startswith("error=")) == (1, True)
    assert {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()} == before


# Captured from the parser that built every subcommand's parser up front; the
# parser that builds only the ones a command line names must print the same.
_COMMANDS = ("{vault,silo,purpose,program,grant,extend,consent,submit,open,verify-logs,"
             "notifications,run-scenario}")
_USAGE = ("usage: regctl [-h] [--state-dir STATE_DIR] [--seed SEED]\n"
          f"              {_COMMANDS}\n"
          "              ...\n")
_CLI_OUTPUT = [
    pytest.param(["--help"], 0,
                 (_USAGE +
                  "\n"
                  "Regulated, dual-custody access to pseudonymised personal data.\n"
                  "\n"
                  "positional arguments:\n"
                  f"  {_COMMANDS}\n"
                  "\n"
                  "options:\n"
                  "  -h, --help            show this help message and exit\n"
                  "  --state-dir STATE_DIR\n"
                  "                        state directory (or REGCTL_STATE_DIR)\n"
                  "  --seed SEED           seed all randomness\n"),
                 "",
                 id="help"),
    pytest.param(["vault", "--help"], 0,
                 ("usage: regctl vault [-h] {register,derive,alias,route} ...\n"
                  "\n"
                  "positional arguments:\n"
                  "  {register,derive,alias,route}\n"
                  "\n"
                  "options:\n"
                  "  -h, --help            show this help message and exit\n"),
                 "",
                 id="vault-help"),
    pytest.param([], 2, "",
                 _USAGE + "regctl: error: the following arguments are required: command\n",
                 id="no-arguments"),
    pytest.param(["frobnicate"], 2, "",
                 (_USAGE +
                  "regctl: error: argument command: invalid choice: 'frobnicate' (choose from "
                  "'vault', 'silo', 'purpose', 'program', 'grant', 'extend', 'consent', "
                  "'submit', 'open', 'verify-logs', 'notifications', 'run-scenario')\n"),
                 id="unknown-command"),
    pytest.param(["submit", "--request-id", "q1", "--program", "p1"], 2, "",
                 ("usage: regctl submit [-h] --request-id REQUEST_ID --program PROGRAM --auth\n"
                  "                     AUTH --domain DOMAIN --subjects SUBJECTS --classes\n"
                  "                     CLASSES --purpose PURPOSE [--op OP]\n"
                  "regctl submit: error: the following arguments are required: --auth, "
                  "--domain, --subjects, --classes, --purpose\n"),
                 id="submit-missing-option"),
]


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 wraps usage lines anew")
@pytest.mark.parametrize("argv, code, stdout, stderr", _CLI_OUTPUT)
def test_help_and_usage_errors_print_what_they_always_printed(capsys, monkeypatch, argv, code,
                                                              stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert (exit_.value.code, *capsys.readouterr()) == (code, stdout, stderr)


def test_a_command_line_builds_the_parsers_it_names_and_no_other(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    args = build_parser().parse_args(["--state-dir", "s", "vault", "derive", "--master", "m",
                                      "--domain", "health"])
    assert (args.command, args.vault_command, args.master) == ("vault", "derive", "m")
    assert built == ["regctl", "regctl vault", "regctl vault derive"]
