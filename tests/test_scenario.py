"""Scenario harness: grammar, determinism, committed suite, adversary math."""

from __future__ import annotations

import shlex
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regctl.cli import main as cli_main
from regctl.errors import InsufficientPopulation, ScenarioReferenceError, ScenarioSyntaxError
from regctl.scenario import (
    ATTACK_KINDS,
    RULES,
    adversary_link_accuracy,
    linkage_accuracy,
    load_scenario,
    parse_scenario,
    run,
)

ROOT = Path(__file__).parent.parent
SCENARIO_DIR = ROOT / "scenarios"
COMMITTED = sorted(SCENARIO_DIR.glob("*.scn"))
REPORTS = Path(__file__).parent / "data" / "reports"

# a world in which every kind of handle can be declared
WORLD = """\
DOMAIN health
MASTER m1 name=SENTINEL-WORLD-PERSON
SILO s domain=health fields=bp:health
PURPOSE P
PROGRAM p purpose=P domain=health classes=health op=read
"""
GRANT = "GRANT g grantee=controller domain=health classes=health op=read purpose=P"


# -- parsing ------------------------------------------------------------------

def test_empty_file_is_a_runnable_scenario():
    scenario = parse_scenario("")
    assert scenario.steps == ()
    report = run(scenario)
    assert report.passed


def test_comments_and_blank_lines_ignored():
    scenario = parse_scenario("# a comment\n\nDOMAIN health  # trailing comment\n")
    assert len(scenario.steps) == 1


def test_forward_reference_reports_line():
    text = "DOMAIN health\nPUT r1 silo=ghost master=m1 bp=1\n"
    with pytest.raises(ScenarioReferenceError) as err:
        parse_scenario(text)
    assert err.value.line == 2


def test_unknown_keyword_reports_line():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario("DOMAIN health\nFROB x\n")
    assert err.value.line == 2


def test_missing_required_argument():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("DOMAIN health\nSILO s domain=health\n")  # no fields=


def test_duplicate_handle_rejected():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("DOMAIN health\nDOMAIN health\n")


def test_unknown_attack_kind_rejected():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("ATTACK kind=MysteryMeat\n")


@pytest.mark.parametrize("text, line", [
    (WORLD + GRANT + " basis=Legal from=abc until=5\n", 6),
    (WORLD + GRANT + " basis=Sometimes from=0 until=5\n", 6),
    (WORLD + "ALIAS a master=m1 ttl=soon\n", 6),
    ("DOMAIN health\nATTACK kind=TruncateLedger count=many\n", 2),
    ("DOMAIN health\nATTACK kind=ReplayRequest\n", 2),
    ("DOMAIN health\nATTACK kind=CrossSiloLink\n", 2),
    ("DOMAIN health\nATTACK kind=ForgeTicket\n", 2),
    ("DOMAIN health\nATTACK kind=CrossSiloLink domains=health,ghost\n", 2),
    ("DOMAIN health\nSILO s domain=health fields=bp\n", 2),
], ids=["from", "basis", "ttl", "count", "replay-no-submit", "crosssilo-no-domains",
        "forge-no-record", "crosssilo-undeclared-domain", "silo-field-without-class"])
def test_malformed_arguments_are_parse_errors(text, line):
    with pytest.raises((ScenarioSyntaxError, ScenarioReferenceError)) as err:
        parse_scenario(text)
    assert err.value.line == line


@pytest.mark.parametrize("text, line, message", [
    (WORLD + "MASTER m2 name=SENTINEL-ALIAS-PERSON real_phone=0012300456\n"
     "ALIAS a master=m2 ttl=5\nROUTE a at=3\n", 8, "ROUTE takes no at="),
    (WORLD + GRANT + " basis=Legal from=0 until=5\n"
     "SUBMIT q program=p auth=g subjects=m1 purpose=P bogus=1\n", 7, "SUBMIT takes no bogus="),
    ("DOMAIN health\nATTACK kind=RemapVid side=controller\n", 2, "RemapVid takes no side="),
], ids=["route-at", "submit-bogus", "attack-other-kinds-argument"])
def test_an_argument_the_step_does_not_name_is_refused(text, line, message):
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize("text", [
    WORLD + GRANT + " basis=Legal from=10 until=5\n"
    "SUBMIT q program=p auth=g subjects=m1 purpose=P classes=health\n",
    "DOMAIN health\nMASTER m1 name=SENTINEL-WORLD-PERSON\n"
    "SILO s domain=health fields=address:other\nPUT r silo=s master=m1 bp=1\n",
], ids=["grant", "silo"])
def test_step_using_a_handle_whose_declaring_step_failed_fails(text):
    report = run(parse_scenario(text))
    *_, declaring, using = report.steps
    assert not declaring.ok
    assert not using.ok
    last_line = len(text.splitlines())
    assert using.detail.startswith(f"ScenarioReferenceError: line {last_line}: ")
    assert report.invariants and report.passed


def test_forge_ticket_on_an_erased_record_is_reported():
    report = run(parse_scenario(WORLD + "PUT r silo=s master=m1 bp=SENTINEL-WORLD-BP\n"
                                "CONSENT m1 purpose=P\nOPTOUT m1 purpose=P\n"
                                "ATTACK kind=ForgeTicket record=r\n"))
    [forge] = report.attacks
    assert forge.caught and forge.detail.startswith("NotFound: ")
    assert report.passed


def test_readme_lists_the_rule_table():
    text = (ROOT / "README.md").read_text().split("## Scenarios", 1)[1]
    steps = text.split("Steps:\n`", 1)[1].split("`", 1)[0].split()
    assert steps == [name for name in RULES if name not in ATTACK_KINDS]
    block = text.split("Attack kinds", 1)[1].split("```")[1].strip().splitlines()
    listed = {kind: tuple(a for a in args if a != "-") for kind, *args in map(str.split, block)}
    assert list(listed) == list(ATTACK_KINDS)
    assert listed == {kind: RULES[kind].required for kind in ATTACK_KINDS}


def test_round_trip_load_serialize_load():
    for path in COMMITTED:
        scenario = load_scenario(path)
        again = parse_scenario(scenario.serialize(), default_name=scenario.name)
        assert again == scenario


def test_values_with_spaces_survive_round_trip():
    scenario = parse_scenario('MASTER m1 name="Ada Example Lovelace"\n')
    assert scenario.steps[0].arg("name") == "Ada Example Lovelace"
    assert parse_scenario(scenario.serialize()) == scenario


_value = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=0, max_size=20,
)
_key = st.text(alphabet="abcdefghijklmnop_", min_size=1, max_size=8)


@given(masters=st.lists(
    st.lists(st.tuples(_key, _value), max_size=4, unique_by=lambda kv: kv[0]),
    min_size=0, max_size=6,
))
@settings(max_examples=100, deadline=None)
def test_generated_master_steps_round_trip(masters):
    lines = ["NAME generated", "SEED 7"]
    for i, attrs in enumerate(masters):
        rendered = " ".join(f"{k}={shlex.quote(v)}" for k, v in attrs)
        lines.append(f"MASTER m{i} {rendered}".rstrip())
    text = "\n".join(lines) + "\n"
    scenario = parse_scenario(text)
    assert parse_scenario(scenario.serialize()) == scenario


# -- committed suite -------------------------------------------------------------

def test_committed_scenarios_exist():
    assert len(COMMITTED) >= 3


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
def test_committed_scenario_passes(path):
    report = run(load_scenario(path))
    assert report.passed, report.render()


def test_every_attack_kind_appears_in_committed_suite_and_is_caught():
    seen: dict[str, bool] = {}
    for path in COMMITTED:
        report = run(load_scenario(path))
        for attack in report.attacks:
            seen[attack.kind] = seen.get(attack.kind, False) or attack.caught
    assert set(seen) == set(ATTACK_KINDS)
    assert all(seen.values())


# -- determinism -------------------------------------------------------------------

def test_same_seed_same_report_bytes():
    scenario = load_scenario(SCENARIO_DIR / "attacks.scn")
    first = run(scenario).render()
    second = run(scenario).render()
    assert first == second


@pytest.mark.parametrize("name", ["honest", "attacks", "optout"])
def test_run_scenario_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert cli_main(["--state-dir", str(tmp_path / "state"), "run-scenario",
                     str(SCENARIO_DIR / f"{name}.scn"), "--report", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (REPORTS / f"{name}.txt").read_bytes()
    # every state file is pinned too: "<sha256>  <path in the state dir>" lines
    state = tmp_path / "state"
    pinned = dict(reversed(line.split("  "))
                  for line in (REPORTS / f"{name}.sha256").read_text().splitlines())
    present = {p.relative_to(state).as_posix() for p in state.rglob("*") if p.is_file()}
    assert present == set(pinned)
    for relpath, digest in pinned.items():
        assert sha256((state / relpath).read_bytes()).hexdigest() == digest, relpath


def test_seed_override_changes_ids_but_report_stays_well_formed():
    scenario = load_scenario(SCENARIO_DIR / "honest.scn")
    report = run(scenario, seed=999)
    assert report.seed == 999
    assert "== invariants ==" in report.render()


def test_refuses_to_run_over_an_existing_deployment(tmp_path):
    from regctl import Deployment
    from regctl.errors import RegctlError
    state = tmp_path / "state"
    Deployment(seed=1, state_dir=state).save()
    with pytest.raises(RegctlError):
        run(parse_scenario(""), state_dir=state)


# -- adversary accuracy ---------------------------------------------------------------

def test_adversary_accuracy_degenerate_single_subject():
    truth = {"m1": {"a": "1", "b": "2"}}
    visible = {"a": ["1"], "b": ["2"]}
    assert linkage_accuracy(visible, truth) == 1.0


def test_adversary_link_accuracy_from_committed_attack_report():
    report = run(load_scenario(SCENARIO_DIR / "attacks.scn"))
    accuracy = adversary_link_accuracy(report)
    assert 0.0 <= accuracy <= 0.15


def test_adversary_link_accuracy_requires_population():
    report = run(load_scenario(SCENARIO_DIR / "honest.scn"))
    with pytest.raises(InsufficientPopulation):
        adversary_link_accuracy(report)


def test_control_condition_reported_total():
    report = run(load_scenario(SCENARIO_DIR / "attacks.scn"))
    attack = next(a for a in report.attacks if a.kind == "CrossSiloLink")
    assert attack.extra["control"] == "1.0000"


# -- report shape ------------------------------------------------------------------------

def test_report_sections_fixed_order():
    report = run(load_scenario(SCENARIO_DIR / "optout.scn"))
    text = report.render()
    positions = [text.index(h) for h in
                 ("scenario:", "seed:", "== steps ==", "== attacks ==",
                  "== invariants ==", "== summary ==", "result:")]
    assert positions == sorted(positions)


def test_report_never_contains_master_attributes():
    scenario = load_scenario(SCENARIO_DIR / "honest.scn")
    report = run(scenario)
    text = report.render()
    for step in scenario.steps:
        if step.keyword == "MASTER":
            for _, value in step.args:
                assert value not in text
