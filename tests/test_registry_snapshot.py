"""registry.json: the snapshot a registry loads from instead of replaying
its journal, when the checkpoint vouches for it.

The strict replay is the oracle: a command run on a state directory whose
checkpoint was deleted must print and write exactly what it does on one that
loads from the snapshot. A snapshot the checkpoint does not vouch for is
ignored (tests/test_tamper_cells.py edits it): the journal is replayed,
decisions stay as the journal has them, and the next save writes a valid
snapshot again.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from regctl import Basis, Deployment, Scope, SiloSchema, crypto, store
from regctl.cli import main as cli_main
from regctl.deploy import REGISTRY_DOMAIN
from regctl.registry import Registry

from conftest import CHECKPOINT, checkpoint_marks, seal_checkpoint


def _files(state: Path) -> dict[str, bytes]:
    return {p.relative_to(state).as_posix(): p.read_bytes()
            for p in sorted(state.rglob("*")) if p.is_file()}


def _unsealed(state: Path) -> dict[str, bytes]:
    """Every file of ``state`` but the checkpoint."""
    files = _files(state)
    files.pop(CHECKPOINT, None)
    return files


def _run(capsys, state: Path, seed: int, *argv: str) -> tuple[int, str, str]:
    code = cli_main(["--state-dir", str(state), "--seed", str(seed), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err.replace(str(state), "<state>")


def _loaded_registry(state: Path) -> list:
    """What a registry loaded from ``state`` holds, in order."""
    registry = Deployment(state_dir=state).registry
    return [list(getattr(registry, name).items())
            for name in ("purposes", "manifests", "manifests_by_digest", "authorizations",
                         "consents", "obligations")] + [registry._journal_head, registry.journal]


@pytest.fixture
def replays(monkeypatch) -> list[Path]:
    """The state directory of every registry load that replayed its journal."""
    seen = []
    replay = Registry._replay

    def recorded(self, path, data):
        seen.append(path.parent)
        return replay(self, path, data)
    monkeypatch.setattr(Registry, "_replay", recorded)
    return seen


# -- the oracle: snapshot and replay write the same bytes ------------------------------

def test_every_command_writes_the_same_bytes_from_the_snapshot_as_from_the_replay(
        tmp_path, capsys, replays):
    held, strict = tmp_path / "held", tmp_path / "strict"
    seed = 41

    def run(*argv: str) -> dict[str, str]:
        """Run one command in both directories, the strict one with no
        checkpoint, and check that both printed and wrote the same, and that
        the snapshot loads what the replay loads."""
        result = _run(capsys, held, seed, *argv)
        assert _run(capsys, strict, seed, *argv) == result, argv
        assert _unsealed(strict) == _unsealed(held), argv
        (strict / CHECKPOINT).unlink(missing_ok=True)
        if (held / "registry.journal").exists():
            assert _loaded_registry(held) == _loaded_registry(strict), argv
        return dict(pair.split("=", 1) for pair in result[1].split())

    # the setup reaches no registry, so neither directory has a snapshot yet
    run("silo", "create", "--domain", "health", "--field", "bp:health")
    vids, subjects = [], []
    for name in ("first", "second"):
        master = run("vault", "register", f"name={name}")["master_id"]
        vids.append(run("vault", "derive", "--master", master, "--domain", "health")["vid"])
        subjects.append(run("vault", "derive", "--master", master,
                            "--domain", REGISTRY_DOMAIN)["vid"])
        run("silo", "put", "--domain", "health", "--vid", vids[-1], "bp=120/80")
    assert replays == [] and not (held / "registry.json").exists()

    # from here on every command reaches the registry
    run("purpose", "add", "CARE_AUDIT")
    run("purpose", "add", "CARE_RESEARCH", "--desc", "new use")
    run("program", "sign", "--program-id", "p1", "--artifact-text", "v1",
        "--purpose", "CARE_AUDIT", "--domain", "health", "--classes", "health")
    auth = run("grant", "--grantee", "controller", "--domain", "health", "--classes", "health",
               "--purpose", "CARE_AUDIT", "--basis", "Consent", "--from", "0",
               "--until", "1000")["auth_id"]
    for subject in subjects:
        run("consent", "give", "--subject", subject, "--purpose", "CARE_AUDIT")

    def submit(request_id: str, vid: str, auth_id: str = auth):
        return run("submit", "--request-id", request_id, "--program", "p1", "--auth", auth_id,
                   "--domain", "health", "--subjects", vid, "--classes", "health",
                   "--purpose", "CARE_AUDIT")

    assert "ticket_id" in submit("q1", vids[0])
    assert run("extend", "--auth", auth, "--purpose", "CARE_RESEARCH")["status"] == "PendingConsent"
    run("consent", "renew", "--subject", subjects[0], "--purpose", "CARE_RESEARCH")
    # the CLI has no revoke command: the library revokes, as a command would
    for state in (held, strict):
        dep = Deployment(seed=seed, state_dir=state)
        dep.clock.advance(1)
        dep.registry.revoke(auth)
        dep.save()
    assert _unsealed(strict) == _unsealed(held)
    (strict / CHECKPOINT).unlink()
    assert submit("q2", vids[0]) == {}  # Deny(Status), on stderr
    assert run("consent", "optout", "--subject", subjects[1],
               "--purpose", "CARE_AUDIT")["obligations"] == "1"
    run("consent", "renew", "--subject", subjects[1], "--purpose", "CARE_AUDIT")
    run("consent", "optout", "--subject", subjects[1], "--purpose", "CARE_AUDIT")
    assert run("consent", "optout", "--subject", subjects[1], "--purpose", "CARE_AUDIT") == {}

    kinds = {crypto.decode_str(crypto.canon_decode(record)[1][1])
             for record in store.decode_records(held / "registry.journal",
                                                (held / "registry.journal").read_bytes(), bytes)}
    assert kinds == {"purpose", "manifest", "auth", "auth-status", "consent", "renewal",
                     "optout", "obligation", "proof"}
    # a held load replayed only when there was no journal yet
    assert replays.count(held) == 1


# -- a forger who holds both seeds -----------------------------------------------------

def _world(state: Path, seed: int) -> dict[str, str]:
    """Two consenting subjects with a health record each, a signed program and
    a consent-basis grant for it."""
    dep = Deployment(seed=seed, state_dir=state)
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    dep.registry.register_purpose("CARE_AUDIT", "care")
    scope = Scope("health", ("health",), "read")
    dep.registry.sign_program("p1", b"prog", "CARE_AUDIT", scope)
    world = {"auth": dep.registry.grant(dep.controller.key_id, scope, "CARE_AUDIT",
                                        Basis.CONSENT, 0, 10**6).auth_id}
    for name in ("staying", "leaving"):
        master = dep.vault.register_master({"name": name})
        world[name] = dep.vault.derive_vid(master, "health").vid
        world[f"{name}_subject"] = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
        dep.registry.record_consent(world[f"{name}_subject"], "CARE_AUDIT")
        dep.silos["health"].put_record(world[name], {"bp": "120/80"})
    dep.save()
    return world


def _opted_out(capsys, state: Path, seed: int) -> dict[str, str]:
    """A world in which ``leaving`` opted out."""
    world = _world(state, seed)
    assert _run(capsys, state, seed, "consent", "optout", "--subject", world["leaving_subject"],
                "--purpose", "CARE_AUDIT")[0] == 0
    return world


def _submit(capsys, state: Path, world: dict[str, str], request_id: str, name: str):
    return _run(capsys, state, 23, "submit", "--request-id", request_id, "--program", "p1",
                "--auth", world["auth"], "--domain", "health", "--subjects", world[name],
                "--classes", "health", "--purpose", "CARE_AUDIT")


def test_a_checkpoint_resealed_under_the_two_seed_key_naming_an_edited_snapshot_is_trusted(
        tmp_path, capsys, replays):
    """What README says: a writer who can read keys/ holds both seeds, so it
    can forge a checkpoint that names an edited snapshot, as it can forge
    journal records."""
    state = tmp_path / "state"
    world = _opted_out(capsys, state, 23)
    path = state / "registry.json"
    content = json.loads(path.read_bytes())
    content["consents"][4] = [None] * len(content["consents"][4])  # every consent live
    path.write_bytes(store.json_bytes(content))
    marks = checkpoint_marks(state)
    marks["registry.json"]["sha256"] = crypto.sha256(path.read_bytes()).hex()
    seal_checkpoint(state, marks)
    replays.clear()
    code, stdout, _ = _submit(capsys, state, world, "q1", "leaving")
    assert code == 0 and stdout.startswith("ticket_id=") and replays == []
