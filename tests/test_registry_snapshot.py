"""registry.json: the sealed snapshot a registry loads from instead of
replaying its journal.

The strict replay is the oracle: a command run on a state directory whose
snapshot was deleted must print and write exactly what it does on one that
loads from the snapshot. A snapshot that is edited, rolled back, taken from
another state or sealed under another key is ignored: the journal is
replayed, decisions stay as the journal has them, and the next save writes a
valid snapshot again.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from regctl import Basis, Deployment, Scope, SiloSchema, crypto, store
from regctl.cli import main as cli_main
from regctl.deploy import REGISTRY_DOMAIN, identities, read_keys
from regctl.registry import _SNAPSHOT_TAG, Registry


def _files(state: Path) -> dict[str, bytes]:
    return {p.relative_to(state).as_posix(): p.read_bytes()
            for p in sorted(state.rglob("*")) if p.is_file()}


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
        snapshot, and check that both printed and wrote the same, and that
        the snapshot loads what the replay loads."""
        result = _run(capsys, held, seed, *argv)
        assert _run(capsys, strict, seed, *argv) == result, argv
        assert _files(strict) == _files(held), argv
        (strict / "registry.json").unlink(missing_ok=True)
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
    assert _files(strict) == _files(held)
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


# -- an edited snapshot is ignored ----------------------------------------------------

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


def _opted_out(capsys, state: Path, seed: int) -> tuple[dict[str, str], bytes]:
    """A world in which ``leaving`` opted out; and its snapshot from before."""
    world = _world(state, seed)
    before = (state / "registry.json").read_bytes()
    assert _run(capsys, state, seed, "consent", "optout", "--subject", world["leaving_subject"],
                "--purpose", "CARE_AUDIT")[0] == 0
    return world, before


def _submit(capsys, state: Path, world: dict[str, str], request_id: str, name: str):
    return _run(capsys, state, 23, "submit", "--request-id", request_id, "--program", "p1",
                "--auth", world["auth"], "--domain", "health", "--subjects", world[name],
                "--classes", "health", "--purpose", "CARE_AUDIT")


def _reseal(path: Path, key: bytes) -> None:
    """Make every consent in the snapshot at ``path`` live, sealed by ``key``."""
    content = json.loads(path.read_bytes())["registry"]
    opted_out_at = content["consents"][4]
    content["consents"][4] = [None] * len(opted_out_at)
    path.write_bytes(store.sealed("registry", content, key, _SNAPSHOT_TAG))


def _flip_byte(path: Path, **_) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _roll_back(path: Path, before: bytes, **_) -> None:
    path.write_bytes(before)


def _from_another_seed(path: Path, capsys, tmp_path: Path, **_) -> None:
    other = tmp_path / "other"
    _opted_out(capsys, other, 24)
    shutil.copyfile(other / "registry.json", path)


def _resealed_under_a_wrong_key(path: Path, **_) -> None:
    controller = identities(*read_keys(path.parent)[:2])[1]
    _reseal(path, crypto.seed_key(controller, "REGSNAPKEYv1"))


def _respaced(path: Path, **_) -> None:
    """The same document and seal, with JSON's default separators."""
    path.write_bytes(json.dumps(json.loads(path.read_bytes()), sort_keys=True).encode())


@pytest.mark.parametrize("edit", [_flip_byte, _roll_back, _from_another_seed,
                                  _resealed_under_a_wrong_key, _respaced],
                         ids=["flipped-byte", "rolled-back", "another-seed", "wrong-key",
                              "re-spaced"])
def test_an_edited_snapshot_is_ignored_and_written_again(tmp_path, capsys, replays, edit):
    clean = tmp_path / "clean"
    world, before = _opted_out(capsys, clean, 23)
    tampered = tmp_path / "tampered"
    shutil.copytree(clean, tampered)
    edit(tampered / "registry.json", before=before, capsys=capsys, tmp_path=tmp_path)
    assert (tampered / "registry.json").read_bytes() != (clean / "registry.json").read_bytes()
    replays.clear()
    outcomes = []
    for request_id, name in (("q1", "leaving"), ("q2", "staying")):
        outcomes.append(_submit(capsys, tampered, world, request_id, name))
        assert outcomes[-1] == _submit(capsys, clean, world, request_id, name)
        assert _files(tampered) == _files(clean)
    assert outcomes[0] == (1, "", "error=Deny(Consent)\n") and outcomes[1][0] == 0
    assert replays == [tampered]  # once: that save wrote a valid snapshot


def test_a_snapshot_resealed_under_the_regulator_key_is_trusted(tmp_path, capsys, replays):
    """What README says: a writer who can read keys/ can forge a snapshot,
    as it can forge journal records."""
    state = tmp_path / "state"
    world, _ = _opted_out(capsys, state, 23)
    _reseal(state / "registry.json", crypto.seed_key(
        identities(*read_keys(state)[:2])[0], "REGSNAPKEYv1"))
    replays.clear()
    code, stdout, _ = _submit(capsys, state, world, "q1", "leaving")
    assert code == 0 and stdout.startswith("ticket_id=") and replays == []
