from __future__ import annotations

import json
from pathlib import Path

import pytest

from regctl import AccessRequest, Basis, Deployment, Scope, SiloSchema, crypto, deploy, store
from regctl.deploy import REGISTRY_DOMAIN, identities, read_keys

CHECKPOINT = "ledgers/checkpoint.json"


@pytest.fixture
def deployment() -> Deployment:
    return Deployment(seed=42)


@pytest.fixture
def populated(deployment: Deployment):
    """A small working world: one silo, one consented subject, one program."""
    dep = deployment
    dep.create_silo(SiloSchema(domain="health",
                               field_classes=(("bp", "health"), ("visits", "other"))))
    master = dep.vault.register_master(
        {"name": "SENTINEL-ASHA-RAU-4711", "address": "SENTINEL-5-FERN-COURT",
         "real_phone": "0088776655"})
    vid = dep.vault.derive_vid(master, "health").vid
    registry_vid = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
    dep.registry.register_purpose("CARE_AUDIT", "clinical care quality audit")
    artifact = b"care-audit program build 14"
    manifest = dep.registry.sign_program(
        "p-care", artifact, "CARE_AUDIT", Scope("health", ("health", "other"), "read"))
    auth = dep.registry.grant(dep.controller.key_id, Scope("health", ("health", "other"), "read"),
                              "CARE_AUDIT", Basis.CONSENT, 0, 10_000)
    dep.registry.record_consent(registry_vid, "CARE_AUDIT")
    record_id = dep.silos["health"].put_record(vid, {"bp": "120/80", "visits": "3"})
    return {
        "dep": dep, "master": master, "vid": vid, "registry_vid": registry_vid,
        "artifact": artifact, "manifest": manifest, "auth": auth, "record_id": record_id,
    }


def make_request(dep: Deployment, populated: dict, request_id: str = "q1",
                 subjects: list[str] | None = None, classes: tuple[str, ...] = ("health", "other"),
                 purpose: str = "CARE_AUDIT", digest: bytes | None = None,
                 auth_id: str | None = None, operation: str = "read",
                 timestamp: int | None = None, nonce: bytes | None = None) -> AccessRequest:
    return AccessRequest.build(
        controller=dep.controller,
        request_id=request_id,
        program_id="p-care",
        content_digest=digest if digest is not None else populated["manifest"].content_digest,
        auth_id=auth_id or populated["auth"].auth_id,
        domain="health",
        operation=operation,
        subject_vids=subjects if subjects is not None else [populated["vid"]],
        requested_fields=list(classes),
        purpose_code=purpose,
        timestamp=timestamp if timestamp is not None else dep.clock.now(),
        nonce=nonce if nonce is not None else dep.rand_bytes(16),
    )


def count_calls(monkeypatch, *names: str, owner=crypto) -> dict[str, int]:
    """Count calls to the named functions of ``owner``, a module or a class
    (the ``crypto`` module unless given), from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def whole(files: dict[str, bytes | store.Tail | store.Marked]) -> dict[str, bytes]:
    """The whole bytes of each file a service's ``save`` returned: a
    stream's tail as the whole file it ends, a marked file without its mark."""
    files = {name: data[0] if isinstance(data, tuple) else data for name, data in files.items()}
    return {name: data.whole() if isinstance(data, store.Tail) else data
            for name, data in files.items()}


def marks(files: dict[str, bytes | store.Tail | store.Marked]) -> dict[str, store.FileMark]:
    """The mark of each marked file a service's ``save`` returned, as the
    deployment's checkpoint records it."""
    return {name: data[1] for name, data in files.items() if isinstance(data, tuple)}


def write_files(root: Path, files: dict[str, bytes | store.Tail | store.Marked]) -> None:
    """Write the files a service's ``save`` returned under ``root``, as a
    deployment does on a directory that holds none of them."""
    for name, data in whole(files).items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)


def state_files(root: Path) -> dict[str, bytes]:
    """The bytes of every file under the state directory ``root``, by its
    path relative to ``root``."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def checkpoint_keys(state: Path) -> dict[str, bytes]:
    """Keys to seal the checkpoint of ``state`` under: the deployment's, from
    both seeds ("both"), and one from each seed alone."""
    regulator, controller = identities(*read_keys(state)[:2])
    tag = deploy.Checkpoint.TAG
    keys = {"regulator": crypto.seed_key(regulator, tag),
            "controller": crypto.seed_key(controller, tag)}
    return {"both": crypto.prf_derive(keys["regulator"], tag, keys["controller"]), **keys}


def checkpoint_marks(state: Path) -> dict:
    """The marks the checkpoint of ``state`` holds, as its JSON has them."""
    return json.loads((state / CHECKPOINT).read_bytes())["files"]


def seal_checkpoint(state: Path, marks: dict, key: str = "both") -> None:
    """Write ``marks`` as the checkpoint of ``state``, sealed under the key
    ``checkpoint_keys`` names ``key``."""
    (state / CHECKPOINT).write_bytes(store.sealed("files", marks, checkpoint_keys(state)[key],
                                                  deploy.Checkpoint.TAG))
