"""Seeded worlds the workloads run against, built through regctl's public API.

Every master carries planted sentinel attribute values and every sealed
record carries sentinel field values, all starting with ``SENTINEL_PREFIX``,
so the leak scan can prove none of them reach the benchmark's output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from regctl import AccessRequest, Basis, Deployment, Scope, SiloSchema
from regctl.deploy import REGISTRY_DOMAIN
from regctl.events import EventKind

SENTINEL_PREFIX = "SENTINEL-"
DOMAIN = "health"
SCHEMA = SiloSchema(domain=DOMAIN, field_classes=(("bp", "health"), ("visits", "other")))
READ_CLASSES = ("health", "other")
PURPOSE = "CARE_AUDIT"
RESOLVE_PURPOSE = "FRAUD_CHECK"
READ_PROGRAM = "p-care"
RESOLVE_PROGRAM = "p-resolve"
AUTH_UNTIL = 10**9


@dataclass
class Subject:
    master_id: str
    vid: str            # vid in the silo's domain
    registry_vid: str   # vid in the registry domain, which consent is keyed by
    consented: bool
    records: dict[str, dict[str, str]] = field(default_factory=dict)  # record id -> fields


@dataclass
class World:
    dep: Deployment
    subjects: list[Subject]
    read_digest: bytes
    read_auth: str
    resolve_digest: bytes
    resolve_auth: str
    sentinels: list[str]

    def consented(self) -> list[Subject]:
        return [s for s in self.subjects if s.consented]

    def opted_out(self) -> list[Subject]:
        return [s for s in self.subjects if not s.consented]

    def read_request(self, request_id: str, vids: list[str]) -> AccessRequest:
        return self._request(request_id, READ_PROGRAM, self.read_digest, self.read_auth,
                             "read", vids, list(READ_CLASSES), PURPOSE)

    def resolve_request(self, request_id: str, vid: str) -> AccessRequest:
        return self._request(request_id, RESOLVE_PROGRAM, self.resolve_digest, self.resolve_auth,
                             "resolve", [vid], [], RESOLVE_PURPOSE)

    def _request(self, request_id, program, digest, auth, operation, vids, classes, purpose):
        dep = self.dep
        return AccessRequest.build(
            controller=dep.controller, request_id=request_id, program_id=program,
            content_digest=digest, auth_id=auth, domain=DOMAIN, operation=operation,
            subject_vids=vids, requested_fields=classes, purpose_code=purpose,
            timestamp=dep.clock.now(), nonce=dep.rand_bytes(16),
        )


def sentinel(rng: random.Random, kind: str, index: int) -> str:
    return f"{SENTINEL_PREFIX}{kind}-{index:06d}-{rng.getrandbits(32):08x}"


def record_fields(rng: random.Random, index: int) -> dict[str, str]:
    return {"bp": sentinel(rng, "BP", index), "visits": sentinel(rng, "VISITS", index)}


def build_world(seed: int, population: int, consent_share: float,
                state_dir: Path | None = None, max_records: int = 3) -> World:
    """One silo, a consent-basis read authorization, a legal-basis resolve
    authorization, and ``population`` subjects with 1 to ``max_records``
    sealed records each. A ``consent_share`` of subjects keep their consent;
    the rest opt out."""
    rng = random.Random(seed)
    dep = Deployment(seed=seed, state_dir=state_dir)
    silo = dep.create_silo(SCHEMA)
    registry = dep.registry
    registry.register_purpose(PURPOSE, "clinical care quality audit")
    registry.register_purpose(RESOLVE_PURPOSE, "billing fraud investigation")
    read_scope = Scope(DOMAIN, READ_CLASSES, "read")
    resolve_scope = Scope(DOMAIN, (), "resolve")
    read_manifest = registry.sign_program(READ_PROGRAM, b"care-audit build 14", PURPOSE, read_scope)
    resolve_manifest = registry.sign_program(RESOLVE_PROGRAM, b"fraud-check build 3",
                                             RESOLVE_PURPOSE, resolve_scope)
    read_auth = registry.grant(dep.controller.key_id, read_scope, PURPOSE, Basis.CONSENT,
                               0, AUTH_UNTIL)
    resolve_auth = registry.grant(dep.controller.key_id, resolve_scope, RESOLVE_PURPOSE,
                                  Basis.LEGAL, 0, AUTH_UNTIL)
    subjects: list[Subject] = []
    sentinels: list[str] = []
    for i in range(population):
        attributes = {"name": sentinel(rng, "NAME", i), "address": sentinel(rng, "ADDR", i)}
        sentinels.extend(attributes.values())
        master_id = dep.vault.register_master(attributes)
        vid = dep.vault.derive_vid(master_id, DOMAIN).vid
        registry_vid = dep.vault.derive_vid(master_id, REGISTRY_DOMAIN).vid
        consented = rng.random() < consent_share
        registry.record_consent(registry_vid, PURPOSE)
        if not consented:
            registry.opt_out(registry_vid, PURPOSE)
        subject = Subject(master_id, vid, registry_vid, consented)
        for _ in range(rng.randint(1, max_records)):
            fields = record_fields(rng, i)
            sentinels.extend(fields.values())
            subject.records[silo.put_record(vid, fields)] = fields
        subjects.append(subject)
    return World(dep, subjects, read_manifest.content_digest, read_auth.auth_id,
                 resolve_manifest.content_digest, resolve_auth.auth_id, sentinels)


def add_access_history(world: World, seed: int, events: int) -> None:
    """Fill both ledgers with ``events`` prior events: allowed 1-subject
    submits each followed by an open of one granted record."""
    rng = random.Random(seed ^ 0x5EED)
    dep = world.dep
    silo = dep.silos[DOMAIN]
    consented = world.consented()
    for k in range(events // 2):
        dep.clock.advance(1)
        subject = rng.choice(consented)
        result = dep.gate.submit(world.read_request(f"h{k}", [subject.vid]))
        record_id = rng.choice(sorted(subject.records))
        dep.gate.open_record(result.ticket, record_id, silo.controller_share(record_id))


def add_ledger_history(world: World, seed: int, events: int) -> None:
    """Commit ``events`` prior access and open events straight to the paired
    ledgers, the way the gate records them, without the gate's checks."""
    rng = random.Random(seed ^ 0x1ED6)
    dep = world.dep
    log = dep.event_log
    consented = world.consented()
    for k in range(events):
        dep.clock.advance(1)
        if k % 2 == 0:
            subject = rng.choice(consented)
            log.record(EventKind.ACCESS_ALLOWED, f"h{k}", [subject.vid],
                       f"purpose={PURPOSE} scope={DOMAIN}/read/health+other "
                       f"grantee={dep.controller.key_id} program={READ_PROGRAM} "
                       f"request=h{k} decision=Allow")
        else:
            log.record(EventKind.OPEN_OK, log.next_event_id("O"), [],
                       f"open history-{k} classes=health+other")
