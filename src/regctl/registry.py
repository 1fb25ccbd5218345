"""Authorization registry: the regulator's rulebook.

Holds purpose codes, regulator-signed authorizations and program manifests,
and the latest consent record of each (subject, purpose) pair, and answers
the single question every access decision reduces to: is this
(authorization, program, scope, purpose, subject) combination allowed right
now? It keeps only what that question and its own mutators read: an
authorization or deletion obligation is numbered by how many there are,
and a deletion proof lives on in the journal and as its hash on the
consent record it closes.

``check`` evaluates seven conditions in a fixed order and denies with the
first failure, so decisions are deterministic and auditable:

    Existence, Status, Window, Scope, PurposeMatch, Manifest, Consent

Every state mutation is one regulator-signed journal record, applied by the
same code live and when the journal is replayed. The journal is
hash-chained: each record's signature covers the chain head over every
earlier record's bytes, so a replay verifies only the last signature.

The journal is the record; ``registry.json`` beside it caches the state it
leads to and the journal's chain head. A save appends the journal's new
records, then writes that snapshot, each with its mark for the checkpoint.
A load whose checkpoint vouches for both builds the state from the snapshot
and holds the journal's bytes undecoded; any other load replays the journal
strictly and leaves the registry ``changed``, as every mutation does, so
the next save writes a fresh snapshot.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import operator
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import crypto, store
from .clock import Clock
from .crypto import SIGNATURE_BYTES, ZERO_HASH, SigningIdentity
from .errors import (
    DuplicatePurpose,
    EncodingError,
    InvalidWindow,
    NoConsentToWithdraw,
    NotFound,
    RegctlError,
    UnknownPurpose,
)
from .events import EventKind, EventLog

OPERATIONS = ("read", "resolve", "link", "mine")
FIELD_CLASSES = ("demographic", "financial", "health", "contact", "other")


@dataclass(frozen=True)
class Scope:
    """What an authorization covers: one domain, field classes, one operation."""

    domain: str
    field_classes: tuple[str, ...]
    operation: str

    def __post_init__(self):
        object.__setattr__(self, "field_classes", tuple(sorted(set(self.field_classes))))
        if self.operation not in OPERATIONS:
            raise RegctlError(f"unknown operation: {self.operation}")
        for fc in self.field_classes:
            if fc not in FIELD_CLASSES:
                raise RegctlError(f"unknown field class: {fc}")

    def covers(self, requested: "Scope") -> bool:
        return (
            self.domain == requested.domain
            and self.operation == requested.operation
            and set(requested.field_classes) <= set(self.field_classes)
        )

    def canonical_fields(self) -> list:
        return [self.domain, self.operation, len(self.field_classes), *self.field_classes]

    def render(self) -> str:
        return f"{self.domain}/{self.operation}/{'+'.join(self.field_classes) or '-'}"


class Basis(enum.Enum):
    LEGAL = "Legal"
    CONSENT = "Consent"


class AuthStatus(enum.Enum):
    ACTIVE = "Active"
    PENDING_CONSENT = "PendingConsent"
    REVOKED = "Revoked"


class DenyReason(enum.Enum):
    EXISTENCE = "Existence"
    STATUS = "Status"
    WINDOW = "Window"
    SCOPE = "Scope"
    PURPOSE_MATCH = "PurposeMatch"
    MANIFEST = "Manifest"
    CONSENT = "Consent"
    # gate-level reasons
    SIGNATURE = "Signature"
    STALE = "Stale"
    REPLAY = "Replay"


@dataclass(frozen=True)
class Decision:
    allowed: bool
    reason: DenyReason | None = None

    @classmethod
    def allow(cls) -> "Decision":
        return cls(True)

    @classmethod
    def deny(cls, reason: DenyReason) -> "Decision":
        return cls(False, reason)

    def __str__(self) -> str:
        return "Allow" if self.allowed else f"Deny({self.reason.value})"


@dataclass
class Authorization:
    auth_id: str
    grantee_key_id: str
    scope: Scope
    purpose_code: str
    basis: Basis
    valid_from: int
    valid_until: int
    status: AuthStatus
    signature: bytes

    def signing_payload(self) -> bytes:
        return crypto.canon_encode(
            "AUTHv1",
            [self.auth_id, self.grantee_key_id, *self.scope.canonical_fields(),
             self.purpose_code, self.basis.value, self.valid_from, self.valid_until],
        )


@dataclass
class ProgramManifest:
    program_id: str
    content_digest: bytes
    declared_purpose: str
    allowed_scope: Scope
    signature: bytes

    def signing_payload(self) -> bytes:
        return crypto.canon_encode(
            "MANIv1",
            [self.program_id, self.content_digest, self.declared_purpose,
             *self.allowed_scope.canonical_fields()],
        )


@dataclass
class ConsentRecord:
    subject_vid: str
    purpose_code: str
    granted_at: int
    renewed_at: int | None = None
    opted_out_at: int | None = None
    deletion_proof: bytes | None = None

    def live(self) -> bool:
        return self.opted_out_at is None


@dataclass(frozen=True)
class DeletionObligation:
    """Regulator-signed instruction to erase one subject's data in one silo."""

    obligation_id: str
    subject_vid: str  # registry-domain vid
    purpose_code: str
    domain: str
    created_at: int
    signature: bytes

    def signing_payload(self) -> bytes:
        return crypto.canon_encode(
            "OBLv1",
            [self.obligation_id, self.subject_vid, self.purpose_code,
             self.domain, self.created_at],
        )


@dataclass(frozen=True)
class DeletionProof:
    """Dual-signed digest of the record ids destroyed for one obligation."""

    obligation_id: str
    domain: str
    record_ids: tuple[str, ...]
    proof_hash: bytes
    regulator_signature: bytes
    controller_signature: bytes

    @staticmethod
    def hash_record_ids(record_ids: list[str]) -> bytes:
        ids = sorted(record_ids)
        return crypto.sha256(crypto.canon_encode("DELv1", [len(ids), *ids]))

    def signing_payload(self) -> bytes:
        return crypto.canon_encode("DELv1", [self.obligation_id, self.domain, self.proof_hash])

    def verify(self, regulator: SigningIdentity, controller: SigningIdentity) -> bool:
        if self.proof_hash != self.hash_record_ids(list(self.record_ids)):
            return False
        payload = self.signing_payload()
        return crypto.verify(regulator, payload, self.regulator_signature) and crypto.verify(
            controller, payload, self.controller_signature
        )


# ---------------------------------------------------------------------------
# Registry service
# ---------------------------------------------------------------------------

class Registry:
    files = ("registry.journal", "registry.json")  # the journal, then its snapshot

    def __init__(self, regulator: SigningIdentity, clock: Clock, event_log: EventLog,
                 subjects_in_scope: Callable[[Scope], list[str]],
                 lock: threading.RLock | None = None):
        self.regulator = regulator
        self.clock = clock
        self.event_log = event_log
        self.subjects_in_scope = subjects_in_scope
        self.purposes: dict[str, str] = {}
        self.manifests: dict[str, ProgramManifest] = {}
        self.manifests_by_digest: dict[bytes, ProgramManifest] = {}
        self.authorizations: dict[str, Authorization] = {}
        self.consents: dict[tuple[str, str], ConsentRecord] = {}  # the latest of each pair
        self.obligations: dict[str, DeletionObligation] = {}
        # signed RECv1 records, one per mutation; record i has seq i
        self._journal = store.Stream(bytes, bytes)
        # crypto.chain_hash over every record in the journal
        self._journal_head = ZERO_HASH
        self.changed = False  # since the files were read or written
        # (signing payload, signature) of manifests whose signature verified
        self._verified_manifests: set[tuple[bytes, bytes]] = set()
        self._lock = lock or threading.RLock()

    # -- journal ---------------------------------------------------------------
    #
    # State changes only through ``_commit`` (live) and ``load`` (replay),
    # and both apply each record through ``_apply``, so a reloaded registry
    # decides exactly as the live one did. A load from the snapshot applies
    # the snapshot's documents through ``_apply`` too, and sets the consents
    # it holds as they were.

    @property
    def journal(self) -> list[bytes]:
        """Every signed record, in order; held bytes are decoded on first use."""
        return self._journal.records

    def _commit(self, kind: str, payload: dict):
        """Sign one journal record, apply it, and return what ``_apply`` stored."""
        self.changed = True
        seq = len(self._journal)
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        signature = crypto.sign(self.regulator, _signed_payload(seq, self._journal_head, kind, body))
        stored = self._apply(kind, payload)
        record = crypto.canon_encode("RECv1", [seq, kind, body, signature])
        self._journal.append(record)
        self._journal_head = crypto.chain_hash(self._journal_head, record)
        return stored

    def _signed(self, unsigned):
        """``unsigned`` with the regulator's signature over its signing payload."""
        signature = crypto.sign(self.regulator, unsigned.signing_payload())
        return dataclasses.replace(unsigned, signature=signature)

    def save(self) -> dict[str, store.Marked]:
        """The journal's tail, then the snapshot taken from it, each with its mark."""
        self.changed = False
        snapshot = store.json_bytes(self._snapshot())
        return {"registry.journal": self._journal.tail(),
                "registry.json": (snapshot, store.FileMark(crypto.sha256(snapshot), 1))}

    def load(self, files: store.Files, marks: store.Marks = {}) -> None:
        """Load ``files`` into a fresh registry: from the snapshot, holding the
        journal's bytes undecoded, when ``marks`` vouch for both; else by
        replaying the journal strictly."""
        (path, data), (snapshot_path, snapshot) = files
        vouched = snapshot is not None and marks.get("registry.json") == store.FileMark(
            crypto.sha256(snapshot), 1)
        data = self._journal.hold(path, data, marks.get("registry.journal") if vouched else None,
                                  "RECv1")
        if data is None:
            with store.reading(snapshot_path, "a registry snapshot"):
                self._restore(json.loads(snapshot))
            return
        self._replay(path, data)
        self.changed = True  # so that the next save writes a snapshot of it

    def _replay(self, path: Path, data: bytes) -> None:
        """Replay the journal bytes ``data``, read from ``path``.

        Every byte is authenticated before anything is applied: the records
        must be in sequence, and the last one's signature, which covers the
        chain head over all the records before it, must verify.
        """
        records = store.decode_records(path, data, _decode_record)
        head = prev = self._journal_head
        for position, (seq, _, _, _, record) in enumerate(records, len(self._journal)):
            if seq != position:
                raise EncodingError(f"registry journal record {seq} found at position {position}")
            prev, head = head, crypto.chain_hash(head, record)
        if records:
            seq, kind, body, signature, _ = records[-1]
            if not crypto.verify(self.regulator, _signed_payload(seq, prev, kind, body), signature):
                raise EncodingError(f"registry journal record {seq} signature invalid")
        for _, kind, body, _, record in records:
            self._apply(kind, json.loads(body))
            self._journal.append(record)
        self._journal_head = head

    # -- the snapshot ------------------------------------------------------------
    #
    # The live state, in dict order, and the chain head of the journal it
    # was taken from. Purposes, manifests, authorizations and obligations
    # are the documents their journal records apply; consents are columns
    # of their fields.

    def _snapshot(self) -> dict:
        consents = self.consents.values()
        columns = [list(map(operator.attrgetter(name), consents)) for name in _CONSENT_FIELDS]
        columns[-1] = [None if proof is None else proof.hex() for proof in columns[-1]]
        return {
            "head": self._journal_head.hex(),
            "purpose": [{"code": code, "description": description}
                        for code, description in self.purposes.items()],
            "manifest": list(map(store.to_doc, self.manifests.values())),
            "auth": list(map(store.to_doc, self.authorizations.values())),
            "obligation": list(map(store.to_doc, self.obligations.values())),
            "consents": columns,
        }

    def _restore(self, snapshot: dict) -> None:
        self._journal_head = bytes.fromhex(snapshot["head"])
        for kind in ("purpose", "manifest", "auth", "obligation"):
            for doc in snapshot[kind]:
                self._apply(kind, doc)
        *columns, proofs = snapshot["consents"]
        proofs = [None if proof is None else bytes.fromhex(proof) for proof in proofs]
        for record in map(ConsentRecord, *columns, proofs):
            self.consents[(record.subject_vid, record.purpose_code)] = record

    def _apply(self, kind: str, p: dict):
        if kind == "purpose":
            self.purposes[p["code"]] = p["description"]
        elif kind == "manifest":
            manifest = store.from_doc(ProgramManifest, p)
            self.manifests[manifest.program_id] = manifest
            self.manifests_by_digest[manifest.content_digest] = manifest
            return manifest
        elif kind == "auth":
            auth = store.from_doc(Authorization, p)
            self.authorizations[auth.auth_id] = auth
            return auth
        elif kind == "auth-status":
            auth = self.authorizations[p["auth_id"]]
            auth.status = AuthStatus(p["status"])
            return auth
        elif kind == "consent":
            record = ConsentRecord(p["subject_vid"], p["purpose_code"], p["granted_at"])
            self.consents[(record.subject_vid, record.purpose_code)] = record
            return record
        elif kind == "renewal":
            pair = (p["subject_vid"], p["purpose_code"])
            record = self.consents.get(pair)
            if record is not None and record.live():
                record.renewed_at = p["renewed_at"]
            else:
                record = self.consents[pair] = ConsentRecord(*pair, p["renewed_at"],
                                                             renewed_at=p["renewed_at"])
            return record
        elif kind == "optout":
            record = self.consents[(p["subject_vid"], p["purpose_code"])]
            record.opted_out_at = p["opted_out_at"]
            return record
        elif kind == "obligation":
            obligation = store.from_doc(DeletionObligation, p)
            self.obligations[obligation.obligation_id] = obligation
            return obligation
        elif kind == "proof":
            # the record also names the consent it closes; from_doc skips those keys
            proof = store.from_doc(DeletionProof, p)
            record = self.consents.get((p["subject_vid"], p["purpose_code"]))
            if record is not None:
                record.deletion_proof = proof.proof_hash
            return proof
        else:
            raise EncodingError(f"unknown journal record kind: {kind}")

    # -- purposes and programs ---------------------------------------------------

    def register_purpose(self, code: str, description: str) -> None:
        with self._lock:
            if code in self.purposes:
                raise DuplicatePurpose(f"purpose {code} already registered")
            self._commit("purpose", {"code": code, "description": description})

    def sign_program(self, program_id: str, artifact: bytes, declared_purpose: str,
                     allowed_scope: Scope) -> ProgramManifest:
        with self._lock:
            if declared_purpose not in self.purposes:
                raise UnknownPurpose(f"purpose {declared_purpose} not registered")
            if program_id in self.manifests:
                raise RegctlError(f"program {program_id} already has a manifest")
            unsigned = ProgramManifest(program_id, crypto.sha256(artifact), declared_purpose,
                                       allowed_scope, signature=b"")
            return self._commit("manifest", store.to_doc(self._signed(unsigned)))

    # -- grants ----------------------------------------------------------------

    def grant(self, grantee_key_id: str, scope: Scope, purpose_code: str, basis: Basis,
              valid_from: int, valid_until: int) -> Authorization:
        with self._lock:
            if purpose_code not in self.purposes:
                raise UnknownPurpose(f"purpose {purpose_code} not registered")
            if valid_from >= valid_until:
                raise InvalidWindow(f"window [{valid_from}, {valid_until}) is inverted")
            return self._store_auth(grantee_key_id, scope, purpose_code, basis,
                                    valid_from, valid_until, AuthStatus.ACTIVE)

    def _store_auth(self, grantee_key_id: str, scope: Scope, purpose_code: str, basis: Basis,
                    valid_from: int, valid_until: int, status: AuthStatus) -> Authorization:
        unsigned = Authorization(f"A{len(self.authorizations) + 1:05d}", grantee_key_id, scope,
                                 purpose_code, basis, valid_from, valid_until, status,
                                 signature=b"")
        return self._commit("auth", store.to_doc(self._signed(unsigned)))

    def revoke(self, auth_id: str) -> Authorization:
        with self._lock:
            if auth_id not in self.authorizations:
                raise NotFound(f"authorization {auth_id} not found")
            return self._commit("auth-status", {"auth_id": auth_id, "status": "Revoked"})

    def extend_purpose(self, auth_id: str, new_purpose_code: str) -> Authorization:
        """Create a new authorization for an extended purpose.

        Legal basis: active immediately. Consent basis: pending until the
        first subject renews. Either way every affected subject is told.
        """
        with self._lock:
            original = self.authorizations.get(auth_id)
            if original is None:
                raise NotFound(f"authorization {auth_id} not found")
            if original.status != AuthStatus.ACTIVE:
                raise RegctlError(f"authorization {auth_id} is not Active")
            if new_purpose_code not in self.purposes:
                raise UnknownPurpose(f"purpose {new_purpose_code} not registered")
            status = AuthStatus.ACTIVE if original.basis == Basis.LEGAL else AuthStatus.PENDING_CONSENT
            auth = self._store_auth(original.grantee_key_id, original.scope, new_purpose_code,
                                    original.basis, original.valid_from, original.valid_until, status)
            summary = (f"purpose extension {original.purpose_code}->{new_purpose_code} "
                       f"scope={original.scope.render()} grantee={original.grantee_key_id} "
                       f"basis={original.basis.value}")
            self.event_log.record(EventKind.EXTENSION, auth.auth_id,
                                  sorted(self.subjects_in_scope(original.scope)), summary)
            return auth

    # -- consent ---------------------------------------------------------------

    def record_consent(self, subject_vid: str, purpose_code: str) -> ConsentRecord:
        with self._lock:
            if purpose_code not in self.purposes:
                raise UnknownPurpose(f"purpose {purpose_code} not registered")
            if not subject_vid:  # the gate checks a subject with no registry vid as ""
                raise RegctlError("consent must name a subject vid")
            return self._commit("consent", {"subject_vid": subject_vid, "purpose_code": purpose_code,
                                            "granted_at": self.clock.now()})

    def record_consent_renewal(self, subject_vid: str, purpose_code: str) -> ConsentRecord:
        with self._lock:
            if purpose_code not in self.purposes:
                raise UnknownPurpose(f"purpose {purpose_code} not registered")
            if not subject_vid:
                raise RegctlError("consent must name a subject vid")
            # first renewal activates any authorization waiting on this purpose
            pending = [auth.auth_id for auth in self.authorizations.values()
                       if auth.purpose_code == purpose_code and auth.status == AuthStatus.PENDING_CONSENT]
            for auth_id in pending:
                self._commit("auth-status", {"auth_id": auth_id, "status": "Active"})
            return self._commit("renewal", {"subject_vid": subject_vid, "purpose_code": purpose_code,
                                            "renewed_at": self.clock.now()})

    def opt_out(self, subject_vid: str, purpose_code: str) -> ConsentRecord:
        with self._lock:
            if not self.has_live_consent(subject_vid, purpose_code):
                raise NoConsentToWithdraw(f"no live consent for ({subject_vid}, {purpose_code})")
            return self._commit("optout", {"subject_vid": subject_vid, "purpose_code": purpose_code,
                                           "opted_out_at": self.clock.now()})

    def has_live_consent(self, subject_vid: str, purpose_code: str) -> bool:
        record = self.consents.get((subject_vid, purpose_code))
        return record is not None and record.live()

    # -- deletion obligations ------------------------------------------------------

    def issue_deletion_obligation(self, subject_vid: str, purpose_code: str, domain: str) -> DeletionObligation:
        with self._lock:
            unsigned = DeletionObligation(f"D{len(self.obligations) + 1:05d}", subject_vid,
                                          purpose_code, domain, self.clock.now(), signature=b"")
            return self._commit("obligation", store.to_doc(self._signed(unsigned)))

    def attach_deletion_proof(self, subject_vid: str, purpose_code: str, proof: DeletionProof) -> DeletionProof:
        with self._lock:
            return self._commit("proof", {**store.to_doc(proof), "subject_vid": subject_vid,
                                          "purpose_code": purpose_code})

    # -- the decision ------------------------------------------------------------

    def check(self, auth_id: str, program_digest: bytes, requested_scope: Scope,
              purpose_code: str, subject_vid: str, now: int) -> Decision:
        """Decide one access. Pure given registry state; first failure wins.

        ``subject_vid`` is the subject's vid in the registry's own domain
        (consent records are keyed by it).
        """
        auth = self.authorizations.get(auth_id)
        if auth is None:
            return Decision.deny(DenyReason.EXISTENCE)
        if auth.status != AuthStatus.ACTIVE:
            return Decision.deny(DenyReason.STATUS)
        if not (auth.valid_from <= now < auth.valid_until):
            return Decision.deny(DenyReason.WINDOW)
        if not auth.scope.covers(requested_scope):
            return Decision.deny(DenyReason.SCOPE)
        manifest = self.manifests_by_digest.get(program_digest)
        if purpose_code != auth.purpose_code or (
            manifest is not None and purpose_code != manifest.declared_purpose
        ):
            return Decision.deny(DenyReason.PURPOSE_MATCH)
        if (
            manifest is None
            or not self._manifest_signature_valid(manifest)
            or not manifest.allowed_scope.covers(requested_scope)
        ):
            return Decision.deny(DenyReason.MANIFEST)
        if auth.basis == Basis.CONSENT and not self.has_live_consent(subject_vid, purpose_code):
            return Decision.deny(DenyReason.CONSENT)
        return Decision.allow()

    def _manifest_signature_valid(self, manifest: ProgramManifest) -> bool:
        """Verify a manifest's signature once per exact (payload, signature) pair."""
        key = (manifest.signing_payload(), manifest.signature)
        if key in self._verified_manifests:
            return True
        if not crypto.verify(self.regulator, *key):
            return False
        self._verified_manifests.add(key)
        return True

    def verify_stored_objects(self) -> bool:
        """All stored authorizations and manifests must verify under the regulator key."""
        for auth in self.authorizations.values():
            if not crypto.verify(self.regulator, auth.signing_payload(), auth.signature):
                return False
        for manifest in self.manifests.values():
            if not crypto.verify(self.regulator, manifest.signing_payload(), manifest.signature):
                return False
        return True


_CONSENT_FIELDS = tuple(field.name for field in dataclasses.fields(ConsentRecord))


def _signed_payload(seq: int, prev_head: bytes, kind: str, body: bytes) -> bytes:
    """What the regulator signs for journal record ``seq``; ``prev_head`` chains it."""
    return crypto.canon_encode("RECv2", [seq, prev_head, kind, body])


def _decode_record(record: bytes) -> tuple[int, str, bytes, bytes, bytes]:
    """(seq, kind, body, signature, record) of one signed journal record."""
    tag, fields = crypto.canon_decode(record)
    if tag != "RECv1" or len(fields) != 4 or len(fields[3]) != SIGNATURE_BYTES:
        raise EncodingError("bad registry journal record")
    return crypto.decode_int(fields[0]), crypto.decode_str(fields[1]), fields[2], fields[3], record
