"""Access gate: the regulator's online enforcement point.

A controller cannot read a record by itself. It submits a signed access
request naming the program, the authorization, the subjects and the scope;
the gate authenticates the request, replays it through the registry per
subject, and only then issues a short-lived single-use ticket naming the
subjects and carrying the regulator's key shares for the covered records. Every submit, allowed or
denied, lands in both ledgers and in the subjects' mailboxes.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol

from . import crypto, store
from .clock import Clock
from .crypto import KeyShare, Holder, SigningIdentity
from .errors import (
    DecryptFailure,
    EncodingError,
    NotFound,
    ProtocolError,
    RegctlError,
    ScopeViolation,
    SignatureError,
    TicketConsumed,
    TicketExpired,
    TicketInvalid,
)
from .events import EventKind, EventLog
from .registry import Decision, DenyReason, Registry, Scope
from .silo import RegulatorShareStore, Silo, decode_fields, record_aad

TICKET_TTL_SECONDS = 60
FRESHNESS_WINDOW_SECONDS = 300
NONCE_BYTES = 16


@dataclass(frozen=True)
class AccessRequest:
    request_id: str
    program_id: str
    content_digest: bytes
    auth_id: str
    domain: str
    operation: str
    subject_vids: tuple[str, ...]
    requested_fields: tuple[str, ...]  # field classes
    purpose_code: str
    nonce: bytes
    timestamp: int
    controller_signature: bytes

    def signing_payload(self) -> bytes:
        return crypto.canon_encode(
            "REQv1",
            [self.request_id, self.program_id, self.content_digest, self.auth_id,
             self.domain, self.operation,
             len(self.subject_vids), *self.subject_vids,
             len(self.requested_fields), *self.requested_fields,
             self.purpose_code, self.nonce, self.timestamp],
        )

    @classmethod
    def build(cls, controller: SigningIdentity, request_id: str, program_id: str,
              content_digest: bytes, auth_id: str, domain: str, operation: str,
              subject_vids: list[str], requested_fields: list[str], purpose_code: str,
              timestamp: int, nonce: bytes | None = None) -> "AccessRequest":
        request = cls(
            request_id=request_id,
            program_id=program_id,
            content_digest=content_digest,
            auth_id=auth_id,
            domain=domain,
            operation=operation,
            subject_vids=tuple(subject_vids),
            requested_fields=tuple(requested_fields),
            purpose_code=purpose_code,
            nonce=nonce if nonce is not None else secrets.token_bytes(NONCE_BYTES),
            timestamp=timestamp,
            controller_signature=b"",
        )
        signature = crypto.sign(controller, request.signing_payload())
        return cls(**{**request.__dict__, "controller_signature": signature})


@dataclass
class AccessTicket:
    ticket_id: str
    request_id: str
    granted_scope: Scope
    subject_vids: tuple[str, ...]  # the request's subjects, in the scope's domain
    regulator_shares: dict[str, KeyShare]
    expires_at: int
    signature: bytes

    def signing_payload(self) -> bytes:
        flat: list[str | bytes | int] = [
            self.ticket_id, self.request_id, *self.granted_scope.canonical_fields(),
            len(self.subject_vids), *sorted(self.subject_vids),
            self.expires_at, len(self.regulator_shares),
        ]
        for record_id in sorted(self.regulator_shares):
            flat.append(record_id)
            flat.append(self.regulator_shares[record_id].share)
        return crypto.canon_encode("TKTv1", flat)

    def refusal(self, regulator: SigningIdentity, now: int) -> RegctlError | None:
        """Why this ticket authorises nothing at ``now``, or None.

        The one check of a ticket's regulator signature and expiry, made
        first by every use of a ticket: an open, a resolve and a link.
        """
        try:
            signed = crypto.verify(regulator, self.signing_payload(), self.signature)
        except SignatureError:
            signed = False
        if not signed:
            return TicketInvalid("ticket signature does not verify")
        if now >= self.expires_at:
            return TicketExpired(f"ticket {self.ticket_id} expired")
        return None


@dataclass
class SubmitResult:
    decision: Decision
    ticket: AccessTicket | None

    def __str__(self) -> str:
        return str(self.decision)


class Services(Protocol):
    """The services the gate reaches, each only when a call needs it: an
    open needs no registry and no share store."""

    @property
    def registry(self) -> Registry: ...

    @property
    def share_store(self) -> RegulatorShareStore: ...

    @property
    def silos(self) -> Mapping[str, Silo]: ...


class Gate:
    files = ("gate.json",)
    changed = True  # a save drops what the clock retired, so every save encodes the gate

    def __init__(self, regulator: SigningIdentity, controller: SigningIdentity,
                 services: Services, event_log: EventLog, clock: Clock,
                 registry_vid_of: Callable[[str, str], str | None],
                 rand_bytes: Callable[[int], bytes], lock: threading.RLock):
        self.regulator = regulator
        self.controller = controller
        self._services = services
        self.event_log = event_log
        self.clock = clock
        self.registry_vid_of = registry_vid_of
        self._rand = rand_bytes
        self._seen_nonces: dict[bytes, int] = {}  # nonce -> its request's timestamp
        self._consumed: dict[tuple[str, str], int] = {}  # (ticket, record) -> ticket expiry
        self.tickets: dict[str, AccessTicket] = {}
        self.plaintext_releases = 0
        self._lock = lock

    # -- helpers ---------------------------------------------------------------

    def _summary(self, request: AccessRequest, payload: bytes, scope: Scope | None,
                 decision: Decision) -> str:
        auth = self._services.registry.authorizations.get(request.auth_id)
        grantee = auth.grantee_key_id if auth else "-"
        rendered = scope.render() if scope else "-"
        request_digest = crypto.sha256(payload).hex()
        return (f"purpose={request.purpose_code} scope={rendered} grantee={grantee} "
                f"program={request.program_id} request={request.request_id} "
                f"request_digest={request_digest} decision={decision}")

    # -- submit ------------------------------------------------------------------

    def submit(self, request: AccessRequest) -> SubmitResult:
        """Verify a signed access request and issue a ticket or a denial.

        Order: controller signature, nonce replay, timestamp freshness,
        then the registry decision per subject (first failure wins).
        Malformed requests raise ProtocolError after being logged; they
        identify no subject, so nobody is notified. The event is logged
        under the request id, which a replay or a reuse shares. A read of a
        record with no regulator share, which only a lost or tampered share
        store leaves, raises EncodingError unlogged, with the nonce unspent.
        """
        with self._lock:
            now = self.clock.now()
            scope = self._validate_structure(request)
            payload = request.signing_payload()

            try:
                signature_ok = crypto.verify(self.controller, payload, request.controller_signature)
            except SignatureError:
                signature_ok = False
            if not signature_ok:
                return self._deny(request, payload, scope, DenyReason.SIGNATURE)

            if request.nonce in self._seen_nonces:
                return self._deny(request, payload, scope, DenyReason.REPLAY)
            self._seen_nonces[request.nonce] = request.timestamp  # a nonce burns on first sight
            if abs(request.timestamp - now) > FRESHNESS_WINDOW_SECONDS:
                return self._deny(request, payload, scope, DenyReason.STALE)

            registry = self._services.registry
            for vid in request.subject_vids:
                registry_vid = self.registry_vid_of(request.domain, vid) or ""
                decision = registry.check(request.auth_id, request.content_digest, scope,
                                          request.purpose_code, registry_vid, now)
                if not decision.allowed:
                    return self._deny(request, payload, scope, decision.reason)

            shares: dict[str, KeyShare] = {}
            if request.operation == "read":
                silo = self._services.silos.get(request.domain)
                if silo is not None:
                    share_store = self._services.share_store
                    for vid in request.subject_vids:
                        for record_id in silo.records_for_vid(vid):
                            share = share_store.get(record_id)
                            if share is None:  # a share goes only with its record
                                del self._seen_nonces[request.nonce]  # nothing was decided
                                raise EncodingError(f"{share_store.loaded_from}: no regulator "
                                                    f"share for record {record_id}")
                            shares[record_id] = share
            subjects = sorted(set(request.subject_vids))
            ticket = AccessTicket(
                ticket_id="T" + self._rand(6).hex(),
                request_id=request.request_id,
                granted_scope=scope,
                subject_vids=tuple(subjects),
                regulator_shares=shares,
                expires_at=now + TICKET_TTL_SECONDS,
                signature=b"",
            )
            ticket.signature = crypto.sign(self.regulator, ticket.signing_payload())
            self.tickets[ticket.ticket_id] = ticket

            decision = Decision.allow()
            self.event_log.record(EventKind.ACCESS_ALLOWED, request.request_id, subjects,
                                  self._summary(request, payload, scope, decision))
            return SubmitResult(decision=decision, ticket=ticket)

    def _validate_structure(self, request: AccessRequest) -> Scope:
        problems = []
        if not request.request_id:
            problems.append("empty request_id")
        if not request.subject_vids:
            problems.append("no subjects")
        if len(request.nonce) != NONCE_BYTES:
            problems.append(f"nonce must be {NONCE_BYTES} bytes")
        if len(request.content_digest) != crypto.HASH_BYTES:
            problems.append("content digest must be 32 bytes")
        scope = None
        if not problems:
            try:
                scope = Scope(request.domain, request.requested_fields, request.operation)
            except Exception as exc:
                problems.append(str(exc))
        if problems:
            reason = "; ".join(problems)
            self.event_log.record(EventKind.PROTOCOL_ERROR, request.request_id or "R?",
                                  [], f"malformed request: {reason}")
            raise ProtocolError(reason)
        return scope

    def _deny(self, request: AccessRequest, payload: bytes, scope: Scope,
              reason: DenyReason) -> SubmitResult:
        decision = Decision.deny(reason)
        self.event_log.record(EventKind.ACCESS_DENIED, request.request_id,
                              sorted(set(request.subject_vids)),
                              self._summary(request, payload, scope, decision))
        return SubmitResult(decision=decision, ticket=None)

    # -- open --------------------------------------------------------------------

    def open_record(self, ticket: AccessTicket, record_id: str,
                    controller_share: KeyShare) -> dict[str, str]:
        """Combine both shares and release the record's fields, once.

        Only fields whose class falls inside the ticket's granted scope are
        returned. Every failure mode is logged.
        """
        with self._lock:
            def refuse(error: RegctlError) -> RegctlError:
                self.event_log.record(EventKind.OPEN_DENIED, self.event_log.next_event_id("O"),
                                      [], f"open {record_id} refused: {error}")
                return error

            problem = ticket.refusal(self.regulator, self.clock.now())
            if problem is not None:
                raise refuse(problem)
            if (ticket.ticket_id, record_id) in self._consumed:
                raise refuse(TicketConsumed(f"ticket {ticket.ticket_id} already used for {record_id}"))
            if record_id not in ticket.regulator_shares:
                raise refuse(ScopeViolation(f"record {record_id} outside ticket scope"))

            silo = self._services.silos.get(ticket.granted_scope.domain)
            if silo is None:
                raise refuse(NotFound(f"no silo for domain {ticket.granted_scope.domain}"))
            try:
                ciphertext = silo.fetch_ciphertext(record_id)
                vid = silo.vid_of(record_id)
            except NotFound:
                raise refuse(NotFound(f"record {record_id} no longer exists"))

            key = crypto.combine_shares(controller_share, ticket.regulator_shares[record_id])
            try:
                plaintext = crypto.aead_decrypt(
                    key, crypto.record_nonce(record_id), ciphertext,
                    record_aad(record_id, vid, silo.domain),
                )
            except DecryptFailure:
                raise refuse(DecryptFailure(f"record {record_id} failed to decrypt"))

            fields = decode_fields(plaintext)
            granted = set(ticket.granted_scope.field_classes)
            released = {k: v for k, v in fields.items() if silo.schema.class_of(k) in granted}
            self._consumed[(ticket.ticket_id, record_id)] = ticket.expires_at
            self.plaintext_releases += 1
            self.event_log.record(EventKind.OPEN_OK, self.event_log.next_event_id("O"),
                                  [], f"open {record_id} ticket={ticket.ticket_id} "
                                      f"classes={'+'.join(sorted(granted)) or '-'}")
            return released

    # -- runtime attestation -------------------------------------------------------

    def verify_program_runtime(self, program_id: str, content_digest: bytes) -> bool:
        manifest = self._services.registry.manifests.get(program_id)
        if manifest is None:
            raise NotFound(f"program {program_id} has no manifest")
        return manifest.content_digest == content_digest

    def consumed_count(self) -> int:
        return len(self._consumed)

    # -- persistence -----------------------------------------------------------------

    def _kept(self, now: int) -> tuple[dict, dict, dict]:
        """The nonces, consumption marks and tickets a save at ``now`` keeps."""
        # a nonce whose request is past the freshness window is refused as
        # stale on replay, and open_record refuses an expired ticket before
        # it looks at the marks, so neither need be kept
        return ({n: ts for n, ts in self._seen_nonces.items()
                 if ts + FRESHNESS_WINDOW_SECONDS >= now},
                {key: exp for key, exp in self._consumed.items() if exp > now},
                {tid: t for tid, t in self.tickets.items() if t.expires_at > now})

    def save(self) -> dict[str, bytes]:
        return {self.files[0]: store.json_bytes(self.state_dict())}

    def state_dict(self) -> dict:
        nonces, consumed, tickets = self._kept(self.clock.now())
        return {
            "nonces": {n.hex(): ts for n, ts in nonces.items()},
            "consumed": sorted([t, r, exp] for (t, r), exp in consumed.items()),
            "tickets": [
                {**store.to_doc(t),
                 "regulator_shares": {rid: s.share.hex() for rid, s in t.regulator_shares.items()}}
                for t in tickets.values()
            ],
        }

    def load_state(self, files: store.Files, saved_at: int) -> None:
        """Load ``files`` into a fresh gate, keeping what a save at
        ``saved_at``, the clock reading of the last save, would have kept."""
        ((path, data),) = files
        state = store.parse_json(path, data) or {}
        with store.reading(path, "a gate state document"):
            self._seen_nonces = {bytes.fromhex(n): ts for n, ts in state.get("nonces", {}).items()}
            self._consumed = {(t, r): exp for t, r, exp in state.get("consumed", [])}
            for t in state.get("tickets", []):
                ticket = store.from_doc(AccessTicket, t, regulator_shares={
                    rid: KeyShare(bytes.fromhex(h), Holder.REGULATOR)
                    for rid, h in t["regulator_shares"].items()})
                self.tickets[ticket.ticket_id] = ticket
            self._seen_nonces, self._consumed, self.tickets = self._kept(saved_at)

    def drop_records_from_tickets(self, record_ids: set[str]) -> None:
        """Purge stored tickets that referenced now-deleted records."""
        doomed = [tid for tid, t in self.tickets.items()
                  if record_ids & set(t.regulator_shares)]
        for tid in doomed:
            del self.tickets[tid]
