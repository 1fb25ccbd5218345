"""Access gate: the regulator's online enforcement point.

A controller cannot read a record by itself. It submits a signed access
request naming the program, the authorization, the subjects and the scope;
the gate authenticates the request, replays it through the registry per
subject, and only then issues a short-lived single-use ticket carrying the
regulator's key shares for the covered records. Every submit, allowed or
denied, lands in both ledgers and in the subjects' mailboxes.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

from . import crypto, store
from .clock import Clock
from .crypto import KeyShare, Holder, SigningIdentity
from .errors import (
    DecryptFailure,
    NotFound,
    ProtocolError,
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
    regulator_shares: dict[str, KeyShare]
    expires_at: int
    signature: bytes

    def signing_payload(self) -> bytes:
        flat: list[str | bytes | int] = [
            self.ticket_id, self.request_id, *self.granted_scope.canonical_fields(),
            self.expires_at, len(self.regulator_shares),
        ]
        for record_id in sorted(self.regulator_shares):
            flat.append(record_id)
            flat.append(self.regulator_shares[record_id].share)
        return crypto.canon_encode("TKTv1", flat)


@dataclass
class SubmitResult:
    decision: Decision
    ticket: AccessTicket | None
    event_id: str

    def __str__(self) -> str:
        return str(self.decision)


class Gate:
    def __init__(self, regulator: SigningIdentity, controller: SigningIdentity,
                 registry: Registry, share_store: RegulatorShareStore,
                 silos: Mapping[str, Silo], event_log: EventLog, clock: Clock,
                 registry_vid_of: Callable[[str, str], str | None],
                 rand_bytes: Callable[[int], bytes] | None = None,
                 lock: threading.RLock | None = None):
        self.regulator = regulator
        self.controller = controller
        self.registry = registry
        self.share_store = share_store
        self.silos = silos
        self.event_log = event_log
        self.clock = clock
        self.registry_vid_of = registry_vid_of
        self._rand = rand_bytes or secrets.token_bytes
        self._seen_nonces: dict[bytes, int] = {}  # nonce -> its request's timestamp
        self._request_uses: dict[str, int] = {}
        self._consumed: dict[tuple[str, str], int] = {}  # (ticket, record) -> ticket expiry
        self.tickets: dict[str, AccessTicket] = {}
        self.plaintext_releases = 0
        self.wire_capture: list[bytes] | None = None
        self._lock = lock or threading.RLock()

    # -- helpers ---------------------------------------------------------------

    def _event_id_for(self, request_id: str) -> str:
        uses = self._request_uses.get(request_id, 0) + 1
        self._request_uses[request_id] = uses
        return request_id if uses == 1 else f"{request_id}#{uses}"

    def _capture(self, blob: bytes) -> None:
        if self.wire_capture is not None:
            self.wire_capture.append(blob)

    def _summary(self, request: AccessRequest, payload: bytes, scope: Scope | None,
                 decision: Decision) -> str:
        auth = self.registry.authorizations.get(request.auth_id)
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
        identify no subject, so nobody is notified.
        """
        with self._lock:
            now = self.clock.now()
            scope = self._validate_structure(request)
            payload = request.signing_payload()
            self._capture(payload)

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

            for vid in request.subject_vids:
                registry_vid = self.registry_vid_of(request.domain, vid) or ""
                decision = self.registry.check(request.auth_id, request.content_digest, scope,
                                               request.purpose_code, registry_vid, now)
                if not decision.allowed:
                    return self._deny(request, payload, scope, decision.reason)

            shares: dict[str, KeyShare] = {}
            if request.operation == "read":
                silo = self.silos.get(request.domain)
                if silo is not None:
                    for vid in request.subject_vids:
                        for record_id in silo.records_for_vid(vid):
                            share = self.share_store.get(record_id)
                            if share is not None:
                                shares[record_id] = share
            ticket = AccessTicket(
                ticket_id="T" + self._rand(6).hex(),
                request_id=request.request_id,
                granted_scope=scope,
                regulator_shares=shares,
                expires_at=now + TICKET_TTL_SECONDS,
                signature=b"",
            )
            ticket_payload = ticket.signing_payload()
            ticket.signature = crypto.sign(self.regulator, ticket_payload)
            self.tickets[ticket.ticket_id] = ticket
            self._capture(ticket_payload)

            decision = Decision.allow()
            event_id = self._event_id_for(request.request_id)
            self.event_log.record(EventKind.ACCESS_ALLOWED, event_id,
                                  sorted(set(request.subject_vids)),
                                  self._summary(request, payload, scope, decision))
            return SubmitResult(decision=decision, ticket=ticket, event_id=event_id)

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
            self.event_log.record(EventKind.PROTOCOL_ERROR, self._event_id_for(request.request_id or "R?"),
                                  [], f"malformed request: {reason}")
            raise ProtocolError(reason)
        return scope

    def _deny(self, request: AccessRequest, payload: bytes, scope: Scope,
              reason: DenyReason) -> SubmitResult:
        decision = Decision.deny(reason)
        event_id = self._event_id_for(request.request_id)
        self.event_log.record(EventKind.ACCESS_DENIED, event_id,
                              sorted(set(request.subject_vids)),
                              self._summary(request, payload, scope, decision))
        return SubmitResult(decision=decision, ticket=None, event_id=event_id)

    # -- open --------------------------------------------------------------------

    def open_record(self, ticket: AccessTicket, record_id: str,
                    controller_share: KeyShare) -> dict[str, str]:
        """Combine both shares and release the record's fields, once.

        Only fields whose class falls inside the ticket's granted scope are
        returned. Every failure mode is logged.
        """
        with self._lock:
            def refuse(exc_type, message: str):
                self.event_log.record(EventKind.OPEN_DENIED, self.event_log.next_event_id("O"),
                                      [], f"open {record_id} refused: {message}")
                return exc_type(message)

            try:
                ticket_ok = crypto.verify(self.regulator, ticket.signing_payload(), ticket.signature)
            except SignatureError:
                ticket_ok = False
            if not ticket_ok:
                raise refuse(TicketInvalid, "ticket signature does not verify")
            if self.clock.now() >= ticket.expires_at:
                raise refuse(TicketExpired, f"ticket {ticket.ticket_id} expired")
            if (ticket.ticket_id, record_id) in self._consumed:
                raise refuse(TicketConsumed, f"ticket {ticket.ticket_id} already used for {record_id}")
            if record_id not in ticket.regulator_shares:
                raise refuse(ScopeViolation, f"record {record_id} outside ticket scope")

            silo = self.silos.get(ticket.granted_scope.domain)
            if silo is None:
                raise refuse(NotFound, f"no silo for domain {ticket.granted_scope.domain}")
            try:
                ciphertext = silo.fetch_ciphertext(record_id)
                vid = silo.vid_of(record_id)
            except NotFound:
                raise refuse(NotFound, f"record {record_id} no longer exists")

            key = crypto.combine_shares(controller_share, ticket.regulator_shares[record_id])
            try:
                plaintext = crypto.aead_decrypt(
                    key, crypto.record_nonce(record_id), ciphertext,
                    record_aad(record_id, vid, silo.domain),
                )
            except DecryptFailure:
                raise refuse(DecryptFailure, f"record {record_id} failed to decrypt")

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
        manifest = self.registry.manifests.get(program_id)
        if manifest is None:
            raise NotFound(f"program {program_id} has no manifest")
        return manifest.content_digest == content_digest

    def consumed_count(self) -> int:
        return len(self._consumed)

    # -- persistence -----------------------------------------------------------------

    def state_dict(self) -> dict:
        now = self.clock.now()
        live = {tid: t for tid, t in self.tickets.items() if t.expires_at > now}
        return {
            # a nonce whose request is past the freshness window is
            # refused as stale on replay, so it need not be kept
            "nonces": {n.hex(): ts for n, ts in self._seen_nonces.items()
                       if ts + FRESHNESS_WINDOW_SECONDS >= now},
            "request_uses": dict(self._request_uses),
            # open_record refuses an expired ticket before it looks at
            # the marks, so only a live ticket's marks are kept
            "consumed": sorted([t, r, exp] for (t, r), exp in self._consumed.items()
                               if exp > now),
            "tickets": [
                {**store.to_doc(t),
                 "regulator_shares": {rid: s.share.hex() for rid, s in t.regulator_shares.items()}}
                for t in live.values()
            ],
        }

    def load_state(self, state: dict) -> None:
        self._seen_nonces = {bytes.fromhex(n): ts for n, ts in state.get("nonces", {}).items()}
        self._request_uses = dict(state.get("request_uses", {}))
        self._consumed = {(t, r): exp for t, r, exp in state.get("consumed", [])}
        for t in state.get("tickets", []):
            ticket = store.from_doc(AccessTicket, t, regulator_shares={
                rid: KeyShare(bytes.fromhex(h), Holder.REGULATOR)
                for rid, h in t["regulator_shares"].items()})
            self.tickets[ticket.ticket_id] = ticket

    def drop_records_from_tickets(self, record_ids: set[str]) -> None:
        """Purge stored tickets that referenced now-deleted records."""
        doomed = [tid for tid, t in self.tickets.items()
                  if record_ids & set(t.regulator_shares)]
        for tid in doomed:
            del self.tickets[tid]
