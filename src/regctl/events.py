"""Event spine: every auditable action is rendered to canonical bytes,
hash-committed to BOTH ledgers (regulator and controller) in one paired
append, and fanned out to subject mailboxes when the event kind is one a
person must learn about.

The ledgers themselves store only payload digests; the payload bytes live
in a digest-keyed store so the notification bijection can be re-derived
from a ledger alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from . import crypto, store
from .clock import Clock
from .crypto import SigningIdentity
from .errors import EncodingError
from .ledger import Ledger
from .notify import Notifier, Outcome


class EventKind(enum.Enum):
    ACCESS_ALLOWED = "access-allowed"
    ACCESS_DENIED = "access-denied"
    PROTOCOL_ERROR = "protocol-error"
    OPEN_OK = "open-ok"
    OPEN_DENIED = "open-denied"
    VAULT_RESOLVE = "vault-resolve"
    VAULT_LINK = "vault-link"
    VAULT_DENIED = "vault-denied"
    VAULT_ROUTE = "vault-route"
    DELETION = "deletion"
    EXTENSION = "extension"


# Outcome communicated to each named subject; None means the event is
# logged but carries no per-subject notification (no subject, or the
# subject already initiated / was notified at request level).
NOTIFY_OUTCOME: dict[EventKind, Outcome | None] = {
    EventKind.ACCESS_ALLOWED: Outcome.ALLOWED,
    EventKind.ACCESS_DENIED: Outcome.DENIED,
    EventKind.PROTOCOL_ERROR: None,
    EventKind.OPEN_OK: None,
    EventKind.OPEN_DENIED: None,
    EventKind.VAULT_RESOLVE: Outcome.ALLOWED,
    EventKind.VAULT_LINK: Outcome.ALLOWED,
    EventKind.VAULT_DENIED: Outcome.DENIED,
    EventKind.VAULT_ROUTE: None,
    EventKind.DELETION: Outcome.DELETED,
    EventKind.EXTENSION: Outcome.CONSENT_RENEWAL_REQUESTED,
}


@dataclass(frozen=True)
class Event:
    kind: EventKind
    event_id: str
    timestamp: int
    subjects: tuple[str, ...]
    summary: str

    def canonical_bytes(self) -> bytes:
        return crypto.canon_encode(
            "EVTv1",
            [self.kind.value, self.event_id, self.timestamp, len(self.subjects),
             *self.subjects, self.summary],
        )

    @classmethod
    def from_canonical(cls, data: bytes) -> "Event":
        tag, fields = crypto.canon_decode(data)
        if tag != "EVTv1" or len(fields) < 4:
            raise EncodingError("not an event payload")
        n = crypto.decode_int(fields[3])
        if len(fields) != 5 + n:
            raise EncodingError("event subject count mismatch")
        return cls(
            kind=EventKind(crypto.decode_str(fields[0])),
            event_id=crypto.decode_str(fields[1]),
            timestamp=crypto.decode_int(fields[2]),
            subjects=tuple(crypto.decode_str(f) for f in fields[4 : 4 + n]),
            summary=crypto.decode_str(fields[4 + n]),
        )


class EventLog:
    """Paired ledgers + payload store + notifier, behind one record() call."""

    def __init__(self, regulator: SigningIdentity, controller: SigningIdentity,
                 notifier: Notifier, clock: Clock):
        self.regulator_ledger = Ledger(owner=regulator, counterpart=controller)
        self.controller_ledger = Ledger(owner=controller, counterpart=regulator)
        self.notifier = notifier
        self.clock = clock
        self.payloads: dict[bytes, bytes] = {}
        self._counters: dict[str, int] = {}

    def next_event_id(self, prefix: str) -> str:
        self._counters[prefix] = self._counters.get(prefix, 0) + 1
        return f"{prefix}{self._counters[prefix]:05d}"

    def record(self, kind: EventKind, event_id: str, subjects: list[str], summary: str) -> bytes:
        """Commit one event to both ledgers and notify its subjects.

        Returns the payload digest. The paired append hands each side the
        other's last signed entry, whose head hash becomes the
        cross-commitment, so an honest pair always cross-verifies.
        """
        now = self.clock.now()
        event = Event(kind=kind, event_id=event_id, timestamp=now,
                      subjects=tuple(subjects), summary=summary)
        payload = event.canonical_bytes()
        digest = crypto.sha256(payload)
        self.payloads[digest] = payload
        self.regulator_ledger.append(digest, self.controller_ledger.head(), now)
        self.controller_ledger.append(digest, self.regulator_ledger.head(), now)
        outcome = NOTIFY_OUTCOME[kind]
        if outcome is not None:
            for vid in subjects:
                self.notifier.enqueue(vid, event_id, outcome, summary, now)
        return digest

    # -- derived views ---------------------------------------------------------

    def events_from_ledger(self, ledger: Ledger) -> list[Event]:
        out = []
        for entry in ledger.entries:
            payload = self.payloads.get(entry.payload_digest)
            if payload is None:
                raise EncodingError(f"no payload stored for ledger entry {entry.seq}")
            out.append(Event.from_canonical(payload))
        return out

    def expected_notification_pairs(self) -> set[tuple[str, str]]:
        """(subject, event_id) pairs the regulator ledger says must be notified."""
        pairs = set()
        for event in self.events_from_ledger(self.regulator_ledger):
            if NOTIFY_OUTCOME[event.kind] is not None:
                for vid in event.subjects:
                    pairs.add((vid, event.event_id))
        return pairs

    def access_entry_count(self, ledger: Ledger) -> int:
        kinds = {EventKind.ACCESS_ALLOWED, EventKind.ACCESS_DENIED}
        return sum(1 for e in self.events_from_ledger(ledger) if e.kind in kinds)

    # -- persistence -----------------------------------------------------------

    def save(self, directory: Path) -> None:
        self.regulator_ledger.save(directory / "regulator.log")
        self.controller_ledger.save(directory / "controller.log")
        store.write_records(directory / "events.log", self.payloads.values())
        store.write_json(directory / "counters.json", self._counters)

    def load(self, directory: Path) -> None:
        self.regulator_ledger.load(directory / "regulator.log")
        self.controller_ledger.load(directory / "controller.log")
        self.regulator_ledger.note_counterpart_head(*self.controller_ledger.tip())
        self.controller_ledger.note_counterpart_head(*self.regulator_ledger.tip())
        for payload in store.read_records(directory / "events.log", bytes):
            self.payloads[crypto.sha256(payload)] = payload
        self._counters.update(store.read_json(directory / "counters.json") or {})
