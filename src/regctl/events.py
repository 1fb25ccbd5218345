"""Event spine: every auditable action is rendered to canonical bytes,
hash-committed to BOTH ledgers (regulator and controller) in one paired
append. The subject mailboxes (``notify.Notifier``) are a view of the
events a person must learn about.

The ledgers themselves store only payload digests; the payload bytes live
in ``events.log``, one per ledger entry in record order, from which the
mailboxes are derived: the notification bijection checks ledger entries
against it. Event ids need not be unique (a submit's event id is its
request id, and a replay reuses it), and neither need payloads (a request
denied twice in one tick), so the log keeps every recorded payload and the
bijection counts each (subject, event id) pair with its multiplicity.

The two ledgers and ``events.log`` are ``store.Stream``s under one
checkpoint. Only ``entries``, ``historical_heads`` and ``payloads`` decode
the bytes a load kept, on first use, so a load and save cost O(change) and
not O(history). A save writes nothing while no event was recorded since
the last load or save and the four files still carry the stamp taken then
(``store.stamp``). An id the log draws is its prefix and the seq of the
ledger entry that records the event, so no id counter is kept.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import crypto, store
from .clock import Clock
from .crypto import SigningIdentity
from .errors import EncodingError
from .ledger import Ledger


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


class Outcome(enum.Enum):
    ALLOWED = "Allowed"
    DENIED = "Denied"
    DELETED = "Deleted"
    CONSENT_RENEWAL_REQUESTED = "ConsentRenewalRequested"


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
    """Paired ledgers + payload store, behind one record() call."""

    def __init__(self, regulator: SigningIdentity, controller: SigningIdentity, clock: Clock):
        self.regulator_ledger = Ledger(owner=regulator, counterpart=controller)
        self.controller_ledger = Ledger(owner=controller, counterpart=regulator)
        self.clock = clock
        self._payloads = store.Stream(bytes, bytes)  # payload i belongs to ledger entry i
        self._checkpoint_key = crypto.seed_key(controller, "CKPTKEYv1")
        self._stamp: store.Stamp | None = None  # of the files that hold this log

    @property
    def payloads(self) -> list[bytes]:
        """Every recorded payload, in record order; kept ones decode strictly on first use."""
        return self._payloads.records

    def _streams(self) -> dict[str, store.Stream]:
        return {"regulator.log": self.regulator_ledger.stream,
                "controller.log": self.controller_ledger.stream,
                "events.log": self._payloads}

    def _files(self, directory: Path) -> list[Path]:
        return [directory / name for name in (*self._streams(), store.CHECKPOINT)]

    def next_event_id(self, prefix: str) -> str:
        """``prefix`` and the seq of the ledger entry the next ``record`` appends."""
        return f"{prefix}{len(self.regulator_ledger.stream):05d}"

    def record(self, kind: EventKind, event_id: str, subjects: list[str], summary: str) -> bytes:
        """Commit one event to both ledgers.

        Returns the payload digest. The paired append hands each side the
        other's last signed entry, whose head hash becomes the
        cross-commitment, so an honest pair always cross-verifies.
        """
        self._stamp = None
        now = self.clock.now()
        event = Event(kind=kind, event_id=event_id, timestamp=now,
                      subjects=tuple(subjects), summary=summary)
        payload = event.canonical_bytes()
        digest = crypto.sha256(payload)
        self.regulator_ledger.append(digest, self.controller_ledger.head(), now)
        self.controller_ledger.append(digest, self.regulator_ledger.head(), now)
        self._payloads.append(payload)  # last: the mailboxes show only committed events
        return digest

    # -- derived views ---------------------------------------------------------

    def events_from_ledger(self, ledger: Ledger) -> list[Event]:
        """The event of each ledger entry: payload i of events.log belongs to entry i."""
        entries, payloads = ledger.entries, self.payloads
        if len(entries) != len(payloads):
            raise EncodingError(f"{len(payloads)} payloads for {len(entries)} ledger entries")
        for entry, payload in zip(entries, payloads):
            if crypto.sha256(payload) != entry.payload_digest:
                raise EncodingError(f"payload {entry.seq} is not the one its ledger entry commits to")
        return [Event.from_canonical(payload) for payload in payloads]

    def expected_notification_pairs(self) -> Counter[tuple[str, str]]:
        """How often the regulator ledger says each (subject, event_id) pair must be notified."""
        return Counter((vid, event.event_id)
                       for event in self.events_from_ledger(self.regulator_ledger)
                       if NOTIFY_OUTCOME[event.kind] is not None
                       for vid in event.subjects)

    def access_entry_count(self, ledger: Ledger) -> int:
        kinds = {EventKind.ACCESS_ALLOWED, EventKind.ACCESS_DENIED}
        return sum(1 for e in self.events_from_ledger(ledger) if e.kind in kinds)

    # -- persistence -----------------------------------------------------------

    def save(self, directory: Path) -> None:
        """Write the ledger pair and events.log under the checkpoint; nothing
        while the files still hold exactly this log."""
        files = self._files(directory)
        if store.unchanged(self._stamp, *files):
            return
        store.save_streams(directory, self._streams(), self._checkpoint_key)
        self._stamp = store.stamp(*files)

    def load(self, directory: Path) -> None:
        """Load into a log that holds no event yet: the streams the checkpoint
        vouches for are kept undecoded, any other is read strictly."""
        self._stamp = store.stamp(*self._files(directory))
        store.load_streams(directory, self._streams(), self._checkpoint_key)
        self.regulator_ledger.note_counterpart_head(*self.controller_ledger.tip())
        self.controller_ledger.note_counterpart_head(*self.regulator_ledger.tip())
