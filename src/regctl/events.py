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
The ledgers are the commit: a save appends ``events.log`` first, so one cut
short before the ledger appends leaves payloads no entry commits to, and a
load of two ledgers of n entries each holds only the first n payloads.

The two ledgers and ``events.log`` are ``store.Stream``s: a save hands
each stream's new lines and its mark to the deployment, which appends the
lines and records the mark in its checkpoint. Only ``entries``,
``historical_heads`` and ``payloads`` decode the bytes a load kept, on
first use, so a load and save cost O(change) and not O(history). Recording
an event sets ``changed``; an unchanged log whose files still carry their
stamp is not saved. An id the log draws is its prefix and the seq of the
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


@dataclass(frozen=True, slots=True)
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
        kind = _KIND_OF.get(fields[0])
        if kind is None:
            raise EncodingError(f"unknown event kind {fields[0]!r}")
        try:  # strict UTF-8, as crypto.decode_str, in one handler for every text field
            event_id, summary = fields[1].decode(), fields[4 + n].decode()
            subjects = tuple(map(bytes.decode, fields[4 : 4 + n]))
        except UnicodeDecodeError:
            raise EncodingError("payload is not valid UTF-8") from None
        return cls(kind, event_id, crypto.decode_int(fields[2]), subjects, summary)


_KIND_OF = {kind.value.encode(): kind for kind in EventKind}  # the kind a payload field names


class EventLog:
    """Paired ledgers + payload store, behind one record() call."""

    # events.log first: a save cut short leaves the ledgers no longer than a
    # vouched events.log, so that its mark always counts as many as theirs
    files = ("ledgers/events.log", "ledgers/regulator.log", "ledgers/controller.log")

    def __init__(self, regulator: SigningIdentity, controller: SigningIdentity, clock: Clock):
        self.regulator_ledger = Ledger(owner=regulator, counterpart=controller)
        self.controller_ledger = Ledger(owner=controller, counterpart=regulator)
        self.clock = clock
        self._payloads = store.Stream(bytes, bytes)  # payload i belongs to ledger entry i
        self._payloads_path = Path(self.files[0])  # where the payloads were read from
        self.changed = False  # an event was recorded since the files were read or written

    @property
    def payloads(self) -> list[bytes]:
        """Every recorded payload, in record order; kept ones decode strictly on first use."""
        return self._payloads.records

    def next_event_id(self, prefix: str) -> str:
        """``prefix`` and the seq of the ledger entry the next ``record`` appends."""
        return f"{prefix}{len(self.regulator_ledger.stream):05d}"

    def record(self, kind: EventKind, event_id: str, subjects: list[str], summary: str) -> bytes:
        """Commit one event to both ledgers.

        Returns the payload digest. The paired append hands each side the
        other's last signed entry, whose head hash becomes the
        cross-commitment, so an honest pair always cross-verifies.
        """
        self.changed = True
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

    def events(self, start: int = 0) -> list[Event]:
        """The event of each payload from ``start`` on: all decode, or the
        first that is not an event raises EncodingError naming events.log
        and its index."""
        events: list[Event] = []
        try:
            for payload in self.payloads[start:]:
                events.append(Event.from_canonical(payload))
        except EncodingError as exc:
            raise EncodingError(f"{self._payloads_path}: payload {start + len(events)} "
                                f"is not an event: {exc}") from None
        return events

    def events_from_ledger(self, *ledgers: Ledger) -> list[Event]:
        """The event of each entry of every one of ``ledgers``: payload i of
        events.log belongs to entry i of each, and is hashed and decoded once."""
        payloads = self.payloads
        digests = list(map(crypto.sha256, payloads))
        for ledger in ledgers:
            entries = ledger.entries
            if len(entries) != len(payloads):
                raise EncodingError(f"{len(payloads)} payloads for {len(entries)} ledger entries")
            for entry, digest in zip(entries, digests):
                if digest != entry.payload_digest:
                    raise EncodingError(f"payload {entry.seq} is not the one its ledger entry "
                                        "commits to")
        return self.events()

    def expected_notification_pairs(self) -> Counter[tuple[str, str]]:
        """How often the regulator ledger says each (subject, event_id) pair must be notified."""
        return notification_pairs(self.events_from_ledger(self.regulator_ledger))

    def access_entry_count(self, ledger: Ledger) -> int:
        return access_count(self.events_from_ledger(ledger))

    # -- persistence -----------------------------------------------------------

    def save(self) -> dict[str, store.Marked]:
        """The tail of events.log and of each ledger, with its mark."""
        self.changed = False
        streams = self._payloads, self.regulator_ledger.stream, self.controller_ledger.stream
        return {name: stream.tail() for name, stream in zip(self.files, streams)}

    def load(self, files: store.Files, marks: store.Marks = {}) -> None:
        """Load ``files`` into a log that holds no event yet: a stream one of
        ``marks`` vouches for is kept undecoded, any other is decoded strictly."""
        ledgers = self.regulator_ledger.stream, self.controller_ledger.stream
        for stream, name, (path, data) in zip(ledgers, self.files[1:], files[1:]):
            stream.load(path, data, marks.get(name), "LOGv1")
        (self._payloads_path, data), mark = files[0], marks.get(self.files[0])
        if mark is not None and any(len(ledger) != mark.count for ledger in ledgers):
            mark = None  # events.log holds one payload per entry of each ledger
        self._payloads.load(self._payloads_path, data, mark)
        entries = len(ledgers[0])
        if len(ledgers[1]) == entries < len(self._payloads):
            # a save cut short after the events.log append: the ledgers are the commit
            cut = len(data) - len(data.split(b"\n", entries)[-1])
            self._payloads.load(self._payloads_path, data[:cut], mark)
        self.regulator_ledger.note_counterpart_head(*self.controller_ledger.tip())
        self.controller_ledger.note_counterpart_head(*self.regulator_ledger.tip())


def notification_pairs(events: list[Event]) -> Counter[tuple[str, str]]:
    """How often ``events`` say each (subject, event_id) pair must be notified."""
    return Counter((vid, event.event_id) for event in events
                   if NOTIFY_OUTCOME[event.kind] is not None for vid in event.subjects)


def access_count(events: list[Event]) -> int:
    """How many of ``events`` decided an access request."""
    return sum(e.kind in (EventKind.ACCESS_ALLOWED, EventKind.ACCESS_DENIED) for e in events)
