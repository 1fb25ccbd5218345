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

A save writes ``regulator.log``, ``controller.log``, ``events.log`` and
``counters.json``, then, last, ``checkpoint.json``: for each of the three
record streams the SHA-256 of the bytes just written, the record count
and, for a ledger, its head hash, under an HMAC keyed from the controller's
seed. A load holds each stream whose bytes match a checkpoint that
verifies as those bytes, undecoded, and takes its tip from the checkpoint;
any other file (no checkpoint, a wrong MAC or digest, a crash before the
checkpoint was written) is read strictly, as it always was. Only
``entries``, ``historical_heads`` and ``payloads`` decode held bytes, on
first use, so a load and save cost O(change) and not O(history).
"""

from __future__ import annotations

import enum
import hmac
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


CHECKPOINT = "checkpoint.json"
_CHECKPOINT_KEY_TAG = "CKPTKEYv1"
_CHECKPOINT_TAG = "CKPTv1"


@dataclass(frozen=True)
class FileMark:
    """What the checkpoint records of one record stream the last save wrote."""

    sha256: bytes
    count: int
    head: bytes  # a ledger's head hash; empty for events.log


def _hold(path: Path, mark: FileMark | None) -> store.Held | None:
    """The file at ``path`` as held bytes, if they are the records ``mark`` vouches for.

    An empty stream is read strictly instead: there is nothing to skip, and
    a held ledger must have a last entry for ``Ledger.head``.
    """
    if mark is None or mark.count == 0 or not path.exists():
        return None
    data = path.read_bytes()
    return store.Held(path, data, mark.count) if crypto.sha256(data) == mark.sha256 else None


class EventLog:
    """Paired ledgers + payload store, behind one record() call."""

    def __init__(self, regulator: SigningIdentity, controller: SigningIdentity, clock: Clock):
        self.regulator_ledger = Ledger(owner=regulator, counterpart=controller)
        self.controller_ledger = Ledger(owner=controller, counterpart=regulator)
        self.clock = clock
        self._held_payloads: store.Held | None = None  # the first payloads, not yet decoded
        self._payloads: list[bytes] = []  # every payload recorded after the held ones
        self._counters: dict[str, int] = {}
        self._checkpoint_key = crypto.seed_key(controller, _CHECKPOINT_KEY_TAG)

    @property
    def payloads(self) -> list[bytes]:
        """Every recorded payload, in record order; held ones decode strictly on first use."""
        if self._held_payloads is not None:
            payloads = list(self._held_payloads.records(bytes)) + self._payloads
            self._held_payloads, self._payloads = None, payloads
        return self._payloads

    def _ledgers(self) -> tuple[tuple[str, Ledger], ...]:
        return (("regulator.log", self.regulator_ledger),
                ("controller.log", self.controller_ledger))

    def next_event_id(self, prefix: str) -> str:
        self._counters[prefix] = self._counters.get(prefix, 0) + 1
        return f"{prefix}{self._counters[prefix]:05d}"

    def record(self, kind: EventKind, event_id: str, subjects: list[str], summary: str) -> bytes:
        """Commit one event to both ledgers.

        Returns the payload digest. The paired append hands each side the
        other's last signed entry, whose head hash becomes the
        cross-commitment, so an honest pair always cross-verifies.
        """
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
        by_digest = {crypto.sha256(p): p for p in self.payloads}
        out = []
        for entry in ledger.entries:
            payload = by_digest.get(entry.payload_digest)
            if payload is None:
                raise EncodingError(f"no payload stored for ledger entry {entry.seq}")
            out.append(Event.from_canonical(payload))
        return out

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
        """Write the ledger pair, events.log and counters.json, then the
        checkpoint: last, so it never vouches for a file not yet written."""
        marks = {}
        for name, ledger in self._ledgers():
            data = ledger.file_bytes()
            store.write_atomic(directory / name, data)
            last_seq, head = ledger.tip()
            marks[name] = FileMark(crypto.sha256(data), last_seq + 1, head)
        held = self._held_payloads
        data = store.encode_records(self._payloads)
        count = len(self._payloads)
        if held is not None:
            data, count = held.data + data, held.count + count
        store.write_atomic(directory / "events.log", data)
        marks["events.log"] = FileMark(crypto.sha256(data), count, b"")
        store.write_json(directory / "counters.json", self._counters)
        files = {name: store.to_doc(mark) for name, mark in marks.items()}
        store.write_json(directory / CHECKPOINT, {"files": files, "mac": self._mac(files).hex()})

    def load(self, directory: Path) -> None:
        """Hold each file the checkpoint vouches for; read any other strictly."""
        marks = self._read_checkpoint(directory / CHECKPOINT)
        for name, ledger in self._ledgers():
            held = _hold(directory / name, marks.get(name))
            if held is None:
                ledger.load(directory / name)
            else:
                ledger.hold(held, marks[name].head)
        self.regulator_ledger.note_counterpart_head(*self.controller_ledger.tip())
        self.controller_ledger.note_counterpart_head(*self.regulator_ledger.tip())
        self._held_payloads = _hold(directory / "events.log", marks.get("events.log"))
        if self._held_payloads is None:
            self._payloads = store.read_records(directory / "events.log", bytes)
        self._counters.update(store.read_json(directory / "counters.json") or {})

    def _mac(self, files: dict) -> bytes:
        return crypto.prf_derive(self._checkpoint_key, _CHECKPOINT_TAG, store.json_bytes(files))

    def _read_checkpoint(self, path: Path) -> dict[str, FileMark]:
        """The file marks of the checkpoint at ``path``; none unless its MAC verifies."""
        try:
            doc = store.read_json(path)
            files, mac = doc["files"], bytes.fromhex(doc["mac"])
        except (ValueError, TypeError, KeyError):  # no file reads as None
            return {}
        if not hmac.compare_digest(mac, self._mac(files)):
            return {}
        return {name: store.from_doc(FileMark, mark) for name, mark in files.items()}
