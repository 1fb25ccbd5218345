"""Subject notification mailboxes, a view of the event log.

A vid's mailbox shows, in record order, each logged event naming it that
``NOTIFY_OUTCOME`` says a person must learn about; notification ``N%06d``
is the n-th (event, subject) pair of the log. Two events may share an id
(a replayed request's denial carries the request id of the original), or
even be the same bytes (two such denials in one tick), so a mailbox can
hold one (subject, event id) pair more than once, and ``pairs`` counts it
that often. Delivery is pull-based, and
a fetch delivers every fresh notification, so only a delivered count per
vid is stored. Mailboxes are keyed by vid, never by any real-world
identifier."""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import store
from .errors import EncodingError
from .events import NOTIFY_OUTCOME, Event, EventLog, Outcome


@dataclass(frozen=True, slots=True)
class Notification:
    notif_id: str
    subject_vid: str
    request_id: str
    outcome: Outcome
    summary: str
    created_at: int


class Notifier:
    def __init__(self, event_log: EventLog, lock: threading.RLock):
        self._event_log = event_log
        self._boxes: dict[str, list[Notification]] = {}
        self._shown = 0  # payloads of the log already shown in the mailboxes
        self._total = 0  # notifications in the mailboxes
        self._delivered: dict[str, int] = {}
        self._unchecked: Path | None = None  # the file of delivered counts not yet checked
        self._lock = lock

    def enqueue(self, event: Event) -> None:
        """Show ``event`` in its subjects' mailboxes, if it is one they must learn about."""
        outcome = NOTIFY_OUTCOME[event.kind]
        if outcome is not None:
            for vid in event.subjects:
                self._total += 1
                self._boxes.setdefault(vid, []).append(Notification(
                    f"N{self._total:06d}", vid, event.event_id, outcome, event.summary,
                    event.timestamp))

    def _view(self) -> dict[str, list[Notification]]:
        """Every mailbox, once the events recorded since the last read are shown
        (after a load, every event of the log)."""
        payloads = self._event_log.payloads
        for event in [Event.from_canonical(p) for p in payloads[self._shown:]]:  # all decode, or none show
            self.enqueue(event)
        self._shown = len(payloads)
        if self._unchecked is not None:
            for vid, count in self._delivered.items():
                if count > len(self._boxes.get(vid, ())):
                    raise EncodingError(f"{self._unchecked}: {count} delivered to {vid}, "
                                        "more than its mailbox holds")
            self._unchecked = None
        return self._boxes

    def fetch(self, subject_vid: str) -> list[Notification]:
        """Return undelivered notifications in record order and mark them delivered."""
        with self._lock:
            box = self._view().get(subject_vid, [])
            fresh = box[self._delivered.get(subject_vid, 0):]
            if fresh:
                self._delivered[subject_vid] = len(box)
            return fresh

    def all_notifications(self) -> list[Notification]:
        with self._lock:
            return sorted((n for box in self._view().values() for n in box),
                          key=lambda n: n.notif_id)

    def pairs(self) -> Counter[tuple[str, str]]:
        """How many notifications of each (subject_vid, request_id) pair the mailboxes hold."""
        with self._lock:
            return Counter((n.subject_vid, n.request_id)
                           for box in self._view().values() for n in box)

    # -- persistence -----------------------------------------------------------

    def save(self, path: Path) -> None:
        store.write_json(path, self._delivered)

    def load(self, path: Path) -> None:
        """Read the delivered counts into a notifier that has shown nothing yet."""
        self._delivered = store.read_counts(path, "delivered count by vid")
        self._unchecked = path
