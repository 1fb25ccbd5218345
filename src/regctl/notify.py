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
identifier.

The view holds, per vid, only (pair number, event) references: the events
of one cohort share one ``Event``. The first read after a load decodes
each payload of ``events.log`` once, and a later read only the payloads
recorded since; all decode, or none show. A ``Notification`` is built
only for what a read returns: the fresh part of a fetch, one vid's
mailbox, or every mailbox for ``all_notifications``."""

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


def _notification(number: int, vid: str, event: Event) -> Notification:
    """The notification of pair ``number``: ``event`` shown to ``vid``."""
    return Notification(f"N{number:06d}", vid, event.event_id, NOTIFY_OUTCOME[event.kind],
                        event.summary, event.timestamp)


class Notifier:
    files = ("notifications.json",)

    def __init__(self, event_log: EventLog, lock: threading.RLock):
        self._event_log = event_log
        self._boxes: dict[str, list[tuple[int, Event]]] = {}  # vid -> (pair number, event)
        self._shown = 0  # payloads of the log already shown in the mailboxes
        self._total = 0  # notifications in the mailboxes
        self._delivered: dict[str, int] = {}
        self._unchecked: Path | None = None  # the file of delivered counts not yet checked
        self.changed = False  # a count moved since the file was read or written
        self._lock = lock

    def enqueue(self, event: Event) -> None:
        """Show ``event`` in its subjects' mailboxes, if it is one they must learn about."""
        if NOTIFY_OUTCOME[event.kind] is not None:
            boxes, number = self._boxes, self._total
            for vid in event.subjects:
                number += 1
                boxes.setdefault(vid, []).append((number, event))
            self._total = number

    def _view(self) -> dict[str, list[tuple[int, Event]]]:
        """Every mailbox, once the events recorded since the last read are shown
        (after a load, every event of the log)."""
        events = self._event_log.events(self._shown)  # all decode, or none show
        for event in events:
            self.enqueue(event)
        self._shown += len(events)
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
                self.changed = True
            return [_notification(number, subject_vid, event) for number, event in fresh]

    def mailbox(self, subject_vid: str) -> list[Notification]:
        """Every notification of ``subject_vid``, delivered or not, in record order."""
        with self._lock:
            return [_notification(number, subject_vid, event)
                    for number, event in self._view().get(subject_vid, [])]

    def all_notifications(self) -> list[Notification]:
        """Every notification of every mailbox, in record order."""
        with self._lock:
            shown = sorted((number, vid, event)
                           for vid, box in self._view().items() for number, event in box)
            return [_notification(*pair) for pair in shown]

    def pairs(self) -> Counter[tuple[str, str]]:
        """How many notifications of each (subject_vid, request_id) pair the mailboxes hold."""
        with self._lock:
            return Counter((vid, event.event_id)
                           for vid, box in self._view().items() for _, event in box)

    # -- persistence -----------------------------------------------------------

    def save(self) -> dict[str, bytes]:
        self.changed = False
        return {self.files[0]: store.json_bytes(self._delivered)}

    def load(self, files: store.Files) -> None:
        """Load ``files`` into a notifier that has shown nothing yet."""
        ((path, data),) = files
        self._delivered = store.parse_counts(path, data, "delivered count by vid")
        self._unchecked = path
