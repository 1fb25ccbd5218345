"""Subject notification mailboxes.

Every outcome that touches a person's data is queued to that person's
virtual-id mailbox; delivery is pull-based (the subject fetches) so tests
can observe exactly what was communicated and when. Mailboxes are keyed by
vid, never by any real-world identifier.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from pathlib import Path

from . import store
from .errors import DuplicateNotification


class Outcome(enum.Enum):
    ALLOWED = "Allowed"
    DENIED = "Denied"
    DELETED = "Deleted"
    CONSENT_RENEWAL_REQUESTED = "ConsentRenewalRequested"


@dataclass
class Notification:
    notif_id: str
    subject_vid: str
    request_id: str
    outcome: Outcome
    summary: str
    created_at: int
    delivered: bool = False


class Notifier:
    def __init__(self, lock: threading.RLock | None = None):
        self._by_subject: dict[str, list[Notification]] = {}
        self._seen: set[tuple[str, str]] = set()
        self._counter = 0
        self._lock = lock or threading.RLock()

    def enqueue(self, subject_vid: str, request_id: str, outcome: Outcome, summary: str, now: int) -> Notification:
        key = (subject_vid, request_id)
        if key in self._seen:
            raise DuplicateNotification(f"already notified {subject_vid} about {request_id}")
        self._counter += 1
        notif = Notification(
            notif_id=f"N{self._counter:06d}",
            subject_vid=subject_vid,
            request_id=request_id,
            outcome=outcome,
            summary=summary,
            created_at=now,
        )
        self._seen.add(key)
        self._by_subject.setdefault(subject_vid, []).append(notif)
        return notif

    def fetch(self, subject_vid: str) -> list[Notification]:
        """Return undelivered notifications in enqueue order and mark them delivered."""
        with self._lock:
            box = self._by_subject.get(subject_vid, [])
            fresh = [n for n in box if not n.delivered]
            for n in fresh:
                n.delivered = True
            return fresh

    def all_notifications(self) -> list[Notification]:
        with self._lock:
            out = []
            for box in self._by_subject.values():
                out.extend(box)
            out.sort(key=lambda n: n.notif_id)
            return out

    def pairs(self) -> set[tuple[str, str]]:
        """Every (subject_vid, request_id) pair ever enqueued."""
        with self._lock:
            return set(self._seen)

    # -- persistence -----------------------------------------------------------

    def save(self, path: Path) -> None:
        store.write_json(path, [store.to_doc(n) for n in self.all_notifications()])

    def load(self, path: Path) -> None:
        for r in store.read_json(path) or []:
            notif = store.from_doc(Notification, r)
            self._by_subject.setdefault(notif.subject_vid, []).append(notif)
            self._seen.add((notif.subject_vid, notif.request_id))
            self._counter = max(self._counter, int(notif.notif_id[1:]))
