"""Notification mailboxes: fan-out, dedupe, pull delivery."""

from __future__ import annotations

import pytest

from regctl.errors import DuplicateNotification
from regctl.notify import Notifier, Outcome


@pytest.fixture
def notifier():
    return Notifier()


def test_fan_out_one_per_subject(notifier):
    for vid in ("v1", "v2", "v3"):
        notifier.enqueue(vid, "q1", Outcome.ALLOWED, "purpose=X", now=3)
    assert len(notifier.pairs()) == 3


def test_duplicate_subject_request_pair_rejected(notifier):
    notifier.enqueue("v1", "q1", Outcome.ALLOWED, "purpose=X", now=3)
    with pytest.raises(DuplicateNotification):
        notifier.enqueue("v1", "q1", Outcome.DENIED, "purpose=X", now=4)


def test_denied_outcome_carried(notifier):
    notifier.enqueue("v1", "q1", Outcome.DENIED, "purpose=X", now=3)
    assert notifier.fetch("v1")[0].outcome is Outcome.DENIED


def test_fetch_marks_delivered_and_second_fetch_is_empty(notifier):
    notifier.enqueue("v1", "q1", Outcome.ALLOWED, "a", now=1)
    assert len(notifier.fetch("v1")) == 1
    assert notifier.fetch("v1") == []
    notifier.enqueue("v1", "q2", Outcome.ALLOWED, "b", now=2)
    fresh = notifier.fetch("v1")
    assert [n.request_id for n in fresh] == ["q2"]


def test_unknown_subject_fetches_empty(notifier):
    assert notifier.fetch("v-unknown") == []


def test_fetch_order_is_enqueue_order(notifier):
    for i in range(5):
        notifier.enqueue("v1", f"q{i}", Outcome.ALLOWED, "s", now=i)
    assert [n.request_id for n in notifier.fetch("v1")] == [f"q{i}" for i in range(5)]


def test_persistence_round_trip(notifier, tmp_path):
    notifier.enqueue("v1", "q1", Outcome.ALLOWED, "s", now=1)
    notifier.fetch("v1")
    notifier.enqueue("v1", "q2", Outcome.DELETED, "t", now=2)
    path = tmp_path / "notifications.json"
    notifier.save(path)
    reloaded = Notifier()
    reloaded.load(path)
    assert reloaded.pairs() == notifier.pairs()
    assert [n.request_id for n in reloaded.fetch("v1")] == ["q2"]  # delivered state kept
    with pytest.raises(DuplicateNotification):
        reloaded.enqueue("v1", "q1", Outcome.ALLOWED, "s", now=9)
