"""Notification mailboxes: a view of the event log, with pull delivery."""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest

from regctl import Deployment
from regctl.errors import EncodingError
from regctl.events import EventKind
from regctl.notify import Outcome


@pytest.fixture
def dep() -> Deployment:
    return Deployment(seed=71)


def record(dep: Deployment, event_id: str, subjects: list[str],
           kind: EventKind = EventKind.ACCESS_ALLOWED, summary: str = "purpose=X") -> None:
    dep.event_log.record(kind, event_id, subjects, summary)


def test_fan_out_one_per_subject(dep):
    record(dep, "q1", ["v1", "v2", "v3"])
    assert dep.notifier.pairs() == Counter({("v1", "q1"): 1, ("v2", "q1"): 1, ("v3", "q1"): 1})
    assert [n.notif_id for n in dep.notifier.all_notifications()] == [
        "N000001", "N000002", "N000003"]


def test_denied_outcome_carried(dep):
    dep.clock.advance(3)
    record(dep, "q1", ["v1"], EventKind.ACCESS_DENIED, "purpose=Y")
    (notification,) = dep.notifier.fetch("v1")
    assert notification.outcome is Outcome.DENIED
    assert (notification.request_id, notification.summary, notification.created_at) == (
        "q1", "purpose=Y", 3)


def test_fetch_marks_delivered_and_second_fetch_is_empty(dep):
    record(dep, "q1", ["v1"])
    assert len(dep.notifier.fetch("v1")) == 1
    assert dep.notifier.fetch("v1") == []
    record(dep, "q2", ["v1"])
    assert [n.request_id for n in dep.notifier.fetch("v1")] == ["q2"]


def test_unknown_subject_fetches_empty(dep):
    record(dep, "q1", ["v1"])
    assert dep.notifier.fetch("v-unknown") == []


def test_fetch_order_is_enqueue_order(dep):
    for i in range(5):
        record(dep, f"q{i}", ["v1"])
    assert [n.request_id for n in dep.notifier.fetch("v1")] == [f"q{i}" for i in range(5)]


# -- persistence ---------------------------------------------------------------------

def _saved(tmp_path) -> Deployment:
    """A saved deployment: v1 was delivered q1 and q2, then q3 (also for v2) arrived."""
    dep = Deployment(seed=72, state_dir=tmp_path / "state")
    record(dep, "q1", ["v1"])
    record(dep, "q2", ["v1"], EventKind.DELETION)
    dep.notifier.fetch("v1")
    record(dep, "q3", ["v1", "v2"])
    dep.save()
    return dep


def test_persistence_round_trip(tmp_path):
    saved = _saved(tmp_path)
    assert json.loads((tmp_path / "state" / "notifications.json").read_text()) == {"v1": 2}
    reloaded = Deployment(state_dir=tmp_path / "state")
    assert reloaded.notifier.all_notifications() == saved.notifier.all_notifications()
    assert [n.request_id for n in reloaded.notifier.fetch("v1")] == ["q3"]  # delivered kept
    assert [n.request_id for n in reloaded.notifier.fetch("v2")] == ["q3"]


@pytest.mark.parametrize("read_first", [True, False], ids=["view built", "view not built"])
def test_notif_ids_continue_across_save_and_load(tmp_path, read_first):
    _saved(tmp_path)
    reloaded = Deployment(state_dir=tmp_path / "state")
    if read_first:
        reloaded.notifier.pairs()
    record(reloaded, "q4", ["v2", "v3"])
    reloaded.save()
    again = Deployment(state_dir=tmp_path / "state")
    shown = [(n.notif_id, n.subject_vid, n.request_id) for n in again.notifier.all_notifications()]
    assert shown == [
        ("N000001", "v1", "q1"), ("N000002", "v1", "q2"), ("N000003", "v1", "q3"),
        ("N000004", "v2", "q3"), ("N000005", "v2", "q4"), ("N000006", "v3", "q4")]


def test_deleting_a_delivered_count_redelivers_and_loses_nothing(tmp_path):
    _saved(tmp_path)
    (tmp_path / "state" / "notifications.json").write_text("{}")
    reloaded = Deployment(state_dir=tmp_path / "state")
    assert [n.request_id for n in reloaded.notifier.fetch("v1")] == ["q1", "q2", "q3"]


def _tampered(tmp_path, doc: str) -> str:
    """Write ``doc`` as the saved state's notifications.json; the pattern of
    an error naming that file."""
    path = tmp_path / "state" / "notifications.json"
    path.write_text(doc)
    return f"^{re.escape(str(path))}: "


@pytest.mark.parametrize("doc", ['{"v1": "2"}', '{"v1": 2.0}', '{"v1": true}', '[]'],
                         ids=["string", "float", "bool", "list"])
def test_load_refuses_a_count_that_is_not_an_int(tmp_path, doc):
    _saved(tmp_path)
    where = _tampered(tmp_path, doc)
    with pytest.raises(EncodingError, match=where):
        Deployment(state_dir=tmp_path / "state")


def test_load_refuses_a_negative_count(tmp_path):
    _saved(tmp_path)
    where = _tampered(tmp_path, '{"v1": -1}')
    with pytest.raises(EncodingError, match=where + "not a non-negative integer delivered count"):
        Deployment(state_dir=tmp_path / "state")


def test_building_the_view_refuses_a_count_beyond_the_mailbox(tmp_path):
    _saved(tmp_path)
    where = _tampered(tmp_path, '{"v1": 4}')
    reloaded = Deployment(state_dir=tmp_path / "state")  # a load reads no mailbox
    with pytest.raises(EncodingError, match=where + "4 delivered to v1, more than its mailbox"):
        reloaded.notifier.fetch("v2")


def test_building_the_view_refuses_a_count_for_a_vid_without_a_mailbox(tmp_path):
    _saved(tmp_path)
    where = _tampered(tmp_path, '{"v1": 2, "v9": 1}')
    reloaded = Deployment(state_dir=tmp_path / "state")
    with pytest.raises(EncodingError, match=where + "1 delivered to v9, more than its mailbox"):
        reloaded.notifier.all_notifications()
