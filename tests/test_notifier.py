"""Notification mailboxes: a view of the event log, with pull delivery."""

from __future__ import annotations

import base64
import json
import re
from collections import Counter

import pytest

from regctl import Deployment, store
from regctl.errors import EncodingError
from regctl.events import NOTIFY_OUTCOME, Event, EventKind
from regctl.notify import Outcome

from conftest import count_calls


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


def test_notifications_past_n999999_come_in_record_order(dep):
    dep.notifier._total = 999_997  # as after 999 997 earlier (event, subject) pairs
    for request_id in ("q1", "q2", "q3"):
        record(dep, request_id, ["v1"])
    ids = ["N999998", "N999999", "N1000000"]
    assert [n.notif_id for n in dep.notifier.all_notifications()] == ids
    assert [n.notif_id for n in dep.notifier.mailbox("v1")] == ids
    assert [n.notif_id for n in dep.notifier.fetch("v1")] == ids


# -- the view against a reference built from the ledger ------------------------------

def _oracle_state(tmp_path) -> Deployment:
    """A saved deployment whose log holds 100-subject events, a subject named
    twice in one event, events no one is notified of and a delivered count."""
    dep = Deployment(seed=73, state_dir=tmp_path / "state")
    cohort = [f"c{i:03d}" for i in range(100)]
    record(dep, "q1", cohort)
    record(dep, "q2", ["v1", "v2"], EventKind.OPEN_OK)
    dep.clock.advance(2)
    record(dep, "q3", ["v1", "c007", "v1"], EventKind.ACCESS_DENIED, "purpose=Y")
    assert len(dep.notifier.fetch("v1")) == 2  # the view is built, and v1 has a count
    record(dep, "q4", cohort[::-1], EventKind.EXTENSION)
    record(dep, "q5", ["v2"], EventKind.DELETION, "obligation")
    record(dep, "q6", [], EventKind.PROTOCOL_ERROR)
    record(dep, "q3", ["c007"], EventKind.ACCESS_DENIED, "purpose=Y")  # a replay's denial
    dep.save()
    return dep


def _reference(dep: Deployment) -> dict[str, list[tuple]]:
    """Each vid's notifications as (id, vid, request id, outcome, summary, created_at),
    numbered over the (event, subject) pairs of the regulator ledger's events."""
    boxes: dict[str, list[tuple]] = {}
    number = 0
    for event in dep.event_log.events_from_ledger(dep.event_log.regulator_ledger):
        outcome = NOTIFY_OUTCOME[event.kind]
        if outcome is not None:
            for vid in event.subjects:
                number += 1
                boxes.setdefault(vid, []).append((f"N{number:06d}", vid, event.event_id, outcome,
                                                  event.summary, event.timestamp))
    return boxes


def _fields(notifications) -> list[tuple]:
    return [(n.notif_id, n.subject_vid, n.request_id, n.outcome, n.summary, n.created_at)
            for n in notifications]


def _assert_matches_reference(dep: Deployment, delivered: dict[str, int]) -> None:
    reference = _reference(dep)
    assert len(reference) == 102 and len(reference["v1"]) == 2
    assert _fields(dep.notifier.all_notifications()) == sorted(
        (n for box in reference.values() for n in box), key=lambda n: int(n[0][1:]))
    assert dep.notifier.pairs() == dep.event_log.expected_notification_pairs()
    for vid, box in reference.items():
        assert _fields(dep.notifier.mailbox(vid)) == box
        assert _fields(dep.notifier.fetch(vid)) == box[delivered.get(vid, 0):]
        assert dep.notifier.fetch(vid) == []


@pytest.mark.parametrize("path", ["warm", "reload with checkpoint", "reload without checkpoint"])
def test_every_mailbox_equals_the_reference_built_from_the_ledger(tmp_path, monkeypatch, path):
    saved = _oracle_state(tmp_path)
    state = tmp_path / "state"
    if path == "reload without checkpoint":
        (state / "ledgers" / "checkpoint.json").unlink()
    decoded = count_calls(monkeypatch, "from_canonical", owner=Event)
    streams = count_calls(monkeypatch, "decode_records", owner=store)
    dep = saved if path == "warm" else Deployment(state_dir=state)
    assert decoded["from_canonical"] == 0  # a load decodes no payload
    # under the checkpoint a load holds the ledgers and events.log undecoded;
    # without it, it decodes all three strictly
    assert streams["decode_records"] == (3 if path == "reload without checkpoint" else 0)
    _assert_matches_reference(dep, json.loads((state / "notifications.json").read_text()))
    payloads = len(dep.event_log.payloads)
    # the view decodes each payload once: the warm one the four recorded after its
    # first read, a reloaded one all; the reference and the ledger's expected
    # pairs decode every payload each
    shown = 4 if path == "warm" else payloads
    assert decoded["from_canonical"] == shown + 2 * payloads


def test_a_view_that_meets_a_bad_payload_shows_nothing_and_raises_on_every_read(tmp_path):
    saved = _oracle_state(tmp_path)
    index, payload = 2, saved.event_log.payloads[2]
    path = tmp_path / "state" / "ledgers" / "events.log"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[index] = base64.b64encode(payload.replace(b"access-denied", b"access-denier")) + b"\n"
    path.write_bytes(b"".join(lines))
    dep = Deployment(state_dir=tmp_path / "state")
    where = re.escape(f"{path}: payload {index} "
                      "is not an event: unknown event kind b'access-denier'")
    for read in (lambda: dep.notifier.fetch("v1"), lambda: dep.notifier.fetch("v1"),
                 lambda: dep.notifier.mailbox("c001"), dep.notifier.all_notifications,
                 dep.notifier.pairs):
        with pytest.raises(EncodingError, match=f"^{where}$"):
            read()
    assert not dep.notifier.changed
    # nothing before the bad payload was shown: once it is mended in memory,
    # every mailbox holds each notification once
    dep.event_log.payloads[index] = payload
    _assert_matches_reference(dep, {"v1": 2})
