"""Audit ledgers: chaining, cross-commitment, tamper evidence, persistence."""

from __future__ import annotations

import base64

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regctl import Deployment, cross_verify
from regctl.cli import main as cli_main
from regctl.deploy import read_files
from regctl.crypto import ZERO_HASH, canon_encode, sha256
from regctl.errors import EncodingError, StaleCrossHead
from regctl.events import EventKind, EventLog
from regctl.ledger import (
    Ledger,
    LogEntry,
    parse_ledger_lines,
    verify_ledger_files,
)

from conftest import count_calls, write_files

FIELDS = ("seq", "prev_hash", "payload_digest", "cross_head", "timestamp",
          "signer_key_id", "signature")


def fill(dep: Deployment, n: int) -> None:
    for i in range(n):
        dep.event_log.record(EventKind.VAULT_ROUTE, f"E{i:04d}", [], f"event {i}")


def forge(entry: LogEntry, **changes) -> LogEntry:
    """The entry rebuilt through the field constructor, with ``changes`` applied."""
    return LogEntry(**{name: changes.get(name, getattr(entry, name)) for name in FIELDS})


@pytest.fixture
def pair():
    dep = Deployment(seed=61)
    return dep


# -- append and chain ----------------------------------------------------------

def test_first_append_is_genesis(pair):
    fill(pair, 1)
    entry = pair.event_log.regulator_ledger.entries[0]
    assert entry.seq == 0
    assert entry.prev_hash == ZERO_HASH


def test_appends_chain(pair):
    fill(pair, 2)
    ledger = pair.event_log.regulator_ledger
    assert [e.seq for e in ledger.entries] == [0, 1]
    expected_prev = ledger.historical_heads()[1]
    assert ledger.entries[1].prev_hash == expected_prev


def test_fabricated_counterpart_head_rejected(pair):
    fill(pair, 2)
    fake = forge(pair.event_log.controller_ledger.head(), signature=b"\x00" * 64)
    with pytest.raises(StaleCrossHead):
        pair.event_log.regulator_ledger.append(sha256(b"x"), fake, timestamp=1)


def test_altered_counterpart_entry_rejected(pair):
    fill(pair, 2)
    altered = forge(pair.event_log.controller_ledger.head(), payload_digest=sha256(b"other"))
    with pytest.raises(StaleCrossHead):
        pair.event_log.regulator_ledger.append(sha256(b"x"), altered, timestamp=1)


def test_own_entry_as_counterpart_head_rejected(pair):
    fill(pair, 2)
    ledger = pair.event_log.regulator_ledger
    with pytest.raises(StaleCrossHead):
        ledger.append(sha256(b"x"), ledger.head(), timestamp=1)
    # the signature leaves the signer's key id out, so that is checked apart
    relabelled = forge(pair.event_log.controller_ledger.head(), signer_key_id=ledger.owner.key_id)
    with pytest.raises(StaleCrossHead):
        ledger.append(sha256(b"x"), relabelled, timestamp=1)


def test_empty_counterpart_head_after_exchange_rejected(pair):
    fill(pair, 2)
    with pytest.raises(StaleCrossHead):
        pair.event_log.regulator_ledger.append(sha256(b"x"), None, timestamp=1)


def test_stale_counterpart_head_rejected(pair):
    old_head = pair.event_log.controller_ledger.head()
    fill(pair, 3)
    with pytest.raises(StaleCrossHead):
        pair.event_log.regulator_ledger.append(sha256(b"x"), old_head, timestamp=1)


def test_empty_ledger_verifies(pair):
    assert pair.event_log.regulator_ledger.verify_chain() is None


def test_untampered_50_entry_ledger_verifies(pair):
    fill(pair, 50)
    assert pair.event_log.regulator_ledger.verify_chain() is None
    assert pair.event_log.controller_ledger.verify_chain() is None


def test_in_memory_entry_tamper_detected(pair):
    fill(pair, 5)
    ledger = pair.event_log.regulator_ledger
    tampered = Ledger(owner=ledger.owner, counterpart=ledger.counterpart)
    entries = list(ledger.entries)
    entries[2] = forge(entries[2], payload_digest=sha256(b"swapped"))
    tampered.load_entries(entries)
    assert tampered.verify_chain() == 2


# -- entry layout -----------------------------------------------------------------

_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_hash = st.binary(min_size=32, max_size=32)


@given(st.tuples(_int64, _hash, _hash, _hash, _int64, st.text(max_size=40),
                 st.binary(min_size=64, max_size=64)))
@settings(max_examples=200)
def test_entry_is_its_canonical_bytes(values):
    fields = dict(zip(FIELDS, values))
    entry = LogEntry(**fields)
    assert entry.canonical == canon_encode("LOGv1", list(values))
    assert entry.signing_payload() == canon_encode("LOGv1", list(values[:5]))
    assert {name: getattr(entry, name) for name in FIELDS} == fields
    assert LogEntry.from_canonical(entry.canonical) == entry


_VALID = [7, b"p" * 32, b"d" * 32, b"c" * 32, 1234, "controller-1", b"s" * 64]


@pytest.mark.parametrize("tag, fields", [
    ("LOGv2", _VALID),
    ("LOGv1", _VALID[:6]),
    ("LOGv1", _VALID + [b""]),
    ("LOGv1", _VALID[:1] + [b"p" * 31] + _VALID[2:]),
    ("LOGv1", _VALID[:6] + [b"s" * 63]),
    ("LOGv1", [b"\x00" * 7] + _VALID[1:]),
    ("LOGv1", _VALID[:5] + [b"\xff\xfe"] + _VALID[6:]),
], ids=["wrong tag", "6 fields", "8 fields", "31-byte hash", "63-byte signature",
        "7-byte int", "key id not UTF-8"])
def test_from_canonical_rejects_malformed_entries(tag, fields):
    LogEntry.from_canonical(canon_encode("LOGv1", _VALID))  # each case changes one thing
    with pytest.raises(EncodingError):
        LogEntry.from_canonical(canon_encode(tag, fields))


@pytest.mark.parametrize("changes", [{"cross_head": b"c" * 31}, {"signature": b"s" * 65}])
def test_field_constructor_rejects_a_wrong_sized_field(changes):
    # the fields are read at fixed offsets, so a wrong size must not encode
    with pytest.raises(EncodingError):
        LogEntry(**{**dict(zip(FIELDS, _VALID)), **changes})


# -- file format ------------------------------------------------------------------

def test_persisted_ledger_reloads_and_verifies(pair, tmp_path):
    fill(pair, 10)
    path = tmp_path / "reg.log"
    pair.event_log.regulator_ledger.save(path)
    entries, bad = parse_ledger_lines(path.read_bytes())
    assert bad is None
    reloaded = Ledger(owner=pair.regulator, counterpart=pair.controller)
    reloaded.load_entries(entries)
    assert reloaded.verify_chain() is None
    assert reloaded.entries == pair.event_log.regulator_ledger.entries


def test_reload_and_save_never_re_encode_an_entry(pair, tmp_path, monkeypatch):
    fill(pair, 6)
    path = tmp_path / "reg.log"
    pair.event_log.regulator_ledger.save(path)
    calls = count_calls(monkeypatch, "canon_encode")
    reloaded = Ledger(owner=pair.regulator, counterpart=pair.controller)
    reloaded.stream.load(path, path.read_bytes(), None)  # strict: no checkpoint vouches for it
    reloaded.save(tmp_path / "again.log")
    assert calls["canon_encode"] == 0
    assert (tmp_path / "again.log").read_bytes() == path.read_bytes()


def test_non_canonical_base64_line_is_flagged(pair, tmp_path):
    fill(pair, 3)
    path = tmp_path / "reg.log"
    pair.event_log.regulator_ledger.save(path)
    lines = path.read_bytes().splitlines()
    decoded = base64.b64decode(lines[1])
    lines[1] = base64.b64encode(decoded).lower()  # same-ish, wrong text
    _, bad = parse_ledger_lines(b"".join(l + b"\n" for l in lines))
    assert bad == 1


def test_missing_trailing_newline_is_flagged(pair, tmp_path):
    fill(pair, 3)
    path = tmp_path / "reg.log"
    pair.event_log.regulator_ledger.save(path)
    _, bad = parse_ledger_lines(path.read_bytes()[:-1])
    assert bad is not None


@pytest.mark.parametrize("damage", ["stray characters", "no final newline"])
def test_events_log_reload_is_strict(pair, tmp_path, damage):
    fill(pair, 3)
    write_files(tmp_path, pair.event_log.save())
    path = tmp_path / "ledgers" / "events.log"
    lines = path.read_text().split("\n")
    if damage == "stray characters":
        lines[1] = lines[1][:8] + "!*" + lines[1][8:]  # a lax decoder skips them
        bad = 1
    else:
        lines.pop()
        bad = 2
    path.write_text("\n".join(lines))

    reloaded = EventLog(pair.regulator, pair.controller, pair.clock)
    with pytest.raises(EncodingError, match=f"at line {bad}$"):
        reloaded.load(read_files(tmp_path, reloaded.files))


def test_events_log_payloads_pair_with_ledger_entries_by_position(pair, tmp_path):
    fill(pair, 3)
    write_files(tmp_path, pair.event_log.save())
    path = tmp_path / "ledgers" / "events.log"
    lines = path.read_text().splitlines(keepends=True)
    lines[0], lines[1] = lines[1], lines[0]
    path.write_text("".join(lines))

    reloaded = EventLog(pair.regulator, pair.controller, pair.clock)
    reloaded.load(read_files(tmp_path, reloaded.files))
    with pytest.raises(EncodingError, match="payload 0 is not the one its ledger entry"):
        reloaded.events_from_ledger(reloaded.regulator_ledger)
    path.write_text("".join(lines[1:]))
    reloaded = EventLog(pair.regulator, pair.controller, pair.clock)
    reloaded.load(read_files(tmp_path, reloaded.files))
    with pytest.raises(EncodingError, match="2 payloads for 3 ledger entries"):
        reloaded.events_from_ledger(reloaded.regulator_ledger)


def test_every_byte_mutation_of_small_ledger_file_detected(tmp_path):
    dep = Deployment(seed=62, state_dir=tmp_path / "state")
    fill(dep, 10)
    dep.save()
    reg_path = tmp_path / "state" / "ledgers" / "regulator.log"
    ctrl_path = tmp_path / "state" / "ledgers" / "controller.log"
    baseline = verify_ledger_files(reg_path, ctrl_path, dep.regulator, dep.controller)
    assert baseline.ok

    original = reg_path.read_bytes()
    step = 37  # sample positions here; the acceptance suite sweeps every byte
    for position in range(0, len(original), step):
        mutated = bytearray(original)
        mutated[position] ^= 0x01
        reg_path.write_bytes(bytes(mutated))
        check = verify_ledger_files(reg_path, ctrl_path, dep.regulator, dep.controller)
        assert not check.ok, f"mutation at byte {position} not detected"
        # the first reported failure never lies past the mutated line
        mutated_line = original[:position].count(b"\n")
        reported = check.lines[0]
        if ":" in reported:
            assert int(reported.rsplit(":", 1)[1]) <= mutated_line
    reg_path.write_bytes(original)


def test_verify_logs_hashes_each_entry_once(tmp_path, monkeypatch):
    dep = Deployment(seed=64, state_dir=tmp_path / "state")
    fill(dep, 10)
    dep.save()
    calls = count_calls(monkeypatch, "chain_hash")
    check = verify_ledger_files(tmp_path / "state" / "ledgers" / "regulator.log",
                                tmp_path / "state" / "ledgers" / "controller.log",
                                dep.regulator, dep.controller)
    assert check.lines == ["regulator_chain=ok", "controller_chain=ok", "cross=ok"]
    # verify_chain's heads serve cross_verify: one hash per entry of each ledger
    assert calls["chain_hash"] == 2 * 10


@pytest.mark.parametrize("forked, divergence", [
    ("regulator", "seq_a=1, seq_b=-1, cross head absent from second ledger"),
    ("controller", "seq_a=-1, seq_b=1, cross head absent from first ledger")])
def test_a_cross_head_the_counterpart_never_had_fails_verify_logs(tmp_path, capsys, forked,
                                                                 divergence):
    """Both chains verify and agree on every payload digest, but entry 1 of
    ``forked`` commits to the head of a fork of its counterpart."""
    state = tmp_path / "state"
    dep = Deployment(seed=65, state_dir=state)
    ledgers = {"regulator": Ledger(owner=dep.regulator, counterpart=dep.controller),
               "controller": Ledger(owner=dep.controller, counterpart=dep.regulator)}
    other = {"regulator": "controller", "controller": "regulator"}
    real = ledgers[other[forked]]
    fork = Ledger(owner=real.owner, counterpart=real.counterpart)
    for i in range(2):  # two entries, so the fork's head is newer than any exchanged
        fork.append(sha256(f"fork {i}".encode()), None, i)
    for i in range(2):
        for name, ledger in ledgers.items():
            head = fork.head() if (name, i) == (forked, 1) else ledgers[other[name]].head()
            ledger.append(sha256(f"event {i}".encode()), head, i)
    paths = [state / "ledgers" / f"{name}.log" for name in ledgers]
    for ledger, path in zip(ledgers.values(), paths):
        ledger.save(path)
    check = verify_ledger_files(*paths, dep.regulator, dep.controller)
    lines = ["regulator_chain=ok", "controller_chain=ok", f"cross=Divergence({divergence})"]
    assert (check.ok, check.lines) == (False, lines)
    capsys.readouterr()
    assert cli_main(["--state-dir", str(state), "verify-logs", *map(str, paths)]) == 1
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def test_entry_reordering_detected(pair):
    fill(pair, 6)
    ledger = pair.event_log.regulator_ledger
    for i in range(5):
        shuffled = Ledger(owner=ledger.owner, counterpart=ledger.counterpart)
        entries = list(ledger.entries)
        entries[i], entries[i + 1] = entries[i + 1], entries[i]
        shuffled.load_entries(entries)
        assert shuffled.verify_chain() is not None


def test_middle_entry_deletion_detected(pair):
    fill(pair, 6)
    ledger = pair.event_log.regulator_ledger
    for removed in range(5):  # any deletion except the last breaks the chain
        gappy = Ledger(owner=ledger.owner, counterpart=ledger.counterpart)
        gappy.load_entries(ledger.entries[:removed] + ledger.entries[removed + 1:])
        assert gappy.verify_chain() is not None
    # deleting the final entry leaves a valid shorter chain; cross-verification
    # against the counterpart is what exposes it
    truncated = Ledger(owner=ledger.owner, counterpart=ledger.counterpart)
    truncated.load_entries(ledger.entries[:-1])
    assert truncated.verify_chain() is None
    assert cross_verify(truncated, pair.event_log.controller_ledger) is not None


# -- cross verification ---------------------------------------------------------------

def test_honest_pair_cross_verifies(pair):
    fill(pair, 8)
    assert cross_verify(pair.event_log.regulator_ledger,
                        pair.event_log.controller_ledger) is None


def test_controller_truncation_detected(pair):
    fill(pair, 8)
    ledger = pair.event_log.controller_ledger
    truncated = Ledger(owner=ledger.owner, counterpart=ledger.counterpart)
    truncated.load_entries(ledger.entries[:-1])
    divergence = cross_verify(pair.event_log.regulator_ledger, truncated)
    assert divergence is not None
    assert divergence.seq_b == -1 or divergence.seq_a >= 0


def test_regulator_insertion_detected(pair):
    fill(pair, 8)
    pair.event_log.regulator_ledger.append(
        sha256(b"fabricated event never shown to the controller"),
        pair.event_log.controller_ledger.head(),
        timestamp=99,
    )
    divergence = cross_verify(pair.event_log.regulator_ledger,
                              pair.event_log.controller_ledger)
    assert divergence is not None


def test_divergence_reports_first_differing_position(pair):
    fill(pair, 4)
    other = Deployment(seed=63)
    for i in range(4):
        other.event_log.record(EventKind.VAULT_ROUTE, f"X{i:04d}", [], f"different {i}")
    divergence = cross_verify(pair.event_log.regulator_ledger,
                              other.event_log.controller_ledger)
    assert divergence is not None
    assert divergence.seq_a == divergence.seq_b == 0
