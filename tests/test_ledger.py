"""Audit ledgers: chaining, cross-commitment, tamper evidence, persistence."""

from __future__ import annotations

import base64

import pytest

from regctl import Deployment, cross_verify
from regctl.crypto import ZERO_HASH, sha256
from regctl.errors import EncodingError, StaleCrossHead
from regctl.events import EventKind, EventLog
from regctl.ledger import (
    Ledger,
    LedgerHead,
    parse_ledger_lines,
    verify_ledger_files,
)
from regctl.notify import Notifier


def fill(dep: Deployment, n: int) -> None:
    for i in range(n):
        dep.event_log.record(EventKind.VAULT_ROUTE, f"E{i:04d}", [], f"event {i}")


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
    fake = LedgerHead(seq=7, head_hash=b"\x05" * 32, signature=b"\x00" * 64)
    with pytest.raises(StaleCrossHead):
        pair.event_log.regulator_ledger.append(sha256(b"x"), fake, timestamp=1)


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
    from dataclasses import replace
    tampered = Ledger(owner=ledger.owner, counterpart=ledger.counterpart)
    entries = list(ledger.entries)
    entries[2] = replace(entries[2], payload_digest=sha256(b"swapped"))
    tampered.load_entries(entries)
    assert tampered.verify_chain() == 2


# -- file format ------------------------------------------------------------------

def test_persisted_ledger_reloads_and_verifies(pair, tmp_path):
    fill(pair, 10)
    path = tmp_path / "reg.log"
    pair.event_log.regulator_ledger.save(path)
    entries, bad = parse_ledger_lines(path.read_text())
    assert bad is None
    reloaded = Ledger(owner=pair.regulator, counterpart=pair.controller)
    reloaded.load_entries(entries)
    assert reloaded.verify_chain() is None
    assert reloaded.entries == pair.event_log.regulator_ledger.entries


def test_non_canonical_base64_line_is_flagged(pair, tmp_path):
    fill(pair, 3)
    path = tmp_path / "reg.log"
    pair.event_log.regulator_ledger.save(path)
    lines = path.read_text().splitlines()
    decoded = base64.b64decode(lines[1])
    lines[1] = base64.b64encode(decoded).decode().lower()  # same-ish, wrong text
    _, bad = parse_ledger_lines("".join(l + "\n" for l in lines))
    assert bad == 1


def test_missing_trailing_newline_is_flagged(pair, tmp_path):
    fill(pair, 3)
    path = tmp_path / "reg.log"
    pair.event_log.regulator_ledger.save(path)
    _, bad = parse_ledger_lines(path.read_text()[:-1])
    assert bad is not None


@pytest.mark.parametrize("damage", ["stray characters", "no final newline"])
def test_events_log_reload_is_strict(pair, tmp_path, damage):
    fill(pair, 3)
    pair.event_log.save(tmp_path)
    path = tmp_path / "events.log"
    lines = path.read_text().split("\n")
    if damage == "stray characters":
        lines[1] = lines[1][:8] + "!*" + lines[1][8:]  # a lax decoder skips them
        bad = 1
    else:
        lines.pop()
        bad = 2
    path.write_text("\n".join(lines))

    reloaded = EventLog(pair.regulator, pair.controller, Notifier(), pair.clock)
    with pytest.raises(EncodingError, match=f"at line {bad}$"):
        reloaded.load(tmp_path)


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
