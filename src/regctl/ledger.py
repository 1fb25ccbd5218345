"""Tamper-evident append-only ledgers, held in duplicate by regulator and
controller.

Each entry is hash-chained onto its predecessor and embeds the head hash
of the counterpart ledger's last signed entry at append time
(cross-commitment), so neither party can rewrite or silently truncate
history without the other's copy exposing the divergence. The last entry
is the only commitment a ledger hands its counterpart: its signature
covers ``prev_hash``, and the head hash follows from its bytes.

File format: a ``store`` record stream of canonical entry bytes. Loading
is strict, so any byte-level tampering of a ledger file is reported even
when the change only touches encoding slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import crypto, store
from .crypto import HASH_BYTES, SIGNATURE_BYTES, ZERO_HASH, SigningIdentity
from .errors import EncodingError, SignatureError, StaleCrossHead


@dataclass(frozen=True)
class LogEntry:
    seq: int
    prev_hash: bytes
    payload_digest: bytes
    cross_head: bytes
    timestamp: int
    signer_key_id: str
    signature: bytes

    def signing_payload(self) -> bytes:
        return crypto.canon_encode(
            "LOGv1",
            [self.seq, self.prev_hash, self.payload_digest, self.cross_head, self.timestamp],
        )

    def canonical_bytes(self) -> bytes:
        return crypto.canon_encode(
            "LOGv1",
            [
                self.seq,
                self.prev_hash,
                self.payload_digest,
                self.cross_head,
                self.timestamp,
                self.signer_key_id,
                self.signature,
            ],
        )

    @classmethod
    def from_canonical(cls, data: bytes) -> "LogEntry":
        tag, fields = crypto.canon_decode(data)
        if tag != "LOGv1" or len(fields) != 7:
            raise EncodingError(f"not a ledger entry: tag={tag} fields={len(fields)}")
        entry = cls(
            seq=crypto.decode_int(fields[0]),
            prev_hash=fields[1],
            payload_digest=fields[2],
            cross_head=fields[3],
            timestamp=crypto.decode_int(fields[4]),
            signer_key_id=crypto.decode_str(fields[5]),
            signature=fields[6],
        )
        if len(entry.prev_hash) != HASH_BYTES or len(entry.payload_digest) != HASH_BYTES:
            raise EncodingError("hash field has wrong length")
        if len(entry.cross_head) != HASH_BYTES or len(entry.signature) != SIGNATURE_BYTES:
            raise EncodingError("cross head or signature has wrong length")
        return entry


@dataclass(frozen=True)
class Divergence:
    """First point at which two ledgers disagree; -1 marks a missing entry."""

    seq_a: int
    seq_b: int
    reason: str

    def __str__(self) -> str:
        return f"Divergence(seq_a={self.seq_a}, seq_b={self.seq_b}, {self.reason})"


class Ledger:
    """Single-writer hash chain. It takes no lock: callers serialise appends
    (``EventLog.record`` runs under its deployment's lock)."""

    def __init__(self, owner: SigningIdentity, counterpart: SigningIdentity):
        self.owner = owner
        self.counterpart = counterpart
        self.entries: list[LogEntry] = []
        self._heads: list[bytes] = [ZERO_HASH]  # head hash after i entries
        self._seen_counterpart_seq = -1
        self._seen_counterpart_hash = ZERO_HASH

    # -- heads ---------------------------------------------------------------

    def head(self) -> LogEntry | None:
        """The last signed entry, the commitment handed to the counterpart."""
        return self.entries[-1] if self.entries else None

    def tip(self) -> tuple[int, bytes]:
        """The last sequence number and head hash, unsigned."""
        return len(self.entries) - 1, self._heads[-1]

    def historical_heads(self) -> list[bytes]:
        """Every head hash this chain has ever presented, genesis included."""
        return list(self._heads)

    # -- appends -------------------------------------------------------------

    def _check_counterpart_head(self, head: LogEntry | None) -> tuple[int, bytes]:
        """Verify the counterpart's last entry; return its (seq, head hash)."""
        if head is None:
            seq, head_hash = -1, ZERO_HASH
        else:
            try:
                ok = (head.signer_key_id == self.counterpart.key_id
                      and crypto.verify(self.counterpart, head.signing_payload(), head.signature))
            except SignatureError:
                ok = False
            if not ok:
                raise StaleCrossHead("counterpart head signature does not verify")
            seq, head_hash = head.seq, crypto.chain_hash(head.prev_hash, head.canonical_bytes())
        if seq < self._seen_counterpart_seq:
            raise StaleCrossHead(
                f"counterpart head seq {seq} older than last exchanged {self._seen_counterpart_seq}"
            )
        if seq == self._seen_counterpart_seq and head_hash != self._seen_counterpart_hash:
            raise StaleCrossHead("counterpart head conflicts with last exchanged head")
        return seq, head_hash

    def append(self, payload_digest: bytes, counterpart_head: LogEntry | None,
               timestamp: int) -> LogEntry:
        if len(payload_digest) != HASH_BYTES:
            raise EncodingError("payload digest must be 32 bytes")
        cross_seq, cross_head = self._check_counterpart_head(counterpart_head)
        seq = len(self.entries)
        prev = self._heads[-1]
        payload = crypto.canon_encode("LOGv1", [seq, prev, payload_digest, cross_head, timestamp])
        entry = LogEntry(
            seq=seq,
            prev_hash=prev,
            payload_digest=payload_digest,
            cross_head=cross_head,
            timestamp=timestamp,
            signer_key_id=self.owner.key_id,
            signature=crypto.sign(self.owner, payload),
        )
        self.entries.append(entry)
        self._heads.append(crypto.chain_hash(prev, entry.canonical_bytes()))
        self._seen_counterpart_seq = cross_seq
        self._seen_counterpart_hash = cross_head
        return entry

    def note_counterpart_head(self, seq: int, head_hash: bytes) -> None:
        """Record a head exchanged outside an append (e.g. at reload)."""
        if seq > self._seen_counterpart_seq:
            self._seen_counterpart_seq = seq
            self._seen_counterpart_hash = head_hash

    # -- verification ----------------------------------------------------------

    def verify_chain(self) -> int | None:
        """Recompute the whole chain; return the first bad seq, None if intact."""
        running = ZERO_HASH
        for i, entry in enumerate(self.entries):
            if entry.seq != i or entry.prev_hash != running:
                return i
            if entry.signer_key_id != self.owner.key_id:
                return i
            try:
                if not crypto.verify(self.owner, entry.signing_payload(), entry.signature):
                    return i
            except SignatureError:
                return i
            running = crypto.chain_hash(running, entry.canonical_bytes())
        return None

    # -- persistence -----------------------------------------------------------

    def save(self, path: Path) -> None:
        store.write_records(path, (e.canonical_bytes() for e in self.entries))

    def load(self, path: Path) -> None:
        """Replace the chain with a saved ledger file (strictly read).

        The strict reader's bytes re-encode to themselves, so the chain is
        hashed over them as read.
        """
        self._load(store.read_records(path, lambda data: (LogEntry.from_canonical(data), data)))

    def load_entries(self, entries: list[LogEntry]) -> None:
        self._load([(entry, entry.canonical_bytes()) for entry in entries])

    def _load(self, records: list[tuple[LogEntry, bytes]]) -> None:
        self.entries = [entry for entry, _ in records]
        self._heads = [ZERO_HASH]
        for _, data in records:
            self._heads.append(crypto.chain_hash(self._heads[-1], data))


def parse_ledger_lines(raw: str) -> tuple[list[LogEntry], int | None]:
    """Decode a ledger file strictly (``store.parse_records``).

    Returns (entries, first_bad_line), so every byte-level mutation of the
    file maps to a definite line.
    """
    return store.parse_records(raw, LogEntry.from_canonical)


@dataclass(frozen=True)
class LogCheck:
    """Outcome of verifying a regulator/controller ledger file pair."""

    ok: bool
    lines: list[str]


def verify_ledger_files(regulator_path: Path, controller_path: Path,
                        regulator: SigningIdentity, controller: SigningIdentity) -> LogCheck:
    """The verify-logs core: strict parse, per-chain verify, cross-verify."""
    ok = True
    lines: list[str] = []
    ledgers: dict[str, Ledger] = {}
    for label, path, owner, counterpart in (
        ("regulator", regulator_path, regulator, controller),
        ("controller", controller_path, controller, regulator),
    ):
        entries, bad = parse_ledger_lines(Path(path).read_text())
        if bad is not None:
            lines.append(f"{label}_chain=parse_error_at:{bad}")
            ok = False
            continue
        ledger = Ledger(owner=owner, counterpart=counterpart)
        ledger.load_entries(entries)
        bad_seq = ledger.verify_chain()
        if bad_seq is not None:
            lines.append(f"{label}_chain=bad_at:{bad_seq}")
            ok = False
        else:
            lines.append(f"{label}_chain=ok")
            ledgers[label] = ledger
    if len(ledgers) == 2:
        divergence = cross_verify(ledgers["regulator"], ledgers["controller"])
        if divergence is not None:
            lines.append(f"cross={divergence}")
            ok = False
        else:
            lines.append("cross=ok")
    return LogCheck(ok=ok, lines=lines)


def cross_verify(a: Ledger, b: Ledger) -> Divergence | None:
    """Check two individually-valid ledgers agree on the event history.

    Compares the payload digest sequences position by position and checks
    that every cross-committed head really occurred in the counterpart
    chain. Returns the first divergence, or None when the pair is
    consistent.
    """
    da = [e.payload_digest for e in a.entries]
    db = [e.payload_digest for e in b.entries]
    for i in range(max(len(da), len(db))):
        if i >= len(da):
            return Divergence(-1, i, "entry missing from first ledger")
        if i >= len(db):
            return Divergence(i, -1, "entry missing from second ledger")
        if da[i] != db[i]:
            return Divergence(i, i, "payload digests differ")

    heads_a = set(a.historical_heads())
    heads_b = set(b.historical_heads())
    for entry in a.entries:
        if entry.cross_head not in heads_b:
            return Divergence(entry.seq, -1, "cross head absent from second ledger")
    for entry in b.entries:
        if entry.cross_head not in heads_a:
            return Divergence(-1, entry.seq, "cross head absent from first ledger")
    return None
