"""Tamper-evident append-only ledgers, held in duplicate by regulator and
controller.

Each entry is hash-chained onto its predecessor and embeds the head hash
of the counterpart ledger's last signed entry at append time
(cross-commitment), so neither party can rewrite or silently truncate
history without the other's copy exposing the divergence. The last entry
is the only commitment a ledger hands its counterpart: its signature
covers ``prev_hash``, and the head hash follows from its bytes.

An entry is held as its canonical bytes and nothing else. Its signature
covers a prefix of them, and the chain hashes and the file stores them
whole, so an entry is checked once, when it is read, and never
re-encoded.

File format: a ``store`` record stream of canonical entry bytes, held as a
``store.Stream``. Loading is strict, so any byte-level tampering of a
ledger file is reported even when the change only touches encoding slack.
The one exception is a file whose bytes the MAC'd checkpoint records (see
``store``): those are exactly what this deployment saved, so the ledger
keeps them undecoded until ``entries`` or ``historical_heads`` is first
asked for. ``head`` and ``tip`` decode the last line alone: the head hash
follows from the last entry (``head_hash``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

from . import crypto, store
from .crypto import HASH_BYTES, SIGNATURE_BYTES, ZERO_HASH, SigningIdentity
from .errors import EncodingError, StaleCrossHead


# LOGv1 byte layout: the 9-byte tag header, then each field as a 4-byte
# length and its payload. Only the signer key id varies in size, so every
# other field sits at a fixed offset from the start, or (the signature)
# from the end.
_SEQ = slice(13, 21)
_PREV_HASH = slice(25, 57)
_PAYLOAD_DIGEST = slice(61, 93)
_CROSS_HEAD = slice(97, 129)
_TIMESTAMP = slice(133, 141)
_SIGNED = slice(0, 141)
_SIGNER_KEY_ID = slice(145, -4 - SIGNATURE_BYTES)
_SIGNATURE = slice(-SIGNATURE_BYTES, None)


def _check_sizes(prev_hash: bytes, payload_digest: bytes, cross_head: bytes,
                 signature: bytes) -> None:
    """The fixed-offset layout needs these fields at their fixed sizes."""
    if len(prev_hash) != HASH_BYTES or len(payload_digest) != HASH_BYTES:
        raise EncodingError("hash field has wrong length")
    if len(cross_head) != HASH_BYTES or len(signature) != SIGNATURE_BYTES:
        raise EncodingError("cross head or signature has wrong length")


@dataclass(frozen=True, slots=True, init=False)
class LogEntry:
    """One signed ledger entry, held only as its canonical LOGv1 bytes; each
    field is read at its offset."""

    canonical: bytes

    def __init__(self, seq: int, prev_hash: bytes, payload_digest: bytes, cross_head: bytes,
                 timestamp: int, signer_key_id: str, signature: bytes):
        _check_sizes(prev_hash, payload_digest, cross_head, signature)
        object.__setattr__(self, "canonical", crypto.canon_encode(
            "LOGv1",
            [seq, prev_hash, payload_digest, cross_head, timestamp, signer_key_id, signature],
        ))

    @classmethod
    def from_canonical(cls, data: bytes) -> "LogEntry":
        tag, fields = crypto.canon_decode(data)
        if tag != "LOGv1" or len(fields) != 7:
            raise EncodingError(f"not a ledger entry: tag={tag} fields={len(fields)}")
        # the fields are read at their offsets: decoding them only validates
        crypto.decode_int(fields[0])
        crypto.decode_int(fields[4])
        crypto.decode_str(fields[5])
        _check_sizes(fields[1], fields[2], fields[3], fields[6])
        entry = object.__new__(cls)
        object.__setattr__(entry, "canonical", bytes(data))
        return entry

    @property
    def seq(self) -> int:
        return int.from_bytes(self.canonical[_SEQ], "big", signed=True)

    @property
    def prev_hash(self) -> bytes:
        return self.canonical[_PREV_HASH]

    @property
    def payload_digest(self) -> bytes:
        return self.canonical[_PAYLOAD_DIGEST]

    @property
    def cross_head(self) -> bytes:
        return self.canonical[_CROSS_HEAD]

    @property
    def timestamp(self) -> int:
        return int.from_bytes(self.canonical[_TIMESTAMP], "big", signed=True)

    @property
    def signer_key_id(self) -> str:
        return self.canonical[_SIGNER_KEY_ID].decode("utf-8")

    @property
    def signature(self) -> bytes:
        return self.canonical[_SIGNATURE]

    def signing_payload(self) -> bytes:
        """``canon_encode("LOGv1", [seq, prev_hash, payload_digest, cross_head, timestamp])``."""
        return self.canonical[_SIGNED]


@dataclass(frozen=True)
class Divergence:
    """First point at which two ledgers disagree; -1 marks a missing entry."""

    seq_a: int
    seq_b: int
    reason: str

    def __str__(self) -> str:
        return f"Divergence(seq_a={self.seq_a}, seq_b={self.seq_b}, {self.reason})"


def head_hash(entry: LogEntry | None) -> bytes:
    """The head hash of a ledger whose last entry is ``entry``; ZERO_HASH when empty."""
    return ZERO_HASH if entry is None else crypto.chain_hash(entry.prev_hash, entry.canonical)


class Ledger:
    """Single-writer hash chain. It takes no lock: callers serialise appends
    (``EventLog.record`` runs under its deployment's lock)."""

    def __init__(self, owner: SigningIdentity, counterpart: SigningIdentity):
        self.owner = owner
        self.counterpart = counterpart
        self.stream = store.Stream(LogEntry.from_canonical, operator.attrgetter("canonical"))
        self._verified_heads: list[bytes] | None = None  # from an intact verify_chain
        self._seen_counterpart_seq = -1
        self._seen_counterpart_hash = ZERO_HASH

    @property
    def entries(self) -> list[LogEntry]:
        """Every entry, in order; kept entries are decoded strictly on first use."""
        return self.stream.records

    # -- heads ---------------------------------------------------------------

    def head(self) -> LogEntry | None:
        """The last signed entry, the commitment handed to the counterpart."""
        return self.stream.last()

    def tip(self) -> tuple[int, bytes]:
        """The last sequence number and head hash, unsigned."""
        return len(self.stream) - 1, head_hash(self.head())

    def historical_heads(self) -> list[bytes]:
        """Every head hash this chain has ever presented, genesis included.

        Derived from the entries, unless an intact ``verify_chain`` since the
        last append already derived them.
        """
        if self._verified_heads is not None:
            return list(self._verified_heads)
        heads = [ZERO_HASH]
        for entry in self.entries:
            heads.append(crypto.chain_hash(heads[-1], entry.canonical))
        return heads

    # -- appends -------------------------------------------------------------

    def _check_counterpart_head(self, head: LogEntry | None) -> tuple[int, bytes]:
        """Verify the counterpart's last entry; return its (seq, head hash)."""
        seq = -1
        if head is not None:
            if not (head.signer_key_id == self.counterpart.key_id
                    and crypto.verify(self.counterpart, head.signing_payload(), head.signature)):
                raise StaleCrossHead("counterpart head signature does not verify")
            seq = head.seq
        cross_head = head_hash(head)
        if seq < self._seen_counterpart_seq:
            raise StaleCrossHead(
                f"counterpart head seq {seq} older than last exchanged {self._seen_counterpart_seq}"
            )
        if seq == self._seen_counterpart_seq and cross_head != self._seen_counterpart_hash:
            raise StaleCrossHead("counterpart head conflicts with last exchanged head")
        return seq, cross_head

    def append(self, payload_digest: bytes, counterpart_head: LogEntry | None,
               timestamp: int) -> LogEntry:
        if len(payload_digest) != HASH_BYTES:
            raise EncodingError("payload digest must be 32 bytes")
        cross_seq, cross_head = self._check_counterpart_head(counterpart_head)
        last_seq, prev = self.tip()
        seq = last_seq + 1
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
        self.stream.append(entry)
        self._verified_heads = None
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
        """Recompute the whole chain; return the first bad seq, None if intact.

        An intact chain keeps the head hashes it derived, so a following
        ``cross_verify`` hashes no entry again.
        """
        heads = [ZERO_HASH]
        for i, entry in enumerate(self.entries):
            if entry.seq != i or entry.prev_hash != heads[-1]:
                return i
            if entry.signer_key_id != self.owner.key_id:
                return i
            if not crypto.verify(self.owner, entry.signing_payload(), entry.signature):
                return i
            heads.append(crypto.chain_hash(heads[-1], entry.canonical))
        self._verified_heads = heads
        return None

    # -- persistence -----------------------------------------------------------

    def save(self, path: Path) -> None:
        store.write_atomic(path, self.stream.file()[0])

    def load_entries(self, entries: list[LogEntry]) -> None:
        """Replace the chain; its head hash is derived when first needed."""
        self.stream.replace(entries)
        self._verified_heads = None


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
        with store.named_file(path):
            entries, bad = parse_ledger_lines(store.stream_text(Path(path).read_bytes()))
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
