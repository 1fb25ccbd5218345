"""Domain silo: the only database a frontend ever sees.

Rows are keyed by virtual id, schemas are screened against a
weak-identifier denylist, and payloads are sealed with AES-GCM under a key
that exists only transiently as the combination of a controller share and
a regulator share. There is no plaintext read path: the silo hands out
ciphertext and metadata, and decryption happens in the gate's open path.

Opt-out deletion destroys the ciphertext and both shares and produces a
dual-signed proof over the destroyed record ids.

``records.log`` holds one ``SRECv2`` record per line (id, vid, ciphertext,
controller share) by record id, and no time: it does not give away creation order.
A ``SiloRecord`` keeps its id, its vid and its canonical bytes, which the
load checks in full and a save writes back as they are; the ciphertext and
the controller share are read from those bytes when asked for. A load
splits each record in one pass over its fixed layout: the tag, four
length-prefixed fields, a 32-byte share last, and UTF-8 ids. The share
store and each gate ticket hold their shares in a ``RegulatorShares``: the
hex a file stores, exactly 64 digits read in either case and checked in one
pass at load, a ``KeyShare`` built once at its first lookup, and lower-case
hex again at save. A silo reaches the share store only to deposit or
destroy a share, so a command that reads records, an open among them,
loads no share file.

A silo's files are ``silos/<domain>/schema.json`` and ``records.log``,
the share store's ``regulator_shares.json``. A save writes ``records.log``
sorted by record id and returns its mark, its SHA-256 and record count,
for the deployment's checkpoint. A load that mark vouches for holds
``records.log`` undecoded: an id lookup (``controller_share``,
``fetch_ciphertext``, ``vid_of`` and the id check of ``put_record``)
binary-searches its lines and decodes only the records it probes, and any
other use decodes every record once. A load that no mark vouches for
decodes every record strictly, and the next save marks it again. Every
change sets ``changed``; the deployment encodes none of the files while
the silo is unchanged and they still carry the stamp taken when they were
read or written.
"""

from __future__ import annotations

import binascii
import dataclasses
import operator
import secrets
import struct
import threading
from collections.abc import Iterator, MutableMapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from . import crypto, store
from .crypto import Holder, KeyShare, SigningIdentity
from .errors import EncodingError, NotFound, SchemaError, WeakIdentifierRejected
from .events import EventKind, EventLog
from .registry import DeletionObligation, DeletionProof, FIELD_CLASSES

WEAK_IDENTIFIER_DENYLIST = frozenset({"name", "full_name", "address", "phone", "email", "photo"})


@dataclass(frozen=True)
class SiloSchema:
    domain: str
    field_classes: tuple[tuple[str, str], ...]  # (field name, class)
    contact_approved: bool = False

    def validate(self) -> None:
        for field_name, field_class in self.field_classes:
            if field_name in WEAK_IDENTIFIER_DENYLIST:
                raise WeakIdentifierRejected(f"field {field_name!r} is a weak identifier")
            if field_class not in FIELD_CLASSES:
                raise SchemaError(f"unknown field class {field_class!r}")
            if field_class == "contact" and not self.contact_approved:
                raise WeakIdentifierRejected(
                    f"contact-class field {field_name!r} requires regulator approval"
                )

    def class_of(self, field_name: str) -> str | None:
        for name, field_class in self.field_classes:
            if name == field_name:
                return field_class
        return None


def field_spec(value: str) -> tuple[tuple[str, str], ...]:
    """The (name, class) pairs of a ``name:class,...`` schema spec."""
    pairs = []
    for pair in value.split(","):
        name, sep, cls = pair.partition(":")
        if not sep:
            raise ValueError(f"needs name:class, got {pair!r}")
        pairs.append((name, cls))
    return tuple(pairs)


_LEN = struct.Struct(">I")  # a canonical field's length prefix
_SREC_HEAD = crypto.canon_encode("SRECv2", [])  # the tag's length prefix and the tag
_ID_AT = len(_SREC_HEAD) + 4  # where a record's id starts, past its length prefix
_SHARE_PREFIX = _LEN.pack(crypto.SHARE_BYTES)
_record_id = operator.attrgetter("record_id")  # the key records.log is sorted by


class SiloRecord:
    """One sealed record, held as its canonical bytes: the ciphertext and the
    controller share are read from them when asked for."""

    __slots__ = ("record_id", "vid", "_canonical")

    def __init__(self, record_id: str, vid: str, canonical: bytes):
        self.record_id = record_id
        self.vid = vid
        self._canonical = canonical

    def canonical_bytes(self) -> bytes:
        return self._canonical

    @classmethod
    def new(cls, record_id: str, vid: str, ciphertext: bytes,
            controller_share: KeyShare) -> "SiloRecord":
        return cls(record_id, vid, crypto.canon_encode(
            "SRECv2", [record_id, vid, ciphertext, controller_share.share]))

    @classmethod
    def from_canonical(cls, data: bytes) -> "SiloRecord":
        """The record ``data`` holds, split in one pass: it accepts exactly the
        ``canon_decode`` of an ``SRECv2`` tag and four fields, the last a
        32-byte share, with UTF-8 ids."""
        # each *_at is where that field's length prefix starts, and the share's is fixed
        share_at = len(data) - 4 - crypto.SHARE_BYTES
        try:
            vid_at = _ID_AT + _LEN.unpack_from(data, _ID_AT - 4)[0]
            ciphertext_at = vid_at + 4 + _LEN.unpack_from(data, vid_at)[0]
            ciphertext_end = ciphertext_at + 4 + _LEN.unpack_from(data, ciphertext_at)[0]
            if (not data.startswith(_SREC_HEAD) or ciphertext_end != share_at
                    or data[share_at:share_at + 4] != _SHARE_PREFIX):
                raise EncodingError("not a silo record")
            return cls(data[_ID_AT:vid_at].decode("utf-8"),
                       data[vid_at + 4:ciphertext_at].decode("utf-8"), data)
        except (struct.error, UnicodeDecodeError):  # a length prefix past the end, a non-UTF-8 id
            raise EncodingError("not a silo record") from None

    @property
    def ciphertext(self) -> bytes:
        return crypto.canon_decode(self._canonical)[1][2]

    @property
    def controller_share(self) -> KeyShare:
        return KeyShare(crypto.canon_decode(self._canonical)[1][3], Holder.CONTROLLER)


def encode_fields(fields: Mapping[str, str]) -> bytes:
    items = sorted(fields.items())
    flat: list[str | int] = [len(items)]
    for key, value in items:
        flat.extend((key, value))
    return crypto.canon_encode("FLDv1", flat)


def decode_fields(data: bytes) -> dict[str, str]:
    tag, raw = crypto.canon_decode(data)
    if tag != "FLDv1" or not raw:
        raise EncodingError("not a field map payload")
    n = crypto.decode_int(raw[0])
    if len(raw) != 1 + 2 * n:
        raise EncodingError("field map count mismatch")
    out = {}
    for i in range(n):
        out[crypto.decode_str(raw[1 + 2 * i])] = crypto.decode_str(raw[2 + 2 * i])
    return out


def record_aad(record_id: str, vid: str, domain: str) -> bytes:
    return crypto.canon_encode("AADv1", [record_id, vid, domain])


class RegulatorShares(MutableMapping[str, KeyShare]):
    """Regulator shares by record id, each held as the hex a file stores
    until it is first looked up; a share put in memory is hexed only by ``hex``."""

    __slots__ = ("_shares", "_hex_only")

    def __init__(self, stored: dict[str, str] | None = None):
        """The map of ``stored``, the hex of each share by record id as a file
        holds it, taken over; a value not exactly 64 hex digits raises ValueError."""
        shares = {} if stored is None else stored
        if set(map(len, shares.values())) - {2 * crypto.SHARE_BYTES}:
            raise ValueError(f"a share is not {crypto.SHARE_BYTES} bytes of hex")
        joined = "".join(shares.values())
        binascii.a2b_hex(joined)  # hex digits only: no space, sign or non-ASCII digit
        if joined != joined.lower():
            shares = {rid: h.lower() for rid, h in shares.items()}
        self._shares: dict[str, KeyShare | str] = shares  # a share, or its lower-case hex
        self._hex_only = True  # no held share is a KeyShare

    def __getitem__(self, record_id: str) -> KeyShare:
        share = self._shares[record_id]
        if isinstance(share, str):
            share = self[record_id] = KeyShare(bytes.fromhex(share), Holder.REGULATOR)
        return share

    def __setitem__(self, record_id: str, share: KeyShare) -> None:
        self._shares[record_id] = share
        self._hex_only = False

    def __delitem__(self, record_id: str) -> None:
        del self._shares[record_id]

    def __contains__(self, record_id: object) -> bool:  # Mapping's would build the share
        return record_id in self._shares

    def __iter__(self) -> Iterator[str]:
        return iter(self._shares)

    def __len__(self) -> int:
        return len(self._shares)

    def hex(self) -> dict[str, str]:
        """The lower-case hex of each share by record id, as a file stores it."""
        if self._hex_only:  # a loaded map no lookup touched: no pass per share
            return dict(self._shares)
        return {rid: s if isinstance(s, str) else s.share.hex() for rid, s in self._shares.items()}


class RegulatorShareStore:
    """Regulator-side deposit box for the second half of every record key."""

    files = ("regulator_shares.json",)

    def __init__(self):
        self._shares = RegulatorShares()
        self.loaded_from: Path | None = None  # the file the shares were loaded from
        self.changed = False  # since the file was read or written

    def deposit(self, record_id: str, share: KeyShare) -> None:
        if share.holder is not Holder.REGULATOR:
            raise SchemaError("only regulator shares can be deposited")
        self._shares[record_id] = share
        self.changed = True

    def get(self, record_id: str) -> KeyShare | None:
        return self._shares.get(record_id)

    def destroy(self, record_id: str) -> bool:
        """Erase a share; True confirms it is gone."""
        self._shares.pop(record_id, None)
        self.changed = True
        return record_id not in self._shares

    def save(self) -> dict[str, bytes]:
        self.changed = False
        return {self.files[0]: store.json_bytes(self._shares.hex())}

    def load(self, files: store.Files) -> None:
        """Replace the held shares with those ``files`` hold."""
        ((self.loaded_from, data),) = files
        with store.reading(self.loaded_from, "regulator shares by record id"):
            self._shares = RegulatorShares(store.parse_json(self.loaded_from, data) or {})


class Silo:
    def __init__(self, schema: SiloSchema, share_store: Callable[[], RegulatorShareStore],
                 vid_exists: Callable[[str, str], bool], event_log: EventLog,
                 rand_bytes: Callable[[int], bytes] | None = None,
                 lock: threading.RLock | None = None):
        schema.validate()
        self.schema = schema
        self._share_store = share_store  # called only to deposit or destroy a share
        self.vid_exists = vid_exists
        self.event_log = event_log
        self._rand = rand_bytes or secrets.token_bytes
        # every record by id; None while ``_held`` holds them as loaded, sorted by id
        self._records: dict[str, SiloRecord] | None = {}
        self._held = store.Stream(SiloRecord.from_canonical, SiloRecord.canonical_bytes)
        self.files = silo_files(schema.domain)
        self.changed = False  # since the files were read or written
        self._lock = lock or threading.RLock()

    @property
    def domain(self) -> str:
        return self.schema.domain

    # -- writes ---------------------------------------------------------------

    def put_record(self, vid: str, fields: Mapping[str, str]) -> str:
        for field_name, value in fields.items():
            if self.schema.class_of(field_name) is None:
                raise SchemaError(f"field {field_name!r} not in the {self.domain} schema")
            if not isinstance(value, str):
                raise SchemaError(f"field {field_name!r} value must be a string")
        if not fields:
            raise SchemaError("record must have at least one field")
        if not self.vid_exists(self.domain, vid):
            raise NotFound(f"vid {vid} unknown in domain {self.domain}")
        with self._lock:
            while True:
                record_id = "R" + self._rand(6).hex()
                if self._find(record_id) is None:
                    break
            controller_share = KeyShare(self._rand(32), Holder.CONTROLLER)
            regulator_share = KeyShare(self._rand(32), Holder.REGULATOR)
            key = crypto.combine_shares(controller_share, regulator_share)
            plaintext = encode_fields(fields)
            ciphertext = crypto.aead_encrypt(
                key, crypto.record_nonce(record_id), plaintext,
                record_aad(record_id, vid, self.domain),
            )
            self._all()[record_id] = SiloRecord.new(record_id, vid, ciphertext, controller_share)
            self.changed = True
            self._share_store().deposit(record_id, regulator_share)
            return record_id

    # -- metadata and ciphertext (no plaintext surface) ---------------------------

    def list_records(self) -> list[tuple[str, str]]:
        with self._lock:
            return [(r.record_id, r.vid) for r in self._all().values()]

    def records_for_vid(self, vid: str) -> list[str]:
        with self._lock:
            return [r.record_id for r in self._all().values() if r.vid == vid]

    def fetch_ciphertext(self, record_id: str) -> bytes:
        return self._record(record_id).ciphertext

    def controller_share(self, record_id: str) -> KeyShare:
        return self._record(record_id).controller_share

    def vid_of(self, record_id: str) -> str:
        return self._record(record_id).vid

    def _record(self, record_id: str) -> SiloRecord:
        record = self._find(record_id)
        if record is None:
            raise NotFound(f"record {record_id} not found")
        return record

    def _find(self, record_id: str) -> SiloRecord | None:
        """The record ``record_id``; only held records a search probes are decoded."""
        with self._lock:
            if self._records is None:
                return self._held.find(record_id, _record_id)
            return self._records.get(record_id)

    def _all(self) -> dict[str, SiloRecord]:
        """Every record by id, in file order and then the order put; held
        records are decoded once."""
        if self._records is None:
            self._records = {record.record_id: record for record in self._held.records}
            self._held.replace(())
        return self._records

    # -- deletion --------------------------------------------------------------

    def process_deletion(self, obligation: DeletionObligation, vid: str, doomed: list[str],
                         regulator: SigningIdentity, controller: SigningIdentity) -> DeletionProof:
        """Erase every record held for this vid and prove it.

        ``doomed`` is ``records_for_vid(vid)``, scanned by the caller under
        the lock it still holds, so the silo is not scanned twice.
        Ciphertext and controller shares are dropped here; the regulator
        share store confirms destruction of its half. The proof hash covers
        the destroyed record ids and both parties sign it.
        """
        if obligation.domain != self.domain:
            raise NotFound(f"obligation {obligation.obligation_id} targets {obligation.domain}")
        if not crypto.verify(regulator, obligation.signing_payload(), obligation.signature):
            raise NotFound(f"obligation {obligation.obligation_id} signature invalid")
        with self._lock:
            self.changed = True
            records = self._all()
            for rid in doomed:
                del records[rid]
            share_store = self._share_store()
            for rid in doomed:
                if not share_store.destroy(rid):
                    raise SchemaError(f"regulator share for {rid} not confirmed destroyed")
            unsigned = DeletionProof(obligation.obligation_id, self.domain, tuple(sorted(doomed)),
                                     DeletionProof.hash_record_ids(doomed), b"", b"")
            payload = unsigned.signing_payload()
            proof = dataclasses.replace(unsigned, regulator_signature=crypto.sign(regulator, payload),
                                        controller_signature=crypto.sign(controller, payload))
            self.event_log.record(
                EventKind.DELETION, obligation.obligation_id, [vid],
                f"deleted {len(doomed)} record(s) in {self.domain} "
                f"purpose={obligation.purpose_code}",
            )
            return proof

    # -- persistence --------------------------------------------------------------

    def save(self) -> dict[str, bytes | store.Marked]:
        """The schema, then the records sorted by id (held ones as read) and their mark."""
        self.changed = False
        schema, records = self.files
        if self._records is None:
            held = self._held.file()
        else:
            data = store.encode_records(self._records[rid].canonical_bytes()
                                        for rid in sorted(self._records))
            held = data, store.FileMark(crypto.sha256(data), len(self._records))
        return {schema: store.json_bytes(store.to_doc(self.schema)), records: held}

    def load_records(self, files: store.Files, marks: store.Marks = {}) -> None:
        """Replace the silo's records with those ``files`` hold: held undecoded
        when their mark in ``marks`` vouches for them, else decoded strictly.
        The schema is the one the silo was built with, read by ``load_schema``."""
        _, (path, data) = files
        data = self._held.hold(path, data, marks.get(self.files[1]))
        if data is None:
            self._records = None
        else:
            self._records = {record.record_id: record for record in
                             store.decode_records(path, data, SiloRecord.from_canonical)}
            self.changed = True  # so that the next save marks them

    @staticmethod
    def load_schema(files: store.Files) -> SiloSchema:
        """The schema ``files`` hold; it must name the domain of its own directory."""
        (path, data), *_ = files
        doc = store.parse_json(path, data)
        if doc is None:
            raise EncodingError(f"{path}: no such file")
        with store.reading(path, "a silo schema"):
            schema = store.from_doc(SiloSchema, doc)
        if schema.domain != path.parent.name:
            raise EncodingError(f"{path}: names domain {schema.domain!r}, not {path.parent.name!r}")
        return schema


def silo_files(domain: str) -> tuple[str, str]:
    """The files of the silo of ``domain``: its schema, then its records."""
    return f"silos/{domain}/schema.json", f"silos/{domain}/records.log"
