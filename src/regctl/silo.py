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

A silo's and the share store's save encode nothing while their files still
carry the stat stamp of the last load or save and no change came since
(``store.stamp``).
"""

from __future__ import annotations

import dataclasses
import secrets
import threading
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


@dataclass
class SiloRecord:
    record_id: str
    vid: str
    ciphertext: bytes
    controller_share: KeyShare

    def canonical_bytes(self) -> bytes:
        return crypto.canon_encode(
            "SRECv2", [self.record_id, self.vid, self.ciphertext, self.controller_share.share])

    @classmethod
    def from_canonical(cls, data: bytes) -> "SiloRecord":
        tag, fields = crypto.canon_decode(data)
        if tag != "SRECv2" or len(fields) != 4:
            raise EncodingError("not a silo record")
        return cls(
            record_id=crypto.decode_str(fields[0]),
            vid=crypto.decode_str(fields[1]),
            ciphertext=fields[2],
            controller_share=KeyShare(fields[3], Holder.CONTROLLER),
        )


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


class RegulatorShareStore:
    """Regulator-side deposit box for the second half of every record key."""

    def __init__(self):
        self._shares: dict[str, KeyShare] = {}
        self._stamp: store.Stamp | None = None  # of the file that holds these shares

    def deposit(self, record_id: str, share: KeyShare) -> None:
        if share.holder is not Holder.REGULATOR:
            raise SchemaError("only regulator shares can be deposited")
        self._shares[record_id] = share
        self._stamp = None

    def get(self, record_id: str) -> KeyShare | None:
        return self._shares.get(record_id)

    def destroy(self, record_id: str) -> bool:
        """Erase a share; True confirms it is gone."""
        self._shares.pop(record_id, None)
        self._stamp = None
        return record_id not in self._shares

    def save(self, path: Path) -> None:
        if store.unchanged(self._stamp, path):
            return
        store.write_json(path, {rid: s.share.hex() for rid, s in self._shares.items()})
        self._stamp = store.stamp(path)

    def load(self, path: Path) -> None:
        """Replace the held shares with the file's."""
        self._stamp = store.stamp(path)
        with store.reading(path, "regulator shares by record id"):
            self._shares = {rid: KeyShare(bytes.fromhex(hexshare), Holder.REGULATOR)
                            for rid, hexshare in (store.read_json(path) or {}).items()}


class Silo:
    def __init__(self, schema: SiloSchema, share_store: RegulatorShareStore,
                 vid_exists: Callable[[str, str], bool], event_log: EventLog,
                 rand_bytes: Callable[[int], bytes] | None = None,
                 lock: threading.RLock | None = None):
        schema.validate()
        self.schema = schema
        self.share_store = share_store
        self.vid_exists = vid_exists
        self.event_log = event_log
        self._rand = rand_bytes or secrets.token_bytes
        self._records: dict[str, SiloRecord] = {}
        self._stamp: store.Stamp | None = None  # of the schema.json and records.log of this silo
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
                if record_id not in self._records:
                    break
            controller_share = KeyShare(self._rand(32), Holder.CONTROLLER)
            regulator_share = KeyShare(self._rand(32), Holder.REGULATOR)
            key = crypto.combine_shares(controller_share, regulator_share)
            plaintext = encode_fields(fields)
            ciphertext = crypto.aead_encrypt(
                key, crypto.record_nonce(record_id), plaintext,
                record_aad(record_id, vid, self.domain),
            )
            self._records[record_id] = SiloRecord(record_id, vid, ciphertext, controller_share)
            self._stamp = None
            self.share_store.deposit(record_id, regulator_share)
            return record_id

    # -- metadata and ciphertext (no plaintext surface) ---------------------------

    def list_records(self) -> list[tuple[str, str]]:
        with self._lock:
            return [(r.record_id, r.vid) for r in self._records.values()]

    def records_for_vid(self, vid: str) -> list[str]:
        with self._lock:
            return [r.record_id for r in self._records.values() if r.vid == vid]

    def fetch_ciphertext(self, record_id: str) -> bytes:
        record = self._records.get(record_id)
        if record is None:
            raise NotFound(f"record {record_id} not found")
        return record.ciphertext

    def controller_share(self, record_id: str) -> KeyShare:
        record = self._records.get(record_id)
        if record is None:
            raise NotFound(f"record {record_id} not found")
        return record.controller_share

    def vid_of(self, record_id: str) -> str:
        record = self._records.get(record_id)
        if record is None:
            raise NotFound(f"record {record_id} not found")
        return record.vid

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
            self._stamp = None
            for rid in doomed:
                del self._records[rid]
            for rid in doomed:
                if not self.share_store.destroy(rid):
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

    def save(self, directory: Path) -> None:
        paths = directory / "schema.json", directory / "records.log"
        if store.unchanged(self._stamp, *paths):
            return
        store.write_json(paths[0], store.to_doc(self.schema))
        records = [self._records[rid].canonical_bytes() for rid in sorted(self._records)]
        store.write_records(paths[1], records)
        self._stamp = store.stamp(*paths)

    def load_records(self, directory: Path) -> None:
        """Replace the silo's records with those of ``records.log``; the
        schema is the one the silo was built with, read by ``load_schema``."""
        paths = directory / "schema.json", directory / "records.log"
        self._stamp = store.stamp(*paths)
        self._records = {record.record_id: record for record in
                         store.read_records(paths[1], SiloRecord.from_canonical)}

    @staticmethod
    def load_schema(directory: Path) -> SiloSchema:
        path = directory / "schema.json"
        doc = store.read_json(path)
        if doc is None:
            raise EncodingError(f"{path}: no such file")
        with store.reading(path, "a silo schema"):
            return store.from_doc(SiloSchema, doc)
