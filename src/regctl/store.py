"""The state directory's storage: two formats, one writer, one reader.

* Record streams hold one record per line: the base64 of its canonical
  bytes, ended by ``"\\n"``. Reading is strict: only ``"\\n"`` ends a
  line, the file must end with one, every line must be valid base64 that
  re-encodes to the identical text, and its bytes must decode; the first
  line that breaks a rule is reported.
* JSON documents are written with sorted keys and compact separators.
  A dataclass's document holds its fields by name: ``bytes`` as hex, an
  enum as its value, a nested dataclass as its own document, a tuple as a
  list of items of one type, and any other value as itself. ``to_doc``
  and ``from_doc`` apply the rule each way, by each field's annotation.

Every file is written whole by ``write_atomic``: a temp file in the same
directory, fsynced, then renamed over the target, so a crash leaves each
file either as it was or as it was to become. A file that already holds
exactly the bytes to write is left alone.

A service whose state changes rarely skips even encoding it: it keeps the
``stamp`` of the files that hold exactly its state in memory, taken before
a load reads them and after a save writes them, forgets it on every change,
and saves nothing while the files still carry that stamp. A stamp is the
files' device, inode, size and modification and change times, so a file
replaced behind the process no longer matches and is rewritten from memory;
only an edit in place that keeps the size, within the file system's
timestamp granularity, would go unseen.

In memory a record stream is a ``Stream``: the bytes a load kept,
undecoded, then the records appended since. A load keeps only bytes the
checkpoint vouches for: each stream's SHA-256 and record count, which
``save_streams`` writes last, under an HMAC. No state directory whose
checkpoint still records ledger heads loads: its ``clock.json`` predates
the bare tick, which ``read_count`` requires.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import dataclasses
import enum
import functools
import hmac
import json
import operator
import os
import tempfile
import typing
from pathlib import Path
from typing import Any, Callable, Generic, Iterable, Iterator, TypeVar

from . import crypto
from .errors import CustodyError, EncodingError, RegctlError

T = TypeVar("T")


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``, unless it holds ``data`` already; a
    failed write removes its temp file."""
    try:
        if path.stat().st_size == len(data) and path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


Stamp = tuple[tuple[int, int, int, int, int], ...]


def stamp(*paths: Path) -> Stamp | None:
    """The stat stamp of ``paths``: each file's device, inode, size, mtime
    and ctime in nanoseconds; None when one of them is missing."""
    try:
        return tuple((s.st_dev, s.st_ino, s.st_size, s.st_mtime_ns, s.st_ctime_ns)
                     for s in map(os.stat, paths))
    except FileNotFoundError:
        return None


def unchanged(kept: Stamp | None, *paths: Path) -> bool:
    """True when ``kept`` is a stamp and the files at ``paths`` still carry it."""
    return kept is not None and stamp(*paths) == kept


# -- record streams --------------------------------------------------------------

def encode_records(records: Iterable[bytes]) -> bytes:
    return b"".join(map(binascii.b2a_base64, records))  # each ends in "\n"


def write_records(path: Path, records: Iterable[bytes]) -> None:
    write_atomic(path, encode_records(records))


def parse_records(raw: str, decode: Callable[[bytes], T]) -> tuple[list[T], int | None]:
    """Decode a record stream strictly.

    Returns (records, first_bad_line). ``decode`` turns a record's bytes
    into its value and raises on anything it cannot decode; it must be the
    exact inverse of the canonical encoding that wrote the record, so a
    line that passes re-encodes to itself.
    """
    records: list[T] = []
    if raw == "":
        return records, None
    # only "\n" ends a record: splitlines() would also break on control
    # characters like \x0b, letting a mutated newline go unnoticed
    if not raw.endswith("\n"):
        return records, max(0, raw.count("\n"))
    for i, line in enumerate(raw.split("\n")[:-1]):
        try:
            blob = base64.b64decode(line, validate=True)
            if base64.b64encode(blob).decode("ascii") != line:
                return records, i
            records.append(decode(blob))
        except (ValueError, RegctlError):  # binascii.Error is a ValueError
            return records, i
    return records, None


def stream_text(data: bytes) -> str:
    """A record stream's bytes as text for ``parse_records``.

    latin-1 maps every byte to one character, so a non-ASCII byte fails
    its line's base64 check instead of the whole file's text decoding.
    """
    return data.decode("latin-1")


def read_records(path: Path, decode: Callable[[bytes], T]) -> list[T]:
    """Read a record stream; a missing file is empty, a bad line raises EncodingError."""
    if not path.exists():
        return []
    return decode_records(path, path.read_bytes(), decode)


def decode_records(path: Path, data: bytes, decode: Callable[[bytes], T]) -> list[T]:
    """Decode the bytes of the record stream at ``path``; a bad line raises EncodingError."""
    records, bad = parse_records(stream_text(data), decode)
    if bad is not None:
        raise EncodingError(f"{path}: undecodable record at line {bad}")
    return records


class Stream(Generic[T]):
    """A record stream: the bytes a load kept, undecoded, then the records
    appended since. ``decode`` and ``encode`` turn a record's bytes into its
    value and back."""

    def __init__(self, decode: Callable[[bytes], T], encode: Callable[[T], bytes]):
        self._decode = decode
        self._encode = encode
        self.replace(())

    def replace(self, records: Iterable[T]) -> None:
        self._path = Path()
        self._kept = b""  # the loaded file's bytes, until decoded
        self._kept_count = 0
        self._kept_last: T | None = None  # the last kept record, once decoded
        self._records = list(records)  # every record after the kept ones

    def load(self, path: Path, mark: FileMark | None) -> None:
        """Replace the stream with the file at ``path``: kept undecoded if
        ``mark`` vouches for its bytes, else read strictly; a missing file is empty."""
        data = path.read_bytes() if path.exists() else b""
        if mark is None or crypto.sha256(data) != mark.sha256:
            self.replace(decode_records(path, data, self._decode))
        else:
            self.replace(())
            self._path, self._kept, self._kept_count = path, data, mark.count

    def __len__(self) -> int:
        return self._kept_count + len(self._records)

    @property
    def records(self) -> list[T]:
        """Every record, in order; kept bytes are decoded strictly on first use."""
        if self._kept:
            self._records[:0] = decode_records(self._path, self._kept, self._decode)
            self._kept, self._kept_count = b"", 0
        return self._records

    def last(self) -> T | None:
        """The last record, None if there is none; a kept one is decoded once."""
        if self._records:
            return self._records[-1]
        if self._kept and self._kept_last is None:
            line = self._kept[self._kept.rfind(b"\n", 0, -1) + 1:]
            self._kept_last = self._decode(binascii.a2b_base64(line))
        return self._kept_last

    def append(self, record: T) -> None:
        self._records.append(record)

    def file_bytes(self) -> bytes:
        """The stream's file: the kept bytes as they were read, then each later record."""
        return self._kept + encode_records(map(self._encode, self._records))


# -- the checkpoint ------------------------------------------------------------------

CHECKPOINT = "checkpoint.json"
_CHECKPOINT_TAG = "CKPTv1"


@dataclasses.dataclass(frozen=True)
class FileMark:
    """What the checkpoint records of one record stream a save wrote."""

    sha256: bytes
    count: int


def save_streams(directory: Path, streams: dict[str, Stream], key: bytes) -> None:
    """Write each stream to its file in ``directory``, then the checkpoint
    under an HMAC keyed by ``key``: last, so it never vouches for a file not
    yet written."""
    files = {}
    for name, stream in streams.items():
        data = stream.file_bytes()
        write_atomic(directory / name, data)
        files[name] = to_doc(FileMark(crypto.sha256(data), len(stream)))
    write_json(directory / CHECKPOINT, {"files": files, "mac": _checkpoint_mac(key, files).hex()})


def load_streams(directory: Path, streams: dict[str, Stream], key: bytes) -> None:
    """Load each stream from its file in ``directory``, keeping the bytes of
    those the checkpoint vouches for; none unless its MAC verifies."""
    try:
        doc = read_json(directory / CHECKPOINT)
        files, mac = doc["files"], bytes.fromhex(doc["mac"])
    except (EncodingError, ValueError, TypeError, KeyError):  # no file reads as None
        files, mac = {}, b""
    if not hmac.compare_digest(mac, _checkpoint_mac(key, files)):
        files = {}
    for name, stream in streams.items():
        stream.load(directory / name, from_doc(FileMark, files[name]) if name in files else None)


def _checkpoint_mac(key: bytes, files: dict) -> bytes:
    return crypto.prf_derive(key, _CHECKPOINT_TAG, json_bytes(files))


# -- JSON documents ------------------------------------------------------------------

def json_bytes(doc: Any) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def write_json(path: Path, doc: Any) -> None:
    write_atomic(path, json_bytes(doc))


def read_json(path: Path) -> Any:
    """The document at ``path``, or None when there is no file; a file that
    is not a JSON document raises EncodingError."""
    if not path.exists():
        return None
    try:
        return json.loads(path.read_bytes())
    except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise EncodingError(f"{path}: not a JSON document: {exc}") from None


@contextlib.contextmanager
def reading(path: Path, what: str) -> Iterator[None]:
    """Raise EncodingError naming ``path`` when its reader cannot take it as
    ``what``: a wrong type, a missing key, non-hex text, a wrong-size share."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, CustodyError) as exc:
        raise EncodingError(f"{path}: not {what}: {exc}") from None


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0  # neither a bool nor a float is a count


def read_count(path: Path) -> int:
    """The bare non-negative integer at ``path``; 0 when there is no file."""
    count = read_json(path)
    if count is not None and not _is_count(count):
        raise EncodingError(f"{path}: not a non-negative integer")
    return count or 0


def read_counts(path: Path, what: str) -> dict[str, int]:
    """The non-negative integer ``what`` by key at ``path``; empty when there is no file."""
    counts = read_json(path)
    if counts is not None and not (isinstance(counts, dict)
                                   and all(map(_is_count, counts.values()))):
        raise EncodingError(f"{path}: not a non-negative integer {what}")
    return counts or {}


def to_doc(value: Any) -> dict:
    """The JSON document of the dataclass instance ``value``."""
    doc = dict(vars(value))  # a dataclass instance's attributes are its fields
    for name, encode, _ in _field_codecs(type(value))[1]:
        doc[name] = encode(doc[name])
    return doc


def from_doc(cls: type[T], doc: dict, **given: Any) -> T:
    """The ``cls`` instance whose ``to_doc`` is ``doc``.

    ``given`` supplies fields the caller has already built, in place of the
    document's entries. A document with as many keys as ``cls`` has fields
    is copied whole; one with more is read for the fields alone.
    """
    names, converted = _field_codecs(cls)
    fields = (dict(doc) if len(doc) == len(names)
              else {name: doc[name] for name in names if name not in given})
    for name, _, decode in converted:
        if name not in given:
            fields[name] = decode(fields[name])
    fields.update(given)
    return cls(**fields)


@functools.cache
def _field_codecs(cls: type) -> tuple[tuple[str, ...], tuple[tuple[str, Callable, Callable], ...]]:
    """The field names of dataclass ``cls``, and (name, encode, decode) per field to convert."""
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    codecs = ((name, *_codec(hints[name])) for name in names)
    return names, tuple(codec for codec in codecs if codec[1] is not None)


def _codec(hint: Any) -> tuple[Callable | None, Callable | None]:
    """(encode, decode) for a value of type ``hint``; None, None when JSON holds it as is."""
    if hint is bytes:
        return bytes.hex, bytes.fromhex
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return operator.attrgetter("value"), hint
    if dataclasses.is_dataclass(hint):
        return to_doc, functools.partial(from_doc, hint)
    if typing.get_origin(hint) is tuple:
        item, *rest = typing.get_args(hint)
        if any(arg not in (item, Ellipsis) for arg in rest):
            raise TypeError(f"no document rule for {hint}: its items differ in type")
        encode, decode = _codec(item)
        if encode is None:
            return list, tuple
        return (lambda items: [encode(i) for i in items]), (lambda items: tuple(map(decode, items)))
    return None, None
