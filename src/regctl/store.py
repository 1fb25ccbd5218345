"""The state directory's storage: two formats over bytes, two writers.

* Record streams hold one record per line: the base64 of its canonical
  bytes, ended by ``"\\n"``. Decoding is strict: only ``"\\n"`` ends a
  line, the bytes must end with one, every line must be valid base64 that
  re-encodes to the identical text, and its bytes must decode; the first
  line that breaks a rule is reported. ``parse_records`` is the one
  strict decoder, which every strict load and ``verify-logs`` use: it
  checks the base64 of a whole stream in C, and only a stream that fails
  runs the line loop, to name the line.
* JSON documents are encoded with sorted keys and compact separators.
  A dataclass's document holds its fields by name: ``bytes`` as hex, an
  enum as its value, a nested dataclass as its own document, a tuple as a
  list of items of one type, and any other value as itself. ``to_doc``
  and ``from_doc`` apply the rule each way, by each field's annotation.

No service reads or writes a file itself. The deployment reads each
service's files and hands their bytes to the parsers here, and writes the
bytes the encoders here produce. A document, a silo's ``records.log`` and
any stream file the deployment cannot vouch for is written whole through
``write_atomic``: a temp file in the same directory, fsynced, then renamed
over the target, so a crash leaves it either as it was or as it was to
become. A file that already holds exactly the bytes to write is left
alone. A record stream the event log or the registry saves is a ``Tail``:
the lines added since the stream last read or wrote its file, which
``write_tail`` appends and fsyncs when that file still holds the bytes the
stream left there, so a crash leaves it as it was, then some prefix of the
new bytes. By ``stamp`` the deployment tells that a service's files still
hold its state: only an edit in place that keeps the size, within the
timestamp granularity, goes unseen.

In memory a record stream is a ``Stream``: the bytes a load kept,
undecoded, then the records appended since. A load keeps only bytes a
``FileMark`` vouches for by their SHA-256 and record count, as the
deployment's one checkpoint records them, and only ``Stream.hold``
decides that. It also drops the one thing an append cut short leaves, an
unterminated last line after the lines the mark vouches for. Kept bytes
are what a strict writer wrote, so they are decoded without the strict
check: each line through ``a2b_base64``, with no re-encoding to compare,
and a line that still fails raises EncodingError naming the file and the
line. ``Stream.find`` looks a record up among kept lines sorted by its
key, decoding only the lines it probes. A stream carries the SHA-256 state and
the size of the bytes it last read or wrote, so a load hashes them once
and a save encodes and hashes only the records appended since.
``sealed`` and ``unseal`` are the one seal, an HMAC over the JSON bytes of
a document's content, encoded once and checked over the bytes as read: a
document that is not byte for byte what ``sealed`` wrote is not trusted.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import dataclasses
import enum
import functools
import hashlib
import hmac
import json
import operator
import os
import tempfile
import typing
from pathlib import Path
from typing import Any, Callable, Generic, Iterable, Iterator, Mapping, TypeVar

from . import crypto
from .errors import CustodyError, EncodingError, RegctlError

T = TypeVar("T")

# a service's files as read: each path and its bytes, in the service's order; None if missing
Files = list[tuple[Path, bytes | None]]
Marked = tuple["bytes | Tail", "FileMark"]  # a file a load may hold as read, and its mark
Marks = Mapping[str, "FileMark"]  # the checkpoint's marks, by the name of the file each is of


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


def write_tail(path: Path, data: bytes) -> None:
    """Append ``data`` to the file at ``path`` and fsync it; no bytes, no write."""
    if not data:
        return
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


Stamp = tuple[tuple[int, int, int, int, int], ...]


def stamp(*paths: Path) -> Stamp | None:
    """The stat stamp of ``paths``: each file's device, inode, size, mtime
    and ctime in nanoseconds; None when one of them is missing."""
    try:
        return tuple((s.st_dev, s.st_ino, s.st_size, s.st_mtime_ns, s.st_ctime_ns)
                     for s in map(os.stat, paths))
    except FileNotFoundError:
        return None


# -- record streams --------------------------------------------------------------

def encode_records(records: Iterable[bytes]) -> bytes:
    return b"".join(map(binascii.b2a_base64, records))  # each ends in "\n"


def parse_records(data: bytes, decode: Callable[[bytes], T]) -> tuple[list[T], int | None]:
    """Decode the record stream ``data`` strictly: (records, None), or the
    records before its first bad line and that line's number.

    ``decode`` must be the exact inverse of the canonical encoding that
    wrote a record, and raise on anything else. ``a2b_base64`` ignores stray
    characters, so a line is canonical base64 exactly when the one
    re-encoding of all the lines gives the bytes back; only a stream that
    fails runs the line loop, which names the line.
    """
    try:
        blobs = list(map(binascii.a2b_base64, data.split(b"\n")))
        del blobs[-1]  # what follows the last "\n"
        if encode_records(blobs) == data:
            return list(map(decode, blobs)), None
    except (ValueError, RegctlError):  # binascii.Error is a ValueError
        pass
    return _parse_lines(data, decode)


def _parse_lines(data: bytes, decode: Callable[[bytes], T]) -> tuple[list[T], int | None]:
    """``parse_records`` one line at a time: the reference its one C check
    must agree with, and the loop that names the first bad line."""
    records: list[T] = []
    # only "\n" ends a record: splitlines() would also break on control
    # characters like \x0b, letting a mutated newline go unnoticed
    if data and not data.endswith(b"\n"):
        return records, data.count(b"\n")
    for i, line in enumerate(data.split(b"\n")[:-1]):
        try:
            blob = base64.b64decode(line, validate=True)
            if base64.b64encode(blob) != line:
                return records, i
            records.append(decode(blob))
        except (ValueError, RegctlError):  # binascii.Error is a ValueError
            return records, i
    return records, None


def decode_records(path: Path, data: bytes, decode: Callable[[bytes], T]) -> list[T]:
    """``parse_records`` of the bytes read from ``path``; a bad line raises
    EncodingError naming the file and the line."""
    records, bad = parse_records(data, decode)
    if bad is not None:
        raise EncodingError(f"{path}: undecodable record at line {bad}")
    return records


def _ends_at(data: bytes, count: int, tag: str) -> bool:
    """Whether the last line of the record stream ``data``, if any, begins
    as record ``count - 1`` does: with ``tag``, then that seq."""
    if not data:
        return count == 0
    try:
        last = binascii.a2b_base64(data[data.rfind(b"\n", 0, -1) + 1:])
        return last.startswith(crypto.canon_encode(tag, [count - 1]))
    except (ValueError, RegctlError):  # bytes no strict writer wrote; a seq past 64 bits
        return False


@dataclasses.dataclass(frozen=True)
class Tail:
    """A record stream's file as a save writes it: ``data`` appended after
    the ``at`` bytes the stream last read or wrote there. ``whole`` builds
    the whole file, for a file that no longer holds those bytes."""

    at: int
    data: bytes
    whole: Callable[[], bytes]


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
        self._lines: list[bytes] | None = None  # the kept bytes split into lines, once searched
        self._kept_last: T | None = None  # the last kept record, once decoded
        self._records = list(records)  # every record after the kept ones
        self._sha = hashlib.sha256()  # over the file bytes of the first ``_hashed`` records
        self._hashed = 0
        self._size = 0  # the bytes of those records: the file as last read or written

    def load(self, path: Path, data: bytes | None, mark: FileMark | None,
             tag: str | None = None) -> None:
        """Replace the stream with ``data``, read from ``path``: kept undecoded
        if ``mark`` vouches for it, else decoded strictly; None is empty."""
        rest = self.hold(path, data, mark, tag)
        if rest is not None:
            self._records = decode_records(path, rest, self._decode)

    def hold(self, path: Path, data: bytes | None, mark: FileMark | None,
             tag: str | None = None) -> bytes | None:
        """Hold ``data``, the bytes read from ``path`` (None is empty),
        undecoded if ``mark`` vouches for them, and return None; else empty
        the stream and return the bytes for the caller to decode strictly and
        append.

        A crash in the middle of an append leaves the lines ``mark`` vouches
        for, maybe more, then part of one line. That unterminated fragment is
        dropped when the file's first ``mark.count`` lines are those ``mark``
        vouches for; the stream then holds fewer bytes than the file, so its
        next save writes the file whole. ``data`` is hashed once, for the
        next save; a file with a fragment is hashed once more, up to its mark.
        A stream of records that begin with ``tag`` and then their seq, 0 for
        the first, is vouched for only when its last record's seq is
        ``mark.count - 1``, so a mark that miscounts them vouches for nothing.
        """
        whole = data = data or b""
        self.replace(())
        self._sha = hashlib.sha256(data)
        if mark is not None and self._sha.digest() != mark.sha256 and not data.endswith(b"\n"):
            sealed = len(data) - len(data.split(b"\n", mark.count)[-1])
            sha = hashlib.sha256(data[:sealed])
            if sha.digest() == mark.sha256:
                data = data[:data.rfind(b"\n") + 1]
                sha.update(data[sealed:])
                self._sha = sha
        self._size = len(data)
        if mark is None or self._sha.digest() != mark.sha256:
            self._hashed = data.count(b"\n")  # one record per line, once decoded
            return data
        if tag is not None and not _ends_at(data, mark.count, tag):
            return self.hold(path, whole, None)
        self._path, self._kept, self._kept_count = path, data, mark.count
        self._hashed = mark.count
        return None

    def __len__(self) -> int:
        return self._kept_count + len(self._records)

    @property
    def records(self) -> list[T]:
        """Every record, in order; kept bytes are decoded once, on first use."""
        if self._kept:
            try:
                kept = [self._decode(binascii.a2b_base64(line)) for line in self._kept_lines()]
            except (ValueError, RegctlError):  # bytes no strict writer wrote: name the line
                kept = decode_records(self._path, self._kept, self._decode)
            self._records[:0] = kept
            self._kept, self._kept_count, self._lines = b"", 0, None
        return self._records

    def _kept_lines(self) -> list[bytes]:
        if self._lines is None:
            self._lines = self._kept.split(b"\n")
            del self._lines[-1]  # what follows the last "\n"
        return self._lines

    def find(self, key: str, key_of: Callable[[T], str]) -> T | None:
        """The kept record whose ``key_of`` is ``key``; None if none of the
        kept records has it.

        The kept lines must be sorted by ``key_of``, as the writer the mark
        vouches for wrote them: they are binary-searched, and only the lines
        probed are decoded.
        """
        lines = self._kept_lines()
        low, high = 0, len(lines)
        while low < high:
            mid = (low + high) // 2
            record = self._decode_kept(lines[mid], mid)
            probed = key_of(record)
            if probed == key:
                return record
            if probed < key:
                low = mid + 1
            else:
                high = mid
        return None

    def last(self) -> T | None:
        """The last record, None if there is none; a kept one is decoded once."""
        if self._records:
            return self._records[-1]
        if self._kept and self._kept_last is None:
            line = self._kept[self._kept.rfind(b"\n", 0, -1) + 1:]
            self._kept_last = self._decode_kept(line, self._kept_count - 1)
        return self._kept_last

    def _decode_kept(self, line: bytes, at: int) -> T:
        """The record of kept line ``at``, ``line``; bytes no strict writer
        wrote raise EncodingError naming the stream's file and that line."""
        try:
            return self._decode(binascii.a2b_base64(line))
        except (ValueError, RegctlError):
            raise EncodingError(f"{self._path}: undecodable record at line {at}") from None

    def append(self, record: T) -> None:
        self._records.append(record)

    def tail(self) -> tuple[Tail, FileMark]:
        """The stream's file as a save writes it, and its mark: the records
        added since the file was last read or written, after the bytes it
        then held. Only those records are encoded and hashed, and the
        carried state then covers them too."""
        split = self._hashed - self._kept_count  # the first record not hashed
        data = encode_records(map(self._encode, self._records[split:]))
        self._sha.update(data)
        kept, written, encode = self._kept, self._records[:split], self._encode
        tail = Tail(self._size, data, lambda: kept + encode_records(map(encode, written)) + data)
        self._size += len(data)
        self._hashed = len(self)
        return tail, FileMark(self._sha.digest(), self._hashed)

    def file(self) -> tuple[bytes, FileMark]:
        """The stream's whole file, the kept bytes as they were read and then
        each later record, and its mark, as ``tail`` leaves them."""
        tail, mark = self.tail()
        return tail.whole(), mark


# -- sealed documents ------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FileMark:
    """The SHA-256 and record count (a document is one) of a file a load may hold."""

    sha256: bytes
    count: int

    def __post_init__(self):
        if len(self.sha256) != crypto.HASH_BYTES or not _is_count(self.count):
            raise ValueError("a mark is a 32-byte SHA-256 and a non-negative integer count")


def sealed(name: str, content: Any, key: bytes, tag: str) -> bytes:
    """The ``json_bytes`` of ``{name: content, "mac": ...}``: an HMAC keyed
    by ``key`` under ``tag`` over the JSON bytes of ``content``, encoded
    once, seals it."""
    body = json_bytes(content)
    head, tail = _frame(name, crypto.prf_derive(key, tag, body))
    return head + body + tail


def unseal(data: bytes | None, name: str, key: bytes, tag: str) -> Any:
    """The ``content`` that ``sealed`` encoded as ``data``; None when there
    are no bytes or they are not byte for byte what ``sealed`` writes under
    ``key``. The seal is checked over the content's bytes as read, and only
    bytes it vouches for are parsed."""
    if not data:
        return None
    head, tail = _frame(name, bytes(crypto.HASH_BYTES))  # an HMAC-SHA-256 is as long as a hash
    body = data[len(head):len(data) - len(tail)]
    head, tail = _frame(name, crypto.prf_derive(key, tag, body))
    return json.loads(body) if hmac.compare_digest(head + body + tail, data) else None


def _frame(name: str, mac: bytes) -> tuple[bytes, bytes]:
    """The bytes ``sealed`` writes before and after the content of a
    document named ``name`` sealed by ``mac``."""
    key = json_bytes(name) + b":"
    head, _, tail = json_bytes({name: None, "mac": mac.hex()}).partition(key + b"null")
    return head + key, tail


# -- JSON documents ------------------------------------------------------------------

def json_bytes(doc: Any) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def parse_json(path: Path, data: bytes | None) -> Any:
    """The document ``data``, read from ``path``, holds; None for no bytes,
    a missing file. Bytes that are not a JSON document raise EncodingError."""
    if data is None:
        return None
    try:
        return json.loads(data)
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


@contextlib.contextmanager
def named_file(path: Path | str) -> Iterator[None]:
    """Raise RegctlError naming ``path``, a file a command line names, when
    it cannot be read or written, or its text is not UTF-8."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text: {exc.reason}"
        raise RegctlError(f"{path}: {reason or exc}") from None


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0  # neither a bool nor a float is a count


def parse_count(path: Path, data: bytes | None) -> int:
    """The bare non-negative integer ``data``, read from ``path``, holds; 0 for no bytes."""
    count = parse_json(path, data)
    if count is not None and not _is_count(count):
        raise EncodingError(f"{path}: not a non-negative integer")
    return count or 0


def parse_counts(path: Path, data: bytes | None, what: str) -> dict[str, int]:
    """The non-negative integer ``what`` by key ``data`` holds; empty for no bytes."""
    counts = parse_json(path, data)
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
