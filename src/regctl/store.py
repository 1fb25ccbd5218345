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
file either as it was or as it was to become.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import enum
import functools
import json
import operator
import os
import tempfile
import typing
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from .errors import EncodingError, RegctlError

T = TypeVar("T")


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``; a failed write removes its temp file."""
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


# -- record streams --------------------------------------------------------------

def write_records(path: Path, records: Iterable[bytes]) -> None:
    write_atomic(path, b"".join(map(binascii.b2a_base64, records)))  # each ends in "\n"


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


def read_stream_text(path: Path) -> str:
    """A record-stream file as text for ``parse_records``.

    latin-1 maps every byte to one character, so a non-ASCII byte fails
    its line's base64 check instead of the whole file's text decoding.
    """
    return path.read_bytes().decode("latin-1")


def read_records(path: Path, decode: Callable[[bytes], T]) -> list[T]:
    """Read a record stream; a missing file is empty, a bad line raises EncodingError."""
    if not path.exists():
        return []
    records, bad = parse_records(read_stream_text(path), decode)
    if bad is not None:
        raise EncodingError(f"{path}: undecodable record at line {bad}")
    return records


# -- JSON documents ------------------------------------------------------------------

def write_json(path: Path, doc: Any) -> None:
    write_atomic(path, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii"))


def read_json(path: Path) -> Any:
    """The document at ``path``, or None when there is no file."""
    if not path.exists():
        return None
    return json.loads(path.read_bytes())


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
