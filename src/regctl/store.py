"""The state directory's storage: two formats, one writer, one reader.

* Record streams hold one record per line: the base64 of its canonical
  bytes, ended by ``"\\n"``. Reading is strict: only ``"\\n"`` ends a
  line, the file must end with one, every line must be valid base64 that
  re-encodes to the identical text, and its bytes must decode; the first
  line that breaks a rule is reported.
* JSON documents are written with sorted keys and compact separators.

Every file is written whole by ``write_atomic``: a temp file in the same
directory, fsynced, then renamed over the target, so a crash leaves each
file either as it was or as it was to become.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import tempfile
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


def read_records(path: Path, decode: Callable[[bytes], T]) -> list[T]:
    """Read a record stream; a missing file is empty, a bad line raises EncodingError."""
    if not path.exists():
        return []
    # latin-1 maps every byte to one character, so a non-ASCII byte fails
    # its line's base64 check instead of the whole file's text decoding
    records, bad = parse_records(path.read_bytes().decode("latin-1"), decode)
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
