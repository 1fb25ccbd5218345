"""Leak scan over the benchmark's own output files.

Planted sentinel values all share one prefix, so regctl's own sentinel scan
(raw bytes and base64-decoded lines) looks for the prefix. Vids (20 digits)
and master ids (32 hex digits) are too many to search one by one, so every
digit or hex run long enough to hold one is cut into windows and looked up.
"""

from __future__ import annotations

import re
from pathlib import Path

from regctl.scenario import scan_for_sentinels
from regctl.vault import VID_DIGITS

MASTER_ID_HEX = 32
_DIGIT_RUN = re.compile(rb"[0-9]{%d,}" % VID_DIGITS)
_HEX_RUN = re.compile(rb"[0-9a-f]{%d,}" % MASTER_ID_HEX)


def _windows(blob: bytes, pattern: re.Pattern, width: int, wanted: set[bytes]) -> int:
    hits = 0
    for match in pattern.finditer(blob):
        run = match.group()
        hits += sum(1 for k in range(len(run) - width + 1) if run[k:k + width] in wanted)
    return hits


def scan_outputs(directory: Path, sentinel_prefix: str, vids: set[str],
                 master_ids: set[str]) -> list[str]:
    """Return one line per file that holds a sentinel, a vid or a master id."""
    hits = scan_for_sentinels(directory, [sentinel_prefix], exclude_top=())
    vid_bytes = {v.encode() for v in vids}
    master_bytes = {m.encode() for m in master_ids}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        n_vids = _windows(blob, _DIGIT_RUN, VID_DIGITS, vid_bytes)
        n_masters = _windows(blob, _HEX_RUN, MASTER_ID_HEX, master_bytes)
        if n_vids or n_masters:
            hits.append(f"{path.name}: {n_vids} vid(s), {n_masters} master id(s)")
    return hits
