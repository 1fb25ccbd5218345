"""Arithmetic the benchmark reports: percentiles, trimmed means and span self time.

Kept free of any regctl import so the tests can check it in isolation.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. Always returns one of the samples."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of the samples left after dropping the lowest and the highest
    ``cut`` share of them, rounded down but at least one at each end when
    there are three or more, so one stray sample never moves a short series."""
    if not values:
        raise ValueError("mean of no samples")
    ordered = sorted(values)
    k = max(int(len(ordered) * cut), 1) if len(ordered) >= 3 else 0
    kept = ordered[k:len(ordered) - k]
    return sum(kept) / len(kept)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(math.ceil(q / 100 * n), 1) if n else 0


def self_times(parents: Sequence[int], starts: Sequence[int], ends: Sequence[int]) -> list[int]:
    """Each span's duration minus the part of it covered by its children.

    Spans are indexed by position; ``parents[i]`` is the index of span i's
    parent, or -1 for a root. Child intervals are clipped to the parent and
    merged before subtraction, so overlapping or overhanging children are
    never counted twice.
    """
    children: list[list[int]] = [[] for _ in parents]
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, kids in enumerate(children):
        start, end = starts[i], ends[i]
        covered = 0
        cursor = start
        for lo, hi in sorted((max(starts[k], start), min(ends[k], end)) for k in kids):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def nearest_ancestor(parents: Sequence[int], names: Sequence[int], wanted: int) -> list[int]:
    """For every span, the index of its closest ancestor-or-self whose name
    id is ``wanted``, or -1. Parents must precede their children."""
    out = [-1] * len(parents)
    for i, parent in enumerate(parents):
        if names[i] == wanted:
            out[i] = i
        elif parent >= 0:
            out[i] = out[parent]
    return out
