"""Process CPU time at a reference host speed, sampled while the benchmark runs.

A shared host slows this process in two ways. Its virtual CPU is taken
away for stretches of milliseconds (steal time, and other processes of the
guest): wall time goes on, process CPU time does not. And while it runs,
co-tenants on the same cores and caches slow it by up to half, for
stretches of a fraction of a second to minutes: CPU time slows with wall
time. The benchmark times operations in process CPU time, which leaves out
the first, and scales them by a sampled slowdown, which takes out the
second.

A timer signal runs a small kernel every ``INTERVAL_S`` (a pure-Python
dict and string loop and one Ed25519 sign and verify, the two kinds of work
regctl's hot path does) and records how much CPU time it took. The kernel
uses neither regctl nor its data, so a change to the program cannot change
the kernel's cost. ``factor`` says how much slower than the reference speed
the host ran over a stretch of samples; dividing a duration by it gives the
duration at the reference speed.

``clock`` is ``time.process_time`` and ``wall_clock`` is
``time.perf_counter``, each minus the time spent in the kernel, so
durations read from them exclude the sampling.
"""
from __future__ import annotations

import contextlib
import gc
import signal
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from stats import trimmed_mean

INTERVAL_S = 0.02
# CPU time of one kernel run at the reference speed: the fast level of a
# 2-vCPU virtual machine (Python 3.11.7, cryptography 48.0.0).
REFERENCE_S = 0.35e-3

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(range(256))


def kernel() -> int:
    acc = 0
    table: dict[str, int] = {}
    for i in range(300):
        key = f"k{i % 64}"
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFFFF
    _PUBLIC.verify(_KEY.sign(_MESSAGE), _MESSAGE)
    return acc


samples: list[float] = []   # CPU seconds of each kernel run, in order
_spent = 0.0                # CPU seconds spent in the kernel so far
_spent_wall = 0.0           # wall seconds spent in the kernel so far


def clock() -> float:
    return time.process_time() - _spent


def wall_clock() -> float:
    return time.perf_counter() - _spent_wall


def _tick(signum, frame) -> None:
    global _spent, _spent_wall
    collecting = gc.isenabled()
    gc.disable()  # the program's garbage is not the kernel's cost
    started, started_wall = time.process_time(), time.perf_counter()
    kernel()
    took = time.process_time() - started
    _spent_wall += time.perf_counter() - started_wall
    if collecting:
        gc.enable()
    samples.append(took)
    _spent += took
    # one-shot, re-armed after the kernel, so ticks never pile up
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)


@contextlib.contextmanager
def running():
    """Sample the kernel every ``INTERVAL_S`` while the block runs."""
    kernel()  # warm: the first run pays for imports and key setup
    previous = signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def mark() -> int:
    """A position in the samples, to take ``factor`` from."""
    return len(samples)


def factor(since: int, until: int | None = None) -> float:
    """How many times slower than the reference speed the host ran over the
    samples between two marks: their trimmed mean over ``REFERENCE_S``."""
    window = samples[since:until]
    if not window:
        raise RuntimeError("no host speed samples in the measured stretch")
    return trimmed_mean(window) / REFERENCE_S
