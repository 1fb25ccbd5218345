"""Clock abstraction: real wall time or a logical tick counter.

Scenario runs and the CLI use the logical mode, so every TTL and expiry
check is deterministic; ``regctl --clock real`` selects real time.
"""

from __future__ import annotations

import time


class Clock:
    def __init__(self, mode: str):
        if mode not in ("real", "logical"):
            raise ValueError(f"unknown clock mode: {mode}")
        self.mode = mode
        self._tick = 0

    def now(self) -> int:
        """Current time in whole seconds (real) or ticks (logical)."""
        if self.mode == "real":
            return int(time.time())
        return self._tick

    def advance(self, n: int = 1) -> int:
        if self.mode != "logical":
            raise ValueError("advance() only applies to logical clocks")
        self._tick += n
        return self._tick

    def set_tick(self, tick: int) -> None:
        if self.mode != "logical":
            raise ValueError("set_tick() only applies to logical clocks")
        if tick < self._tick:
            raise ValueError("logical clock never moves backwards")
        self._tick = tick
