"""The clock: a logical tick counter that only moves forward.

Scenario runs and every CLI command read time from it, so every TTL and
expiry check is deterministic; each CLI command advances it one tick.
"""

from __future__ import annotations


class Clock:
    def __init__(self):
        self._tick = 0

    def now(self) -> int:
        """The current tick."""
        return self._tick

    def advance(self, n: int = 1) -> None:
        self._tick += n

    def set_tick(self, tick: int) -> None:
        if tick < self._tick:
            raise ValueError("logical clock never moves backwards")
        self._tick = tick
