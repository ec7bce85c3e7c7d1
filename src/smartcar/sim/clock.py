"""Simulation time: integer milliseconds, moved only by advance()."""

from __future__ import annotations


class SimClock:
    """Monotone millisecond counter shared by the executor and devices."""

    def __init__(self):
        self.now_ms = 0

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ValueError(f"clock cannot move backwards: {ms}")
        self.now_ms += ms
