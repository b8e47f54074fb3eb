"""Deterministic discrete-event engine.

All simulation time is integer microseconds.  Events fire in
(fire_time, sequence) order, so two events scheduled for the same
microsecond are processed in the order they were scheduled.  Nothing in
here touches the wall clock; a run is a pure function of the scenario
and its seeds.

A heap entry is just ``(fire_time, sequence, action)``.  A trial
schedules no event: it numbers its frames, ticks, probes and handshake
items with its own counter and runs them from its own loop (see
``trial.py``).  Events are scheduled by `TokenRing.enqueue` when asked
for a delivery event, and by callers that drive the ring through the
engine.

Every time value given in ms or s becomes µs by one rule, `us_from`:
finite, >= 0 and a whole number of µs, or a ValueError with one wording
per reason, to which each caller (flag, INI key, matrix line) adds its location.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

SimTime = int  # microseconds since simulation start

US_PER_MS = 1_000
US_PER_S = 1_000_000


def us_from(value: float, unit: str, positive: bool = False) -> SimTime:
    """`value` in `unit` (``"ms"`` or ``"s"``) as integer µs, or a ValueError
    unless it is finite and >= 0 (> 0 if `positive`, as for a length), its µs
    count fits a float, and it is a whole number of µs up to the float rounding
    of the value itself: 0.05 ms is 50 µs, but 0.5004 ms is refused."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{value} {unit} is not finite and >= 0")
    if positive and not value:
        raise ValueError(f"{value} {unit} is not > 0")
    scale = {"ms": US_PER_MS, "s": US_PER_S}[unit]
    try:
        us = round(value * scale)
        if us / scale == value:
            return us
    except OverflowError:  # round(inf), or an int too large for a float
        raise ValueError(f"{value} {unit} is too large to count in us") from None
    raise ValueError(f"{value} {unit} is not a whole number of us")


class CausalityError(ValueError):
    """Raised when an event is scheduled before the current clock."""


@dataclass(slots=True)
class RunSummary:
    events_processed: int
    clock: SimTime


class Simulator:
    """Single-threaded event loop owning one simulation's clock and queue.

    Instances are independent; running several in parallel processes or
    threads is safe as long as each is driven by one caller only.
    """

    def __init__(self):
        self._clock: SimTime = 0
        self._seq = itertools.count(1)
        self._event_seq = 0
        self._heap: list[tuple[SimTime, int, Callable[[], None]]] = []
        self._events_processed = 0

    @property
    def now(self) -> SimTime:
        return self._clock

    @property
    def event_key(self) -> tuple[SimTime, int]:
        """``(fire_time, sequence)`` of the event being processed."""
        return (self._clock, self._event_seq)

    def schedule(self, fire_time: SimTime, action: Callable[[], None]) -> int:
        """Enqueue an event at integer-µs `fire_time`; returns its sequence number."""
        if fire_time < self._clock:
            raise CausalityError(
                f"causality violation: cannot schedule at t={fire_time} "
                f"when clock is {self._clock}"
            )
        seq = next(self._seq)
        heapq.heappush(self._heap, (fire_time, seq, action))
        return seq

    def run_until(self, t_end: SimTime) -> RunSummary:
        """Process every event with fire_time <= t_end, including those they
        schedule; the clock ends at t_end."""
        heap = self._heap
        pop = heapq.heappop
        processed = self._events_processed
        try:
            while heap and heap[0][0] <= t_end:
                fire_time, seq, action = pop(heap)
                self._clock = fire_time
                self._event_seq = seq
                processed += 1
                action()
        finally:
            self._events_processed = processed
        self._clock = t_end
        return RunSummary(processed, t_end)


# ---------------------------------------------------------------------------
# Seed derivation and per-component RNG streams.

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int | str) -> int:
    """Fold integers and labels into one 64-bit seed, stably across platforms.

    Every stochastic component gets its own stream via a distinct label, so
    adding a component to a scenario never disturbs another component's draws.
    """
    state = 0x5DEECE66D
    for part in parts:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                state = _splitmix64(state ^ byte)
        else:
            state = _splitmix64(state ^ (int(part) & _MASK64))
    return _splitmix64(state)


def component_rng(seed: int, *stream: int | str) -> random.Random:
    """Seeded generator for one named component of one run."""
    return random.Random(derive_seed(seed, *stream))
