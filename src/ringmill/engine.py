"""Deterministic discrete-event engine.

All simulation time is integer microseconds.  Events fire in
(fire_time, sequence) order, so two events scheduled for the same
microsecond are processed in the order they were scheduled.  Nothing in
here touches the wall clock; a run is a pure function of the scenario
and its seeds.

A heap entry is just ``(fire_time, sequence, action)``.  Callers schedule
only the events that can change what a run decides.  An instant that
needs no heap entry can stay off the heap and keep its place all the
same: `reserve` takes the sequence number that `schedule` would have
given it, and ``(instant, number)`` sorts against the keys of queued
events exactly as the event would have sorted in the heap.  Both take
their numbers from one `itertools.count`, and `reserve` is that
counter's bound ``__next__``, so the tens of thousands of numbers a
trial reserves cost no Python frame.  A caller that runs such events
itself runs those that precede the first queued event (`next_key`),
then has the engine process that one event (`run_next`), and tells it
how many it ran (`count_off_heap`).  A trial keeps every control-phase
frame arrival, watchdog probe and servo tick off the heap this way (see
``trial.py``), so its control phase schedules no event at all.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable

SimTime = int  # microseconds since simulation start

US_PER_MS = 1_000
US_PER_S = 1_000_000


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
        # one counter numbers scheduled events and reserved keys alike;
        # `reserve()` is its bound ``__next__``: the number `schedule` would
        # give next, scheduling nothing (see the module docstring)
        self._seq = itertools.count(1)
        self.reserve = self._seq.__next__
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
        seq = next(self._seq)  # faster than calling the bound `reserve`
        heapq.heappush(self._heap, (fire_time, seq, action))
        return seq

    def run_before(self, key: tuple[SimTime, int]) -> int:
        """Process every event whose ``(fire_time, sequence)`` precedes `key`,
        including those they schedule; returns how many ran."""
        heap = self._heap
        pop = heapq.heappop
        processed = start = self._events_processed
        try:
            while heap and heap[0] < key:
                fire_time, seq, action = pop(heap)
                self._clock = fire_time
                self._event_seq = seq
                processed += 1
                action()
        finally:
            self._events_processed = processed
        return processed - start

    def next_key(self, limit: tuple[SimTime, int]) -> tuple[SimTime, int]:
        """The key of the first queued event if it precedes `limit`, else `limit`."""
        heap = self._heap
        return heap[0][:2] if heap and heap[0] < limit else limit

    def run_next(self, limit: tuple[SimTime, int]) -> tuple[SimTime, int]:
        """Process the first queued event; returns `next_key(limit)` after it."""
        fire_time, self._event_seq, action = heapq.heappop(self._heap)
        self._clock = fire_time
        self._events_processed += 1
        action()
        return self.next_key(limit)

    def count_off_heap(self, count: int, key: tuple[SimTime, int]) -> None:
        """Count `count` events run off the heap; the last one's `key` becomes `event_key`."""
        self._events_processed += count
        self._clock, self._event_seq = key

    def run_until(self, t_end: SimTime) -> RunSummary:
        """Process every event with fire_time <= t_end; clock ends at t_end."""
        self.run_before((t_end + 1, 0))  # sequence numbers start at 1
        self._clock = t_end
        return RunSummary(self._events_processed, t_end)


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
