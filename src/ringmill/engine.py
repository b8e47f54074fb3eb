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

Every time value given in ms or s becomes µs, and every bandwidth given in
MHz becomes kHz, by one rule, `us_from`: finite, >= 0 and a whole number of
the base unit, or a ValueError with one wording per reason, to which each
caller (flag, INI key, matrix line, script line) adds its location.

Every configured value is typed by one rule, `hold`, which each
configuration class applies to its fields first (`check_fields`).  A number
field's range is part of its annotation, ``Annotated[float, In("[0, 1]")]``,
and `hold` checks it after the kind: ``loss_rate 1.5 is not a number in [0, 1]``.

It also holds all that `cli` needs at load, so that a subcommand loads only
the modules it runs: the errors that `cli.main` reports with exit 2
(`ScriptError` for a script or matrix line, `ConfigError` for a scenario,
its flags or a file a flag names), `read_text` for such a file, `_fmt` for
the values an output line prints, and `US_PER_S`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import cache
from numbers import Real
from pathlib import Path
from typing import Annotated, Callable, get_args, get_origin, get_type_hints

SimTime = int  # microseconds since simulation start

US_PER_MS = 1_000
US_PER_S = 1_000_000
KHZ_PER_MHZ = 1_000


def us_from(value: float, unit: str, positive: bool = False) -> int:
    """`value` in `unit` as an int of its base unit (µs for ms and s, kHz for MHz), or
    a ValueError unless it is no bool, finite and >= 0 (> 0 if `positive`, as for a
    length), its count fits a float, and it is a whole number of the base unit up to the
    float rounding of the value itself: 0.05 ms is 50 µs, but 0.5004 ms is refused."""
    if type(value) is bool:  # True would count as 1
        raise ValueError(f"{value} {unit} is not a number")
    if not 0 <= value < math.inf:
        raise ValueError(f"{value} {unit} is not finite and >= 0")
    if positive and not value:
        raise ValueError(f"{value} {unit} is not > 0")
    scale, base = {"ms": (US_PER_MS, "us"), "s": (US_PER_S, "us"),
                   "MHz": (KHZ_PER_MHZ, "kHz")}[unit]
    try:
        count = round(value * scale)
        if count / scale == value:
            return count
    except OverflowError:  # round(inf), or an int too large for a float
        raise ValueError(f"{value} {unit} is too large to count in {base}") from None
    raise ValueError(f"{value} {unit} is not a whole number of {base}")


class ScriptError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ConfigError(ValueError):
    pass


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file at `path`, which a flag or key names; a file that
    is not UTF-8 is a `ConfigError` that names it, since a `UnicodeDecodeError` is
    a ValueError, not the OSError of a file that cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


def _fmt(value: float) -> str:
    # every whole-µs value reads back exactly; 0.5, 2 or 60 as with `:g`
    return f"{value:.15g}"


_KINDS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


class In:
    """The range of a number field, the second argument of its ``Annotated``
    annotation, written as an interval: ``In("[0, 1]")``, ``In("(0, inf)")``.
    NaN lies in no range."""

    __hash__ = None  # typing caches no alias holding one, so a re-import frees this module

    def __init__(self, text: str):
        low, high = text[1:-1].split(", ")
        self.text, self.low, self.high = text, float(low), float(high)
        self.open_low, self.open_high = text[0] == "(", text[-1] == ")"

    def __contains__(self, value) -> bool:
        return ((self.low < value if self.open_low else self.low <= value)
                and (value < self.high if self.open_high else value <= self.high))


def hold(value, hint, name: str):
    """`value` in the one form of the annotation `hint`, else a ValueError that says
    "<name> <value!r> is not <kind>", or "... <kind> in <range>" for one out of the range
    of ``Annotated[kind, In(range)]``.  An int, bool or str takes its own type only; a
    float any real number but a bool, held as a float; a ``tuple[...]`` a tuple or list of
    its length, held as a tuple of items held as ``name[i]``; anything else an instance."""
    if type(value) is hint:
        return value
    origin = get_origin(hint)
    if origin is Annotated:
        kind, interval = get_args(hint)
        held = hold(value, kind, name)
        if held in interval:
            return held
        raise ValueError(f"{name} {value!r} is not {_KINDS[kind]} in {interval.text}")
    kind = _KINDS.get(hint)
    if hint is float and type(value) is not bool and isinstance(value, Real):
        with suppress(OverflowError):  # an int or a Fraction too large for a float
            return float(value)
    elif origin is tuple:
        items = get_args(hint)
        variadic = items[-1] is Ellipsis
        if type(value) in (tuple, list) and (variadic or len(value) == len(items)):
            return tuple(hold(item, items[0 if variadic else i], f"{name}[{i}]")
                         for i, item in enumerate(value))
        kind = "a tuple" if variadic else f"a tuple of {len(items)}"
    elif not kind and isinstance(value, hint):
        return value
    kind = kind or " or ".join(f"a {m.__name__}" for m in get_args(hint) or [hint])
    raise ValueError(f"{name} {value!r} is not {kind}")


@cache
def field_hints(cls: type) -> dict[str, object]:
    """Each field of the dataclass `cls` with its annotation, range included, resolved once."""
    hints = get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in fields(cls)}


def check_fields(obj, error: type[ValueError] = ValueError) -> None:
    """Hold each field of the dataclass `obj` by `hold`, or raise `error` at the first."""
    try:  # object's setter: frozen classes allow it, and vars(obj) would slow every read
        for name, hint in field_hints(type(obj)).items():
            object.__setattr__(obj, name, hold(getattr(obj, name), hint, name))
    except ValueError as exc:
        raise error(str(exc)) from None


class CausalityError(ValueError):
    """Raised when an event is scheduled, or a ring frame admitted, before the clock."""


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
        self._heap: list[tuple[SimTime, int, Callable[[], None]]] = []
        self._events_processed = 0

    @property
    def now(self) -> SimTime:
        return self._clock

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
                fire_time, _, action = pop(heap)
                self._clock = fire_time
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
    A part that is neither a `str` nor an `int` (a float, a bool) raises a
    ValueError: 1.5 and True would fold as 1.
    """
    state = 0x5DEECE66D
    for part in parts:
        if type(part) is str:
            for byte in part.encode("utf-8"):
                state = _splitmix64(state ^ byte)
        elif type(part) is int:
            state = _splitmix64(state ^ (part & _MASK64))
        else:
            raise ValueError(f"seed part {part!r} is neither a string nor an integer")
    return _splitmix64(state)


#: a master or trial seed: `derive_seed` folds an int modulo 2**64, so a seed outside
#: this range would run the trials of the seed it is congruent to
Seed = Annotated[int, In("[0, 18446744073709551616)")]


def component_rng(seed: int, *stream: int | str) -> random.Random:
    """Seeded generator for one named component of one run."""
    return random.Random(derive_seed(seed, *stream))
