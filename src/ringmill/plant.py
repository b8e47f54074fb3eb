"""Machine-tool axis model, controller gains, trajectories and loop configuration.

One axis with a first-order velocity lag and kinematic clamps stands in
for the milling machine: simple enough to reason about, yet genuinely
sensitive to loop delay and jitter.  The controller is a PID on position
error with velocity feedforward, emitting velocity commands toward the
remote motion stage.  ``LoopConfig`` carries the supervision parameters
(following-error limit, watchdog, init-qualification thresholds) in the
``default`` and ``adapted`` driver flavours; its µs fields are integers.

A trajectory holds plain floats from the moment it is made, and its
`sampler` is a closure with its constants bound (a trapezoid's leg times, a
table's segments), the one way it is sampled: it fills the setpoint tables
(below).  The controller's and the axis's arithmetic runs in the trial loop
(`trial._LoopHarness._run_ticks`), which binds the `PidGains` and the
`AxisModel` constants once per trial and keeps the state in float locals.
The loop holds the only copy in `src/`; the heap kernel pins it, bit for
bit, against ``tests/reference_plant.py``, the sign of a zero included.
No closure is stored on a trajectory or a config, so both stay picklable.

Every controller tick falls a whole number k of servo periods after the
control start, so every trial of a trajectory and period samples the same
instants.  `setpoint_table` holds ``sampler()(k * period)`` by k, filled
by the sampler in chunks of `SETPOINT_CHUNK` ticks as trials reach them,
and a trial reads its setpoints there.  The tables live in a module cache
of at most `SETPOINT_TABLES`, the oldest dropped first.  The cache key is
the trajectory's class, its attributes as one `marshal` call writes them,
each float by its 8 bytes, and the period: trajectories that compare equal
may still sample apart (a table point of 0.0 and one of -0.0 are ==, yet
give feedforwards of opposite sign), and two built apart from the same
values share a table.  The key is one `marshal` call because a trajectory
holds plain floats: marshal writes no float subclass, and an int 20 would
key apart from 20.0.  A lock guards the cache and each fill, so trials on
several threads may share a table.
"""

from __future__ import annotations

import csv
import enum
import io
import marshal
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import pairwise
from typing import Annotated, Callable

from .engine import In, SimTime, US_PER_S, check_fields


@dataclass
class AxisModel:
    """Single translational axis driven by velocity commands."""

    time_constant_s: Annotated[float, In("(0, inf)")] = 0.005
    max_velocity_mm_s: float = 50.0
    max_accel_mm_s2: float = 1000.0
    position_mm: float = 0.0
    velocity_mm_s: float = 0.0

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class PidGains:
    # a NaN gain makes every command and position NaN, and a NaN
    # following error never exceeds the limit
    kp: Annotated[float, In("(-inf, inf)")]  # (mm/s) per mm
    ki: Annotated[float, In("(-inf, inf)")] = 0.0  # (mm/s) per mm*s
    kd: Annotated[float, In("(-inf, inf)")] = 0.0  # (mm/s) per mm/s
    integral_clamp: Annotated[float, In("[0, inf)")] = 0.05  # mm*s bound on the accumulated error

    def __post_init__(self):
        check_fields(self)


# ---------------------------------------------------------------------------
# Reference trajectories.


@dataclass(frozen=True)
class TrapezoidTrajectory:
    """Repeating trapezoidal move between 0 and `amplitude_mm` with dwells.

    A stand-in for milling motion: accelerate at `accel_mm_s2` to
    `velocity_mm_s`, cruise, decelerate, dwell, and return.
    """

    amplitude_mm: Annotated[float, In("(0, inf)")] = 20.0
    velocity_mm_s: Annotated[float, In("(0, inf)")] = 50.0
    accel_mm_s2: Annotated[float, In("(0, inf)")] = 1000.0
    dwell_s: Annotated[float, In("[0, inf)")] = 0.2

    def __post_init__(self):
        check_fields(self)  # plain floats: an int or a Fraction samples and keys as its float
        amplitude, vmax, accel = self.amplitude_mm, self.velocity_mm_s, self.accel_mm_s2
        t_ramp = vmax / accel
        d_ramp = 0.5 * accel * t_ramp * t_ramp
        if 2 * d_ramp > amplitude:
            # short move: triangular profile, never reaches vmax
            t_ramp = (amplitude / accel) ** 0.5
            d_ramp = amplitude / 2
            vmax = accel * t_ramp
        t_cruise = (amplitude - 2 * d_ramp) / vmax
        t_move = 2 * t_ramp + t_cruise
        # derived constants, not fields: the dataclass compares and writes
        # out only the constructor inputs
        self.__dict__.update(vmax=vmax, _t_ramp=t_ramp, _d_ramp=d_ramp, _t_cruise=t_cruise,
                             _t_move=t_move, period_s=2 * (t_move + self.dwell_s))

    def sampler(self) -> Callable[[SimTime], tuple[float, float]]:
        """``sample(t_us) -> (setpoint mm, feedforward mm/s)`` at trajectory
        time t, with the legs' constants bound."""
        amplitude, a, vm = self.amplitude_mm, self.accel_mm_s2, self.vmax
        half_a = 0.5 * a
        tr, d_ramp, t_move = self._t_ramp, self._d_ramp, self._t_move
        cruise_end = tr + self._t_cruise
        half, period = t_move + self.dwell_s, self.period_s

        def sample(t_us: SimTime) -> tuple[float, float]:
            t = (t_us / US_PER_S) % period
            forward = t < half
            if not forward:
                t -= half  # the move back mirrors the move out
            # position and velocity within one move out, from rest at 0
            if t < tr:
                pos, vel = half_a * t * t, a * t
            elif t < cruise_end:
                pos, vel = d_ramp + vm * (t - tr), vm
            elif t < t_move:
                td = t_move - t
                pos, vel = amplitude - half_a * td * td, a * td
            else:
                pos, vel = amplitude, 0.0
            if forward:
                return pos, vel
            return amplitude - pos, -vel

        return sample


@dataclass(frozen=True)
class TabulatedTrajectory:
    """Trajectory from (time ms, setpoint mm) samples, linearly interpolated.

    The table starts at 0 ms and repeats with the period of its last time.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        check_fields(self)
        if len(self.points) < 2:
            raise ValueError("points holds fewer than 2 points")
        if self.points[0][0] != 0:
            raise ValueError(f"points start at {self.points[0][0]:g} ms, not 0")
        times = [t / 1000.0 for t, _ in self.points]  # seconds
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("points times are not strictly increasing")
        self.__dict__.update(_t=times, _x=[x for _, x in self.points], period_s=times[-1])

    def sampler(self) -> Callable[[SimTime], tuple[float, float]]:
        """``sample(t_us) -> (setpoint mm, feedforward mm/s)`` at trajectory
        time t, with the segments' constants bound."""
        times, period, last = self._t, self.period_s, len(self._t) - 1
        # (start, span, start setpoint, rise, velocity) of each segment
        segments = [(t0, t1 - t0, x0, x1 - x0, (x1 - x0) / (t1 - t0))
                    for (t0, x0), (t1, x1) in pairwise(zip(times, self._x))]

        def sample(t_us: SimTime) -> tuple[float, float]:
            t = (t_us / US_PER_S) % period
            # the last segment to start by t; the search covers times[1:last],
            # so a t at or past the end falls in the last segment
            t0, span, x0, rise, vel = segments[bisect_right(times, t, 1, last) - 1]
            return x0 + (t - t0) / span * rise, vel

        return sample


def load_trajectory_csv(text: str) -> TabulatedTrajectory:
    """Parse a `time_ms,setpoint_mm` CSV (header optional).

    A row that is not two finite numbers, past the header, or a first row
    whose time is not 0, raises a ValueError naming its line.
    """
    points = []
    rows = csv.reader(io.StringIO(text))
    for row in rows:
        if not row or not row[0].strip():
            continue
        try:
            point = float(row[0]), float(row[1])
        except IndexError:
            raise ValueError(f"line {rows.line_num}: no setpoint_mm after {row[0]}") from None
        except ValueError as exc:
            if points:
                raise ValueError(f"line {rows.line_num}: {exc}") from None
            continue  # header row
        if not all(map(math.isfinite, point)):
            raise ValueError(f"line {rows.line_num}: {row[0]},{row[1]} is not finite")
        if not points and point[0] != 0:
            raise ValueError(f"line {rows.line_num}: the table starts at {row[0]} ms, not 0")
        points.append(point)
    return TabulatedTrajectory(tuple(points))


#: Setpoint tables kept at once, and the controller ticks a table grows by.
SETPOINT_TABLES = 4
SETPOINT_CHUNK = 1024

# (trajectory class, its attributes as marshal writes them, servo period)
# -> (table, grow), oldest first
_setpoint_tables: dict[tuple[type, bytes, int], tuple[list, Callable[[], None]]] = {}
# trials on several threads may share the cache and a table
_setpoint_lock = threading.Lock()


def setpoint_table(trajectory: TrapezoidTrajectory | TabulatedTrajectory, period_us: int
                   ) -> tuple[list[tuple[float, float]], Callable[[], None]]:
    """The table of ``trajectory.sampler()(k * period_us)`` by k, shared by
    every trial of this trajectory and period, and the function that fills
    its next `SETPOINT_CHUNK` entries.  See the module docstring."""
    # version 2 writes each float as its 8 bytes and shares no reference
    key = type(trajectory), marshal.dumps(vars(trajectory), 2), period_us
    with _setpoint_lock:
        entry = _setpoint_tables.get(key)
        if entry is None:
            sample, table = trajectory.sampler(), []

            def grow() -> None:
                with _setpoint_lock:
                    start = len(table) * period_us
                    table.extend(map(sample, range(start, start + SETPOINT_CHUNK * period_us,
                                                   period_us)))

            if len(_setpoint_tables) >= SETPOINT_TABLES:
                del _setpoint_tables[next(iter(_setpoint_tables))]
            entry = _setpoint_tables[key] = table, grow
    return entry


# ---------------------------------------------------------------------------
# Loop configuration and trial verdicts.


class Profile(str, enum.Enum):
    DEFAULT = "default"
    ADAPTED = "adapted"


@dataclass(frozen=True)
class LoopConfig:
    """Supervision and tuning parameters for one driver flavour.

    The adapted flavour models the driver/watchdog/controller retuning a
    marginal link needs: it must not be tighter than the default one on
    init grace or watchdog timeout.
    """

    profile: Profile
    gains: PidGains
    # the stage ticks half a period after the controller, and 1 µs has no half period
    servo_period_us: Annotated[int, In("[2, inf)")]
    watchdog_timeout_us: Annotated[int, In("(0, inf)")]
    init_grace_us: Annotated[int, In("(0, inf)")]
    fe_limit_mm: Annotated[float, In("(0, inf)")]
    # link-qualification thresholds applied during initialization
    delay_spread_tolerance_us: Annotated[int, In("[0, inf)")]
    rtt_rescue_budget_us: Annotated[int, In("[0, inf)")]

    def __post_init__(self):
        check_fields(self)  # integer µs: a float would give float tick and probe instants
        # feedback comes once per servo period: a shorter watchdog expires between frames
        if not self.watchdog_timeout_us >= self.servo_period_us:
            raise ValueError(f"watchdog_timeout_us {self.watchdog_timeout_us} is less than "
                             f"servo_period_us {self.servo_period_us}")


def validate_config_pair(default: LoopConfig, adapted: LoopConfig) -> None:
    """Refuse a pair that is not (default, adapted), or whose adapted flavour is
    tighter on init grace or watchdog timeout; each config is named as a manifest
    holds it, the adapted one first."""
    if default.profile is not Profile.DEFAULT or adapted.profile is not Profile.ADAPTED:
        raise ValueError("config pair must be (default, adapted)")
    for name in ("init_grace_us", "watchdog_timeout_us"):
        if getattr(adapted, name) < getattr(default, name):
            raise ValueError(f"adapted_config {name} {getattr(adapted, name)} is less than "
                             f"default_config's {getattr(default, name)}")


class FailCause(enum.Enum):
    NONE = "none"
    FOLLOWING_ERROR = "following-error"
    WATCHDOG = "watchdog"
    INIT_FAILURE = "init-failure"


@dataclass(frozen=True)
class TrialVerdict:
    passed: bool
    fail_cause: FailCause
    max_following_error_mm: Annotated[float, In("[0, inf)")]
    survived_us: Annotated[SimTime, In("[0, inf)")]

    def __post_init__(self):
        check_fields(self)
        if self.passed != (self.fail_cause is FailCause.NONE):
            raise ValueError(f"passed {self.passed} but fail_cause {self.fail_cause.value}")
