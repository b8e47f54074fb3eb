import math
import re
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from reference_plant import PidController, step_axis

from ringmill import plant
from ringmill.plant import (SETPOINT_CHUNK, SETPOINT_TABLES, AxisModel, FailCause, LoopConfig,
                            PidGains, Profile, TabulatedTrajectory, TrapezoidTrajectory,
                            TrialVerdict, load_trajectory_csv, setpoint_table,
                            validate_config_pair)
from ringmill.trial import ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG, NOMINAL_GAINS


class TestStepAxis:
    def test_equilibrium_is_a_fixed_point(self):
        axis = AxisModel(position_mm=3.0, velocity_mm_s=0.0)
        step_axis(axis, 0.0, 1000)
        assert axis.position_mm == 3.0 and axis.velocity_mm_s == 0.0

    def test_step_response_settles_within_five_time_constants(self):
        axis = AxisModel(time_constant_s=0.005)
        for _ in range(25):  # 25 ms = 5 tau
            step_axis(axis, 10.0, 1000)
        assert abs(axis.velocity_mm_s - 10.0) <= 0.1  # within 1 %

    def test_grid_refinement_converges(self):
        # halving dt and doubling steps changes the result by < 0.1 %
        coarse = AxisModel()
        for _ in range(1000):
            step_axis(coarse, 30.0, 1000)
        fine = AxisModel()
        for _ in range(2000):
            step_axis(fine, 30.0, 500)
        assert coarse.position_mm > 0
        assert abs(fine.position_mm - coarse.position_mm) / coarse.position_mm < 1e-3

    def test_acceleration_clamp(self):
        axis = AxisModel(max_accel_mm_s2=100.0, time_constant_s=0.001)
        step_axis(axis, 50.0, 1000)
        assert axis.velocity_mm_s == pytest.approx(0.1)  # 100 mm/s^2 * 1 ms

    def test_velocity_clamp(self):
        axis = AxisModel(max_velocity_mm_s=5.0, max_accel_mm_s2=1e9)
        for _ in range(100):
            step_axis(axis, 100.0, 1000)
        assert axis.velocity_mm_s == 5.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_axis(AxisModel(), 0.0, 0)

    @given(cmd=st.floats(min_value=-100, max_value=100),
           steps=st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_kinematic_limits_always_hold(self, cmd, steps):
        axis = AxisModel()
        previous_v = axis.velocity_mm_s
        for _ in range(steps):
            step_axis(axis, cmd, 1000)
            assert abs(axis.velocity_mm_s) <= axis.max_velocity_mm_s
            dv_dt = abs(axis.velocity_mm_s - previous_v) / 0.001
            assert dv_dt <= axis.max_accel_mm_s2 + 1e-9
            previous_v = axis.velocity_mm_s


class TestPidController:
    def test_zero_error_history_gives_zero_command(self):
        pid = PidController(PidGains(kp=40.0, ki=2.0, kd=1.0), 1000)
        for _ in range(10):
            assert pid.tick(5.0, 5.0) == 0.0

    def test_pure_proportional_identity(self):
        pid = PidController(PidGains(kp=7.0), 1000)
        assert pid.tick(2.0, 0.5) == pytest.approx(7.0 * 1.5)

    def test_integral_clamp_engages_exactly(self):
        gains = PidGains(kp=0.0, ki=10.0, integral_clamp=0.02)
        pid = PidController(gains, 1000)
        for _ in range(1000):  # sustained 1 mm error would integrate to 1.0
            command = pid.tick(1.0, 0.0)
        assert pid.integral == 0.02
        assert command == pytest.approx(10.0 * 0.02)

    def test_feedforward_is_added(self):
        pid = PidController(PidGains(kp=2.0), 1000)
        assert pid.tick(1.0, 1.0, feedforward_mm_s=33.0) == 33.0

    def test_derivative_term(self):
        pid = PidController(PidGains(kp=0.0, kd=0.5), 1000)
        pid.tick(0.0, 0.0)
        assert pid.tick(0.001, 0.0) == pytest.approx(0.5 * 0.001 / 0.001)

    def test_reset_clears_state(self):
        pid = PidController(PidGains(kp=1.0, ki=5.0), 1000)
        pid.tick(1.0, 0.0)
        pid.reset()
        assert pid.integral == 0.0


class TestTrapezoidTrajectory:
    def test_starts_at_rest_at_origin(self):
        pos, vel = TrapezoidTrajectory().sampler()(0)
        assert pos == 0.0 and vel == 0.0

    def test_reaches_amplitude_and_returns(self):
        traj = TrapezoidTrajectory(amplitude_mm=20.0)
        sample, half_us = traj.sampler(), round(traj.period_s / 2 * 1e6)
        assert sample(half_us - 1)[0] == pytest.approx(20.0, abs=1e-6)
        assert sample(round(traj.period_s * 1e6) - 1)[0] == pytest.approx(0.0, abs=1e-3)

    def test_velocity_bounded_by_vmax(self):
        traj = TrapezoidTrajectory(velocity_mm_s=50.0)
        sample = traj.sampler()
        vels = [abs(sample(t)[1]) for t in range(0, int(traj.period_s * 1e6), 997)]
        assert max(vels) <= 50.0 + 1e-9
        assert max(vels) == pytest.approx(50.0)

    def test_velocity_matches_position_derivative(self):
        traj = TrapezoidTrajectory()
        sample, dt = traj.sampler(), 50  # us
        for t in range(1000, int(traj.period_s * 1e6) - dt, 13_337):
            (pos, vel), (later, _) = sample(t), sample(t + dt)
            fd = (later - pos) / (dt / 1e6)
            assert fd == pytest.approx(vel, abs=traj.accel_mm_s2 * dt / 1e6 + 1e-6)

    def test_short_move_becomes_triangular(self):
        traj = TrapezoidTrajectory(amplitude_mm=1.0, velocity_mm_s=50.0,
                                   accel_mm_s2=1000.0)
        assert traj.vmax < 50.0
        sample = traj.sampler()
        top = max(sample(t)[0] for t in range(0, int(traj.period_s * 1e6), 211))
        assert top == pytest.approx(1.0, abs=1e-3)

    def test_a_move_that_just_reaches_full_speed_keeps_it(self):
        # the two ramps cover the amplitude exactly, so the profile is a
        # trapezoid with no cruise; deriving it as a triangle would round
        # vmax, through the square root, to 1.9999999999999998
        t = 2.0 / 1700.0
        traj = TrapezoidTrajectory(amplitude_mm=2 * (0.5 * 1700.0 * t * t), velocity_mm_s=2.0,
                                   accel_mm_s2=1700.0)
        assert traj.vmax == 2.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TrapezoidTrajectory(amplitude_mm=-1)

    @pytest.mark.parametrize("field", ["amplitude_mm", "velocity_mm_s", "accel_mm_s2",
                                       "dwell_s"])
    def test_rejects_nan_parameters(self, field):
        # a NaN setpoint could never fail on following error
        with pytest.raises(ValueError, match=f"^{field} nan is not a number in "):
            TrapezoidTrajectory(**{field: math.nan})

    @pytest.mark.parametrize("field", ["amplitude_mm", "velocity_mm_s", "accel_mm_s2"])
    def test_rejects_a_zero_move_speed_or_acceleration(self, field):
        # a zero divides by zero deriving the legs
        with pytest.raises(ValueError, match=rf"^{field} 0 is not a number in \(0, inf\)$"):
            TrapezoidTrajectory(**{field: 0})

    @pytest.mark.parametrize("field", ["amplitude_mm", "velocity_mm_s", "accel_mm_s2",
                                       "dwell_s"])
    def test_rejects_a_bool(self, field):
        # amplitude_mm=True ran a 1 mm move
        with pytest.raises(ValueError, match=f"^{field} True is not a number$"):
            TrapezoidTrajectory(**{field: True})

    @pytest.mark.parametrize("value", [20, Fraction(20), 20.0], ids=["int", "fraction", "float"])
    def test_holds_plain_floats(self, value):
        traj = TrapezoidTrajectory(amplitude_mm=value, velocity_mm_s=50, accel_mm_s2=1000,
                                   dwell_s=Fraction(1, 5))
        assert traj == TrapezoidTrajectory()
        for name in ("amplitude_mm", "velocity_mm_s", "accel_mm_s2", "dwell_s"):
            assert type(getattr(traj, name)) is float, name


class TestTabulatedTrajectory:
    def test_csv_parse_and_interpolation(self):
        sample = load_trajectory_csv("time_ms,setpoint_mm\n0,0\n100,10\n200,0\n").sampler()
        assert sample(50_000) == pytest.approx((5.0, 100.0))  # 10 mm over 0.1 s
        assert sample(150_000)[0] == pytest.approx(5.0)

    def test_wraps_around_period(self):
        sample = TabulatedTrajectory([(0.0, 0.0), (100.0, 10.0)]).sampler()
        assert sample(150_000) == pytest.approx(sample(50_000))

    def test_rejects_non_monotone_times(self):
        with pytest.raises(ValueError):
            TabulatedTrajectory([(0.0, 0.0), (50.0, 1.0), (50.0, 2.0)])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            load_trajectory_csv("0,0\n")

    @pytest.mark.parametrize("points, error", [
        (((0, 0.0), (True, 5.0), (2, 0.0)), r"points\[1\]\[0\] True"),
        (((0, 0.0), (1, 5.0), (2, False)), r"points\[2\]\[1\] False"),
    ], ids=["time", "setpoint"])
    def test_rejects_a_bool(self, points, error):
        # a True time ran as 1 ms
        with pytest.raises(ValueError, match=f"^{error} is not a number$"):
            TabulatedTrajectory(points)

    @pytest.mark.parametrize("points, first", [([(100, 0), (200, 10)], 100),
                                               ([(-100, 5), (200, 10)], -100)])
    def test_rejects_a_first_time_other_than_0(self, points, first):
        # from 100 ms, sample(0) extrapolated to -10 mm; from -100 ms, a 0.3 s
        # table repeated every 0.2 s
        with pytest.raises(ValueError, match=f"^points start at {first} ms, not 0$"):
            TabulatedTrajectory(points)

    def test_csv_names_the_line_of_a_first_time_other_than_0(self):
        with pytest.raises(ValueError, match="^line 2: the table starts at 100 ms, not 0$"):
            load_trajectory_csv("time_ms,setpoint_mm\n100,0\n200,10\n")

    @pytest.mark.parametrize("row", ["500,nan", "500,inf", "nan,5", "-inf,5"])
    def test_csv_rejects_a_non_finite_value_with_its_line(self, row):
        # a NaN setpoint makes every following-error test false: it can never fail
        with pytest.raises(ValueError, match=f"^line 3: {row} is not finite"):
            load_trajectory_csv(f"time_ms,setpoint_mm\n0,0\n{row}\n1000,0\n")


class TestConfigTypes:
    def test_loop_config_validation(self):
        with pytest.raises(ValueError):
            replace(DEFAULT_LOOP_CONFIG, servo_period_us=0)
        with pytest.raises(ValueError):
            replace(DEFAULT_LOOP_CONFIG, fe_limit_mm=0.0)

    def test_loop_config_has_no_field_default(self):
        # a default would build a driver that is neither shipped one
        with pytest.raises(TypeError):
            LoopConfig(Profile.DEFAULT, NOMINAL_GAINS)

    def test_loop_config_refuses_a_1_us_period(self):
        # the stage ticks half a period after the controller, and 1 us has no half
        with pytest.raises(ValueError, match=r"^servo_period_us 1 is not an integer in \[2, inf\)$"):
            replace(DEFAULT_LOOP_CONFIG, servo_period_us=1)

    @pytest.mark.parametrize("field, message", [
        ("servo_period_us", "servo_period_us nan is not an integer"),
        ("watchdog_timeout_us", "watchdog_timeout_us nan is not an integer"),
        ("init_grace_us", "init_grace_us nan is not an integer"),
        ("fe_limit_mm", "fe_limit_mm nan is not a number in (0, inf)"),
        ("delay_spread_tolerance_us", "delay_spread_tolerance_us nan is not an integer"),
        ("rtt_rescue_budget_us", "rtt_rescue_budget_us nan is not an integer"),
    ])
    def test_loop_config_rejects_nan(self, field, message):
        # a NaN following-error limit builds a loop that can never fail on it
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(DEFAULT_LOOP_CONFIG, **{field: math.nan})

    @pytest.mark.parametrize("field, value", [
        ("servo_period_us", 1000.5), ("watchdog_timeout_us", 2100.5),
        ("init_grace_us", 2_000_000.0), ("delay_spread_tolerance_us", 1035.5),
        ("rtt_rescue_budget_us", True),
    ])
    def test_loop_config_rejects_a_non_integer_us_value(self, field, value):
        # a servo period of 1000.5 us ran a trial on float tick instants
        with pytest.raises(ValueError, match=f"^{field} {value!r} is not an integer$"):
            replace(DEFAULT_LOOP_CONFIG, **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("kp", math.nan, "kp nan is not a number in (-inf, inf)"),
        ("ki", math.nan, "ki nan is not a number in (-inf, inf)"),
        ("kd", math.nan, "kd nan is not a number in (-inf, inf)"),
        ("kp", math.inf, "kp inf is not a number in (-inf, inf)"),
        ("ki", -math.inf, "ki -inf is not a number in (-inf, inf)"),
        ("integral_clamp", -0.1, "integral_clamp -0.1 is not a number in [0, inf)"),
        ("integral_clamp", math.nan, "integral_clamp nan is not a number in [0, inf)"),
    ])
    def test_pid_gains_reject_non_finite_or_negative(self, field, value, message):
        # with a NaN gain a trial at (0.5, 0.05) ms used to pass: a NaN
        # following error never exceeds the limit
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(NOMINAL_GAINS, **{field: value})

    @pytest.mark.parametrize("field", ["kp", "ki", "kd", "integral_clamp"])
    def test_pid_gains_refuse_a_bool(self, field):
        # kp=True ran a gain of 1
        with pytest.raises(ValueError, match=f"^{field} True is not a number$"):
            replace(NOMINAL_GAINS, **{field: True})

    def test_loop_config_refuses_a_bool_following_error_limit(self):
        # fe_limit_mm=True ran a 1 mm limit
        with pytest.raises(ValueError, match="^fe_limit_mm True is not a number$"):
            replace(DEFAULT_LOOP_CONFIG, fe_limit_mm=True)

    def test_axis_rejects_nan_time_constant(self):
        with pytest.raises(ValueError, match=r"^time_constant_s nan is not a number in \(0, inf\)$"):
            AxisModel(time_constant_s=math.nan)

    def test_adapted_must_not_be_tighter(self):
        validate_config_pair(DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        import dataclasses
        tight = dataclasses.replace(ADAPTED_LOOP_CONFIG, init_grace_us=1)
        with pytest.raises(ValueError):
            validate_config_pair(DEFAULT_LOOP_CONFIG, tight)
        with pytest.raises(ValueError):
            validate_config_pair(DEFAULT_LOOP_CONFIG, DEFAULT_LOOP_CONFIG)

    def test_trial_verdict_consistency(self):
        with pytest.raises(ValueError):
            TrialVerdict(True, FailCause.WATCHDOG, 0.0, 0)
        TrialVerdict(False, FailCause.WATCHDOG, 0.1, 5)


# ---------------------------------------------------------------------------
# The trajectories' sampling as it was before a trial compiled it, kept as
# references: every call reads the trajectory.  The `sampler` closures that fill
# the setpoint tables, and `sample`, must agree with them bit for bit, zero
# signs included.  The axis step and the PID tick have their reference in
# `reference_plant.py`, against which the heap kernel pins the trial loop.


def reference_leg(traj, t):
    a, vm, tr, tc = traj.accel_mm_s2, traj.vmax, traj._t_ramp, traj._t_cruise
    if t < tr:
        return 0.5 * a * t * t, a * t
    if t < tr + tc:
        return traj._d_ramp + vm * (t - tr), vm
    if t < traj._t_move:
        td = traj._t_move - t
        return traj.amplitude_mm - 0.5 * a * td * td, a * td
    return traj.amplitude_mm, 0.0


def reference_trapezoid_sample(traj, t_us):
    t = (t_us / 1_000_000) % traj.period_s
    half = traj._t_move + traj.dwell_s
    if t < half:
        return reference_leg(traj, t)
    pos, vel = reference_leg(traj, t - half)
    return traj.amplitude_mm - pos, -vel


def reference_tabulated_sample(traj, t_us):
    t = (t_us / 1_000_000) % traj.period_s
    lo, hi = 0, len(traj._t) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if traj._t[mid] <= t:
            lo = mid
        else:
            hi = mid
    span = traj._t[hi] - traj._t[lo]
    frac = (t - traj._t[lo]) / span
    vel = (traj._x[hi] - traj._x[lo]) / span
    return traj._x[lo] + frac * (traj._x[hi] - traj._x[lo]), vel


def bits(*values):
    """The values as hex strings, which tell 0.0 from -0.0."""
    return tuple(float(v).hex() for v in values)


signed_zeros = st.sampled_from([0.0, -0.0])


class TestCompiledPlant:
    @given(amplitude=st.floats(min_value=0.1, max_value=50.0),
           velocity=st.floats(min_value=1.0, max_value=100.0),
           accel=st.floats(min_value=10.0, max_value=5_000.0),
           dwell=st.floats(min_value=0.0, max_value=0.5) | st.just(0.0),
           data=st.data())
    # the shipped move, whose leg boundaries fall on whole µs, and a
    # triangular one with no dwell
    @example(amplitude=20.0, velocity=50.0, accel=1000.0, dwell=0.2, data=None)
    @example(amplitude=1.0, velocity=50.0, accel=1000.0, dwell=0.0, data=None)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_trapezoid_sample_matches_the_reference(self, amplitude, velocity, accel, dwell,
                                                    data):
        traj = TrapezoidTrajectory(amplitude_mm=amplitude, velocity_mm_s=velocity,
                                   accel_mm_s2=accel, dwell_s=dwell)
        half = traj._t_move + traj.dwell_s
        # every leg boundary of the move out and back, one and two periods on
        legs = (0.0, traj._t_ramp, traj._t_ramp + traj._t_cruise, traj._t_move)
        edges = [(k * traj.period_s + back + edge) * 1e6
                 for k in (0, 1, 2) for back in (0.0, half) for edge in legs]
        times = {max(0, math.floor(e) + d) for e in edges for d in (-1, 0, 1, 2)}
        if data is not None:
            times.update(data.draw(st.lists(st.integers(min_value=0, max_value=10_000_000),
                                            max_size=40)))
        sample = traj.sampler()
        for t_us in sorted(times):
            want = bits(*reference_trapezoid_sample(traj, t_us))
            assert bits(*sample(t_us)) == want, t_us

    @given(steps_ms=st.lists(st.integers(min_value=1, max_value=500)
                             | st.floats(min_value=0.01, max_value=500.0),
                             min_size=1, max_size=12),
           setpoints=st.lists(st.floats(min_value=-50.0, max_value=50.0) | signed_zeros,
                              min_size=13, max_size=13),
           data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_tabulated_sample_matches_the_reference(self, steps_ms, setpoints, data):
        times_ms = [0.0]
        for step in steps_ms:
            times_ms.append(times_ms[-1] + step)
        traj = TabulatedTrajectory(tuple(zip(times_ms, setpoints)))
        # every segment boundary, one and two periods on, and times before 0
        times = {math.floor((k * traj.period_s * 1e3 + t) * 1e3) + d
                 for k in (0, 1, 2) for t in times_ms for d in (-1, 0, 1)}
        times.update(data.draw(st.lists(st.integers(min_value=-2_000_000,
                                                    max_value=10_000_000), max_size=40)))
        sample = traj.sampler()
        for t_us in sorted(times):
            want = bits(*reference_tabulated_sample(traj, t_us))
            assert bits(*sample(t_us)) == want, t_us


# the two tables compare equal and hash alike, yet their first samples differ
# in the sign of the feedforward: (0.0, -0.0) and (0.0, 0.0)
SIGNED_ZERO_PAIR = (TabulatedTrajectory(((0, 0.0), (1, -0.0), (2, 1.0))),
                    TabulatedTrajectory(((0, -0.0), (1, -0.0), (2, 1.0))))


@pytest.fixture
def no_tables(monkeypatch):
    """An empty setpoint-table cache for the test, restored after it."""
    monkeypatch.setattr(plant, "_setpoint_tables", {})


@pytest.mark.usefixtures("no_tables")
class TestSetpointTable:
    @pytest.mark.parametrize("trajectory", [
        TrapezoidTrajectory(),
        TrapezoidTrajectory(amplitude_mm=1.0, dwell_s=0.0),
        TabulatedTrajectory(((0, 0.0), (250, 5.0), (400, -0.0), (1000, -2.5))),
        *SIGNED_ZERO_PAIR,
    ], ids=["shipped", "triangular", "tabulated", "signed-zero-a", "signed-zero-b"])
    @pytest.mark.parametrize("period_us", [1000, 700, 1250, 333])
    def test_every_entry_is_the_samplers_value_to_the_bit(self, trajectory, period_us):
        table, grow = setpoint_table(trajectory, period_us)
        assert table == []  # nothing is filled before a tick asks
        sample = trajectory.sampler()
        for chunks in (1, 2, 3):
            grow()
            assert len(table) == chunks * SETPOINT_CHUNK
        for k, entry in enumerate(table):
            assert bits(*entry) == bits(*sample(k * period_us)), k

    def test_a_trajectory_and_period_share_one_table(self):
        table, grow = setpoint_table(TrapezoidTrajectory(), 1000)
        # an equal trajectory built apart, as each CLI call builds its own
        shared, shared_grow = setpoint_table(TrapezoidTrajectory(), 1000)
        assert shared is table and shared_grow is grow
        assert setpoint_table(TrapezoidTrajectory(), 700)[0] is not table
        assert setpoint_table(TrapezoidTrajectory(dwell_s=0.25), 1000)[0] is not table

    def test_trajectories_that_compare_equal_but_sample_apart_get_their_own_tables(self):
        a, b = SIGNED_ZERO_PAIR
        assert a == b and hash(a) == hash(b)
        assert bits(*a.sampler()(0)) != bits(*b.sampler()(0))
        tables = []
        for trajectory in (a, b):
            table, grow = setpoint_table(trajectory, 1000)
            grow()
            assert bits(*table[0]) == bits(*trajectory.sampler()(0))
            tables.append(table)
        assert tables[0] is not tables[1]

    def test_an_int_or_a_fraction_field_shares_the_floats_table(self):
        table = setpoint_table(TrapezoidTrajectory(), 1000)[0]
        assert setpoint_table(TrapezoidTrajectory(amplitude_mm=20), 1000)[0] is table
        assert setpoint_table(TrapezoidTrajectory(amplitude_mm=Fraction(20)), 1000)[0] is table
        assert len(plant._setpoint_tables) == 1

    def test_a_float_subclass_shares_its_plain_twins_table_and_keeps_its_sign(self):
        # marshal writes no float subclass; the key holds its value as a float's
        class F(float):
            pass

        table = setpoint_table(TrapezoidTrajectory(dwell_s=0.0), 1000)[0]
        assert setpoint_table(TrapezoidTrajectory(amplitude_mm=F(20.0), dwell_s=F(0.0)),
                              1000)[0] is table
        assert setpoint_table(TrapezoidTrajectory(amplitude_mm=F(20.0), dwell_s=F(-0.0)),
                              1000)[0] is not table

    def test_the_cache_holds_a_bounded_number_of_tables(self):
        periods = range(1000, 1000 + SETPOINT_TABLES + 3)
        tables = {period: setpoint_table(TrapezoidTrajectory(), period)[0]
                  for period in periods}
        assert len(plant._setpoint_tables) == SETPOINT_TABLES
        # the newest stay, and the oldest were dropped for them
        for period in periods[-SETPOINT_TABLES:]:
            assert setpoint_table(TrapezoidTrajectory(), period)[0] is tables[period]
        assert setpoint_table(TrapezoidTrajectory(), periods[0])[0] is not tables[periods[0]]
        assert len(plant._setpoint_tables) == SETPOINT_TABLES

    def test_threads_that_fill_one_table_keep_every_entry_in_place(self):
        trajectory, period_us = TrapezoidTrajectory(), 1000
        table = setpoint_table(trajectory, period_us)[0]

        def fill():
            for _ in range(4):
                setpoint_table(trajectory, period_us)[1]()

        threads = [threading.Thread(target=fill) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(table) == 16 * SETPOINT_CHUNK
        sample = trajectory.sampler()
        for k, entry in enumerate(table):
            assert bits(*entry) == bits(*sample(k * period_us)), k
