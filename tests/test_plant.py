import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ringmill.plant import (AxisModel, FailCause, LoopConfig, PidController,
                            PidGains, Profile, TabulatedTrajectory,
                            TrapezoidTrajectory, TrialVerdict, load_trajectory_csv,
                            step_axis, validate_config_pair)
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
        traj = TrapezoidTrajectory()
        pos, vel = traj.sample(0)
        assert pos == 0.0 and vel == 0.0

    def test_reaches_amplitude_and_returns(self):
        traj = TrapezoidTrajectory(amplitude_mm=20.0)
        half_us = round(traj.period_s / 2 * 1e6)
        assert traj.sample(half_us - 1)[0] == pytest.approx(20.0, abs=1e-6)
        assert traj.sample(round(traj.period_s * 1e6) - 1)[0] == pytest.approx(0.0, abs=1e-3)

    def test_velocity_bounded_by_vmax(self):
        traj = TrapezoidTrajectory(velocity_mm_s=50.0)
        vels = [abs(traj.sample(t)[1]) for t in range(0, int(traj.period_s * 1e6), 997)]
        assert max(vels) <= 50.0 + 1e-9
        assert max(vels) == pytest.approx(50.0)

    def test_velocity_matches_position_derivative(self):
        traj = TrapezoidTrajectory()
        dt = 50  # us
        for t in range(1000, int(traj.period_s * 1e6) - dt, 13_337):
            (pos, vel), (later, _) = traj.sample(t), traj.sample(t + dt)
            fd = (later - pos) / (dt / 1e6)
            assert fd == pytest.approx(vel, abs=traj.accel_mm_s2 * dt / 1e6 + 1e-6)

    def test_short_move_becomes_triangular(self):
        traj = TrapezoidTrajectory(amplitude_mm=1.0, velocity_mm_s=50.0,
                                   accel_mm_s2=1000.0)
        assert traj.vmax < 50.0
        top = max(traj.sample(t)[0] for t in range(0, int(traj.period_s * 1e6), 211))
        assert top == pytest.approx(1.0, abs=1e-3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TrapezoidTrajectory(amplitude_mm=-1)

    @pytest.mark.parametrize("field", ["amplitude_mm", "velocity_mm_s", "accel_mm_s2",
                                       "dwell_s"])
    def test_rejects_nan_parameters(self, field):
        # a NaN setpoint could never fail on following error
        with pytest.raises(ValueError, match="^trajectory parameters must be positive$"):
            TrapezoidTrajectory(**{field: math.nan})


class TestTabulatedTrajectory:
    def test_csv_parse_and_interpolation(self):
        traj = load_trajectory_csv("time_ms,setpoint_mm\n0,0\n100,10\n200,0\n")
        assert traj.sample(50_000) == pytest.approx((5.0, 100.0))  # 10 mm over 0.1 s
        assert traj.sample(150_000)[0] == pytest.approx(5.0)

    def test_wraps_around_period(self):
        traj = TabulatedTrajectory([(0.0, 0.0), (100.0, 10.0)])
        assert traj.sample(150_000) == pytest.approx(traj.sample(50_000))

    def test_rejects_non_monotone_times(self):
        with pytest.raises(ValueError):
            TabulatedTrajectory([(0.0, 0.0), (50.0, 1.0), (50.0, 2.0)])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            load_trajectory_csv("0,0\n")

    @pytest.mark.parametrize("row", ["500,nan", "500,inf", "nan,5", "-inf,5"])
    def test_csv_rejects_a_non_finite_value_with_its_line(self, row):
        # a NaN setpoint makes every following-error test false: it can never fail
        with pytest.raises(ValueError, match=f"^line 3: {row} is not finite"):
            load_trajectory_csv(f"time_ms,setpoint_mm\n0,0\n{row}\n1000,0\n")


class TestConfigTypes:
    def test_loop_config_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(profile=Profile.DEFAULT, gains=PidGains(kp=1.0),
                       servo_period_us=0)
        with pytest.raises(ValueError):
            LoopConfig(profile=Profile.DEFAULT, gains=PidGains(kp=1.0),
                       fe_limit_mm=0.0)

    @pytest.mark.parametrize("field, message", [
        ("servo_period_us", "servo period must be positive"),
        ("watchdog_timeout_us", "watchdog timeout and init grace must be positive"),
        ("init_grace_us", "watchdog timeout and init grace must be positive"),
        ("fe_limit_mm", "following-error limit must be positive"),
        ("delay_spread_tolerance_us",
         "delay-spread tolerance and RTT rescue budget must be non-negative"),
        ("rtt_rescue_budget_us",
         "delay-spread tolerance and RTT rescue budget must be non-negative"),
    ])
    def test_loop_config_rejects_nan(self, field, message):
        # a NaN following-error limit builds a loop that can never fail on it
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(DEFAULT_LOOP_CONFIG, **{field: math.nan})

    @pytest.mark.parametrize("field, value, message", [
        ("kp", math.nan, "PID gains must be finite"),
        ("ki", math.nan, "PID gains must be finite"),
        ("kd", math.nan, "PID gains must be finite"),
        ("kp", math.inf, "PID gains must be finite"),
        ("ki", -math.inf, "PID gains must be finite"),
        ("integral_clamp", -0.1, "integral clamp must be non-negative"),
        ("integral_clamp", math.nan, "integral clamp must be non-negative"),
    ])
    def test_pid_gains_reject_non_finite_or_negative(self, field, value, message):
        # with a NaN gain a trial at (0.5, 0.05) ms used to pass: a NaN
        # following error never exceeds the limit
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(NOMINAL_GAINS, **{field: value})

    def test_axis_rejects_nan_time_constant(self):
        with pytest.raises(ValueError, match="^axis time constant must be positive$"):
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
