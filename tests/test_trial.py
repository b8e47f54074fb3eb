
import itertools
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction

import pytest
from reference_plant import PidController, step_axis
from test_heap_oracle import HeapHarness

from ringmill.channel import ZERO_IMPAIRMENT, ChannelProfile, frame_path
from ringmill.engine import component_rng
from ringmill.harness import DEFAULT_JITTERS_MS, DEFAULT_LATENCIES_MS, SweepSpec
from ringmill import plant
from ringmill.plant import (AxisModel, FailCause, PidGains, TabulatedTrajectory,
                            TrapezoidTrajectory, TrialVerdict)
from ringmill.ring import RingConfig
from ringmill.trial import (ADAPTED_LOOP_CONFIG, CALIBRATION_GRID, DEFAULT_LOOP_CONFIG,
                            DEFAULT_SCENARIO, FPGA_NODE, MASTER_NODE, QUALIFY_WINDOW_FRAMES,
                            Scenario, TrialTrace, _LoopHarness, calibrate, run_trial,
                            symmetric_profiles)

ZERO_RING = RingConfig(ring_id="control", nodes=("master", "fpga"),
                       slot_time_us=0, tx_time_us=0, loss_rate=0.0)

SHORT = 6_000_000  # 6 simulated seconds


def run_network_free_baseline(config, trial_length_us):
    """Max following error of the same loop with the transport removed.

    Reproduces the event choreography of a zero-delay trial exactly: the
    stage steps half a period out of phase with the controller, feedback
    sampled at one stage tick is consumed at the next controller tick.
    """
    sample = DEFAULT_SCENARIO.trajectory.sampler()
    axis = AxisModel()
    period = config.servo_period_us
    pid = PidController(config.gains, period)
    v_cmd = 0.0
    fb_value = axis.position_mm
    max_fe = 0.0
    fpga_t = period // 2
    for tick in range(trial_length_us // period):
        t = tick * period
        while fpga_t <= t:  # stage ticks due before this controller tick
            step_axis(axis, v_cmd, period)
            fb_value = axis.position_mm
            fpga_t += period
        setpoint, feedforward = sample(t)
        max_fe = max(max_fe, abs(setpoint - fb_value))
        v_cmd = pid.tick(setpoint, fb_value, feedforward)
    return max_fe


def trial(config, latency_ms, jitter_ms, seconds=6.0, seed=1, **kw):
    cmd, fb = symmetric_profiles(latency_ms, jitter_ms)
    return run_trial(config, cmd, fb, trial_length_us=round(seconds * 1e6),
                     seed=seed, **kw)


class TestBaseline:
    def test_zero_impairment_nominal_gains_pass(self):
        verdict = run_trial(DEFAULT_LOOP_CONFIG, ZERO_IMPAIRMENT, ZERO_IMPAIRMENT,
                            trial_length_us=SHORT, seed=3)
        assert verdict.passed
        assert verdict.fail_cause is FailCause.NONE
        assert verdict.max_following_error_mm < DEFAULT_LOOP_CONFIG.fe_limit_mm
        assert verdict.survived_us == SHORT

    def test_zero_delay_equivalence_with_degenerate_ring(self):
        # with a zero-delay ring and zero channels the transport adds nothing
        verdict = run_trial(DEFAULT_LOOP_CONFIG, ZERO_IMPAIRMENT, ZERO_IMPAIRMENT,
                            trial_length_us=SHORT, seed=5,
                            scenario=Scenario(control_ring=ZERO_RING))
        baseline = run_network_free_baseline(DEFAULT_LOOP_CONFIG,
                                             trial_length_us=SHORT)
        assert verdict.passed
        assert abs(verdict.max_following_error_mm - baseline) <= 1e-3  # 1 um


class TestVerdictPattern:
    def test_five_ms_latency_fails_both_profiles(self):
        assert not trial(DEFAULT_LOOP_CONFIG, 5.0, 0.1).passed
        assert not trial(ADAPTED_LOOP_CONFIG, 5.0, 0.1).passed

    def test_boundary_cell_needs_adaptation(self):
        default = trial(DEFAULT_LOOP_CONFIG, 3.0, 0.2)
        adapted = trial(ADAPTED_LOOP_CONFIG, 3.0, 0.2)
        assert not default.passed and default.fail_cause is FailCause.INIT_FAILURE
        assert adapted.passed

    def test_fast_link_tolerates_boundary_jitter_without_adaptation(self):
        assert trial(DEFAULT_LOOP_CONFIG, 0.5, 0.2).passed

    def test_high_jitter_fails_even_adapted(self):
        verdict = trial(ADAPTED_LOOP_CONFIG, 1.0, 0.3)
        assert not verdict.passed

    def test_five_ms_fail_cause_is_following_error(self):
        verdict = trial(DEFAULT_LOOP_CONFIG, 5.0, 0.05)
        assert verdict.fail_cause is FailCause.FOLLOWING_ERROR
        assert verdict.max_following_error_mm > DEFAULT_LOOP_CONFIG.fe_limit_mm


def link_decision(config, spread_us, baseline_rtt_us):
    """The control start the link decision at 10,300 us gives for a window
    with this delay spread after a handshake with this mean RTT, or None."""
    h = _LoopHarness(config, ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, SHORT, 0, DEFAULT_SCENARIO,
                     None, None)
    h.residuals = [300, 300 + spread_us, 300]
    h.hs_rtts = [baseline_rtt_us - 50, baseline_rtt_us + 50]
    return h._qualify_decision(10_300)


def entering_control(link, length_us, blackout=None, on_since=False, **loop):
    """A harness in qualify and its trace: the window's last frame lands at
    7,200 us, so control starts at 8,000, and stage ticks run from 6,500.
    Both directions run over `link`; `on_since` queues one more feedback
    frame, landing on the control start.  Run it with `_run_ticks`."""
    trace = TrialTrace()
    h = _LoopHarness(replace(DEFAULT_LOOP_CONFIG, **loop), link, link, length_us, 1,
                     DEFAULT_SCENARIO, blackout, trace)
    h.phase, h.hs_rtts = "qualify", [200]  # as the last handshake reply leaves it
    window = range(7_200 - QUALIFY_WINDOW_FRAMES + 1, 7_201)  # 100 µs in flight each
    for arrival in [*window, 8_000] if on_since else window:
        h.to_cnc[1].append((arrival, h.reserve(), 0.0, arrival - 100))
    h.first_fpga_tick = (6_500, h.reserve())
    return h, trace


def scripted(node, channel):
    """A frame path for `entering_control` whose ring stage is that trial's
    control ring at `node`, a ring-only path drawing from its seed, and whose
    channel stage is `channel`: a script from ring delivery to arrival."""
    ring = DEFAULT_SCENARIO.control_ring
    admit = frame_path(ring, ring.nodes.index(node), component_rng(1, "ring", "control"))

    def send(now):
        delivered = admit(now)
        return None if delivered is None else channel(delivered)

    return send


@pytest.mark.parametrize("config", [DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG],
                         ids=["default", "adapted"])
class TestQualifyBoundary:
    def test_spread_equal_to_the_tolerance_is_accepted(self, config):
        # the baseline RTT alone fills the rescue budget, so only the
        # tolerance can accept the link
        tolerance, budget = config.delay_spread_tolerance_us, config.rtt_rescue_budget_us
        assert link_decision(config, tolerance, budget) == 11_000
        assert link_decision(config, tolerance + 1, budget) is None

    def test_rtt_plus_spread_equal_to_the_rescue_budget_is_accepted(self, config):
        # one µs too wide for the tolerance, so only the rescue can accept it
        spread, budget = config.delay_spread_tolerance_us + 1, config.rtt_rescue_budget_us
        assert link_decision(config, spread, budget - spread) == 11_000
        assert link_decision(config, spread, budget - spread + 1) is None


class TestWatchdog:
    def test_severed_feedback_fails_within_bound(self):
        cut_at = 2_000_000
        verdict = trial(DEFAULT_LOOP_CONFIG, 0.5, 0.05, seed=11,
                        feedback_blackout_us=cut_at)
        assert not verdict.passed
        assert verdict.fail_cause is FailCause.WATCHDOG
        bound = (cut_at + DEFAULT_LOOP_CONFIG.watchdog_timeout_us
                 + DEFAULT_LOOP_CONFIG.servo_period_us)
        assert cut_at < verdict.survived_us <= bound

    @pytest.mark.parametrize("on_since", [False, True])
    def test_the_probe_armed_at_the_link_decision_keeps_its_number(self, on_since):
        # Stage ticks at 6,500 and 7,500 us send feedback that lands at 9,200
        # and 9,500 (1,900 us channel, ring waits 800 and 100 us); later
        # feedback is blacked out.  The probe for 9,500, numbered at the link
        # decision, precedes the 9,500 frame on its µs and re-arms from 9,200;
        # that probe, armed at 10,700, follows the controller tick at 11,000,
        # which runs before the watchdog fails there.  A frame landing on the
        # control start, `since`, does not arrive before it and must not re-arm
        # the probe: renumbered, it would follow the 9,500 frame, re-arm from
        # it and fail at 11,000 before the tick.
        link = ChannelProfile(mean_delay_us=1_900)
        h, trace = entering_control(link, 20_000, watchdog_timeout_us=1_499,
                                    blackout=10_000, on_since=on_since)
        verdict = h._run_ticks()
        assert (verdict.fail_cause, verdict.survived_us) == (FailCause.WATCHDOG, 11_000)
        assert [row[0] for row in trace.rows] == [8_000, 9_000, 10_000, 11_000]

    def test_feedback_dead_from_start_is_init_failure(self):
        verdict = trial(DEFAULT_LOOP_CONFIG, 0.5, 0.05, feedback_blackout_us=0)
        assert verdict.fail_cause is FailCause.INIT_FAILURE
        assert verdict.survived_us == DEFAULT_LOOP_CONFIG.init_grace_us


class TestSameUsOrder:
    def test_a_500_us_period_runs_in_the_heap_kernels_order(self):
        # with a 500 µs servo period the stage ticks at 250 µs offsets; over
        # 300 µs channels, feedback lands on controller ticks' µs, and each
        # frame and tick runs in the order its key was numbered
        config = replace(DEFAULT_LOOP_CONFIG, servo_period_us=500)
        args = (config, *symmetric_profiles(0.3, 0), 600_000, 0, DEFAULT_SCENARIO, None)
        want_trace, got_trace = TrialTrace(), TrialTrace()
        assert run_trial(*args, trace=got_trace) == HeapHarness(*args, want_trace).run()
        assert got_trace.rows == want_trace.rows

    def test_the_stage_ticks_half_a_period_after_the_controller(self):
        # the controller ticks on whole periods, so at an even and an odd period
        # the stage's feedback leaves on µs of its own, as it does in the heap kernel
        for period in (2_000, 1_001):
            # two periods: a 2,100 µs watchdog fires between 2 ms frames that wait for the ring
            config = replace(DEFAULT_LOOP_CONFIG, servo_period_us=period,
                             watchdog_timeout_us=2 * period)
            args = (config, ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, 1_500_000, 0, DEFAULT_SCENARIO, None)
            want_trace, got_trace = TrialTrace(), TrialTrace()
            h = _LoopHarness(*args, got_trace)
            sent = []  # the instant of each feedback frame the stage sends

            class LoggingQueue(deque):
                def append(self, entry):
                    sent.append(entry[3])
                    super().append(entry)

            h.to_cnc = (h.to_cnc[0], LoggingQueue())
            verdict = h.run()
            assert sent == list(range(period // 2, 1_500_000, period)), period
            assert verdict == HeapHarness(*args, want_trace).run()
            assert got_trace.rows == want_trace.rows

    def test_a_stage_tick_applies_the_commands_numbered_before_it(self):
        # The commands sent at 9,000 and 10,000 us both land at 10,500.  The
        # stage tick there was numbered at 9,500, between the two sends, so
        # it applies the first and leaves the second to the tick at 11,500.
        h, _ = entering_control(ZERO_IMPAIRMENT, 12_000)
        arrivals = iter([8_600, 10_500, 10_500])
        h.to_fpga = (scripted(MASTER_NODE, lambda delivered: next(arrivals, delivered + 2_000)),
                     h.to_fpga[1])
        sent = []  # (instant, position) of each feedback frame the stage sends

        class LoggingQueue(deque):
            def append(self, entry):
                _, _, position, now = entry
                sent.append((now, position))
                super().append(entry)

        send, queue = h.to_cnc
        h.to_cnc = (send, LoggingQueue(queue))  # the window's frames, not logged
        assert h._run_ticks().passed
        # stage ticks at 6,500 ... 11,500 step the axis with commands 0, 1.020001
        # and 2.080005 mm/s; the positions they send are those of the reference step
        axis, period = AxisModel(), DEFAULT_LOOP_CONFIG.servo_period_us
        want = [step_axis(axis, v_cmd, period).position_mm
                for v_cmd in [0.0, 0.0, 0.0, 0.0, 1.020001, 2.080005]]
        assert [now for now, _ in sent] == list(range(6_500, 12_000, 1_000))
        assert repr([position for _, position in sent]) == repr(want)

    def test_a_controller_tick_sees_the_feedback_numbered_before_it(self):
        # The feedback sent at 10,500 and 11,500 us both lands at 12,000; the
        # controller tick there was numbered at 11,000, so it sees the first.
        h, trace = entering_control(ZERO_IMPAIRMENT, 13_000)
        sends = itertools.count(1)  # the 5th and 6th are sent at 10,500 and 11,500
        h.to_cnc = (scripted(FPGA_NODE, lambda delivered: 12_000 if next(sends) in (5, 6)
                             else delivered + 1_000), h.to_cnc[1])
        assert h._run_ticks().passed
        time_us, _, feedback_mm, _, _ = trace.rows[4]
        assert time_us == 12_000 and feedback_mm > 0.0  # the axis had moved by 10,500


# ---------------------------------------------------------------------------
# The loop holds the controller's and the axis's arithmetic as float locals, the
# only copy in `src/`; the heap kernel runs the one in `reference_plant.py`.
# The boundary sample runs the nominal gains only (kd = 0); this one draws the
# gains, the trajectory and the period.

# Two tables with zero feedforwards of either sign.  With zero gains, the signs
# of the zero terms decide a zero command's.

#: Its first segment has a feedforward of -0.0 at setpoint 0.0; its 2 ms drop
#: outruns the axis and leaves it above a flat segment whose feedforward is -0.0.
DROP_TABLE = TabulatedTrajectory(((0, 0.0), (1, -0.0), (100, 0.5), (102, 0.0), (1000, -0.0)))

#: Its setpoint steps only between the ticks of a 1 ms period, so no tick there
#: sees a feedforward that is not zero: 0.0 up to 100 ms, -0.5 from 101 ms, and
#: from 201 ms a segment that starts at -0.0 and falls by the least subnormal in
#: 10 s, whose setpoints and feedforward are -0.0.
STEP_TABLE = TabulatedTrajectory(((0, 0.0), (100.2, 0.0), (100.7, -0.5), (200.2, -0.5),
                                  (201, -0.0), (10_201, -5e-324)))

PLANT_TRAJECTORIES = (
    DEFAULT_SCENARIO.trajectory,
    # faster than the axis may move, so the command runs past both of its limits
    TrapezoidTrajectory(amplitude_mm=2.0, velocity_mm_s=80.0, accel_mm_s2=5_000.0, dwell_s=0.05),
    TabulatedTrajectory(((0, 0.0), (300, 4.0), (450, 4.0), (1000, -1.0))),
    DROP_TABLE,
    STEP_TABLE,
)


def random_gains_trials(count, seed):
    """`count` seeded trial argument tuples that vary the plant: kd != 0, ki =
    0, an integral clamp of 0, gains of -0.0, a kp large enough to drive the
    axis into its acceleration and velocity limits, tabulated trajectories and
    700 and 1,250 µs periods."""
    rng = random.Random(seed)
    trials = []
    for _ in range(count):
        gains = PidGains(kp=rng.choice((40.0, 0.0, -0.0, 400.0)),
                         ki=rng.choice((2.0, 0.0, -0.0, 50.0)),
                         kd=rng.choice((0.0, -0.0, 0.05, -0.02)),
                         integral_clamp=rng.choice((0.05, 0.0, 0.001)))
        period = rng.choice((700, 1000, 1250))
        config = replace(rng.choice((DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)),
                         gains=gains, servo_period_us=period)
        link = ChannelProfile(mean_delay_us=rng.choice((0, 100, 500, 1_000)),
                              jitter_us=rng.choice((0, 50, 100)))
        trials.append((config, link, link, rng.choice((1_200_000, 2_000_000)),
                       rng.randrange(10_000), Scenario(trajectory=rng.choice(PLANT_TRAJECTORIES)),
                       None))
    return trials


def heap_kernel_differs(args):
    """Why the loop's verdict or trace of a trial differs from the heap
    kernel's, or None.  repr writes each float exactly, a zero's sign too."""
    want_trace, got_trace = TrialTrace(), TrialTrace()
    want = repr(HeapHarness(*args, want_trace).run())
    got = repr(run_trial(*args, trace=got_trace))
    if got != want:
        return f"loop {got}, heap {want}"
    for got_row, want_row in itertools.zip_longest(got_trace.rows, want_trace.rows):
        if repr(got_row) != repr(want_row):
            return f"loop row {got_row!r}, heap row {want_row!r}"
    return None


class ClampRecorder(HeapHarness):
    """The heap kernel, noting each limit the reference plant met: the axis's
    acceleration and velocity limits and the integral clamp, each as (name,
    sign), and "derivative" for a derivative taken with kd != 0."""

    def __init__(self, *args):
        super().__init__(*args, None)
        self.met = set()
        met, pid = self.met, self.pid
        tick = pid.tick

        def recording_tick(setpoint, feedback, feedforward):
            if pid.gains.kd != 0.0 and pid._last_error is not None:
                met.add("derivative")
            command = tick(setpoint, feedback, feedforward)
            clamp = pid.gains.integral_clamp
            if clamp > 0.0 and abs(pid.integral) == clamp:
                met.add(("integral", pid.integral > 0.0))
            return command

        pid.tick = recording_tick

    def _fpga_tick(self):
        axis, dt = self.axis, self.config.servo_period_us / 1_000_000
        dv = (dt / axis.time_constant_s) * (self.v_cmd - axis.velocity_mm_s)
        if abs(dv) > axis.max_accel_mm_s2 * dt:
            self.met.add(("acceleration", dv > 0.0))
        super()._fpga_tick()
        if abs(axis.velocity_mm_s) == axis.max_velocity_mm_s:
            self.met.add(("velocity", axis.velocity_mm_s > 0.0))


def limits_trial(gains):
    """The argument tuple of a 2 s trial of the default trajectory over a
    0.5 ms, 50 µs-jitter link, with `gains`."""
    link = ChannelProfile(mean_delay_us=500, jitter_us=50)
    return (replace(DEFAULT_LOOP_CONFIG, gains=gains), link, link, 2_000_000, 0,
            DEFAULT_SCENARIO, None)


class TestPlantInTheLoop:
    def test_random_gains_match_the_heap_kernel(self):
        for args in random_gains_trials(48, seed=20261019):
            assert heap_kernel_differs(args) is None, args

    def test_the_loops_axis_matches_the_reference_at_each_limit(self):
        # a proportional-only controller ten times the nominal kp overshoots the
        # default trajectory's 50 mm/s cruise, so the axis meets its acceleration
        # and velocity limits in both directions before the error fails the trial
        args = limits_trial(PidGains(kp=400.0, ki=0.0))
        met = ClampRecorder(*args)
        met.run()
        assert {("acceleration", True), ("acceleration", False),
                ("velocity", True), ("velocity", False)} <= met.met
        assert heap_kernel_differs(args) is None

    def test_the_loops_pid_matches_the_reference_at_each_clamp(self):
        # ki = 50 against a clamp of 0.001 mm*s holds the integral at either
        # bound for much of each move, and kd != 0 takes a derivative each tick
        args = limits_trial(PidGains(kp=40.0, ki=50.0, kd=0.05, integral_clamp=0.001))
        met = ClampRecorder(*args)
        assert met.run().passed
        assert {("integral", True), ("integral", False), "derivative"} <= met.met
        assert heap_kernel_differs(args) is None

    def test_a_zero_command_keeps_its_sign_at_an_integral_clamp_of_0(self):
        # With zero gains every command on STEP_TABLE is zero, so the axis stays
        # at 0.0.  From 101 ms the error is -0.5 and clamps the integral to -0.0;
        # from 201 ms it is -0.0, which leaves the integral at -0.0 as the clamp
        # does not touch it.  Every term of the command is then -0.0, and so is
        # the command; an integral clamped to 0.0 there would make it 0.0.
        link = ChannelProfile(mean_delay_us=500)
        gains = PidGains(kp=0.0, ki=0.0, kd=-0.0, integral_clamp=0.0)
        args = (replace(DEFAULT_LOOP_CONFIG, gains=gains), link, link, 2_000_000, 0,
                Scenario(trajectory=STEP_TABLE), None)
        want_trace, got_trace = TrialTrace(), TrialTrace()
        assert repr(run_trial(*args, trace=got_trace)) == repr(HeapHarness(*args, want_trace).run())
        assert repr(got_trace.rows) == repr(want_trace.rows)
        start = want_trace.rows[0][0]
        assert [repr(command) for t, _, _, command, _ in want_trace.rows
                if t - start >= 201_000] == ["-0.0"] * (len(want_trace.rows) - 201)


def traced(config, latency_ms, jitter_ms, seconds, scenario=DEFAULT_SCENARIO):
    trace = TrialTrace()
    verdict = trial(config, latency_ms, jitter_ms, seconds, scenario=scenario, trace=trace)
    # repr writes each float exactly, the sign of a zero included
    return repr(verdict), repr(trace.rows)


class TestSharedSetpointTable:
    """A trial reads its setpoints from a table other trials in the process
    may have filled: it must run as it does on an empty cache."""

    @pytest.mark.parametrize("warm_up", [
        lambda: trial(DEFAULT_LOOP_CONFIG, 0.5, 0.05, seconds=1.5),
        lambda: trial(DEFAULT_LOOP_CONFIG, 0.5, 0.05, seconds=5.0),
        lambda: trial(replace(DEFAULT_LOOP_CONFIG, servo_period_us=700), 0.5, 0.05),
        lambda: trial(replace(DEFAULT_LOOP_CONFIG, servo_period_us=1250), 0.5, 0.05),
        lambda: trial(DEFAULT_LOOP_CONFIG, 0.5, 0.05, scenario=Scenario(
            trajectory=TabulatedTrajectory(((0, 0.0), (300, 4.0), (1000, 0.0))))),
    ], ids=["shorter", "longer", "700us-period", "1250us-period", "tabulated"])
    def test_a_warm_trial_runs_as_a_cold_one(self, warm_up, monkeypatch):
        monkeypatch.setattr(plant, "_setpoint_tables", {})
        # a 3 s trial runs about 2,450 controller ticks, into a third chunk
        cold = traced(DEFAULT_LOOP_CONFIG, 0.5, 0.05, 3.0)
        assert "passed=True" in cold[0]
        plant._setpoint_tables.clear()
        warm_up()
        assert traced(DEFAULT_LOOP_CONFIG, 0.5, 0.05, 3.0) == cold

    def test_trajectories_that_compare_equal_do_not_share_a_table(self, monkeypatch):
        # The two tables are ==, but the first feedforward is -0.0 in one and
        # 0.0 in the other.  With gains of -0.0 every other term of the first
        # command is -0.0, so the command, and its trace line, keep that sign.
        a, b = (Scenario(trajectory=TabulatedTrajectory(((0, first), (1, -0.0), (2, 1.0))))
                for first in (0.0, -0.0))
        assert a == b
        config = replace(DEFAULT_LOOP_CONFIG, gains=PidGains(kp=-0.0, ki=-0.0, kd=-0.0))
        monkeypatch.setattr(plant, "_setpoint_tables", {})

        def run(scenario):
            trace = TrialTrace()
            verdict = trial(config, 0.5, 0.05, seconds=1.0, scenario=scenario, trace=trace)
            return repr(verdict), trace.to_csv()

        cold = run(b)
        plant._setpoint_tables.clear()
        first_command = run(a)[1].splitlines()[1].split(",")[3]
        assert (first_command, cold[1].splitlines()[1].split(",")[3]) == ("-0.000000", "0.000000")
        assert run(b) == cold  # warm: after a, on a's cache

    def test_a_trajectory_of_a_float_subclass_runs_as_its_plain_twin(self, monkeypatch):
        class F(float):
            pass

        monkeypatch.setattr(plant, "_setpoint_tables", {})
        twin = Scenario(trajectory=TrapezoidTrajectory(amplitude_mm=F(20.0), dwell_s=F(0.2)))
        got = traced(DEFAULT_LOOP_CONFIG, 0.5, 0.05, 1.5, scenario=twin)
        plant._setpoint_tables.clear()
        assert got == traced(DEFAULT_LOOP_CONFIG, 0.5, 0.05, 1.5)

    def test_a_fraction_amplitude_runs_as_its_float(self, monkeypatch):
        # marshal writes no Fraction: the trajectory holds it as a plain float
        monkeypatch.setattr(plant, "_setpoint_tables", {})
        scenario = Scenario(trajectory=TrapezoidTrajectory(amplitude_mm=Fraction(20)))
        got = traced(DEFAULT_LOOP_CONFIG, 0.5, 0.05, 2.0, scenario=scenario)
        assert "passed=True" in got[0]
        plant._setpoint_tables.clear()
        assert got == traced(DEFAULT_LOOP_CONFIG, 0.5, 0.05, 2.0)


class TestRunTrialInput:
    @pytest.mark.parametrize("length", [3_000_000.5, 3_000_000.0, -5, 0, True],
                             ids=["half-us", "float", "negative", "zero", "bool"])
    def test_a_length_that_is_not_an_int_above_0_is_refused(self, length):
        # 3_000_000.5 ran with survived_us=3000000.5, and -5 survived -5 us
        cmd, fb = symmetric_profiles(0.5, 0.05)
        with pytest.raises(ValueError, match=f"^trial_length_us {length!r} is not an integer"
                                             r"( in \(0, inf\))?$"):
            run_trial(DEFAULT_LOOP_CONFIG, cmd, fb, trial_length_us=length)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True], ids=["fraction", "float", "bool"])
    def test_a_seed_that_is_not_an_int_is_refused(self, seed):
        # 1.5 and True both ran seed 1
        cmd, fb = symmetric_profiles(0.5, 0.05)
        with pytest.raises(ValueError, match=f"^seed {seed!r} is not an integer$"):
            run_trial(DEFAULT_LOOP_CONFIG, cmd, fb, trial_length_us=1_000, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["-1", "2**64"])
    def test_a_seed_outside_64_bits_is_refused(self, seed):
        # derive_seed folds a seed modulo 2**64: 2**64 ran seed 0's trial, -1 that of 2**64 - 1
        cmd, fb = symmetric_profiles(0.5, 0.05)
        with pytest.raises(ValueError, match=rf"^seed {seed} is not an integer "
                                             r"in \[0, 18446744073709551616\)$"):
            run_trial(DEFAULT_LOOP_CONFIG, cmd, fb, trial_length_us=1_000, seed=seed)


class TestDeterminism:
    def test_identical_runs_identical_verdicts(self):
        a = trial(DEFAULT_LOOP_CONFIG, 3.0, 0.15, seed=9)
        b = trial(DEFAULT_LOOP_CONFIG, 3.0, 0.15, seed=9)
        assert a == b
        assert a.max_following_error_mm == b.max_following_error_mm

    def test_different_seeds_differ_in_detail(self):
        a = trial(DEFAULT_LOOP_CONFIG, 3.0, 0.15, seed=1)
        b = trial(DEFAULT_LOOP_CONFIG, 3.0, 0.15, seed=2)
        assert a.passed and b.passed
        assert a.max_following_error_mm != b.max_following_error_mm


def truncation_trials(count, seed):
    """`count` seeded (config, latency ms, jitter ms, length, seed, feedback
    blackout) runs: the default sweep's 30 cells, both drivers, lengths of
    0.5-4 s, and the feedback blacked out from a random instant in a third."""
    rng = random.Random(seed)
    cells = list(itertools.product(DEFAULT_LATENCIES_MS, DEFAULT_JITTERS_MS))
    trials = []
    for _ in range(count):
        length = rng.randrange(500_000, 4_000_001)
        blackout = rng.randrange(length) if rng.random() < 1 / 3 else None
        trials.append((rng.choice((DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)),
                       *rng.choice(cells), length, rng.randrange(2**20), blackout))
    return trials


def run_and_decide(config, latency_ms, jitter_ms, length, seed, blackout):
    """The verdict of a trial and the instant of its link decision, None if
    it makes none."""
    h = _LoopHarness(config, *symmetric_profiles(latency_ms, jitter_ms), length, seed,
                     DEFAULT_SCENARIO, blackout, None)
    decisions = []
    decide = h._qualify_decision

    def recording(now):
        decisions.append(now)
        return decide(now)

    h._qualify_decision = recording
    return h.run(), (decisions[0] if decisions else None)


def truncation_differs(args, rng):
    """Why a shorter run of the `truncation_trials` run `args` breaks the
    `TestTruncation` rule, or None.  The shorter lengths are one drawn from
    `rng`, and those either side of each instant the rule turns on."""
    config, lat, jit, length, seed, blackout = args
    verdict, decided = run_and_decide(config, lat, jit, length, seed, blackout)
    cuts = {rng.randrange(1, length)}
    if not verdict.passed:
        cuts |= {verdict.survived_us - 1, verdict.survived_us, verdict.survived_us + 1}
    if decided is not None:
        cuts |= {decided - 1, decided}
    for cut in sorted(c for c in cuts if 0 < c < length):
        short = run_trial(config, *symmetric_profiles(lat, jit), trial_length_us=cut,
                          seed=seed, feedback_blackout_us=blackout)
        if not verdict.passed and verdict.survived_us <= cut:
            kept = repr(short) == repr(verdict)
        elif decided is None or cut < decided:
            kept = (short.fail_cause, short.survived_us) == (FailCause.INIT_FAILURE, cut)
        else:
            kept = ((short.passed, short.survived_us) == (True, cut)
                    and short.max_following_error_mm <= verdict.max_following_error_mm)
        if not kept:
            return f"at {cut} us {short!r}, at {length} us {verdict!r}, decided at {decided}"
    return None


class TestTruncation:
    """A trial's length only truncates it: the run at L' < L of the trial
    that gave `verdict` at L, with its link decision at `decided`, returns

    * `verdict`, if that fails at t <= L';
    * else an init failure at L', if L' falls before the link decision or
      the trial makes none;
    * else a pass at L', with a peak error no larger than `verdict`'s.
    """

    def test_a_shorter_run_returns_a_truncation_of_the_longer_one(self):
        rng = random.Random(20261019)
        for args in truncation_trials(64, seed=20261019):
            assert truncation_differs(args, rng) is None, args

    def test_a_trial_that_ends_before_its_first_controller_tick_passes(self):
        # the link decision at 537,431 µs enters control; the first controller
        # tick comes at 538,000, so a trial that ends before it passes having
        # run none, with a peak error of 0
        verdict, decided = run_and_decide(DEFAULT_LOOP_CONFIG, 0.5, 0.05, 2_000_000, 843263, None)
        assert verdict.passed and decided == 537_431
        short = trial(DEFAULT_LOOP_CONFIG, 0.5, 0.05, seconds=0.537999, seed=843263)
        assert repr(short) == repr(TrialVerdict(True, FailCause.NONE, 0.0, 537_999))


class TestInstrumentation:
    def test_trace_rows_cover_control_phase(self):
        trace = TrialTrace()
        verdict = trial(DEFAULT_LOOP_CONFIG, 0.5, 0.05, seconds=2.0, trace=trace)
        assert verdict.passed
        assert len(trace.rows) > 1_000
        text = trace.to_csv()
        header, first = text.splitlines()[:2]
        assert header == "time_us,setpoint_mm,feedback_mm,command_mm_s,following_error_mm"
        assert len(first.split(",")) == 5

    def test_axis_limits_hold_throughout(self):
        trace = TrialTrace()
        trial(DEFAULT_LOOP_CONFIG, 2.0, 0.15, seconds=3.0, trace=trace)
        axis = AxisModel()
        # feedback can skip ticks when a frame is late, so allow the
        # staleness slack of up to two extra sample periods per tick
        positions = [row[2] for row in trace.rows]
        limit = axis.max_velocity_mm_s * 0.003 + 1e-9
        for a, b in zip(positions, positions[1:]):
            assert abs(b - a) <= limit


class TestCalibrate:
    def test_validation_spec_at_another_master_seed_is_rejected(self):
        # screening at one seed and validating at another mixes two runs
        with pytest.raises(ValueError, match="master seed 1 but its validation spec "
                                             "has master seed 0"):
            calibrate(master_seed=1, validation_spec=SweepSpec(master_seed=0))

    def test_the_grid_tries_the_shipped_pair_first_and_no_pair_twice(self):
        assert CALIBRATION_GRID[0] == (DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        assert len(set(CALIBRATION_GRID)) == len(CALIBRATION_GRID) == 36
