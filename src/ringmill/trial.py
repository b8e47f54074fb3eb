"""Closed-loop machine-tool trial over impaired ring + channel transport.

Topology per trial: a two-node control ring carries velocity commands
from the controller-side master node to the motion stage (``fpga``) and
position feedback back; each direction then crosses an impairment
channel.  Nothing else is simulated: sensor or overlay traffic would
feed nothing the loop reads, so no verdict could depend on it.

A trial has two phases.  During *initialization* the controller runs a
serialized request/reply handshake to baseline the round-trip time, then
watches a window of the feedback stream and measures its delay spread
(max minus min transport delay; clock offset cancels).  The link is
accepted if the spread fits the driver's tolerance, or - for the stock
driver - if the link is fast enough that baseline RTT plus spread still
fits its total response budget.  Otherwise the trial ends as an init
failure, which is exactly what the adapted driver flavour (larger
tolerance, longer grace) exists to fix.

During *control* the loop runs at the servo period.  The trial fails on
the first following-error excursion past the limit or when the feedback
watchdog expires; surviving to the configured length is a pass.

Frames.  When a command or feedback frame is sent, the sending node's
admission closure on the ring (`TokenRing.admitter`) computes its
delivery instant and the direction's `Channel.impair` closure impairs it
at that instant.  A trial holds the two closures of each direction,
built once with their configuration and profile bound, and a frame
builds no object.  During initialization a frame's arrival is an engine
event.  In the control phase the frame goes into its direction's
in-flight queue as ``(arrival, seq, value)``, ``seq`` being the number
`Simulator.reserve` hands out, which is the sequence number
`Simulator.schedule` would have given the arrival event.  Feedback sent
before the first controller tick stays an event, because it can re-arm
the watchdog.

The loop.  One loop, `_LoopHarness._run_ticks`, runs a trial.  The two
servo ticks are no engine events but ``(instant, seq)`` keys, and the
loop also keeps the key of the engine's next queued event (initialization
frames, handshake retries, the grace deadline, feedback sent before the
first controller tick).  The earliest key runs next, once the loop has
caught up to it: applied the queued feedback and fired the watchdog
probes whose keys precede it.  A stage tick applies the queued commands
whose keys precede its own.  An event is handed to the engine alone
(`Simulator.run_next`), with the feedback and watchdog state, which the
loop holds in locals, copied to the harness around it; the engine is
told how many ticks ran (`Simulator.count_off_heap`), so the control
phase counts two engine events per servo period, and schedules none.
A tick calls the trajectory's `sampler`, the controller's `tick` and the
axis's `stepper`, closures compiled for the trial as the links are.

The feedback watchdog is one probe that re-arms itself from the newest
arrival rather than one probe per arrival.  It fails the trial at s +
timeout + 1, s being the control start or a feedback arrival, if and
only if no feedback arrived in (s, s + timeout]: a frame that arrives on
the probe's own µs is too late, whichever of the two comes first.  The
probe is no event either, but one ``(instant, seq)`` key whose number is
reserved when it is armed; a failing probe reports its own instant.

Same-µs order.  The rule is the reserved sequence number.  The engine
fires events that share a microsecond in the order they were scheduled,
and a queued frame, a probe or a servo tick keeps the number its event
would have had, so plain tuple comparison reproduces that order.  A
frame's number is taken when the frame is sent; a servo tick's where the
tick one period before it ends, after that tick's frame (the first
stage tick's when the run starts, the first controller tick's on
entering control); the probe's when it is armed.  So an engine event on
the µs of a servo tick runs first exactly when it was scheduled before
that tick's number was taken, and a frame that arrives on the µs of a
servo tick is seen by it exactly when the frame was sent before that
tick's number was taken: feedback sent more than one servo period
before the controller tick it lands on is used by that tick, feedback
sent less than a period before it is not.  Whether the watchdog fails is
order-free, as above; the order decides only whether a controller tick
on the fail instant's µs runs first.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from .channel import Channel, ChannelProfile
from .engine import SimTime, Simulator, US_PER_S, component_rng
from .plant import (AxisModel, FailCause, LoopConfig, PidController, PidGains,
                    Profile, TabulatedTrajectory, TrapezoidTrajectory, TrialVerdict)
from .ring import RingConfig, RingConfigError, TokenRing

MASTER_NODE = "master"
FPGA_NODE = "fpga"

SERVO_PERIOD_US = 1000
FPGA_TICK_OFFSET_US = 500

HANDSHAKE_EXCHANGES = 16
HANDSHAKE_RETRY_US = 100_000
QUALIFY_WINDOW_FRAMES = 512

# Control frame sizes.  A trial builds no control `Frame`, so the ring's
# size bound on these is checked by a test, not on every frame.
CMD_FRAME_BYTES = 96
FB_FRAME_BYTES = 128
HANDSHAKE_FRAME_BYTES = 88

DEFAULT_CONTROL_RING = RingConfig(
    ring_id="control", nodes=(MASTER_NODE, FPGA_NODE),
    slot_time_us=800, tx_time_us=100)


@dataclass(frozen=True)
class Scenario:
    """The network and the motion a run simulates.

    Everything else a trial needs comes from its caller: the loop pair, the
    command and feedback channels a sweep varies, the length and the seed.
    The same value drives a trial, a sweep, a calibration and a manifest.
    """

    control_ring: RingConfig = DEFAULT_CONTROL_RING
    trajectory: TrapezoidTrajectory | TabulatedTrajectory = TrapezoidTrajectory()

    def __post_init__(self):
        # the nodes a trial sends between
        if not {MASTER_NODE, FPGA_NODE} <= set(self.control_ring.nodes):
            raise RingConfigError(f"ring {self.control_ring.ring_id}: a trial needs "
                                  f"nodes {MASTER_NODE} and {FPGA_NODE}")


DEFAULT_SCENARIO = Scenario()


def symmetric_profiles(latency_ms: float, jitter_ms: float) -> tuple[ChannelProfile, ChannelProfile]:
    """One-way impairment applied identically to each loop direction."""
    return (ChannelProfile.from_ms(latency_ms, jitter_ms),
            ChannelProfile.from_ms(latency_ms, jitter_ms))


class _StopTrial(Exception):
    pass


_NEVER = (float("inf"), 0)  # the key of a probe or tick that is not due


@dataclass
class TrialTrace:
    """Optional per-tick control trace for plotting."""

    rows: list[tuple[SimTime, float, float, float, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["time_us,setpoint_mm,feedback_mm,command_mm_s,following_error_mm"]
        for t, sp, fb, cmd, fe in self.rows:
            lines.append(f"{t},{sp:.6f},{fb:.6f},{cmd:.6f},{fe:.6f}")
        return "\n".join(lines) + "\n"


class _LoopHarness:
    def __init__(self, config: LoopConfig, command_profile: ChannelProfile,
                 feedback_profile: ChannelProfile, trial_length_us: SimTime, seed: int,
                 scenario: Scenario, feedback_blackout_us: SimTime | None,
                 trace: TrialTrace | None):
        self.config = config
        self.trajectory = scenario.trajectory
        self.length = trial_length_us
        self.trace = trace

        self.sim = Simulator()
        self.ring = TokenRing(scenario.control_ring, self.sim,
                              component_rng(seed, "ring", "control"))
        cmd_channel = Channel(command_profile, component_rng(seed, "chan", "cmd"))
        fb_channel = Channel(feedback_profile, component_rng(seed, "chan", "fb"),
                             blackout_from=feedback_blackout_us)
        # (the sending node's admission closure on the control ring, the
        # channel's impairment closure, control-phase frames in flight as
        # (arrival, reserved seq, value)) per direction
        admitter, node_index = self.ring.admitter, self.ring.node_index
        self.to_fpga = (admitter(node_index(MASTER_NODE)), cmd_channel.impair, deque())
        self.to_cnc = (admitter(node_index(FPGA_NODE)), fb_channel.impair, deque())

        self.axis = AxisModel()
        self.pid = PidController(config.gains, config.servo_period_us)
        # (instant, reserved seq) of the first stage tick, set by `run`, and
        # of the first controller tick, set on entering control
        self.first_fpga_tick: tuple[SimTime, int] = _NEVER
        self.first_cnc_tick: tuple[SimTime, int] = _NEVER

        self.phase = "handshake"
        self.hs_rtts: list[int] = []
        self.hs_seq = 0
        self.hs_sent_at: SimTime = 0
        self.residuals: list[int] = []
        self.fb_value = self.axis.position_mm
        self.last_fb_arrival: SimTime = 0
        self.prev_fb_arrival: SimTime = 0  # the arrival before, on an earlier µs
        self.control_start: SimTime = 0
        self.watchdog_since: SimTime = 0  # the arrival the pending probe times out
        self.probe: tuple[SimTime, int] = _NEVER  # its (instant, reserved seq)
        self.max_fe = 0.0

        self.verdict: TrialVerdict | None = None

    # -- transport helpers ---------------------------------------------------

    def _send(self, now: SimTime, path: tuple[Callable, Callable, deque], on_arrival) -> None:
        """One frame sent at `now` across the control ring, then a channel;
        its arrival is an engine event (`_run_ticks` queues control frames)."""
        admit, impair, _ = path
        delivered = admit(now)
        if delivered is not None:
            arrival = impair(delivered)
            if arrival is not None:
                self.sim.schedule(arrival, on_arrival)

    # -- initialization ------------------------------------------------------

    def _fail(self, cause: FailCause, at: SimTime | None = None) -> None:
        self.verdict = TrialVerdict(False, cause, self.max_fe,
                                    self.sim.now if at is None else at)
        raise _StopTrial

    def _send_handshake(self) -> None:
        self.hs_seq += 1
        seq = self.hs_seq
        self.hs_sent_at = self.sim.now
        self.sim.schedule(self.sim.now + HANDSHAKE_RETRY_US, lambda: self._handshake_retry(seq))

        def fpga_got_request():
            self._send(self.sim.now, self.to_cnc, lambda: self._handshake_reply(seq))

        self._send(self.sim.now, self.to_fpga, fpga_got_request)

    def _handshake_retry(self, seq: int) -> None:
        if self.phase == "handshake" and self.hs_seq == seq:
            self._send_handshake()

    def _handshake_reply(self, seq: int) -> None:
        if self.phase != "handshake" or seq != self.hs_seq:
            return  # stale reply from a retried exchange
        self.hs_rtts.append(self.sim.now - self.hs_sent_at)
        if len(self.hs_rtts) < HANDSHAKE_EXCHANGES:
            self._send_handshake()
        else:
            self.phase = "qualify"
            self.residuals.clear()

    def _qualify_decision(self) -> None:
        spread = max(self.residuals) - min(self.residuals)
        baseline_rtt = sum(self.hs_rtts) / len(self.hs_rtts)
        cfg = self.config
        if spread <= cfg.delay_spread_tolerance_us:
            self._enter_control()
        elif baseline_rtt + spread <= cfg.rtt_rescue_budget_us:
            # stock driver copes with a noisy link only when it is fast
            self._enter_control()
        else:
            self._fail(FailCause.INIT_FAILURE)

    def _enter_control(self) -> None:
        self.phase = "control"
        period = self.config.servo_period_us
        self.control_start = ((self.sim.now // period) + 1) * period
        self.last_fb_arrival = self.control_start
        self.pid.reset()
        self.first_cnc_tick = (self.control_start, self.sim.reserve())
        self._arm_watchdog(self.control_start)

    # -- feedback path ------------------------------------------------------

    def _arm_watchdog(self, since: SimTime) -> None:
        """Time out `since` (control start or a feedback arrival)."""
        self.watchdog_since = since
        self.probe = (since + self.config.watchdog_timeout_us + 1, self.sim.reserve())

    def _on_feedback(self, sample_time: SimTime, position: float) -> None:
        """A feedback frame whose arrival is an engine event (see `_run_ticks`)."""
        now = self.sim.now
        self.fb_value = position
        if now != self.last_fb_arrival:
            self.prev_fb_arrival, self.last_fb_arrival = self.last_fb_arrival, now
        if self.phase == "control":
            if now < self.watchdog_since:  # before the first tick: it times out first
                self._arm_watchdog(now)
        elif self.phase == "qualify":
            self.residuals.append(now - sample_time)
            if len(self.residuals) >= QUALIFY_WINDOW_FRAMES:
                self._qualify_decision()

    # -- run -----------------------------------------------------------------

    def run(self) -> TrialVerdict:
        self.first_fpga_tick = (FPGA_TICK_OFFSET_US, self.sim.reserve())
        self.sim.schedule(0, self._send_handshake)
        self.sim.schedule(self.config.init_grace_us, self._grace_deadline)
        try:
            self._run_ticks()
            self.sim.run_until(self.length)  # nothing is left to run: the clock ends there
        except _StopTrial:
            return self.verdict
        if self.phase != "control":
            return TrialVerdict(False, FailCause.INIT_FAILURE, self.max_fe, self.length)
        return TrialVerdict(True, FailCause.NONE, self.max_fe, self.length)

    def _run_ticks(self) -> None:
        """Run the engine's events and the two servo ticks in key order up to
        the end of the trial (see the module docstring)."""
        sim = self.sim
        reserve, count_off_heap = sim.reserve, sim.count_off_heap
        cmd_admit, cmd_impair, cmd_queue = self.to_fpga
        fb_admit, fb_impair, fb_queue = self.to_cnc
        period, fe_limit = self.config.servo_period_us, self.config.fe_limit_mm
        wait = self.config.watchdog_timeout_us + 1  # a probe's delay after its `since`
        # the plant, compiled for the servo period
        sample, pid_tick = self.trajectory.sampler(), self.pid.tick
        move_axis = self.axis.stepper(period)
        rows = None if self.trace is None else self.trace.rows
        stop = (self.length + 1, 0)  # precedes every event after the end
        next_event = sim.next_key(stop)  # the key of the engine's next event, or the end
        cnc_key, fpga_key = self.first_cnc_tick, self.first_fpga_tick
        control_start = cnc_key[0]
        fb_value, last, prev = self.fb_value, self.last_fb_arrival, self.prev_fb_arrival
        since, probe = self.watchdog_since, self.probe
        max_fe = self.max_fe
        v_cmd = 0.0
        ticks, tick_key = 0, None  # ticks run since the engine last ran, and the last one
        while True:
            key = cnc_key if cnc_key < fpga_key else fpga_key
            if next_event < key:
                key = next_event
            # catch up to `key`.  A probe fails if nothing newer than `since`
            # arrived before its µs; arrivals between `since` and the newest
            # one each had a successor within the timeout, so re-arming from
            # the newest keeps the fail instant.
            while True:
                upto = probe if probe < key else key
                while fb_queue and fb_queue[0] < upto:
                    arrival, _, fb_value = fb_queue.popleft()
                    if arrival != last:
                        prev, last = last, arrival
                if upto is key:
                    break
                if (last if last < probe[0] else prev) <= since:
                    self._fail(FailCause.WATCHDOG, probe[0])
                since, probe = last, (last + wait, reserve())
            now = key[0]
            if key is cnc_key:
                setpoint, feedforward = sample(now - control_start)
                fe = setpoint - fb_value
                abs_fe = abs(fe)
                if abs_fe > max_fe:
                    self.max_fe = max_fe = abs_fe
                if abs_fe > fe_limit:
                    self._fail(FailCause.FOLLOWING_ERROR, now)
                command = pid_tick(setpoint, fb_value, feedforward)
                delivered = cmd_admit(now)
                if delivered is not None:
                    arrival = cmd_impair(delivered)
                    if arrival is not None:
                        entry = (arrival, reserve(), command)
                        if cmd_queue and arrival < cmd_queue[-1][0]:
                            insort(cmd_queue, entry)  # overtakes: a reordering channel
                        else:
                            cmd_queue.append(entry)
                if rows is not None:
                    rows.append((now, setpoint, fb_value, command, fe))
                cnc_key = (now + period, reserve())
            elif key is fpga_key:
                while cmd_queue and cmd_queue[0] < key:
                    v_cmd = cmd_queue.popleft()[2]
                position = move_axis(v_cmd)
                if now >= control_start:
                    delivered = fb_admit(now)
                    if delivered is not None:
                        arrival = fb_impair(delivered)
                        if arrival is not None:
                            entry = (arrival, reserve(), position)
                            if fb_queue and arrival < fb_queue[-1][0]:
                                insort(fb_queue, entry)
                            else:
                                fb_queue.append(entry)
                else:
                    # feedback sent before the first controller tick may
                    # re-arm the watchdog, so its arrival stays an event
                    self._send(now, self.to_cnc, partial(self._on_feedback, now, position))
                    next_event = sim.next_key(stop)
                fpga_key = (now + period, reserve())
            else:
                if ticks:
                    count_off_heap(ticks, tick_key)
                    ticks = 0
                if key is stop:
                    return
                self.fb_value, self.last_fb_arrival, self.prev_fb_arrival = fb_value, last, prev
                self.watchdog_since, self.probe = since, probe
                next_event = sim.run_next(stop)
                fb_value, last, prev = self.fb_value, self.last_fb_arrival, self.prev_fb_arrival
                since, probe = self.watchdog_since, self.probe
                if cnc_key is _NEVER:  # the event may have entered control
                    cnc_key = self.first_cnc_tick
                    control_start = cnc_key[0]
                continue
            ticks += 1
            tick_key = key

    def _grace_deadline(self) -> None:
        if self.phase != "control":
            self._fail(FailCause.INIT_FAILURE)


def run_trial(config: LoopConfig,
              command_profile: ChannelProfile,
              feedback_profile: ChannelProfile,
              trial_length_us: SimTime = 60 * US_PER_S,
              seed: int = 0,
              scenario: Scenario = DEFAULT_SCENARIO,
              feedback_blackout_us: SimTime | None = None,
              trace: TrialTrace | None = None) -> TrialVerdict:
    """Run one closed-loop trial and return its verdict."""
    harness = _LoopHarness(config, command_profile, feedback_profile, trial_length_us,
                           seed, scenario, feedback_blackout_us, trace)
    return harness.run()


# ---------------------------------------------------------------------------
# Shipped loop configurations and the calibration search.

#: Gains shared by both driver flavours: proportional position loop with
#: velocity feedforward and a lightly clamped integral term.
NOMINAL_GAINS = PidGains(kp=40.0, ki=2.0, kd=0.0, integral_clamp=0.05)

DEFAULT_LOOP_CONFIG = LoopConfig(
    profile=Profile.DEFAULT,
    gains=NOMINAL_GAINS,
    servo_period_us=SERVO_PERIOD_US,
    watchdog_timeout_us=2_100,
    init_grace_us=2_000_000,
    fe_limit_mm=0.80,
    delay_spread_tolerance_us=1_035,
    rtt_rescue_budget_us=3_100,
)

ADAPTED_LOOP_CONFIG = LoopConfig(
    profile=Profile.ADAPTED,
    gains=NOMINAL_GAINS,
    servo_period_us=SERVO_PERIOD_US,
    watchdog_timeout_us=2_100,
    init_grace_us=4_000_000,
    fe_limit_mm=0.80,
    delay_spread_tolerance_us=1_180,
    rtt_rescue_budget_us=3_100,
)


#: Candidate (default, adapted) loop pairs, the shipped pair first: kp x ki x
#: following-error limit x watchdog timeout, 36 in all.
CALIBRATION_GRID = tuple(
    (replace(DEFAULT_LOOP_CONFIG, gains=gains, fe_limit_mm=fe, watchdog_timeout_us=wd),
     replace(ADAPTED_LOOP_CONFIG, gains=gains, fe_limit_mm=fe, watchdog_timeout_us=wd))
    for kp, ki, fe, wd in itertools.product((40.0, 32.0, 50.0), (2.0, 0.0),
                                            (0.80, 0.75, 0.85), (2_100, 2_050))
    for gains in [replace(NOMINAL_GAINS, kp=kp, ki=ki)])


@dataclass
class CalibrationResult:
    success: bool
    default_config: LoopConfig
    adapted_config: LoopConfig
    matrix: "object"  # SweepResult of the validation sweep
    candidates_tried: int
    mismatched_cells: list[tuple[float, float, str, str]]  # (lat, jit, got, want)

    def report(self) -> str:
        lines = [f"calibration {'succeeded' if self.success else 'FAILED'} "
                 f"after {self.candidates_tried} candidate(s)"]
        if self.mismatched_cells:
            lines.append("best candidate mismatches (latency_ms, jitter_ms, got, want):")
            for lat, jit, got, want in self.mismatched_cells:
                lines.append(f"  ({lat}, {jit}): got {got}, want {want}")
        return "\n".join(lines)


#: Cells that pin every boundary of the target pattern; screening a candidate
#: on these is enough to reject bad configurations cheaply.
SCREENING_CELLS = (
    (0.5, 0.05), (3.0, 0.15), (0.5, 0.2),
    (1.0, 0.2), (3.0, 0.2),
    (5.0, 0.05), (5.0, 0.2), (0.5, 0.3), (3.0, 0.3),
)


def calibrate(master_seed: int = 0,
              screen_trial_seconds: float = 12.0,
              validation_spec=None,
              scenario: Scenario = DEFAULT_SCENARIO) -> CalibrationResult:
    """Grid-search loop configurations that reproduce the target verdict matrix.

    Candidates are screened on the boundary cells with short single-seed
    trials; survivors are validated with a full sweep at the acceptance
    spec.  Returns the first fully matching pair, or the best attempt
    with its mismatch list.  Both stages run at `master_seed`, so a
    `validation_spec` with another master seed is a `ValueError`.
    """
    from .harness import SweepSpec, evaluate_cell, reference_pattern, run_sweep

    if validation_spec is not None and validation_spec.master_seed != master_seed:
        raise ValueError(f"calibrate screens at master seed {master_seed} but its validation "
                         f"spec has master seed {validation_spec.master_seed}")
    target = reference_pattern()
    best_mismatches: list | None = None
    best_pair = None
    best_matrix = None
    tried = 0

    for default, adapted in CALIBRATION_GRID:
        tried += 1
        screen_ok = True
        for lat, jit in SCREENING_CELLS:
            got = evaluate_cell(default, adapted, lat, jit, 1, screen_trial_seconds,
                                master_seed, scenario).cell_class
            if got is not target[(lat, jit)]:
                screen_ok = False
                break
        if not screen_ok:
            continue

        spec = validation_spec or SweepSpec(master_seed=master_seed)
        matrix = run_sweep(spec, default, adapted, scenario)
        mismatches = [
            (cell.latency_ms, cell.jitter_ms, cell.cell_class.value,
             target[(cell.latency_ms, cell.jitter_ms)].value)
            for cell in matrix.cells
            if cell.cell_class is not target[(cell.latency_ms, cell.jitter_ms)]
        ]
        if not mismatches:
            return CalibrationResult(True, default, adapted, matrix, tried, [])
        if best_mismatches is None or len(mismatches) < len(best_mismatches):
            best_mismatches, best_pair, best_matrix = mismatches, (default, adapted), matrix

    if best_pair is None:
        best_pair = (DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        best_mismatches = [(lat, jit, "unscreened", cls.value)
                           for (lat, jit), cls in sorted(target.items())]
    return CalibrationResult(False, best_pair[0], best_pair[1], best_matrix,
                             tried, best_mismatches)
