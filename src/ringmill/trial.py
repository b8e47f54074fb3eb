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
accepted if the spread fits the driver's tolerance, or if the link is
fast enough that baseline RTT plus spread still fits the driver's total
response budget.  Otherwise the trial ends as an init failure, which is
exactly what the adapted driver flavour (larger tolerance, longer grace)
exists to fix.

During *control* the loop runs at the servo period.  The trial fails on
the first following-error excursion past the limit or when the feedback
watchdog expires; surviving to the configured length is a pass.

A trial's length only truncates it.  Run to L' < L, the trial whose run
to L fails at t <= L' returns that verdict; else it is an init failure
at L' if L' falls before the link decision or the trial makes none; else
it passes at L', with a peak following error no larger than the run to
L's.  The end of the trial follows every other key on its µs, so a
failure or a link decision on the last µs still happens.  The first
controller tick comes at the whole servo period after the link decision,
so a trial that ends between the two passes having run no controller
tick, with a peak error of 0: it survived to its length, and that is a
pass.

Frames.  When a command or feedback frame is sent, its direction's
`channel.frame_path` admits it at the sending node on the ring and
impairs it at its delivery instant on the direction's channel, in one
call, ``send(now) -> arrival | None``.  A trial holds one path per
direction, built once with the ring configuration and the profile bound,
and a frame builds no object.  A servo frame goes into its direction's in-flight
queue as ``(arrival, seq, value)``, a feedback frame with its send
instant appended, ``seq`` being the trial's next number (see Same-µs
order), which the heap kernel (``tests/test_heap_oracle.py``) gives the
arrival event.  The loop holds the key of each queue's first frame in
two int locals, the instant `never` while the queue is empty, and sets it
again only when it takes that frame off the queue or a new frame arrives
before it.  It holds the arrival of each queue's last frame (the last one
it held, once it is empty) in one more: a new frame that arrives before
that overtakes and is insorted, any other is appended.  A handshake
frame's arrival is a handshake item.

The loop.  One loop, `_LoopHarness._run_ticks`, runs a trial, and the
trial schedules no engine event.  The loop holds each key it compares,
an instant and a number, in two int locals.  The handshake items are
``(instant, seq, kind, exchange)`` tuples on a heap local to the loop:
the first request (run as the retry of exchange 0), each retry, each
request's arrival at the stage and each reply's at the controller, the
grace deadline, and the end of the trial, which follows every other key
on its µs.  Several requests and replies can be in flight at once, when
the round trip is longer than the retry interval; a stale one still
draws from the ring and channel streams, and the stage answers every
request.  The earliest key runs next, once the loop has caught up to it:
applied the queued feedback and fired the watchdog probes whose keys
precede it.  A catch-up pass compares the first feedback frame's key
with the key: a frame before it is applied unless the probe comes first,
and otherwise the catch-up ends unless the probe is due.  A feedback
frame sets the feedback value and the newest arrival; one that arrives
before the watchdog's `since` (after the end before control), so before
the control start, does more.  In qualify it records its delay residual,
and the window's last frame runs the link decision at its arrival, which
fails the trial or enters control: it numbers the first controller tick,
then the probe, and the catch-up stops at that tick if it comes first.
In control the first such frame re-arms the probe from itself.  A stage
tick applies the queued commands while the first one's key precedes its
own.  The loop reads the heap's first key again only after a handshake
item runs, so a servo tick costs nothing for the handshake.  A failure
returns its verdict from the loop.  The k-th controller tick, at control
start + k servo periods, reads its setpoint and feedforward from entry k of
the trajectory's setpoint table (`plant.setpoint_table`), which the
trajectory's `sampler` fills at k periods, so it is the value the sampler
gives there; an entry past the filled part fills the next chunk first.

The loop holds the plant.  The controller's integral and last error and
the axis's velocity and position are float locals; `kp`, `ki`, `kd`,
`derive` (kd != 0), `clamp`, `dt`, `lag` (dt / τ), `max_dv`, `v_limit` and
the negatives `neg_clamp`, `neg_max_dv` and `neg_v_limit` are bound first.
A controller tick runs the controller's arithmetic and a stage tick the
axis's, the only copy in `src/`, pinned bit for bit by the heap kernel to
``tests/reference_plant.py`` (see `plant`).  No controller tick runs before
control, so the loop's starting state is the controller's on entering it.

The feedback watchdog is one probe that re-arms itself from the newest
arrival rather than one probe per arrival.  It fails the trial at s +
timeout + 1, s being the control start or a feedback arrival, if and
only if no feedback arrived in (s, s + timeout]: a frame that arrives on
the probe's own µs is too late, whichever of the two comes first.  The
probe is no event either, but one key numbered when it is armed; a
failing probe reports its own instant.

Same-µs order.  The rule is the key's number.  The heap kernel fires
events that share a µs in the order they were scheduled, and a queued
frame, a probe, a servo tick or a handshake item is numbered in the
order its event is scheduled there, so comparing keys by instant and
then number, ``t < u or t == u and s < v``, reproduces that order.  Where
the usual answer is "not yet" (the first handshake item, feedback frame
or probe against the next key, and the stage tick's command drain), the
loop writes it ``t <= u and (t < u or s < v)``.  The two agree: both are
false when ``t > u``, and both reduce to ``t < u or s < v`` when ``t <=
u``; but the second settles a "not yet" with one compare instead of two.
The servo ticks never share a µs, so the earlier instant runs: the
controller ticks on whole periods, the stage half a period after.  The
loop counts on in a local int from one number of the trial's `reserve`
counter, so its numbers follow every one taken before it.  A frame's or
handshake item's number is taken when it is sent or armed; a servo
tick's where the tick one period before it ends, after that tick's frame
(the first stage tick's when the run starts, before the first request
and the grace deadline, the first controller tick's on entering
control); the probe's when it is armed.  So a handshake item on the µs
of a servo tick runs first exactly when it was numbered before that
tick's number was taken, and a frame that arrives on the µs of a servo
tick is seen by it exactly when the frame was sent before that tick's
number was taken: feedback sent more than one servo period before the
controller tick it lands on is used by that tick, feedback sent less
than a period before it is not.  Whether the watchdog fails is
order-free, as above; the order decides only whether a controller tick
on the fail instant's µs runs first.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from dataclasses import dataclass, field, replace
from heapq import heapify, heappop, heappush
from typing import Annotated

from .channel import ZERO_IMPAIRMENT, ChannelProfile, frame_path
from .engine import (ConfigError, In, Seed, SimTime, US_PER_S, _fmt, check_fields,
                     component_rng, hold, us_from)
from .plant import (AxisModel, FailCause, LoopConfig, PidGains, Profile, TabulatedTrajectory,
                    TrapezoidTrajectory, TrialVerdict, setpoint_table)
from .ring import RingConfig, RingConfigError

MASTER_NODE = "master"
FPGA_NODE = "fpga"

HANDSHAKE_EXCHANGES = 16
HANDSHAKE_RETRY_US = 100_000
QUALIFY_WINDOW_FRAMES = 512
_TRIAL_LENGTH_US = Annotated[SimTime, In("(0, inf)")]  # whole µs above 0

DEFAULT_CONTROL_RING = RingConfig(
    ring_id="control", nodes=(MASTER_NODE, FPGA_NODE),
    slot_time_us=800, tx_time_us=100)


@dataclass(frozen=True)
class Scenario:
    """The network and the motion a run simulates: the control ring, the
    command and feedback channels and the trajectory.  The loop pair, the
    length, the seed and a sweep cell's delay and jitter (`channels_at`)
    come from the caller.  The same value drives a trial, a sweep, a
    calibration and a manifest."""

    control_ring: RingConfig = DEFAULT_CONTROL_RING
    trajectory: TrapezoidTrajectory | TabulatedTrajectory = TrapezoidTrajectory()
    command_channel: ChannelProfile = ZERO_IMPAIRMENT
    feedback_channel: ChannelProfile = ZERO_IMPAIRMENT

    def __post_init__(self):
        check_fields(self)
        # the nodes a trial sends between
        if not {MASTER_NODE, FPGA_NODE} <= set(self.control_ring.nodes):
            raise RingConfigError(f"ring {self.control_ring.ring_id}: a trial needs "
                                  f"nodes {MASTER_NODE} and {FPGA_NODE}")

    def channels_at(self, latency_ms: float,
                    jitter_ms: float) -> tuple[ChannelProfile, ChannelProfile]:
        """The two channels at this mean delay and jitter, by the whole-µs rule."""
        link = {"mean_delay_us": us_from(latency_ms, "ms"), "jitter_us": us_from(jitter_ms, "ms")}
        return replace(self.command_channel, **link), replace(self.feedback_channel, **link)


DEFAULT_SCENARIO = Scenario()

#: The default scenario's channels at a cell: uniform, lossless and FIFO each way.
symmetric_profiles = DEFAULT_SCENARIO.channels_at


# the kinds of handshake item, ``(instant, reserved seq, kind, exchange)``;
# the first request runs as the retry of exchange 0
_RETRY, _REQUEST, _REPLY, _GRACE, _END = range(5)


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

        # numbers the keys taken before the loop, and the one it counts on from
        self.reserve = itertools.count(1).__next__
        ring = scenario.control_ring
        ring_rng = component_rng(seed, "ring", "control")  # both nodes draw from it
        cmd_send = frame_path(ring, ring.nodes.index(MASTER_NODE), ring_rng, command_profile,
                              component_rng(seed, "chan", "cmd"))
        fb_send = frame_path(ring, ring.nodes.index(FPGA_NODE), ring_rng, feedback_profile,
                             component_rng(seed, "chan", "fb"), feedback_blackout_us)
        # (the frame path from the sending node through the channel, servo frames
        # in flight as (arrival, reserved seq, value), feedback with its send
        # instant appended) per direction
        self.to_fpga = (cmd_send, deque())
        self.to_cnc = (fb_send, deque())

        # (instant, reserved seq) of the first stage tick, set by `run`; none before
        self.first_fpga_tick: tuple[SimTime, int] | None = None

        self.phase = "handshake"
        self.hs_rtts: list[int] = []
        self.residuals: list[int] = []
        self.control_start: SimTime = 0

    def _qualify_decision(self, now: SimTime) -> SimTime | None:
        """Enter control at `now` and return its start, or None if the link
        is rejected."""
        spread = max(self.residuals) - min(self.residuals)
        baseline_rtt = sum(self.hs_rtts) / len(self.hs_rtts)
        cfg = self.config
        # a driver copes with a noisy link beyond its tolerance only when it is fast
        if (spread <= cfg.delay_spread_tolerance_us
                or baseline_rtt + spread <= cfg.rtt_rescue_budget_us):
            self.phase = "control"
            period = cfg.servo_period_us
            self.control_start = (now // period + 1) * period
            return self.control_start
        return None

    def run(self) -> TrialVerdict:
        reserve = self.reserve
        self.first_fpga_tick = (self.config.servo_period_us // 2, reserve())
        return self._run_ticks(((0, reserve(), _RETRY, 0),
                                (self.config.init_grace_us, reserve(), _GRACE, 0)))

    def _run_ticks(self, items: tuple[tuple, ...] = ()) -> TrialVerdict:
        """Run the handshake `items` and the two servo ticks in key order up
        to the end of the trial, and return the verdict (see the module
        docstring)."""
        cmd_send, cmd_queue = self.to_fpga
        fb_send, fb_queue = self.to_cnc
        period, fe_limit = self.config.servo_period_us, self.config.fe_limit_mm
        wait = self.config.watchdog_timeout_us + 1  # a probe's delay after its `since`
        # the plant, compiled for the servo period: the setpoint and feedforward of the
        # k-th controller tick are setpoints[k], from a table other trials may have filled;
        # the controller's and the axis's constants, and the negated lower bounds (exact),
        # are bound here, and their state is float locals
        setpoints, grow = setpoint_table(self.trajectory, period)
        gains, axis = self.config.gains, AxisModel()
        kp, ki, kd, clamp = gains.kp, gains.ki, gains.kd, gains.integral_clamp
        dt = period / US_PER_S
        lag = dt / axis.time_constant_s
        max_dv = axis.max_accel_mm_s2 * dt
        v_limit = axis.max_velocity_mm_s
        neg_clamp, neg_max_dv, neg_v_limit, derive = -clamp, -max_dv, -v_limit, kd != 0.0
        # the controller's state on entering control, as no controller tick runs before
        # it, and the axis's at rest
        integral, last_error = 0.0, None
        position, velocity = axis.position_mm, axis.velocity_mm_s
        rows = None if self.trace is None else self.trace.rows
        residuals = self.residuals
        # the handshake items and, after every key on the trial's last µs, its end
        items = [*items, (self.length, float("inf"), _END, 0)]
        heapify(items)
        never = self.length + 1  # the instant of a key that is not due; (now, s) runs next
        seq = self.reserve()  # the newest number; the loop numbers on from it
        item_t, item_s, _, _ = items[0]
        cnc_t, cnc_s = never, 0
        fpga_t, fpga_s = self.first_fpga_tick or (never, 0)
        # the key of each queue's first frame, `never` while it is empty
        cmd_t, cmd_s = cmd_queue[0][:2] if cmd_queue else (never, 0)
        fb_t, fb_s = fb_queue[0][:2] if fb_queue else (never, 0)
        # the arrival of each queue's last frame, or of the last one it held: a new
        # frame that arrives before it overtakes
        cmd_tail = cmd_queue[-1][0] if cmd_queue else 0
        fb_tail = fb_queue[-1][0] if fb_queue else 0
        fb_value = position
        last = prev = 0  # the newest feedback arrival, and the one before on an earlier µs
        # the arrival the pending probe times out (none before control), and the probe's key
        since, probe_t, probe_s = never, never, 0
        max_fe = 0.0
        v_cmd = 0.0
        ticks = 0  # the controller ticks run
        hs_seq = hs_sent_at = 0  # the newest exchange, and when its request was sent
        while True:
            if cnc_t < fpga_t:
                now, s = cnc_t, cnc_s
            else:
                now, s = fpga_t, fpga_s
            if item_t <= now and (item_t < now or item_s < s):
                now, s = item_t, item_s
            # catch up to (now, s): apply the feedback frames before it and fire the probe if
            # it is due, in key order.  A probe fails if nothing newer than `since` arrived
            # before its µs; arrivals between `since` and the newest one each had a successor
            # within the timeout, so re-arming from the newest keeps the fail instant.
            while True:
                if fb_t <= now and (fb_t < now or fb_s < s):
                    if fb_t < probe_t or fb_t == probe_t and fb_s < probe_s:
                        arrival = fb_t
                        _, _, fb_value, sent = fb_queue.popleft()
                        if fb_queue:
                            fb_t, fb_s, _, _ = fb_queue[0]
                        else:
                            fb_t = never
                        if arrival != last:
                            prev, last = last, arrival
                        if arrival < since:  # it arrives before the control start
                            if self.phase == "qualify":
                                residuals.append(arrival - sent)
                                if len(residuals) == QUALIFY_WINDOW_FRAMES:
                                    control_start = self._qualify_decision(arrival)
                                    if control_start is None:
                                        return TrialVerdict(False, FailCause.INIT_FAILURE,
                                                            max_fe, arrival)
                                    cnc_t, cnc_s = control_start, seq + 1
                                    last = since = control_start
                                    probe_t, probe_s = control_start + wait, seq + 2
                                    seq += 2
                                    # stop at the first controller tick
                                    if cnc_t < now or cnc_t == now and cnc_s < s:
                                        now, s = cnc_t, cnc_s
                            elif self.phase == "control":  # it times out before the control start
                                seq += 1
                                since, probe_t, probe_s = arrival, arrival + wait, seq
                        continue
                elif not (probe_t <= now and (probe_t < now or probe_s < s)):
                    break  # caught up to the key
                if (last if last < probe_t else prev) <= since:
                    return TrialVerdict(False, FailCause.WATCHDOG, max_fe, probe_t)
                seq += 1
                since, probe_t, probe_s = last, last + wait, seq
            if s == cnc_s:
                try:
                    setpoint, feedforward = setpoints[ticks]
                except IndexError:
                    grow()
                    setpoint, feedforward = setpoints[ticks]
                ticks += 1
                fe = setpoint - fb_value
                abs_fe = abs(fe)
                if abs_fe > max_fe:  # only a new peak can pass the limit: max_fe never does
                    max_fe = abs_fe
                    if abs_fe > fe_limit:
                        return TrialVerdict(False, FailCause.FOLLOWING_ERROR, max_fe, now)
                integral += fe * dt
                if integral > clamp:
                    integral = clamp
                elif integral < neg_clamp:
                    integral = neg_clamp
                derivative = 0.0
                if derive and last_error is not None:
                    derivative = (fe - last_error) / dt
                last_error = fe
                # the kd term is added when kd is 0 too: it decides the sign of a zero command
                command = feedforward + kp * fe + ki * integral + kd * derivative
                arrival = cmd_send(now)
                if arrival is not None:
                    seq += 1
                    entry = (arrival, seq, command)
                    if arrival < cmd_tail:
                        insort(cmd_queue, entry)  # overtakes: a reordering channel
                    else:
                        cmd_queue.append(entry)
                        cmd_tail = arrival
                    if arrival < cmd_t:  # the new first frame
                        cmd_t, cmd_s = arrival, seq
                if rows is not None:
                    rows.append((now, setpoint, fb_value, command, fe))
                seq += 1
                cnc_t, cnc_s = now + period, seq
            elif s == fpga_s:
                while cmd_t <= now and (cmd_t < now or cmd_s < s):
                    _, _, v_cmd = cmd_queue.popleft()
                    if cmd_queue:
                        cmd_t, cmd_s, _ = cmd_queue[0]
                    else:
                        cmd_t = never
                dv = lag * (v_cmd - velocity)
                if dv > max_dv:
                    dv = max_dv
                elif dv < neg_max_dv:
                    dv = neg_max_dv
                velocity += dv
                if velocity > v_limit:
                    velocity = v_limit
                elif velocity < neg_v_limit:
                    velocity = neg_v_limit
                position += velocity * dt
                arrival = fb_send(now)
                if arrival is not None:
                    seq += 1
                    entry = (arrival, seq, position, now)
                    if arrival < fb_tail:
                        insort(fb_queue, entry)
                    else:
                        fb_queue.append(entry)
                        fb_tail = arrival
                    if arrival < fb_t:  # the new first frame
                        fb_t, fb_s = arrival, seq
                seq += 1
                fpga_t, fpga_s = now + period, seq
            else:
                _, _, kind, exchange = heappop(items)
                if kind == _REQUEST:  # the stage answers every request, a stale one too
                    arrival = fb_send(now)
                    if arrival is not None:
                        seq += 1
                        heappush(items, (arrival, seq, _REPLY, exchange))
                elif kind >= _GRACE:  # the grace deadline, or the end of the trial
                    if self.phase != "control":
                        return TrialVerdict(False, FailCause.INIT_FAILURE, max_fe, now)
                    if kind == _END:
                        return TrialVerdict(True, FailCause.NONE, max_fe, now)
                elif self.phase == "handshake" and exchange == hs_seq:  # not stale
                    if kind == _REPLY:
                        self.hs_rtts.append(now - hs_sent_at)
                        if len(self.hs_rtts) == HANDSHAKE_EXCHANGES:
                            self.phase = "qualify"
                    if self.phase == "handshake":  # send the next request
                        hs_seq, hs_sent_at = hs_seq + 1, now
                        seq += 1
                        heappush(items, (now + HANDSHAKE_RETRY_US, seq, _RETRY, hs_seq))
                        arrival = cmd_send(now)
                        if arrival is not None:
                            seq += 1
                            heappush(items, (arrival, seq, _REQUEST, hs_seq))
                item_t, item_s, _, _ = items[0]

def run_trial(config: LoopConfig,
              command_profile: ChannelProfile,
              feedback_profile: ChannelProfile,
              trial_length_us: SimTime = 60 * US_PER_S,
              seed: Seed = 0,
              scenario: Scenario = DEFAULT_SCENARIO,
              feedback_blackout_us: SimTime | None = None,
              trace: TrialTrace | None = None) -> TrialVerdict:
    """Run one closed-loop trial and return its verdict."""
    hold(trial_length_us, _TRIAL_LENGTH_US, "trial_length_us")
    hold(seed, Seed, "seed")
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
    servo_period_us=1000,
    watchdog_timeout_us=2_100,
    init_grace_us=2_000_000,
    fe_limit_mm=0.80,
    delay_spread_tolerance_us=1_035,
    rtt_rescue_budget_us=3_100,
)

#: The adapted driver: a longer init grace and a looser delay-spread tolerance.
ADAPTED_LOOP_CONFIG = replace(DEFAULT_LOOP_CONFIG, profile=Profile.ADAPTED,
                              init_grace_us=4_000_000, delay_spread_tolerance_us=1_180)


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
    with its mismatch list.  Both stages run at `master_seed`, and every
    validation cell must be in the reference pattern: a `validation_spec`
    that breaks either is a `ConfigError`, raised before any trial runs.
    """
    from .harness import SweepSpec, evaluate_cell, reference_pattern, run_sweep

    spec = validation_spec or SweepSpec(master_seed=master_seed)
    if spec.master_seed != master_seed:
        raise ConfigError(f"calibrate screens at master seed {master_seed} but its validation "
                          f"spec has master seed {spec.master_seed}")
    target = reference_pattern()
    for lat, jit in itertools.product(spec.latencies_ms, spec.jitters_ms):
        if (lat, jit) not in target:
            raise ConfigError(f"calibrate has no target class for cell {_fmt(lat)},{_fmt(jit)}: "
                              "its reference pattern holds only the default axes")
    best_mismatches: list | None = None
    best_pair = None
    best_matrix = None
    tried = 0
    screen = replace(spec, seeds_per_cell=1, trial_seconds=screen_trial_seconds)

    for default, adapted in CALIBRATION_GRID:
        tried += 1
        screen_ok = True
        for lat, jit in SCREENING_CELLS:
            got = evaluate_cell(screen, default, adapted, lat, jit, scenario).cell_class
            if got is not target[(lat, jit)]:
                screen_ok = False
                break
        if not screen_ok:
            continue

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
        best_mismatches = [(lat, jit, "unscreened", target[(lat, jit)].value)
                           for lat, jit in itertools.product(spec.latencies_ms, spec.jitters_ms)]
    return CalibrationResult(False, best_pair[0], best_pair[1], best_matrix,
                             tried, best_mismatches)
