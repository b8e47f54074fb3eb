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
admission closure on the ring (from `ring.admitters`) computes its
delivery instant and the direction's `Channel.impair` closure impairs it
at that instant.  A trial holds the two closures of each direction,
built once with their configuration and profile bound, and a frame
builds no object.  A servo frame goes into its direction's in-flight
queue as ``(arrival, seq, value)``, a feedback frame with its send
instant appended, ``seq`` being the next number of the trial's counter,
which the heap kernel (``tests/test_heap_oracle.py``) gives the arrival
event.  A handshake frame's arrival is a handshake item.

The loop.  One loop, `_LoopHarness._run_ticks`, runs a trial, and the
trial schedules no engine event.  The two servo ticks are ``(instant,
seq)`` keys.  The handshake items are ``(instant, seq, kind, exchange)``
tuples on a heap local to the loop: the first request (run as the retry
of exchange 0), each retry, each request's arrival at the stage and each
reply's at the controller, the grace deadline, and the end of the trial,
which follows every other key on its µs.  Several requests and replies
can be in flight at once, when the round trip is longer than the retry
interval; a stale one still draws from the ring and channel streams, and
the stage answers every request.  The earliest key runs next, once the
loop has caught up to it: applied the queued feedback and fired the
watchdog probes whose keys precede it.  A feedback frame sets the
feedback value and the newest arrival; one that arrives before the
watchdog's `since` (infinite before control), so before the control
start, does more.  In qualify it records its delay residual, and the
window's last frame runs the link decision at its arrival, which fails
the trial or enters control: it reserves the first controller tick's
number, then the probe's, and the catch-up stops at that tick if it
comes first.  In control the first such frame re-arms the probe from
itself.  A stage tick applies the queued commands whose keys precede its
own.  The loop reads the heap's first key again only after a handshake
item runs, so a servo tick costs nothing for the handshake.  A failure
returns its verdict from the loop.  A tick calls the trajectory's
`sampler`, the controller's `tick` and the axis's `stepper`, closures
compiled for the trial as the links are.

The feedback watchdog is one probe that re-arms itself from the newest
arrival rather than one probe per arrival.  It fails the trial at s +
timeout + 1, s being the control start or a feedback arrival, if and
only if no feedback arrived in (s, s + timeout]: a frame that arrives on
the probe's own µs is too late, whichever of the two comes first.  The
probe is no event either, but one ``(instant, seq)`` key whose number is
reserved when it is armed; a failing probe reports its own instant.

Same-µs order.  The rule is the number from the trial's counter.  The
heap kernel fires events that share a µs in the order they were
scheduled, and a queued frame, a probe, a servo tick or a handshake item
is numbered in the order its event is scheduled there, so plain tuple
comparison reproduces that order.  A frame's or handshake item's number
is taken when it is sent or armed; a servo tick's where the tick one
period before it ends, after that tick's frame (the first stage tick's
when the run starts, before the first request and the grace deadline,
the first controller tick's on entering control); the probe's when it is
armed.  So a handshake item on the µs of a servo tick runs first exactly
when it was numbered before that tick's number was taken, and a frame
that arrives on the µs of a servo tick is seen by it exactly when the
frame was sent before that tick's number was taken: feedback sent more
than one servo period before the controller tick it lands on is used by
that tick, feedback sent less than a period before it is not.  Whether
the watchdog fails is order-free, as above; the order decides only
whether a controller tick on the fail instant's µs runs first.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from dataclasses import dataclass, field, replace
from heapq import heapify, heappop, heappush

from .channel import Channel, ChannelProfile
from .engine import SimTime, US_PER_S, component_rng
from .plant import (AxisModel, FailCause, LoopConfig, PidController, PidGains,
                    Profile, TabulatedTrajectory, TrapezoidTrajectory, TrialVerdict)
from .ring import RingConfig, RingConfigError, admitters

MASTER_NODE = "master"
FPGA_NODE = "fpga"

SERVO_PERIOD_US = 1000
FPGA_TICK_OFFSET_US = 500

HANDSHAKE_EXCHANGES = 16
HANDSHAKE_RETRY_US = 100_000
QUALIFY_WINDOW_FRAMES = 512

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


_NEVER = (float("inf"), 0)  # the key of a probe or tick that is not due

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

        # numbers the keys in the order the heap kernel schedules their events
        self.reserve = itertools.count(1).__next__
        ring = scenario.control_ring
        admit = admitters(ring, component_rng(seed, "ring", "control"))
        cmd_channel = Channel(command_profile, component_rng(seed, "chan", "cmd"))
        fb_channel = Channel(feedback_profile, component_rng(seed, "chan", "fb"),
                             blackout_from=feedback_blackout_us)
        # (the sending node's admission closure on the control ring, the
        # channel's impairment closure, servo frames in flight as (arrival,
        # reserved seq, value), feedback with its send instant appended) per
        # direction
        self.to_fpga = (admit[ring.nodes.index(MASTER_NODE)], cmd_channel.impair, deque())
        self.to_cnc = (admit[ring.nodes.index(FPGA_NODE)], fb_channel.impair, deque())

        self.axis = AxisModel()
        self.pid = PidController(config.gains, config.servo_period_us)
        # (instant, reserved seq) of the first stage tick, set by `run`
        self.first_fpga_tick: tuple[SimTime, int] = _NEVER

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
        # the stock driver copes with a noisy link only when it is fast
        if (spread <= cfg.delay_spread_tolerance_us
                or baseline_rtt + spread <= cfg.rtt_rescue_budget_us):
            self.phase = "control"
            self.pid.reset()
            period = cfg.servo_period_us
            self.control_start = (now // period + 1) * period
            return self.control_start
        return None

    def run(self) -> TrialVerdict:
        reserve = self.reserve
        self.first_fpga_tick = (FPGA_TICK_OFFSET_US, reserve())
        return self._run_ticks(((0, reserve(), _RETRY, 0),
                                (self.config.init_grace_us, reserve(), _GRACE, 0)))

    def _run_ticks(self, items: tuple[tuple, ...] = ()) -> TrialVerdict:
        """Run the handshake `items` and the two servo ticks in key order up
        to the end of the trial, and return the verdict (see the module
        docstring)."""
        reserve = self.reserve
        cmd_admit, cmd_impair, cmd_queue = self.to_fpga
        fb_admit, fb_impair, fb_queue = self.to_cnc
        period, fe_limit = self.config.servo_period_us, self.config.fe_limit_mm
        wait = self.config.watchdog_timeout_us + 1  # a probe's delay after its `since`
        # the plant, compiled for the servo period
        sample, pid_tick = self.trajectory.sampler(), self.pid.tick
        move_axis = self.axis.stepper(period)
        rows = None if self.trace is None else self.trace.rows
        # the handshake items and, after every key on the trial's last µs, its end
        items = [*items, (self.length, float("inf"), _END, 0)]
        heapify(items)
        next_item = items[0]
        cnc_key, fpga_key = _NEVER, self.first_fpga_tick
        control_start = None
        fb_value = self.axis.position_mm
        last = prev = 0  # the newest feedback arrival, and the one before on an earlier µs
        # the arrival the pending probe times out (none before control), and
        # the probe's (instant, reserved seq)
        since, probe = float("inf"), _NEVER
        max_fe = 0.0
        v_cmd = 0.0
        hs_seq = hs_sent_at = 0  # the newest exchange, and when its request was sent
        while True:
            key = cnc_key if cnc_key < fpga_key else fpga_key
            if next_item < key:
                key = next_item
            # catch up to `key`.  A probe fails if nothing newer than `since`
            # arrived before its µs; arrivals between `since` and the newest
            # one each had a successor within the timeout, so re-arming from
            # the newest keeps the fail instant.
            while True:
                upto = probe if probe < key else key
                while fb_queue and fb_queue[0] < upto:
                    arrival, _, fb_value, sent = fb_queue.popleft()
                    if arrival != last:
                        prev, last = last, arrival
                    if arrival < since:  # it arrives before the control start
                        if self.phase == "qualify":
                            self.residuals.append(arrival - sent)
                            if len(self.residuals) == QUALIFY_WINDOW_FRAMES:
                                control_start = self._qualify_decision(arrival)
                                if control_start is None:
                                    return TrialVerdict(False, FailCause.INIT_FAILURE,
                                                        max_fe, arrival)
                                cnc_key = (control_start, reserve())
                                last = since = control_start
                                probe = (control_start + wait, reserve())
                                if cnc_key < key:  # stop at the first controller tick
                                    key = cnc_key
                        elif self.phase == "control":  # it times out before the control start
                            since, probe = arrival, (arrival + wait, reserve())
                        upto = probe if probe < key else key
                if upto is key:
                    break
                if (last if last < probe[0] else prev) <= since:
                    return TrialVerdict(False, FailCause.WATCHDOG, max_fe, probe[0])
                since, probe = last, (last + wait, reserve())
            now = key[0]
            if key is cnc_key:
                setpoint, feedforward = sample(now - control_start)
                fe = setpoint - fb_value
                abs_fe = abs(fe)
                if abs_fe > max_fe:
                    max_fe = abs_fe
                if abs_fe > fe_limit:
                    return TrialVerdict(False, FailCause.FOLLOWING_ERROR, max_fe, now)
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
                delivered = fb_admit(now)
                if delivered is not None:
                    arrival = fb_impair(delivered)
                    if arrival is not None:
                        entry = (arrival, reserve(), position, now)
                        if fb_queue and arrival < fb_queue[-1][0]:
                            insort(fb_queue, entry)
                        else:
                            fb_queue.append(entry)
                fpga_key = (now + period, reserve())
            else:
                _, _, kind, exchange = heappop(items)
                if kind == _REQUEST:  # the stage answers every request, a stale one too
                    delivered = fb_admit(now)
                    if delivered is not None:
                        arrival = fb_impair(delivered)
                        if arrival is not None:
                            heappush(items, (arrival, reserve(), _REPLY, exchange))
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
                        heappush(items, (now + HANDSHAKE_RETRY_US, reserve(), _RETRY, hs_seq))
                        delivered = cmd_admit(now)
                        if delivered is not None:
                            arrival = cmd_impair(delivered)
                            if arrival is not None:
                                heappush(items, (arrival, reserve(), _REQUEST, hs_seq))
                next_item = items[0]


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
    with its mismatch list.  Both stages run at `master_seed`, and every
    validation cell must be in the reference pattern: a `validation_spec`
    that breaks either is a `ConfigError`, raised before any trial runs.
    """
    from .config import ConfigError
    from .harness import SweepSpec, _fmt, evaluate_cell, reference_pattern, run_sweep

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
