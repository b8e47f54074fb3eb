"""The heap kernel as an oracle for the lockstep trial.

`HeapHarness` runs a trial the plain way: every frame arrival, servo
tick and watchdog probe is an engine event on the heap, so same-µs order
is the engine's schedule order and nothing else.  `run_trial` keeps the
control phase off the heap (queued frames, reserved keys, one loop for
both ticks) and promises the same verdicts and traces.  The test runs
both on a fixed-seed sample biased toward the boundaries where the two
could part: watchdog timeouts within a few µs of the largest gap between
feedback arrivals, blackouts on a servo tick's µs, zero jitter (many
arrivals share a µs) and channel delays that land frames on a tick's µs.
"""

import random
from dataclasses import replace

from ringmill.channel import Channel, ChannelProfile, JitterDistribution
from ringmill.engine import Simulator, component_rng
from reference_plant import PidController, step_axis
from ringmill.plant import AxisModel, FailCause, TrialVerdict
from ringmill.ring import RingConfig, TokenRing
from ringmill.trial import (ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG, FPGA_NODE,
                            HANDSHAKE_EXCHANGES, HANDSHAKE_RETRY_US, MASTER_NODE,
                            QUALIFY_WINDOW_FRAMES, Scenario, TrialTrace, run_trial)


class _Stop(Exception):
    pass


class HeapHarness:
    """One trial with every arrival, tick and probe an engine event."""

    def __init__(self, config, command_profile, feedback_profile, trial_length_us, seed,
                 scenario, feedback_blackout_us, trace):
        self.config = config
        self.sample = scenario.trajectory.sampler()
        self.length = trial_length_us
        self.trace = trace

        self.sim = Simulator()
        self.ring = TokenRing(scenario.control_ring, self.sim,
                              component_rng(seed, "ring", "control"))
        cmd_channel = Channel(command_profile, component_rng(seed, "chan", "cmd"))
        fb_channel = Channel(feedback_profile, component_rng(seed, "chan", "fb"),
                             blackout_from=feedback_blackout_us)
        self.to_fpga = (self.ring.node_index(MASTER_NODE), cmd_channel)
        self.to_cnc = (self.ring.node_index(FPGA_NODE), fb_channel)

        self.axis = AxisModel()
        self.pid = PidController(config.gains, config.servo_period_us)
        self.v_cmd = 0.0

        self.phase = "handshake"
        self.hs_rtts = []
        self.hs_seq = 0
        self.hs_sent_at = 0
        self.residuals = []
        self.fb_value = self.axis.position_mm
        self.last_fb_arrival = 0
        self.prev_fb_arrival = 0  # the arrival before, on an earlier µs
        self.control_start = 0
        self.watchdog_since = 0
        self.watchdog_token = 0  # the token of the one live probe
        self.max_fe = 0.0
        self.verdict = None

    def _send(self, now, path, on_arrival):
        source, channel = path
        delivered = self.ring.admit(source, now)
        if delivered is None:
            return
        arrival = channel.impair(delivered)
        if arrival is not None:
            self.sim.schedule(arrival, on_arrival)

    def _fail(self, cause):
        self.verdict = TrialVerdict(False, cause, self.max_fe, self.sim.now)
        raise _Stop

    def _send_handshake(self):
        self.hs_seq += 1
        seq = self.hs_seq
        self.hs_sent_at = self.sim.now
        # a reply makes this retry stale: it checks `hs_seq` when it fires
        self.sim.schedule(self.sim.now + HANDSHAKE_RETRY_US, lambda: self._handshake_retry(seq))

        def fpga_got_request():
            self._send(self.sim.now, self.to_cnc, lambda: self._handshake_reply(seq))

        self._send(self.sim.now, self.to_fpga, fpga_got_request)

    def _handshake_retry(self, seq):
        if self.phase == "handshake" and self.hs_seq == seq:
            self._send_handshake()

    def _handshake_reply(self, seq):
        if self.phase != "handshake" or seq != self.hs_seq:
            return
        self.hs_rtts.append(self.sim.now - self.hs_sent_at)
        if len(self.hs_rtts) < HANDSHAKE_EXCHANGES:
            self._send_handshake()
        else:
            self.phase = "qualify"
            self.residuals.clear()

    def _qualify_decision(self):
        spread = max(self.residuals) - min(self.residuals)
        baseline_rtt = sum(self.hs_rtts) / len(self.hs_rtts)
        cfg = self.config
        if spread <= cfg.delay_spread_tolerance_us:
            self._enter_control()
        elif baseline_rtt + spread <= cfg.rtt_rescue_budget_us:
            self._enter_control()
        else:
            self._fail(FailCause.INIT_FAILURE)

    def _enter_control(self):
        self.phase = "control"
        period = self.config.servo_period_us
        self.control_start = ((self.sim.now // period) + 1) * period
        self.last_fb_arrival = self.control_start
        self.pid.reset()
        self.sim.schedule(self.control_start, self._cnc_tick)
        self._arm_watchdog(self.control_start)

    def _arm_watchdog(self, since):
        self.watchdog_since = since
        self.watchdog_token += 1
        token = self.watchdog_token
        self.sim.schedule(since + self.config.watchdog_timeout_us + 1,
                          lambda: self._watchdog_probe(token))

    def _watchdog_probe(self, token):
        if token != self.watchdog_token:
            return  # a probe re-armed before it was due
        now = self.sim.now
        in_time = self.last_fb_arrival if self.last_fb_arrival < now else self.prev_fb_arrival
        if in_time <= self.watchdog_since:
            self._fail(FailCause.WATCHDOG)
        self._arm_watchdog(self.last_fb_arrival)

    def _on_feedback(self, sample_time, position):
        now = self.sim.now
        self.fb_value = position
        if now != self.last_fb_arrival:
            self.prev_fb_arrival, self.last_fb_arrival = self.last_fb_arrival, now
        if self.phase == "control":
            if now < self.watchdog_since:
                self._arm_watchdog(now)
        elif self.phase == "qualify":
            self.residuals.append(now - sample_time)
            if len(self.residuals) >= QUALIFY_WINDOW_FRAMES:
                self._qualify_decision()

    def _cnc_tick(self):
        now = self.sim.now
        cfg = self.config
        setpoint, feedforward = self.sample(now - self.control_start)
        fe = setpoint - self.fb_value
        abs_fe = abs(fe)
        if abs_fe > self.max_fe:
            self.max_fe = abs_fe
        if abs_fe > cfg.fe_limit_mm:
            self._fail(FailCause.FOLLOWING_ERROR)
        command = self.pid.tick(setpoint, self.fb_value, feedforward)

        def apply(command=command):
            self.v_cmd = command

        self._send(now, self.to_fpga, apply)
        if self.trace is not None:
            self.trace.rows.append((now, setpoint, self.fb_value, command, fe))
        self.sim.schedule(now + cfg.servo_period_us, self._cnc_tick)

    def _fpga_tick(self):
        now = self.sim.now
        step_axis(self.axis, self.v_cmd, self.config.servo_period_us)
        position = self.axis.position_mm
        self._send(now, self.to_cnc, lambda: self._on_feedback(now, position))
        self.sim.schedule(now + self.config.servo_period_us, self._fpga_tick)

    def _grace_deadline(self):
        if self.phase != "control":
            self._fail(FailCause.INIT_FAILURE)

    def run(self):
        self.sim.schedule(self.config.servo_period_us // 2, self._fpga_tick)
        self.sim.schedule(0, self._send_handshake)
        self.sim.schedule(self.config.init_grace_us, self._grace_deadline)
        try:
            self.sim.run_until(self.length)
        except _Stop:
            return self.verdict
        if self.phase != "control":
            return TrialVerdict(False, FailCause.INIT_FAILURE, self.max_fe, self.length)
        return TrialVerdict(True, FailCause.NONE, self.max_fe, self.length)


def boundary_trials(count, seed):
    """`count` seeded trial argument tuples, biased toward same-µs boundaries."""
    rng = random.Random(seed)
    trials = []
    for _ in range(count):
        period = rng.choice((700, 1000, 1000, 1250))
        slot = rng.choice((0, 0, 500, 800))
        ring = RingConfig(ring_id="control", nodes=(MASTER_NODE, FPGA_NODE),
                          slot_time_us=slot, tx_time_us=100,
                          queue_depth=rng.choice((1, 2, 16)),
                          loss_rate=rng.choice((1e-9, 0.05)))
        # zero jitter half the time: then many arrivals share a µs
        jitter = rng.choice((0, 0, 0, 0, 0, 20, 50, 100, 200, 500))
        # a delay that lands a frame sent on a controller tick on a stage
        # tick's µs (ring transmission included), or any delay up to 5 ms
        if rng.random() < 0.4:
            mean = (period // 2 - 100) % period + rng.randrange(4) * period
        else:
            mean = rng.randrange(0, 5_001, 50)
        profile = ChannelProfile(
            mean_delay_us=mean, jitter_us=jitter,
            distribution=rng.choice(list(JitterDistribution)),
            loss_rate=rng.choice((0.0, 0.01, 0.01, 0.1)),
            reorder_allowed=rng.random() < 0.25)
        # a feedback gap of timeout + 1 lands on the probe's own µs: aim
        # just below the largest gap, one period plus the jitter swing or
        # two periods when one frame is lost, or anywhere in 1.5-6 ms
        gap = rng.choice((period + 2 * jitter, 2 * period, 2 * period, period + slot,
                          rng.randrange(1_500, 6_001)))
        timeout = max(period, gap + rng.choice((-1, -1, -1, -1, 0, -2)))
        config = replace(rng.choice((DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)),
                         servo_period_us=period, watchdog_timeout_us=timeout)
        length = rng.choice((1, 1, 2)) * 1_000_000
        # a feedback blackout on the µs of a controller or a stage tick
        blackout = None
        if rng.random() < 0.3:
            blackout = (rng.randrange(600_000, length) // period * period
                        + rng.choice((0, period // 2)) + rng.randint(-1, 1))
        trials.append((config, profile, profile, length, rng.randrange(10_000),
                       Scenario(control_ring=ring), blackout))
    return trials


def test_lockstep_trial_matches_the_heap_kernel():
    causes = set()
    for args in boundary_trials(120, seed=20261018):
        want_trace, got_trace = TrialTrace(), TrialTrace()
        want = HeapHarness(*args, want_trace).run()
        got = run_trial(*args, trace=got_trace)
        assert repr(got) == repr(want), args
        assert got_trace.rows == want_trace.rows, args
        causes.add(want.fail_cause)
    assert causes == set(FailCause)
