"""Guards on the event kernel: the event budget of a trial's
control phase, the same-µs order that a trial's verdict rests on, and
golden files of verdicts and per-tick traces."""

import hashlib
import itertools
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest
from test_heap_oracle import HeapHarness

from ringmill.channel import ZERO_IMPAIRMENT, ChannelProfile, JitterDistribution
from ringmill.plant import FailCause
from ringmill.trial import (ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG, DEFAULT_SCENARIO,
                            FPGA_TICK_OFFSET_US, TrialTrace, _LoopHarness, _StopTrial,
                            run_trial, symmetric_profiles)


def harness(cmd, fb, length_us, seed=1):
    return _LoopHarness(DEFAULT_LOOP_CONFIG, cmd, fb, length_us, seed, DEFAULT_SCENARIO,
                        None, None)


class TestTrialKernel:
    def test_control_phase_schedules_only_the_servo_ticks(self):
        def events(length_us):
            h = harness(*symmetric_profiles(0.5, 0.05), length_us)
            summaries = []
            run_until = h.sim.run_until
            h.sim.run_until = lambda t_end: summaries.append(run_until(t_end))
            assert h.run().passed
            return summaries[0].events_processed

        # same seed, so the runs agree up to 2 s: the difference is one
        # simulated second of control phase
        rate = events(3_000_000) - events(2_000_000)
        # frame arrivals and watchdog probes are queued, not scheduled
        assert rate == 2 * 1000

    def test_watchdog_fail_instant_is_pinned(self):
        verdict = run_trial(DEFAULT_LOOP_CONFIG, ZERO_IMPAIRMENT, ZERO_IMPAIRMENT,
                            trial_length_us=3_000_000, seed=11,
                            feedback_blackout_us=2_000_000)
        assert verdict.fail_cause is FailCause.WATCHDOG
        assert verdict.survived_us == 2_001_701

    def test_feedback_before_the_first_tick_times_out_first(self):
        # control is entered at 10,300 us, so the first tick is at 11,000;
        # the only later feedback arrives at 10,500 and times out at
        # 10,500 + timeout + 1, before the control start itself would
        h = harness(ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, 20_000)
        h.sim.schedule(10_300, h._enter_control)
        h.sim.schedule(10_500, lambda: h._on_feedback(10_400, h.fb_value))
        with pytest.raises(_StopTrial):
            h._run_ticks()
        assert h.verdict.fail_cause is FailCause.WATCHDOG
        assert h.verdict.survived_us == 10_500 + DEFAULT_LOOP_CONFIG.watchdog_timeout_us + 1

    def test_watchdog_ignores_same_us_order(self):
        # control starts at 11,000 us; feedback 2,100 us later still resets the
        # timer, feedback 2,101 us later lands on the probe's own µs and is too
        # late, whether its arrival was scheduled before the probe was armed
        # (and fires first) or after
        timeout = DEFAULT_LOOP_CONFIG.watchdog_timeout_us
        for gap_us, fails_at in ((timeout, 11_000 + 2 * timeout + 1), (timeout + 1, 13_101)):
            for arrival_first in (True, False):
                h = harness(ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, 20_000)
                arrival = 11_000 + gap_us

                def schedule_arrival(h=h, arrival=arrival):
                    h.sim.schedule(arrival, lambda: h._on_feedback(arrival - 100, h.fb_value))

                if arrival_first:
                    schedule_arrival()
                h.sim.schedule(10_300, h._enter_control)
                if not arrival_first:
                    h.sim.schedule(10_400, schedule_arrival)
                with pytest.raises(_StopTrial):
                    h._run_ticks()
                assert h.verdict.fail_cause is FailCause.WATCHDOG
                assert h.verdict.survived_us == fails_at, (gap_us, arrival_first)

    @pytest.mark.parametrize("arrival, fails_at, max_fe", [
        # re-armed before the first tick, the probe is due at 13,000 and was
        # armed before the tick on that µs was scheduled, so it fires first
        (10_899, 13_000, 0.0005),
        # the probe that times out 11,899 is armed at 13,101, after the tick
        # at 14,000 was scheduled, so that tick runs before the probe fails
        (11_899, 14_000, 0.0045),
        # the probe that times out 12,899 is armed by the tick at 14,000,
        # before that tick takes the number of the tick at 15,000, so it
        # fails before that tick runs
        (12_899, 15_000, 0.0045),
    ])
    def test_failing_probe_on_a_servo_tick_us(self, arrival, fails_at, max_fe):
        h = harness(ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, 20_000)
        h.sim.schedule(10_300, h._enter_control)
        h.sim.schedule(arrival, lambda: h._on_feedback(arrival - 100, h.fb_value))
        with pytest.raises(_StopTrial):
            h._run_ticks()
        assert h.verdict.fail_cause is FailCause.WATCHDOG
        assert h.verdict.survived_us == fails_at
        assert h.verdict.max_following_error_mm == pytest.approx(max_fe, abs=1e-12)

    @pytest.mark.parametrize("scheduled_at, feedback_mm", [
        # scheduled before the tick at 12,000 was (by the tick at 11,000), so
        # the arrival takes effect first and the tick reads it
        (0, 0.25),
        # scheduled at 11,500, after that tick was, so the tick runs first
        (11_500, 0.0),
    ])
    def test_heap_event_on_a_servo_tick_us_runs_iff_scheduled_before_it(
            self, scheduled_at, feedback_mm):
        trace = TrialTrace()
        h = _LoopHarness(DEFAULT_LOOP_CONFIG, ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, 12_500, 1,
                         DEFAULT_SCENARIO, None, trace)
        h.sim.schedule(scheduled_at, lambda: h.sim.schedule(
            12_000, lambda: h._on_feedback(11_900, 0.25)))
        h.sim.schedule(10_300, h._enter_control)
        h.run()
        assert [row[0] for row in trace.rows] == [11_000, 12_000]
        assert trace.rows[1][2] == feedback_mm

    @pytest.mark.parametrize("blackout, passed", [(None, True), (650_000, False)])
    def test_stale_request_on_a_probe_us_matches_the_heap_kernel(self, blackout, passed):
        # Control starts at 536,000 us and feedback arrives 100 us after each
        # stage tick, so probes are due every 2 ms at 649,701, 651,701, ....
        # A handshake request sent at 651,601, in the control phase, lands at
        # 651,701 and reserves a number for its reply; the probe due there was
        # armed first, so it fires before the request, passing or, after a
        # feedback blackout from 650,000 us, failing.
        verdicts, traces = [], []
        for make in (_LoopHarness, HeapHarness):
            trace = TrialTrace()
            h = make(DEFAULT_LOOP_CONFIG, ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, 1_000_000, 1,
                     DEFAULT_SCENARIO, blackout, trace)
            h.sim.schedule(651_601, h._send_handshake)
            verdicts.append(repr(h.run()))
            traces.append(trace.rows)
            assert h.control_start == 536_000
        assert verdicts[0] == verdicts[1]
        assert traces[0] == traces[1]
        assert ("passed=True" in verdicts[0]) is passed
        if not passed:
            assert "survived_us=651701" in verdicts[0]

    def test_same_us_feedback_is_seen_iff_sent_before_the_tick_was_scheduled(self):
        # With a fixed channel delay, the control ring's slot phase decides
        # which feedback frames land exactly on a controller tick: at 400 us
        # those were sent half a period before the tick, at 900 us one and a
        # half periods before it.
        period = DEFAULT_LOOP_CONFIG.servo_period_us
        seen_outcomes = set()
        for delay_us in (400, 900):
            h, landings = same_us_landings(delay_us)
            # the first tick is scheduled on entering control, every later
            # one by the tick a period before it
            for t, sent, seen in landings["fb"]:
                if t % period == 0 and t != h.control_start:
                    assert seen == (sent < t - period), (delay_us, t, sent)
                    seen_outcomes.add(seen)
        assert seen_outcomes == {True, False}

    def test_same_us_command_is_applied_iff_sent_before_the_tick_was_scheduled(self):
        # the same for commands landing on a stage tick, each scheduled by
        # the stage tick a period before it: at 400 us those were sent half a
        # period before the tick, at 1,400 us one and a half periods before it
        period = DEFAULT_LOOP_CONFIG.servo_period_us
        seen_outcomes = set()
        for delay_us in (400, 1400):
            _, landings = same_us_landings(delay_us)
            for t, sent, seen in landings["cmd"]:
                if t % period == FPGA_TICK_OFFSET_US:
                    assert seen == (sent < t - period), (delay_us, t, sent)
                    seen_outcomes.add(seen)
        assert seen_outcomes == {True, False}


def same_us_landings(delay_us):
    """Run a passing 1.5 s trial over a fixed `delay_us` channel each way,
    logging every control-phase frame as (arrival, sent at, seen by the
    receiving tick on the arrival's µs), per direction ("cmd", "fb").

    A frame is seen by that tick if it leaves its queue before the tick
    runs.  Each tick sends one frame the other way, so the frame is seen
    exactly when the receiving side's last send is still before its
    arrival when it is taken off its queue.
    """
    h = harness(*(ChannelProfile(mean_delay_us=delay_us),) * 2, 1_500_000)
    last_sent = {"cmd": -1, "fb": -1}  # instant of each direction's latest send
    landings = {"cmd": [], "fb": []}

    def instrument(direction, receiver_sends, path):
        admit, impair, _ = path
        sent_at = {}  # reserved sequence number -> when the frame was sent

        def admit_and_log(now):
            last_sent[direction] = now
            return admit(now)

        class LoggingQueue(deque):
            def append(self, entry):
                sent_at[entry[1]] = last_sent[direction]
                super().append(entry)

            def popleft(self):
                arrival, seq, value = entry = super().popleft()
                landings[direction].append(
                    (arrival, sent_at[seq], last_sent[receiver_sends] < arrival))
                return entry

        return admit_and_log, impair, LoggingQueue()

    h.to_fpga = instrument("cmd", "fb", h.to_fpga)
    h.to_cnc = instrument("fb", "cmd", h.to_cnc)
    assert h.run().passed
    return h, landings


# ---------------------------------------------------------------------------
# Golden verdicts, one `repr(TrialVerdict)` per case, and golden traces, the
# SHA-256 of `TrialTrace.to_csv()` per case, compared line for line.  A trace
# also pins feedback, command and following-error values that flip no
# verdict.  Re-record tests/golden/verdicts.txt and tests/golden/traces.txt
# only for a deliberate change, and say so in CHANGES.md:
#     PYTHONPATH=src python tests/test_kernel.py

GOLDEN_VERDICTS = Path(__file__).resolve().parent / "golden" / "verdicts.txt"
GOLDEN_TRACES = GOLDEN_VERDICTS.with_name("traces.txt")


def golden_cases():
    """(label, loop config, command profile, feedback profile, length, seed, blackout)."""
    drivers = (("default", DEFAULT_LOOP_CONFIG), ("adapted", ADAPTED_LOOP_CONFIG))
    cases = []

    def add(label, profile, seconds=4, seed=0, blackout=None, configs=drivers, **kw):
        for name, config in configs:
            cases.append((f"{name} {label}", replace(config, **kw), profile, profile,
                          seconds * 1_000_000, seed, blackout))

    for i, (lat, jit) in enumerate(itertools.product((0.3, 0.5, 1, 2, 3, 5),
                                                     (0, 0.05, 0.1, 0.15, 0.2, 0.3))):
        add(f"uniform {lat}/{jit} ms", ChannelProfile.from_ms(lat, jit), seed=i)
    for i, (lat, jit) in enumerate(itertools.product((0.5, 2, 5), (0.1, 0.3))):
        add(f"normal {lat}/{jit} ms", ChannelProfile.from_ms(
            lat, jit, distribution=JitterDistribution.TRUNCATED_NORMAL), seed=100 + i)
    for i, (lat, jit) in enumerate(((0.5, 0.15), (1, 0.2), (2, 0.15), (3, 0.1))):
        add(f"reorder {lat}/{jit} ms", ChannelProfile.from_ms(lat, jit, reorder_allowed=True),
            seed=200 + i)
    for i, (loss, (lat, jit)) in enumerate(itertools.product((0.001, 0.01, 0.05),
                                                             ((0.5, 0.05), (2, 0.1)))):
        add(f"loss {loss} {lat}/{jit} ms", ChannelProfile.from_ms(lat, jit, loss_rate=loss),
            seed=300 + i)
    for i, (at, (lat, jit)) in enumerate(itertools.product((1_500_000, 2_200_000),
                                                           ((0.3, 0), (1, 0.1)))):
        add(f"blackout {at} us {lat}/{jit} ms", ChannelProfile.from_ms(lat, jit),
            seed=400 + i, blackout=at)
    for i, (timeout, loss, (lat, jit)) in enumerate(itertools.product(
            (1_500, 2_050, 2_100, 3_000), (0, 0.003), ((0.5, 0.1), (2, 0.15)))):
        add(f"watchdog {timeout} us loss {loss} {lat}/{jit} ms",
            ChannelProfile.from_ms(lat, jit, loss_rate=loss), seed=500 + i,
            watchdog_timeout_us=timeout)
    return cases


def golden_verdict_lines():
    return [f"{label}: {run_trial(config, cmd, fb, length, seed, DEFAULT_SCENARIO, blackout)!r}"
            for label, config, cmd, fb, length, seed, blackout in golden_cases()]


def test_verdicts_match_the_golden_file():
    want = GOLDEN_VERDICTS.read_text().splitlines()
    got = golden_verdict_lines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        assert got_line == want_line


#: (label, loop config, profile of both directions, seed) of each 3 s traced trial
TRACE_CASES = (
    ("default 0.5/0.05 ms", DEFAULT_LOOP_CONFIG, ChannelProfile.from_ms(0.5, 0.05), 0),
    ("adapted 1/0.2 ms", ADAPTED_LOOP_CONFIG, ChannelProfile.from_ms(1.0, 0.2), 0),
    # frames overtake each other, so some are filed out of order
    ("default reorder 0.5/0.15 ms", DEFAULT_LOOP_CONFIG,
     ChannelProfile.from_ms(0.5, 0.15, reorder_allowed=True), 0),
    ("default loss 0.003 2/0.1 ms", DEFAULT_LOOP_CONFIG,
     ChannelProfile.from_ms(2.0, 0.1, loss_rate=0.003), 1),
)


def golden_trace_lines():
    lines = []
    for label, config, profile, seed in TRACE_CASES:
        trace = TrialTrace()
        run_trial(config, profile, profile, 3_000_000, seed, trace=trace)
        lines.append(f"{label}: {hashlib.sha256(trace.to_csv().encode()).hexdigest()}")
    return lines


def test_traces_match_the_golden_file():
    assert golden_trace_lines() == GOLDEN_TRACES.read_text().splitlines()


if __name__ == "__main__":
    GOLDEN_VERDICTS.write_text("\n".join(golden_verdict_lines()) + "\n")
    GOLDEN_TRACES.write_text("\n".join(golden_trace_lines()) + "\n")
