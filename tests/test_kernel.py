"""Guards on the trial kernel: a trial schedules no engine event, the
same-µs order that a trial's verdict rests on, and golden files of
verdicts and per-tick traces."""

import hashlib
import itertools
from collections import Counter, deque
from dataclasses import replace
from heapq import heapify, heappush
from pathlib import Path

import pytest
from test_heap_oracle import HeapHarness

from ringmill import trial
from ringmill.channel import ZERO_IMPAIRMENT, ChannelProfile, JitterDistribution
from ringmill.engine import us_from
from ringmill.harness import _trial_seed
from ringmill.plant import FailCause, TabulatedTrajectory
from ringmill.trial import (ADAPTED_LOOP_CONFIG, DEFAULT_CONTROL_RING, DEFAULT_LOOP_CONFIG,
                            DEFAULT_SCENARIO, HANDSHAKE_EXCHANGES,
                            QUALIFY_WINDOW_FRAMES, Scenario, TrialTrace, _LoopHarness,
                            _END, _GRACE, _REPLY, _REQUEST, _RETRY, run_trial,
                            symmetric_profiles)


def ms(value):
    """A value in ms as µs, by the whole-µs rule of every reader."""
    return us_from(value, "ms")


def harness(cmd, fb, length_us, seed=1):
    return _LoopHarness(DEFAULT_LOOP_CONFIG, cmd, fb, length_us, seed, DEFAULT_SCENARIO,
                        None, None)


def qualified(length_us, decided_at, trace=None):
    """A harness in the qualify phase whose feedback queue holds a passing
    window: one frame per µs, 100 µs in flight, the last arriving at
    `decided_at`, where the link decision enters control.  Run it with
    `_run_ticks`: no stage tick runs and nothing else is sent."""
    h = _LoopHarness(DEFAULT_LOOP_CONFIG, ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, length_us, 1,
                     DEFAULT_SCENARIO, None, trace)
    h.phase, h.hs_rtts = "qualify", [200]  # as the last handshake reply leaves it
    for arrival in range(decided_at - QUALIFY_WINDOW_FRAMES + 1, decided_at + 1):
        feed(h, arrival)
    return h


def feed(h, arrival, seq=None):
    """Queue a feedback frame at rest, sent 100 µs before `arrival`, numbered
    `seq`, or now."""
    h.to_cnc[1].append((arrival, seq or h.reserve(), 0.0, arrival - 100))


#: a number no trial this short reserves, so it sorts after every reserved one
LATE_SEQ = 10**9


class TestTrialKernel:
    def test_control_phase_schedules_only_the_servo_ticks(self):
        def ticks(length_us):
            # every controller tick sends a command and every stage tick
            # feedback, each through its node's frame path on the control ring
            h = harness(*symmetric_profiles(0.5, 0.05), length_us)
            counts = {"cmd": 0, "fb": 0}

            def counting(direction, path):
                send, queue = path

                def counting_send(now):
                    counts[direction] += 1
                    return send(now)

                return counting_send, queue

            h.to_fpga, h.to_cnc = counting("cmd", h.to_fpga), counting("fb", h.to_cnc)
            assert h.run().passed
            return counts

        # same seed, so the runs agree up to 2 s: the difference is one
        # simulated second of control phase, one controller and one stage
        # tick per servo period, all run from the trial's loop
        short, long = ticks(2_000_000), ticks(3_000_000)
        assert {d: long[d] - short[d] for d in long} == {"cmd": 1000, "fb": 1000}

    def test_a_trial_cannot_reach_the_event_engine_or_the_ring(self):
        # it schedules nothing on an engine: the trial module holds neither class
        assert not {"Simulator", "TokenRing"} & vars(trial).keys()

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
        h = qualified(20_000, 10_300)
        feed(h, 10_500)
        verdict = h._run_ticks()
        assert verdict.fail_cause is FailCause.WATCHDOG
        assert verdict.survived_us == 10_500 + DEFAULT_LOOP_CONFIG.watchdog_timeout_us + 1

    def test_watchdog_ignores_same_us_order(self):
        # control starts at 11,000 us; feedback 2,100 us later still resets the
        # timer, feedback 2,101 us later lands on the probe's own µs and is too
        # late, whether its number was reserved before the probe was armed
        # (so it is applied first) or is a later one
        timeout = DEFAULT_LOOP_CONFIG.watchdog_timeout_us
        for gap_us, fails_at in ((timeout, 11_000 + 2 * timeout + 1), (timeout + 1, 13_101)):
            for arrival_first in (True, False):
                h = qualified(20_000, 10_300)
                arrival = 11_000 + gap_us
                feed(h, arrival, None if arrival_first else LATE_SEQ)
                verdict = h._run_ticks()
                assert verdict.fail_cause is FailCause.WATCHDOG
                assert verdict.survived_us == fails_at, (gap_us, arrival_first)

    def test_two_feedback_frames_on_one_us_are_one_arrival(self):
        # control starts at 11,000 us and both frames land on the probe's own
        # µs, 13,101, numbered before it: the second is no newer arrival, so
        # the gap before them is the one the probe times out, and it fails
        # there rather than re-arming from 13,101 and failing at 15,202
        h = qualified(20_000, 10_300)
        feed(h, 13_101)
        feed(h, 13_101)
        verdict = h._run_ticks()
        assert verdict.fail_cause is FailCause.WATCHDOG
        assert verdict.survived_us == 13_101

    @pytest.mark.parametrize("arrival, fails_at, max_fe", [
        # re-armed before the first tick, the probe is due at 13,000 and was
        # armed before the tick on that µs took its number, so it fires first
        (10_899, 13_000, 0.0005),
        # the probe that times out 11,899 is armed at 13,101, after the tick
        # at 14,000 took its number, so that tick runs before the probe fails
        (11_899, 14_000, 0.0045),
        # the probe that times out 12,899 is armed by the tick at 14,000,
        # before that tick takes the number of the tick at 15,000, so it
        # fails before that tick runs
        (12_899, 15_000, 0.0045),
    ])
    def test_failing_probe_on_a_servo_tick_us(self, arrival, fails_at, max_fe):
        h = qualified(20_000, 10_300)
        feed(h, arrival)
        verdict = h._run_ticks()
        assert verdict.fail_cause is FailCause.WATCHDOG
        assert verdict.survived_us == fails_at
        assert verdict.max_following_error_mm == pytest.approx(max_fe, abs=1e-12)

    @pytest.mark.parametrize("request_rank, feedback_at", [
        # numbered before the stage tick at 11,500, the request's reply takes
        # the stage's ring slot first, and the tick's feedback goes 100 us later
        (0, 12_200),
        # numbered after it, the tick's feedback goes first
        (1, 12_100),
    ])
    def test_heap_event_on_a_servo_tick_us_runs_iff_scheduled_before_it(
            self, request_rank, feedback_at):
        # a stale request on the loop's handshake heap reaches the stage on
        # the µs of a stage tick, and the stage answers it on the ring node
        # its feedback leaves from
        h = harness(ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, 11_600)
        seqs = [h.reserve(), h.reserve()]
        request_seq = seqs.pop(request_rank)
        h.first_fpga_tick = (11_500, seqs[0])
        verdict = h._run_ticks(((11_500, request_seq, _REQUEST, 1),))
        assert [frame[0] for frame in h.to_cnc[1]] == [feedback_at]
        assert verdict.fail_cause is FailCause.INIT_FAILURE
        assert verdict.survived_us == 11_600

    def test_a_key_on_the_control_start_us_runs_before_the_first_controller_tick(self):
        # The link decision at 10,300 us starts control at 11,000, the µs of a
        # stale request numbered before the decision numbers the first controller
        # tick: the stage answers the request before that tick sends its command.
        h = qualified(11_500, 10_300)
        sends = []

        def logging(direction, path):
            send, queue = path

            def logging_send(now):
                sends.append((now, direction))
                return send(now)

            return logging_send, queue

        h.to_fpga, h.to_cnc = logging("cmd", h.to_fpga), logging("fb", h.to_cnc)
        assert h._run_ticks(((11_000, h.reserve(), _REQUEST, 1),)).passed
        assert sends == [(11_000, "fb"), (11_000, "cmd")]

    @pytest.mark.parametrize("blackout, passed", [(None, True), (650_000, False)])
    def test_stale_request_on_a_probe_us_matches_the_heap_kernel(self, blackout, passed):
        # Control starts at 536,000 us and feedback arrives 100 us after each
        # stage tick, so probes are due every 2 ms at 649,701, 651,701, ....
        # A handshake request sent at 651,601, in the control phase, lands at
        # 651,701 and reserves a number for its reply; the probe due there was
        # armed first, so it fires before the request, passing or, after a
        # feedback blackout from 650,000 us, failing.  The oracle sends the
        # request; the trial's loop is handed its arrival, numbered after the
        # probe.  (The oracle's send draws nothing that the trial's later
        # frames depend on: no command is in flight then, and the command
        # link has no jitter or loss.)
        verdicts, traces = [], []
        for make in (_LoopHarness, HeapHarness):
            trace = TrialTrace()
            h = make(DEFAULT_LOOP_CONFIG, ZERO_IMPAIRMENT, ZERO_IMPAIRMENT, 1_000_000, 1,
                     DEFAULT_SCENARIO, blackout, trace)
            if make is HeapHarness:
                h.sim.schedule(651_601, h._send_handshake)
            else:
                request = (651_701, LATE_SEQ, _REQUEST, 1)
                run_ticks = h._run_ticks
                h._run_ticks = lambda items, run_ticks=run_ticks: run_ticks((*items, request))
            verdicts.append(repr(h.run()))
            traces.append(trace.rows)
            assert h.control_start == 536_000
        assert verdicts[0] == verdicts[1]
        assert traces[0] == traces[1]
        assert ("passed=True" in verdicts[0]) is passed
        if not passed:
            assert "survived_us=651701" in verdicts[0]

    def test_overlapping_handshake_matches_the_heap_kernel(self):
        # A round trip of about 100 ms races the 100 ms retry: some replies
        # come after their retry went out and are stale, while several
        # requests and replies are in flight.  With no ring slot the spread
        # stays within the tolerance, so some trials still enter control.
        scenario = Scenario(control_ring=replace(DEFAULT_CONTROL_RING, slot_time_us=0))
        profile = ChannelProfile(ms(49.8), ms(0.2))
        retried, causes = False, set()
        for seed in range(3):
            for config in (DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG):
                args = (config, profile, profile, 3_000_000, seed, scenario, None)
                want_trace, got_trace = TrialTrace(), TrialTrace()
                oracle = HeapHarness(*args, want_trace)
                want = oracle.run()
                assert repr(run_trial(*args, trace=got_trace)) == repr(want), args
                assert got_trace.rows == want_trace.rows, args
                retried |= oracle.hs_seq > HANDSHAKE_EXCHANGES
                causes.add(want.fail_cause)
        assert retried
        assert causes == {FailCause.INIT_FAILURE, FailCause.FOLLOWING_ERROR}

    @pytest.mark.parametrize("slot_us, mean_us, jitter_us", [
        (0, 400, 200), (0, 400, 300), (0, 500, 300), (500, 400, 200)])
    def test_first_controller_tick_after_a_held_setpoint_matches_the_heap_kernel(
            self, slot_us, mean_us, jitter_us):
        # The link decision enters control at a feedback arrival, and the
        # first controller tick can come before the stage tick that was due
        # next; the catch-up must stop there.  The oracle's trials start at
        # setpoint 0 with the axis at rest, so every value exchanged around
        # that tick is 0.0 and a wrong order changes nothing they show.  A
        # setpoint held at 0.5 mm makes the first command nonzero.
        scenario = Scenario(
            control_ring=replace(DEFAULT_CONTROL_RING, slot_time_us=slot_us),
            trajectory=TabulatedTrajectory(((0, 0.5), (1000, 0.5))))
        profile = ChannelProfile(mean_delay_us=mean_us, jitter_us=jitter_us)
        args = (ADAPTED_LOOP_CONFIG, profile, profile, 700_000, 2, scenario, None)
        want_trace, got_trace = TrialTrace(), TrialTrace()
        want = HeapHarness(*args, want_trace).run()
        assert want.passed
        assert repr(run_trial(*args, trace=got_trace)) == repr(want)
        assert got_trace.rows == want_trace.rows

    def test_the_heap_holds_only_the_handshake(self, monkeypatch):
        # the loop's heap starts with the first handshake request, the grace
        # deadline and the trial's end, and takes per exchange a retry, the
        # request's arrival and the reply's arrival; servo frames, ticks and
        # probes go elsewhere, also when requests and replies overlap at 120 ms
        # and the link is rejected
        started, pushed = [], Counter()

        def logging_heapify(items):
            started.append(sorted(item[2] for item in items))
            heapify(items)

        def logging_heappush(items, item):
            pushed[item[2]] += 1
            heappush(items, item)

        monkeypatch.setattr(trial, "heapify", logging_heapify)
        monkeypatch.setattr(trial, "heappush", logging_heappush)
        verdict = run_trial(DEFAULT_LOOP_CONFIG, *symmetric_profiles(0.5, 0.05), 2_000_000,
                            _trial_seed(0, 0.5, 0.05, 0))
        assert verdict.passed
        assert started == [[_RETRY, _GRACE, _END]]
        assert pushed == {_RETRY: HANDSHAKE_EXCHANGES, _REQUEST: HANDSHAKE_EXCHANGES,
                          _REPLY: HANDSHAKE_EXCHANGES}
        pushed.clear()
        verdict = run_trial(DEFAULT_LOOP_CONFIG, *symmetric_profiles(120, 5), 3_000_000, 3)
        assert verdict.fail_cause is FailCause.INIT_FAILURE
        assert set(pushed) == {_RETRY, _REQUEST, _REPLY}

    def test_same_us_feedback_is_seen_iff_sent_before_the_tick_was_scheduled(self):
        # With a fixed channel delay, the control ring's slot phase decides
        # which feedback frames land exactly on a controller tick: at 400 us
        # those were sent half a period before the tick, at 900 us one and a
        # half periods before it.
        period = DEFAULT_LOOP_CONFIG.servo_period_us
        seen_outcomes = set()
        for delay_us in (400, 900):
            h, landings = same_us_landings(delay_us)
            # the first tick takes its number on entering control, every
            # later one at the tick a period before it
            for t, sent, seen in landings["fb"]:
                if t % period == 0 and t > h.control_start:
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
                if t % period == period // 2:
                    assert seen == (sent < t - period), (delay_us, t, sent)
                    seen_outcomes.add(seen)
        assert seen_outcomes == {True, False}


def same_us_landings(delay_us):
    """Run a passing 1.5 s trial over a fixed `delay_us` channel each way,
    logging every servo frame as (arrival, sent at, seen by the receiving
    tick on the arrival's µs), per direction ("cmd", "fb").

    A frame is seen by that tick if it leaves its queue before the tick
    runs.  Each tick sends one frame the other way, so the frame is seen
    exactly when the receiving side's last send is still before its
    arrival when it is taken off its queue.
    """
    h = harness(*(ChannelProfile(mean_delay_us=delay_us),) * 2, 1_500_000)
    last_sent = {"cmd": -1, "fb": -1}  # instant of each direction's latest send
    landings = {"cmd": [], "fb": []}

    def instrument(direction, receiver_sends, path):
        send, _ = path
        sent_at = {}  # reserved sequence number -> when the frame was sent

        def send_and_log(now):
            last_sent[direction] = now
            return send(now)

        class LoggingQueue(deque):
            def append(self, entry):
                sent_at[entry[1]] = last_sent[direction]
                super().append(entry)

            def popleft(self):
                entry = super().popleft()
                arrival, seq = entry[:2]
                landings[direction].append(
                    (arrival, sent_at[seq], last_sent[receiver_sends] < arrival))
                return entry

        return send_and_log, LoggingQueue()

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
        add(f"uniform {lat}/{jit} ms", ChannelProfile(ms(lat), ms(jit)), seed=i)
    for i, (lat, jit) in enumerate(itertools.product((0.5, 2, 5), (0.1, 0.3))):
        add(f"normal {lat}/{jit} ms", ChannelProfile(
            ms(lat), ms(jit), distribution=JitterDistribution.TRUNCATED_NORMAL), seed=100 + i)
    for i, (lat, jit) in enumerate(((0.5, 0.15), (1, 0.2), (2, 0.15), (3, 0.1))):
        add(f"reorder {lat}/{jit} ms", ChannelProfile(ms(lat), ms(jit), reorder_allowed=True),
            seed=200 + i)
    for i, (loss, (lat, jit)) in enumerate(itertools.product((0.001, 0.01, 0.05),
                                                             ((0.5, 0.05), (2, 0.1)))):
        add(f"loss {loss} {lat}/{jit} ms", ChannelProfile(ms(lat), ms(jit), loss_rate=loss),
            seed=300 + i)
    for i, (at, (lat, jit)) in enumerate(itertools.product((1_500_000, 2_200_000),
                                                           ((0.3, 0), (1, 0.1)))):
        add(f"blackout {at} us {lat}/{jit} ms", ChannelProfile(ms(lat), ms(jit)),
            seed=400 + i, blackout=at)
    for i, (timeout, loss, (lat, jit)) in enumerate(itertools.product(
            (1_500, 2_050, 2_100, 3_000), (0, 0.003), ((0.5, 0.1), (2, 0.15)))):
        add(f"watchdog {timeout} us loss {loss} {lat}/{jit} ms",
            ChannelProfile(ms(lat), ms(jit), loss_rate=loss), seed=500 + i,
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
    ("default 0.5/0.05 ms", DEFAULT_LOOP_CONFIG, ChannelProfile(ms(0.5), ms(0.05)), 0),
    ("adapted 1/0.2 ms", ADAPTED_LOOP_CONFIG, ChannelProfile(ms(1.0), ms(0.2)), 0),
    # frames overtake each other, so some are filed out of order
    ("default reorder 0.5/0.15 ms", DEFAULT_LOOP_CONFIG,
     ChannelProfile(ms(0.5), ms(0.15), reorder_allowed=True), 0),
    ("default loss 0.003 2/0.1 ms", DEFAULT_LOOP_CONFIG,
     ChannelProfile(ms(2.0), ms(0.1), loss_rate=0.003), 1),
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
