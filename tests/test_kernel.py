"""Guards on the event kernel: cancellation, the per-frame event budget of a
trial, and the same-µs order that a trial's verdict rests on."""

import pytest

from ringmill.channel import ZERO_IMPAIRMENT, ChannelProfile
from ringmill.engine import Simulator
from ringmill.plant import FailCause
from ringmill.trial import (DEFAULT_LOOP_CONFIG, DEFAULT_SCENARIO, _LoopHarness, _StopTrial,
                            run_trial, symmetric_profiles)


def harness(cmd, fb, length_us, seed=1):
    return _LoopHarness(DEFAULT_LOOP_CONFIG, cmd, fb, length_us, seed, DEFAULT_SCENARIO,
                        None, None)


class TestCancel:
    def test_fired_event_cannot_be_cancelled(self):
        sim = Simulator()
        log = []
        eid = sim.schedule(10, lambda: log.append("fired"))
        sim.run_until(20)
        assert not sim.cancel(eid)
        sim.schedule(30, lambda: log.append("later"))
        summary = sim.run_until(40)
        assert log == ["fired", "later"]
        assert summary.events_processed == 2

    def test_unknown_or_already_cancelled_ids_are_false(self):
        sim = Simulator()
        eid = sim.schedule(5, lambda: None)
        assert not sim.cancel(0)
        assert not sim.cancel(-1)
        assert not sim.cancel(eid + 1)
        assert sim.cancel(eid)
        assert not sim.cancel(eid)
        assert sim.run_until(10).events_processed == 0

    def test_cancel_keeps_the_other_events_in_order(self):
        sim = Simulator()
        fired = []
        ids = [sim.schedule(t, lambda t=t: fired.append(t)) for t in (7, 3, 9, 1, 5, 3, 8)]
        assert sim.cancel(ids[4])  # the event at t=5
        sim.run_until(100)
        assert fired == [1, 3, 3, 7, 8, 9]


class TestTrialKernel:
    def test_control_phase_costs_under_5000_events_per_simulated_second(self):
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
        # every servo tick and frame arrival is still an event
        assert 2 * 1000 + 2 * 1000 <= rate < 5_000

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
            h.sim.run_until(20_000)
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
                    h.sim.run_until(20_000)
                assert h.verdict.fail_cause is FailCause.WATCHDOG
                assert h.verdict.survived_us == fails_at, (gap_us, arrival_first)

    def test_same_us_feedback_is_seen_iff_sent_before_the_tick_was_scheduled(self):
        # With a fixed channel delay, the control ring's slot phase decides
        # which feedback frames land exactly on a controller tick: at 400 us
        # those were sent half a period before the tick, at 900 us one and a
        # half periods before it.
        period = DEFAULT_LOOP_CONFIG.servo_period_us
        seen_first = set()
        for delay_us in (400, 900):
            profile = ChannelProfile(mean_delay_us=delay_us)
            h = harness(profile, profile, 1_500_000)
            log = []
            on_feedback, cnc_tick = h._on_feedback, h._cnc_tick

            def feedback(sample_time, position):
                log.append(("feedback", h.sim.now, sample_time))
                on_feedback(sample_time, position)

            def tick():
                log.append(("tick", h.sim.now, None))
                cnc_tick()

            h._on_feedback, h._cnc_tick = feedback, tick
            assert h.run().passed

            arrivals = {}
            for index, (kind, at, sent) in enumerate(log):
                if kind == "feedback":
                    arrivals.setdefault(at, []).append((index, sent))
            tick_indices = [i for i, entry in enumerate(log) if entry[0] == "tick"]
            # the first tick is scheduled on entering control, every later
            # one by the tick a period before it
            for index in tick_indices[1:]:
                t = log[index][1]
                for arrival_index, sent in arrivals.get(t, ()):
                    before_tick = arrival_index < index
                    assert before_tick == (sent < t - period), (delay_us, t, sent)
                    seen_first.add(before_tick)
        assert seen_first == {True, False}
