import re

import pytest
from hypothesis import given, settings, strategies as st

from ringmill.engine import CausalityError, Simulator, component_rng, derive_seed


def collect(sim, log):
    def make(tag):
        return lambda: log.append((sim.now, tag))
    return make


class TestSchedule:
    def test_schedule_at_current_time_fires_first(self):
        sim = Simulator()
        log = []
        sim.schedule(0, lambda: log.append("now"))
        sim.schedule(5, lambda: log.append("later"))
        sim.run_until(10)
        assert log == ["now", "later"]

    def test_scheduling_in_the_past_is_a_causality_error(self):
        sim = Simulator()
        sim.schedule(1000, lambda: None)
        sim.run_until(1000)
        with pytest.raises(CausalityError):
            sim.schedule(999, lambda: None)

    def test_equal_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        sim.schedule(500, lambda: log.append("A"))
        sim.schedule(500, lambda: log.append("B"))
        sim.run_until(500)
        assert log == ["A", "B"]


class TestRunUntil:
    def test_empty_queue_terminates_at_t_end(self):
        summary = Simulator().run_until(1_000_000)
        assert summary.events_processed == 0
        assert summary.clock == 1_000_000

    def test_boundary_is_inclusive(self):
        sim = Simulator()
        log = []
        for t in (1, 2, 3):
            sim.schedule(t, collect(sim, log)(t))
        summary = sim.run_until(2)
        assert [t for t, _ in log] == [1, 2]
        assert summary.events_processed == 2
        assert summary.clock == 2

    def test_one_hour_trial_clock(self):
        one_hour_us = 3_600 * 1_000_000
        summary = Simulator().run_until(one_hour_us)
        assert summary.clock == one_hour_us

    def test_events_created_while_running_are_processed(self):
        sim = Simulator()
        log = []

        def chain():
            log.append(sim.now)
            if sim.now < 5:
                sim.schedule(sim.now + 1, chain)

        sim.schedule(0, chain)
        sim.run_until(100)
        assert log == [0, 1, 2, 3, 4, 5]


@st.composite
def event_batches(draw):
    times = draw(st.lists(st.integers(min_value=0, max_value=10_000),
                          min_size=1, max_size=40))
    return times


class TestDeterminismProperties:
    @given(event_batches())
    @settings(max_examples=60, deadline=None)
    def test_identical_runs_produce_identical_trace_logs(self, times):
        def run():
            fired = []
            sim = Simulator()
            for i, t in enumerate(times):
                sim.schedule(t, lambda i=i: fired.append((sim.now, i)))
            sim.run_until(20_000)
            return fired

        assert run() == run()

    @given(event_batches())
    @settings(max_examples=60, deadline=None)
    def test_processing_order_is_causal(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule(t, collect(sim, fired)(t))
        sim.run_until(20_000)
        assert [t for t, _ in fired] == sorted(times)

    @given(st.permutations(list(range(12))))
    @settings(max_examples=40, deadline=None)
    def test_insertion_order_of_distinct_times_never_matters(self, order):
        sim = Simulator()
        fired = []
        for t in order:
            sim.schedule(t * 7, collect(sim, fired)(t * 7))
        sim.run_until(1_000)
        assert [t for t, _ in fired] == sorted(t * 7 for t in order)


class TestRng:
    def test_same_stream_same_draws(self):
        a = component_rng(42, "jitter")
        b = component_rng(42, "jitter")
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_streams_are_independent(self):
        a = component_rng(42, "jitter")
        b = component_rng(42, "loss")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_component_rng_matches_stream(self):
        assert component_rng(7, "chan", "cmd").random() == \
            component_rng(7, "chan", "cmd").random()

    def test_derive_seed_is_frozen(self):
        # pinned so an accidental change to the mixing breaks loudly
        assert derive_seed(0) == 8911345218238399542
        assert derive_seed(1, "trial", 500) == derive_seed(1, "trial", 500)
        assert derive_seed(1, "a") != derive_seed(1, "b")

    @pytest.mark.parametrize("part", [1.5, 1.0, True, None, b"a"])
    def test_derive_seed_refuses_a_part_that_is_no_str_or_int(self, part):
        # 1.5 and True folded as 1
        with pytest.raises(ValueError, match=f"^seed part {re.escape(repr(part))} is neither "
                                             "a string nor an integer$"):
            derive_seed(1, "trial", part)

