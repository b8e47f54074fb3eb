import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ringmill.engine import Simulator, component_rng
from ringmill.ring import (Frame, FrameClass, RingConfig, RingConfigError, TokenRing,
                           worst_case_access_latency)

URLLC_2 = RingConfig(ring_id="control", nodes=("master", "fpga"),
                     slot_time_us=800, tx_time_us=100, loss_rate=0.0)
SENSOR_8 = RingConfig(ring_id="sensor",
                      nodes=("master",) + tuple(f"s{i}" for i in range(7)),
                      slot_time_us=250, tx_time_us=50, loss_rate=0.0)


def make_ring(config, seed=1):
    sim = Simulator()
    return TokenRing(config, sim, component_rng(seed, "ring-test")), sim


def frame(fid, src, dst, now, cls=FrameClass.URLLC, size=100):
    return Frame(fid, src, dst, size, now, cls)


def single_delivery(config, node, dst, enqueue_at, seed=1):
    """Event-level delivery time of one head-of-queue frame."""
    ring, sim = make_ring(config, seed)
    sim.run_until(enqueue_at)
    got = []
    ring.enqueue(node, frame(1, node, dst, enqueue_at), enqueue_at,
                 lambda f, t: got.append(t))
    sim.run_until(enqueue_at + 10 * worst_case_access_latency(config) + 10)
    assert len(got) == 1
    return got[0]


class TestConfig:
    def test_two_node_control_ring_accepted(self):
        assert len(URLLC_2.nodes) == 2

    def test_eight_node_sensor_ring_accepted(self):
        assert len(SENSOR_8.nodes) == 8

    def test_nine_nodes_rejected(self):
        with pytest.raises(RingConfigError):
            RingConfig(ring_id="big", nodes=tuple(f"n{i}" for i in range(9)),
                       slot_time_us=100, tx_time_us=10)

    def test_single_node_rejected(self):
        with pytest.raises(RingConfigError):
            RingConfig(ring_id="solo", nodes=("a",), slot_time_us=100, tx_time_us=10)

    @pytest.mark.parametrize("field, value", [
        ("slot_time_us", 800.5),  # gave float delivery instants
        ("slot_time_us", float("nan")),
        ("tx_time_us", 100.0),
        ("queue_depth", float("nan")),
        ("queue_depth", 2.5),
    ])
    def test_non_integer_timing_or_depth_rejected(self, field, value):
        kwargs = {"ring_id": "control", "nodes": ("master", "fpga"), "slot_time_us": 800,
                  "tx_time_us": 100, field: value}
        with pytest.raises(RingConfigError, match=f"{field} .* is not an integer"):
            RingConfig(**kwargs)

    def test_control_frame_size_bounds(self):
        with pytest.raises(ValueError):
            Frame(1, "a", "b", 60, 0, FrameClass.URLLC)
        with pytest.raises(ValueError):
            Frame(1, "a", "b", 200, 0, FrameClass.URLLC)


class TestWorstCaseFormula:
    def test_two_node_paper_footnote_bound(self):
        assert worst_case_access_latency(URLLC_2) == 900
        assert worst_case_access_latency(URLLC_2) < 2000

    def test_eight_node_sensor_ring(self):
        cfg = RingConfig(ring_id="s", nodes=tuple(f"n{i}" for i in range(8)),
                         slot_time_us=250, tx_time_us=50)
        assert worst_case_access_latency(cfg) == 1800

    def test_degenerate_slot_is_tx_only(self):
        cfg = RingConfig(ring_id="d", nodes=("a", "b"), slot_time_us=0, tx_time_us=100)
        assert worst_case_access_latency(cfg) == 100
        assert single_delivery(cfg, "a", "b", 12_345) == 12_345 + 100

    def test_exhaustive_phase_search_matches_formula(self):
        # event-level oracle: sweep every enqueue phase over one token cycle
        for config in (URLLC_2,
                       RingConfig(ring_id="s4", nodes=("a", "b", "c", "d"),
                                  slot_time_us=300, tx_time_us=60)):
            cycle = len(config.nodes) * config.slot_time_us
            bound = worst_case_access_latency(config)
            observed = []
            for phase in range(0, cycle, 7):
                delivered = single_delivery(config, config.nodes[0],
                                            config.nodes[1], phase)
                observed.append(delivered - phase)
            assert max(observed) <= bound
            # the bound is attained at the phase just after the slot closes
            node_slot_end = config.slot_time_us
            delivered = single_delivery(config, config.nodes[0], config.nodes[1],
                                        node_slot_end)
            assert delivered - node_slot_end == bound


class TestEnqueue:
    def test_token_holder_with_empty_queue_transmits_in_slot(self):
        # master holds [0, 800); enqueue at t=0 delivers at tx time
        assert single_delivery(URLLC_2, "master", "fpga", 0) == 100

    def test_enqueue_just_after_slot_release_waits_one_slot(self):
        # 2-node ring: master's slot ends at 800; wait one slot_time, then tx
        delivered = single_delivery(URLLC_2, "master", "fpga", 800)
        assert delivered == 800 + URLLC_2.slot_time_us + URLLC_2.tx_time_us

    def test_seventeenth_frame_is_dropped_and_counted(self):
        ring, sim = make_ring(URLLC_2)
        t = 800  # token just left master; queue builds
        got = [ring.enqueue("master", frame(i, "master", "fpga", t), t) for i in range(17)]
        assert got.count(None) == 1 and got[-1] is None  # a drop is a None return

    def test_unknown_node_rejected(self):
        ring, sim = make_ring(URLLC_2)
        with pytest.raises(RingConfigError):
            ring.enqueue("ghost", frame(1, "ghost", "fpga", 0), 0)

    def test_loss_rate_one_drops_everything(self):
        cfg = RingConfig(ring_id="lossy", nodes=("a", "b"),
                         slot_time_us=100, tx_time_us=10, loss_rate=1.0)
        ring, sim = make_ring(cfg)
        assert [ring.enqueue("a", frame(i, "a", "b", 0), 0) for i in range(5)] == [None] * 5


class ReferenceRing:
    """`TokenRing.admit` as it was before the ring built one admission
    closure per node: every call reads the config."""

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng
        self._watermark = [0] * len(config.nodes)
        self._pending = [deque() for _ in config.nodes]
        self._cycle = len(config.nodes) * config.slot_time_us

    def admit(self, node_idx, now):
        config = self.config
        pending = self._pending[node_idx]
        while pending and pending[0] <= now:
            pending.popleft()
        if len(pending) >= config.queue_depth:
            return None
        loss_rate = config.loss_rate
        if loss_rate > 0 and self.rng.random() < loss_rate:
            return None

        start = self._watermark[node_idx]
        if start < now:
            start = now
        slot = config.slot_time_us
        if slot:
            cycle = self._cycle
            base = start - start % cycle + node_idx * slot  # this cycle's slot
            if start < base:
                start = base
            elif start >= base + slot:
                start = base + cycle
        delivery = start + config.tx_time_us
        self._watermark[node_idx] = delivery
        pending.append(delivery)
        return delivery


@st.composite
def ring_configs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    slot = draw(st.sampled_from([0, 1, 97, 250, 800]))
    tx = draw(st.integers(min_value=0, max_value=slot if slot else 300))
    return RingConfig(ring_id="r", nodes=tuple(f"n{i}" for i in range(n)),
                      slot_time_us=slot, tx_time_us=tx,
                      queue_depth=draw(st.integers(min_value=1, max_value=4)),
                      loss_rate=draw(st.sampled_from([0.0, 0.2, 1.0])))


class TestAdmit:
    @given(config=ring_configs(), seed=st.integers(min_value=0, max_value=2**32),
           sends=st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                                    st.integers(min_value=0, max_value=1_500)),
                          min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_admit_matches_enqueue(self, config, seed, sends):
        # twin rings: one admits by node index, the other enqueues frames
        by_index, sim_a = make_ring(config, seed)
        by_frame, sim_b = make_ring(config, seed)
        now = 0
        for i, (node_idx, gap) in enumerate(sends):
            now += gap
            sim_a.run_until(now)
            sim_b.run_until(now)
            node_idx %= len(config.nodes)
            node, dest = config.nodes[node_idx], config.nodes[node_idx - 1]
            got = by_index.admit(node_idx, now)
            assert got == by_frame.enqueue(node, frame(i, node, dest, now), now)
            assert by_index.rng.getstate() == by_frame.rng.getstate()

    @given(config=ring_configs(), seed=st.integers(min_value=0, max_value=2**32),
           sends=st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                                    st.integers(min_value=0, max_value=1_500)),
                          min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_admit_matches_the_reference(self, config, seed, sends):
        ring, sim = make_ring(config, seed)
        reference = ReferenceRing(config, component_rng(seed, "ring-test"))
        now = 0
        for node_idx, gap in sends:
            now += gap
            sim.run_until(now)
            node_idx %= len(config.nodes)
            assert ring.admit(node_idx, now) == reference.admit(node_idx, now)
            assert ring.rng.getstate() == reference.rng.getstate()

    def test_node_index_is_the_ring_position(self):
        ring, _ = make_ring(SENSOR_8)
        assert [ring.node_index(n) for n in SENSOR_8.nodes] == list(range(8))
        with pytest.raises(RingConfigError):
            ring.node_index("ghost")


class TestInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=50_000), min_size=1,
                    max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_bounded_access_delay_across_random_phases(self, phases):
        bound = worst_case_access_latency(URLLC_2)
        ring, sim = make_ring(URLLC_2)
        deliveries = {}
        for i, t in enumerate(sorted(set(phases))):
            # spaced enqueues so each frame is head-of-queue
            t = t + i * 2 * bound
            sim.run_until(t)
            ring.enqueue("master", frame(i, "master", "fpga", t), t,
                         lambda f, at: deliveries.__setitem__(f.frame_id, at - f.enqueue_time))
        sim.run_until(sim.now + 10 * bound)
        assert deliveries and all(lat <= bound for lat in deliveries.values())

    def test_in_ring_fifo_per_source(self):
        ring, sim = make_ring(URLLC_2)
        order = []
        for i in range(40):
            t = i * 137
            sim.run_until(t)
            ring.enqueue("master", frame(i, "master", "fpga", t), t,
                         lambda f, at: order.append(f.frame_id))
        sim.run_until(100_000)
        assert order == sorted(order)
        assert len(order) == 40

    def test_frame_conservation_at_any_instant(self):
        # every frame is dropped (a None return) or delivered at its instant,
        # and the frames in flight at any instant fit the queue
        ring, sim = make_ring(URLLC_2)
        t = 800
        delivered = []
        got = [ring.enqueue("master", frame(i, "master", "fpga", t), t,
                            lambda f, at: delivered.append(at)) for i in range(20)]
        admitted = [at for at in got if at is not None]
        assert len(admitted) == URLLC_2.queue_depth
        for checkpoint in (900, 1700, 2500, 60_000):
            sim.run_until(checkpoint)
            assert delivered == [at for at in admitted if at <= checkpoint]
        assert delivered == admitted

