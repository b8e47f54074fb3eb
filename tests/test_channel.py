import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ringmill.channel import (Channel, ChannelConfigError, ChannelProfile, JitterDistribution,
                              ZERO_IMPAIRMENT, empirical_stats)
from ringmill.engine import component_rng


def make_channel(mean_us, jitter_us, seed=1, **kw):
    profile = ChannelProfile(mean_delay_us=mean_us, jitter_us=jitter_us, **kw)
    return Channel(profile, component_rng(seed, "chan-test"), record=True)


class ReferenceChannel:
    """`Channel.impair` as it was before the channel built its closure from
    the profile: every call reads the profile and takes its branches."""

    def __init__(self, profile, rng, blackout_from):
        self.profile = profile
        self.rng = rng
        self._watermark = 0
        self._blackout_from = blackout_from

    def impair(self, now):
        p = self.profile
        rng = self.rng
        if p.loss_rate > 0.0 and rng.random() < p.loss_rate:
            return None
        delay = p.mean_delay_us
        j = p.jitter_us
        if j:
            if p.distribution is JitterDistribution.UNIFORM:
                width = 2 * j + 1
                bits = width.bit_length()
                r = rng.getrandbits(bits)
                while r >= width:
                    r = rng.getrandbits(bits)
                delay += r - j
            else:
                draw = round(rng.gauss(0.0, j / 2.0))
                delay += max(-j, min(j, draw))
            if delay < 0:
                delay = 0
        delivered = now + delay
        if not p.reorder_allowed and delivered < self._watermark:
            delivered = self._watermark
        if self._blackout_from is not None and delivered >= self._blackout_from:
            return None
        self._watermark = delivered
        return delivered


class TestTransmit:
    def test_degenerate_jitter_is_exact_delay(self):
        chan = make_channel(1000, 0)
        for i in range(200):
            record = chan.transmit(i, now=i * 5_000)
            assert record.delivered == record.sent + 1000
            assert record.applied_delay_us == 1000

    def test_boundary_cell_support_and_mean(self):
        # worst working latency with its worst working jitter: 3 ms +/- 0.2 ms
        chan = make_channel(3000, 200)
        for i in range(100_000):
            chan.transmit(i, now=i * 10_000)
        stats = empirical_stats(chan.records)
        lo = min(r.applied_delay_us for r in chan.records)
        assert 2800 <= lo and stats.max_us <= 3200
        assert abs(stats.mean_us - 3000) <= 10

    def test_loss_rate_one_drops_every_frame(self):
        chan = make_channel(1000, 0, loss_rate=1.0)
        for i in range(50):
            assert chan.transmit(i, now=0).delivered is None

    def test_delays_clamped_at_zero(self):
        chan = make_channel(100, 300)
        delays = [chan.transmit(i, now=i * 10_000).applied_delay_us
                  for i in range(20_000)]
        assert min(delays) == 0  # clamp engaged
        assert max(delays) <= 400

    def test_zero_impairment_is_identity(self):
        chan = Channel(ZERO_IMPAIRMENT, component_rng(1, "x"))
        for i, now in enumerate((0, 17, 123_456)):
            record = chan.transmit(i, now)
            assert record.delivered == now and record.applied_delay_us == 0

    def test_fifo_preserved_when_reorder_disallowed(self):
        chan = make_channel(1000, 900)
        deliveries = [chan.transmit(i, now=i * 50).delivered for i in range(5_000)]
        assert all(b >= a for a, b in zip(deliveries, deliveries[1:]))

    def test_reorder_allowed_can_invert(self):
        chan = make_channel(1000, 900, reorder_allowed=True)
        deliveries = [chan.transmit(i, now=i * 50).delivered for i in range(5_000)]
        assert any(b < a for a, b in zip(deliveries, deliveries[1:]))

    def test_seed_determinism(self):
        runs = []
        for _ in range(2):
            chan = make_channel(2000, 300, seed=42, loss_rate=0.01)
            runs.append([chan.transmit(i, now=i * 1000) for i in range(2_000)])
        assert runs[0] == runs[1]

    def test_truncated_normal_respects_support(self):
        chan = make_channel(1000, 200,
                            distribution=JitterDistribution.TRUNCATED_NORMAL)
        delays = [chan.transmit(i, now=i * 5_000).applied_delay_us
                  for i in range(20_000)]
        assert 800 <= min(delays) and max(delays) <= 1200

    def test_blackout_severs_the_link(self):
        chan = Channel(ChannelProfile(mean_delay_us=1000), component_rng(1, "chan-test"),
                       blackout_from=5_000)
        assert chan.transmit(1, now=3_000).delivered == 4_000
        assert chan.transmit(2, now=4_500).delivered is None  # would land at 5500

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ChannelProfile(mean_delay_us=-1)
        with pytest.raises(ValueError):
            ChannelProfile(mean_delay_us=0, jitter_us=-5)
        with pytest.raises(ValueError):
            ChannelProfile(mean_delay_us=0, loss_rate=1.5)

    @pytest.mark.parametrize("field, value", [
        ("mean_delay_us", 500.5),  # gave float arrival instants
        ("mean_delay_us", 500.0),
        ("mean_delay_us", float("nan")),
        ("jitter_us", 2.5),  # failed at the first frame, on bit_length
        ("jitter_us", True),
    ])
    def test_profile_rejects_a_non_integer_us_value(self, field, value):
        kwargs = {"mean_delay_us": 500, "jitter_us": 50, field: value}
        with pytest.raises(ChannelConfigError, match=f"{field} .* is not an integer"):
            ChannelProfile(**kwargs)


    @pytest.mark.parametrize("mean_ms, jitter_ms", [(0.5004, 0.05), (0.5, 0.0502),
                                                    (0.0005, 0.0)])
    def test_from_ms_rejects_a_value_that_is_not_whole_us(self, mean_ms, jitter_ms):
        # rounding used to run 500 us, 50 us or 0 us instead
        bad = jitter_ms if mean_ms == 0.5 else mean_ms
        with pytest.raises(ValueError, match=f"^{bad} ms is not a whole number of us$"):
            ChannelProfile.from_ms(mean_ms, jitter_ms)

    def test_from_ms_takes_the_float_nearest_a_whole_us_value(self):
        assert ChannelProfile.from_ms(0.15, 0.05) == ChannelProfile(150, 50)
        # every whole-us value in ms, as a decimal literal would give it
        for us in range(0, 10_001, 7):
            literal = f"{us // 1000}.{us % 1000:03d}"
            assert ChannelProfile.from_ms(float(literal)).mean_delay_us == us


class TestImpair:
    @given(mean=st.integers(min_value=0, max_value=3_000),
           jitter=st.integers(min_value=0, max_value=1_000),
           distribution=st.sampled_from(list(JitterDistribution)),
           loss_rate=st.sampled_from([0.0, 0.1, 1.0]),
           reorder_allowed=st.booleans(),
           blackout_from=st.none() | st.integers(min_value=0, max_value=60_000),
           seed=st.integers(min_value=0, max_value=2**32),
           gaps=st.lists(st.integers(min_value=0, max_value=2_000), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_impair_matches_transmit(self, mean, jitter, distribution, loss_rate,
                                     reorder_allowed, blackout_from, seed, gaps):
        # twin channels: one impairs bare instants, the other transmits records
        profile = ChannelProfile(mean_delay_us=mean, jitter_us=jitter,
                                 distribution=distribution, loss_rate=loss_rate,
                                 reorder_allowed=reorder_allowed)
        bare, recorded = (Channel(profile, component_rng(seed, "twin"),
                                  blackout_from=blackout_from) for _ in range(2))
        now = 0
        for i, gap in enumerate(gaps):
            now += gap
            assert bare.impair(now) == recorded.transmit(i, now).delivered
            assert bare.rng.getstate() == recorded.rng.getstate()

    @given(mean=st.integers(min_value=0, max_value=3_000),
           jitter=st.integers(min_value=0, max_value=1_000),
           distribution=st.sampled_from(list(JitterDistribution)),
           loss_rate=st.sampled_from([0.0, 0.1, 1.0]),
           reorder_allowed=st.booleans(),
           blackout_from=st.none() | st.integers(min_value=0, max_value=60_000),
           seed=st.integers(min_value=0, max_value=2**32),
           gaps=st.lists(st.integers(min_value=0, max_value=2_000), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_impair_matches_the_reference(self, mean, jitter, distribution, loss_rate,
                                          reorder_allowed, blackout_from, seed, gaps):
        profile = ChannelProfile(mean_delay_us=mean, jitter_us=jitter,
                                 distribution=distribution, loss_rate=loss_rate,
                                 reorder_allowed=reorder_allowed)
        chan = Channel(profile, component_rng(seed, "twin"), blackout_from=blackout_from)
        reference = ReferenceChannel(profile, component_rng(seed, "twin"), blackout_from)
        now = 0
        for gap in gaps:
            now += gap
            assert chan.impair(now) == reference.impair(now)
            assert chan.rng.getstate() == reference.rng.getstate()

    @given(jitter=st.integers(min_value=1, max_value=2**20),
           seed=st.integers(min_value=0, max_value=2**64 - 1))
    @example(jitter=1, seed=0)  # width 3: rejection at r = 3
    @example(jitter=2**19, seed=0)  # width 2**20 + 1: nearly half the draws rejected
    @example(jitter=2**19 - 1, seed=0)  # width 2**20 - 1: below a power of two
    @settings(max_examples=200, deadline=None)
    def test_uniform_draw_is_randint(self, jitter, seed):
        # no loss, no clamp at zero and no FIFO clamp: the delay is the draw
        profile = ChannelProfile(mean_delay_us=jitter, jitter_us=jitter, reorder_allowed=True)
        chan = Channel(profile, random.Random(seed))
        twin = random.Random(seed)
        for now in range(0, 200_000, 1_000):
            assert chan.impair(now) - now - jitter == twin.randint(-jitter, jitter)
        assert chan.rng.getstate() == twin.getstate()


class TestEmpiricalStats:
    def test_single_record(self):
        chan = make_channel(500, 0)
        chan.transmit(1, now=0)
        stats = empirical_stats(chan.records)
        assert stats.mean_us == stats.p99_us == stats.max_us == 500
        assert stats.loss_fraction == 0.0

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError):
            empirical_stats([])

    def test_million_samples_stay_within_bounds(self):
        chan = make_channel(1000, 200)
        for i in range(1_000_000):
            chan.transmit(i, now=i * 1000)
        stats = empirical_stats(chan.records)
        lo = min(r.applied_delay_us for r in chan.records)
        assert stats.max_us <= 1200 and lo >= 800

    def test_loss_fraction_within_binomial_bound(self):
        chan = make_channel(1000, 0, loss_rate=1e-3)
        for i in range(1_000_000):
            chan.transmit(i, now=i * 1000)
        stats = empirical_stats(chan.records)
        assert 0.0005 <= stats.loss_fraction <= 0.0015

    def test_p99_nearest_rank(self):
        chan = make_channel(1000, 0)
        for i in range(100):
            chan.transmit(i, now=i * 5_000)
        chan.records[-1] = chan.records[-1].__class__(999, 0, 9_999, 9_999)
        stats = empirical_stats(chan.records)
        assert stats.p99_us == 1000  # rank 99 of 100 sorted delays


@given(mean=st.integers(min_value=0, max_value=10_000),
       jitter=st.integers(min_value=0, max_value=1_000),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_bounded_support_property(mean, jitter, seed):
    profile = ChannelProfile(mean_delay_us=mean, jitter_us=jitter)
    chan = Channel(profile, component_rng(seed, "prop"), record=True)
    for i in range(300):
        chan.transmit(i, now=i * (2 * jitter + 1))
    for record in chan.records:
        assert max(0, mean - jitter) <= record.applied_delay_us <= mean + jitter
        assert record.delivered >= record.sent
