import math
import random
import re
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from ringmill.spectrum import (Band, CoverageArea, Rejection, SpectrumBlock,
                               SpectrumError, SpectrumManager, SpectrumRequest,
                               UnknownGrantError, run_spectrum_scenario, union_width_khz)

SITE = CoverageArea(0.0, 0.0, 50.0)
FAR_AWAY = CoverageArea(10_000.0, 0.0, 50.0)


# -- independent oracles ------------------------------------------------------

def discs_intersect(a: CoverageArea, b: CoverageArea) -> bool:
    dx, dy = a.x - b.x, a.y - b.y
    reach = a.radius + b.radius
    return dx * dx + dy * dy <= reach * reach


def oracle_first_fit(band: Band, blocks: list[SpectrumBlock], width: int):
    """Lowest feasible start by exhaustive candidate scan (flush positions)."""
    candidates = sorted({band.low_khz} | {b.high_khz for b in blocks})
    for start in candidates:
        if start + width > band.high_khz:
            continue
        if all(not (start < b.high_khz and b.low_khz < start + width) for b in blocks):
            return start
    return None


def blocks_overlap(a: SpectrumBlock, b: SpectrumBlock) -> bool:
    return a.low_khz < b.high_khz and b.low_khz < a.high_khz


def disc_holds(area: CoverageArea, x, y) -> bool:
    return math.hypot(area.x - x, area.y - y) <= area.radius


def oracle_conflicting(manager: SpectrumManager, area: CoverageArea):
    return [g.block for g in manager.active_grants() if discs_intersect(g.area, area)]


def oracle_violation(manager: SpectrumManager, now=None):
    """First invariant violation by testing every pair and every grant, else None."""
    grants = manager.active_grants(now)
    for i, a in enumerate(grants):
        for b in grants[i + 1:]:
            if a.area.intersects(b.area) and blocks_overlap(a.block, b.block):
                return (f"interference: grants {a.grant_id} and {b.grant_id} overlap "
                        f"in both area and frequency")
    for g in grants:
        total = union_width_khz(h.block for h in grants if disc_holds(h.area, g.area.x, g.area.y))
        if total > manager.band.width_khz:
            return f"capacity exceeded at grant {g.grant_id} center: {total} kHz"
    return None


def oracle_occupancy(manager: SpectrumManager, x, y, now=None):
    hits = [(g.grant_id, g.block) for g in manager.active_grants(now)
            if disc_holds(g.area, x, y)]
    return hits, union_width_khz(b for _, b in hits)


def place(manager: SpectrumManager, area, bw, low_mhz, expires_at=None):
    """Grant `bw` at `low_mhz` whatever else holds it: builds violating grant sets."""
    manager._first_fit = lambda occupied, width: round(low_mhz * 1000)
    grant = manager.request_spectrum(SpectrumRequest("r", area, bw), expires_at=expires_at)
    del manager._first_fit
    return grant


# -- static plan --------------------------------------------------------------

def readme_static_plan() -> SpectrumManager:
    """A manager after the README's spectrum script: the static plan's three grants at SITE."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    script = readme.split("## Spectrum scripts", 1)[1].split("```", 2)[1]
    return run_spectrum_scenario(script).manager


class TestStaticPlan:
    def test_blocks_tile_the_band(self):
        grants = readme_static_plan().active_grants()
        blocks = [(g.block.low_mhz, g.block.high_mhz) for g in grants]
        assert blocks == [(3700.0, 3720.0), (3720.0, 3740.0), (3740.0, 3800.0)]
        # brute-force overlap check: no pair of blocks intersects
        for i, a in enumerate(grants):
            for b in grants[i + 1:]:
                assert not blocks_overlap(a.block, b.block)

    def test_block_widths_are_20_20_60(self):
        grants = readme_static_plan().active_grants()
        assert [g.block.width_khz for g in grants] == [20_000, 20_000, 60_000]

    def test_overlay_carries_the_non_critical_role(self):
        grants = readme_static_plan().active_grants()
        overlay = [g for g in grants if g.requester == "overlay"]
        assert len(overlay) == 1
        assert overlay[0].block.width_khz == 60_000


# -- request/reject -----------------------------------------------------------

class TestRequestSpectrum:
    def test_spatial_reuse_at_disjoint_area(self):
        manager = readme_static_plan()
        grant = manager.request_spectrum(SpectrumRequest("new", FAR_AWAY, 20.0))
        assert grant.block == SpectrumBlock(3_700_000, 3_720_000)

    def test_saturated_site_rejects_with_occupied_100(self):
        manager = readme_static_plan()
        outcome = manager.request_spectrum(SpectrumRequest("new", SITE, 20.0))
        assert isinstance(outcome, Rejection)
        assert outcome.occupied_mhz == 100.0

    def test_first_fit_on_empty_band(self):
        grant = SpectrumManager().request_spectrum(SpectrumRequest("n", SITE, 40.0))
        assert grant.block == SpectrumBlock(3_700_000, 3_740_000)

    def test_oversized_request_rejected(self):
        outcome = SpectrumManager().request_spectrum(
            SpectrumRequest("greedy", SITE, 150.0))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "oversized request"

    def test_malformed_area_is_a_validation_error(self):
        with pytest.raises(SpectrumError):
            CoverageArea(0.0, 0.0, -5.0)
        with pytest.raises(SpectrumError):
            SpectrumRequest("bad", SITE, 0.0)

    def test_decisions_are_audited(self):
        manager = SpectrumManager()
        manager.request_spectrum(SpectrumRequest("a", SITE, 60.0))
        manager.request_spectrum(SpectrumRequest("b", SITE, 60.0))
        verdicts = [r.verdict for r in manager.audit_log]
        assert verdicts == ["granted", "rejected"]
        assert manager.audit_log[1].occupied_mhz == 60.0


class TestRelease:
    def test_release_then_identical_request_reuses_block(self):
        manager = SpectrumManager()
        first = manager.request_spectrum(SpectrumRequest("a", SITE, 30.0))
        manager.release_spectrum(first.grant_id)
        again = manager.request_spectrum(SpectrumRequest("a", SITE, 30.0))
        assert again.block == first.block

    def test_release_unknown_id_is_not_found(self):
        with pytest.raises(UnknownGrantError):
            SpectrumManager().release_spectrum(123)

    def test_release_of_a_lapsed_lease_is_not_found(self):
        # the release at 10 ends the lease, and the clock does not go back to 9
        manager = SpectrumManager()
        lease = manager.request_spectrum(SpectrumRequest("a", SITE, 30.0), now=0, expires_at=10)
        with pytest.raises(UnknownGrantError):
            manager.release_spectrum(lease.grant_id, now=10)
        with pytest.raises(SpectrumError, match="^now 9 is before the clock at 10$"):
            manager.release_spectrum(lease.grant_id, now=9)
        assert manager.active_grants() == [] and len(manager.audit_log) == 1

    def test_release_leaves_disjoint_grant_untouched(self):
        manager = SpectrumManager()
        near = manager.request_spectrum(SpectrumRequest("near", SITE, 40.0))
        far = manager.request_spectrum(SpectrumRequest("far", FAR_AWAY, 40.0))
        manager.release_spectrum(near.grant_id)
        active = manager.active_grants()
        assert [g.grant_id for g in active] == [far.grant_id]
        assert far.block == SpectrumBlock(3_700_000, 3_740_000)


class TestOccupancy:
    def test_point_outside_every_area_is_empty(self):
        manager = readme_static_plan()
        hits, total = manager.occupancy_at(9_999.0, 9_999.0)
        assert hits == [] and total == 0

    def test_static_plan_site_is_saturated(self):
        manager = readme_static_plan()
        hits, total = manager.occupancy_at(0.0, 0.0)
        assert len(hits) == 3 and total == 100_000

    def test_same_band_disjoint_areas_lists_exactly_one(self):
        manager = SpectrumManager()
        a = manager.request_spectrum(SpectrumRequest("a", SITE, 20.0))
        b = manager.request_spectrum(SpectrumRequest("b", FAR_AWAY, 20.0))
        assert a.block == b.block  # same frequencies, reused spatially
        hits, total = manager.occupancy_at(SITE.x, SITE.y)
        # brute-force geometric check over the grant set
        expected = [g.grant_id for g in manager.active_grants()
                    if discs_intersect(g.area, CoverageArea(SITE.x, SITE.y, 1e-9))]
        assert [gid for gid, _ in hits] == expected == [a.grant_id]
        assert total == 20_000

    def test_lease_expiry_frees_the_block(self):
        manager = SpectrumManager()
        manager.request_spectrum(SpectrumRequest("short", SITE, 100.0),
                                 now=0, expires_at=1_000)
        blocked = manager.request_spectrum(SpectrumRequest("b", SITE, 20.0), now=500)
        assert isinstance(blocked, Rejection)
        granted = manager.request_spectrum(SpectrumRequest("b", SITE, 20.0), now=1_000)
        assert granted.block == SpectrumBlock(3_700_000, 3_720_000)

    @pytest.mark.parametrize("expires_at", [5, 10])
    def test_lease_that_ends_by_the_request_is_refused(self, expires_at):
        manager = SpectrumManager()
        with pytest.raises(SpectrumError, match=f"lease expires at {expires_at}, "
                                                "not after the request at 10"):
            manager.request_spectrum(SpectrumRequest("a", SITE, 20.0), now=10,
                                     expires_at=expires_at)
        assert manager.active_grants(10) == [] and manager.audit_log == []
        granted = manager.request_spectrum(SpectrumRequest("a", SITE, 20.0), now=10,
                                           expires_at=11)
        assert granted.block == SpectrumBlock(3_700_000, 3_720_000)


class TestIntegerTimesAndIds:
    """Times are int µs and grant ids ints: 1.5 and True were granted and logged as
    time=1.5 and time=True, and release_spectrum(True) released grant 1."""

    @pytest.mark.parametrize("now, expires_at, name", [
        (1.5, 2.5, "now"), (True, None, "now"), (0, 2.5, "expires_at"),
        (0, True, "expires_at"), (0.0, None, "now"), ("0", None, "now"),
    ])
    def test_a_request_at_a_time_that_is_not_an_int_is_refused(self, now, expires_at, name):
        manager = SpectrumManager()
        value = now if name == "now" else expires_at
        with pytest.raises(SpectrumError, match=f"^{name} {re.escape(repr(value))} "
                                                "is not an integer$"):
            manager.request_spectrum(SpectrumRequest("a", SITE, 20.0), now=now,
                                     expires_at=expires_at)
        assert manager.active_grants() == [] and manager.audit_log == []

    @pytest.mark.parametrize("now", [1.5, True])
    def test_a_release_at_a_time_that_is_not_an_int_is_refused(self, now):
        manager = SpectrumManager()
        grant = manager.request_spectrum(SpectrumRequest("a", SITE, 20.0))
        with pytest.raises(SpectrumError, match=f"^now {now!r} is not an integer$"):
            manager.release_spectrum(grant.grant_id, now=now)
        assert manager.active_grants(2) == [grant] and len(manager.audit_log) == 1

    @pytest.mark.parametrize("grant_id", [True, 1.0, "1"])
    def test_a_grant_id_that_is_not_an_int_is_unknown(self, grant_id):
        manager = SpectrumManager()
        grant = manager.request_spectrum(SpectrumRequest("a", SITE, 20.0))
        assert grant.grant_id == 1
        with pytest.raises(UnknownGrantError, match=f"^grant {re.escape(repr(grant_id))} "
                                                    "is not active$"):
            manager.release_spectrum(grant_id)
        assert manager.active_grants() == [grant]
        manager.release_spectrum(1)
        assert manager.active_grants() == []


class TestOneClock:
    """Every call moves the manager's one clock forward.  A lease purged only by
    requests made the answer depend on the order of the calls: after a request at 100
    had purged a lease to 80, a request at 50 was granted the block that lease held."""

    @staticmethod
    def after_a_lapsed_lease() -> SpectrumManager:
        manager = SpectrumManager(Band(3_700_000, 3_720_000))
        manager.request_spectrum(SpectrumRequest("a", SITE, 20.0), now=0, expires_at=80)
        manager.request_spectrum(SpectrumRequest("far", FAR_AWAY, 20.0), now=100)
        return manager

    @pytest.mark.parametrize("call", [
        lambda m, t: m.request_spectrum(SpectrumRequest("b", SITE, 20.0), now=t),
        lambda m, t: m.release_spectrum(2, now=t),
        lambda m, t: m.active_grants(t),
        lambda m, t: m.occupancy_at(0.0, 0.0, t),
        lambda m, t: m.check_invariants(t),
    ], ids=["request", "release", "active_grants", "occupancy_at", "check_invariants"])
    def test_a_call_before_the_clock_is_refused(self, call):
        manager = self.after_a_lapsed_lease()
        held, log = manager.active_grants(), list(manager.audit_log)
        assert [g.requester for g in held] == ["far"]
        with pytest.raises(SpectrumError, match="^now 50 is before the clock at 100$"):
            call(manager, 50)
        # neither refusal moves the clock: 99 is still before it, and 120 after it
        with pytest.raises(SpectrumError, match="^now 120.5 is not an integer$"):
            call(manager, 120.5)
        with pytest.raises(SpectrumError, match="^now 99 is before the clock at 100$"):
            call(manager, 99)
        assert manager.active_grants() == held and manager.audit_log == log
        assert manager.active_grants(120) == held

    def test_no_time_answers_at_the_clock(self):
        manager = SpectrumManager()
        lease = manager.request_spectrum(SpectrumRequest("a", SITE, 100.0), now=0,
                                         expires_at=10)
        far = manager.request_spectrum(SpectrumRequest("far", FAR_AWAY, 20.0), now=5)
        assert manager.active_grants() == [lease, far]
        blocked = manager.request_spectrum(SpectrumRequest("b", SITE, 20.0))
        assert isinstance(blocked, Rejection) and manager.audit_log[-1].time == 5
        assert manager.occupancy_at(0.0, 0.0) == ([(lease.grant_id, lease.block)], 100_000)
        manager.check_invariants()
        assert manager.active_grants(10) == [far]  # the clock reached the lease's end
        assert manager.occupancy_at(0.0, 0.0) == ([], 0)
        granted = manager.request_spectrum(SpectrumRequest("b", SITE, 20.0))
        assert granted.block == SpectrumBlock(3_700_000, 3_720_000)
        assert manager.audit_log[-1].time == 10


class TestWholeKhz:
    """Block edges are int kHz.  In float MHz, three freed 0.1 MHz edges summed one ulp
    short of the 0.3 MHz gap they left, and a band filled in 0.1 MHz steps held
    99.99999999990905 MHz."""

    def test_a_gap_freed_in_pieces_takes_a_request_of_its_width(self):
        lines = ["request a x=0 y=0 r=10 bw=0.1", "request b x=0 y=0 r=10 bw=0.1",
                 "request c x=0 y=0 r=10 bw=0.1", "request rest x=0 y=0 r=10 bw=99.7",
                 "release a", "release b", "release c", "request big x=0 y=0 r=10 bw=0.3"]
        result = run_spectrum_scenario("".join(f"at {t} {line}\n"
                                               for t, line in enumerate(lines)))
        assert result.manager.audit_log[-1].verdict == "granted"
        big = result.manager.active_grants(7)[-1]
        assert big.requester == "big"
        assert (big.block.low_mhz, big.block.high_mhz) == (3700.0, 3700.3)
        assert big.block == SpectrumBlock(3_700_000, 3_700_300)

    def test_a_thousand_tenth_mhz_grants_fill_the_band_exactly(self):
        manager = SpectrumManager()
        for i in range(1_000):
            grant = manager.request_spectrum(SpectrumRequest(f"r{i}", SITE, 0.1))
            assert grant.block == SpectrumBlock(3_700_000 + 100 * i, 3_700_100 + 100 * i)
        hits, total = manager.occupancy_at(SITE.x, SITE.y)
        assert len(hits) == 1_000 and total == 100_000
        outcome = manager.request_spectrum(SpectrumRequest("one-more", SITE, 0.1))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "no contiguous block free at this place"
        assert f"occupied {manager.audit_log[-1].occupied_mhz:g} MHz" == "occupied 100 MHz"
        manager.check_invariants()  # a band exactly full is within capacity

    @pytest.mark.parametrize("bw, reason", [
        (0.0005, "0.0005 MHz is not a whole number of kHz"),
        (1.3125, "1.3125 MHz is not a whole number of kHz"),
        (1e-13, "1e-13 MHz is not a whole number of kHz"),
        (1e308, "1e+308 MHz is too large to count in kHz"),
    ], ids=["half-khz", "1312.5-khz", "1e-13", "1e308"])
    def test_a_bandwidth_that_is_not_whole_khz_is_refused(self, bw, reason):
        # 0.0005 and 1.3125 were granted, 1e-13 refused as an empty block, and 1e308
        # logged as an oversized request
        with pytest.raises(SpectrumError) as refused:
            SpectrumRequest("a", SITE, bw)
        assert str(refused.value) == f"bandwidth_mhz: {reason}"

    def test_a_whole_khz_bandwidth_is_held_as_its_khz(self):
        request = SpectrumRequest("a", SITE, 1.724)
        assert request.bandwidth_khz == 1_724 and request.bandwidth_mhz == 1.724
        assert SpectrumRequest("a", SITE, 20).bandwidth_khz == 20_000


# -- properties ---------------------------------------------------------------

areas = st.builds(
    CoverageArea,
    x=st.floats(min_value=-200, max_value=200, allow_nan=False),
    y=st.floats(min_value=-200, max_value=200, allow_nan=False),
    radius=st.floats(min_value=1, max_value=120, allow_nan=False),
)

# bandwidths of 1 to 110 MHz in whole kHz, the only bandwidths a request takes
bandwidths = st.integers(1_000, 110_000).map(lambda k: k / 1000)

ops = st.lists(
    st.tuples(st.sampled_from(["request", "release"]), areas, bandwidths),
    min_size=1, max_size=25)


class TestInvariantProperties:
    @given(ops)
    @settings(max_examples=80, deadline=None)
    def test_random_sequences_keep_noninterference_and_capacity(self, sequence):
        manager = SpectrumManager()
        granted_ids = []
        for verb, area, bw in sequence:
            if verb == "request":
                outcome = manager.request_spectrum(SpectrumRequest("r", area, bw))
                if not isinstance(outcome, Rejection):
                    granted_ids.append(outcome.grant_id)
            elif granted_ids:
                manager.release_spectrum(granted_ids.pop(0))
            manager.check_invariants()

    @given(st.lists(st.tuples(areas, bandwidths), min_size=1, max_size=6))
    @example([(CoverageArea(0, 3, 1), 1.724),
              (CoverageArea(0, 0, 2), 1.0),
              (CoverageArea(0, 0, 1), 1.724)])
    @settings(max_examples=120, deadline=None)
    def test_decisions_match_first_fit_oracle(self, requests):
        manager = SpectrumManager()
        for area, bw in requests:
            conflicting = oracle_conflicting(manager, area)
            width = round(bw * 1000)
            want = None if width > manager.band.width_khz else \
                oracle_first_fit(manager.band, conflicting, width)
            outcome = manager.request_spectrum(SpectrumRequest("r", area, bw))
            if want is None:
                assert isinstance(outcome, Rejection)
            else:
                assert not isinstance(outcome, Rejection)
                assert outcome.block.low_khz == want

    def test_first_fit_is_a_pure_function_of_active_set(self):
        # same request history replays to identical decisions, and churning
        # an unrelated far-away grant cannot change a probe's outcome
        history = [
            SpectrumRequest("x", CoverageArea(0, 0, 30), 25.0),
            SpectrumRequest("y", CoverageArea(20, 0, 30), 10.0),
        ]
        m1, m2 = SpectrumManager(), SpectrumManager()
        for req in history:
            assert m1.request_spectrum(req).block == m2.request_spectrum(req).block

        far = m1.request_spectrum(SpectrumRequest("far", FAR_AWAY, 80.0))
        m1.release_spectrum(far.grant_id)
        m1.request_spectrum(SpectrumRequest("far", FAR_AWAY, 80.0))

        probe = SpectrumRequest("probe", CoverageArea(10, 0, 30), 15.0)
        assert m1.request_spectrum(probe).block == m2.request_spectrum(probe).block


# -- pruned scans against brute force -----------------------------------------

# radii from 1 m to 5 km over a 20 km site: a large disc reaches grants many
# places away in x order
wide_areas = st.builds(
    CoverageArea,
    x=st.floats(min_value=-10_000, max_value=10_000),
    y=st.floats(min_value=-10_000, max_value=10_000),
    radius=st.floats(min_value=1, max_value=5_000),
)

# (area, bandwidth, low edge, lease end) placed without a first-fit search;
# disjoint blocks at 3700 and 3800 MHz can cover more than the band at one
# place, which breaks capacity without an interfering pair
placements = st.lists(
    st.tuples(wide_areas, st.sampled_from([10.0, 55.0, 90.0]),
              st.sampled_from([3700.0, 3750.0, 3800.0]),
              st.sampled_from([None, 1, 2])),
    min_size=1, max_size=12)


def placed(sequence):
    manager = SpectrumManager()
    for area, bw, low, expires_at in sequence:
        place(manager, area, bw, low, expires_at)
    return manager


class TestPrunedScans:
    @given(placements, st.integers(min_value=0, max_value=2))
    @settings(max_examples=150, deadline=None)
    def test_check_invariants_raises_iff_brute_force_finds_a_violation(self, sequence, now):
        manager = placed(sequence)
        want = oracle_violation(manager, now)
        if want is None:
            manager.check_invariants(now)
        else:
            with pytest.raises(AssertionError) as err:
                manager.check_invariants(now)
            assert str(err.value) == want

    @given(placements, st.lists(st.tuples(st.floats(-15_000, 15_000),
                                          st.floats(-15_000, 15_000))),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=100, deadline=None)
    def test_occupancy_at_matches_brute_force(self, sequence, points, now):
        manager = placed(sequence)
        # grant centers and the rightmost point of each disc sit on or
        # inside the edge of some disc
        points = points + [(a.x, a.y) for a, *_ in sequence] + \
            [(a.x + a.radius, a.y) for a, *_ in sequence]
        for x, y in points:
            assert manager.occupancy_at(x, y, now) == oracle_occupancy(manager, x, y, now)

    def test_pair_far_apart_in_x_order_is_found(self):
        # a small disc at x=4,500 and a 5 km disc at x=0 share a block, with
        # unrelated grants between them in x order.  Seen from the small
        # disc (the lower id), only the largest radius held brings the large
        # one within reach.
        manager = SpectrumManager()
        small = place(manager, CoverageArea(4_500.0, 0.0, 1.0), 10.0, 3700.0)
        for x in (1_000.0, 2_000.0, 3_000.0, 4_000.0):
            place(manager, CoverageArea(x, 0.0, 1.0), 10.0, 3750.0)
        large = place(manager, CoverageArea(0.0, 0.0, 5_000.0), 10.0, 3700.0)
        want = (f"interference: grants {small.grant_id} and {large.grant_id} overlap "
                f"in both area and frequency")
        assert oracle_violation(manager) == want
        with pytest.raises(AssertionError) as err:
            manager.check_invariants()
        assert str(err.value) == want

        # the same reach decides what a request and a point query see
        manager.release_spectrum(small.grant_id)
        manager.check_invariants()
        hits, _ = manager.occupancy_at(4_900.0, 0.0)
        assert [gid for gid, _ in hits] == [large.grant_id]
        probe = manager.request_spectrum(
            SpectrumRequest("probe", CoverageArea(4_900.0, 0.0, 1.0), 10.0))
        assert probe.block == SpectrumBlock(3_710_000, 3_720_000)

    def test_window_edges_do_not_round_a_disc_away(self):
        # fl(x - r) rounds above the grant's center, yet the center is
        # fl-distance r from x, so its disc contains the point (x, 0);
        # mirrored, the same holds at the window's upper edge
        x, r, center = 2458.033897794039, 3709.1931593143863, -1251.1592615203474
        assert center < x - r and x - center <= r
        for sign in (1.0, -1.0):
            manager = SpectrumManager()
            grant = manager.request_spectrum(
                SpectrumRequest("edge", CoverageArea(sign * center, 0.0, r), 10.0))
            hits, total = manager.occupancy_at(sign * x, 0.0)
            assert hits == [(grant.grant_id, grant.block)] and total == 10_000

    def test_capacity_is_checked_after_every_pair(self):
        # disjoint blocks that together cover 110 MHz at both centers; the
        # interfering pair placed last is still reported first
        manager = SpectrumManager()
        place(manager, CoverageArea(0.0, 0.0, 50.0), 60.0, 3700.0)
        place(manager, CoverageArea(10.0, 0.0, 50.0), 50.0, 3800.0)
        want = "capacity exceeded at grant 1 center: 110000 kHz"
        assert oracle_violation(manager) == want
        with pytest.raises(AssertionError, match=want):
            manager.check_invariants()
        place(manager, CoverageArea(5_000.0, 0.0, 5.0), 10.0, 3700.0)
        place(manager, CoverageArea(5_004.0, 0.0, 5.0), 10.0, 3705.0)
        with pytest.raises(AssertionError, match="interference: grants 3 and 4"):
            manager.check_invariants()

    @pytest.mark.parametrize("placements, want", [
        # the centers are exactly 3 + 2 = 5 m apart: the closed discs touch
        ([((0.0, 0.0, 3.0), 10.0, 3700.0), ((5.0, 0.0, 2.0), 10.0, 3705.0)],
         "interference: grants 1 and 2 overlap in both area and frequency"),
        # hypot(3, 4) is exactly 5.0: the center (3, 4) lies on the edge of
        # the 5 m disc at the origin, which adds its 60 MHz there
        ([((0.0, 0.0, 5.0), 60.0, 3700.0), ((3.0, 4.0, 1.0), 50.0, 3800.0)],
         "capacity exceeded at grant 2 center: 110000 kHz"),
        # the x gap 5 is exactly the reach from the smaller disc at the left, 2 + r_max
        # = 2 + 3: the scan from it must not stop before its tangent neighbour
        ([((0.0, 0.0, 2.0), 10.0, 3700.0), ((5.0, 0.0, 3.0), 10.0, 3705.0)],
         "interference: grants 1 and 2 overlap in both area and frequency"),
        # the center (0, 0) lies on the edge of the 5 m disc at (3, 4), to its
        # right in x order: the right disc's 60 MHz covers the left center
        ([((3.0, 4.0, 5.0), 60.0, 3700.0), ((0.0, 0.0, 1.0), 50.0, 3800.0)],
         "capacity exceeded at grant 2 center: 110000 kHz"),
    ], ids=["tangent-discs", "center-on-an-edge", "tangent-discs-mirrored",
            "center-on-a-right-edge"])
    def test_a_disc_holds_its_edge(self, placements, want):
        manager = SpectrumManager()
        for disc, bw, low in placements:
            place(manager, CoverageArea(*disc), bw, low)
        assert oracle_violation(manager) == want
        with pytest.raises(AssertionError) as err:
            manager.check_invariants()
        assert str(err.value) == want

    def test_non_finite_area_is_a_validation_error(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(SpectrumError):
                CoverageArea(bad, 0.0, 5.0)
            with pytest.raises(SpectrumError):
                CoverageArea(0.0, bad, 5.0)
        with pytest.raises(SpectrumError):
            CoverageArea(0.0, 0.0, math.inf)


# -- the flat records ------------------------------------------------------------

def rebuilt_records(manager: SpectrumManager) -> list[tuple]:
    """The record of every held grant, rebuilt from the grants, in (center x, id) order."""
    return sorted(((g.area.x, g.area.y, g.area.radius, g.block.low_khz, g.block.high_khz,
                    g.grant_id, g.expires_at) for g in manager._grants.values()),
                  key=lambda record: (record[0], record[5]))


# few center x and two radii, so that several held grants share both
tied_areas = st.builds(CoverageArea, x=st.sampled_from([-40.0, 0.0, 25.0]),
                       y=st.sampled_from([-300.0, 0.0, 300.0]),
                       radius=st.sampled_from([10.0, 30.0]))

# (verb, area, bandwidth, lease length or None, which held grant to release), each a µs
# after the last; a lease ends as the clock passes it, and the call that moves the clock
# drops it
steps = st.lists(st.tuples(st.sampled_from(["request", "request", "release", "purge"]),
                           tied_areas, st.sampled_from([5.0, 20.0, 45.0]),
                           st.sampled_from([None, 1, 2, 4]), st.integers(0, 20)),
                 min_size=1, max_size=30)


def replay_checking_records(manager: SpectrumManager, sequence) -> None:
    """Replay `sequence`, checking the flat records after every step."""
    for now, (verb, area, bw, lease, pick) in enumerate(sequence):
        held = manager.active_grants(now)
        if verb == "request":
            manager.request_spectrum(SpectrumRequest("r", area, bw), now=now,
                                     expires_at=None if lease is None else now + lease)
        elif verb == "release" and held:
            manager.release_spectrum(held[pick % len(held)].grant_id, now=now)
        elif verb == "purge":
            manager._advance(now)
        records = rebuilt_records(manager)
        assert manager._by_x == records, "the records are not those of the grants"
        assert manager._xs == [record[0] for record in records]


class StaleRecordManager(SpectrumManager):
    """A mutant whose `_drop` deletes the first record at the grant's center x: of two
    grants at one x it can leave the dropped grant's tuple and delete the other's."""

    def _drop(self, grant_id):
        grant = self._grants.pop(grant_id)
        i = bisect_left(self._xs, grant.area.x)
        del self._xs[i], self._by_x[i]
        del self._radii[bisect_left(self._radii, grant.area.radius)]
        if grant.expires_at is not None:
            del self._expiries[bisect_left(self._expiries, grant.expires_at)]
        return grant


class TestFlatRecords:
    @given(steps)
    @settings(max_examples=150, deadline=None)
    def test_records_match_the_grants_after_every_step(self, sequence):
        replay_checking_records(SpectrumManager(), sequence)

    def test_a_drop_that_leaves_a_stale_record_fails(self):
        @given(steps)
        @settings(max_examples=150, deadline=None, phases=[Phase.generate])  # no shrinking
        def on_the_mutant(sequence):
            replay_checking_records(StaleRecordManager(), sequence)

        with pytest.raises(AssertionError, match="the records are not those of the grants"):
            on_the_mutant()


def test_union_width_merges_overlaps():
    blocks = [SpectrumBlock(3_700_000, 3_720_000), SpectrumBlock(3_710_000, 3_730_000),
              SpectrumBlock(3_760_000, 3_770_000)]
    assert union_width_khz(blocks) == 40_000
