"""Location-aware spectrum management over a shared local band.

A central manager partitions a 100 MHz band (3700-3800 MHz by default)
among networks that request bandwidth at a specific place.  Coverage is
modelled as closed planar discs; two grants conflict only if their discs
intersect, so the same frequencies can be reused at disjoint sites.
Assignment is first-fit ascending: the lowest contiguous free sub-block
that fits.  Every decision is appended to an audit log.

Geometric scans touch only grants that can meet the query.  The manager
keeps its grants ordered by center x, and a disc of radius r centred at x
can only meet grants whose center x lies within r + r_max of x, where
r_max is the largest radius held.  The pruning is exact in floating point,
so every scan decides exactly what a scan over all grants would; the
argument is in `SpectrumManager._near`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable

from .engine import SimTime

DEFAULT_BAND_LOW_MHZ = 3700.0
DEFAULT_BAND_HIGH_MHZ = 3800.0


class SpectrumError(ValueError):
    """Malformed band, block, area or request."""


class UnknownGrantError(LookupError):
    """Release of a grant id that is not active."""


@dataclass(frozen=True)
class SpectrumBlock:
    low_mhz: float
    high_mhz: float

    def __post_init__(self):
        if not self.low_mhz < self.high_mhz:
            raise SpectrumError(f"empty spectrum block: {self.low_mhz}..{self.high_mhz}")

    @property
    def width_mhz(self) -> float:
        return self.high_mhz - self.low_mhz

    def overlaps(self, other: "SpectrumBlock") -> bool:
        return self.low_mhz < other.high_mhz and other.low_mhz < self.high_mhz


@dataclass(frozen=True)
class Band(SpectrumBlock):
    """The band a manager partitions, 3700-3800 MHz unless given."""

    low_mhz: float = DEFAULT_BAND_LOW_MHZ
    high_mhz: float = DEFAULT_BAND_HIGH_MHZ


@dataclass(frozen=True)
class CoverageArea:
    """Closed disc footprint in a planar site frame (meters)."""

    x: float
    y: float
    radius: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.radius))):
            raise SpectrumError(
                f"coverage area must be finite, got ({self.x}, {self.y}) r={self.radius}")
        if not self.radius > 0:
            raise SpectrumError(f"coverage radius must be positive, got {self.radius}")

    def intersects(self, other: "CoverageArea") -> bool:
        return math.hypot(self.x - other.x, self.y - other.y) <= self.radius + other.radius

    def contains(self, x: float, y: float) -> bool:
        return math.hypot(self.x - x, self.y - y) <= self.radius


@dataclass(frozen=True)
class SpectrumRequest:
    requester: str
    area: CoverageArea
    bandwidth_mhz: float

    def __post_init__(self):
        if not 0 < self.bandwidth_mhz < math.inf:
            raise SpectrumError(
                f"bandwidth must be positive and finite, got {self.bandwidth_mhz}")


@dataclass(frozen=True)
class SpectrumGrant:
    grant_id: int
    requester: str
    block: SpectrumBlock
    area: CoverageArea
    expires_at: SimTime | None = None  # None = no lease, never expires


@dataclass(frozen=True)
class Rejection:
    reason: str
    occupied_mhz: float


@dataclass(frozen=True)
class DecisionRecord:
    """One audit-log entry per request/release."""

    time: SimTime
    requester: str
    verdict: str  # "granted" | "rejected" | "released"
    bandwidth_mhz: float
    occupied_mhz: float
    grant_id: int | None
    reason: str = ""


def _live(grant: SpectrumGrant, now: SimTime) -> bool:
    return grant.expires_at is None or grant.expires_at > now


def union_width_mhz(blocks: Iterable[SpectrumBlock]) -> float:
    """Total width covered by the union of (possibly overlapping) blocks."""
    edges = sorted((b.low_mhz, b.high_mhz) for b in blocks)
    total = 0.0
    cur_low = cur_high = None
    for low, high in edges:
        if cur_high is None or low > cur_high:
            if cur_high is not None:
                total += cur_high - cur_low
            cur_low, cur_high = low, high
        else:
            cur_high = max(cur_high, high)
    if cur_high is not None:
        total += cur_high - cur_low
    return total


class SpectrumManager:
    """Central grant/reject authority for one shared band.

    All requests pass through this single object in call order, which is
    the serialized decision queue of the central network controller.
    """

    def __init__(self, band: Band | None = None):
        self.band = band or Band()
        self._grants: dict[int, SpectrumGrant] = {}  # id order
        self._by_x: list[SpectrumGrant] = []  # the same grants in (center x, id) order
        self._xs: list[float] = []  # their center x, ascending
        self._radii: list[float] = []  # their radii, ascending
        self._expiries: list[SimTime] = []  # their lease ends, ascending; static grants have none
        self._next_id = 1
        self.audit_log: list[DecisionRecord] = []

    # -- queries ------------------------------------------------------------

    def active_grants(self, now: SimTime = 0) -> list[SpectrumGrant]:
        return [g for g in self._grants.values() if _live(g, now)]

    def occupancy_at(self, x: float, y: float, now: SimTime = 0) -> tuple[list[tuple[int, SpectrumBlock]], float]:
        """Grants covering a point, in id order, plus the union MHz they occupy there."""
        hits = sorted((g.grant_id, g.block) for g in self._near(x, 0.0, now)
                      if g.area.contains(x, y))
        return hits, union_width_mhz(b for _, b in hits)

    def _conflicting_blocks(self, area: CoverageArea, now: SimTime) -> list[SpectrumBlock]:
        return [g.block for g in self._near(area.x, area.radius, now)
                if g.area.intersects(area)]

    def _near(self, x: float, radius: float, now: SimTime) -> list[SpectrumGrant]:
        """Live grants, in x order, that a disc of `radius` centred at `x` can meet.

        These are the grants whose center x lies within reach = fl(radius +
        r_max) of `x`, r_max being the largest radius held; a point is a
        disc of radius 0.  Leaving the others out is exact in floating
        point.  A grant b left out has fl(|b.x - x|) > fl(radius + r_max)
        >= fl(radius + b.radius), because rounding is monotone and r_max >=
        b.radius.  `CoverageArea.intersects` and `contains` compare
        math.hypot(dx, dy) with that sum (with b.radius alone for a point),
        where |dx| = fl(|b.x - x|), and hypot(dx, dy) >= |dx|: math.hypot
        errs by under one ulp, and |dx| is a float no greater than the
        exact hypotenuse.  So both return False for b.
        The window is bisected at the rounded edges fl(x - reach) and
        fl(x + reach), then widened while the next center out still has
        fl(|b.x - x|) <= reach; that predicate is monotone in b.x on each
        side of `x`, so no center past a failing one satisfies it.
        Coordinates are finite, which keeps the x order total.
        """
        xs = self._xs
        if not xs:
            return []
        reach = radius + self._radii[-1]
        lo = bisect_left(xs, x - reach)
        while lo and x - xs[lo - 1] <= reach:
            lo -= 1
        hi = bisect_right(xs, x + reach, lo)
        while hi < len(xs) and xs[hi] - x <= reach:
            hi += 1
        near = self._by_x[lo:hi]
        if self._expiries and self._expiries[0] <= now:
            near = [g for g in near if _live(g, now)]
        return near

    # -- commands -----------------------------------------------------------

    def request_spectrum(self, req: SpectrumRequest, now: SimTime = 0,
                         expires_at: SimTime | None = None) -> SpectrumGrant | Rejection:
        """Grant the lowest free sub-block at the requested place, or reject;
        a lease that ends by `now` is a `SpectrumError`."""
        if expires_at is not None and expires_at <= now:
            raise SpectrumError(f"lease expires at {expires_at}, not after the request at {now}")
        self._purge_expired(now)
        occupied_blocks = self._conflicting_blocks(req.area, now)
        occupied = union_width_mhz(occupied_blocks)
        if req.bandwidth_mhz > self.band.width_mhz:
            rejection = Rejection("oversized request", occupied)
            self._log(now, req, "rejected", occupied, None, rejection.reason)
            return rejection

        low = self._first_fit(occupied_blocks, req.bandwidth_mhz)
        if low is None:
            rejection = Rejection("no contiguous block free at this place", occupied)
            self._log(now, req, "rejected", occupied, None, rejection.reason)
            return rejection

        grant = SpectrumGrant(
            grant_id=self._next_id,
            requester=req.requester,
            block=SpectrumBlock(low, low + req.bandwidth_mhz),
            area=req.area,
            expires_at=expires_at,
        )
        self._next_id += 1
        self._hold(grant)
        self._log(now, req, "granted", occupied, grant.grant_id)
        return grant

    def release_spectrum(self, grant_id: int, now: SimTime = 0) -> None:
        """Free an active grant; one whose lease ended by `now` is not active."""
        grant = self._grants.get(grant_id)
        if grant is None or not _live(grant, now):
            raise UnknownGrantError(f"grant {grant_id} is not active")
        self._drop(grant_id)
        self.audit_log.append(DecisionRecord(
            time=now, requester=grant.requester, verdict="released",
            bandwidth_mhz=grant.block.width_mhz, occupied_mhz=0.0,
            grant_id=grant_id))

    # -- internals ----------------------------------------------------------

    def _first_fit(self, occupied: list[SpectrumBlock], width: float) -> float | None:
        """Lowest start frequency of a free gap that fits `width`, else None.

        A gap fits when the block that would be granted, ending at
        fl(cursor + width), ends at or before the next occupied block or
        the band edge.  Testing the gap's width instead, fl(low - cursor),
        can round below `width` and skip a gap that fits exactly.
        """
        cursor = self.band.low_mhz
        for block in sorted(occupied, key=lambda b: b.low_mhz):
            if cursor + width <= block.low_mhz:
                return cursor
            cursor = max(cursor, block.high_mhz)
        if cursor + width <= self.band.high_mhz:
            return cursor
        return None

    def _hold(self, grant: SpectrumGrant) -> None:
        self._grants[grant.grant_id] = grant
        i = bisect_right(self._xs, grant.area.x)  # after equal x, so in id order
        self._xs.insert(i, grant.area.x)
        self._by_x.insert(i, grant)
        self._radii.insert(bisect_right(self._radii, grant.area.radius), grant.area.radius)
        if grant.expires_at is not None:
            self._expiries.insert(bisect_right(self._expiries, grant.expires_at),
                                  grant.expires_at)

    def _drop(self, grant_id: int) -> SpectrumGrant:
        grant = self._grants.pop(grant_id)
        i = self._by_x.index(grant, bisect_left(self._xs, grant.area.x))
        del self._xs[i], self._by_x[i]
        del self._radii[bisect_left(self._radii, grant.area.radius)]
        if grant.expires_at is not None:
            del self._expiries[bisect_left(self._expiries, grant.expires_at)]
        return grant

    def _purge_expired(self, now: SimTime) -> None:
        if not (self._expiries and self._expiries[0] <= now):
            return
        expired = [gid for gid, g in self._grants.items() if not _live(g, now)]
        for gid in expired:
            self._drop(gid)

    def _log(self, now, req, verdict, occupied, grant_id, reason=""):
        self.audit_log.append(DecisionRecord(
            time=now, requester=req.requester, verdict=verdict,
            bandwidth_mhz=req.bandwidth_mhz, occupied_mhz=occupied,
            grant_id=grant_id, reason=reason))

    # -- integrity check used by tests and the scenario runner ---------------

    def check_invariants(self, now: SimTime = 0) -> None:
        """Pairwise non-interference, and capacity at every grant's center.

        Every pair of live grants whose discs intersect must hold disjoint
        blocks, and the union of the blocks covering each grant's center
        must fit the band.  Each grant is tested only against the grants
        `_near` it, which leaves out exactly the grants whose discs cannot
        meet it or its center (a point query at the center would look no
        further than that).  So the verdict and the violation reported are
        those of testing every pair and then every center: the lowest
        interfering grant id with its lowest-id partner, else the first
        center over capacity in id order.
        """
        over_capacity = None
        for a in self.active_grants(now):
            area, block = a.area, a.block
            near = self._near(area.x, area.radius, now)
            clashes = [b.grant_id for b in near if b.grant_id > a.grant_id
                       and block.overlaps(b.block) and area.intersects(b.area)]
            if clashes:
                raise AssertionError(
                    f"interference: grants {a.grant_id} and {min(clashes)} overlap "
                    f"in both area and frequency")
            if over_capacity is None:
                total = union_width_mhz(b.block for b in near
                                        if b.area.contains(area.x, area.y))
                if total > self.band.width_mhz + 1e-9:
                    over_capacity = (f"capacity exceeded at grant {a.grant_id} center: "
                                     f"{total} MHz")
        if over_capacity is not None:
            raise AssertionError(over_capacity)
