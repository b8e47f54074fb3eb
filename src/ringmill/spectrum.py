"""Location-aware spectrum management over a shared local band, and the
replay of timed request/release scripts through it.

A central manager partitions a 100 MHz band (3700-3800 MHz by default)
among networks that request bandwidth at a specific place.  Coverage is
modelled as closed planar discs; two grants conflict only if their discs
intersect, so the same frequencies can be reused at disjoint sites.
Assignment is first-fit ascending: the lowest contiguous free sub-block
that fits.  Every decision is appended to an audit log.

Frequencies are integer kHz, as times are integer µs, so every edge, width,
union and capacity test is exact.  A request's MHz must be a whole number of
kHz (`engine.us_from`); records and reports print MHz read back from kHz.

Geometric scans touch only grants that can meet the query.  The manager
keeps one flat record per grant, its numbers in a plain tuple, ordered by
center x, and a disc of radius r centred at x can only meet grants whose
center x lies within r + r_max of x, where r_max is the largest radius
held.  The pruning is exact in floating point, so every scan decides
exactly what a scan over all grants would; the argument is in
`SpectrumManager._window`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Annotated, Iterable

from .engine import In, KHZ_PER_MHZ, ScriptError, SimTime, _fmt, check_fields, us_from


class SpectrumError(ValueError):
    """Malformed band, block, area or request."""


class UnknownGrantError(LookupError):
    """Release of a grant id that is not active."""


@dataclass(frozen=True)
class SpectrumBlock:
    low_khz: int
    high_khz: int

    def __post_init__(self):
        check_fields(self, SpectrumError)
        if not self.low_khz < self.high_khz:
            raise SpectrumError(f"low_khz {self.low_khz} is not below high_khz {self.high_khz}")

    @property
    def low_mhz(self) -> float:
        return self.low_khz / KHZ_PER_MHZ

    @property
    def high_mhz(self) -> float:
        return self.high_khz / KHZ_PER_MHZ

    @property
    def width_khz(self) -> int:
        return self.high_khz - self.low_khz

    def overlaps(self, other: "SpectrumBlock") -> bool:
        return self.low_khz < other.high_khz and other.low_khz < self.high_khz


@dataclass(frozen=True)
class Band(SpectrumBlock):
    """The band a manager partitions, 3700-3800 MHz unless given."""

    low_khz: int = 3_700_000
    high_khz: int = 3_800_000


@dataclass(frozen=True)
class CoverageArea:
    """Closed disc footprint in a planar site frame (meters)."""

    x: Annotated[float, In("(-inf, inf)")]
    y: Annotated[float, In("(-inf, inf)")]
    radius: Annotated[float, In("(0, inf)")]

    def __post_init__(self):
        check_fields(self, SpectrumError)

    def intersects(self, other: "CoverageArea") -> bool:
        return math.hypot(self.x - other.x, self.y - other.y) <= self.radius + other.radius

    def contains(self, x: float, y: float) -> bool:
        return math.hypot(self.x - x, self.y - y) <= self.radius


@dataclass(frozen=True)
class SpectrumRequest:
    requester: str
    area: CoverageArea
    bandwidth_mhz: Annotated[float, In("(0, inf)")]  # held as the int bandwidth_khz too

    def __post_init__(self):
        check_fields(self, SpectrumError)
        try:
            object.__setattr__(self, "bandwidth_khz", us_from(self.bandwidth_mhz, "MHz"))
        except ValueError as exc:
            raise SpectrumError(f"bandwidth_mhz: {exc}") from None


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


def _check_time(value, name: str) -> None:
    """Refuse a time that is not an int µs, a bool included, as a `SpectrumError`."""
    if type(value) is not int:
        raise SpectrumError(f"{name} {value!r} is not an integer")


def _live(grant: SpectrumGrant, now: SimTime) -> bool:
    return grant.expires_at is None or grant.expires_at > now


def _union_khz(edges: list[tuple[int, int]]) -> int:
    """Total width covered by the union of (low, high) kHz pairs in ascending order."""
    total = 0
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


def union_width_khz(blocks: Iterable[SpectrumBlock]) -> int:
    """Total width covered by the union of (possibly overlapping) blocks."""
    return _union_khz(sorted((b.low_khz, b.high_khz) for b in blocks))


_ID = itemgetter(5)  # a record's grant id


def _record(grant: SpectrumGrant) -> tuple:
    """A held grant's record: (x, y, radius, low_khz, high_khz, grant_id, expires_at)."""
    area, block = grant.area, grant.block
    return (area.x, area.y, area.radius, block.low_khz, block.high_khz, grant.grant_id,
            grant.expires_at)


class SpectrumManager:
    """Central grant/reject authority for one shared band.

    All requests pass through this single object in call order, which is
    the serialized decision queue of the central network controller.

    Each held grant has one record, a plain tuple of the numbers a scan
    reads: ``(x, y, radius, low_khz, high_khz, grant_id, expires_at)``.
    The records are kept in (center x, id) order, beside their center x,
    so that `_window` can bisect for the ones a disc can meet; every query
    reads records, and only `occupancy_at` goes back to the grant objects,
    for the blocks it returns.
    """

    def __init__(self, band: Band | None = None):
        self.band = band or Band()
        self._grants: dict[int, SpectrumGrant] = {}  # id order
        self._by_x: list[tuple] = []  # the same grants' records in (center x, id) order
        self._xs: list[float] = []  # their center x, ascending
        self._radii: list[float] = []  # their radii, ascending
        self._expiries: list[SimTime] = []  # their lease ends, ascending; static grants have none
        self._next_id = 1
        self.audit_log: list[DecisionRecord] = []

    # -- queries ------------------------------------------------------------

    def active_grants(self, now: SimTime = 0) -> list[SpectrumGrant]:
        return [g for g in self._grants.values() if _live(g, now)]

    def occupancy_at(self, x: float, y: float, now: SimTime = 0) -> tuple[list[tuple[int, SpectrumBlock]], int]:
        """Grants covering a point, in id order, plus the union kHz they occupy there."""
        hits = sorted((gid, self._grants[gid].block)
                      for gx, gy, r, _, _, gid, _ in self._near(x, 0.0, now)
                      if math.hypot(gx - x, gy - y) <= r)
        return hits, union_width_khz(b for _, b in hits)

    def _conflicting(self, area: CoverageArea, now: SimTime) -> list[tuple[int, int]]:
        """The (low, high) kHz of each live grant whose disc meets `area`, ascending."""
        x, y, radius = area.x, area.y, area.radius
        return sorted([(low, high) for gx, gy, r, low, high, _, _ in self._near(x, radius, now)
                       if math.hypot(gx - x, gy - y) <= r + radius])

    def _near(self, x: float, radius: float, now: SimTime) -> list[tuple]:
        """The records of live grants, in x order, that a disc of `radius` centred
        at `x` can meet: those in `_window`, less any whose lease ended by `now`."""
        lo, hi = self._window(x, radius)
        near = self._by_x[lo:hi]
        if self._expiries and self._expiries[0] <= now:
            near = [rec for rec in near if rec[6] is None or rec[6] > now]  # its lease end
        return near

    def _window(self, x: float, radius: float) -> tuple[int, int]:
        """The slice (lo, hi) of the x order that holds every grant a disc of
        `radius` centred at `x` can meet; a point is a disc of radius 0.

        These are the grants whose center x lies within reach = fl(radius +
        r_max) of `x`, r_max being the largest radius held.  Leaving the
        others out is exact in floating point.  Every query compares
        d = math.hypot(dx, dy), the distance from the query's center to a
        grant b's, where |dx| = fl(|b.x - x|), with fl(radius + b.radius), or
        with b.radius alone at a point or a center: the comparisons of
        `CoverageArea.intersects` and `contains`.  A grant b left out has
        fl(|b.x - x|) > fl(radius + r_max) >= fl(radius + b.radius) >=
        b.radius, because rounding is monotone, r_max >= b.radius and
        radius >= 0.  And d >= |dx|: math.hypot errs by under one ulp, and
        |dx| is a float no greater than the exact hypotenuse.  So every
        comparison is False for b.
        The slice is bisected at the rounded edges fl(x - reach) and
        fl(x + reach), then widened while the next center out still has
        fl(|b.x - x|) <= reach; that predicate is monotone in b.x on each
        side of `x`, so no center past a failing one satisfies it.
        Coordinates are finite, which keeps the x order total.
        """
        xs = self._xs
        if not xs:
            return 0, 0
        reach = radius + self._radii[-1]
        lo = bisect_left(xs, x - reach)
        while lo and x - xs[lo - 1] <= reach:
            lo -= 1
        hi = bisect_right(xs, x + reach, lo)
        while hi < len(xs) and xs[hi] - x <= reach:
            hi += 1
        return lo, hi

    # -- commands -----------------------------------------------------------

    def request_spectrum(self, req: SpectrumRequest, now: SimTime = 0,
                         expires_at: SimTime | None = None) -> SpectrumGrant | Rejection:
        """Grant the lowest free sub-block at the requested place, or reject;
        a time that is not an int, or a lease that ends by `now`, is a `SpectrumError`."""
        _check_time(now, "now")
        if expires_at is not None:
            _check_time(expires_at, "expires_at")
            if expires_at <= now:
                raise SpectrumError(f"lease expires at {expires_at}, "
                                    f"not after the request at {now}")
        self._purge_expired(now)
        occupied_edges = self._conflicting(req.area, now)
        occupied = _union_khz(occupied_edges)
        low = self._first_fit(occupied_edges, req.bandwidth_khz)
        if low is None:
            reason = ("oversized request" if req.bandwidth_khz > self.band.width_khz
                      else "no contiguous block free at this place")
            self._log(now, req, "rejected", occupied, None, reason)
            return Rejection(reason, occupied / KHZ_PER_MHZ)

        grant = SpectrumGrant(
            grant_id=self._next_id,
            requester=req.requester,
            block=SpectrumBlock(low, low + req.bandwidth_khz),
            area=req.area,
            expires_at=expires_at,
        )
        self._next_id += 1
        self._hold(grant)
        self._log(now, req, "granted", occupied, grant.grant_id)
        return grant

    def release_spectrum(self, grant_id: int, now: SimTime = 0) -> None:
        """Free an active grant; one whose lease ended by `now` is not active, and
        neither is an id that is not an int (True would free grant 1)."""
        _check_time(now, "now")
        grant = self._grants.get(grant_id) if type(grant_id) is int else None
        if grant is None or not _live(grant, now):
            raise UnknownGrantError(f"grant {grant_id!r} is not active")
        self._drop(grant_id)
        self.audit_log.append(DecisionRecord(
            time=now, requester=grant.requester, verdict="released",
            bandwidth_mhz=grant.block.width_khz / KHZ_PER_MHZ, occupied_mhz=0.0,
            grant_id=grant_id))

    # -- internals ----------------------------------------------------------

    def _first_fit(self, occupied: list[tuple[int, int]], width: int) -> int | None:
        """Lowest start, in kHz, of a free gap at least `width` kHz wide beside the
        ascending (low, high) kHz pairs `occupied`, else None."""
        cursor = self.band.low_khz
        for low, high in occupied:
            if cursor + width <= low:
                return cursor
            cursor = max(cursor, high)
        if cursor + width <= self.band.high_khz:
            return cursor
        return None

    def _hold(self, grant: SpectrumGrant) -> None:
        self._grants[grant.grant_id] = grant
        x, radius = grant.area.x, grant.area.radius
        i = bisect_right(self._xs, x)  # after equal x, so in id order
        self._xs.insert(i, x)
        self._by_x.insert(i, _record(grant))
        self._radii.insert(bisect_right(self._radii, radius), radius)
        if grant.expires_at is not None:
            self._expiries.insert(bisect_right(self._expiries, grant.expires_at),
                                  grant.expires_at)

    def _drop(self, grant_id: int) -> SpectrumGrant:
        grant = self._grants.pop(grant_id)
        i = self._by_x.index(_record(grant), bisect_left(self._xs, grant.area.x))
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

    def _log(self, now, req, verdict, occupied_khz, grant_id, reason=""):
        self.audit_log.append(DecisionRecord(
            time=now, requester=req.requester, verdict=verdict,
            bandwidth_mhz=req.bandwidth_mhz, occupied_mhz=occupied_khz / KHZ_PER_MHZ,
            grant_id=grant_id, reason=reason))

    # -- integrity check used by tests and the scenario runner ---------------

    def check_invariants(self, now: SimTime = 0) -> None:
        """Pairwise non-interference, and capacity at every grant's center.

        Every pair of live grants whose discs intersect must hold disjoint
        blocks, and the union of the blocks covering each grant's center
        must fit the band.  The live records are taken in id order, and each
        is tested only against the records `_near` it, which leaves out
        exactly the grants whose discs cannot meet it or its center (a point
        query at the center would look no further than that).  So the
        verdict and the violation reported are those of testing every pair
        and then every center: the lowest interfering grant id with its
        lowest-id partner, else the first center over capacity in id order.

        One scan of that window serves both tests, with one distance
        d = math.hypot(a.x - b.x, a.y - b.y) per pair, each record unpacked
        into locals: `a.area.intersects(b.area)` compares d with a.radius +
        b.radius, and `b.area.contains(a.x, a.y)` computes d too, as
        hypot(b.x - a.x, b.y - a.y), because fl(b.x - a.x) = -fl(a.x - b.x)
        and hypot ignores signs.  The covering blocks' union is taken over
        their (low, high) kHz pairs.
        """
        band_khz, hypot = self.band.width_khz, math.hypot
        over_capacity = None
        for ax, ay, ar, a_low, a_high, a_id, a_end in sorted(self._by_x, key=_ID):
            if a_end is not None and a_end <= now:
                continue
            clashes, covering = [], []
            for bx, by, br, b_low, b_high, b_id, _ in self._near(ax, ar, now):
                d = hypot(ax - bx, ay - by)
                if d <= br:
                    covering.append((b_low, b_high))
                if b_id > a_id and d <= ar + br and a_low < b_high and b_low < a_high:
                    clashes.append(b_id)
            if clashes:
                raise AssertionError(
                    f"interference: grants {a_id} and {min(clashes)} overlap "
                    f"in both area and frequency")
            if over_capacity is None:
                covering.sort()
                total = _union_khz(covering)
                if total > band_khz:
                    over_capacity = f"capacity exceeded at grant {a_id} center: {total} kHz"
        if over_capacity is not None:
            raise AssertionError(over_capacity)


@dataclass
class ScenarioResult:
    manager: SpectrumManager
    now: SimTime  # the latest time in the script, that of the last line replayed

    def occupancy_report(self) -> str:
        """The grants live at the end of the script and the occupancy at their centers."""
        active = sorted(self.manager.active_grants(self.now), key=lambda g: g.grant_id)
        lines = ["active grants:"]
        for g in active:
            lines.append(
                f"  #{g.grant_id} {g.requester}: "
                f"[{g.block.low_mhz:g}, {g.block.high_mhz:g}] MHz "
                f"at ({_fmt(g.area.x)}, {_fmt(g.area.y)}) r={_fmt(g.area.radius)} m")
        centers = sorted({(g.area.x, g.area.y) for g in active})
        lines.append("occupancy at grant centers:")
        for x, y in centers:
            _, total = self.manager.occupancy_at(x, y, self.now)
            lines.append(f"  ({_fmt(x)}, {_fmt(y)}): {total / KHZ_PER_MHZ:g} MHz")
        return "\n".join(lines) + "\n"


_REQUEST_KEYS = ("x", "y", "r", "bw", "expires")


def _parse_kv(tokens: list[str], line_no: int) -> dict[str, str]:
    """A request's ``key=value`` tokens: each key one of `_REQUEST_KEYS`, once."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScriptError(line_no, f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key not in _REQUEST_KEYS:
            raise ScriptError(line_no, f"unknown request key {key!r}")
        if key in out:
            raise ScriptError(line_no, f"request key {key!r} given twice")
        out[key] = value
    return out


def run_spectrum_scenario(script: str) -> ScenarioResult:
    """Replay a timed request/release script through a spectrum manager.

    Line format (times in microseconds from 0, positions in meters,
    bandwidth in MHz, a whole number of kHz)::

        at <t> request <requester> x=<x> y=<y> r=<radius> bw=<mhz> [expires=<t>]
        at <t> release <requester>

    A request takes no other key, and each key once.  Blank lines and
    ``#`` comments are skipped.  A line that cannot be parsed or replayed
    raises `ScriptError` with its line number.  Releases free the oldest
    active grant of a requester; a grant whose lease has ended is not
    active.
    """
    manager = SpectrumManager()
    commands = []
    for line_no, raw in enumerate(script.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 3 or tokens[0] != "at":
            raise ScriptError(line_no, "expected: at <time_us> request|release ...")
        try:
            t = int(tokens[1])
        except ValueError:
            raise ScriptError(line_no, f"bad time {tokens[1]!r}") from None
        if t < 0:
            raise ScriptError(line_no, f"time {t} is before the script starts at 0")
        verb = tokens[2]
        if verb == "request":
            if len(tokens) < 4:
                raise ScriptError(line_no, "request needs a requester name")
            kv = _parse_kv(tokens[4:], line_no)
            try:
                request = SpectrumRequest(
                    tokens[3], CoverageArea(float(kv["x"]), float(kv["y"]), float(kv["r"])),
                    float(kv["bw"]))
                expires = int(kv["expires"]) if "expires" in kv else None
            except KeyError as missing:
                raise ScriptError(line_no, f"request missing {missing}") from None
            except ValueError as bad:  # SpectrumError included
                raise ScriptError(line_no, str(bad)) from None
            commands.append((t, line_no, tokens[3], request, expires))
        elif verb == "release":
            if len(tokens) != 4:
                raise ScriptError(line_no, "release takes exactly a requester name")
            commands.append((t, line_no, tokens[3], None, None))
        else:
            raise ScriptError(line_no, f"unknown verb {verb!r}")

    commands.sort(key=lambda c: (c[0], c[1]))
    t = 0
    for t, line_no, requester, request, expires in commands:
        if request is not None:
            try:
                manager.request_spectrum(request, now=t, expires_at=expires)
            except SpectrumError as exc:
                raise ScriptError(line_no, str(exc)) from None
        else:
            held = [g for g in manager.active_grants(t) if g.requester == requester]
            if not held:
                raise ScriptError(line_no, f"{requester!r} holds no active grant to release")
            manager.release_spectrum(held[0].grant_id, now=t)  # in id order: the oldest
        manager.check_invariants(now=t)
    return ScenarioResult(manager, t)
