"""Seeded lease-churn scripts for ``ringmill spectrum`` and a first-fit oracle.

Every request carries an ``expires=`` lease instead of a later ``release``
line: releasing a requester whose request was rejected is a script error,
and whether a request is rejected is exactly what the workload checks.
Bandwidths are whole MHz and positions and radii whole metres, so first-fit
edges and disc-intersection tests are exact integer arithmetic in the oracle
and in the program alike.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

BAND_LOW_MHZ = 3700
BAND_HIGH_MHZ = 3800
BANDWIDTHS_MHZ = (5, 10, 20, 40)
STEP_US = 10_000
LEASE_STEPS = 117          # lease length; sets the steady-state active-grant count
LINES = 375                # LEASE_STEPS lines of ramp-up, then steady churn
SITE_M = 1600              # sparse enough that few requests are rejected: the
                           # rejection count sets the active-grant count, and so
                           # the cost per line, so it must vary little by seed
RADIUS_M = (20, 60)


@dataclass(frozen=True)
class Request:
    time_us: int
    requester: str
    x: int
    y: int
    radius: int
    bandwidth_mhz: int
    expires_us: int

    def line(self) -> str:
        return (f"at {self.time_us} request {self.requester} x={self.x} y={self.y} "
                f"r={self.radius} bw={self.bandwidth_mhz} expires={self.expires_us}")


@dataclass(frozen=True)
class Decision:
    time_us: int
    requester: str
    verdict: str
    bandwidth_mhz: float
    occupied_mhz: float


@dataclass(frozen=True)
class OracleResult:
    decisions: list[Decision]
    final_blocks: dict[str, tuple[int, int]]  # requester -> (low, high) MHz
    active_before: list[int]                  # active grants seen by each request


def generate(seed: int) -> list[Request]:
    rng = random.Random(f"perfbench-spectrum:{seed}")
    requests = []
    for i in range(LINES):
        t = (i + 1) * STEP_US
        requests.append(Request(
            time_us=t, requester=f"net-{i:04d}",
            x=rng.randrange(SITE_M), y=rng.randrange(SITE_M),
            radius=rng.randint(*RADIUS_M),
            bandwidth_mhz=rng.choice(BANDWIDTHS_MHZ),
            # half a step off the request grid, so no lease ends on a request time
            expires_us=t + LEASE_STEPS * STEP_US - STEP_US // 2))
    return requests


def script_text(requests: list[Request]) -> str:
    return "".join(r.line() + "\n" for r in requests)


def sim_seconds(requests: list[Request]) -> float:
    """Simulated time the script spans, from 0 to its last request."""
    return requests[-1].time_us / 1e6


def first_fit_oracle(requests: list[Request]) -> OracleResult:
    """Independent replay: lowest free contiguous block among intersecting discs."""
    active: list[tuple[Request, int, int]] = []
    decisions, active_before = [], []
    for req in requests:
        active = [g for g in active if g[0].expires_us > req.time_us]
        active_before.append(len(active))
        busy = sorted((low, high) for g, low, high in active
                      if (g.x - req.x) ** 2 + (g.y - req.y) ** 2
                      <= (g.radius + req.radius) ** 2)
        occupied, cur_low, cur_high = 0, None, None
        for low, high in busy:
            if cur_high is None or low > cur_high:
                if cur_high is not None:
                    occupied += cur_high - cur_low
                cur_low, cur_high = low, high
            else:
                cur_high = max(cur_high, high)
        if cur_high is not None:
            occupied += cur_high - cur_low
        start, cursor = None, BAND_LOW_MHZ
        for low, high in busy:
            if low - cursor >= req.bandwidth_mhz:
                start = cursor
                break
            cursor = max(cursor, high)
        if start is None and BAND_HIGH_MHZ - cursor >= req.bandwidth_mhz:
            start = cursor
        if start is None:
            verdict = "rejected"
        else:
            verdict = "granted"
            active.append((req, start, start + req.bandwidth_mhz))
        decisions.append(Decision(req.time_us, req.requester, verdict,
                                  float(req.bandwidth_mhz), float(occupied)))
    final = {g.requester: (low, high) for g, low, high in active}
    return OracleResult(decisions, final, active_before)


_DECISION = re.compile(r"^t=(\d+) (\S+): (\w+) (\S+) MHz, occupied (\S+) MHz")
_GRANT = re.compile(r"^  #\d+ (\S+): \[(\S+), (\S+)\] MHz")


def parse_decisions(stdout: str) -> list[Decision]:
    """Audit-log lines of ``ringmill spectrum`` output, in order."""
    out = []
    for line in stdout.splitlines():
        m = _DECISION.match(line)
        if m:
            out.append(Decision(int(m[1]), m[2], m[3], float(m[4]), float(m[5])))
    return out


def parse_final_blocks(occupancy: str) -> dict[str, tuple[float, float]]:
    """Requester -> block of each grant listed in ``occupancy.txt``."""
    out = {}
    for line in occupancy.splitlines():
        m = _GRANT.match(line)
        if m:
            out[m[1]] = (float(m[2]), float(m[3]))
    return out


def count_wrong_lines(oracle: OracleResult, stdout: str, occupancy: str) -> int:
    """Script lines whose decision, or final block if still granted, disagrees."""
    got = parse_decisions(stdout)
    blocks = parse_final_blocks(occupancy)
    wrong = abs(len(got) - len(oracle.decisions))
    for want, have in zip(oracle.decisions, got):
        if want != have:
            wrong += 1
        elif want.requester in oracle.final_blocks:
            if blocks.get(want.requester) != oracle.final_blocks[want.requester]:
                wrong += 1
    wrong += sum(1 for name in blocks if name not in oracle.final_blocks)
    return min(wrong, len(oracle.decisions))
