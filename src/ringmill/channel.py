"""Per-frame delay, jitter and loss impairment between loop endpoints.

Each direction of a control loop owns one `Channel` instance.  The
applied delay is ``mean_delay_us`` plus a symmetric jitter draw, clamped
at zero; with reordering disallowed (the default) delivery times are
additionally forced to be non-decreasing, preserving FIFO.  Jitter draws
are integer microseconds, so the uniform distribution has exact support
``[mean - jitter, mean + jitter]`` and exact zero-mean perturbation.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Sequence

from .engine import SimTime, US_PER_MS


class JitterDistribution(str, enum.Enum):
    UNIFORM = "uniform"
    TRUNCATED_NORMAL = "truncated-normal"


class ChannelConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelProfile:
    mean_delay_us: int
    jitter_us: int = 0
    distribution: JitterDistribution = JitterDistribution.UNIFORM
    loss_rate: float = 0.0
    reorder_allowed: bool = False

    def __post_init__(self):
        if self.mean_delay_us < 0:
            raise ChannelConfigError(f"mean delay {self.mean_delay_us} us < 0")
        if self.jitter_us < 0:
            raise ChannelConfigError(f"jitter {self.jitter_us} us < 0")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ChannelConfigError(f"loss rate {self.loss_rate} outside [0, 1]")

    @classmethod
    def from_ms(cls, mean_delay_ms: float, jitter_ms: float = 0.0, **kw) -> "ChannelProfile":
        return cls(mean_delay_us=round(mean_delay_ms * US_PER_MS),
                   jitter_us=round(jitter_ms * US_PER_MS), **kw)


ZERO_IMPAIRMENT = ChannelProfile(mean_delay_us=0, jitter_us=0, loss_rate=0.0)


@dataclass(slots=True)
class DeliveryRecord:
    frame_id: int
    sent: SimTime
    delivered: SimTime | None  # None = dropped
    applied_delay_us: int | None


@dataclass(frozen=True)
class DelayStats:
    mean_us: float
    p99_us: int
    max_us: int
    loss_fraction: float
    count: int


class Channel:
    """One direction of an impaired link; state is only the FIFO watermark.

    `impair` computes a frame's delivery instant and allocates nothing;
    `transmit` wraps it in a `DeliveryRecord`, kept when `record` is set.
    """

    def __init__(self, profile: ChannelProfile, rng: random.Random,
                 record: bool = False, blackout_from: SimTime | None = None):
        self.profile = profile
        self.rng = rng
        self.records: list[DeliveryRecord] = []
        self._record = record
        self._watermark: SimTime = 0
        self._blackout_from = blackout_from
        self.sent = 0
        self.dropped = 0

    def impair(self, now: SimTime) -> SimTime | None:
        """Delivery instant of one frame sent at `now`, or None if it is dropped."""
        self.sent += 1
        p = self.profile
        rng = self.rng
        if p.loss_rate > 0.0 and rng.random() < p.loss_rate:
            self.dropped += 1
            return None
        delay = p.mean_delay_us
        j = p.jitter_us
        if j:
            if p.distribution is JitterDistribution.UNIFORM:
                # rng.randint(-j, j), draw for draw: rejection sampling of
                # bit_length(2j + 1) random bits, as Random._randbelow does
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
            self.dropped += 1
            return None
        self._watermark = delivered
        return delivered

    def transmit(self, frame_id: int, now: SimTime) -> DeliveryRecord:
        """Impair one frame sent at `now`; returns its delivery record."""
        delivered = self.impair(now)
        record = DeliveryRecord(frame_id, now, delivered,
                                None if delivered is None else delivered - now)
        if self._record:
            self.records.append(record)
        return record


def empirical_stats(records: Sequence[DeliveryRecord]) -> DelayStats:
    """Summary statistics over applied delays; loss fraction over all frames."""
    if not records:
        raise ValueError("empirical_stats needs at least one record")
    delays = sorted(r.applied_delay_us for r in records if r.delivered is not None)
    dropped = len(records) - len(delays)
    if not delays:
        return DelayStats(0.0, 0, 0, 1.0, len(records))
    rank = max(0, -(-99 * len(delays) // 100) - 1)  # nearest-rank p99
    return DelayStats(
        mean_us=sum(delays) / len(delays),
        p99_us=delays[rank],
        max_us=delays[-1],
        loss_fraction=dropped / len(records),
        count=len(records),
    )

