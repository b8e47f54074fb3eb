"""Per-frame delay, jitter and loss impairment between loop endpoints.

Each direction of a control loop owns one `Channel` instance.  The
applied delay is ``mean_delay_us`` plus a symmetric jitter draw, clamped
at zero; with reordering disallowed (the default) delivery times are
additionally forced to be non-decreasing, preserving FIFO.  Jitter draws
are integer microseconds, so the uniform distribution has exact support
``[mean - jitter, mean + jitter]`` and exact zero-mean perturbation; a
profile whose delay or jitter is not an integer is refused when it is
made, and a value in ms (`ChannelProfile.from_ms`, `us_from_ms`) must be
a whole number of µs.  A channel builds its per-frame `impair` closure
from the profile once, when it is made (see `Channel`).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .engine import SimTime, US_PER_MS


class JitterDistribution(str, enum.Enum):
    UNIFORM = "uniform"
    TRUNCATED_NORMAL = "truncated-normal"


class ChannelConfigError(ValueError):
    pass


def us_from_ms(value_ms: float) -> int:
    """`value_ms` in integer µs, or a ChannelConfigError unless it is a whole
    number of µs up to the float rounding of the ms value itself: 0.05 ms
    is 50 µs, but 0.5004 ms is refused where rounding would run 500 µs."""
    if not math.isfinite(value_ms * US_PER_MS):
        raise ChannelConfigError(f"{value_ms} ms is too large to count in us")
    us = round(value_ms * US_PER_MS)
    if us / US_PER_MS != value_ms:
        raise ChannelConfigError(f"{value_ms} ms is not a whole number of us")
    return us


@dataclass(frozen=True)
class ChannelProfile:
    mean_delay_us: int
    jitter_us: int = 0
    distribution: JitterDistribution = JitterDistribution.UNIFORM
    loss_rate: float = 0.0
    reorder_allowed: bool = False

    def __post_init__(self):
        # time is integer µs: a float would give float arrival instants
        for name in ("mean_delay_us", "jitter_us"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ChannelConfigError(f"{name} {value!r} is not an integer number of us")
        if self.mean_delay_us < 0:
            raise ChannelConfigError(f"mean delay {self.mean_delay_us} us < 0")
        if self.jitter_us < 0:
            raise ChannelConfigError(f"jitter {self.jitter_us} us < 0")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ChannelConfigError(f"loss rate {self.loss_rate} outside [0, 1]")

    @classmethod
    def from_ms(cls, mean_delay_ms: float, jitter_ms: float = 0.0, **kw) -> "ChannelProfile":
        return cls(mean_delay_us=us_from_ms(mean_delay_ms), jitter_us=us_from_ms(jitter_ms),
                   **kw)


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

    `impair` computes a frame's delivery instant and allocates nothing.
    It is a closure that `Channel` builds once, when it is made, with the
    profile's constants bound: the loss rate, the uniform draw's width and
    bit count (the delay is ``mean - jitter`` plus a draw in ``[0, 2 *
    jitter]``), the FIFO flag and the blackout instant.  `transmit` wraps
    it in a `DeliveryRecord`, kept when `record` is set.
    """

    def __init__(self, profile: ChannelProfile, rng: random.Random,
                 record: bool = False, blackout_from: SimTime | None = None):
        self.profile = profile
        self.rng = rng
        self.records: list[DeliveryRecord] = []
        self._record = record
        self.impair = self._build_impair(blackout_from)

    def _build_impair(self, blackout_from: SimTime | None) -> Callable[[SimTime], SimTime | None]:
        p = self.profile
        loss_rate, mean, jitter = p.loss_rate, p.mean_delay_us, p.jitter_us
        draw, getrandbits, gauss = self.rng.random, self.rng.getrandbits, self.rng.gauss
        uniform = p.distribution is JitterDistribution.UNIFORM
        # rng.randint(-jitter, jitter), draw for draw: rejection sampling of
        # bit_length(2 * jitter + 1) random bits, as Random._randbelow does
        width = 2 * jitter + 1
        bits = width.bit_length()
        low = mean - jitter
        sigma = jitter / 2.0
        fifo = not p.reorder_allowed
        watermark = 0

        def impair(now: SimTime) -> SimTime | None:
            """Delivery instant of one frame sent at `now`, or None if it is dropped."""
            nonlocal watermark
            if loss_rate > 0.0 and draw() < loss_rate:
                return None
            if not jitter:
                delivered = now + mean
            else:
                if uniform:
                    r = getrandbits(bits)
                    while r >= width:
                        r = getrandbits(bits)
                    delay = low + r
                else:
                    delay = round(gauss(0.0, sigma))
                    delay = mean + (jitter if delay > jitter else
                                    -jitter if delay < -jitter else delay)
                delivered = now + delay if delay > 0 else now
            if fifo and delivered < watermark:
                delivered = watermark
            if blackout_from is not None and delivered >= blackout_from:
                return None
            watermark = delivered
            return delivered

        return impair

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

