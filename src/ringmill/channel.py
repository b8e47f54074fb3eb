"""Per-frame delay, jitter and loss impairment between loop endpoints.

Each direction of a control loop owns one `Channel` instance.  The
applied delay is ``mean_delay_us`` plus a symmetric jitter draw, clamped
at zero; with reordering disallowed (the default) delivery times are
additionally forced to be non-decreasing, preserving FIFO.  Jitter draws
are integer microseconds, so the uniform distribution has exact support
``[mean - jitter, mean + jitter]`` and exact zero-mean perturbation; a
profile whose delay or jitter is not an integer is refused when it is
made.

`frame_path` builds the whole path of a frame as one generator: the
sending node's admission on its ring (see `ring`; a start `now` waits
``cycle - phase`` µs if ``phase = (now - offset) % cycle >= slot``), then
this impairment at the ring delivery instant, so a frame is one call and
builds no object.  Its stages are the only copy of each stage's arithmetic;
a `Channel` is the channel stage alone and a `TokenRing` node the ring's.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Annotated, Callable, Sequence

from .engine import In, SimTime, check_fields

if TYPE_CHECKING:
    from .ring import RingConfig


class JitterDistribution(str, enum.Enum):
    UNIFORM = "uniform"
    TRUNCATED_NORMAL = "truncated-normal"


class ChannelConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelProfile:
    mean_delay_us: Annotated[int, In("[0, inf)")]
    jitter_us: Annotated[int, In("[0, inf)")] = 0
    distribution: JitterDistribution = JitterDistribution.UNIFORM
    loss_rate: Annotated[float, In("[0, 1]")] = 0.0
    reorder_allowed: bool = False

    def __post_init__(self):
        # µs are ints, or arrivals turn float; a str "uniform" would draw truncated-normal jitter
        check_fields(self, ChannelConfigError)


ZERO_IMPAIRMENT = ChannelProfile(mean_delay_us=0, jitter_us=0, loss_rate=0.0)


def frame_path(ring: RingConfig | None = None, node_idx: int = 0,
               ring_rng: random.Random | None = None, profile: ChannelProfile | None = None,
               channel_rng: random.Random | None = None,
               blackout_from: SimTime | None = None) -> Callable[[SimTime], SimTime | None]:
    """The `send` of one frame path: ``send(now)`` admits a frame at the node
    with index `node_idx` on `ring`, drawing losses from `ring_rng`, and
    impairs it at its ring delivery instant by `profile`, drawing from
    `channel_rng`, and returns its arrival, or None if either stage drops it.

    Either stage may be left out: with no `ring` the frame is impaired at
    `now` (`Channel.impair`), with no `profile` its arrival is its ring
    delivery (`TokenRing.admit`).  Both stages run in one generator, their
    state in locals.  An index that names no node on `ring` raises
    `RingConfigError` when the path is built.  The ring stage takes a clock
    that never goes back; a ``phase = (now - offset) % cycle >= slot``
    moves `now` on ``cycle - phase``.
    """

    def path():
        node, channel = ring is not None, profile is not None
        if node:
            if type(node_idx) is not int or not 0 <= node_idx < len(ring.nodes):
                from .ring import RingConfigError  # ring imports this module
                raise RingConfigError(f"ring {ring.ring_id}: no node with index {node_idx!r}")
            # the delivery instants of the older frames in flight, and of any a
            # busy spell left, popped when next busy; the newest is the node's
            # watermark, the end of its newest transmission
            pending: deque[SimTime] = deque()
            popleft, append = pending.popleft, pending.append
            depth, ring_loss, ring_draw = ring.queue_depth, ring.loss_rate, ring_rng.random
            ring_lossy = ring_loss > 0  # a lossless ring takes no draw
            slot, tx = ring.slot_time_us, ring.tx_time_us
            cycle = len(ring.nodes) * slot
            offset = node_idx * slot  # where this node's slot starts in a cycle
            node_mark = 0
        if channel:
            chan_loss, mean, jitter = profile.loss_rate, profile.mean_delay_us, profile.jitter_us
            chan_lossy = chan_loss > 0.0  # a lossless channel takes no draw
            chan_draw, getrandbits, gauss = (channel_rng.random, channel_rng.getrandbits,
                                             channel_rng.gauss)
            uniform = profile.distribution is JitterDistribution.UNIFORM
            # rng.randint(-jitter, jitter), draw for draw: rejection sampling of
            # bit_length(2 * jitter + 1) random bits, as Random._randbelow does
            width = 2 * jitter + 1
            bits = width.bit_length()
            low = mean - jitter
            sigma = jitter / 2.0
            fifo, blackout = not profile.reorder_allowed, blackout_from is not None
            chan_mark = 0  # the latest delivery, for the FIFO clamp
        now = yield
        while True:
            if node:
                if node_mark <= now:  # idle: every frame it sent has been delivered
                    if ring_lossy and ring_draw() < ring_loss:
                        now = yield None
                        continue
                else:  # the older frames in flight, and the newest
                    while pending and pending[0] <= now:
                        popleft()
                    if len(pending) + 1 >= depth or ring_lossy and ring_draw() < ring_loss:
                        now = yield None
                        continue
                    append(node_mark)  # the newest frame becomes an older one
                    now = node_mark
                if slot:  # outside this node's slot, wait for the next one
                    phase = (now - offset) % cycle
                    if phase >= slot:
                        now += cycle - phase
                now = node_mark = now + tx
            if channel:
                if chan_lossy and chan_draw() < chan_loss:
                    now = yield None
                    continue
                if not jitter:
                    now += mean
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
                    if delay > 0:
                        now += delay
                if fifo and now < chan_mark:
                    now = chan_mark
                if blackout and now >= blackout_from:
                    now = yield None
                    continue
                chan_mark = now
            now = yield now

    send = path().send
    send(None)  # to the first yield
    return send


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

    `impair` computes a frame's delivery instant and allocates nothing: it
    is the `send` of a `frame_path` with this channel's stage alone, built
    once, when the channel is made.  `transmit` wraps it in a
    `DeliveryRecord`, kept when `record` is set.
    """

    def __init__(self, profile: ChannelProfile, rng: random.Random,
                 record: bool = False, blackout_from: SimTime | None = None):
        self.profile = profile
        self.rng = rng
        self.records: list[DeliveryRecord] = []
        self._record = record
        self.impair = frame_path(profile=profile, channel_rng=rng, blackout_from=blackout_from)

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

