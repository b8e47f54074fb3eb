"""Slot-scheduled wireless token rings with bounded medium access.

The ring is modelled at slot level: each node holds the token for a
fixed ``slot_time_us`` (handoff overhead included), cycling through the
configured node order forever, so the token position is a pure function
of the clock.  A node may start transmitting at any instant strictly
inside its slot; a transmission takes ``tx_time_us`` and reaches its
destination directly (single wireless hop).  The longest wait a frame at
the head of its queue can see is therefore

    (node_count - 1) * slot_time_us + tx_time_us

which the shipped control ring (900 µs) keeps below the 2 ms bound the
hardware class is specified for; it is the one ring a trial runs.

Admission is compiled once per node: `admitters` builds each node's
admission closure, for a trial and a `TokenRing` alike, with the node's
queue, slot offset and the configuration's depth, loss rate, slot, cycle
and transmission time bound, so admitting a frame reads no
configuration.  Times, slots and the queue depth are integers, checked
when the configuration is made.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .engine import SimTime, Simulator

MAX_RING_NODES = 8
CONTROL_FRAME_MIN_BYTES = 80
CONTROL_FRAME_MAX_BYTES = 159


class RingConfigError(ValueError):
    pass


class FrameClass(enum.Enum):
    URLLC = "urllc"


@dataclass(frozen=True)
class RingConfig:
    ring_id: str
    nodes: tuple[str, ...]
    slot_time_us: int
    tx_time_us: int
    queue_depth: int = 16
    loss_rate: float = 1e-9

    def __post_init__(self):
        n = len(self.nodes)
        if not 2 <= n <= MAX_RING_NODES:
            raise RingConfigError(f"ring {self.ring_id}: node count {n} outside [2, {MAX_RING_NODES}]")
        if len(set(self.nodes)) != n:
            raise RingConfigError(f"ring {self.ring_id}: duplicate node ids")
        # time is integer µs, and a depth counts frames
        for name in ("slot_time_us", "tx_time_us", "queue_depth"):
            value = getattr(self, name)
            if type(value) is not int:
                raise RingConfigError(f"ring {self.ring_id}: {name} {value!r} is not an integer")
        if self.slot_time_us < 0 or self.tx_time_us < 0:
            raise RingConfigError(f"ring {self.ring_id}: negative timing")
        if 0 < self.slot_time_us < self.tx_time_us:
            raise RingConfigError(
                f"ring {self.ring_id}: slot {self.slot_time_us} us cannot start "
                f"a {self.tx_time_us} us transmission")
        if self.queue_depth < 1:
            raise RingConfigError(f"ring {self.ring_id}: queue depth must be >= 1")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise RingConfigError(f"ring {self.ring_id}: loss rate {self.loss_rate}")


def worst_case_access_latency(config: RingConfig) -> int:
    """Upper bound on enqueue-to-delivery time for a head-of-queue frame."""
    return (len(config.nodes) - 1) * config.slot_time_us + config.tx_time_us


@dataclass(slots=True)
class Frame:
    frame_id: int
    source: str
    dest: str
    payload_size: int
    enqueue_time: SimTime
    frame_class: FrameClass = FrameClass.URLLC

    def __post_init__(self):
        if not CONTROL_FRAME_MIN_BYTES <= self.payload_size <= CONTROL_FRAME_MAX_BYTES:
            raise ValueError(
                f"control-loop frame size {self.payload_size} outside "
                f"[{CONTROL_FRAME_MIN_BYTES}, {CONTROL_FRAME_MAX_BYTES}] bytes")


def admitters(config: RingConfig, rng: random.Random) -> list[Callable[[SimTime], SimTime | None]]:
    """One admission closure per node of `config`, in ring order, drawing losses
    from `rng`: ``admitters(config, rng)[i](now)`` is `TokenRing.admit` ``(i, now)``."""
    depth, loss_rate, draw = config.queue_depth, config.loss_rate, rng.random
    slot, tx = config.slot_time_us, config.tx_time_us
    cycle = len(config.nodes) * slot

    def build(node_idx: int) -> Callable[[SimTime], SimTime | None]:
        pending: deque[SimTime] = deque()  # the delivery instants of frames in flight
        popleft, append = pending.popleft, pending.append
        offset = node_idx * slot  # where this node's slot starts in a cycle
        watermark = 0  # the end of this node's latest transmission

        def admit(now: SimTime) -> SimTime | None:
            nonlocal watermark
            while pending and pending[0] <= now:
                popleft()
            if len(pending) >= depth:
                return None
            if loss_rate > 0 and draw() < loss_rate:
                return None
            start = watermark if watermark > now else now
            if slot:
                base = start - start % cycle + offset  # this cycle's slot
                if start < base:
                    start = base
                elif start >= base + slot:
                    start = base + cycle
            watermark = start + tx
            append(watermark)
            return watermark

        return admit

    return [build(node_idx) for node_idx in range(len(config.nodes))]


class TokenRing:
    """One deterministic token ring attached to a simulation instance.

    Each source node's queue is FIFO and its transmission start depends
    only on the clock and that node's watermark, so a frame's delivery
    instant is computed at admission.  The ring takes one admission
    closure per node from `admitters` when it is made, with the
    configuration and that node's slot bound, so a frame re-reads no
    configuration.  `admit` calls it for a node given by its index and
    allocates nothing; `enqueue` wraps it for callers that hold a `Frame`
    or want a delivery event.
    """

    def __init__(self, config: RingConfig, sim: Simulator, rng: random.Random):
        self.config = config
        self.sim = sim
        self.rng = rng
        self._index = {node: i for i, node in enumerate(config.nodes)}
        self._admit = admitters(config, rng)

    def node_index(self, node: str) -> int:
        """Position of a member node in the ring order, as `admit` takes it."""
        node_idx = self._index.get(node)
        if node_idx is None:
            raise RingConfigError(f"node {node!r} is not a member of ring {self.config.ring_id}")
        return node_idx

    def admit(self, node_idx: int, now: SimTime) -> SimTime | None:
        """Admit one frame at the node with index `node_idx` at the clock `now`.

        Returns the frame's delivery instant, or None if it is dropped.
        Per-node FIFO is enforced by the transmission watermark; the
        transmission starts at the earliest instant, no earlier than `now`
        and the watermark, that lies inside the node's slot.
        """
        return self._admit[node_idx](now)

    def enqueue(self, node: str, frame: Frame, now: SimTime,
                on_deliver: Callable[[Frame, SimTime], None] | None = None) -> SimTime | None:
        """Admit a frame at a member node at the current clock `now`.

        Returns the frame's delivery instant, or None if it is dropped.
        A delivery event calling ``on_deliver(frame, delivery)`` is
        scheduled only when `on_deliver` is given.
        """
        node_idx = self.node_index(node)
        if frame.dest not in self._index:
            raise RingConfigError(f"dest {frame.dest!r} is not a member of ring {self.config.ring_id}")
        delivery = self._admit[node_idx](now)
        if delivery is not None and on_deliver is not None:
            self.sim.schedule(delivery, partial(on_deliver, frame, delivery))
        return delivery
