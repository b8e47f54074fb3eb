"""Slot-scheduled wireless token rings with bounded medium access.

The ring is modelled at slot level: node i holds the token for ``slot =
slot_time_us`` (handoff included) from ``offset = i * slot`` into each
``cycle = node_count * slot``, forever, so a frame ready at ``now``
starts there if ``phase = (now - offset) % cycle < slot`` and ``cycle -
phase`` µs later if not.  A transmission takes ``tx_time_us`` and reaches
its destination directly (single wireless hop).  The longest wait a frame
at the head of its queue can see is therefore

    (node_count - 1) * slot_time_us + tx_time_us

which the shipped control ring (900 µs) keeps below the 2 ms bound the
hardware class is specified for; it is the one ring a trial runs.

Admission is compiled once per node: a node's admission is the ring
stage of a `channel.frame_path`, built for a trial and a `TokenRing` alike
with the node's queue, slot offset and the configuration's depth, loss
rate, slot, cycle and transmission time bound, so admitting a frame reads
no configuration.  A trial's path runs its channel stage after it in the
same call; a `TokenRing`'s has none.  A node's watermark, the end of its
newest transmission, is that frame's delivery instant, and the node's
queue holds the delivery instants of the older frames.  A node whose
watermark is at or before the clock has delivered every frame it sent,
so its admission starts at the clock and calls no deque method; in a
trial nodes are idle on almost every frame.
Only a node with a frame in flight pops the delivered instants, counts
the queue and the newest frame against the depth, and, once the frame
survives the loss draw, pushes the old watermark onto the queue and
starts there.

Admission takes a clock that never goes back: `TokenRing.admit` refuses
a clock earlier than its last with `engine.CausalityError`, and a node
index outside the ring with `RingConfigError`.  Times,
slots and the queue depth are integers, checked when the configuration
is made.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import partial
from typing import Annotated, Callable

from .channel import frame_path
from .engine import CausalityError, In, SimTime, Simulator, check_fields

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
    slot_time_us: Annotated[int, In("[0, inf)")]
    tx_time_us: Annotated[int, In("[0, inf)")]
    queue_depth: Annotated[int, In("[1, inf)")] = 16
    loss_rate: Annotated[float, In("[0, 1]")] = 1e-9

    def __post_init__(self):
        # time is integer µs, a depth counts frames, and a string of nodes is no tuple
        check_fields(self, RingConfigError)
        n = len(self.nodes)
        if not 2 <= n <= MAX_RING_NODES:
            raise RingConfigError(f"ring {self.ring_id}: {n} nodes, not 2 to {MAX_RING_NODES}")
        if len(set(self.nodes)) != n:
            raise RingConfigError(f"ring {self.ring_id}: nodes holds a node twice")
        if 0 < self.slot_time_us < self.tx_time_us:
            raise RingConfigError(f"ring {self.ring_id}: slot_time_us {self.slot_time_us} "
                                  f"cannot start a tx_time_us {self.tx_time_us} transmission")


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


class TokenRing:
    """One deterministic token ring attached to a simulation instance.

    Each source node's queue is FIFO and its transmission start depends
    only on the clock and that node's watermark, so a frame's delivery
    instant is computed at admission.  The ring builds one
    `channel.frame_path` per node when it is made, with no channel stage,
    drawing every node's losses from `rng`.  `admit` sends on it for a
    node given by its index and allocates nothing; `enqueue` wraps it for
    callers that hold a `Frame` or want a delivery event.
    """

    def __init__(self, config: RingConfig, sim: Simulator, rng: random.Random):
        self.config = config
        self.sim = sim
        self.rng = rng
        self._index = {node: i for i, node in enumerate(config.nodes)}
        self._admit = [frame_path(config, node_idx, rng)
                       for node_idx in range(len(config.nodes))]
        self._clock: SimTime = 0  # the clock of the last admission

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
        and the watermark, that lies inside the node's slot.  A clock
        earlier than the last admission's raises `CausalityError`, and an index
        that names no node `RingConfigError`.
        """
        if type(node_idx) is not int or not 0 <= node_idx < len(self._admit):
            raise RingConfigError(f"ring {self.config.ring_id}: no node with index {node_idx!r}")
        if now < self._clock:
            raise CausalityError(f"ring {self.config.ring_id}: cannot admit at t={now} "
                                 f"after admitting at t={self._clock}")
        self._clock = now
        return self._admit[node_idx](now)

    def enqueue(self, node: str, frame: Frame, now: SimTime,
                on_deliver: Callable[[Frame, SimTime], None] | None = None) -> SimTime | None:
        """Admit a frame at a member node at the current clock `now`.

        Returns the frame's delivery instant, or None if it is dropped.
        A delivery event calling ``on_deliver(frame, delivery)`` is
        scheduled only when `on_deliver` is given.  A frame from another
        node, to its own source or of another clock raises `RingConfigError`.
        """
        node_idx = self.node_index(node)
        if frame.dest not in self._index:
            raise RingConfigError(f"dest {frame.dest!r} is not a member of ring {self.config.ring_id}")
        if frame.source != node or frame.dest == frame.source or frame.enqueue_time != now:
            raise RingConfigError(f"ring {self.config.ring_id}: frame {frame.source!r} -> "
                                  f"{frame.dest!r} at t={frame.enqueue_time} cannot be "
                                  f"enqueued at {node!r} at t={now}")
        delivery = self.admit(node_idx, now)
        if delivery is not None and on_deliver is not None:
            self.sim.schedule(delivery, partial(on_deliver, frame, delivery))
        return delivery
