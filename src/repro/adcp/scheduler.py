"""TM1 scheduling disciplines: FIFO versus order-preserving merge.

Section 3.1: "This is not to say that the first TM can do general-purpose
sorting, but it could keep a sort order while it merges flows that are
themselves sorted."  That is a k-way merge: each input flow delivers its
packets in nondecreasing key order, and the scheduler releases the
globally smallest buffered head.

:class:`KWayMergeScheduler` implements exactly that, with the streaming
caveat real hardware faces: a flow with no buffered packet *blocks* the
merge (its next key is unknown) until it either buffers a packet or is
declared finished.  :class:`FifoScheduler` is the classic-TM baseline that
releases in arrival order; :func:`order_violations` counts how far its
output deviates from sorted order.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Hashable

from ..errors import ConfigError
from ..net.packet import Packet

KeyFn = Callable[[Packet], int]
FlowFn = Callable[[Packet], Hashable]


def _default_key(packet: Packet) -> int:
    if packet.payload is not None and len(packet.payload) > 0:
        return packet.payload[0].key
    if packet.has_header("coflow"):
        return packet.header("coflow")["seq"]
    return 0


def _default_flow(packet: Packet) -> Hashable:
    if packet.has_header("coflow"):
        return packet.header("coflow")["flow_id"]
    return packet.meta.ingress_port


class FifoScheduler:
    """Classic TM behaviour: release packets in arrival order."""

    def __init__(self) -> None:
        self._queue: deque[Packet] = deque()
        self.released = 0

    def offer(self, packet: Packet) -> None:
        self._queue.append(packet)

    def drain(self) -> list[Packet]:
        """Release everything currently queued, in arrival order."""
        released = list(self._queue)
        self._queue.clear()
        self.released += len(released)
        return released

    def pending(self) -> int:
        return len(self._queue)


class KWayMergeScheduler:
    """Order-preserving merge of per-flow sorted streams.

    Flows must be registered up front (the application tells TM1 which
    flows participate, as it tells it the placement criteria).  A packet
    is releasable when its key is the minimum among all unfinished flows'
    buffered heads and every unfinished flow has a buffered head — the
    standard watermark condition for streaming merges.
    """

    def __init__(
        self,
        flows: list[Hashable],
        key_fn: KeyFn = _default_key,
        flow_fn: FlowFn = _default_flow,
    ) -> None:
        if not flows:
            raise ConfigError("merge scheduler needs at least one flow")
        if len(set(flows)) != len(flows):
            raise ConfigError("duplicate flow ids in merge scheduler")
        self.key_fn = key_fn
        self.flow_fn = flow_fn
        self._buffers: dict[Hashable, deque[Packet]] = {f: deque() for f in flows}
        self._finished: set[Hashable] = set()
        self._last_key: dict[Hashable, int | None] = {f: None for f in flows}
        self._seq = itertools.count()
        self.released = 0
        self.max_buffered = 0

    def has_flow(self, flow: Hashable) -> bool:
        """Whether ``flow`` is registered with this merge."""
        return flow in self._buffers

    def offer(self, packet: Packet) -> list[Packet]:
        """Buffer a packet; returns any packets the merge can now release."""
        flow = self.flow_fn(packet)
        if flow not in self._buffers:
            raise ConfigError(f"packet belongs to unregistered flow {flow!r}")
        if flow in self._finished:
            raise ConfigError(f"flow {flow!r} already finished")
        key = self.key_fn(packet)
        last = self._last_key[flow]
        if last is not None and key < last:
            raise ConfigError(
                f"flow {flow!r} is not sorted: key {key} after {last} "
                f"(TM1 merges sorted flows, it does not sort)"
            )
        self._last_key[flow] = key
        self._buffers[flow].append(packet)
        self._note_buffered()
        return self._release_ready()

    def finish_flow(self, flow: Hashable) -> list[Packet]:
        """Declare a flow complete; may unblock the merge."""
        if flow not in self._buffers:
            raise ConfigError(f"unknown flow {flow!r}")
        self._finished.add(flow)
        return self._release_ready()

    def _note_buffered(self) -> None:
        buffered = sum(len(q) for q in self._buffers.values())
        if buffered > self.max_buffered:
            self.max_buffered = buffered

    def _release_ready(self) -> list[Packet]:
        released: list[Packet] = []
        while True:
            heads: list[tuple[int, int, Hashable]] = []
            blocked = False
            for flow in self._buffers:
                queue = self._buffers[flow]
                if queue:
                    heads.append((self.key_fn(queue[0]), next(self._seq), flow))
                elif flow not in self._finished:
                    blocked = True
            if blocked or not heads:
                break
            _, _, flow = min(heads)
            released.append(self._buffers[flow].popleft())
        self.released += len(released)
        return released

    def pending(self) -> int:
        return sum(len(q) for q in self._buffers.values())

    @property
    def is_drained(self) -> bool:
        return self.pending() == 0 and len(self._finished) == len(self._buffers)


def order_violations(packets: list[Packet], key_fn: KeyFn = _default_key) -> int:
    """Count adjacent inversions in a released stream.

    Zero means the stream is globally sorted by key; the FIFO baseline
    over interleaved sorted flows typically shows many inversions, which
    is the gap the merging TM1 closes.
    """
    keys = [key_fn(p) for p in packets]
    return sum(1 for a, b in zip(keys, keys[1:]) if b < a)
