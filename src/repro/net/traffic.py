"""Traffic sources: turn flow descriptions into timed packet streams.

Sources generate ``(arrival_time, Packet)`` pairs for a port.  Two arrival
processes are provided: deterministic (back-to-back at a configured rate,
the worst case line-rate pattern the paper's frequency math assumes) and
Poisson (for queueing behaviour in the traffic managers).
"""

from __future__ import annotations

from itertools import starmap
from typing import Iterator

import numpy as np

from ..errors import ConfigError, SimulationError
from ..sim.event import ARRIVAL_PRIORITY
from ..units import (
    BITS_PER_BYTE,
    ETHERNET_FCS_BYTES,
    ETHERNET_MIN_FRAME_BYTES,
    ETHERNET_OVERHEAD_BYTES,
)
from .headers import COFLOW_HEADER, Header, standard_stack
from .packet import Element, ElementArray, Packet

_TEMPLATE_HEADERS: list | None = None

#: Field maxima of the coflow header, by width: 32-bit ids and sequence
#: numbers, 8-bit opcode/count/width, 16-bit worker and round.
_U32 = COFLOW_HEADER.field("seq").max_value
_U16 = COFLOW_HEADER.field("round").max_value
_U8 = COFLOW_HEADER.field("opcode").max_value


def make_coflow_packet(
    coflow_id: int,
    flow_id: int,
    seq: int,
    elements: list[tuple[int, int]],
    element_width_bytes: int = 8,
    opcode: int = 0,
    worker_id: int = 0,
    round_: int = 0,
    src_ip: int = 0,
    dst_ip: int = 0,
    packet_id: int | None = None,
) -> Packet:
    """Build a fully-formed coflow packet (Eth/IP/UDP/coflow + array).

    Workload generators call this once per packet, so the fixed parts of
    the stack (Ethernet/IPv4/UDP with their next-protocol wiring) are
    copy-on-write copies of a shared template: Ethernet and UDP share the
    template's values, and IPv4 takes a private dict only when the
    addresses are written.  The coflow header is built from its field
    values after one chained range check, and an out-of-range value
    fails with the same ConfigError ``instantiate`` raises.  Every such
    packet with the same element count and width has the same sizes, so
    they are computed once per shape.  ``packet_id`` stamps an id from a reserved block (see
    :func:`~repro.net.packet.reserve_packet_ids`) instead of drawing the
    next global one.
    """
    eth, ip, udp = [h.copy() for h in _template_headers()]
    if src_ip or dst_ip:
        ip["src_ip"] = src_ip
        ip["dst_ip"] = dst_ip
    count = len(elements)
    if (
        0 <= coflow_id <= _U32
        and 0 <= flow_id <= _U32
        and 0 <= seq <= _U32
        and 0 <= opcode <= _U8
        and 0 <= count <= _U8
        and 0 <= element_width_bytes <= _U8
        and 0 <= worker_id <= _U16
        and 0 <= round_ <= _U16
    ):
        coflow = Header.__new__(Header)
        coflow.type = COFLOW_HEADER
        coflow._values = {
            "coflow_id": coflow_id,
            "flow_id": flow_id,
            "seq": seq,
            "opcode": opcode,
            "element_count": count,
            "element_width_bytes": element_width_bytes,
            "worker_id": worker_id,
            "round": round_,
        }
        coflow._shared = False
    else:
        # Out of range: ``pack`` raises the same ConfigError as
        # ``instantiate`` would.
        coflow = COFLOW_HEADER.pack(
            coflow_id,
            flow_id,
            seq,
            opcode,
            count,
            element_width_bytes,
            worker_id,
            round_,
        )
    if element_width_bytes <= 0:
        raise ConfigError(
            f"element width must be positive, got {element_width_bytes}"
        )
    payload = ElementArray.adopt(
        list(starmap(Element, elements)), element_width_bytes
    )
    packet = Packet([eth, ip, udp, coflow], payload, packet_id=packet_id)
    packet._sizes = _coflow_sizes(count, element_width_bytes)
    return packet


def _template_headers() -> list:
    """The shared Eth/IPv4/UDP template stack (built once)."""
    global _TEMPLATE_HEADERS
    template = _TEMPLATE_HEADERS
    if template is None:
        template = _TEMPLATE_HEADERS = standard_stack()
    return template


_SIZES: dict[tuple[int, int], tuple[int, int, int, int]] = {}


def _coflow_sizes(
    element_count: int, element_width_bytes: int
) -> tuple[int, int, int, int]:
    """The ``Packet`` size tuple (header, payload, frame and wire bytes)
    every :func:`make_coflow_packet` packet of this shape shares."""
    key = (element_count, element_width_bytes)
    sizes = _SIZES.get(key)
    if sizes is None:
        header_bytes = COFLOW_HEADER.width_bytes + sum(
            h.type.width_bytes for h in _template_headers()
        )
        payload_bytes = element_count * element_width_bytes
        frame = max(
            header_bytes + payload_bytes + ETHERNET_FCS_BYTES,
            ETHERNET_MIN_FRAME_BYTES,
        )
        sizes = _SIZES[key] = (
            header_bytes,
            payload_bytes,
            frame,
            frame + ETHERNET_OVERHEAD_BYTES,
        )
    return sizes


def coflow_wire_bytes(element_count: int, element_width_bytes: int = 8) -> int:
    """Wire bytes of a :func:`make_coflow_packet` packet, without one.

    Generators that pace packets before (or instead of) building them
    use this; it equals ``packet.wire_bytes`` for every such packet.
    """
    return _coflow_sizes(element_count, element_width_bytes)[3]


class TrafficSource:
    """Base class: an iterator of timed packets bound to an ingress port."""

    def __init__(self, port: int, start_time: float = 0.0) -> None:
        if port < 0:
            raise ConfigError(f"port must be non-negative, got {port}")
        self.port = port
        self.start_time = start_time

    def packets(self) -> Iterator[tuple[float, Packet]]:
        """Yield (arrival_time_seconds, packet) in nondecreasing time order."""
        raise NotImplementedError


class DeterministicSource(TrafficSource):
    """Back-to-back packets at a fixed link rate.

    Each packet's start time follows the previous packet's wire time
    exactly, i.e. the link runs at 100% utilization — the case that pins a
    pipeline at its peak packet rate.
    """

    def __init__(
        self,
        port: int,
        link_bps: float,
        packets: list[Packet],
        start_time: float = 0.0,
    ) -> None:
        super().__init__(port, start_time)
        if link_bps <= 0:
            raise ConfigError(f"link speed must be positive, got {link_bps}")
        self.link_bps = link_bps
        self._packets = packets

    def packets(self) -> Iterator[tuple[float, Packet]]:
        time = self.start_time
        for packet in self._packets:
            packet.meta.ingress_port = self.port
            packet.meta.arrival_time = time
            yield time, packet
            time += packet.wire_bytes * BITS_PER_BYTE / self.link_bps


class PoissonSource(TrafficSource):
    """Packets with exponential inter-arrivals at a target load.

    ``load`` is the fraction of ``link_bps`` consumed on average; the
    source thins arrivals so the long-run offered rate matches.
    """

    def __init__(
        self,
        port: int,
        link_bps: float,
        packets: list[Packet],
        load: float,
        rng: np.random.Generator,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(port, start_time)
        if link_bps <= 0:
            raise ConfigError(f"link speed must be positive, got {link_bps}")
        if not 0.0 < load <= 1.0:
            raise ConfigError(f"load must be in (0, 1], got {load}")
        self.link_bps = link_bps
        self.load = load
        self._packets = packets
        self._rng = rng

    def packets(self) -> Iterator[tuple[float, Packet]]:
        if not self._packets:
            return
        mean_wire_bits = (
            sum(p.wire_bytes for p in self._packets)
            * BITS_PER_BYTE
            / len(self._packets)
        )
        rate_pps = self.link_bps * self.load / mean_wire_bits
        time = self.start_time
        for packet in self._packets:
            time += float(self._rng.exponential(1.0 / rate_pps))
            packet.meta.ingress_port = self.port
            packet.meta.arrival_time = time
            yield time, packet


def inject_bursts(sim, timed_packets, arrive) -> None:
    """Stream a time-ordered ``(time, packet)`` iterable into ``sim``.

    The standalone switch run loop.  One kernel event at
    :data:`~repro.sim.event.ARRIVAL_PRIORITY` admits the next
    same-timestamp burst, as ``arrive(burst, time)`` with the packets in
    stream order, then re-arms at the arrival after it.  The stream is
    pulled only as far as the run has reached: a packet is taken off it
    during the event of the burst before its own, never earlier.  A run
    bounded by ``until`` leaves the arrivals after the bound unpulled.

    The reserved priority runs each burst before every other event at
    its timestamp, which is the order one default-priority event per
    burst, all queued before the run, would dispatch in.  That holds
    only if no other event is pending when the stream arms, so a
    non-empty queue raises :class:`SimulationError` rather than
    reordering the run (docs/KERNEL.md).
    """
    if sim.queue:
        raise SimulationError(
            f"cannot stream arrivals into a simulator with "
            f"{len(sim.queue)} pending events: arrivals must run first "
            f"at their timestamp"
        )
    stream = iter(timed_packets)
    head = next(stream, None)
    if head is None:
        return
    at = sim.at

    def fire() -> None:
        nonlocal head
        time, packet = head
        burst = [packet]
        head = None
        for entry in stream:
            if entry[0] != time:
                head = entry
                break
            burst.append(entry[1])
        arrive(burst, time)
        if head is not None:
            at(head[0], fire, ARRIVAL_PRIORITY)

    at(head[0], fire, ARRIVAL_PRIORITY)


def merge_sources(sources: list[TrafficSource]) -> Iterator[tuple[float, Packet]]:
    """Merge several sources into one globally time-ordered stream.

    Uses a k-way merge over the per-source iterators, which are each
    time-ordered by construction.
    """
    import heapq

    streams = []
    for index, source in enumerate(sources):
        iterator = source.packets()
        first = next(iterator, None)
        if first is not None:
            time, packet = first
            streams.append((time, index, packet, iterator))
    heapq.heapify(streams)
    while streams:
        time, index, packet, iterator = heapq.heappop(streams)
        yield time, packet
        nxt = next(iterator, None)
        if nxt is not None:
            next_time, next_packet = nxt
            heapq.heappush(streams, (next_time, index, next_packet, iterator))
