"""Runtime fabric components: links and host endpoints.

A :class:`Link` is one *directed* wire.  Serialization delay is already
paid at the sender's :class:`~repro.arch.port.TxPort` (switch port speed
is the link bandwidth), so the link itself adds only propagation
latency.  It is installed as the sending switch's ``port_sinks`` entry:
the switch counts the packet as delivered, then the link carries it to
the peer — another switch's ingress (:meth:`inject` on the shared
kernel) or a host NIC.

A :class:`HostEndpoint` is the terminal NIC of one server.  Its
:meth:`~HostEndpoint.deliver` records ``(arrival_s, packet)`` pairs,
from which the batch fabric runner derives coflow completion times and
verifies aggregation results; serve mode accounts each delivery as it
happens and calls :meth:`~HostEndpoint.tally`, which only counts.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError
from ..net.headers import OP_DATA, OP_RESULT
from ..net.packet import Packet

Deliver = Callable[[Packet, float], None]


class Link:
    """One directed wire: counts traffic, delays by ``latency_s``, delivers."""

    def __init__(self, name: str, latency_s: float, deliver: Deliver) -> None:
        if latency_s < 0:
            raise ConfigError(
                f"link {name!r} latency must be >= 0, got {latency_s}"
            )
        self.name = name
        self.latency_s = latency_s
        self.deliver = deliver
        self.packets = 0
        self.wire_bytes = 0
        self.last_arrival_s = 0.0
        self.spans = None
        """Optional :class:`~repro.telemetry.spans.SpanRecorder` shared
        with the fabric's switches; sampled packets get a ``link`` hop
        (wire flight time) per traversal."""

    def __call__(self, packet: Packet, departure_s: float) -> None:
        """Port-sink hook: the sender finished serializing at ``departure_s``."""
        self.packets += 1
        self.wire_bytes += packet.wire_bytes
        arrival = departure_s + self.latency_s
        if arrival > self.last_arrival_s:
            self.last_arrival_s = arrival
        spans = self.spans
        if spans is not None and packet.meta.span is not None:
            spans.record(
                packet.meta.span, packet.packet_id, self.name,
                "link", departure_s, arrival,
            )
        self.deliver(packet, arrival)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} packets={self.packets}>"


def switch_handoff(switch, ingress_port: int) -> Deliver:
    """Deliver function that re-injects into ``switch`` on ``ingress_port``.

    Per-hop metadata (the previous switch's egress decisions and arrival
    stamp) is reset so each switch processes the packet as a fresh
    arrival; end-to-end identity (headers, payload, packet id), the
    cumulative recirculation count, and the span id (``meta.span`` —
    sampling is decided once at injection, docs/SPANS.md) survive.
    """

    def deliver(packet: Packet, arrival_s: float) -> None:
        meta = packet.meta
        meta.ingress_port = ingress_port
        meta.egress_port = None
        meta.egress_pipeline = None
        meta.arrival_time = arrival_s
        switch.inject(packet, arrival_s)

    return deliver


class HostEndpoint:
    """A server NIC: terminal sink for packets addressed to the host."""

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self.received: list[tuple[float, Packet]] = []
        self.delivered = 0

    @property
    def name(self) -> str:
        return f"h{self.host_id}"

    def deliver(self, packet: Packet, arrival_s: float) -> None:
        self.delivered += 1
        self.received.append((arrival_s, packet))

    def tally(self, packet: Packet, arrival_s: float) -> None:
        """Count a delivery without keeping the packet."""
        self.delivered += 1

    # --- queries ------------------------------------------------------------------

    def _coflow_packets(
        self, coflow_id: int, opcode: int
    ) -> list[tuple[float, Packet]]:
        out = []
        for arrival, packet in self.received:
            if not packet.has_header("coflow"):
                continue
            header = packet.header("coflow")
            if header["coflow_id"] == coflow_id and header["opcode"] == opcode:
                out.append((arrival, packet))
        return out

    def results(self, coflow_id: int) -> list[tuple[float, Packet]]:
        """OP_RESULT packets of one coflow, in arrival order."""
        return self._coflow_packets(coflow_id, OP_RESULT)

    def data(self, coflow_id: int) -> list[tuple[float, Packet]]:
        """OP_DATA packets of one coflow, in arrival order (shuffle sink)."""
        return self._coflow_packets(coflow_id, OP_DATA)

    def completion_time(
        self, coflow_id: int, opcode: int, expected: int
    ) -> float:
        """Arrival time of the ``expected``-th packet of the coflow.

        Raises when fewer arrived — an undelivered coflow means a
        routing or placement bug, never a silent partial result.
        """
        arrivals = self._coflow_packets(coflow_id, opcode)
        if len(arrivals) < expected:
            raise ConfigError(
                f"host h{self.host_id} received {len(arrivals)} packets of "
                f"coflow {coflow_id} (opcode {opcode}) but expected "
                f"{expected}"
            )
        return arrivals[expected - 1][0]
