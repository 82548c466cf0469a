"""Forwarding decisions returned by application hooks."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import ConfigError
from ..net.packet import Packet


class Verdict(Enum):
    """What should happen to the packet after a hook runs."""

    FORWARD = "forward"
    """Send to the packet's egress port(s); may also carry emissions."""

    DROP = "drop"
    """Discard (policy or error)."""

    CONSUME = "consume"
    """Absorb into switch state, emitting nothing now (e.g. a partial
    aggregation: the packet's job is done once its values are folded in)."""

    RECIRCULATE = "recirculate"
    """Send back through the ingress pipeline for another pass (RMT's
    escape hatch for cross-pipeline data movement)."""


@dataclass(slots=True)
class Decision:
    """A verdict plus any packets the hook wants to emit.

    ``emissions`` are switch-originated packets (aggregation results,
    multicast copies); each must name a destination — ``meta.egress_port``
    or ``meta.egress_ports`` set, or a nonzero IPv4 ``dst_ip`` for a
    fabric to resolve into a next-hop port.  Emissions are legal with any
    verdict — a CONSUME that completes an aggregation typically consumes
    the trigger packet *and* emits the result.
    """

    verdict: Verdict
    emissions: list[Packet] = field(default_factory=list)
    drop_reason: str | None = None

    @classmethod
    def forward(cls, *emissions: Packet) -> "Decision":
        return cls(Verdict.FORWARD, list(emissions))

    @classmethod
    def drop(cls, reason: str = "app_drop") -> "Decision":
        return cls(Verdict.DROP, drop_reason=reason)

    @classmethod
    def consume(cls, *emissions: Packet) -> "Decision":
        return cls(Verdict.CONSUME, list(emissions))

    @classmethod
    def recirculate(cls) -> "Decision":
        return cls(Verdict.RECIRCULATE)

    def validate(self) -> None:
        """Check every emission names a destination (port or dst_ip)."""
        for packet in self.emissions:
            if packet.meta.egress_port is not None or packet.meta.egress_ports:
                continue
            ipv4 = packet._header_index().get("ipv4")
            if ipv4 is not None and ipv4._values["dst_ip"] != 0:
                # Fabric-addressed: the switch's route resolver maps the
                # destination IP to a next-hop port at TM admission.
                continue
            raise ConfigError(
                "emitted packet has no egress port assigned"
            )
