"""Equal-cost path selection: ECMP and flowlet load balancing.

Both selectors are deterministic functions of the packet and the
selector's own state, seeded per switch (the salt) so different switches
hash independently — the standard defense against ECMP polarization,
and a reproducibility requirement: two runs of the same seeded workload
pick identical paths.

- :class:`EcmpSelector` hashes the flow key once; a flow sticks to one
  path forever (no reordering, but long flows can collide).
- :class:`FlowletSelector` re-hashes when the gap since the flow's last
  packet exceeds ``gap_s`` (Kandula et al.'s flowlet argument: a gap
  longer than the path-delay spread lets the flow switch paths without
  reordering).  Within a flowlet the choice is sticky.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..net.packet import Packet
from ..sim.rng import stable_hash64

FlowKey = tuple[int, int, int, int]


def flow_key(packet: Packet) -> FlowKey:
    """The 4-field key ECMP hashes: coflow, flow, src, dst."""
    headers = packet._header_index()
    coflow_id = flow_id = 0
    coflow = headers.get("coflow")
    if coflow is not None:
        coflow_id = coflow._values["coflow_id"]
        flow_id = coflow._values["flow_id"]
    src_ip = dst_ip = 0
    ip = headers.get("ipv4")
    if ip is not None:
        src_ip = ip._values["src_ip"]
        dst_ip = ip._values["dst_ip"]
    return (coflow_id, flow_id, src_ip, dst_ip)


class EcmpSelector:
    """Static per-flow hashing over the candidate port set."""

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt

    def choose(
        self, packet: Packet, candidates: tuple[int, ...], now_s: float
    ) -> int:
        if not candidates:
            raise ConfigError("ECMP selection over an empty candidate set")
        if len(candidates) == 1:
            return candidates[0]
        key = flow_key(packet)
        index = stable_hash64(f"{self.salt}:{key}") % len(candidates)
        return candidates[index]


class FlowletSelector:
    """Flowlet switching: re-hash after an idle gap, sticky within one.

    ``history`` records every (seq, port) pick per flow so tests can
    assert the zero-intra-flowlet-reordering property directly.
    """

    def __init__(self, gap_s: float, salt: int = 0) -> None:
        if gap_s <= 0:
            raise ConfigError(f"flowlet gap must be positive, got {gap_s}")
        self.gap_s = gap_s
        self.salt = salt
        self.flowlets_started = 0
        self._state: dict[FlowKey, tuple[float, int, int]] = {}
        self.history: dict[FlowKey, list[tuple[int, int]]] = {}

    def choose(
        self, packet: Packet, candidates: tuple[int, ...], now_s: float
    ) -> int:
        if not candidates:
            raise ConfigError("flowlet selection over an empty candidate set")
        key = flow_key(packet)
        state = self._state.get(key)
        if state is None or now_s - state[0] > self.gap_s:
            flowlet = 0 if state is None else state[1] + 1
            index = stable_hash64(
                f"{self.salt}:{key}:{flowlet}"
            ) % len(candidates)
            port = candidates[index]
            self.flowlets_started += 1
        else:
            flowlet, port = state[1], state[2]
        self._state[key] = (now_s, flowlet, port)
        if packet.has_header("coflow"):
            self.history.setdefault(key, []).append(
                (packet.header("coflow")["seq"], port)
            )
        return port


def make_selector(routing: str, switch_name: str, flowlet_gap_s: float):
    """Per-switch selector instance; the salt decorrelates switches."""
    salt = stable_hash64(f"fabric-selector/{switch_name}")
    if routing == "ecmp":
        return EcmpSelector(salt=salt)
    if routing == "flowlet":
        return FlowletSelector(flowlet_gap_s, salt=salt)
    raise ConfigError(
        f"unknown routing mode {routing!r}; choose from ecmp, flowlet"
    )
