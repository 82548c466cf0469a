"""Seeded traffic generators for the stateful workloads.

Two shapes, mirroring the coflow workloads:

* :func:`build_single` — single-switch streams paced back to back at
  line rate across four source ports, with replies leaving on a fixed
  result port.  Each packet is built when the stream is pulled, so a
  run keeps only the packets in flight.  Key/flow draws are
  zipf-skewed (``skew`` is the zipf exponent — the campaign sweeps it),
  so access concentration is a first-class experimental axis.
* :func:`plan_stateful_workload` — the fabric variant, registered
  under ``stateful-<name>`` in :func:`repro.fabric.workloads.plan_workload`:
  client hosts stream requests toward a server host, the first-hop leaf
  claims them, and the returned workload carries an ``app_factory`` that
  instantiates this package's apps on every switch (sharing one
  replicated cache object fabric-wide).

Ground truth for scoring (which sources *are* attackers, the true heavy
keys) rides on the stream/factory objects — it is generator knowledge,
never visible to the data plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import merge
from typing import Callable, Iterator

from ..errors import ConfigError
from ..net.headers import OP_DATA, OP_GET, OP_PUT, OP_RESULT
from ..net.packet import Packet, reserve_packet_ids
from ..net.traffic import coflow_wire_bytes, make_coflow_packet
from ..sim.rng import make_rng, stable_hash64
from ..units import BITS_PER_BYTE
from .apps import (
    OP_ACK,
    OP_FIN,
    OP_SYN,
    HeavyHitterApp,
    KeyCacheApp,
    StatefulApp,
    SynFloodApp,
    TokenBucketApp,
)
from .replicated import ReplicatedObject

__all__ = [
    "FABRIC_STATEFUL_WORKLOADS",
    "STATEFUL_WORKLOADS",
    "SingleStream",
    "build_single",
    "plan_stateful_workload",
]

STATEFUL_WORKLOADS = (
    "tokenbucket",
    "synflood",
    "heavyhitter",
    "keycache",
)
FABRIC_STATEFUL_WORKLOADS = tuple(f"stateful-{w}" for w in STATEFUL_WORKLOADS)

#: Single-switch port plan: four source ports feeding one result port.
_SOURCE_PORTS = (0, 1, 2, 3)
_RESULT_PORT = 6
_STATEFUL_COFLOW = 0x5AFE

#: Fraction of sources the SYN-flood generator turns into attackers.
_ATTACK_FRACTION = 0.25
#: Heavy-hitter promotion threshold and sketch shape.
_HH_ROWS = 3
_HH_THRESHOLD = 12
_HH_TABLE_CAPACITY = 32
#: Token bucket: burst capacity (tokens) and per-flow refill as a
#: fraction of the fair-share packet rate (aggregate pps / flows), so a
#: zipf-hot flow offers several times its refill and gets limited while
#: the tail stays under budget.
_TB_CAPACITY = 16.0
_TB_REFILL_FRACTION = 0.5


@dataclass
class SingleStream:
    """One single-switch stateful run: the app, its stream, its truth.

    ``arrivals`` must be called *after* the switch is constructed — the
    generator groups multi-key packets by the app's bound placement so
    every key in a packet lands on the partition that owns its state
    (the same contract as the kv-cache app's partition-local batches).
    It draws the workload's keys and reserves its packet ids at once,
    and returns an iterator of ``(time, packet)`` that builds each
    packet when it is pulled.
    """

    workload: str
    app: StatefulApp
    truth: dict = field(default_factory=dict)
    _make: Callable[[float], Iterator[tuple[float, Packet]]] = None  # type: ignore

    def arrivals(self, port_speed_bps: float) -> Iterator[tuple[float, Packet]]:
        return self._make(port_speed_bps)


def _zipf_key(rng, skew: float, space: int) -> int:
    return (int(rng.zipf(skew)) - 1) % space


def _paced(
    count: int,
    wire_bytes: Callable[[int], int],
    build: Callable[[int], Packet],
    link_bps: float,
) -> Iterator[tuple[float, Packet]]:
    """Stream packets ``0 .. count - 1`` round-robin over the source ports.

    Each port sends its packets back to back at ``link_bps`` from time
    zero, and the ports merge by ``(time, port)``: the pacing of one
    :class:`~repro.net.traffic.DeterministicSource` per port under
    :func:`~repro.net.traffic.merge_sources`, with the same float
    accumulation.  ``wire_bytes(index)`` sizes a packet without building
    it; ``build(index)`` builds it when the stream reaches it.
    """
    ports = len(_SOURCE_PORTS)

    def port_clock(rank: int):
        time = 0.0
        for index in range(rank, count, ports):
            yield time, rank, index
            time += wire_bytes(index) * BITS_PER_BYTE / link_bps

    for time, rank, index in merge(*map(port_clock, range(ports))):
        packet = build(index)
        meta = packet.meta
        meta.ingress_port = _SOURCE_PORTS[rank]
        meta.arrival_time = time
        yield time, packet


def _aggregate_pps(link_bps: float, wire_bytes: int) -> float:
    return len(_SOURCE_PORTS) * link_bps / (wire_bytes * 8)


def build_single(
    workload: str,
    *,
    flows: int = 64,
    skew: float = 1.2,
    packets: int = 400,
    seed: int = 0,
    elements_per_packet: int = 1,
    port_speed_bps: float,
) -> SingleStream:
    """Build one single-switch stateful workload (app + paced stream)."""
    if workload not in STATEFUL_WORKLOADS:
        raise ConfigError(
            f"unknown stateful workload {workload!r}; choose from "
            f"{', '.join(STATEFUL_WORKLOADS)}"
        )
    if flows < 1:
        raise ConfigError(f"flows must be >= 1, got {flows}")
    if packets < 1:
        raise ConfigError(f"packets must be >= 1, got {packets}")
    if skew <= 1.0:
        raise ConfigError(f"zipf skew must be > 1.0, got {skew}")
    builder = {
        "tokenbucket": _single_tokenbucket,
        "synflood": _single_synflood,
        "heavyhitter": _single_heavyhitter,
        "keycache": _single_keycache,
    }[workload]
    return builder(flows, skew, packets, seed, elements_per_packet, port_speed_bps)


def _single_tokenbucket(
    flows, skew, packets, seed, elements_per_packet, port_speed_bps
) -> SingleStream:
    wire = coflow_wire_bytes(1)
    pps = _aggregate_pps(port_speed_bps, wire)
    app = TokenBucketApp(
        flows=flows,
        lanes=len(_SOURCE_PORTS),
        capacity=_TB_CAPACITY,
        refill_per_s=_TB_REFILL_FRACTION * pps / flows,
        reconcile_period_s=32.0 / pps,
        result_port=_RESULT_PORT,
    )
    rng = make_rng(stable_hash64(f"stateful-tokenbucket/{seed}") % (2**32))

    def make(link_bps: float) -> Iterator[tuple[float, Packet]]:
        drawn = [_zipf_key(rng, skew, flows) for _ in range(packets)]
        first = reserve_packet_ids(packets)

        def build(i: int) -> Packet:
            flow = drawn[i]
            return make_coflow_packet(
                _STATEFUL_COFLOW, flow_id=flow, seq=i, elements=[(flow, 1)],
                packet_id=first + i,
            )

        return _paced(packets, lambda i: wire, build, link_bps)

    return SingleStream("tokenbucket", app, {"offered": packets}, make)


def _single_synflood(
    flows, skew, packets, seed, elements_per_packet, port_speed_bps
) -> SingleStream:
    sources = flows
    rng = make_rng(stable_hash64(f"stateful-synflood/{seed}") % (2**32))
    attackers = set(
        int(i)
        for i in rng.choice(
            sources, size=max(1, int(sources * _ATTACK_FRACTION)),
            replace=False,
        )
    )
    threshold = 3
    app = SynFloodApp(
        sources=sources, threshold=threshold, result_port=_RESULT_PORT
    )
    # One (source, opcode) pair per packet, drawn a whole handshake or
    # flood burst at a time and cut back to ``packets``.
    senders: list[int] = []
    opcodes: list[int] = []
    syn_sent: dict[int, int] = {}
    cycle = (OP_SYN, OP_ACK, OP_FIN)
    while len(senders) < packets:
        source = _zipf_key(rng, skew, sources)
        if source in attackers:
            # Flood: SYNs with no completing handshake.
            burst = (OP_SYN, OP_SYN, OP_SYN)
            syn_sent[source] = syn_sent.get(source, 0) + len(burst)
        else:
            burst = cycle
        senders.extend([source] * len(burst))
        opcodes.extend(burst)
    for source, opcode in zip(senders[packets:], opcodes[packets:]):
        # Keep the SYN tally consistent with the truncated stream.
        if opcode == OP_SYN and source in attackers:
            syn_sent[source] -= 1
    # The cut-off tail drew packet ids when packets were built here, and
    # later ids (switch emissions) still count it.
    first = reserve_packet_ids(len(senders))
    del senders[packets:], opcodes[packets:]
    # Ground truth is the *detectable* attackers: those whose flood
    # actually crossed the half-open threshold inside this stream.  A
    # planted attacker the zipf draw never scheduled is indistinguishable
    # from benign and would only deflate the detection rate spuriously.
    truth = {
        "attackers": sorted(
            s for s, count in syn_sent.items() if count > threshold
        ),
        "sources": sources,
    }

    wire = coflow_wire_bytes(1)

    def build(i: int) -> Packet:
        source = senders[i]
        return make_coflow_packet(
            _STATEFUL_COFLOW, flow_id=source, seq=i, elements=[(source, 0)],
            opcode=opcodes[i], packet_id=first + i,
        )

    def make(link_bps: float) -> Iterator[tuple[float, Packet]]:
        return _paced(packets, lambda i: wire, build, link_bps)

    return SingleStream("synflood", app, truth, make)


def _single_heavyhitter(
    flows, skew, packets, seed, elements_per_packet, port_speed_bps
) -> SingleStream:
    key_space = flows
    app = HeavyHitterApp(
        rows=_HH_ROWS,
        width=max(8, key_space),
        threshold=_HH_THRESHOLD,
        table_capacity=_HH_TABLE_CAPACITY,
        elements_per_packet=elements_per_packet,
        result_port=_RESULT_PORT,
    )
    rng = make_rng(stable_hash64(f"stateful-heavyhitter/{seed}") % (2**32))
    keys = [
        _zipf_key(rng, skew, key_space)
        for _ in range(packets * elements_per_packet)
    ]
    counts: dict[int, int] = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    truth = {
        "counts": counts,
        "heavy": sorted(k for k, c in counts.items() if c >= _HH_THRESHOLD),
    }

    def make(link_bps: float) -> Iterator[tuple[float, Packet]]:
        # Partition-local batches: every key in a packet must live on the
        # placement partition that owns its sketch rows, so group the key
        # stream by the app's bound placement before packing.
        buckets: dict[int, list[int]] = {}
        batches: list[list[int]] = []
        for key in keys:
            partition = app.partition_of_key(key)
            bucket = buckets.setdefault(partition, [])
            bucket.append(key)
            if len(bucket) == elements_per_packet:
                batches.append(bucket[:])
                bucket.clear()
        for partition in sorted(buckets):
            if buckets[partition]:
                batches.append(buckets[partition])
        first = reserve_packet_ids(len(batches))

        def build(i: int) -> Packet:
            batch = batches[i]
            return make_coflow_packet(
                _STATEFUL_COFLOW,
                flow_id=batch[0],
                seq=i,
                elements=[(key, 1) for key in batch],
                packet_id=first + i,
            )

        return _paced(
            len(batches),
            lambda i: coflow_wire_bytes(len(batches[i])),
            build,
            link_bps,
        )

    return SingleStream("heavyhitter", app, truth, make)


def _single_keycache(
    flows, skew, packets, seed, elements_per_packet, port_speed_bps
) -> SingleStream:
    key_space = flows
    shared = ReplicatedObject("keycache", key_space, replicas=1, mode="lww")
    wire = coflow_wire_bytes(1)
    pps = _aggregate_pps(port_speed_bps, wire)
    app = KeyCacheApp(
        shared=shared,
        replica=0,
        merge_period_s=64.0 / pps,
        result_port=_RESULT_PORT,
    )
    rng = make_rng(stable_hash64(f"stateful-keycache/{seed}") % (2**32))

    def make(link_bps: float) -> Iterator[tuple[float, Packet]]:
        keys = [_zipf_key(rng, skew, key_space) for _ in range(packets)]
        first = reserve_packet_ids(packets)

        def build(i: int) -> Packet:
            key = keys[i]
            # One write in eight keeps the cache warm under churn.
            put = i % 8 == 0
            return make_coflow_packet(
                _STATEFUL_COFLOW,
                flow_id=key,
                seq=i,
                elements=[(key, i + 1 if put else 0)],
                opcode=OP_PUT if put else OP_GET,
                packet_id=first + i,
            )

        return _paced(packets, lambda i: wire, build, link_bps)

    return SingleStream("keycache", app, {"key_space": key_space}, make)


# --- fabric variants --------------------------------------------------------------


class StatefulAppFactory:
    """Per-switch app construction for the fabric runner.

    Callable ``factory(switch_name) -> SwitchApp``; remembers every
    instance it built (``instances``) so the stateful runner can harvest
    app counters after the run, and carries the generator's ground truth
    (``truth``).  Key-cache factories share one fabric-wide
    :class:`~repro.stateful.replicated.ReplicatedObject` across the
    switch replicas they create.
    """

    def __init__(self, build: Callable[[str], StatefulApp], truth: dict):
        self._build = build
        self.truth = truth
        self.instances: dict[str, StatefulApp] = {}

    def __call__(self, switch_name: str) -> StatefulApp:
        app = self._build(switch_name)
        self.instances[switch_name] = app
        return app


def plan_stateful_workload(
    name: str,
    topology,
    *,
    coflows: int = 2,
    vector: int = 64,
    link_bps: float,
    seed: int = 0,
    coflow_base: int = 0,
):
    """Plan one round of a ``stateful-*`` fabric workload (dispatched
    from :func:`repro.fabric.workloads.plan_workload`).

    Every host but the last streams ``vector`` request packets toward
    the last host (the server/store); the first-hop leaf's app instance
    claims and answers them.  ``expected`` stays empty — admission
    decisions (drops, cache misses) make exact terminal counts
    timing-dependent, so completion accounting is skipped and the
    stateful ledger carries the verdicts instead.
    """
    from ..fabric.workloads import FabricCoflowSpec, RoundPlan

    short = name.removeprefix("stateful-")
    if short not in STATEFUL_WORKLOADS:
        raise ConfigError(
            f"unknown stateful fabric workload {name!r}; choose from "
            f"{', '.join(FABRIC_STATEFUL_WORKLOADS)}"
        )
    hosts = topology.host_ids
    if len(hosts) < 2:
        raise ConfigError("stateful fabric workloads need >= 2 hosts")
    server = hosts[-1]
    clients = hosts[:-1]
    skew = 1.3
    key_space = max(16, len(clients) * 4)
    specs = []
    per_host: dict[int, list] = {}
    for group in range(coflows):
        coflow_id = coflow_base + group + 1
        members = tuple(
            c for i, c in enumerate(clients) if i % coflows == group
        ) or (clients[0],)
        specs.append(
            FabricCoflowSpec(coflow_id, members, vector, aggregated=False)
        )
    truth: dict = {"server": server, "clients": list(clients)}
    attackers: set[int] = set()
    if short == "synflood":
        rng = make_rng(stable_hash64(f"{name}/{seed}/attackers") % (2**32))
        attackers = set(
            int(clients[int(i)])
            for i in rng.choice(
                len(clients),
                size=max(1, int(len(clients) * _ATTACK_FRACTION)),
                replace=False,
            )
        )
        truth["attackers"] = sorted(attackers)
    counts: dict[int, int] = {}
    wire = coflow_wire_bytes(1)
    server_ip = topology.hosts[server].ip
    index = 0
    for offset, client in enumerate(clients):
        rng = make_rng(stable_hash64(f"{name}/{seed}/h{client}") % (2**32))
        coflow_id = coflow_base + (offset % coflows) + 1
        client_ip = topology.hosts[client].ip
        stream = []
        for seq in range(vector):
            opcode = OP_DATA
            if short == "tokenbucket":
                element = (client, 1)
            elif short == "synflood":
                if client in attackers:
                    opcode = OP_SYN
                else:
                    opcode = (OP_SYN, OP_ACK, OP_FIN)[seq % 3]
                element = (client, 0)
            elif short == "heavyhitter":
                key = _zipf_key(rng, skew, key_space)
                counts[key] = counts.get(key, 0) + 1
                element = (key, 1)
            else:  # keycache
                key = _zipf_key(rng, skew, key_space)
                put = seq % 8 == 0
                element = (key, seq + 1 if put else 0)
                opcode = OP_PUT if put else OP_GET
            stream.append(
                (
                    index,
                    coflow_id,
                    wire,
                    (coflow_id, client, seq, element, opcode, client_ip,
                     server_ip),
                )
            )
            index += 1
        per_host[client] = stream
    if short == "heavyhitter":
        threshold = max(2, _HH_THRESHOLD // 2)
        truth["counts"] = counts
        truth["heavy"] = sorted(
            k for k, c in counts.items() if c >= threshold
        )
        truth["threshold"] = threshold
    return RoundPlan(
        name=name,
        kind="stateful",
        coflows=specs,
        expected={},
        terminal_opcode=OP_RESULT,
        per_host=per_host,
        # One id past the packets: building this round used to build a
        # sizing sample packet too, and later packet ids (switch
        # emissions, span records) still count it.
        size=index + 1,
        make=_request_packet,
        app_factory=_fabric_factory(short, topology, clients, truth, link_bps),
    )


def _request_packet(args: tuple, packet_id: int) -> Packet:
    """One client request of a stateful fabric round, client to server."""
    coflow_id, client, seq, element, opcode, src_ip, dst_ip = args
    return make_coflow_packet(
        coflow_id, flow_id=client, seq=seq, elements=[element],
        opcode=opcode, src_ip=src_ip, dst_ip=dst_ip, packet_id=packet_id,
    )


def _fabric_factory(
    short: str, topology, clients, truth: dict, link_bps: float
) -> StatefulAppFactory:
    flows = max(clients) + 1 if clients else 1
    wire = coflow_wire_bytes(1)
    pps = len(clients) * link_bps / (wire * 8)
    if short == "tokenbucket":
        def build(switch_name: str) -> StatefulApp:
            return TokenBucketApp(
                flows=flows,
                lanes=4,
                capacity=_TB_CAPACITY,
                refill_per_s=_TB_REFILL_FRACTION * pps / flows,
                reconcile_period_s=32.0 / pps,
            )
        return StatefulAppFactory(build, truth)
    if short == "synflood":
        def build(switch_name: str) -> StatefulApp:
            return SynFloodApp(sources=flows, threshold=3)
        return StatefulAppFactory(build, truth)
    if short == "heavyhitter":
        key_space = max(16, len(clients) * 4)
        def build(switch_name: str) -> StatefulApp:
            return HeavyHitterApp(
                rows=_HH_ROWS,
                width=max(8, key_space),
                threshold=truth.get("threshold", _HH_THRESHOLD),
                table_capacity=_HH_TABLE_CAPACITY,
            )
        return StatefulAppFactory(build, truth)
    # keycache: one replica per switch over one shared lww object.
    key_space = max(16, len(clients) * 4)
    switch_names = sorted(topology.switch_names)
    shared = ReplicatedObject(
        "keycache", key_space, replicas=len(switch_names), mode="lww"
    )
    ctrl = {"next_merge_s": 64.0 / pps}
    factory_truth = dict(truth)
    factory_truth["shared"] = shared

    def build(switch_name: str) -> StatefulApp:
        return KeyCacheApp(
            shared=shared,
            replica=switch_names.index(switch_name),
            merge_period_s=64.0 / pps,
            ctrl=ctrl,
        )

    return StatefulAppFactory(build, factory_truth)
