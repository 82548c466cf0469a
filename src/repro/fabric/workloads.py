"""Fabric workloads: coflow traffic spread over a topology's hosts.

Both workloads speak the :mod:`repro.coflow` vocabulary — each worker's
stream is one :class:`~repro.coflow.model.Flow` chunked into packets the
way :meth:`Flow.packets` chunks it — addressed for the fabric:
source/dest IPv4 addresses name hosts
(:func:`~repro.fabric.topology.host_ip`), and per-switch resolvers (not
a pre-assigned egress port) do the routing.

A round is first *planned* (:func:`plan_workload`): every random draw is
made and every packet gets its id offset, wire size and place in its
host's stream, but no packet is built.  :func:`build_workload` builds
the whole round; serve mode builds each packet when its host sends it.

- ``fabric-allreduce``: per coflow, W worker hosts each stream the full
  vector toward the coflow's *placed* switch, which aggregates and
  unicasts results back to every worker (stateful; placement matters).
- ``fabric-shuffle``: mapper hosts send per-reducer flows addressed to
  the reducer hosts (stateless transit; exercises ECMP spreading).

Hosts inject back-to-back at ``load`` x the host link rate via
:class:`~repro.net.traffic.DeterministicSource`; all randomness (worker
selection) flows from the seed through :mod:`repro.sim.rng`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Callable

from ..errors import ConfigError
from ..net.headers import OP_DATA, OP_RESULT
from ..net.packet import Packet, reserve_packet_ids
from ..net.traffic import (
    DeterministicSource,
    coflow_wire_bytes,
    make_coflow_packet,
)
from ..sim.rng import make_rng, stable_hash64
from .topology import Topology, host_ip

FABRIC_WORKLOADS = ("fabric-allreduce", "fabric-shuffle")

#: Worker hosts per aggregation coflow (capped by the host count).
_WORKERS_PER_COFLOW = 4


@dataclass(frozen=True)
class FabricCoflowSpec:
    """One fabric coflow: its worker hosts, vector size and kind."""

    coflow_id: int
    worker_hosts: tuple[int, ...]
    vector_elements: int
    aggregated: bool


@dataclass
class FabricWorkload:
    """Everything the fabric runner needs to drive and verify one run."""

    name: str
    kind: str  # "allreduce" | "shuffle" | "stateful"
    coflows: list[FabricCoflowSpec]
    #: host id -> time-ordered (arrival_s, packet) at the host's NIC.
    arrivals: dict[int, list[tuple[float, Packet]]]
    #: (coflow_id, host_id) -> expected terminal packet count at the host.
    expected: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Opcode of the terminal packets ``expected`` counts.
    terminal_opcode: int = OP_RESULT
    #: Optional per-switch app constructor (``factory(switch_name) ->
    #: SwitchApp``) for workloads that host their own stateful apps —
    #: the ``stateful-*`` family — instead of coflow aggregation.  When
    #: set, :func:`repro.fabric.runner.build_fabric` installs the
    #: factory's app on every switch.
    app_factory: object = None

    @property
    def aggregated(self) -> bool:
        return self.kind == "allreduce"

    @property
    def injected_packets(self) -> int:
        return sum(len(stream) for stream in self.arrivals.values())


#: One planned, not yet built packet: ``(index, coflow_id, wire_bytes,
#: args)``.  ``index`` is its place in the round's build order (its
#: packet-id offset within the round); ``args`` is what the round's
#: ``make`` turns into the packet.
PacketRecipe = tuple[int, int, int, tuple]


@dataclass
class RoundPlan:
    """One round of a workload, planned but not built.

    Planning draws everything random (worker selection, stateful keys)
    and fixes every packet's id offset, wire size and host stream
    position, but builds no packet: :meth:`build` turns one recipe into
    its packet on demand, so a consumer that paces packets can build
    only the ones it sends.
    """

    name: str
    kind: str
    coflows: list[FabricCoflowSpec]
    expected: dict[tuple[int, int], int]
    terminal_opcode: int
    #: host id -> that host's recipes in NIC order (hosts with packets
    #: only, ascending).
    per_host: dict[int, list[PacketRecipe]]
    #: Packet ids the round accounts for (``index`` values run 0..size-1;
    #: a stateful round also reserves the id of its sizing sample).
    size: int
    make: Callable[[tuple, int], Packet]
    app_factory: object = None

    @property
    def aggregated(self) -> bool:
        return self.kind == "allreduce"

    def build(self, recipe: PacketRecipe, packet_id: int) -> Packet:
        return self.make(recipe[3], packet_id)


def _range_packet(args: tuple, packet_id: int) -> Packet:
    """A coflow data packet carrying keys ``start..start+count-1`` with
    value ``key + 1`` (what :meth:`Flow.packets` builds for the fabric
    workloads), addressed host to host."""
    coflow_id, flow_id, seq, start, count, worker_id, src_ip, dst_ip = args
    return make_coflow_packet(
        coflow_id,
        flow_id,
        seq,
        [(key, key + 1) for key in range(start, start + count)],
        opcode=OP_DATA,
        worker_id=worker_id,
        src_ip=src_ip,
        dst_ip=dst_ip,
        packet_id=packet_id,
    )


def _flow_recipes(
    spec: FabricCoflowSpec,
    worker_index: int,
    host: int,
    elements_per_packet: int,
    dst_host: int | None,
    first_index: int,
) -> list[PacketRecipe]:
    """Plan one worker's flow: the vector in ``elements_per_packet``
    chunks (short tail last), ids from ``first_index`` on."""
    flow_id = spec.coflow_id * 1024 + worker_index
    src_ip = host_ip(host)
    dst_ip = 0 if dst_host is None else host_ip(dst_host)
    recipes: list[PacketRecipe] = []
    vector = spec.vector_elements
    for seq, start in enumerate(range(0, vector, elements_per_packet)):
        count = min(elements_per_packet, vector - start)
        recipes.append(
            (
                first_index + seq,
                spec.coflow_id,
                coflow_wire_bytes(count),
                (
                    spec.coflow_id, flow_id, seq, start, count,
                    worker_index, src_ip, dst_ip,
                ),
            )
        )
    return recipes


def _timed(
    per_host_packets: dict[int, list[Packet]],
    topology: Topology,
    link_bps: float,
    load: float,
) -> dict[int, list[tuple[float, Packet]]]:
    if not 0.0 < load <= 1.0:
        raise ConfigError(f"load must be in (0, 1], got {load}")
    arrivals: dict[int, list[tuple[float, Packet]]] = {}
    for host in sorted(per_host_packets):
        packets = per_host_packets[host]
        source = DeterministicSource(
            port=topology.hosts[host].port,
            link_bps=link_bps * load,
            packets=packets,
        )
        arrivals[host] = list(source.packets())
    return arrivals


def _interleave(streams: list[list]) -> list:
    """Round-robin merge so concurrent coflows share the host NIC."""
    out: list = []
    cursor = 0
    while any(cursor < len(s) for s in streams):
        for stream in streams:
            if cursor < len(stream):
                out.append(stream[cursor])
        cursor += 1
    return out


def _pick_workers(
    host_ids: list[int], count: int, name: str, coflow_id: int, seed: int
) -> tuple[int, ...]:
    rng = make_rng(stable_hash64(f"{name}/{seed}/{coflow_id}") % (2**32))
    chosen = rng.choice(len(host_ids), size=count, replace=False)
    return tuple(sorted(host_ids[int(i)] for i in chosen))


def plan_workload(
    name: str,
    topology: Topology,
    *,
    coflows: int = 2,
    vector: int = 64,
    elements_per_packet: int = 1,
    link_bps: float,
    seed: int = 0,
    coflow_base: int = 0,
) -> RoundPlan:
    """Plan one round of a registered fabric workload (no packets built).

    ``coflow_base`` offsets the generated coflow ids (ids run
    ``base+1 .. base+coflows``): serve mode plans the same workload
    round after round and needs globally-unique ids, while worker
    selection stays a pure function of ``(name, seed, coflow_id)``.
    """
    if coflows < 1:
        raise ConfigError(f"need at least one coflow, got {coflows}")
    if vector < 1:
        raise ConfigError(f"vector must be non-empty, got {vector}")
    if coflow_base < 0:
        raise ConfigError(f"coflow_base must be >= 0, got {coflow_base}")
    if name == "fabric-allreduce":
        return _allreduce(
            topology, coflows, vector, elements_per_packet, seed, coflow_base
        )
    if name == "fabric-shuffle":
        return _shuffle(
            topology, coflows, vector, elements_per_packet, coflow_base
        )
    if name.startswith("stateful-"):
        from ..stateful.workloads import plan_stateful_workload

        return plan_stateful_workload(
            name,
            topology,
            coflows=coflows,
            vector=vector,
            link_bps=link_bps,
            seed=seed,
            coflow_base=coflow_base,
        )
    from ..stateful.workloads import FABRIC_STATEFUL_WORKLOADS

    raise ConfigError(
        f"unknown fabric workload {name!r}; choose from "
        f"{', '.join(FABRIC_WORKLOADS + FABRIC_STATEFUL_WORKLOADS)}"
    )


def build_workload(
    name: str,
    topology: Topology,
    *,
    coflows: int = 2,
    vector: int = 64,
    elements_per_packet: int = 1,
    link_bps: float,
    load: float = 1.0,
    seed: int = 0,
    coflow_base: int = 0,
) -> FabricWorkload:
    """Build one round of a registered fabric workload over
    ``topology``'s hosts, every host streaming back-to-back at ``load``
    x the link rate (see :func:`plan_workload` for the round itself)."""
    plan = plan_workload(
        name,
        topology,
        coflows=coflows,
        vector=vector,
        elements_per_packet=elements_per_packet,
        link_bps=link_bps,
        seed=seed,
        coflow_base=coflow_base,
    )
    first_id = reserve_packet_ids(plan.size)
    per_host = {
        host: [plan.build(recipe, first_id + recipe[0]) for recipe in recipes]
        for host, recipes in plan.per_host.items()
    }
    return FabricWorkload(
        name=plan.name,
        kind=plan.kind,
        coflows=plan.coflows,
        arrivals=_timed(per_host, topology, link_bps, load),
        expected=plan.expected,
        terminal_opcode=plan.terminal_opcode,
        app_factory=plan.app_factory,
    )


def _allreduce(
    topology: Topology,
    coflows: int,
    vector: int,
    elements_per_packet: int,
    seed: int,
    coflow_base: int,
) -> RoundPlan:
    hosts = topology.host_ids
    workers_per_coflow = min(_WORKERS_PER_COFLOW, len(hosts))
    if workers_per_coflow < 2:
        raise ConfigError("allreduce needs a topology with >= 2 hosts")
    specs: list[FabricCoflowSpec] = []
    per_host: dict[int, list[list[PacketRecipe]]] = {h: [] for h in hosts}
    expected: dict[tuple[int, int], int] = {}
    result_batches = ceil(vector / elements_per_packet)
    index = 0
    for offset in range(coflows):
        coflow_id = coflow_base + offset + 1
        workers = _pick_workers(
            hosts, workers_per_coflow, "fabric-allreduce", coflow_id, seed
        )
        spec = FabricCoflowSpec(coflow_id, workers, vector, aggregated=True)
        specs.append(spec)
        for worker_index, host in enumerate(workers):
            flow = _flow_recipes(
                spec, worker_index, host, elements_per_packet, None, index
            )
            index += len(flow)
            per_host[host].append(flow)
            expected[(coflow_id, host)] = result_batches
    return RoundPlan(
        name="fabric-allreduce",
        kind="allreduce",
        coflows=specs,
        expected=expected,
        terminal_opcode=OP_RESULT,
        per_host={
            host: _interleave(flows)
            for host, flows in per_host.items()
            if flows
        },
        size=index,
        make=_range_packet,
    )


def _shuffle(
    topology: Topology,
    coflows: int,
    vector: int,
    elements_per_packet: int,
    coflow_base: int,
) -> RoundPlan:
    hosts = topology.host_ids
    if len(hosts) < 2:
        raise ConfigError("shuffle needs a topology with >= 2 hosts")
    mappers = hosts[: len(hosts) // 2]
    reducers = hosts[len(hosts) // 2:]
    packets_per_flow = ceil(vector / elements_per_packet)
    specs: list[FabricCoflowSpec] = []
    per_host: dict[int, list[list[PacketRecipe]]] = {h: [] for h in hosts}
    expected: dict[tuple[int, int], int] = {}
    index = 0
    for offset in range(coflows):
        coflow_id = coflow_base + offset + 1
        spec = FabricCoflowSpec(
            coflow_id, tuple(mappers), vector, aggregated=False
        )
        specs.append(spec)
        for m_index, mapper in enumerate(mappers):
            for r_index, reducer in enumerate(reducers):
                worker_index = m_index * len(reducers) + r_index
                flow = _flow_recipes(
                    spec, worker_index, mapper, elements_per_packet,
                    reducer, index,
                )
                index += len(flow)
                per_host[mapper].append(flow)
        for reducer in reducers:
            expected[(coflow_id, reducer)] = len(mappers) * packets_per_flow
    return RoundPlan(
        name="fabric-shuffle",
        kind="shuffle",
        coflows=specs,
        expected=expected,
        terminal_opcode=OP_DATA,
        per_host={
            host: _interleave(flows)
            for host, flows in per_host.items()
            if flows
        },
        size=index,
        make=_range_packet,
    )
