"""The fabric aggregation app: per-switch coflow state plus transit.

Modeled on :class:`repro.apps.ParameterServerApp`, with two fabric
twists:

- A hosting switch also *forwards* traffic of coflows placed elsewhere,
  so :meth:`claims` restricts the stateful path to OP_DATA packets of
  the coflows this instance hosts; everything else takes the plain
  forwarding path (RMT's pinning/recirculation machinery consults it).
- Results are **unicast**, one packet per worker host addressed by
  ``dst_ip``, because multicast egress-port sets are meaningless across
  a fabric — the per-switch resolvers route each copy hop by hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.app import PipelineContext, SwitchApp
from ..arch.decision import Decision
from ..coflow.placement import HashPlacement
from ..errors import ConfigError
from ..net.headers import OP_DATA, OP_RESULT
from ..net.packet import Packet
from ..net.phv import PHV
from ..net.traffic import make_coflow_packet
from .topology import host_ip


@dataclass(frozen=True)
class HostedCoflow:
    """One coflow whose aggregation state lives on this switch."""

    coflow_id: int
    worker_hosts: tuple[int, ...]
    vector_elements: int

    def __post_init__(self) -> None:
        if len(self.worker_hosts) < 2:
            raise ConfigError(
                f"coflow {self.coflow_id}: aggregation needs >= 2 workers"
            )
        if self.vector_elements < 1:
            raise ConfigError(
                f"coflow {self.coflow_id}: vector must be non-empty"
            )


class FabricAggregateApp(SwitchApp):
    """Aggregates the hosted coflows' vectors; forwards everything else."""

    def __init__(
        self, hosted: list[HostedCoflow], elements_per_packet: int = 1
    ) -> None:
        super().__init__("fabricagg", elements_per_packet)
        if not hosted:
            raise ConfigError("fabric aggregate app hosts no coflows")
        self.hosted = {spec.coflow_id: spec for spec in hosted}
        if len(self.hosted) != len(hosted):
            raise ConfigError("duplicate hosted coflow ids")
        # Summed (key, total) pairs awaiting a result packet, per slot.
        self._pending: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._completed: dict[tuple[int, int], int] = {}
        self._expected: dict[tuple[int, int], int] = {}
        #: (coflow, partition) -> the context holding its registers.
        self._state_ctx: dict[tuple[int, int], PipelineContext] = {}
        self.results_emitted = 0

    # --- placement ----------------------------------------------------------------

    def uses_central_state(self) -> bool:
        return True

    def claims(self, packet: Packet) -> bool:
        return self._claimed_coflow(packet) is not None

    def _claimed_coflow(self, packet: Packet) -> int | None:
        """The hosted coflow a data packet belongs to, or None."""
        coflow = packet._header_index().get("coflow")
        if coflow is None:
            return None
        values = coflow._values
        coflow_id = values["coflow_id"]
        if values["opcode"] == OP_DATA and coflow_id in self.hosted:
            return coflow_id
        return None

    def bind_placement(self, partitions: int) -> None:
        """Chunk-granularity hash placement, per hosted coflow.

        Same contract as the single-switch parameter server: a packet's
        whole element chunk lives on the partition of its first key, so
        contributions to a slot always meet on one partition.
        """
        self.placement_policy = HashPlacement(partitions)
        self._pending = {}
        self._completed = {}
        self._expected = {}
        for spec in self.hosted.values():
            self._bind(spec)

    def host(self, spec: HostedCoflow) -> None:
        """Start hosting one more coflow (serve mode places coflows as
        their first packets leave the hosts); a no-op if already hosted."""
        if spec.coflow_id in self.hosted:
            return
        self.hosted[spec.coflow_id] = spec
        if self.placement_policy is not None:
            self._bind(spec)

    def _bind(self, spec: HostedCoflow) -> None:
        """Per-partition accumulators and expectations for one coflow."""
        coflow_id = spec.coflow_id
        for partition in range(self.placement_policy.partitions):
            self._pending[(coflow_id, partition)] = []
            self._completed[(coflow_id, partition)] = 0
            self._expected[(coflow_id, partition)] = 0
        step = self.elements_per_packet
        for chunk_start in range(0, spec.vector_elements, step):
            chunk_size = min(step, spec.vector_elements - chunk_start)
            partition = self.placement_policy.place(chunk_start)
            self._expected[(coflow_id, partition)] += chunk_size

    def placement_key(self, packet: Packet) -> int:
        payload = packet.payload
        if payload is not None and payload.elements:
            return payload.elements[0].key
        coflow = packet._header_index().get("coflow")
        return 0 if coflow is None else coflow._values["coflow_id"]

    # --- hooks --------------------------------------------------------------------

    def central(self, ctx: PipelineContext, packet: Packet, phv: PHV) -> Decision:
        coflow_id = self._claimed_coflow(packet)
        if coflow_id is None:
            return Decision.forward()
        spec = self.hosted[coflow_id]
        partition = ctx.pipeline_index
        self._state_ctx.setdefault((coflow_id, partition), ctx)
        acc = ctx.register(
            f"agg{coflow_id}_acc", spec.vector_elements, width_bits=64
        )
        count = ctx.register(
            f"agg{coflow_id}_cnt", spec.vector_elements, width_bits=32
        )
        workers = len(spec.worker_hosts)
        payload = packet.payload
        assert payload is not None
        keys = payload.keys()
        totals = acc.add_many(keys, payload.values())
        seen = count.add_many(keys, [1] * len(keys))
        pending = self._pending[(coflow_id, partition)]
        for key, total, contributions in zip(keys, totals, seen):
            if contributions == workers:
                pending.append((key, total))
                self._completed[(coflow_id, partition)] += 1
        emissions = self._drain_emissions(coflow_id, partition)
        if emissions:
            if packet.meta.origin_time is not None:
                # Results inherit the origin of the data packet whose
                # contribution completed the chunk, so serve-mode latency
                # spans host departure -> result delivery
                # (docs/SERVING.md).
                for emission in emissions:
                    emission.meta.origin_time = packet.meta.origin_time
            if self._aggregated(coflow_id):
                self._retire(coflow_id)
        return Decision.consume(*emissions)

    def _aggregated(self, coflow_id: int) -> bool:
        """Every partition of the coflow summed and emitted its share."""
        for partition in range(self.placement_policy.partitions):
            slot = (coflow_id, partition)
            if self._pending[slot]:
                return False
            if self._completed[slot] < self._expected[slot]:
                return False
        return True

    def _retire(self, coflow_id: int) -> None:
        """Drop a fully aggregated coflow's state: every worker's vector
        arrived and every result left, so no packet of it remains."""
        del self.hosted[coflow_id]
        for partition in range(self.placement_policy.partitions):
            slot = (coflow_id, partition)
            del self._pending[slot]
            del self._completed[slot]
            del self._expected[slot]
            ctx = self._state_ctx.pop(slot, None)
            if ctx is not None:
                ctx.release_register(f"agg{coflow_id}_acc")
                ctx.release_register(f"agg{coflow_id}_cnt")

    def _drain_emissions(self, coflow_id: int, partition: int) -> list[Packet]:
        spec = self.hosted[coflow_id]
        slot = (coflow_id, partition)
        pending = self._pending[slot]
        done = self._completed[slot] >= self._expected[slot]
        emissions: list[Packet] = []
        step = self.elements_per_packet
        while len(pending) >= step or (done and pending):
            batch = pending[:step]
            del pending[:step]
            for worker in spec.worker_hosts:
                emissions.append(self._result_packet(spec, batch, worker))
        return emissions

    def _result_packet(
        self, spec: HostedCoflow, batch: list[tuple[int, int]], worker: int
    ) -> Packet:
        packet = make_coflow_packet(
            spec.coflow_id,
            flow_id=0xFFFF,
            seq=self.results_emitted,
            elements=batch,
            opcode=OP_RESULT,
            dst_ip=host_ip(worker),
        )
        self.results_emitted += 1
        return packet
