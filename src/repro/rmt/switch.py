"""The RMT switch: ports, pipelines, TM, and the coflow workarounds.

Packet lifecycle (Figure 1): RX port -> ingress pipeline (the one the port
is multiplexed into) -> traffic manager -> egress pipeline (the one the TX
port lives on) -> TX port.

Stateful coflow applications do not fit that lifecycle, and this model
implements both published workarounds so experiments can price them:

- **Egress pinning** (:attr:`StateMode.EGRESS_PIN`): all packets of a
  coflow are steered to one egress pipeline where the state lives.
  Results whose destination port is attached there exit directly; any
  other destination requires recirculation (or is unreachable when
  recirculation is disabled) — the Figure 2 limitation.
- **Recirculation to state** (:attr:`StateMode.RECIRCULATE`): state lives
  in an ingress pipeline chosen by key hash; packets arriving on the wrong
  pipeline cross the TM, loop back through a recirculation port, and pay a
  second ingress pass — the bandwidth tax the paper cites.

Stateful processing also forces **scalar packets**: a packet carrying more
than one element cannot pass a stateful hook on a width-1 pipeline (the
run refuses at admission), so workloads must be restructured to one
element per packet, which is how RMT loses the Figure 6 key-rate race.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.app import SwitchApp
from ..arch.decision import Decision, Verdict
from ..arch.port import TxPort
from ..arch.switch import SwitchModel
from ..errors import CompileError, ConfigError, SimulationError
from ..net.packet import Packet
from ..sim.event import Simulator
from ..sim.rng import stable_hash64
from ..telemetry.events import Category, Severity
from .config import RMTConfig, StateMode
from .pipeline import Pipeline
from .traffic_manager import TrafficManager


@dataclass
class SwitchRunResult:
    """Everything a run produces, for assertions and reports.

    A packet handed to a port sink (a fabric link or host NIC) belongs to
    that sink from then on: the switch counts it in ``handed_off``
    rather than listing it in ``delivered``.  Likewise a switch with port
    sinks counts its drops in ``unlisted_drops``.  A standalone switch
    has no sinks, so every packet it delivers or drops stays listed --
    unless its caller installs some: the stateful runner gives every
    port a sink that discards the packet, because its readers need only
    the counts.
    """

    delivered: list[Packet] = field(default_factory=list)
    dropped: list[Packet] = field(default_factory=list)
    consumed: int = 0
    recirculated_packets: int = 0
    recirculated_wire_bytes: int = 0
    unreachable_emissions: int = 0
    duration_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    handed_off: int = 0
    unlisted_drops: int = 0

    @property
    def delivered_count(self) -> int:
        return len(self.delivered) + self.handed_off

    @property
    def dropped_count(self) -> int:
        return len(self.dropped) + self.unlisted_drops

    def drop(self, packet: Packet, port_sinks: dict) -> None:
        """Account one dropped packet (listed only without port sinks)."""
        if port_sinks:
            self.unlisted_drops += 1
        else:
            self.dropped.append(packet)

    def listed_delivered(self) -> list[Packet]:
        """The ``delivered`` list, when it holds every delivered packet.

        Sums and per-port views are computed from the list, so they are
        refused on a switch whose port sinks took packets: there they
        would silently miss everything handed off.
        """
        if self.handed_off:
            raise SimulationError(
                f"{self.handed_off} delivered packets were handed to port "
                f"sinks and are not listed; read delivered_count, or the "
                f"sinks' own totals"
            )
        return self.delivered

    @property
    def delivered_wire_bytes(self) -> int:
        return sum(p.wire_bytes for p in self.listed_delivered())

    @property
    def delivered_goodput_bytes(self) -> int:
        return sum(p.goodput_bytes for p in self.listed_delivered())

    @property
    def delivered_elements(self) -> int:
        return sum(p.element_count for p in self.listed_delivered())

    def delivered_to(self, port: int) -> list[Packet]:
        return [
            p for p in self.listed_delivered() if p.meta.egress_port == port
        ]

    def last_departure(self) -> float:
        delivered = self.listed_delivered()
        if not delivered:
            raise ConfigError("no packets were delivered")
        return max(p.meta.departure_time for p in delivered)


class RMTSwitch(SwitchModel):
    """Executable model of a classic RMT switch.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is opt-in: when
    omitted every instrumentation site reduces to one None check, so an
    untraced run behaves byte-identically to one built before telemetry
    existed.
    """

    def __init__(
        self,
        config: RMTConfig,
        app: SwitchApp | None = None,
        telemetry=None,
        sim: Simulator | None = None,
        name: str = "rmt",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.app = app
        self.telemetry = telemetry
        self.trace = None
        self.spans = None
        if (
            app is not None
            and app.uses_central_state()
            and app.elements_per_packet > 1
        ):
            raise CompileError(
                f"app {app.name!r} keeps cross-flow state and packs "
                f"{app.elements_per_packet} elements per packet; RMT's "
                f"scalar match-action units require stateful workloads to "
                f"use one element per packet (restructure the packet "
                f"format, as section 2 issue 2 describes)"
            )
        self.ingress = [
            Pipeline(
                i,
                "ingress",
                config.frequency_hz,
                self,
                stages=config.stages_per_pipeline,
                maus_per_stage=config.maus_per_stage,
                attached_ports=config.ports_of_pipeline(i),
                parser_latency_cycles=config.parser_latency_cycles,
                phv_layout=config.phv_layout,
            )
            for i in range(config.pipelines)
        ]
        self.egress = [
            Pipeline(
                i,
                "egress",
                config.frequency_hz,
                self,
                stages=config.stages_per_pipeline,
                maus_per_stage=config.maus_per_stage,
                attached_ports=config.ports_of_pipeline(i),
                parser_latency_cycles=config.parser_latency_cycles,
                phv_layout=config.phv_layout,
            )
            for i in range(config.pipelines)
        ]
        self.tm = TrafficManager(
            "tm",
            self,
            route=self._egress_pipeline_of_packet,
            buffer_packets=config.tm_buffer_packets,
            latency_s=config.tm_latency_cycles / config.frequency_hz,
        )
        self.tx_ports = [
            TxPort(p, config.port_speed_bps) for p in range(config.num_ports)
        ]
        self.recirc_ports = [
            TxPort(
                config.num_ports + i,
                config.port_speed_bps * config.recirculation_ports_per_pipeline,
            )
            for i in range(config.pipelines)
        ]
        self._sim = sim if sim is not None else Simulator()
        self._result = SwitchRunResult()
        self.port_sinks = {}
        """Optional per-port delivery hooks: ``{port: fn(packet, departure_s)}``.

        A fabric registers its :class:`~repro.fabric.link.Link` objects
        here so a transmitted packet continues to the next switch (or a
        host NIC) instead of leaving the simulated world.  The packet is
        still counted as delivered by *this* switch first.
        """
        self.route_resolver = None
        """Optional ``fn(packet) -> port | None`` consulted for unrouted
        unicast packets before TM admission (fabric next-hop selection)."""
        if telemetry is not None:
            telemetry.bind(self)
            # Sampled spans ride outside the trace path: the recorder is
            # consulted per packet with one None check, so the switch
            # keeps the ``trace is None`` fast paths (docs/SPANS.md).
            self.spans = getattr(telemetry, "spans", None)
            # A recorder disabled at construction skips trace wiring
            # entirely, so such a hub costs the same as passing none
            # (metrics/snapshots still work; re-enabling later has no
            # effect on this switch).
            if telemetry.trace.enabled:
                trace = telemetry.trace
                self.trace = trace
                for pipeline in self.ingress + self.egress:
                    pipeline.trace = trace
                self.tm.trace = trace
                for port in self.tx_ports + self.recirc_ports:
                    port.trace = trace
                self._sim.trace = trace
        if app is not None:
            app.bind_placement(config.pipelines)
        # Hook elision: a hook the app never overrode is the base-class
        # pass-through (``Decision.forward()`` touching nothing), which the
        # pipeline treats as None and services on its no-PHV fast path.
        # The central hook is never elided this way for width enforcement:
        # ``enforce_width`` is passed independently of the hook.
        self._ingress_hook = self._elide_hook("ingress")
        self._egress_hook = self._elide_hook("egress")
        self._central_hook = self._elide_hook("central")
        self._uses_central = app is not None and app.uses_central_state()

    # --- topology helpers ---------------------------------------------------------

    def _egress_pipeline_of_packet(self, packet: Packet) -> int:
        port = packet.meta.egress_port
        if port is None:
            raise ConfigError("packet reached the TM without an egress port")
        return self.config.pipeline_of_port(port)

    def state_pipeline_of_key(self, key: int) -> int:
        """Pipeline hosting the state partition for a key.

        Uses the app's placement policy when one is bound (the app defined
        the partitioning criteria), falling back to hash placement.
        """
        if self.app is not None and self.app.placement_policy is not None:
            return self.app.placement_policy.place(key)
        return stable_hash64(key) % self.config.pipelines

    # --- telemetry ----------------------------------------------------------------

    def monitor_probes(self):
        """Switch-level resource-monitor series.

        Ports are not :class:`~repro.sim.component.Component` nodes, so
        their probes are contributed here; the recirculation series are
        the §2 bandwidth-tax view — cumulative loop count plus the
        committed backlog on the loopback ports (loop depth in seconds).
        """
        path = self.path
        probes = {
            f"{path}.recirculations": lambda now_s: self.stats.value(
                f"{path}.recirculations"
            ),
            f"{path}.recirc_backlog_s": lambda now_s: sum(
                loop.backlog_s(now_s) for loop in self.recirc_ports
            ),
        }
        for port in self.tx_ports:
            probes.update(
                port.monitor_probes(label=f"{path}.tx{port.port}")
            )
        for index, loop in enumerate(self.recirc_ports):
            probes.update(
                loop.monitor_probes(label=f"{path}.recirc{index}")
            )
        return probes

    # --- ingress ------------------------------------------------------------------

    def _ingress_service(self, packet: Packet, ready: float) -> None:
        port = packet.meta.ingress_port
        if port is None:
            raise ConfigError("arriving packet has no ingress port")
        pipeline = self.ingress[self.config.pipeline_of_port(port)]
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.ingress",
                ready,
                packet,
                port=port,
                pipeline=pipeline.index,
                recirculations=packet.meta.recirculations,
            )

        app = self.app
        hook = None
        enforce = False
        runs_central_here = False
        if app is not None and not packet.meta.dropped:
            if (
                self._uses_central
                and self.config.state_mode is StateMode.RECIRCULATE
                and not self._central_done(packet)
                and app.claims(packet)
            ):
                state_pipe = self.state_pipeline_of_key(app.placement_key(packet))
                if pipeline.index == state_pipe:
                    hook = self._central_hook
                    enforce = True
                    runs_central_here = True
                else:
                    # Wrong pipeline: one plain ingress pass, then loop
                    # around through the state pipeline's recirc port.
                    record = pipeline.service(packet, ready, self._ingress_hook)
                    if self.spans is not None and packet.meta.span is not None:
                        self._span_service(packet, record, pipeline)
                    if record.decision.verdict is Verdict.DROP:
                        self._drop(packet, record.decision, record.exit_time)
                        return
                    self._recirculate_to(packet, state_pipe, record.exit_time)
                    return
            else:
                hook = self._ingress_hook

        record = pipeline.service(packet, ready, hook, enforce_width=enforce)
        if self.spans is not None and packet.meta.span is not None:
            self._span_service(packet, record, pipeline)
        if runs_central_here:
            self._mark_central_done(packet)
        self._apply_decision(
            packet, record.decision, record.exit_time, region="ingress"
        )

    # --- recirculation --------------------------------------------------------------

    def _recirculate_to(self, packet: Packet, pipeline: int, ready: float) -> None:
        """Route a packet to ``pipeline``'s ingress via TM + loopback port."""
        if not self.config.allow_recirculation:
            self._result.unreachable_emissions += 1
            packet.meta.drop_reason = "recirculation_disabled"
            self._result.drop(packet, self.port_sinks)
            self.counter("unreachable").add()
            if self.trace is not None:
                self._emit(
                    Category.ADMISSION,
                    "packet.dropped",
                    ready,
                    packet,
                    severity=Severity.ERROR,
                    reason="recirculation_disabled",
                )
            return
        admitted = self.tm.admit(packet, ready, pipeline=pipeline)
        if admitted is None:
            self._result.drop(packet, self.port_sinks)
            if self.trace is not None:
                self._emit(
                    Category.PACKET,
                    "packet.dropped",
                    ready,
                    packet,
                    severity=Severity.WARNING,
                    reason=packet.meta.drop_reason,
                )
            return
        _, deliver = admitted
        spans = self.spans
        span = packet.meta.span if spans is not None else None
        if span is not None:
            spans.record(span, packet.packet_id, self.name, "tm", ready, deliver)
        egress = self.egress[pipeline]
        record = egress.service(packet, deliver, None)
        if span is not None:
            self._span_service(packet, record, egress, "tm")
        self.tm.release(packet, now=record.exit_time)
        loop = self.recirc_ports[pipeline]
        re_arrival = loop.transmit(packet, record.exit_time)
        if span is not None:
            spans.record(
                span,
                packet.packet_id,
                self.name,
                "egress_serial",
                record.exit_time,
                re_arrival,
            )
        packet.meta.recirculations += 1
        self._result.recirculated_packets += 1
        self._result.recirculated_wire_bytes += packet.wire_bytes
        self.counter("recirculations").add()
        if self.trace is not None:
            self._emit(
                Category.RECIRC,
                "packet.recirculated",
                ready,
                packet,
                pipeline=pipeline,
                pass_number=packet.meta.recirculations,
                re_arrival_s=re_arrival,
                wire_bytes=packet.wire_bytes,
            )
        # Re-enter through the loopback: same pipeline's ingress.
        packet.meta.ingress_port = self.config.ports_of_pipeline(pipeline)[0]
        self.inject(packet, re_arrival)

    # --- decision handling -----------------------------------------------------------

    def _apply_decision(
        self, packet: Packet, decision: Decision, ready: float, region: str
    ) -> None:
        for emission in decision.emissions:
            emission.meta.arrival_time = packet.meta.arrival_time
            emission.meta.ingress_port = packet.meta.ingress_port
            if packet.meta.span is not None:
                emission.meta.span = packet.meta.span
            self._mark_central_done(emission)
            self._to_traffic_manager(emission, ready, from_region=region)

        if decision.verdict is Verdict.DROP:
            self._drop(packet, decision, ready)
        elif decision.verdict is Verdict.CONSUME:
            self._result.consumed += 1
            self.counter("consumed").add()
            if self.trace is not None:
                self._emit(Category.PACKET, "packet.consumed", ready, packet)
        elif decision.verdict is Verdict.RECIRCULATE:
            if self.app is None:
                raise ConfigError("recirculate verdict requires an app")
            state_pipe = self.state_pipeline_of_key(
                self.app.placement_key(packet)
            )
            self._recirculate_to(packet, state_pipe, ready)
        else:
            self._to_traffic_manager(packet, ready, from_region=region)

    def _drop(
        self, packet: Packet, decision: Decision, when: float = 0.0
    ) -> None:
        packet.meta.drop_reason = decision.drop_reason or "dropped"
        self._result.drop(packet, self.port_sinks)
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.dropped",
                when,
                packet,
                severity=Severity.WARNING,
                reason=packet.meta.drop_reason,
            )

    # --- TM + egress -----------------------------------------------------------------

    def _to_traffic_manager(
        self, packet: Packet, ready: float, from_region: str
    ) -> None:
        if (
            self.route_resolver is not None
            and packet.meta.egress_port is None
            and not packet.meta.egress_ports
        ):
            # Fabric next-hop selection; None leaves the packet to the
            # local steering path (state packets) or the no_route drop.
            packet.meta.egress_port = self.route_resolver(packet)
        if from_region == "egress":
            # Emissions born in an egress pipeline cannot re-enter the TM
            # directly; they must loop around (Figure 2's restriction).
            source_pipe = packet.meta.egress_pipeline
            if packet.meta.egress_ports:
                # Multicast needs the TM's replication engine: always loop.
                if source_pipe is None:
                    raise ConfigError("egress emission without a pipeline")
                self._recirculate_to(packet, source_pipe, ready)
                return
            target_port = packet.meta.egress_port
            if target_port is None:
                raise ConfigError("egress emission without an egress port")
            if source_pipe is not None and self.config.pipeline_of_port(
                target_port
            ) != source_pipe:
                self._recirculate_to(packet, source_pipe, ready)
                return
            # Destination is attached to this very pipeline: short path to TX.
            self._transmit(packet, ready)
            return

        if packet.meta.egress_ports:
            deliveries = self.tm.multicast_admit(
                packet, packet.meta.egress_ports, ready
            )
            spans = self.spans
            if spans is not None and packet.meta.span is not None:
                # Replicated copies get fresh metadata; keep them on the
                # parent's span so every multicast leg is traced.
                span = packet.meta.span
                for copy, _, deliver in deliveries:
                    copy.meta.span = span
                    spans.record(
                        span, copy.packet_id, self.name, "tm", ready, deliver
                    )
            if self.trace is None and len(deliveries) > 1:
                # All copies of one multicast admission share a deliver
                # time (same ready, same TM latency), so one kernel event
                # services the burst in replication order — identical
                # dispatch order to the per-copy events it replaces.
                self._schedule_egress_burst(deliveries)
            else:
                for copy, pipeline, deliver in deliveries:
                    self._schedule_egress(copy, pipeline, deliver)
            return

        if (
            self._uses_central
            and self.config.state_mode is StateMode.EGRESS_PIN
            and not self._central_done(packet)
            and self.app.claims(packet)
        ):
            # Steer to the state pipeline regardless of destination port.
            state_pipe = self.state_pipeline_of_key(
                self.app.placement_key(packet)
            )
            admitted = self.tm.admit(packet, ready, pipeline=state_pipe)
            if admitted is None:
                self._result.drop(packet, self.port_sinks)
                self._emit_tm_drop(packet, ready)
                return
            _, deliver = admitted
            if self.spans is not None and packet.meta.span is not None:
                self.spans.record(
                    packet.meta.span, packet.packet_id, self.name,
                    "tm", ready, deliver,
                )
            self._schedule_egress(
                packet, state_pipe, deliver, run_central=True
            )
            return

        if packet.meta.egress_port is None:
            packet.meta.drop_reason = "no_route"
            self._result.drop(packet, self.port_sinks)
            self.counter("no_route_drops").add()
            self._emit_tm_drop(packet, ready)
            return
        admitted = self.tm.admit(packet, ready)
        if admitted is None:
            self._result.drop(packet, self.port_sinks)
            self._emit_tm_drop(packet, ready)
            return
        pipeline, deliver = admitted
        if self.spans is not None and packet.meta.span is not None:
            self.spans.record(
                packet.meta.span, packet.packet_id, self.name,
                "tm", ready, deliver,
            )
        self._schedule_egress(packet, pipeline, deliver)

    def _emit_tm_drop(self, packet: Packet, when: float) -> None:
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.dropped",
                when,
                packet,
                severity=Severity.WARNING,
                reason=packet.meta.drop_reason,
            )

    def _schedule_egress(
        self, packet: Packet, pipeline: int, deliver: float, run_central: bool = False
    ) -> None:
        def event() -> None:
            self._egress_service(packet, pipeline, deliver, run_central)

        self._sim.at(deliver, event)

    def _schedule_egress_burst(self, deliveries) -> None:
        """One event servicing several same-time egress deliveries in order."""
        first_deliver = deliveries[0][2]
        if any(deliver != first_deliver for _, _, deliver in deliveries):
            # Shouldn't happen (one admission, one TM latency), but fall
            # back to per-copy events rather than reorder anything.
            for copy, pipeline, deliver in deliveries:
                self._schedule_egress(copy, pipeline, deliver)
            return

        def event() -> None:
            self._sim.events_coalesced += len(deliveries) - 1
            for copy, pipeline, deliver in deliveries:
                self._egress_service(copy, pipeline, deliver, False)

        self._sim.at(first_deliver, event)

    def _egress_service(
        self, packet: Packet, pipeline_index: int, ready: float, run_central: bool
    ) -> None:
        pipeline = self.egress[pipeline_index]
        packet.meta.egress_pipeline = pipeline_index
        hook = None
        enforce = False
        if self.app is not None:
            if run_central:
                hook = self._central_hook
                enforce = True
            else:
                hook = self._egress_hook
        record = pipeline.service(packet, ready, hook, enforce_width=enforce)
        if self.spans is not None and packet.meta.span is not None:
            self._span_service(packet, record, pipeline, "tm")
        self.tm.release(packet, now=record.exit_time)
        if run_central:
            self._mark_central_done(packet)
        decision = record.decision

        for emission in decision.emissions:
            emission.meta.arrival_time = packet.meta.arrival_time
            emission.meta.egress_pipeline = pipeline_index
            if packet.meta.span is not None:
                emission.meta.span = packet.meta.span
            self._mark_central_done(emission)
            self._to_traffic_manager(
                emission, record.exit_time, from_region="egress"
            )

        if decision.verdict is Verdict.DROP:
            self._drop(packet, decision, record.exit_time)
        elif decision.verdict is Verdict.CONSUME:
            self._result.consumed += 1
            self.counter("consumed").add()
            if self.trace is not None:
                self._emit(
                    Category.PACKET, "packet.consumed", record.exit_time, packet
                )
        elif decision.verdict is Verdict.RECIRCULATE:
            self._recirculate_to(packet, pipeline_index, record.exit_time)
        else:
            port = packet.meta.egress_port
            if port is None:
                packet.meta.drop_reason = "no_route"
                self._result.drop(packet, self.port_sinks)
                self._emit_tm_drop(packet, record.exit_time)
                return
            if port not in pipeline.attached_ports:
                # The TM routed by egress port, so this only happens for
                # pinned-state packets whose destination lives elsewhere.
                self._recirculate_to(packet, pipeline_index, record.exit_time)
                return
            self._transmit(packet, record.exit_time)

    def _transmit(self, packet: Packet, ready: float) -> None:
        port = packet.meta.egress_port
        assert port is not None
        departure = self.tx_ports[port].transmit(packet, ready)
        if self.spans is not None and packet.meta.span is not None:
            self.spans.record(
                packet.meta.span, packet.packet_id, self.name,
                "egress_serial", ready, departure,
            )
        sink = self.port_sinks.get(port)
        if sink is None:
            self._result.delivered.append(packet)
        else:
            self._result.handed_off += 1
        self.counter("delivered").add()
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.delivered",
                ready,
                packet,
                port=port,
                departure_s=departure,
                recirculations=packet.meta.recirculations,
            )
        if sink is not None:
            sink(packet, departure)

    # --- central-state bookkeeping ------------------------------------------------------

    @staticmethod
    def _central_done(packet: Packet) -> bool:
        return packet.meta.central_done

    @staticmethod
    def _mark_central_done(packet: Packet) -> None:
        packet.meta.central_done = True
