"""The ADCP switch: demuxed lanes, two TMs, and the global area (Figure 4).

Packet lifecycle: RX port -> one of the port's m ingress lanes ->
TM1 (application placement) -> central pipeline -> TM2 (classic, by egress
port) -> one of the destination port's m egress lanes -> TX port.

Two properties distinguish this from :class:`repro.rmt.switch.RMTSwitch`:

- Every packet can reach the state partition of its key directly (TM1
  routes by key, not by port), and every result can reach every port
  (TM2 sits *after* the state) — no pinning, no recirculation.
- Central stages are array-capable, so a stateful hook accepts a whole
  element array per packet (up to ``array_width``).
"""

from __future__ import annotations

from ..arch.app import SwitchApp
from ..arch.decision import Decision, Verdict
from ..arch.port import TxPort
from ..arch.switch import SwitchModel
from ..coflow.placement import PlacementPolicy
from ..errors import ConfigError
from ..net.headers import OP_FLUSH
from ..net.packet import Packet
from ..sim.event import Simulator
from ..telemetry.events import Category, Severity
from ..rmt.pipeline import Pipeline
from ..rmt.switch import SwitchRunResult
from ..rmt.traffic_manager import TrafficManager
from .config import ADCPConfig
from .scheduler import KWayMergeScheduler
from .traffic_manager import ApplicationTrafficManager


class ADCPSwitch(SwitchModel):
    """Executable model of the proposed ADCP architecture."""

    def __init__(
        self,
        config: ADCPConfig,
        app: SwitchApp | None = None,
        placement: PlacementPolicy | None = None,
        ordered_flows: list[int] | None = None,
        telemetry=None,
        sim: Simulator | None = None,
        name: str = "adcp",
    ) -> None:
        """Build an ADCP switch.

        ``ordered_flows`` activates TM1's expanded scheduling semantics
        (section 3.1): packets of the listed coflow-header flow ids are
        buffered in front of TM1 and released in globally nondecreasing
        key order via a k-way merge of the (individually sorted) flows.
        An OP_FLUSH packet finishes its flow and is absorbed.

        ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is opt-in;
        when omitted, instrumentation reduces to per-site None checks.
        """
        super().__init__(name)
        self.config = config
        self.app = app
        self.telemetry = telemetry
        self.trace = None
        self.spans = None
        if app is not None and app.elements_per_packet > config.array_width:
            raise ConfigError(
                f"app {app.name!r} packs {app.elements_per_packet} elements "
                f"per packet but the ADCP arrays are "
                f"{config.array_width} wide"
            )
        lane_hz = config.lane_frequency_hz
        self.ingress = [
            Pipeline(
                i,
                "ingress",
                lane_hz,
                self,
                stages=config.stages_per_pipeline,
                maus_per_stage=config.maus_per_stage,
                attached_ports=(config.port_of_lane(i),),
                array_width=config.array_width,
                parser_latency_cycles=config.parser_latency_cycles,
                phv_layout=config.phv_layout,
            )
            for i in range(config.ingress_pipelines)
        ]
        self.central = [
            Pipeline(
                i,
                "central",
                config.central_clock_hz,
                self,
                stages=config.stages_per_pipeline,
                maus_per_stage=config.maus_per_stage,
                attached_ports=(),
                array_width=config.array_width,
                parser_latency_cycles=config.parser_latency_cycles,
                phv_layout=config.phv_layout,
            )
            for i in range(config.central_pipelines)
        ]
        self.egress = [
            Pipeline(
                i,
                "egress",
                lane_hz,
                self,
                stages=config.stages_per_pipeline,
                maus_per_stage=config.maus_per_stage,
                attached_ports=(config.port_of_lane(i),),
                array_width=config.array_width,
                parser_latency_cycles=config.parser_latency_cycles,
                phv_layout=config.phv_layout,
            )
            for i in range(config.egress_pipelines)
        ]
        key_fn = (
            app.placement_key if app is not None else self._default_key
        )
        if app is not None:
            app.bind_placement(config.central_pipelines)
            if placement is None:
                placement = app.placement_policy
        # Hook elision: a region hook the app never overrode is the base
        # class's forward-everything default, which the pipelines treat
        # as no hook at all — unlocking their parse/deparse-free path.
        # Width enforcement at the central area keys off the *app*, not
        # the (possibly elided) hook, so it survives elision.
        self._ingress_hook = self._elide_hook("ingress")
        self._central_hook = self._elide_hook("central")
        self._egress_hook = self._elide_hook("egress")
        tm_latency = config.tm_latency_cycles / config.central_clock_hz
        self.tm1 = ApplicationTrafficManager(
            "tm1",
            self,
            central_pipelines=config.central_pipelines,
            key_fn=key_fn,
            policy=placement,
            buffer_packets=config.tm_buffer_packets,
            latency_s=tm_latency,
        )
        self.tm2 = TrafficManager(
            "tm2",
            self,
            route=self._egress_lane_of_packet,
            buffer_packets=config.tm_buffer_packets,
            latency_s=tm_latency,
        )
        self.tx_ports = [
            TxPort(p, config.port_speed_bps) for p in range(config.num_ports)
        ]
        self._next_ingress_lane = [0] * config.num_ports
        self._next_egress_lane = [0] * config.num_ports
        self._merge = (
            KWayMergeScheduler(list(ordered_flows)) if ordered_flows else None
        )
        self._sim = sim if sim is not None else Simulator()
        self._result = SwitchRunResult()
        self.port_sinks = {}
        """Optional per-port delivery hooks (fabric links); see RMTSwitch."""
        self.route_resolver = None
        """Optional ``fn(packet) -> port | None`` consulted for unrouted
        unicast packets before TM2 admission (fabric next-hop selection)."""
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
                for pipeline in self.ingress + self.central + self.egress:
                    pipeline.trace = trace
                self.tm1.trace = trace
                self.tm2.trace = trace
                for port in self.tx_ports:
                    port.trace = trace
                self._sim.trace = trace

    # --- topology helpers --------------------------------------------------------

    @staticmethod
    def _default_key(packet: Packet) -> int:
        payload = packet.payload
        if payload is not None and payload.elements:
            return payload.elements[0].key
        coflow = packet._header_index().get("coflow")
        return 0 if coflow is None else coflow._values["coflow_id"]

    def _pick_ingress_lane(self, port: int) -> int:
        lane = self._next_ingress_lane[port]
        self._next_ingress_lane[port] = (lane + 1) % self.config.demux_factor
        return self.config.lane_of(port, lane)

    def _egress_lane_of_packet(self, packet: Packet) -> int:
        port = packet.meta.egress_port
        if port is None:
            raise ConfigError("packet reached TM2 without an egress port")
        lane = self._next_egress_lane[port]
        self._next_egress_lane[port] = (lane + 1) % self.config.demux_factor
        return self.config.lane_of(port, lane)

    # --- telemetry ------------------------------------------------------------------

    def monitor_probes(self):
        """Switch-level resource-monitor series.

        The recirculation series is registered even though ADCP programs
        never recirculate — it samples identically zero, which is the
        architectural claim a ledger diff against an RMT run makes
        machine-checkable.  Merge depth appears when TM1's ordered-flow
        front-end is active.
        """
        path = self.path
        probes = {
            f"{path}.recirculations": lambda now_s: self.stats.value(
                f"{path}.recirculations"
            ),
        }
        if self._merge is not None:
            probes[f"{self.tm1.path}.merge_depth"] = lambda now_s: float(
                self._merge.pending()
            )
        for port in self.tx_ports:
            probes.update(
                port.monitor_probes(label=f"{path}.tx{port.port}")
            )
        return probes

    # --- stations -------------------------------------------------------------------

    def _ingress_service(self, packet: Packet, ready: float) -> None:
        port = packet.meta.ingress_port
        if port is None:
            raise ConfigError("arriving packet has no ingress port")
        lane = self._pick_ingress_lane(port)
        packet.meta.lane = lane
        pipeline = self.ingress[lane]
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.ingress",
                ready,
                packet,
                port=port,
                lane=lane,
            )
        record = pipeline.service(packet, ready, self._ingress_hook)
        if self.spans is not None and packet.meta.span is not None:
            self._span_service(packet, record, pipeline)
        decision = record.decision

        for emission in decision.emissions:
            emission.meta.arrival_time = packet.meta.arrival_time
            if packet.meta.span is not None:
                emission.meta.span = packet.meta.span
            self._to_tm2(emission, record.exit_time)

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
            raise ConfigError(
                "ADCP programs never recirculate: route state through the "
                "central area instead"
            )
        else:
            self._offer_tm1(packet, record.exit_time)

    def _offer_tm1(self, packet: Packet, ready: float) -> None:
        """Hand a packet to TM1, through the merge front-end when active."""
        if self._merge is None or not packet.has_header("coflow"):
            self._to_tm1(packet, ready)
            return
        header = packet.header("coflow")
        if not self._merge.has_flow(header["flow_id"]):
            self._to_tm1(packet, ready)
            return
        if header["opcode"] == OP_FLUSH:
            released = self._merge.finish_flow(header["flow_id"])
            self._result.consumed += 1
            self.counter("merge_flushes").add()
            if self.trace is not None:
                self._emit(
                    Category.MERGE,
                    "merge.flush",
                    ready,
                    packet,
                    flow=header["flow_id"],
                    released=len(released),
                    depth=self._merge.pending(),
                )
        else:
            released = self._merge.offer(packet)
            if self.trace is not None:
                self._emit(
                    Category.MERGE,
                    "merge.offer",
                    ready,
                    packet,
                    flow=header["flow_id"],
                    released=len(released),
                    depth=self._merge.pending(),
                )
        if self.trace is None and len(released) > 1:
            self._to_tm1_burst(released, ready)
            return
        for ready_packet in released:
            if self.trace is not None:
                self._emit(
                    Category.MERGE, "merge.release", ready, ready_packet
                )
            self._to_tm1(ready_packet, ready)

    def _to_tm1(self, packet: Packet, ready: float) -> None:
        admitted = self.tm1.admit(packet, ready)
        if admitted is None:
            self._result.drop(packet, self.port_sinks)
            self._emit_drop(packet, ready)
            return
        partition, deliver = admitted
        if self.spans is not None and packet.meta.span is not None:
            self.spans.record(
                packet.meta.span, packet.packet_id, self.name,
                "tm", ready, deliver,
            )

        def event() -> None:
            self._central_service(packet, partition, deliver)

        self._sim.at(deliver, event)

    def _to_tm1_burst(self, packets: list[Packet], ready: float) -> None:
        """Admit a same-time burst into TM1 and serve it with one event.

        Only taken untraced: accounting (admission order, drop order,
        central service order) is identical to per-packet
        :meth:`_to_tm1` calls because the releases all share ``ready``
        and the kernel would dispatch their equal-time events in
        schedule order anyway.
        """
        admitted, rejected = self.tm1.admit_burst(packets, ready)
        for packet in rejected:
            self._result.drop(packet, self.port_sinks)
            self._emit_drop(packet, ready)
        if not admitted:
            return
        spans = self.spans
        if spans is not None:
            for packet, _, when in admitted:
                if packet.meta.span is not None:
                    spans.record(
                        packet.meta.span, packet.packet_id, self.name,
                        "tm", ready, when,
                    )
        deliver = admitted[0][2]
        for _, _, each in admitted:
            if each != deliver:
                # Unequal delivery times (not possible with a constant
                # TM latency, but cheap to guard): fall back to one
                # event per packet.
                for packet, partition, when in admitted:
                    self._sim.at(
                        when,
                        lambda p=packet, c=partition, w=when: (
                            self._central_service(p, c, w)
                        ),
                    )
                return

        def event() -> None:
            self._sim.events_coalesced += len(admitted) - 1
            for packet, partition, _ in admitted:
                self._central_service(packet, partition, deliver)

        self._sim.at(deliver, event)

    def _central_service(
        self, packet: Packet, partition: int, ready: float
    ) -> None:
        pipeline = self.central[partition]
        packet.meta.central_pipeline = partition
        record = pipeline.service(
            packet,
            ready,
            self._central_hook,
            enforce_width=self.app is not None,
        )
        if self.spans is not None and packet.meta.span is not None:
            self._span_service(packet, record, pipeline, "tm")
        self.tm1.release(packet, now=record.exit_time)
        packet.meta.central_done = True
        decision = record.decision

        for emission in decision.emissions:
            emission.meta.arrival_time = packet.meta.arrival_time
            emission.meta.central_pipeline = partition
            emission.meta.central_done = True
            if packet.meta.span is not None:
                emission.meta.span = packet.meta.span
            self._to_tm2(emission, record.exit_time)

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
            raise ConfigError("ADCP programs never recirculate")
        else:
            self._to_tm2(packet, record.exit_time)

    def _to_tm2(self, packet: Packet, ready: float) -> None:
        if (
            self.route_resolver is not None
            and packet.meta.egress_port is None
            and not packet.meta.egress_ports
        ):
            # Fabric next-hop selection; None falls through to no_route.
            packet.meta.egress_port = self.route_resolver(packet)
        if packet.meta.egress_ports:
            deliveries = self.tm2.multicast_admit(
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
                self._schedule_egress_burst(deliveries)
            else:
                for copy, lane, deliver in deliveries:
                    self._schedule_egress(copy, lane, deliver)
            return
        if packet.meta.egress_port is None:
            packet.meta.drop_reason = "no_route"
            self._result.drop(packet, self.port_sinks)
            self.counter("no_route_drops").add()
            self._emit_drop(packet, ready)
            return
        admitted = self.tm2.admit(packet, ready)
        if admitted is None:
            self._result.drop(packet, self.port_sinks)
            self._emit_drop(packet, ready)
            return
        lane, deliver = admitted
        if self.spans is not None and packet.meta.span is not None:
            self.spans.record(
                packet.meta.span, packet.packet_id, self.name,
                "tm", ready, deliver,
            )
        self._schedule_egress(packet, lane, deliver)

    def _emit_drop(self, packet: Packet, when: float) -> None:
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.dropped",
                when,
                packet,
                severity=Severity.WARNING,
                reason=packet.meta.drop_reason,
            )

    def _schedule_egress_burst(self, deliveries) -> None:
        """One kernel event for a whole multicast fan-out.

        All copies of one multicast admission share a delivery time, so
        serving them in replication order inside a single event is
        dispatch-for-dispatch identical to the per-copy events the
        traced path schedules (equal-time events pop in push order).
        """
        deliver = deliveries[0][2]
        for _, _, each in deliveries:
            if each != deliver:
                for copy, lane, when in deliveries:
                    self._schedule_egress(copy, lane, when)
                return

        def event() -> None:
            self._sim.events_coalesced += len(deliveries) - 1
            for copy, lane, _ in deliveries:
                self._egress_service(copy, lane, deliver)

        self._sim.at(deliver, event)

    def _schedule_egress(self, packet: Packet, lane: int, deliver: float) -> None:
        def event() -> None:
            self._egress_service(packet, lane, deliver)

        self._sim.at(deliver, event)

    def _egress_service(self, packet: Packet, lane: int, ready: float) -> None:
        pipeline = self.egress[lane]
        packet.meta.egress_pipeline = lane
        record = pipeline.service(packet, ready, self._egress_hook)
        if self.spans is not None and packet.meta.span is not None:
            self._span_service(packet, record, pipeline, "tm")
        self.tm2.release(packet, now=record.exit_time)
        decision = record.decision

        if decision.emissions:
            raise ConfigError(
                "ADCP egress hooks must not emit packets; emit from the "
                "central hook, where TM2 can still route them"
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
        else:
            port = packet.meta.egress_port
            assert port is not None  # TM2 routed by it
            departure = self.tx_ports[port].transmit(packet, record.exit_time)
            if self.spans is not None and packet.meta.span is not None:
                self.spans.record(
                    packet.meta.span, packet.packet_id, self.name,
                    "egress_serial", record.exit_time, departure,
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
                    record.exit_time,
                    packet,
                    port=port,
                    lane=lane,
                    departure_s=departure,
                )
            if sink is not None:
                sink(packet, departure)

    def _drop(
        self, packet: Packet, decision: Decision, when: float = 0.0
    ) -> None:
        packet.meta.drop_reason = decision.drop_reason or "dropped"
        self._result.drop(packet, self.port_sinks)
        self._emit_drop(packet, when)
