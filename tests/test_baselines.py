"""Tests for the §1 baseline switch designs (repro.baselines)."""

from __future__ import annotations

import pytest

from repro.apps import ParameterServerApp
from repro.arch.app import SwitchApp
from repro.arch.decision import Decision
from repro.baselines import (
    InstructionCostModel,
    RtcConfig,
    RunToCompletionSwitch,
    ThreadedSwitch,
    threaded_config,
)
from repro.errors import ConfigError
from repro.net.traffic import DeterministicSource, make_coflow_packet
from repro.units import GBPS


class TestInstructionCostModel:
    def test_packet_cycles_composition(self):
        cost = InstructionCostModel(
            parse_cycles=10, per_header_cycles=5, hook_base_cycles=20,
            per_element_cycles=3, emit_cycles=7, deparse_cycles=4,
        )
        packet = make_coflow_packet(1, 0, 0, [(1, 1), (2, 2)])  # 4 headers
        assert cost.packet_cycles(packet) == 10 + 20 + 20 + 6 + 4
        assert cost.packet_cycles(packet, emissions=2) == 60 + 14

    def test_sustained_pps(self):
        cost = InstructionCostModel()
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        pps = cost.sustained_pps(4, 1e9, packet)
        assert pps == pytest.approx(4e9 / cost.packet_cycles(packet))

    def test_validation(self):
        with pytest.raises(ConfigError):
            InstructionCostModel(parse_cycles=-1)
        cost = InstructionCostModel()
        with pytest.raises(ConfigError):
            cost.sustained_pps(0, 1e9, make_coflow_packet(1, 0, 0, [(1, 1)]))


class TestRtcConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RtcConfig(cores=0)
        with pytest.raises(ConfigError):
            RtcConfig(clock_hz=0)
        with pytest.raises(ConfigError):
            RtcConfig(num_ports=0)

    def test_throughput(self):
        config = RtcConfig(num_ports=8, port_speed_bps=100 * GBPS)
        assert config.throughput_bps == pytest.approx(800e9)


class TestRunToCompletion:
    def test_forwarding(self):
        switch = RunToCompletionSwitch(RtcConfig())
        packets = []
        for i in range(20):
            packet = make_coflow_packet(1, 0, i, [(i, i)])
            packet.meta.egress_port = 5
            packets.append(packet)
        source = DeterministicSource(0, 100 * GBPS, packets)
        result = switch.run(source.packets())
        assert result.delivered_count == 20

    def test_shared_memory_aggregation_with_wide_packets(self):
        """The expressiveness side: no scalar restriction, no placement
        constraint — the very things §1 says these designs buy."""
        app = ParameterServerApp([0, 1, 4, 5], 128, elements_per_packet=16)
        switch = RunToCompletionSwitch(RtcConfig(), app)
        result = switch.run(app.workload(100 * GBPS))
        assert app.collect_results(result.delivered) == app.expected_result()
        assert result.recirculated_packets == 0
        # Exactly one shared state namespace.
        assert app.placement_policy is not None
        assert app.placement_policy.partitions == 1

    def test_all_hooks_run_in_one_pass(self):
        calls = []

        class Probe(SwitchApp):
            def __init__(self):
                super().__init__("probe")

            def ingress(self, ctx, packet, phv):
                calls.append(("ingress", ctx.region))
                return Decision.forward()

            def central(self, ctx, packet, phv):
                calls.append(("central", ctx.region))
                return Decision.forward()

            def egress(self, ctx, packet, phv):
                calls.append(("egress", ctx.region))
                return Decision.forward()

        switch = RunToCompletionSwitch(RtcConfig(), Probe())
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_port = 1
        switch.run([(0.0, packet)])
        assert calls == [
            ("ingress", "shared"), ("central", "shared"), ("egress", "shared")
        ]

    def test_service_rate_well_below_line_rate(self):
        """The performance side of the §1 tension."""
        switch = RunToCompletionSwitch(RtcConfig())
        sample = make_coflow_packet(1, 0, 0, [(1, 1)])
        assert switch.sustained_pps(sample) < 0.2 * switch.line_rate_pps()

    def test_saturation_stretches_completion(self):
        """Offered at line rate, the core pool falls behind: total drain
        time far exceeds the arrival window."""
        config = RtcConfig(cores=2)
        switch = RunToCompletionSwitch(config)
        packets = []
        for i in range(400):
            packet = make_coflow_packet(1, 0, i, [(i, i)])
            packet.meta.egress_port = 1
            packets.append(packet)
        source = DeterministicSource(0, 100 * GBPS, packets)
        arrivals = list(source.packets())
        window = arrivals[-1][0]
        result = switch.run(iter(arrivals))
        assert result.duration_s > 3 * window

    def test_queue_overflow_drops(self):
        config = RtcConfig(cores=1, queue_packets=4, clock_hz=1e6)
        switch = RunToCompletionSwitch(config)
        packets = []
        for i in range(50):
            packet = make_coflow_packet(1, 0, i, [(i, i)])
            packet.meta.egress_port = 1
            packets.append(packet)
        result = switch.run(DeterministicSource(0, 100 * GBPS, packets).packets())
        drops = [p for p in result.dropped if p.meta.drop_reason == "rtc_queue_full"]
        assert drops
        assert result.delivered_count + len(result.dropped) == 50

    def test_multicast(self):
        switch = RunToCompletionSwitch(RtcConfig())
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_ports = (1, 3, 5)
        result = switch.run([(0.0, packet)])
        assert sorted(p.meta.egress_port for p in result.delivered) == [1, 3, 5]

    def test_register_size_conflict(self):
        switch = RunToCompletionSwitch(RtcConfig())
        switch.get_register("r", 8)
        with pytest.raises(ConfigError):
            switch.get_register("r", 16)

    def test_app_can_release_shared_state(self):
        class Releaser(SwitchApp):
            def __init__(self):
                super().__init__("releaser")

            def ingress(self, ctx, packet, phv):
                ctx.register("kept", 4)
                ctx.register("scratch", 4).write(0, 7)
                ctx.release_register("scratch")
                return Decision.forward()

        switch = RunToCompletionSwitch(RtcConfig(), Releaser())
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_port = 1
        result = switch.run([(0.0, packet)])
        assert result.delivered_count == 1
        assert set(switch.registers) == {"kept"}


class TestThreaded:
    def test_sits_between_software_and_line_rate(self):
        """'...compromises line rate, even if to a lesser extent.'"""
        sample = make_coflow_packet(1, 0, 0, [(1, 1)])
        software = RunToCompletionSwitch(RtcConfig())
        threaded = ThreadedSwitch()
        assert (
            software.sustained_pps(sample)
            < threaded.sustained_pps(sample)
            < threaded.line_rate_pps()
        )

    def test_same_programming_model(self):
        app = ParameterServerApp([0, 1], 64, elements_per_packet=16)
        switch = ThreadedSwitch(app=app)
        result = switch.run(app.workload(100 * GBPS))
        assert app.collect_results(result.delivered) == app.expected_result()

    def test_config_override(self):
        config = threaded_config(cores=32)
        assert ThreadedSwitch(config).config.cores == 32
