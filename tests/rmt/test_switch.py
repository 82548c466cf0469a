"""Behavioral tests for the RMT switch (repro.rmt.switch).

These encode the paper's section 2 limitations as executable assertions:
egress pinning restricts reachability, recirculation taxes bandwidth, and
stateful processing forces scalar packets.
"""

from __future__ import annotations

import dataclasses
from itertools import groupby
from operator import itemgetter

import pytest

from repro.apps import ParameterServerApp
from repro.arch.decision import Decision
from repro.arch.app import SwitchApp
from repro.errors import CompileError, SimulationError
from repro.net.packet import Packet
from repro.net.traffic import DeterministicSource, make_coflow_packet
from repro.rmt.config import RMTConfig, StateMode
from repro.rmt.switch import RMTSwitch
from repro.sim.event import Simulator
from repro.units import BITS_PER_BYTE, GBPS


def _forwarding_packets(n, ingress_port, egress_port, elements=1):
    packets = []
    for i in range(n):
        packet = make_coflow_packet(1, 0, i, [(j, j) for j in range(elements)])
        packet.meta.egress_port = egress_port
        packets.append(packet)
    return packets


def _run_forwarding(config, n=50, ingress=0, egress=7):
    switch = RMTSwitch(config)
    source = DeterministicSource(
        ingress, config.port_speed_bps, _forwarding_packets(n, ingress, egress)
    )
    return switch, switch.run(source.packets())


class TestPureForwarding:
    def test_all_delivered_cross_pipeline(self, small_rmt_config):
        switch, result = _run_forwarding(small_rmt_config)
        assert result.delivered_count == 50
        assert not result.dropped
        assert all(p.meta.egress_port == 7 for p in result.delivered)

    def test_line_rate_sustained(self, small_rmt_config):
        """Delivery duration tracks the source duration: the switch never
        becomes the bottleneck at its rated packet rate."""
        switch, result = _run_forwarding(small_rmt_config, n=200)
        packets = _forwarding_packets(1, 0, 7)
        wire = packets[0].wire_bytes * BITS_PER_BYTE / small_rmt_config.port_speed_bps
        source_duration = 200 * wire
        assert result.last_departure() <= source_duration * 1.05 + 1e-6

    def test_latency_includes_both_pipelines_and_tm(self, small_rmt_config):
        switch, result = _run_forwarding(small_rmt_config, n=1)
        packet = result.delivered[0]
        transit = packet.meta.departure_time - packet.meta.arrival_time
        minimum = (
            2 * small_rmt_config.pipeline_latency_s
            + small_rmt_config.tm_latency_cycles / small_rmt_config.frequency_hz
        )
        assert transit >= minimum

    def test_no_route_packet_dropped(self, small_rmt_config):
        switch = RMTSwitch(small_rmt_config)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0  # no egress port set
        result = switch.run([(0.0, packet)])
        assert result.delivered_count == 0
        assert result.dropped[0].meta.drop_reason == "no_route"

    def test_multicast_delivers_to_all_ports(self, small_rmt_config):
        switch = RMTSwitch(small_rmt_config)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_ports = (1, 4, 6)
        result = switch.run([(0.0, packet)])
        assert sorted(p.meta.egress_port for p in result.delivered) == [1, 4, 6]

    def test_counters_snapshot_populated(self, small_rmt_config):
        switch, result = _run_forwarding(small_rmt_config, n=5)
        assert result.counters["rmt.delivered"] == 5
        assert result.counters["rmt.tm.admitted"] == 5


class TestScalarEnforcement:
    def test_stateful_app_with_wide_packets_rejected(self, small_rmt_config):
        """Section 2 issue 2 as an executable rule: stateful + multi-
        element packets cannot compile to RMT."""
        app = ParameterServerApp([0, 1], 64, elements_per_packet=4)
        with pytest.raises(CompileError) as excinfo:
            RMTSwitch(small_rmt_config, app)
        assert "scalar" in str(excinfo.value)

    def test_stateless_app_with_wide_packets_allowed(self, small_rmt_config):
        class StatelessApp(SwitchApp):
            def __init__(self):
                super().__init__("stateless", elements_per_packet=8)

        RMTSwitch(small_rmt_config, StatelessApp())  # must not raise


class TestEgressPinning:
    def test_state_concentrates_on_one_pipeline(self, small_rmt_config):
        """All of a coflow's packets funnel through the state pipeline's
        egress, whatever their ingress port."""
        app = ParameterServerApp([0, 1, 4, 5], 32, elements_per_packet=1)
        switch = RMTSwitch(small_rmt_config, app)
        result = switch.run(app.workload(small_rmt_config.port_speed_bps))
        assert app.collect_results(result.delivered) == app.expected_result()
        # Exactly one egress pipeline hosts aggregation registers.
        with_state = [e for e in switch.egress if "agg_acc" in e.registers]
        assert len(with_state) == len(
            {app.partition_of_key((k // 1) * 1) for k in range(32)}
        ) or len(with_state) >= 1

    def test_results_to_foreign_ports_recirculate(self, small_rmt_config):
        """Results multicast to workers on other pipelines must loop
        around — Figure 2's cost."""
        app = ParameterServerApp([0, 1, 4, 5], 32, elements_per_packet=1)
        switch = RMTSwitch(small_rmt_config, app)
        result = switch.run(app.workload(small_rmt_config.port_speed_bps))
        assert result.recirculated_packets > 0
        assert result.recirculated_wire_bytes > 0

    def test_recirculation_disabled_loses_foreign_results(self, small_rmt_config):
        """With the escape hatch closed, only ports attached to the state
        pipeline are reachable — the reachability restriction itself."""
        config = dataclasses.replace(small_rmt_config, allow_recirculation=False)
        app = ParameterServerApp([0, 1, 4, 5], 32, elements_per_packet=1)
        switch = RMTSwitch(config, app)
        result = switch.run(app.workload(config.port_speed_bps))
        assert result.unreachable_emissions > 0
        got = app.collect_results(result.delivered)
        expected = app.expected_result()
        # Results multicast to the worker group need the TM, which an
        # egress-born emission can only reach by looping around; with the
        # loop closed, the all-reduce cannot complete.
        assert got != expected
        assert set(got) <= set(expected)


class TestRecirculateMode:
    def _config(self, small_rmt_config):
        return dataclasses.replace(
            small_rmt_config, state_mode=StateMode.RECIRCULATE
        )

    def test_correct_and_taxed(self, small_rmt_config):
        config = self._config(small_rmt_config)
        app = ParameterServerApp([0, 1, 4, 5], 32, elements_per_packet=1)
        switch = RMTSwitch(config, app)
        result = switch.run(app.workload(config.port_speed_bps))
        assert app.collect_results(result.delivered) == app.expected_result()
        # Packets landing on the wrong pipeline pay a loop.
        assert result.recirculated_packets > 0

    def test_state_lives_in_ingress_pipelines(self, small_rmt_config):
        config = self._config(small_rmt_config)
        app = ParameterServerApp([0, 1, 4, 5], 32, elements_per_packet=1)
        switch = RMTSwitch(config, app)
        switch.run(app.workload(config.port_speed_bps))
        assert any("agg_acc" in p.registers for p in switch.ingress)
        assert not any("agg_acc" in p.registers for p in switch.egress)

    def test_slower_than_adcp_equivalent(self, small_rmt_config, small_adcp_config):
        """Headline comparison: same coflow, RMT-with-recirculation versus
        ADCP's global area, both at the same port speed."""
        from repro.adcp.switch import ADCPSwitch

        config = self._config(small_rmt_config)
        rmt_app = ParameterServerApp([0, 1, 4, 5], 128, elements_per_packet=1)
        rmt = RMTSwitch(config, rmt_app)
        rmt_result = rmt.run(rmt_app.workload(config.port_speed_bps))

        adcp_app = ParameterServerApp([0, 1, 4, 5], 128, elements_per_packet=16)
        adcp = ADCPSwitch(small_adcp_config, adcp_app)
        adcp_result = adcp.run(adcp_app.workload(small_adcp_config.port_speed_bps))

        assert rmt_result.duration_s > 2 * adcp_result.duration_s


class TestLazyArrivals:
    """``run`` streams its arrivals: a list, a generator, and one event
    per burst queued before the run (the loop ``run`` replaced) give the
    same run.  With recirculation, loop re-arrivals interleave with host
    arrivals."""

    def _run(self, small_rmt_config, mode):
        watermark = Packet([]).packet_id
        config = dataclasses.replace(
            small_rmt_config, state_mode=StateMode.RECIRCULATE
        )
        app = ParameterServerApp([0, 1, 4, 5], 32, elements_per_packet=1)
        switch = RMTSwitch(config, app)
        arrivals = app.workload(config.port_speed_bps)
        sim = switch._sim
        if mode == "list":
            result = switch.run(list(arrivals))
        elif mode == "generator":
            result = switch.run(arrivals)
        else:
            for time, group in groupby(arrivals, key=itemgetter(0)):
                burst = [packet for _, packet in group]
                sim.at(time, lambda b=burst, t=time: switch.arrive(b, t))
            sim.run()
            result = switch.finalize()
        assert app.collect_results(result.delivered) == app.expected_result()
        assert result.recirculated_packets > 0
        return (
            result.counters,
            sim.events_dispatched,
            sim.events_coalesced,
            result.duration_s,
            [
                (p.packet_id - watermark, p.meta.egress_port,
                 p.meta.departure_time)
                for p in result.delivered
            ],
            len(result.dropped),
            result.recirculated_packets,
        )

    def test_list_generator_and_upfront_bursts_agree(self, small_rmt_config):
        upfront = self._run(small_rmt_config, "upfront")
        assert upfront[2] > 0  # bursts were coalesced
        assert self._run(small_rmt_config, "list") == upfront
        assert self._run(small_rmt_config, "generator") == upfront

    def test_run_with_an_event_already_queued_raises(self, small_rmt_config):
        sim = Simulator()
        sim.at(0.0, lambda: None)
        switch = RMTSwitch(small_rmt_config, sim=sim)
        packet = make_coflow_packet(1, 0, 0, [(0, 0)])
        packet.meta.ingress_port = 0
        packet.meta.egress_port = 7
        with pytest.raises(SimulationError, match="pending events"):
            switch.run([(0.0, packet)])
