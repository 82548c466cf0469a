"""Behavioral tests for the ADCP switch (repro.adcp.switch).

These encode the section 3 claims: any-port reachability from the global
area, array-wide stateful processing, and demuxed lane clocks.
"""

from __future__ import annotations

import dataclasses
from itertools import groupby
from operator import itemgetter

import pytest

from repro.adcp.config import ADCPConfig
from repro.adcp.switch import ADCPSwitch
from repro.apps import ParameterServerApp
from repro.arch.app import SwitchApp
from repro.arch.decision import Decision
from repro.errors import ConfigError, SimulationError
from repro.net.packet import Packet
from repro.net.traffic import DeterministicSource, make_coflow_packet
from repro.sim.event import Simulator
from repro.units import GBPS


def _forwarding_run(config, n=40, ingress=0, egress=7):
    switch = ADCPSwitch(config)
    packets = []
    for i in range(n):
        packet = make_coflow_packet(1, 0, i, [(i, i)])
        packet.meta.egress_port = egress
        packets.append(packet)
    source = DeterministicSource(ingress, config.port_speed_bps, packets)
    return switch, switch.run(source.packets())


class TestForwarding:
    def test_delivery(self, small_adcp_config):
        switch, result = _forwarding_run(small_adcp_config)
        assert result.delivered_count == 40
        assert not result.dropped

    def test_lanes_round_robin(self, small_adcp_config):
        switch, result = _forwarding_run(small_adcp_config, n=10)
        lanes = {p.meta.lane for p in result.delivered}
        assert lanes == {0, 1}  # both lanes of port 0

    def test_all_packets_traverse_central(self, small_adcp_config):
        switch, result = _forwarding_run(small_adcp_config, n=10)
        assert all(p.meta.central_pipeline is not None for p in result.delivered)

    def test_tm1_places_by_key_hash(self, small_adcp_config):
        switch, result = _forwarding_run(small_adcp_config, n=100)
        histogram = switch.tm1.partition_histogram()
        assert sum(histogram) == 100
        assert all(count > 0 for count in histogram)

    def test_multicast_via_tm2(self, small_adcp_config):
        switch = ADCPSwitch(small_adcp_config)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_ports = (2, 5, 7)
        result = switch.run([(0.0, packet)])
        assert sorted(p.meta.egress_port for p in result.delivered) == [2, 5, 7]
        assert result.recirculated_packets == 0


class TestGlobalArea:
    def test_aggregation_reaches_every_port_without_recirculation(
        self, small_adcp_config
    ):
        """Figure 5: results placed by hash can still exit any port."""
        app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=16)
        switch = ADCPSwitch(small_adcp_config, app)
        result = switch.run(app.workload(small_adcp_config.port_speed_bps))
        assert app.collect_results(result.delivered) == app.expected_result()
        assert result.recirculated_packets == 0
        delivered_ports = {p.meta.egress_port for p in result.delivered}
        assert delivered_ports == {0, 1, 4, 5}

    def test_state_partitioned_across_central_pipelines(self, small_adcp_config):
        app = ParameterServerApp([0, 1, 4, 5], 256, elements_per_packet=16)
        switch = ADCPSwitch(small_adcp_config, app)
        switch.run(app.workload(small_adcp_config.port_speed_bps))
        with_state = [c for c in switch.central if "agg_acc" in c.registers]
        assert len(with_state) >= 2  # spread, not pinned

    def test_ingress_and_egress_hold_no_aggregation_state(self, small_adcp_config):
        app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=16)
        switch = ADCPSwitch(small_adcp_config, app)
        switch.run(app.workload(small_adcp_config.port_speed_bps))
        assert not any("agg_acc" in p.registers for p in switch.ingress)
        assert not any("agg_acc" in p.registers for p in switch.egress)


class TestArraySupport:
    def test_wide_app_accepted_up_to_array_width(self, small_adcp_config):
        ParameterServerApp([0, 1], 32, elements_per_packet=16)
        ADCPSwitch(
            small_adcp_config,
            ParameterServerApp([0, 1], 32, elements_per_packet=16),
        )

    def test_wider_than_array_rejected(self, small_adcp_config):
        config = dataclasses.replace(small_adcp_config, array_width=8)
        app = ParameterServerApp([0, 1], 32, elements_per_packet=16)
        with pytest.raises(ConfigError):
            ADCPSwitch(config, app)

    def test_wide_packets_need_fewer_packets_for_same_elements(
        self, small_adcp_config
    ):
        """Same vector, 16x fewer packets — the key-rate argument at the
        packet level."""
        wide = ParameterServerApp([0, 1], 256, elements_per_packet=16)
        scalar = ParameterServerApp([0, 1], 256, elements_per_packet=1)
        wide_switch = ADCPSwitch(small_adcp_config, wide)
        wide_result = wide_switch.run(
            wide.workload(small_adcp_config.port_speed_bps)
        )
        scalar_switch = ADCPSwitch(small_adcp_config, scalar)
        scalar_result = scalar_switch.run(
            scalar.workload(small_adcp_config.port_speed_bps)
        )
        assert wide.collect_results(wide_result.delivered) == wide.expected_result()
        assert scalar.collect_results(
            scalar_result.delivered
        ) == scalar.expected_result()
        assert scalar_result.consumed >= 8 * wide_result.consumed
        assert scalar_result.duration_s > 3 * wide_result.duration_s


class TestProgrammingModelGuards:
    def test_recirculate_verdict_rejected(self, small_adcp_config):
        class BadApp(SwitchApp):
            def __init__(self):
                super().__init__("bad")

            def ingress(self, ctx, packet, phv):
                return Decision.recirculate()

        switch = ADCPSwitch(small_adcp_config, BadApp())
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_port = 1
        with pytest.raises(ConfigError):
            switch.run([(0.0, packet)])

    def test_egress_emission_rejected(self, small_adcp_config):
        class BadApp(SwitchApp):
            def __init__(self):
                super().__init__("bad")

            def egress(self, ctx, packet, phv):
                extra = make_coflow_packet(1, 0, 0, [(1, 1)])
                extra.meta.egress_port = 0
                return Decision.forward(extra)

        switch = ADCPSwitch(small_adcp_config, BadApp())
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_port = 1
        with pytest.raises(ConfigError):
            switch.run([(0.0, packet)])

    def test_no_route_drop(self, small_adcp_config):
        switch = ADCPSwitch(small_adcp_config)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        result = switch.run([(0.0, packet)])
        assert result.dropped[0].meta.drop_reason == "no_route"


class TestLazyArrivals:
    """``run`` streams its arrivals: a list, a generator, and one event
    per burst queued before the run (the loop ``run`` replaced) give the
    same run.  Array packets fan results out to every worker port
    through TM2."""

    def _run(self, small_adcp_config, mode):
        watermark = Packet([]).packet_id
        config = small_adcp_config
        app = ParameterServerApp([0, 1, 4, 5], 128, elements_per_packet=16)
        switch = ADCPSwitch(config, app)
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
        )

    def test_list_generator_and_upfront_bursts_agree(self, small_adcp_config):
        upfront = self._run(small_adcp_config, "upfront")
        assert upfront[2] > 0  # bursts were coalesced
        assert self._run(small_adcp_config, "list") == upfront
        assert self._run(small_adcp_config, "generator") == upfront

    def test_run_with_an_event_already_queued_raises(self, small_adcp_config):
        sim = Simulator()
        sim.at(0.0, lambda: None)
        switch = ADCPSwitch(small_adcp_config, sim=sim)
        packet = make_coflow_packet(1, 0, 0, [(0, 0)])
        packet.meta.ingress_port = 0
        packet.meta.egress_port = 7
        with pytest.raises(SimulationError, match="pending events"):
            switch.run([(0.0, packet)])
