"""Tests for traffic sources (repro.net.traffic)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SimulationError
from repro.net.headers import COFLOW_HEADER, coflow_header, standard_stack
from repro.net.traffic import (
    DeterministicSource,
    PoissonSource,
    _template_headers,
    coflow_wire_bytes,
    inject_bursts,
    make_coflow_packet,
    merge_sources,
)
from repro.sim.event import ARRIVAL_PRIORITY, Simulator
from repro.sim.rng import make_rng
from repro.units import BITS_PER_BYTE, GBPS


def _packets(n, elements=1):
    return [
        make_coflow_packet(1, 0, i, [(j, j) for j in range(elements)])
        for i in range(n)
    ]


class TestMakeCoflowPacket:
    def test_header_and_payload_consistency(self):
        packet = make_coflow_packet(4, 2, 7, [(1, 10), (2, 20)], opcode=3)
        header = packet.header("coflow")
        assert header["coflow_id"] == 4
        assert header["flow_id"] == 2
        assert header["seq"] == 7
        assert header["opcode"] == 3
        assert header["element_count"] == 2
        assert packet.element_count == 2


#: make_coflow_packet keyword that carries each coflow-header field
#: (``element_count`` is the length of the element list).
_FIELD_ARGS = {
    "coflow_id": "coflow_id",
    "flow_id": "flow_id",
    "seq": "seq",
    "opcode": "opcode",
    "element_count": None,
    "element_width_bytes": "element_width_bytes",
    "worker_id": "worker_id",
    "round": "round_",
}


def _packet_with(field, value):
    kwargs = dict(coflow_id=1, flow_id=2, seq=3, elements=[(0, 0)])
    if field == "element_count":
        kwargs["elements"] = [(i, i) for i in range(value)]
    else:
        kwargs[_FIELD_ARGS[field]] = value
    return make_coflow_packet(**kwargs)


class TestCoflowPacketBuilder:
    """The one-pass header builder matches the field-by-field reference."""

    def test_plan_covers_every_coflow_field(self):
        assert set(_FIELD_ARGS) == {f.name for f in COFLOW_HEADER.fields}

    @pytest.mark.parametrize("spec", COFLOW_HEADER.fields, ids=lambda f: f.name)
    def test_each_field_accepts_max_and_rejects_max_plus_one(self, spec):
        packet = _packet_with(spec.name, spec.max_value)
        assert packet.header("coflow")[spec.name] == spec.max_value
        with pytest.raises(ConfigError, match=f"coflow.{spec.name} "):
            _packet_with(spec.name, spec.max_value + 1)

    def test_negative_value_rejected(self):
        with pytest.raises(ConfigError, match="coflow.seq "):
            make_coflow_packet(1, 2, -1, [(0, 0)])

    @pytest.mark.parametrize("spec", COFLOW_HEADER.fields, ids=lambda f: f.name)
    def test_out_of_range_message_matches_item_assignment(self, spec):
        """Every out-of-range field fails with the exact message a
        header write of that value raises."""
        bad = [spec.max_value + 1]
        if spec.name != "element_count":  # a list cannot be shorter than 0
            bad.append(-1)
        for value in bad:
            with pytest.raises(ConfigError) as expected:
                COFLOW_HEADER.instantiate()[spec.name] = value
            with pytest.raises(ConfigError) as built:
                _packet_with(spec.name, value)
            assert str(built.value) == str(expected.value)

    def test_first_out_of_range_field_is_reported(self):
        with pytest.raises(ConfigError, match="coflow.flow_id "):
            make_coflow_packet(1, -2, -3, [(0, 0)], opcode=256)

    def test_zero_element_width_rejected(self):
        with pytest.raises(ConfigError, match="element width"):
            make_coflow_packet(1, 2, 3, [(0, 0)], element_width_bytes=0)

    def test_matches_reference_stack_field_for_field(self):
        elements = [(5, 50), (6, 60), (7, 70)]
        packet = make_coflow_packet(
            9, 4, 11, elements, element_width_bytes=4, opcode=2,
            worker_id=3, round_=6, src_ip=0x0A000001, dst_ip=0x0A000002,
        )
        reference = standard_stack(src_ip=0x0A000001, dst_ip=0x0A000002)
        reference.append(
            coflow_header(9, 4, seq=11, opcode=2, element_count=3,
                          element_width_bytes=4, worker_id=3, round_=6)
        )
        assert packet.headers == reference
        for built, expected in zip(packet.headers, reference):
            assert dict(built.items()) == dict(expected.items())
            assert list(built.items()) == list(expected.items())
        assert [(e.key, e.value) for e in packet.payload] == elements
        assert packet.payload.element_width_bytes == 4

    @pytest.mark.parametrize(
        "count,width", [(0, 8), (1, 8), (3, 4), (16, 8), (64, 8)]
    )
    def test_shared_sizes_match_recomputed(self, count, width):
        packet = make_coflow_packet(
            1, 2, 3, [(i, i) for i in range(count)], element_width_bytes=width
        )
        shared = (packet.header_bytes, packet.payload_bytes,
                  packet.frame_bytes, packet.wire_bytes)
        packet.headers = packet.headers  # drops the size cache
        assert (packet.header_bytes, packet.payload_bytes,
                packet.frame_bytes, packet.wire_bytes) == shared
        assert coflow_wire_bytes(count, width) == packet.wire_bytes

    def test_headers_are_copied_never_aliased(self):
        first = make_coflow_packet(1, 0, 0, [(0, 0)])
        second = make_coflow_packet(1, 0, 1, [(0, 0)])
        template = standard_stack()
        for name, field in (
            ("ethernet", "dst_mac"), ("ipv4", "ttl"), ("udp", "src_port"),
        ):
            first.header(name)[field] = 7
            assert second.header(name)[field] != 7
            assert first.header(name) is not second.header(name)
        third = make_coflow_packet(1, 0, 2, [(0, 0)])
        assert third.headers[:3] == template

    def test_template_stack_survives_writes_to_built_packets(self):
        """Packets share the template's values copy-on-write: writing
        ``ipv4``/``coflow`` fields of built packets never reaches the
        template or any other packet."""
        template = _template_headers()
        before = [dict(h.items()) for h in template]
        packets = [
            make_coflow_packet(
                1, i % 7, i, [(i, i)], src_ip=i % 3, dst_ip=i % 5
            )
            for i in range(1000)
        ]
        for i, packet in enumerate(packets[::3]):
            packet.header("ipv4")["ttl"] = i % 256
            packet.header("ipv4")["dst_ip"] = 0xFFFFFFFF
            packet.header("coflow")["round"] = 99
        assert [dict(h.items()) for h in template] == before
        assert template == standard_stack()
        untouched = packets[1]
        assert untouched.header("ipv4")["ttl"] == 64
        assert untouched.header("ipv4")["dst_ip"] == 1
        assert untouched.header("coflow")["round"] == 0


class TestDeterministicSource:
    def test_back_to_back_spacing_equals_wire_time(self):
        packets = _packets(3)
        source = DeterministicSource(0, 100 * GBPS, packets)
        times = [t for t, _ in source.packets()]
        gap = packets[0].wire_bytes * BITS_PER_BYTE / (100 * GBPS)
        assert times[1] - times[0] == pytest.approx(gap)
        assert times[2] - times[1] == pytest.approx(gap)

    def test_stamps_port_and_arrival(self):
        source = DeterministicSource(5, GBPS, _packets(1))
        time, packet = next(iter(source.packets()))
        assert packet.meta.ingress_port == 5
        assert packet.meta.arrival_time == time

    def test_start_time_offset(self):
        source = DeterministicSource(0, GBPS, _packets(1), start_time=1.0)
        time, _ = next(iter(source.packets()))
        assert time == 1.0

    def test_line_rate_total_duration(self):
        """N back-to-back packets occupy exactly N wire times."""
        packets = _packets(10)
        source = DeterministicSource(0, 100 * GBPS, packets)
        times = [t for t, _ in source.packets()]
        wire = packets[0].wire_bytes * BITS_PER_BYTE / (100 * GBPS)
        assert times[-1] == pytest.approx(9 * wire)

    def test_invalid_speed(self):
        with pytest.raises(ConfigError):
            DeterministicSource(0, 0, [])

    def test_invalid_port(self):
        with pytest.raises(ConfigError):
            DeterministicSource(-1, GBPS, [])


class TestPoissonSource:
    def test_mean_rate_approximates_load(self):
        packets = _packets(2000)
        source = PoissonSource(0, 100 * GBPS, packets, load=0.5, rng=make_rng(1))
        times = [t for t, _ in source.packets()]
        duration = times[-1]
        wire_bits = sum(p.wire_bytes for p in packets) * BITS_PER_BYTE
        achieved_load = wire_bits / (100 * GBPS * duration)
        assert achieved_load == pytest.approx(0.5, rel=0.1)

    def test_times_are_increasing(self):
        source = PoissonSource(0, GBPS, _packets(100), load=0.9, rng=make_rng(2))
        times = [t for t, _ in source.packets()]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_invalid_load(self):
        with pytest.raises(ConfigError):
            PoissonSource(0, GBPS, [], load=0.0, rng=make_rng())
        with pytest.raises(ConfigError):
            PoissonSource(0, GBPS, [], load=1.5, rng=make_rng())

    def test_empty_stream(self):
        source = PoissonSource(0, GBPS, [], load=0.5, rng=make_rng())
        assert list(source.packets()) == []


class TestMergeSources:
    def test_global_time_order(self):
        fast = DeterministicSource(0, 100 * GBPS, _packets(5))
        slow = DeterministicSource(1, 10 * GBPS, _packets(5))
        merged = list(merge_sources([fast, slow]))
        times = [t for t, _ in merged]
        assert times == sorted(times)
        assert len(merged) == 10

    def test_preserves_per_source_order(self):
        a = DeterministicSource(0, GBPS, _packets(3))
        merged = list(merge_sources([a]))
        seqs = [p.header("coflow")["seq"] for _, p in merged]
        assert seqs == [0, 1, 2]

    def test_empty_sources_ok(self):
        a = DeterministicSource(0, GBPS, [])
        assert list(merge_sources([a])) == []


def _timed(times):
    """``(time, packet)`` pairs, one packet per time."""
    return list(zip(times, _packets(len(times))))


class TestInjectBursts:
    """The standalone run loop: lazy, burst-per-timestamp admission."""

    def _drive(self, timed, until=None):
        sim = Simulator()
        pulls, admitted = [], []

        def stream():
            for entry in timed:
                pulls.append((entry[1].packet_id, sim.now))
                yield entry

        def arrive(burst, time):
            admitted.append((time, sim.now, [p.packet_id for p in burst]))

        inject_bursts(sim, stream(), arrive)
        sim.run(until=until)
        return sim, pulls, admitted

    def test_one_event_per_timestamp_in_stream_order(self):
        timed = _timed([0.0, 0.0, 1.0, 2.0, 2.0, 2.0])
        ids = [p.packet_id for _, p in timed]
        sim, _, admitted = self._drive(timed)
        assert admitted == [
            (0.0, 0.0, ids[0:2]),
            (1.0, 1.0, ids[2:3]),
            (2.0, 2.0, ids[3:6]),
        ]
        assert sim.events_dispatched == 3

    def test_packet_pulled_no_earlier_than_the_burst_before_it(self):
        times = [0.0, 0.0, 1.0, 2.0, 2.0, 3.0]
        _, pulls, _ = self._drive(_timed(times))
        bursts = sorted(set(times))
        for (_, now), time in zip(pulls, times):
            previous = [t for t in bursts if t < time]
            assert (previous[-1] if previous else 0.0) <= now <= time
        # A burst's head is pulled by the burst before it, to find where
        # that one ends; the rest of a burst is pulled by its own event.
        assert [now for _, now in pulls] == [0.0, 0.0, 0.0, 1.0, 2.0, 2.0]

    def test_until_leaves_later_arrivals_unpulled(self):
        times = [0.0, 1.0, 2.0, 3.0, 4.0]
        sim, pulls, admitted = self._drive(_timed(times), until=2.0)
        assert [a[0] for a in admitted] == [0.0, 1.0, 2.0]
        assert len(pulls) == 4  # the head of the 3.0 burst, armed
        assert sim.now == 2.0
        assert [entry[:2] for entry in sim.queue] == [(3.0, ARRIVAL_PRIORITY)]

    def test_arrivals_run_first_at_their_timestamp(self):
        sim = Simulator()
        order = []

        def arrive(burst, time):
            order.append(("arrive", time))
            # Work the admission schedules at the next arrival's time
            # runs after that arrival, as it did when every burst was
            # queued before the run.
            sim.at(time + 1.0, lambda t=time + 1.0: order.append(("work", t)))

        inject_bursts(sim, iter(_timed([0.0, 1.0, 2.0])), arrive)
        sim.run()
        assert order == [
            ("arrive", 0.0),
            ("arrive", 1.0),
            ("work", 1.0),
            ("arrive", 2.0),
            ("work", 2.0),
            ("work", 3.0),
        ]

    def test_pending_event_at_arming_raises(self):
        sim = Simulator()
        sim.at(0.0, lambda: None)
        with pytest.raises(SimulationError, match="1 pending events"):
            inject_bursts(sim, _timed([0.0]), lambda burst, time: None)

    def test_empty_stream_schedules_nothing(self):
        sim = Simulator()
        inject_bursts(sim, [], lambda burst, time: None)
        assert sim.queue == []
