"""Tumbling-window monitor tests: boundaries, empty windows, deltas."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve.windows import BASE_METRICS, RollingWindowMonitor

_NS = 1e-9


def _monitor(window_ns=100.0, **kwargs):
    return RollingWindowMonitor(window_ns, **kwargs)


class TestRegistration:
    def test_duplicate_metric_rejected(self):
        monitor = _monitor()
        monitor.gauge("depth", lambda t: 0.0)
        with pytest.raises(ConfigError, match="duplicate"):
            monitor.counter("depth", lambda t: 0.0)

    def test_base_metric_collision_rejected(self):
        monitor = _monitor()
        with pytest.raises(ConfigError, match="duplicate"):
            monitor.gauge("delivered", lambda t: 0.0)

    def test_registration_after_first_close_rejected(self):
        monitor = _monitor()
        monitor(150.0 * _NS)  # closes window 0
        with pytest.raises(ConfigError, match="first window closed"):
            monitor.gauge("late", lambda t: 0.0)
        with pytest.raises(ConfigError, match="first window closed"):
            monitor.set_drop_counter(lambda t: 0.0)

    def test_metric_names_cover_base_and_registered(self):
        monitor = _monitor()
        monitor.gauge("depth", lambda t: 0.0)
        monitor.counter("retries", lambda t: 0.0)
        names = monitor.metric_names()
        assert set(BASE_METRICS) <= set(names)
        assert "depth" in names and "retries" in names

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ConfigError, match="positive"):
            RollingWindowMonitor(0.0)


class TestBoundaries:
    def test_deadline_tracks_window_index(self):
        monitor = _monitor(100.0)
        assert monitor.next_deadline_s() == pytest.approx(100.0 * _NS)
        monitor(100.0 * _NS)
        assert monitor.next_deadline_s() == pytest.approx(200.0 * _NS)

    def test_advance_within_window_is_noop(self):
        monitor = _monitor(100.0)
        monitor(99.0 * _NS)
        assert monitor.records == []

    def test_boundary_tick_closes_exactly_one_window(self):
        monitor = _monitor(100.0)
        monitor(100.0 * _NS)
        assert [r["window"] for r in monitor.records] == [0]

    def test_boundary_delivery_lands_in_next_window(self):
        # The kernel probes *before* the boundary event executes, so a
        # delivery recorded at exactly t=window lands in window 1.
        monitor = _monitor(100.0)
        monitor(100.0 * _NS)  # probe fires first (window 0 closes empty)
        monitor.record_delivery(100.0 * _NS)
        monitor(200.0 * _NS)
        assert monitor.records[0]["delivered"] == 0
        assert monitor.records[1]["delivered"] == 1

    def test_large_advance_closes_every_crossed_window(self):
        monitor = _monitor(100.0)
        monitor.record_delivery(10.0 * _NS)
        monitor(350.0 * _NS)
        assert [r["window"] for r in monitor.records] == [0, 1, 2]
        assert [r["delivered"] for r in monitor.records] == [1, 0, 0]

    def test_window_stamps_are_exact_ns_multiples(self):
        monitor = _monitor(1_000.0)
        monitor(3_500.0 * _NS)
        assert [(r["start_ns"], r["end_ns"]) for r in monitor.records] == [
            (0.0, 1_000.0),
            (1_000.0, 2_000.0),
            (2_000.0, 3_000.0),
        ]

    def test_finish_emits_partial_window(self):
        monitor = _monitor(100.0)
        monitor(120.0 * _NS)  # probe precedes the event, closing window 0
        monitor.record_delivery(120.0 * _NS)
        monitor.finish(150.0 * _NS)
        assert [r["window"] for r in monitor.records] == [0, 1]
        assert monitor.records[1]["delivered"] == 1

    def test_finish_on_exact_boundary_adds_nothing(self):
        monitor = _monitor(100.0)
        monitor(200.0 * _NS)
        monitor.finish(200.0 * _NS)
        assert len(monitor.records) == 2


class TestRecords:
    def test_empty_window_has_none_latency_stats(self):
        monitor = _monitor(100.0)
        monitor.finish(100.0 * _NS)
        (record,) = monitor.records
        assert record["delivered"] == 0
        assert record["latency_samples"] == 0
        assert record["p50_latency_ns"] is None
        assert record["p99_latency_ns"] is None
        assert record["mean_latency_ns"] is None
        assert record["max_latency_ns"] is None
        assert record["mean_cct_ns"] is None
        assert record["drop_rate"] == 0.0

    def test_latency_percentiles(self):
        monitor = _monitor(100.0)
        for latency in (10.0, 20.0, 30.0, 40.0):
            monitor.record_delivery(50.0 * _NS, latency)
        monitor(100.0 * _NS)
        (record,) = monitor.records
        assert record["latency_samples"] == 4
        assert record["max_latency_ns"] == 40.0
        assert record["mean_latency_ns"] == pytest.approx(25.0)
        assert record["p50_latency_ns"] <= record["p99_latency_ns"]

    def test_offered_counts_respect_boundaries(self):
        monitor = _monitor(100.0)
        # Departure exactly on the boundary belongs to the next window
        # (strict <), matching delivery semantics.
        departures = [10.0 * _NS, 99.0 * _NS, 100.0 * _NS, 150.0 * _NS]
        monitor.set_offered_counter(
            lambda t: sum(1 for d in departures if d < t)
        )
        monitor(250.0 * _NS)
        offered = [r["offered"] for r in monitor.records]
        assert offered == [2, 2]

    def test_counter_records_deltas(self):
        total = {"value": 0.0}
        monitor = _monitor(100.0)
        monitor.counter("retries", lambda t: total["value"])
        total["value"] = 3.0
        monitor(100.0 * _NS)
        total["value"] = 7.0
        monitor(200.0 * _NS)
        assert [r["retries"] for r in monitor.records] == [3.0, 4.0]

    def test_drop_counter_feeds_drop_rate(self):
        total = {"value": 0.0}
        monitor = _monitor(100.0)
        monitor.set_drop_counter(lambda t: total["value"])
        monitor.record_delivery(10.0 * _NS)
        total["value"] = 1.0
        monitor(100.0 * _NS)
        (record,) = monitor.records
        assert record["dropped"] == 1.0
        assert record["drop_rate"] == pytest.approx(0.5)

    def test_gauges_sampled_at_close_time(self):
        seen = []
        monitor = _monitor(100.0)
        monitor.gauge("depth", lambda t: seen.append(t) or 42.0)
        monitor(100.0 * _NS)
        assert monitor.records[0]["depth"] == 42.0
        assert seen == [pytest.approx(100.0 * _NS)]

    def test_on_window_fires_in_order_with_final_record(self):
        closed = []
        monitor = _monitor(100.0, on_window=closed.append)
        monitor.record_delivery(10.0 * _NS)
        monitor(300.0 * _NS)
        assert [r["window"] for r in closed] == [0, 1, 2]
        assert closed[0]["delivered"] == 1

    def test_cct_stats(self):
        monitor = _monitor(100.0)
        monitor.record_cct(50.0 * _NS, 500.0)
        monitor.record_cct(60.0 * _NS, 300.0)
        monitor(100.0 * _NS)
        (record,) = monitor.records
        assert record["coflows_completed"] == 2
        assert record["mean_cct_ns"] == pytest.approx(400.0)
        assert record["max_cct_ns"] == 500.0
