"""Tests for the discrete-event kernel (repro.sim.event)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.event import Simulator


class TestEventQueue:
    def test_pop_returns_earliest(self):
        sim = Simulator()
        order = []
        sim.at(2.0, lambda: order.append("b"))
        sim.at(1.0, lambda: order.append("a"))
        assert sim.step() is True
        assert order == ["a"] and sim.now == 1.0

    def test_fifo_tiebreak_at_equal_time(self):
        sim = Simulator()
        order = []
        first = sim.at(1.0, lambda: order.append("first"))
        second = sim.at(1.0, lambda: order.append("second"))
        assert first < second
        sim.run()
        assert order == ["first", "second"]

    def test_priority_orders_within_time(self):
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: order.append("low"), priority=5)
        sim.at(1.0, lambda: order.append("high"), priority=1)
        sim.step()
        assert order == ["high"]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.at(1.0, lambda: fired.append(1.0))
        sim.at(2.0, lambda: fired.append(2.0))
        assert sim.cancel(handle) is True
        assert sim.run() == 1
        assert fired == [2.0]

    def test_len_excludes_cancelled(self):
        sim = Simulator()
        handle = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        assert len(sim.queue) == 2
        sim.cancel(handle)
        assert len(sim.queue) == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        handle = sim.at(1.0, lambda: None)
        sim.at(3.0, lambda: None)
        sim.cancel(handle)
        assert sim.peek_time() == 3.0

    def test_peek_empty_returns_none(self):
        sim = Simulator()
        assert sim.peek_time() is None
        assert sim.step() is False


class TestSimulator:
    def test_runs_events_in_time_order(self):
        sim = Simulator()
        order: list[str] = []
        sim.at(2.0, lambda: order.append("late"))
        sim.at(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 2.0

    def test_after_is_relative(self):
        sim = Simulator()
        times: list[float] = []
        sim.at(1.0, lambda: sim.after(0.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.5]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_until_bound_leaves_later_events_queued(self):
        sim = Simulator()
        fired: list[float] = []
        sim.at(1.0, lambda: fired.append(1.0))
        sim.at(5.0, lambda: fired.append(5.0))
        sim.run(until=2.0)
        assert fired == [1.0]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1.0, 5.0]

    def test_until_inclusive(self):
        sim = Simulator()
        fired: list[float] = []
        sim.at(2.0, lambda: fired.append(2.0))
        sim.run(until=2.0)
        assert fired == [2.0]

    def test_max_events_bound(self):
        sim = Simulator()
        for i in range(10):
            sim.at(float(i), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.run() == 7

    def test_events_scheduled_during_run_are_dispatched(self):
        sim = Simulator()
        seen: list[str] = []

        def outer() -> None:
            seen.append("outer")
            sim.after(1.0, lambda: seen.append("inner"))

        sim.at(0.0, outer)
        sim.run()
        assert seen == ["outer", "inner"]

    def test_step_dispatches_one(self):
        sim = Simulator()
        sim.at(0.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_events_dispatched_counter(self):
        sim = Simulator()
        sim.at(0.0, lambda: None)
        sim.at(1.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 2
