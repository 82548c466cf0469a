"""Property tests for the event-kernel scheduling contract.

These pin the invariants the switch models rely on for
reproducibility:

- FIFO tie-breaking: events at equal ``(time, priority)`` dispatch in
  schedule order — the property batched admission leans on;
- the simulated clock never runs backwards during a drain;
- ``len(sim.queue)`` counts exactly the events still to fire, under
  cancellation;
- cancelling is idempotent, and a cancelled event is never peeked at
  or dispatched.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.event import Simulator


def _recorder(sim, fired, tag):
    """An action that logs ``(tag, now)`` when it fires."""
    return lambda: fired.append((tag, sim.now))


class TestFifoTieBreaking:
    def test_equal_time_equal_priority_pops_in_push_order(self):
        sim = Simulator()
        fired = []
        handles = [
            sim.at(1.0, _recorder(sim, fired, i), priority=3)
            for i in range(50)
        ]
        assert handles == sorted(handles)
        sim.run()
        assert [tag for tag, _ in fired] == list(range(50))

    def test_priority_beats_sequence_within_a_time(self):
        sim = Simulator()
        fired = []
        sim.at(2.0, _recorder(sim, fired, "late_low"), priority=0)
        sim.at(1.0, _recorder(sim, fired, "first_high"), priority=1)
        sim.at(1.0, _recorder(sim, fired, "second_low"), priority=0)
        sim.run()
        # Lower priority value first within a time.
        assert [tag for tag, _ in fired] == [
            "second_low", "first_high", "late_low"
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, 2.5]), st.integers(-1, 1)),
            min_size=1,
            max_size=64,
        )
    )
    def test_equal_keys_keep_schedule_order(self, entries):
        sim = Simulator()
        fired = []
        keys = [
            (time, priority, sim.at(time, lambda i=i: fired.append(i), priority))
            for i, (time, priority) in enumerate(entries)
        ]
        sim.run()
        assert [keys[i] for i in fired] == sorted(keys)


class TestMonotonicClock:
    @settings(max_examples=100, deadline=None)
    @given(
        delays=st.lists(
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_now_never_decreases(self, delays):
        sim = Simulator()
        observed = []

        def record():
            observed.append(sim.now)
            if len(observed) < len(delays) + 5:
                sim.after(0.0, record)  # same-time follow-on

        for delay in delays:
            sim.at(delay, record)
        sim.run(max_events=500)
        assert observed == sorted(observed)

    def test_until_bound_is_inclusive_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1.0))
        sim.at(2.0, lambda: fired.append(2.0))
        sim.at(3.0, lambda: fired.append(3.0))
        sim.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 3.0


class TestLiveCountUnderCancellation:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_len_tracks_live_events_exactly(self, data):
        sim = Simulator()
        keys = []  # (time, handle) per scheduled event, by index
        pending = set()
        fired = []
        ops = data.draw(
            st.lists(st.sampled_from(["push", "cancel", "pop"]),
                     min_size=1, max_size=80)
        )
        for step, op in enumerate(ops):
            if op == "push":
                index = len(keys)
                time = float(step % 7)
                handle = sim.at(
                    max(time, sim.now), lambda i=index: fired.append(i)
                )
                keys.append((max(time, sim.now), handle))
                pending.add(index)
            elif op == "cancel" and keys:
                index = data.draw(
                    st.integers(0, len(keys) - 1), label="cancel_index"
                )
                assert sim.cancel(keys[index][1]) is (index in pending)
                pending.discard(index)
            elif op == "pop":
                if sim.step():
                    # Exactly one event fired: the earliest pending one.
                    assert fired[-1] == min(pending, key=keys.__getitem__)
                    pending.remove(fired[-1])
                else:
                    assert not pending
            assert len(sim.queue) == len(pending)
        # Drain: exactly the live events remain.
        assert sim.run() == len(pending)
        assert len(sim.queue) == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False
        assert sim.cancel(handle) is False
        assert len(sim.queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        sim = Simulator()
        fired = []
        handle = sim.at(1.0, lambda: fired.append("first"))
        sim.at(2.0, lambda: fired.append("second"))
        assert sim.step() and fired == ["first"]
        # Stale handle: the event already fired.
        assert sim.cancel(handle) is False
        assert len(sim.queue) == 1
        assert sim.step()
        assert len(sim.queue) == 0


class TestPeekNeverResurrects:
    def test_peek_skips_cancelled_head(self):
        sim = Simulator()
        fired = []
        head = sim.at(1.0, lambda: fired.append(1.0))
        sim.at(5.0, lambda: fired.append(5.0))
        sim.cancel(head)
        assert sim.peek_time() == 5.0
        assert sim.step() and fired == [5.0]

    def test_peek_on_fully_cancelled_queue_is_none(self):
        sim = Simulator()
        handles = [sim.at(float(i), lambda: None) for i in range(10)]
        for handle in handles:
            sim.cancel(handle)
        assert sim.peek_time() is None
        assert sim.step() is False
        assert len(sim.queue) == 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_peek_always_matches_next_pop(self, data):
        sim = Simulator()
        fired = []
        times = data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 7.25]),
                     min_size=1, max_size=60)
        )
        handles = [
            sim.at(time, lambda i=i: fired.append(i))
            for i, time in enumerate(times)
        ]
        cancelled = set(
            data.draw(st.lists(st.integers(0, len(handles) - 1), max_size=30))
        )
        for index in cancelled:
            sim.cancel(handles[index])
        while True:
            peeked = sim.peek_time()
            if not sim.step():
                assert peeked is None
                break
            assert peeked == sim.now == times[fired[-1]]
            assert fired[-1] not in cancelled
        assert len(fired) == len(times) - len(cancelled)
