"""Differential equivalence of the kernel's dispatch loops.

The kernel has one queue and two dispatch loops: the fast loop every
uninstrumented run takes, and the instrumented reference loop that
honours traces, opaque time probes and ``max_events``.  The kernel's
correctness claim is that the two are observation-equivalent: the same
dispatch order, the same clock readings, the same probe crossings.
These tests drive randomly generated schedules through both loops
(Hypothesis shrinks failures to minimal schedules) and require
identical observable logs.

The op language covers the full scheduling surface: absolute scheduling
(``at``), relative scheduling (``after``), priorities (including ties),
cancellation of pending events, events that schedule further events from
inside their own dispatch, and bounded drains (``until``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.event import Simulator

# Times are drawn from a small grid so equal-time ties are common rather
# than astronomically rare.
_TIMES = st.integers(0, 40).map(lambda t: t * 0.25)
_PRIORITIES = st.integers(-2, 2)


@st.composite
def schedules(draw):
    """A schedule: ops applied up front, plus nested ops fired mid-run.

    Each top-level op is one of:
      ("at", time, priority, nested) — schedule; ``nested`` is a list of
          (delay, priority) pairs the event schedules when it fires;
      ("after", delay, priority, nested) — relative variant;
      ("cancel", index) — cancel the index-th scheduled event (modulo the
          number scheduled so far; ignored when nothing is pending).
    """
    nested = st.lists(
        st.tuples(_TIMES, _PRIORITIES), min_size=0, max_size=2
    )
    op = st.one_of(
        st.tuples(st.just("at"), _TIMES, _PRIORITIES, nested),
        st.tuples(st.just("after"), _TIMES, _PRIORITIES, nested),
        st.tuples(st.just("cancel"), st.integers(0, 64)),
    )
    ops = draw(st.lists(op, min_size=1, max_size=40))
    until = draw(st.one_of(st.none(), _TIMES))
    return ops, until


def _run_schedule(ops, until, force_instrumented=False):
    """Apply a schedule to a fresh Simulator; return its observable log.

    The log records every dispatch as ``(tag, now)`` — ``tag`` is the
    schedule position that created the event, so two runs agree iff
    they fired the same events at the same clock readings in the same
    order.  ``force_instrumented=True`` routes the schedule through the
    reference loop via ``max_events``.
    """
    sim = Simulator()
    log: list[tuple[str, float]] = []
    handles: list = []

    def make_action(tag, nested):
        def action() -> None:
            log.append((tag, sim.now))
            for i, (delay, priority) in enumerate(nested):
                handles.append(
                    sim.after(delay, make_action(f"{tag}.n{i}", ()), priority)
                )

        return action

    for index, op in enumerate(ops):
        if op[0] == "cancel":
            if handles:
                sim.cancel(handles[op[1] % len(handles)])
            continue
        kind, value, priority, nested = op
        action = make_action(f"op{index}", nested)
        if kind == "at":
            handles.append(sim.at(value, action, priority))
        else:
            handles.append(sim.after(value, action, priority))

    if force_instrumented:
        dispatched = sim.run(until=until, max_events=1 << 60)
    else:
        dispatched = sim.run(until=until)
    return log, sim.now, dispatched, sim.events_dispatched, len(sim.queue)


class TestFastPathEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(schedules())
    def test_fast_matches_instrumented(self, schedule):
        ops, until = schedule
        assert _run_schedule(ops, until) == _run_schedule(
            ops, until, force_instrumented=True
        )


class GridProbe:
    """Deadline-aware tumbling-grid probe (the contract docs/KERNEL.md
    specifies and the telemetry samplers implement): calls strictly
    before the current boundary are no-ops, and a call at or past it
    rolls the boundary forward.  It logs every boundary crossing with a
    caller-supplied sample so two runs agree iff their probes fired at
    the same positions in the dispatch stream.
    """

    def __init__(self, width, sample=None):
        self.width = width
        self.index = 0
        self.calls = 0
        self.crossings: list[tuple[float, object]] = []
        self._sample = sample

    def next_deadline_s(self) -> float:
        return (self.index + 1) * self.width

    def __call__(self, new_time_s: float) -> None:
        self.calls += 1
        while (self.index + 1) * self.width <= new_time_s:
            boundary = (self.index + 1) * self.width
            sample = self._sample() if self._sample is not None else None
            self.crossings.append((boundary, sample))
            self.index += 1


def _run_probed_schedule(ops, until, widths, force_instrumented=False):
    """Like ``_run_schedule`` but with grid probes attached.

    Returns everything observable: the dispatch log, each probe's
    crossing log (boundary, dispatches-so-far), the final clock, and the
    dispatch count.  ``force_instrumented=True`` routes the identical
    schedule through the reference loop via ``max_events``.
    """
    sim = Simulator()
    log: list[tuple[str, float]] = []
    probes = [GridProbe(w, sample=lambda: len(log)) for w in widths]
    for probe in probes:
        sim.add_time_probe(probe)
    handles: list = []

    def make_action(tag, nested):
        def action() -> None:
            log.append((tag, sim.now))
            for i, (delay, priority) in enumerate(nested):
                handles.append(
                    sim.after(delay, make_action(f"{tag}.n{i}", ()), priority)
                )

        return action

    for index, op in enumerate(ops):
        if op[0] == "cancel":
            if handles:
                sim.cancel(handles[op[1] % len(handles)])
            continue
        kind, value, priority, nested = op
        action = make_action(f"op{index}", nested)
        if kind == "at":
            handles.append(sim.at(value, action, priority))
        else:
            handles.append(sim.after(value, action, priority))

    if force_instrumented:
        dispatched = sim.run(until=until, max_events=1 << 60)
    else:
        assert sim._probe_deadline() == min(w for w in widths)
        dispatched = sim.run(until=until)
    observable = (
        log,
        [probe.crossings for probe in probes],
        sim.now,
        dispatched,
    )
    return observable, sum(probe.calls for probe in probes)


_WIDTHS = st.sampled_from([0.25, 0.5, 0.75, 1.3, 2.0])


class TestProbedFastPathEquivalence:
    """The probed fast path must be observation-equivalent to the
    instrumented reference loop: same dispatch log, same boundary
    crossings at the same positions in the dispatch stream, same final
    clock — while calling the probe no more often."""

    @settings(max_examples=200, deadline=None)
    @given(schedules(), _WIDTHS)
    def test_probed_fast_matches_instrumented(self, schedule, width):
        ops, until = schedule
        fast, fast_calls = _run_probed_schedule(ops, until, [width])
        ref, ref_calls = _run_probed_schedule(
            ops, until, [width], force_instrumented=True
        )
        assert fast == ref
        # Between boundaries the fast path never fires the probe; the
        # reference loop fires it on every strict time advance.
        assert fast_calls <= ref_calls

    @settings(max_examples=100, deadline=None)
    @given(schedules(), _WIDTHS, _WIDTHS)
    def test_chained_probes_match_instrumented(self, schedule, w1, w2):
        """Two grid probes chain; the dispatcher tracks the min deadline."""
        ops, until = schedule
        fast, _ = _run_probed_schedule(ops, until, [w1, w2])
        ref, _ = _run_probed_schedule(
            ops, until, [w1, w2], force_instrumented=True
        )
        assert fast == ref

    def test_fast_path_skips_intermediate_advances(self):
        """A dense run with one wide window: the fast path fires the
        probe only at crossings, the reference at every advance."""
        ops = [("at", i * 0.25, 0, []) for i in range(40)]
        fast, fast_calls = _run_probed_schedule(ops, None, [2.0])
        ref, ref_calls = _run_probed_schedule(
            ops, None, [2.0], force_instrumented=True
        )
        assert fast == ref
        assert fast_calls < ref_calls

    def test_boundary_tick_event_probed_first(self):
        """An event exactly on a boundary fires *after* the probe: the
        crossing's dispatch count excludes it (window semantics)."""
        ops = [("at", 0.5, 0, []), ("at", 1.0, 0, []), ("at", 1.5, 0, [])]
        (log, crossings, now, dispatched), _ = _run_probed_schedule(
            ops, None, [1.0]
        )
        assert dispatched == 3 and now == 1.5
        # One crossing (at 1.0), having seen only the 0.5 dispatch.
        assert crossings == [[(1.0, 1)]]

    def test_until_gap_fires_pending_crossings(self):
        """Draining to a bound past the last event still probes the
        bound when later events remain queued (matching the reference)."""
        ops = [("at", 0.25, 0, []), ("at", 9.0, 0, [])]
        fast, _ = _run_probed_schedule(ops, 5.0, [1.0])
        ref, _ = _run_probed_schedule(
            ops, 5.0, [1.0], force_instrumented=True
        )
        assert fast == ref
        log, crossings, now, dispatched = fast
        assert now == 5.0 and dispatched == 1
        assert [b for b, _ in crossings[0]] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stuck_deadline_raises(self):
        """A probe that never advances its deadline violates the
        contract; the fast path fails loudly instead of spinning."""

        class Stuck:
            def next_deadline_s(self) -> float:
                return 1.0

            def __call__(self, new_time_s: float) -> None:
                pass

        sim = Simulator()
        sim.add_time_probe(Stuck())
        sim.at(2.0, lambda: None)
        try:
            sim.run()
        except Exception as exc:
            assert "deadline contract" in str(exc)
        else:  # pragma: no cover - the point of the test
            raise AssertionError("contract violation went undetected")

    def test_probe_without_deadline_disables_fast_path(self):
        """A probe lacking ``next_deadline_s`` keeps the reference loop
        (deadline None), and chaining it after a grid probe demotes the
        whole chain."""
        sim = Simulator()
        sim.add_time_probe(GridProbe(1.0))
        assert sim._probe_deadline() == 1.0
        sim.add_time_probe(lambda t: None)
        assert sim._probe_deadline() is None

    def test_directly_assigned_probe_disables_fast_path(self):
        sim = Simulator()
        sim.time_probe = GridProbe(1.0)
        assert sim._probe_deadline() is None


# --- telemetry-level differential -------------------------------------------------
#
# The observability ladder's core claim (docs/TELEMETRY.md): ``counters``
# and ``sampled`` are *pure observers* — a switch run at either level is
# bit-identical to the fully-instrumented ``full`` run in everything the
# simulation computes (dispatch order, packet ids modulo the process-
# global offset, terminal counters, the final clock), while keeping the
# ``trace is None`` fast path the instrumented run forfeits.

_LEVEL_WORKERS = st.lists(
    st.integers(0, 7), min_size=2, max_size=4, unique=True
)
_LEVEL_ELEMENTS = st.sampled_from([8, 16, 32])
_LEVEL_SAMPLES = st.sampled_from([1, 2, 4, 16])


def _run_at_level(level, workers, elements, sample):
    """One RMT run at a telemetry level; returns its observable digest."""
    from repro.apps import ParameterServerApp
    from repro.rmt.config import RMTConfig
    from repro.rmt.switch import RMTSwitch
    from repro.telemetry import Telemetry
    from repro.units import GBPS

    telemetry = Telemetry.at_level(level, seed=0, sample=sample)
    config = RMTConfig(
        num_ports=8, pipelines=2, port_speed_bps=100 * GBPS,
        min_wire_packet_bytes=84.0, frequency_hz=1.25e9,
    )
    app = ParameterServerApp(sorted(workers), elements, elements_per_packet=1)
    switch = RMTSwitch(
        config, app, telemetry=telemetry, sim=Simulator()
    )
    result = switch.run(app.workload(config.port_speed_bps))
    base = min(p.packet_id for p in result.delivered)
    digest = (
        [
            (p.packet_id - base, p.meta.egress_port, p.meta.departure_time)
            for p in result.delivered
        ],
        len(result.dropped),
        result.consumed,
        result.recirculated_packets,
        result.duration_s,
        sorted(result.counters.items()),
        switch._sim.logical_events,
        switch._sim.now,
    )
    return digest, switch, telemetry


class TestTelemetryLevelEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(_LEVEL_WORKERS, _LEVEL_ELEMENTS, _LEVEL_SAMPLES)
    def test_fast_levels_match_instrumented(
        self, workers, elements, sample
    ):
        """``counters``/``sampled`` vs ``full``: identical dispatch order
        (delivery sequence with run-relative packet ids), final counter
        values, and logical event count — with the fast path kept."""
        full, full_switch, _ = _run_at_level(
            "full", workers, elements, sample
        )
        assert full_switch.trace is not None
        for level in ("counters", "sampled"):
            fast, fast_switch, _ = _run_at_level(
                level, workers, elements, sample
            )
            assert fast == full
            assert fast_switch.trace is None
            # Batched admission really engaged (same-timestamp arrivals
            # exist whenever two or more workers inject): the logical
            # work matched above, the physical events were fewer.
            if len(workers) > 1:
                assert fast_switch._sim.events_coalesced > 0
                assert full_switch._sim.events_coalesced == 0

    def test_sampled_records_cover_only_sampled_subset(self):
        """Every record belongs to an admitted span; sample=1 records
        every packet (coverage 1.0)."""
        _, _, everything = _run_at_level("sampled", [0, 1, 4, 5], 16, 1)
        assert everything.spans.sampler.coverage == 1.0
        _, _, subset = _run_at_level("sampled", [0, 1, 4, 5], 16, 4)
        sampled_ids = {r.span for r in subset.spans.records}
        assert 0 < subset.spans.sampler.admitted < subset.spans.sampler.offered
        assert len(sampled_ids) == subset.spans.sampler.admitted


def _stateful_ledger(level=None):
    """One single-switch stateful run's canonical ledger text (git_sha
    pinned), optionally observed at a telemetry ``level``."""
    import json

    from repro.stateful.runner import run_stateful

    make_telemetry = None
    if level is not None:
        from repro.telemetry import Telemetry

        def make_telemetry():
            return Telemetry.at_level(level, seed=0, sample=4)

    run = run_stateful(
        "synflood",
        flows=32,
        packets=160,
        seed=3,
        make_telemetry=make_telemetry,
    )
    ledger = run.ledger()
    ledger["git_sha"] = "pinned"
    return json.dumps(ledger, sort_keys=True)


class TestStatefulLedgerEquivalence:
    """Stateful ledgers do not depend on the dispatch loop."""

    def test_fast_dispatch_matches_instrumented(self):
        """Full telemetry (instrumented loop, tracing on) and the fast
        counters level produce byte-identical stateful ledgers: the
        observability level must never perturb the simulated work."""
        instrumented = _stateful_ledger(level="full")
        fast = _stateful_ledger(level="counters")
        bare = _stateful_ledger()
        assert instrumented == fast == bare
