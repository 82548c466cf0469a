"""Discrete-event simulation core.

The kernel is deliberately small: a binary min-heap of timestamped
actions with deterministic FIFO tie-breaking, plus a :class:`Simulator`
that owns the clock, dispatches events, and enforces time monotonicity.

Time is a float in **seconds**.  Cycle-level models convert cycles to
seconds through :class:`repro.sim.clock.Clock`, which lets components in
different clock domains (e.g. a pipeline at 0.6 GHz and a MAT memory at
9.6 GHz) share one event queue.

A pending event is a plain ``(time, priority, sequence, action)`` tuple
on the heap.  ``sequence`` is unique and grows with every schedule call,
so tuples order on ``(time, priority, sequence)`` alone -- a strict total
order in which two events at the same time and priority fire in the
order they were scheduled -- and ``heapq`` never compares two actions.
That total order is what makes every trace, ledger and result
bit-for-bit reproducible (docs/KERNEL.md).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError

Action = Callable[[], Any]

_INF = float("inf")


#: Priority reserved for lazily streamed arrivals: the fabric's arrival
#: injector (:class:`repro.fabric.runner.ArrivalInjector`) and the
#: standalone switch run loop (:func:`repro.net.traffic.inject_bursts`).
#: Every other event uses the default priority 0, so arrivals at a
#: timestamp run before any other work at that timestamp
#: (docs/KERNEL.md).
ARRIVAL_PRIORITY = -1

#: Gen-0 collection threshold while :func:`draining_gc` is active (the
#: interpreter default is 700).
DRAIN_GC_THRESHOLD = 50_000


@contextmanager
def draining_gc():
    """Collector settings for draining a fully built simulation.

    Everything a runner builds before the drain (switches, tables,
    monitors) lives until the run ends, and the packets created during
    it die by reference count: they form no cycles.  So cyclic
    collections during a drain find nothing to free, yet each one scans
    the heap.  Freezing what was built keeps collections off it, and a
    higher gen-0 threshold makes them rarer.  On the serve workloads
    this cuts collector time from ~6% of the run to ~0.5%.  Users:
    ``run_serve`` and single-switch stateful runs, whose port sinks
    discard every packet they are handed, so it dies by reference count.
    Batch fabric runs keep every received packet on their hosts, and were
    not measured under this policy.  The caller's thresholds are restored
    on exit, and its own frozen set (or a disabled collector) is left alone.
    """
    if not gc.isenabled():
        yield
        return
    thresholds = gc.get_threshold()
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    gc.set_threshold(max(thresholds[0], DRAIN_GC_THRESHOLD), *thresholds[1:])
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        if freeze:
            gc.unfreeze()


class Simulator:
    """Owns simulated time and dispatches events in order.

    Components schedule work with :meth:`at` (absolute time) or :meth:`after`
    (relative delay).  :meth:`run` drains the queue, optionally bounded by
    ``until`` (a time) or ``max_events`` (a safety valve for models that
    generate events forever).
    """

    def __init__(self) -> None:
        self.queue: list[tuple[float, int, int, Action]] = []
        """The pending events, a heap of ``(time, priority, sequence,
        action)`` entries; ``len(queue)`` is the number still to fire."""
        self.now = 0.0
        self._next_sequence = 0
        self.events_dispatched = 0
        self.events_coalesced = 0
        """Per-packet transactions folded into burst events by batched
        admission.  ``events_dispatched + events_coalesced`` is the
        logical event count — what ``events_dispatched`` would read if
        every same-timestamp burst were scheduled packet-by-packet —
        and is the unit throughput benchmarks report as events/s."""
        self.trace = None
        """Optional :class:`~repro.telemetry.recorder.TraceRecorder`.

        When set, each dispatched event is recorded under the verbose
        ``SIM`` category (opt-in; filtered out by default recorders).
        """
        self.time_probe: Callable[[float], None] | None = None
        """Optional callback fired whenever simulated time is about to
        advance, with the new time.  Used by telemetry's periodic metric
        sampler and the resource monitor: because probes never schedule
        events, observing a run cannot change its event order or final
        duration."""
        self._time_probes: list[Callable[[float], None]] = []
        self._probe_chain: Callable[[float], None] | None = None

    @property
    def logical_events(self) -> int:
        """Dispatched plus coalesced events: the batching-independent
        work count.  Two runs of one workload agree on this number
        whether admission was batched (``counters``/``sampled``
        telemetry, ``trace is None``) or per-packet (``full``), which is
        what makes telemetry-level overhead comparisons in events/s
        meaningful."""
        return self.events_dispatched + self.events_coalesced

    def add_time_probe(self, probe: Callable[[float], None]) -> None:
        """Install ``probe`` on the clock, chaining after any existing one.

        The dispatch loop keeps its single ``time_probe is None`` check —
        attaching several observers (metric snapshots plus a resource
        monitor) costs the uninstrumented fast path nothing.  Probes fire
        in installation order with the same new-time argument.

        Probes registered here are also tracked individually so the
        dispatcher can consult their ``next_deadline_s()`` (when every
        probe offers one) and keep dispatching on the uninstrumented
        fast path between deadlines — see :meth:`_probe_deadline`.
        """
        current = self.time_probe
        if current is None:
            self.time_probe = probe
            self._time_probes = [probe]
            self._probe_chain = probe
            return
        if current is not self._probe_chain:
            # A probe was installed by direct assignment, bypassing this
            # method.  Keep chaining it, but record it as an opaque
            # member: it carries no deadline contract, so the probed
            # fast path stands down (``_probe_deadline`` returns None).
            self._time_probes = [current]

        def chained(new_time_s: float, _first=current, _second=probe) -> None:
            _first(new_time_s)
            _second(new_time_s)

        self._time_probes.append(probe)
        self.time_probe = chained
        self._probe_chain = chained

    def _probe_deadline(self) -> float | None:
        """Earliest ``next_deadline_s()`` across registered time probes.

        Returns None when any probe lacks the deadline protocol (or when
        ``time_probe`` was assigned directly, hiding its members), which
        sends :meth:`run` to the instrumented reference loop.

        The protocol (docs/KERNEL.md): a probe exposing
        ``next_deadline_s() -> float`` promises that calls with
        ``new_time < deadline`` are no-ops, and that after a call with
        ``new_time >= deadline`` the reported deadline strictly exceeds
        that ``new_time``.  Grid samplers (ResourceMonitor,
        PeriodicSampler, RollingWindowMonitor) satisfy this naturally.
        """
        if self.time_probe is not self._probe_chain or not self._time_probes:
            return None
        deadline = _INF
        for probe in self._time_probes:
            next_deadline = getattr(probe, "next_deadline_s", None)
            if next_deadline is None:
                return None
            deadline_s = next_deadline()
            if deadline_s < deadline:
                deadline = deadline_s
        return deadline

    def at(self, time: float, action: Action, priority: int = 0) -> int:
        """Schedule ``action`` at absolute time ``time`` (seconds).

        Returns the event's handle (its unique sequence number), which
        :meth:`cancel` accepts.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        heappush(self.queue, (time, priority, sequence, action))
        return sequence

    def after(self, delay: float, action: Action, priority: int = 0) -> int:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + delay, action, priority)

    def cancel(self, handle: int) -> bool:
        """Withdraw the pending event ``handle`` (from :meth:`at`/:meth:`after`).

        Returns whether it was still pending: cancelling an event that
        already fired, or was already cancelled, is a no-op.  The entry
        leaves the heap at once, so ``len(queue)`` counts only events
        that will fire and the dispatch loops never test for
        cancellation.  That costs one O(n) scan per cancel, paid only by
        callers that cancel; the switch models never do.
        """
        queue = self.queue
        for index, entry in enumerate(queue):
            if entry[2] == handle:
                last = queue.pop()
                if index < len(queue):
                    queue[index] = last
                    heapify(queue)
                return True
        return False

    def peek_time(self) -> float | None:
        """Time of the next pending event, or None when none is left."""
        queue = self.queue
        return queue[0][0] if queue else None

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Dispatch events until the queue drains or a bound is hit.

        Returns the number of events dispatched by this call.  When
        ``until`` is given, events at exactly ``until`` still fire; later
        ones stay queued and ``now`` advances to ``until``.

        Without a trace or ``max_events``, and with every registered
        time probe publishing a ``next_deadline_s()``, dispatch takes
        the fast loop, which fires the probes only at their deadlines;
        otherwise it takes the instrumented reference loop.  Both yield
        the same observable run (docs/KERNEL.md).
        """
        if self.trace is None and max_events is None:
            if self.time_probe is None:
                return self._run_fast(until, _INF)
            deadline = self._probe_deadline()
            if deadline is not None:
                return self._run_fast(until, deadline)
        return self._run_instrumented(until, max_events)

    def _run_fast(self, until: float | None, deadline: float) -> int:
        """Uninstrumented dispatch: one heap pop per event.

        The time probe only fires when an advance reaches ``deadline``
        (infinite when no probe is installed) — exactly the calls the
        instrumented loop would make that are not no-ops under the probe
        contract (see :meth:`_probe_deadline`).  An event exactly at a
        deadline therefore fires after the probe.  Probes must all be
        registered before ``run``; installing one from inside an event
        action is not supported on this path.
        """
        queue = self.queue
        probe = self.time_probe
        bound = _INF if until is None else until
        dispatched = 0
        now = self.now
        while queue:
            entry = heappop(queue)
            time = entry[0]
            if time > now:
                if time > bound:
                    heappush(queue, entry)  # same sequence: same place
                    break
                if time >= deadline:
                    deadline = self._fire_probe(time)
                now = self.now = time
            elif time < now:
                raise SimulationError(
                    f"event time {time} precedes current time {now}"
                )
            entry[3]()
            dispatched += 1
        if until is not None and queue:
            # Later events stay queued; the clock still advances to the
            # bound, matching the instrumented loop.
            if probe is not None and until > now:
                probe(until)
            self.now = until
        self.events_dispatched += dispatched
        return dispatched

    def _fire_probe(self, time: float) -> float:
        """Fire the probe chain for an advance to ``time`` and return the
        next deadline, enforcing that it moved past ``time``."""
        self.time_probe(time)
        deadline = self._probe_deadline()
        if deadline is None:
            return _INF
        if deadline <= time:
            raise SimulationError(
                "time probe violated the deadline contract: "
                f"next_deadline_s() {deadline} did not advance "
                f"past probed time {time}"
            )
        return deadline

    def _run_instrumented(
        self,
        until: float | None,
        max_events: int | None,
    ) -> int:
        """Reference dispatch loop: trace/probe/max_events all honoured."""
        queue = self.queue
        dispatched = 0
        while queue:
            if max_events is not None and dispatched >= max_events:
                break
            time, priority, sequence, action = queue[0]
            if until is not None and time > until:
                if self.time_probe is not None and until > self.now:
                    self.time_probe(until)
                self.now = until
                break
            heappop(queue)
            if time < self.now:
                raise SimulationError(
                    f"event time {time} precedes current time {self.now}"
                )
            if self.time_probe is not None and time > self.now:
                self.time_probe(time)
            self.now = time
            action()
            dispatched += 1
            if self.trace is not None:
                self._trace_dispatch(time, priority, sequence)
        self.events_dispatched += dispatched
        return dispatched

    def _trace_dispatch(self, time: float, priority: int, sequence: int) -> None:
        from ..telemetry.events import Category, Severity

        self.trace.emit(
            Category.SIM,
            "sim.dispatch",
            time,
            component="sim.kernel",
            severity=Severity.DEBUG,
            sequence=sequence,
            priority=priority,
        )

    def step(self) -> bool:
        """Dispatch exactly one event; return False if the queue was empty."""
        return self.run(max_events=1) == 1
