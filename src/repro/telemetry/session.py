"""The :class:`Telemetry` hub: one object that wires observability into a switch.

Usage::

    from repro import ADCPConfig, ADCPSwitch, Telemetry

    telemetry = Telemetry(snapshot_interval_s=5e-8)
    switch = ADCPSwitch(ADCPConfig(num_ports=8), app, telemetry=telemetry)
    result = switch.run(app.workload(...))

    telemetry.trace.count(name="packet.delivered")   # == len(result.delivered)
    telemetry.metrics.timeseries("adcp.tm1.occupancy")
    write_chrome_trace("trace.json", to_chrome_trace(telemetry.trace,
                                                     telemetry.metrics))

A hub serves **one** switch: binding it registers derived gauges over that
switch's components and installs the snapshot sampler on that switch's
event kernel.  Build one hub per switch when tracing several.

Disabling the recorder (``telemetry.trace.disable()``) *before* building
the switch skips trace wiring entirely — the switch runs on the same
``trace is None`` fast path as one built with no hub, while metric
snapshots keep working.  Toggling the recorder after construction only
affects a switch that was built with tracing enabled.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ConfigError
from .events import Category, Severity
from .metrics import MetricRegistry, PeriodicSampler
from .monitor import ResourceMonitor
from .recorder import TraceRecorder
from .sampler import SpanSampler, TelemetryLevel


class Telemetry:
    """Recorder + metrics + sampling policy for one switch.

    Args:
        capacity: Trace ring-buffer depth.
        categories: Trace categories to record (None = default set).
        min_severity: Minimum recorded severity.
        snapshot_interval_s: Simulated-time spacing of metric snapshots;
            None disables periodic sampling (a final snapshot is still
            taken when the run finishes).
        monitor: Optional :class:`~repro.telemetry.monitor.ResourceMonitor`
            to attach at bind time: it collects every component's
            ``monitor_probes()`` and samples them on the simulation clock.
        spans: Optional :class:`~repro.telemetry.spans.SpanRecorder` the
            switch exposes as ``switch.spans`` — sampled per-hop spans
            without touching the trace path (docs/SPANS.md).  Several
            hubs may share one recorder (a fabric records all switches
            into one span stream).
    """

    def __init__(
        self,
        capacity: int = 65536,
        categories: Iterable[Category] | None = None,
        min_severity: Severity = Severity.DEBUG,
        snapshot_interval_s: float | None = None,
        monitor: ResourceMonitor | None = None,
        spans=None,
    ) -> None:
        if snapshot_interval_s is not None and snapshot_interval_s <= 0:
            raise ConfigError(
                f"snapshot interval must be positive, got {snapshot_interval_s}"
            )
        self.trace = TraceRecorder(
            capacity=capacity,
            categories=categories,
            min_severity=min_severity,
        )
        self.metrics = MetricRegistry()
        self.snapshot_interval_s = snapshot_interval_s
        self.monitor = monitor
        self.spans = spans
        self._switch = None

    @classmethod
    def at_level(
        cls,
        level: "TelemetryLevel | str",
        *,
        seed: int = 0,
        sample: int = 16,
        interval_ns: float | None = None,
        capacity: int = 65536,
    ) -> "Telemetry":
        """Build a hub for one rung of the telemetry-level ladder.

        ``off``/``counters``/``sampled`` disable the trace recorder
        *before* switch construction, so the switch keeps the
        ``trace is None`` fast path (docs/KERNEL.md); ``counters`` and
        ``sampled`` add a :class:`ResourceMonitor` (deadline-aware, so
        dispatch stays on ``_run_fast``), and ``sampled`` adds a
        :class:`~repro.telemetry.spans.SpanRecorder` sampling 1 in
        ``sample`` packets.  ``full`` is the PR 1 instrumented path.
        """
        from .spans import SpanRecorder

        level = TelemetryLevel.parse(level)
        monitor = None
        if level.wants_monitor:
            monitor = (
                ResourceMonitor(interval_ns=interval_ns)
                if interval_ns is not None
                else ResourceMonitor()
            )
        spans = None
        if level.wants_spans:
            spans = SpanRecorder(SpanSampler(seed=seed, sample=sample))
        hub = cls(capacity=capacity, monitor=monitor, spans=spans)
        if level.preserves_fast_path:
            hub.trace.disable()
        return hub

    # --- switch wiring ------------------------------------------------------------

    def bind(self, switch) -> None:
        """Attach this hub to a switch (called by the switch constructor).

        Registers derived gauges — per-pipeline utilization, TM occupancy,
        TM1 merge depth when the switch has a merge front-end — and hooks
        the periodic sampler into the switch's event kernel.
        """
        from ..rmt.pipeline import Pipeline
        from ..rmt.traffic_manager import TrafficManager

        if self._switch is not None and self._switch is not switch:
            raise ConfigError(
                "a Telemetry hub serves one switch; build one hub per switch"
            )
        self._switch = switch
        self.metrics.bind_stats(switch.stats)

        for component in switch.walk():
            if isinstance(component, Pipeline):
                self.metrics.gauge(
                    f"{component.path}.utilization",
                    lambda now, p=component: (
                        min(1.0, p.busy_seconds / now) if now > 0 else 0.0
                    ),
                )
            elif isinstance(component, TrafficManager):
                self.metrics.gauge(
                    f"{component.path}.occupancy",
                    lambda now, tm=component: float(tm.occupancy),
                )
                self.metrics.gauge(
                    f"{component.path}.peak_occupancy",
                    lambda now, tm=component: float(tm.peak_occupancy),
                )

        merge = getattr(switch, "_merge", None)
        if merge is not None:
            self.metrics.gauge(
                f"{switch.tm1.path}.merge_depth",
                lambda now, m=merge: float(m.pending()),
            )

        if self.snapshot_interval_s is not None:
            switch._sim.add_time_probe(
                PeriodicSampler(self.metrics, self.snapshot_interval_s)
            )
        if self.monitor is not None:
            self.monitor.attach(switch)

    def finish(self, now_s: float) -> None:
        """Take the end-of-run snapshot (called by the switch's ``run``)."""
        self.metrics.sample(now_s)
        if self.monitor is not None:
            self.monitor.finish(now_s)

    @property
    def switch(self):
        """The switch this hub is bound to, if any."""
        return self._switch
