"""Tumbling-window aggregation on the kernel's probe-deadline contract.

A :class:`RollingWindowMonitor` is a deadline-aware time probe (the same
protocol :class:`~repro.telemetry.monitor.ResourceMonitor` speaks, see
docs/KERNEL.md): the dispatcher calls it before any event that advances
the clock to or past the current window boundary, so every window closes
*before* the first event at or after its end executes.  Window ``i``
therefore covers ``[i*W, (i+1)*W)`` exactly — a delivery on the boundary
tick lands in window ``i+1``, and gauges sampled at close read switch
state after all events strictly before the boundary.

Three kinds of inputs feed each window record:

- **observations** — :meth:`record_delivery` (per-packet, with optional
  end-to-end latency) and :meth:`record_cct` (per-coflow completion),
  pushed by the serve runner's host-delivery hook;
- **counters** — cumulative functions (drops, recirculations) sampled at
  every close; the record carries the per-window delta;
- **gauges** — instantaneous functions (TM occupancy, recirculation
  backlog) sampled at the closing boundary.

Records are flat dicts so SLO objectives address metrics by name
(docs/SERVING.md lists them all).
"""

from __future__ import annotations

from math import fsum
from typing import Callable

from ..errors import ConfigError
from ..telemetry.monitor import _percentile

_NS = 1e-9

#: Window metrics always present in a record (gauge/counter names are
#: appended per registration).  SLO parsing validates against the union.
BASE_METRICS = (
    "delivered",
    "offered",
    "dropped",
    "drop_rate",
    "throughput_pps",
    "offered_pps",
    "p50_latency_ns",
    "p99_latency_ns",
    "mean_latency_ns",
    "max_latency_ns",
    "latency_samples",
    "coflows_completed",
    "mean_cct_ns",
    "max_cct_ns",
)


class RollingWindowMonitor:
    """Folds a serve run into fixed-width tumbling window records."""

    def __init__(
        self,
        window_ns: float,
        *,
        on_window: Callable[[dict], None] | None = None,
    ) -> None:
        if window_ns <= 0:
            raise ConfigError(
                f"window width must be positive, got {window_ns}"
            )
        self.window_ns = float(window_ns)
        self.window_s = float(window_ns) * _NS
        self.on_window = on_window
        self.records: list[dict] = []
        self._index = 0
        self._gauges: dict[str, Callable[[float], float]] = {}
        self._counters: dict[str, Callable[[float], float]] = {}
        self._counter_last: dict[str, float] = {}
        self._gauge_names: list[str] = []
        self._counter_names: list[str] = []
        self._frozen = False
        self._dropped_fn: Callable[[float], float] | None = None
        self._dropped_last = 0.0
        # Per-window accumulators.
        self._delivered = 0
        self._latencies_ns: list[float] = []
        self._ccts_ns: list[float] = []
        # Cumulative offered load: departures before a time, and the
        # count at the last close.
        self._offered_fn: Callable[[float], int] | None = None
        self._offered_last = 0

    # --- registration -------------------------------------------------------------

    def gauge(self, name: str, fn: Callable[[float], float]) -> None:
        """Register an instantaneous probe, sampled at each window close."""
        self._register(self._gauges, name, fn)

    def counter(self, name: str, fn: Callable[[float], float]) -> None:
        """Register a cumulative probe; records carry per-window deltas."""
        self._register(self._counters, name, fn)
        self._counter_last[name] = 0.0

    def set_drop_counter(self, fn: Callable[[float], float]) -> None:
        """Cumulative drop count feeding the ``dropped``/``drop_rate``
        base metrics (a dedicated slot, not a named counter, because
        both metric names are part of every record)."""
        if self._frozen:
            raise ConfigError(
                "cannot register the drop counter after the first "
                "window closed"
            )
        self._dropped_fn = fn

    def _register(self, table, name: str, fn) -> None:
        if self._frozen:
            raise ConfigError(
                f"cannot register {name!r} after the first window closed"
            )
        if name in self._gauges or name in self._counters or name in BASE_METRICS:
            raise ConfigError(f"duplicate window metric {name!r}")
        table[name] = fn

    def set_offered_counter(self, fn: Callable[[float], int]) -> None:
        """Offered load as ``fn(t)`` = host departures strictly before
        ``t``; each window counts its slice at close."""
        self._offered_fn = fn
        self._offered_last = 0

    def metric_names(self) -> list[str]:
        """Every metric a window record will carry (for SLO validation)."""
        return (
            list(BASE_METRICS)
            + sorted(self._gauges)
            + sorted(self._counters)
        )

    # --- kernel probe protocol ----------------------------------------------------

    @property
    def _end_s(self) -> float:
        # Boundary from the integer index (not +=) so long runs don't
        # accumulate float drift against the SLO-visible start/end stamps.
        return (self._index + 1) * self.window_s

    def next_deadline_s(self) -> float:
        """Current window end (kernel probe-deadline contract)."""
        return self._end_s

    def __call__(self, new_time_s: float) -> None:
        """Clock hook: close every window the advance crosses."""
        while self._end_s <= new_time_s:
            self._close()

    # --- observations -------------------------------------------------------------

    def record_delivery(
        self, time_s: float, latency_ns: float | None = None
    ) -> None:
        """One packet reached a host NIC inside the current window."""
        self._delivered += 1
        if latency_ns is not None:
            self._latencies_ns.append(latency_ns)

    def record_cct(self, time_s: float, cct_ns: float) -> None:
        """One coflow fully completed inside the current window."""
        self._ccts_ns.append(cct_ns)

    # --- window close -------------------------------------------------------------

    def _close(self) -> None:
        if not self._frozen:
            self._gauge_names = sorted(self._gauges)
            self._counter_names = sorted(self._counters)
            self._frozen = True
        end_s = self._end_s

        offered = 0
        if self._offered_fn is not None:
            total = self._offered_fn(end_s)
            offered = total - self._offered_last
            self._offered_last = total

        delivered = self._delivered
        record: dict = {
            "window": self._index,
            # Stamped from the ns width directly, so boundaries print as
            # exact multiples rather than round-tripped floats.
            "start_ns": self._index * self.window_ns,
            "end_ns": (self._index + 1) * self.window_ns,
            "delivered": delivered,
            "offered": offered,
            "throughput_pps": delivered / self.window_s,
            "offered_pps": offered / self.window_s,
        }

        for name in self._counter_names:
            value = float(self._counters[name](end_s))
            record[name] = value - self._counter_last[name]
            self._counter_last[name] = value

        dropped = 0.0
        if self._dropped_fn is not None:
            total = float(self._dropped_fn(end_s))
            dropped = total - self._dropped_last
            self._dropped_last = total
        record["dropped"] = dropped
        attempts = dropped + delivered
        record["drop_rate"] = dropped / attempts if attempts else 0.0

        latencies = sorted(self._latencies_ns)
        record["latency_samples"] = len(latencies)
        if latencies:
            record["p50_latency_ns"] = _percentile(latencies, 50.0)
            record["p99_latency_ns"] = _percentile(latencies, 99.0)
            record["mean_latency_ns"] = fsum(latencies) / len(latencies)
            record["max_latency_ns"] = latencies[-1]
        else:
            record["p50_latency_ns"] = None
            record["p99_latency_ns"] = None
            record["mean_latency_ns"] = None
            record["max_latency_ns"] = None

        ccts = sorted(self._ccts_ns)
        record["coflows_completed"] = len(ccts)
        if ccts:
            record["mean_cct_ns"] = fsum(ccts) / len(ccts)
            record["max_cct_ns"] = ccts[-1]
        else:
            record["mean_cct_ns"] = None
            record["max_cct_ns"] = None

        for name in self._gauge_names:
            record[name] = float(self._gauges[name](end_s))

        self.records.append(record)
        self._delivered = 0
        self._latencies_ns = []
        self._ccts_ns = []
        self._index += 1
        if self.on_window is not None:
            self.on_window(record)

    def finish(self, horizon_s: float) -> None:
        """Close every window that starts before ``horizon_s``.

        Called once after the kernel drains: a run that ends mid-window
        still emits that window (covering its full nominal width), and a
        horizon landing exactly on a boundary emits nothing extra.
        """
        while self._index * self.window_s < horizon_s:
            self._close()
