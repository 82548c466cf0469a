"""Run one benchmark workload once, in this fresh process.

Usage (normally started by ``run.py``, one process per run)::

    python3 perfbench/child.py '{"workload": "serve-adcp", "seed": 1,
                                 "trace": false, "spawned": <monotonic>}'

``spawned`` is the parent's ``CLOCK_MONOTONIC`` reading just before it
started this process, so ``wall_s`` and ``setup_s`` include interpreter
start-up.  The result is one JSON object on the last stdout line.

A timed run (``trace`` false) wraps only ``Simulator.run`` with a clock
read at entry and exit, which ``setup_s`` and ``packets_per_s`` need.  A
traced run also records boundary spans around the runners' public
building blocks and runs the workload under ``cProfile``, grouping self
time and call counts by ``repro.<package>``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import pstats
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path.insert(0, str(SRC))

from spec import LAYERS, PACKAGES, WORKLOADS  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class GcClock:
    """Time spent inside garbage collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0
        gc.callbacks.append(self)

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = now()
        else:
            self.seconds += now() - self._start
            self.collections += 1


class Spans:
    """Boundary spans (name, start, end, parent), kept in memory."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            record = {
                "id": len(self.records),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": now(),
                "end": None,
            }
            self.records.append(record)
            self._stack.append(record["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record["end"] = now()

        return traced


class SimClock:
    """Entry/exit of every ``Simulator.run`` call and the events it ran."""

    def __init__(self, simulator_cls) -> None:
        self.first_entry: float | None = None
        self.seconds = 0.0
        self.dispatched = 0
        self.coalesced = 0
        run = simulator_cls.run

        def timed_run(sim, *args, **kwargs):
            dispatched = sim.events_dispatched
            coalesced = sim.events_coalesced
            start = now()
            if self.first_entry is None:
                self.first_entry = start
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.seconds += now() - start
                self.dispatched += sim.events_dispatched - dispatched
                self.coalesced += sim.events_coalesced - coalesced

        simulator_cls.run = timed_run


def install_boundary_spans(spans: Spans, windows: list[float]) -> None:
    """Wrap the runners' public building blocks with spans.

    ``run_serve`` and ``run_stateful`` look these names up in their own
    module namespace at call time, so rebinding them there is enough.
    """
    import repro.fabric.runner as fabric_runner
    import repro.serve.runner as serve_runner
    import repro.sim.event as event
    import repro.stateful.runner as stateful_runner

    for module, attr, name in (
        (serve_runner, "build_schedule", "serve.build_schedule"),
        (serve_runner, "build_fabric", "fabric.build_fabric"),
        (serve_runner, "inject_arrivals", "fabric.inject_arrivals"),
        (stateful_runner, "build_single", "stateful.build"),
        (stateful_runner, "compile_divergence", "program.compile"),
        (event.Simulator, "run", "sim.run"),
        (fabric_runner.FabricInstance, "finalize_sections", "fabric.finalize"),
    ):
        setattr(module, attr, spans.wrap(name, getattr(module, attr)))

    class StampedMonitor(serve_runner.RollingWindowMonitor):
        """Stamps the host clock at every ``on_window`` call."""

        @property
        def on_window(self):
            return self._stamped_hook

        @on_window.setter
        def on_window(self, hook):
            def stamped(record):
                windows.append(now())
                if hook is not None:
                    hook(record)

            self._stamped_hook = stamped

    serve_runner.RollingWindowMonitor = StampedMonitor


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    try:
        parts = Path(filename).resolve().relative_to(SRC / "repro").parts
    except ValueError:
        return "runtime"  # C builtins ("~"), stdlib, this harness
    if len(parts) > 1 and parts[0] in PACKAGES:
        return parts[0]
    return "other"


def group_profile(profile: cProfile.Profile) -> tuple[dict, dict, float]:
    """Self seconds and calls per layer, plus C builtin self seconds."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    builtin_s = 0.0
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        _, ncalls, tottime = row[0], row[1], row[2]
        layer = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        if filename == "~":
            builtin_s += tottime
    return self_s, calls, builtin_s


def ledger_digest(ledger: dict) -> str:
    """SHA-256 of the ledger without its ``git_sha`` stamp."""
    body = {k: v for k, v in ledger.items() if k != "git_sha"}
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def output_checks(workload, run) -> tuple[list[str], dict]:
    """The run's own output checks and its work counts."""
    failures: list[str] = []
    if workload.runner == "stateful":
        packets = run.params["packets"]
        offered = 0
        accesses = 0
        for section in run.sections:
            if section.label == "compile":
                continue
            means = {k: v["mean"] for k, v in section.series.items()}
            offered += packets
            accesses += int(means["state_accesses"])
            if means["admitted"] + means["rate_limited"] != packets:
                failures.append(
                    f"{section.label}: admitted + rate_limited = "
                    f"{means['admitted'] + means['rate_limited']:g}, "
                    f"expected {packets}"
                )
            if means["state_accesses"] != packets:
                failures.append(
                    f"{section.label}: state_accesses = "
                    f"{means['state_accesses']:g}, expected {packets}"
                )
        counts = {
            "packets_offered": offered,
            "state_accesses": accesses,
            "windows": 0,
            "spans_recorded": 0,
        }
    else:
        totals = run.totals()
        offered = totals["injected"]
        window_offered = sum(w["offered"] for w in run.windows)
        if offered <= 0 or totals["delivered_to_hosts"] <= 0:
            failures.append(f"serve moved no packets: {totals}")
        if window_offered != offered:
            failures.append(
                f"windows offered {window_offered:g} packets, "
                f"schedule injected {offered}"
            )
        spans = 0 if run.spans is None else len(run.spans.records)
        if run.params["sample"] and spans == 0:
            failures.append("sampling was on but no span was recorded")
        counts = {
            "packets_offered": offered,
            "state_accesses": 0,
            "windows": totals["windows"],
            "spans_recorded": spans,
        }
    return failures, counts


def main(config: dict) -> dict:
    spawned = config["spawned"]
    traced = bool(config["trace"])
    workload = WORKLOADS[config["workload"]]
    workload = replace(
        workload, kwargs={**workload.kwargs, **config.get("overrides", {})}
    )
    gc_clock = GcClock()

    t_import = now()
    import repro
    import repro.sim.event as event

    if workload.runner == "serve":
        from repro.serve.runner import run_serve as runner
    else:
        from repro.stateful.runner import run_stateful as runner
    import_s = now() - t_import
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")
    rss_after_import = rss_bytes()
    gc_seconds, gc_collections = gc_clock.seconds, gc_clock.collections

    profile = ledger_profile = None
    if traced:
        spans, windows = Spans(), []
        install_boundary_spans(spans, windows)
        runner = spans.wrap("workload.run", runner)
        profile, ledger_profile = cProfile.Profile(), cProfile.Profile()
    clock = SimClock(event.Simulator)

    with profile or nullcontext():
        run = runner(*workload.args, **workload.kwargs, seed=config["seed"])
    t_ledger = now()
    with ledger_profile or nullcontext():
        ledger = run.ledger()
        json.dumps(ledger, indent=1, sort_keys=True)
    t_end = now()
    ledger_s = t_end - t_ledger

    failures, counts = output_checks(workload, run)
    packets = counts["packets_offered"]
    peak = rss_bytes()
    out = {
        "workload": workload.name,
        "seed": config["seed"],
        "traced": traced,
        "digest": ledger_digest(ledger),
        "failures": failures,
        "wall_s": t_end - spawned,
        "setup_s": clock.first_entry - spawned,
        "sim_s": clock.seconds,
        "import_s": import_s,
        "ledger_s": ledger_s,
        "packets_offered": packets,
        "packets_per_s": packets / clock.seconds,
        "peak_rss_mb": peak / 2**20,
        "rss_bytes_per_packet": (peak - rss_after_import) / packets,
        "events_dispatched": clock.dispatched,
        "events_coalesced": clock.coalesced,
        "gc_s": gc_clock.seconds - gc_seconds,
        "gc_collections": gc_clock.collections - gc_collections,
        **{k: v for k, v in counts.items() if k != "packets_offered"},
    }
    if traced:
        out["spans"] = spans.records
        out["window_stamps"] = windows
        self_s, calls, builtin_s = group_profile(profile)
        ledger_self, _, _ = group_profile(ledger_profile)
        self_s["runtime"] += import_s
        self_s["ledger"] = sum(ledger_self.values())
        out["layer_self_s"] = self_s
        out["layer_calls"] = calls
        out["builtin_s"] = builtin_s
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
