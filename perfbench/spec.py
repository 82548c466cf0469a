"""What the benchmark measures: workloads, metrics and predictions.

This module is the benchmark's self-description.  ``BENCHMARK.json`` at
the repository root carries the names, units, directions and bounds the
regression check reads; this table adds what that file's schema has no
room for: each workload's exact runner call, and for each per-layer
metric the end-to-end metric it should move, the workload that
exercises it and the workload where it should not move.
``python3 perfbench/run.py --describe`` prints all of it as JSON, and
``perfbench/tests`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The repository's packages, each one layer of the per-layer split.
PACKAGES = (
    "sim",
    "net",
    "rmt",
    "adcp",
    "tables",
    "fabric",
    "serve",
    "stateful",
    "telemetry",
    "program",
    "coflow",
    "arch",
)

#: Layers outside any single package: ``runtime`` is the interpreter
#: (imports, GC, C builtins, stdlib Python), ``ledger`` builds and
#: serializes the run document, ``other`` is every ``repro`` module
#: outside ``PACKAGES`` (``repro.apps``, ``repro.units``, ...).
EXTRA_LAYERS = ("runtime", "ledger", "other")

LAYERS = PACKAGES + EXTRA_LAYERS


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # "serve" -> run_serve, "stateful" -> run_stateful
    args: tuple
    kwargs: dict
    why: str

    def call(self) -> str:
        """The runner call as Python source, seed left symbolic."""
        function = {"serve": "run_serve", "stateful": "run_stateful"}[
            self.runner
        ]
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        parts.append("seed=SEED")
        return f"{function}({', '.join(parts)})"


# Everything not named here stays at the runner's defaults (rate 0.8,
# Poisson arrivals, 20 us duration, queue backend), so a later change
# to a default is measured.  The serve open loop runs in simulated
# time: its arrival schedule is fixed per seed, and the load the
# simulator receives does not depend on host speed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-adcp",
            "serve",
            ("leaf-spine-2x2", "fabric-allreduce"),
            {"target": "adcp"},
            "16-element array packets through ADCP array match and fabric "
            "links; every arrival built and queued up front, so memory "
            "and GC grow with duration",
        ),
        Workload(
            "serve-rmt-sampled",
            "serve",
            ("leaf-spine-2x2", "fabric-allreduce"),
            {"target": "rmt", "sample": 8},
            "RMT's one element per packet: 2.3x the packets of serve-adcp, "
            "per-packet cost dominates, 1-in-8 sampled spans on the fast "
            "path",
        ),
        Workload(
            "stateful-tokenbucket",
            "stateful",
            ("tokenbucket",),
            {"target": "both", "topology": "single", "packets": 4000},
            "SCR token-bucket read-modify-write per packet on one switch "
            "per target; bypasses fabric, serve and windows; import and "
            "compile sweep weigh on setup",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only
    moves: tuple = ()  # end-to-end metrics a per-layer metric should move
    exercised_by: tuple = ()
    no_change_on: tuple = ()
    doc: str = ""

    def to_json(self) -> dict:
        doc = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            doc["bound"] = self.bound
        if self.moves:
            doc["moves"] = list(self.moves)
            doc["exercised_by"] = list(self.exercised_by)
            doc["no_change_on"] = list(self.no_change_on)
        if self.doc:
            doc["doc"] = self.doc
        return doc


END_TO_END = (
    Metric(
        "wall_s", "s", "lower", 0.25,
        doc="process start until the run's ledger is serialized",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        doc="process start until the first entry into Simulator.run",
    ),
    Metric(
        "packets_per_s", "1/s", "higher", 0.25,
        doc="simulated packets offered / host seconds inside "
        "Simulator.run",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.05,
        doc="peak resident memory of the run's process",
    ),
)

SERVE = ("serve-adcp", "serve-rmt-sampled")
ADCP, RMT, TOKEN = "serve-adcp", "serve-rmt-sampled", "stateful-tokenbucket"


# The predictions table: which end-to-end metric each layer metric
# should move, on which workload, and where it should not move.
# Rows are (moves, exercised_by, no_change_on, per-layer metrics).
_PREDICTIONS = (
    (
        ("peak_rss_mb", "wall_s"), (ADCP,), (TOKEN,),
        ("runtime.gc_s", "net.rss_bytes_per_packet",
         "serve.build_schedule_s", "serve.window_gap_max_s"),
    ),
    (
        ("packets_per_s",), (RMT, ADCP), (TOKEN,),
        ("sim.self_s", "sim.events_per_s", "sim.coalesced_share",
         "fabric.inject_arrivals_s"),
    ),
    (
        ("packets_per_s",), (RMT, ADCP), (),
        ("net.self_s", "net.calls_per_packet"),
    ),
    (("packets_per_s",), (RMT,), (ADCP,), ("rmt.self_s",)),
    (("packets_per_s",), (ADCP,), (RMT,), ("adcp.self_s", "tables.self_s")),
    (
        ("packets_per_s", "setup_s"), SERVE, (TOKEN,),
        ("fabric.self_s", "fabric.build_fabric_s"),
    ),
    (
        ("packets_per_s",), (RMT,), (ADCP, TOKEN),
        ("telemetry.self_s", "telemetry.spans_recorded"),
    ),
    (
        ("packets_per_s",), (TOKEN,), SERVE,
        ("stateful.self_s", "stateful.build_s", "stateful.state_accesses"),
    ),
    (
        ("setup_s", "wall_s"), (TOKEN,), (),
        ("runtime.import_s", "program.compile_s", "ledger.build_s"),
    ),
)


def _per_layer() -> tuple[Metric, ...]:
    rows: list[tuple[str, str, str, str]] = []
    for layer in LAYERS:
        rows.append((f"{layer}.self_s", "s", "lower", "profiled self time"))
        rows.append(
            (f"{layer}.share", "fraction", "lower",
             "self time / traced total (relative)")
        )
        if layer in PACKAGES:
            rows.append(
                (f"{layer}.calls_per_packet", "1/packet", "lower",
                 "profiled calls / packets offered")
            )
    rows += [
        ("runtime.import_s", "s", "lower", "import of repro and runners"),
        ("serve.build_schedule_s", "s", "lower", "build_schedule span"),
        ("stateful.build_s", "s", "lower", "build_single spans"),
        ("fabric.build_fabric_s", "s", "lower", "build_fabric span"),
        ("fabric.inject_arrivals_s", "s", "lower", "inject_arrivals span"),
        ("sim.run_s", "s", "lower", "Simulator.run spans"),
        ("fabric.finalize_s", "s", "lower", "finalize_sections span"),
        ("program.compile_s", "s", "lower", "compile_divergence span"),
        ("ledger.build_s", "s", "lower", "ledger() plus serialization"),
        ("sim.events_dispatched", "count", "lower", "kernel dispatches"),
        ("sim.events_coalesced", "count", "higher", "batched admissions"),
        ("sim.coalesced_share", "fraction", "higher",
         "coalesced / logical events"),
        ("sim.events_per_s", "1/s", "higher",
         "logical events / sim.run_s (traced)"),
        ("net.packets_offered", "count", "higher",
         "simulated packets the workload offers"),
        ("net.rss_bytes_per_packet", "B/packet", "lower",
         "peak RSS growth after import / packets offered"),
        ("serve.windows", "count", "higher", "window records closed"),
        ("serve.window_gap_p50_s", "s", "lower",
         "median host time between on_window calls"),
        ("serve.window_gap_max_s", "s", "lower",
         "longest host stall between on_window calls"),
        ("telemetry.spans_recorded", "count", "higher",
         "sampled span hop records"),
        ("stateful.state_accesses", "count", "higher",
         "SCR state accesses over both targets"),
        ("runtime.gc_s", "s", "lower", "time inside gc collections"),
        ("runtime.gc_collections", "count", "lower", "gc collections"),
        ("runtime.gc_share", "fraction", "lower", "gc_s / traced wall"),
        ("runtime.builtin_s", "s", "lower", "profiled C builtin self time"),
        ("trace.overhead_share", "fraction", "lower",
         "traced wall / untraced wall - 1"),
    ]
    predicted = {
        name: (moves, exercised_by, no_change_on)
        for moves, exercised_by, no_change_on, names in _PREDICTIONS
        for name in names
    }
    out = []
    for name, unit, better, doc in rows:
        moves, exercised_by, no_change_on = predicted.get(name, ((), (), ()))
        out.append(
            Metric(
                name, unit, better, doc=doc, moves=moves,
                exercised_by=exercised_by, no_change_on=no_change_on,
            )
        )
    return tuple(out)


PER_LAYER = _per_layer()

RUN_SECONDS = 35


def describe() -> dict:
    """The full self-description (a superset of ``BENCHMARK.json``)."""
    return {
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {
                "name": w.name,
                "why": w.why,
                "call": w.call(),
                "runner": w.runner,
                "args": list(w.args),
                "kwargs": w.kwargs,
            }
            for w in WORKLOADS.values()
        ],
        "end_to_end": [m.to_json() for m in END_TO_END],
        "per_layer": [m.to_json() for m in PER_LAYER],
    }


def benchmark_json() -> dict:
    """``BENCHMARK.json`` exactly as the regression check reads it."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
