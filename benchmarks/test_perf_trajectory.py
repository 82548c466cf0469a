"""Experiment T2 — self-performance: simulator wall-clock throughput.

Times a pinned parameter-server workload on both switch models and
records packets/sec and kernel events/sec of *the simulator itself*.
The measurements land in ``BENCH_PROFILE.json`` at the repo root; the
committed copy is the trajectory baseline, and a run that is more than
20% slower prints a non-blocking ``::warning::`` line (GitHub Actions
renders it as an annotation) instead of failing — wall-clock on shared
CI runners is too noisy for a hard gate.

Measurement discipline (see docs/KERNEL.md):

- the timed region is ``switch.run(workload)`` only — switch
  construction and workload materialization happen outside it, so the
  number tracks the event kernel rather than Python object setup;
- ``events`` counts *logical* events: ``events_dispatched`` plus
  ``events_coalesced``.  Batched admission folds whole same-timestamp
  bursts into single kernel dispatches; the coalesced counter keeps the
  benchmark unit comparable across kernel generations (a coalesced
  event is work the kernel completed, just without a heap round-trip).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchlib import report
from repro.adcp.switch import ADCPSwitch
from repro.apps import ParameterServerApp
from repro.rmt.switch import RMTSwitch
from repro.telemetry import ResourceMonitor, Telemetry

REPO_ROOT = Path(__file__).resolve().parent.parent
PROFILE_PATH = REPO_ROOT / "BENCH_PROFILE.json"

#: Throughput drop versus the committed baseline that triggers a warning.
REGRESSION_THRESHOLD = 0.20

#: The kernel should clear this multiple of the pre-overhaul kernel's
#: events/s; below it the kernel-bench prints a non-blocking
#: ``::warning::`` (satellite gate for the speed overhaul).
KERNEL_SPEEDUP_FLOOR = 5.0

#: Documented budget for resource-monitor sampling at the default
#: interval; the assert allows 3x for CI timer noise (same pattern as
#: the T1 telemetry-overhead gate).
MONITOR_OVERHEAD_BUDGET = 0.10
MONITOR_NOISE_FACTOR = 3.0

WORKERS = [0, 1, 4, 5]
VECTOR = 256
REPEATS = 5


def _setup_rmt(config):
    app = ParameterServerApp(WORKERS, VECTOR, elements_per_packet=1)
    switch = RMTSwitch(config, app)
    return switch, list(app.workload(config.port_speed_bps))


def _setup_adcp(config):
    app = ParameterServerApp(WORKERS, VECTOR, elements_per_packet=16)
    switch = ADCPSwitch(config, app)
    return switch, list(app.workload(config.port_speed_bps))


def _logical_events(sim) -> int:
    return sim.events_dispatched + sim.events_coalesced


def _measure(setup, config) -> dict:
    """Best-of-N run-only wall clock for one switch model.

    Construction and workload materialization stay outside the timed
    region; each repeat uses a fresh switch (``run`` is single-shot).
    """
    best_s = float("inf")
    switch = result = None
    for _ in range(REPEATS):
        switch, workload = setup(config)
        start = time.perf_counter()
        result = switch.run(workload)
        best_s = min(best_s, time.perf_counter() - start)
    # Terminal packets: everything the run disposed of.
    packets = len(result.delivered) + result.consumed + len(result.dropped)
    events = _logical_events(switch._sim)
    return {
        "wall_s": best_s,
        "packets": packets,
        "events": events,
        "events_dispatched": switch._sim.events_dispatched,
        "events_coalesced": switch._sim.events_coalesced,
        "packets_per_s": packets / best_s,
        "events_per_s": events / best_s,
        "sim_duration_s": result.duration_s,
    }


def _baseline() -> dict:
    if not PROFILE_PATH.exists():
        return {}
    try:
        return json.loads(PROFILE_PATH.read_text()).get("switches", {})
    except (json.JSONDecodeError, OSError):
        return {}


def test_perf_trajectory(bench_rmt_config, bench_adcp_config):
    baseline = _baseline()
    measured = {
        "rmt": _measure(_setup_rmt, bench_rmt_config),
        "adcp": _measure(_setup_adcp, bench_adcp_config),
    }

    rows = []
    warnings = []
    for label, row in measured.items():
        rows.append(
            f"{label:>5}: {row['wall_s'] * 1e3:7.2f} ms wall, "
            f"{row['packets_per_s'] / 1e3:8.1f} kpkt/s, "
            f"{row['events_per_s'] / 1e3:8.1f} kevt/s"
        )
        old = baseline.get(label)
        if old and old.get("packets_per_s"):
            ratio = row["packets_per_s"] / old["packets_per_s"]
            rows.append(
                f"       vs committed baseline: {ratio - 1.0:+.1%} pkt/s"
            )
            if ratio < 1.0 - REGRESSION_THRESHOLD:
                warnings.append(
                    f"::warning file=benchmarks/test_perf_trajectory.py::"
                    f"{label} throughput dropped {1.0 - ratio:.0%} vs the "
                    f"committed BENCH_PROFILE.json baseline "
                    f"({row['packets_per_s']:.0f} vs "
                    f"{old['packets_per_s']:.0f} pkt/s)"
                )

    report(
        "T2 — self-performance trajectory (wall-clock throughput)",
        rows + warnings,
        data={"switches": measured, "warnings": warnings},
    )
    for line in warnings:
        print(line)

    try:
        profile = json.loads(PROFILE_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        profile = {}
    profile["workload"] = {
        "app": "ParameterServerApp",
        "workers": WORKERS,
        "vector": VECTOR,
        "repeats": REPEATS,
    }
    profile["switches"] = measured
    PROFILE_PATH.write_text(json.dumps(profile, indent=1))

    # Sanity, not a perf gate: both simulators made real progress.
    assert measured["rmt"]["packets"] > 0
    assert measured["adcp"]["packets"] > 0
    assert measured["rmt"]["events_per_s"] > 0
    assert measured["adcp"]["events_per_s"] > 0


def _measure_fabric(target: str) -> dict:
    """Best-of-N wall clock for one fabric run (leaf-spine, all-reduce)."""
    from repro.fabric import run_fabric

    best_s = float("inf")
    run = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        run = run_fabric(
            "leaf-spine-2x2",
            "fabric-allreduce",
            target=target,
            make_telemetry=lambda: None,
        )
        best_s = min(best_s, time.perf_counter() - start)
    packets = sum(
        s.result.delivered_count + s.result.consumed + s.result.dropped_count
        for s in run.sections
    )
    events = run.events + run.events_coalesced
    return {
        "wall_s": best_s,
        "packets": packets,
        "events": events,
        "events_dispatched": run.events,
        "events_coalesced": run.events_coalesced,
        "packets_per_s": packets / best_s,
        "events_per_s": events / best_s,
        "sim_duration_s": run.duration_s,
    }


def test_fabric_throughput_trajectory():
    """Fabric-scale simulator throughput: 4 switches on one kernel.

    Same trajectory discipline as the single-switch rows — measured
    pkt/s and evt/s folded into BENCH_PROFILE.json under ``fabric``,
    non-blocking warning on a >20% drop vs the committed copy.
    """
    try:
        profile = json.loads(PROFILE_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        profile = {}
    baseline = profile.get("fabric", {})

    measured = {
        "rmt": _measure_fabric("rmt"),
        "adcp": _measure_fabric("adcp"),
    }

    rows = []
    warnings = []
    for label, row in measured.items():
        rows.append(
            f"{label:>5}: {row['wall_s'] * 1e3:7.2f} ms wall, "
            f"{row['packets_per_s'] / 1e3:8.1f} kpkt/s, "
            f"{row['events_per_s'] / 1e3:8.1f} kevt/s"
        )
        old = baseline.get(label)
        if old and old.get("packets_per_s"):
            ratio = row["packets_per_s"] / old["packets_per_s"]
            rows.append(
                f"       vs committed baseline: {ratio - 1.0:+.1%} pkt/s"
            )
            if ratio < 1.0 - REGRESSION_THRESHOLD:
                warnings.append(
                    f"::warning file=benchmarks/test_perf_trajectory.py::"
                    f"fabric {label} throughput dropped {1.0 - ratio:.0%} "
                    f"vs the committed BENCH_PROFILE.json baseline "
                    f"({row['packets_per_s']:.0f} vs "
                    f"{old['packets_per_s']:.0f} pkt/s)"
                )

    report(
        "T2c — fabric throughput trajectory (leaf-spine-2x2 all-reduce)",
        rows + warnings,
        data={"fabric": measured, "warnings": warnings},
    )
    for line in warnings:
        print(line)

    profile["fabric"] = measured
    PROFILE_PATH.write_text(json.dumps(profile, indent=1))

    for row in measured.values():
        assert row["packets"] > 0
        assert row["events_per_s"] > 0
        # Batched admission must stay live at fabric scale: the injector
        # merges cross-host same-timestamp bursts so the kernel coalesces
        # them instead of heap-dispatching each arrival (the seed profile
        # regressed to events_coalesced == 0; this is the guard).
        assert row["events_coalesced"] > 0


SERVE_DURATION_NS = 10_000.0
SERVE_WINDOW_NS = 500.0


def _measure_serve(target: str, *, monitored: bool) -> dict:
    """Best-of-N wall clock for one serve run (leaf-spine, all-reduce).

    ``monitored=True`` is the real serving configuration: rolling
    windows every ``SERVE_WINDOW_NS`` plus per-switch resource monitors
    on the same grid.  ``monitored=False`` drives the identical
    schedule with monitoring effectively off — no per-switch monitors
    (``make_telemetry=lambda: None``) and a single window covering the
    whole horizon, so the time probe fires once.  The pair isolates the
    cost of always-on observation.
    """
    from repro.serve.runner import run_serve

    kwargs = dict(
        target=target,
        duration_ns=SERVE_DURATION_NS,
        window_ns=SERVE_WINDOW_NS if monitored else SERVE_DURATION_NS,
    )
    if not monitored:
        kwargs["make_telemetry"] = lambda: None
    best_s = float("inf")
    run = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        run = run_serve("leaf-spine-2x2", "fabric-allreduce", **kwargs)
        best_s = min(best_s, time.perf_counter() - start)
    totals = run.totals()
    events = run.events + run.events_coalesced
    return {
        "wall_s": best_s,
        "offered_packets": totals["injected"],
        "delivered_packets": totals["delivered_to_hosts"],
        "offered_pps_sim": totals["injected"] / run.schedule.duration_s,
        "achieved_pps_sim": totals["delivered_to_hosts"] / run.duration_s,
        "windows": totals["windows"],
        "events": events,
        "events_per_s": events / best_s,
        "sim_duration_s": run.duration_s,
    }


def test_serve_throughput_trajectory():
    """Serving-mode trajectory: offered vs achieved load, monitor cost.

    Folds a ``serve`` section into BENCH_PROFILE.json: per-target
    events/s with full monitoring on, the offered vs achieved packet
    rates (simulated domain), and the wall-clock overhead of always-on
    monitoring vs the same run with observation off.  Non-blocking
    warning on a >20% events/s drop vs the committed copy.
    """
    try:
        profile = json.loads(PROFILE_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        profile = {}
    baseline = profile.get("serve", {})

    measured = {}
    rows = []
    warnings = []
    for label in ("rmt", "adcp"):
        full = _measure_serve(label, monitored=True)
        bare = _measure_serve(label, monitored=False)
        overhead = full["wall_s"] / bare["wall_s"] - 1.0
        measured[label] = {
            **full,
            "bare_wall_s": bare["wall_s"],
            "monitor_overhead": overhead,
        }
        rows.append(
            f"{label:>5}: {full['wall_s'] * 1e3:7.2f} ms wall, "
            f"{full['events_per_s'] / 1e3:8.1f} kevt/s, "
            f"offered {full['offered_pps_sim'] / 1e6:6.1f} Mpkt/s vs "
            f"achieved {full['achieved_pps_sim'] / 1e6:6.1f} Mpkt/s (sim), "
            f"monitor overhead {overhead:+.1%}"
        )
        old = baseline.get(label)
        if old and old.get("events_per_s"):
            ratio = full["events_per_s"] / old["events_per_s"]
            rows.append(
                f"       vs committed baseline: {ratio - 1.0:+.1%} evt/s"
            )
            if ratio < 1.0 - REGRESSION_THRESHOLD:
                warnings.append(
                    f"::warning file=benchmarks/test_perf_trajectory.py::"
                    f"serve {label} throughput dropped {1.0 - ratio:.0%} "
                    f"vs the committed BENCH_PROFILE.json baseline "
                    f"({full['events_per_s']:.0f} vs "
                    f"{old['events_per_s']:.0f} evt/s)"
                )

    report(
        "T2e — serve throughput trajectory (leaf-spine-2x2, open-loop)",
        rows + warnings,
        data={"serve": measured, "warnings": warnings},
    )
    for line in warnings:
        print(line)

    profile["serve"] = measured
    PROFILE_PATH.write_text(json.dumps(profile, indent=1))

    for row in measured.values():
        assert row["delivered_packets"] > 0
        assert row["offered_packets"] >= row["delivered_packets"]
        assert row["events_per_s"] > 0
        assert row["windows"] >= 10


#: events/s of the pre-overhaul kernel on the RMT quickstart row (the
#: BENCH_PROFILE.json committed before the dispatch-loop + batched-
#: admission rework).  The kernel-bench warns when the kernel falls
#: under KERNEL_SPEEDUP_FLOOR times this floor.
SEED_HEAP_EVENTS_PER_S = 6573.9


def test_kernel_bench(bench_rmt_config):
    """Kernel-bench: the RMT quickstart row, run-only events/s.

    Records the row under ``kernel`` in BENCH_PROFILE.json and prints a
    non-blocking ``::warning::`` when it lands below 5x the pre-overhaul
    kernel's events/s.
    """
    row = _measure(_setup_rmt, bench_rmt_config)
    speedup = row["events_per_s"] / SEED_HEAP_EVENTS_PER_S
    rows = [
        f"kernel: {row['wall_s'] * 1e3:7.2f} ms wall, "
        f"{row['events_per_s'] / 1e3:8.1f} kevt/s "
        f"({speedup:.1f}x the pre-overhaul kernel)"
    ]
    warnings = []
    if speedup < KERNEL_SPEEDUP_FLOOR:
        warnings.append(
            f"::warning file=benchmarks/test_perf_trajectory.py::"
            f"kernel at {row['events_per_s']:.0f} evt/s is only "
            f"{speedup:.1f}x the pre-overhaul baseline "
            f"({SEED_HEAP_EVENTS_PER_S:.0f} evt/s); the speed overhaul "
            f"floor is {KERNEL_SPEEDUP_FLOOR:.0f}x"
        )

    report(
        "T2d — kernel bench (RMT quickstart, run-only)",
        rows + warnings,
        data={"kernel": row, "warnings": warnings},
    )
    for line in warnings:
        print(line)

    try:
        profile = json.loads(PROFILE_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        profile = {}
    profile["kernel"] = {
        "seed_heap_events_per_s": SEED_HEAP_EVENTS_PER_S,
        "speedup_floor": KERNEL_SPEEDUP_FLOOR,
        "row": row,
    }
    PROFILE_PATH.write_text(json.dumps(profile, indent=1))
    assert row["packets"] > 0 and row["events"] > 0


#: Documented events/s budget for ``sampled`` telemetry vs ``off`` on the
#: RMT quickstart row (docs/SPANS.md); the assert allows the same 3x CI
#: noise factor as the monitor gate.
SAMPLED_OVERHEAD_BUDGET = 0.10

#: Head-sampling rate used by the observability-overhead rows (matches
#: the ``repro spans`` default).
OBSERVABILITY_SAMPLE = 16


def _measure_level(config, level: str) -> dict:
    """Best-of-N run-only wall clock for one telemetry level.

    Each repeat builds a fresh hub (span recorders accumulate) and a
    fresh switch; only ``switch.run`` is timed, as in ``_measure``.
    """
    best_s = float("inf")
    switch = result = None
    for _ in range(REPEATS):
        telemetry = Telemetry.at_level(
            level, seed=0, sample=OBSERVABILITY_SAMPLE
        )
        app = ParameterServerApp(WORKERS, VECTOR, elements_per_packet=1)
        switch = RMTSwitch(config, app, telemetry=telemetry)
        workload = list(app.workload(config.port_speed_bps))
        start = time.perf_counter()
        result = switch.run(workload)
        best_s = min(best_s, time.perf_counter() - start)
    packets = len(result.delivered) + result.consumed + len(result.dropped)
    events = _logical_events(switch._sim)
    return {
        "level": level,
        "wall_s": best_s,
        "packets": packets,
        "events": events,
        "events_dispatched": switch._sim.events_dispatched,
        "events_coalesced": switch._sim.events_coalesced,
        "events_per_s": events / best_s,
        "fast_path": switch.trace is None,
    }


def test_observability_overhead(bench_rmt_config):
    """T2f — events/s at every telemetry level on the RMT quickstart.

    The ladder's contract is that ``counters`` and ``sampled`` keep the
    fast path: batched admission live (``events_coalesced > 0``) and
    sampled events/s within ~10% of ``off``.  ``full`` pays for complete
    tracing and is reported but not gated.  A sampled overhead above the
    budget prints a non-blocking ``::warning::``; the hard asserts cover
    the structural claims (fast path kept, identical logical progress)
    with a noise allowance on the wall-clock one.
    """
    measured = {
        level: _measure_level(bench_rmt_config, level)
        for level in ("off", "counters", "sampled", "full")
    }
    off = measured["off"]

    rows = []
    warnings = []
    for level, row in measured.items():
        overhead = off["wall_s"] and row["wall_s"] / off["wall_s"] - 1.0
        row["overhead_vs_off"] = overhead
        rows.append(
            f"{level:>9}: {row['wall_s'] * 1e3:7.2f} ms wall, "
            f"{row['events_per_s'] / 1e3:8.1f} kevt/s "
            f"({overhead:+.1%} vs off, "
            f"{row['events_coalesced']} coalesced)"
        )
    sampled = measured["sampled"]
    if sampled["overhead_vs_off"] > SAMPLED_OVERHEAD_BUDGET:
        warnings.append(
            f"::warning file=benchmarks/test_perf_trajectory.py::"
            f"sampled telemetry costs {sampled['overhead_vs_off']:+.1%} "
            f"events/s vs off on the RMT quickstart (budget "
            f"{SAMPLED_OVERHEAD_BUDGET:.0%}); the span fast path may "
            f"have regressed"
        )

    report(
        "T2f — observability overhead (RMT quickstart, per telemetry level)",
        rows + warnings,
        data={"observability": measured, "warnings": warnings},
    )
    for line in warnings:
        print(line)

    try:
        profile = json.loads(PROFILE_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        profile = {}
    profile["observability"] = {
        "sample": OBSERVABILITY_SAMPLE,
        "budget": SAMPLED_OVERHEAD_BUDGET,
        "levels": measured,
    }
    PROFILE_PATH.write_text(json.dumps(profile, indent=1))

    # Structural fast-path claims are exact; wall clock gets noise room.
    for level in ("off", "counters", "sampled"):
        assert measured[level]["fast_path"]
        assert measured[level]["events_coalesced"] > 0
        assert measured[level]["events_dispatched"] == off["events_dispatched"]
    assert not measured["full"]["fast_path"]
    # Logical progress is level-invariant (dispatched + coalesced).
    assert len({row["events"] for row in measured.values()}) == 1
    assert len({row["packets"] for row in measured.values()}) == 1
    assert (
        sampled["overhead_vs_off"]
        < SAMPLED_OVERHEAD_BUDGET * MONITOR_NOISE_FACTOR
    )


def _monitored_hub():
    """A hub carrying only the resource monitor: tracing disabled so the
    measurement isolates clock-grid sampling from event recording."""
    telemetry = Telemetry(monitor=ResourceMonitor())
    telemetry.trace.disable()
    return telemetry


def _time_rmt(config, make_telemetry, repeats=5):
    """Best-of-N wall clock for one telemetry variant."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        app = ParameterServerApp(WORKERS, VECTOR, elements_per_packet=1)
        switch = RMTSwitch(config, app, telemetry=make_telemetry())
        start = time.perf_counter()
        result = switch.run(app.workload(config.port_speed_bps))
        best = min(best, time.perf_counter() - start)
    return best, result


def test_monitor_sampling_overhead(bench_rmt_config):
    """Resource-monitor sampling at the default interval stays under its
    documented 10% throughput budget, and the sampled run's simulated
    outcome is identical to the unmonitored one (probes only read)."""
    baseline_s, baseline = _time_rmt(bench_rmt_config, lambda: None)
    monitored_s, monitored = _time_rmt(bench_rmt_config, _monitored_hub)
    overhead = monitored_s / baseline_s - 1.0

    report(
        "T2b — resource-monitor sampling overhead (RMT, default interval)",
        [
            f"no monitor  : {baseline_s * 1e3:7.2f} ms",
            f"with monitor: {monitored_s * 1e3:7.2f} ms "
            f"({overhead:+.1%} vs baseline; "
            f"budget {MONITOR_OVERHEAD_BUDGET:.0%})",
        ],
        data={
            "baseline_s": baseline_s,
            "monitored_s": monitored_s,
            "monitor_overhead": overhead,
            "budget": MONITOR_OVERHEAD_BUDGET,
        },
    )

    # Fold the number into the trajectory profile next to the throughput
    # rows (tolerate a missing file when this test runs alone).
    try:
        profile = json.loads(PROFILE_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        profile = {}
    profile["monitor_overhead"] = {
        "baseline_s": baseline_s,
        "monitored_s": monitored_s,
        "overhead": overhead,
        "budget": MONITOR_OVERHEAD_BUDGET,
    }
    PROFILE_PATH.write_text(json.dumps(profile, indent=1))

    assert overhead < MONITOR_OVERHEAD_BUDGET * MONITOR_NOISE_FACTOR
    assert monitored.duration_s == baseline.duration_s
    assert len(monitored.delivered) == len(baseline.delivered)
    assert monitored.recirculated_packets == baseline.recirculated_packets
