"""The repository benchmark: one command, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-adcp --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --describe

Each run of a workload is a fresh single-threaded Python process
(``child.py``), started one after another until ``--seconds`` have
passed.  ``--trace 0`` reports the end-to-end metrics as medians over
the runs; ``--trace 1`` alternates untraced and traced runs and reports
the per-layer split of the traced ones, plus the tracing overhead.
``--workload all`` runs every workload in turn and prints their tables
side by side.

Every run's ledger, with ``git_sha`` removed, must hash to the same
digest; stateful runs also check their own token conservation.  A run
that raises, times out, or fails a check counts in ``failed`` and is
never dropped from ``attempted``.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from spec import (  # noqa: E402
    END_TO_END,
    LAYERS,
    PACKAGES,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    describe,
)

#: No child starts after this many seconds, and none outlives
#: ``HARD_LIMIT_S``, so one invocation ends well inside three minutes.
LAST_START_S = 120.0
HARD_LIMIT_S = 170.0
CHILD_TIMEOUT_S = 60.0

#: Pin native thread pools to one thread, so each run is single-threaded.
_CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

TRACE_NOTE = (
    "traced runs execute under cProfile: absolute times are inflated by "
    "trace.overhead_share; shares are relative to the traced total"
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine() -> dict:
    """The machine fingerprint stamped on every report."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
    }


def run_child(config: dict, timeout: float) -> dict:
    """One run in a fresh process; a failure becomes a record too."""
    config = {**config, "spawned": now()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(config)],
            cwd=ROOT,
            env={**os.environ, **_CHILD_ENV},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {
            "traced": config["trace"],
            "error": f"timed out after {timeout:.0f} s",
        }
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {
            "traced": config["trace"],
            "error": f"exit {proc.returncode}: {tail[0]}",
        }
    return json.loads(lines[-1])


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    overrides: dict | None = None,
) -> list[dict]:
    """Run ``workload`` in fresh processes, one after another.

    Untraced runs only, or untraced and traced alternately with
    ``trace``; at least three runs (two of each kind when tracing),
    then more until ``seconds`` have passed.
    """
    start = now()
    kinds = (False, True) if trace else (False,)
    records: list[dict] = []
    minimum = 4 if trace else 3
    while True:
        elapsed = now() - start
        if len(records) >= minimum and elapsed >= seconds:
            break
        if elapsed >= LAST_START_S:
            break
        config = {
            "workload": workload,
            "seed": seed,
            "trace": kinds[len(records) % len(kinds)],
            "overrides": overrides or {},
        }
        timeout = min(CHILD_TIMEOUT_S, HARD_LIMIT_S - elapsed)
        records.append(run_child(config, timeout))
    return records


def judge(records: list[dict]) -> str | None:
    """Mark failed runs in place; returns the agreed ledger digest.

    The digest most runs agree on is the reference; a run whose ledger
    hashes differently fails, as does one that raised or failed its
    own output checks.
    """
    digests = Counter(r["digest"] for r in records if "digest" in r)
    reference = digests.most_common(1)[0][0] if digests else None
    for record in records:
        reasons = []
        if "error" in record:
            reasons.append(record["error"])
        else:
            reasons.extend(record["failures"])
            if record["digest"] != reference:
                reasons.append(
                    f"ledger digest {record['digest'][:12]} differs from "
                    f"{reference[:12]}"
                )
        record["failed"] = reasons
    return reference


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(records: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric's samples over the untraced runs."""
    timed = [r for r in records if not r["traced"] and "error" not in r]
    return {m.name: [r[m.name] for r in timed] for m in END_TO_END}


def per_layer_sample(record: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run."""
    self_s = record["layer_self_s"]
    calls = record["layer_calls"]
    total = sum(self_s.values())
    packets = record["packets_offered"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total
        if layer in PACKAGES:
            out[f"{layer}.calls_per_packet"] = calls[layer] / packets

    def span_s(name: str) -> float:
        return sum(
            s["end"] - s["start"] for s in record["spans"] if s["name"] == name
        )

    stamps = record["window_stamps"]
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    logical = record["events_dispatched"] + record["events_coalesced"]
    sim_run_s = span_s("sim.run")
    out.update(
        {
            "runtime.import_s": record["import_s"],
            "serve.build_schedule_s": span_s("serve.build_schedule"),
            "stateful.build_s": span_s("stateful.build"),
            "fabric.build_fabric_s": span_s("fabric.build_fabric"),
            "fabric.inject_arrivals_s": span_s("fabric.inject_arrivals"),
            "sim.run_s": sim_run_s,
            "fabric.finalize_s": span_s("fabric.finalize"),
            "program.compile_s": span_s("program.compile"),
            "ledger.build_s": record["ledger_s"],
            "sim.events_dispatched": record["events_dispatched"],
            "sim.events_coalesced": record["events_coalesced"],
            "sim.coalesced_share": record["events_coalesced"] / logical,
            "sim.events_per_s": logical / sim_run_s,
            "net.packets_offered": packets,
            "net.rss_bytes_per_packet": record["rss_bytes_per_packet"],
            "serve.windows": record["windows"],
            "serve.window_gap_p50_s": median(gaps) if gaps else 0.0,
            "serve.window_gap_max_s": max(gaps) if gaps else 0.0,
            "telemetry.spans_recorded": record["spans_recorded"],
            "stateful.state_accesses": record["state_accesses"],
            "runtime.gc_s": record["gc_s"],
            "runtime.gc_collections": record["gc_collections"],
            "runtime.gc_share": record["gc_s"] / record["wall_s"],
            "runtime.builtin_s": record["builtin_s"],
        }
    )
    return out


def per_layer(records: list[dict]) -> dict[str, float]:
    """Per-layer medians over the traced runs, plus tracing overhead."""
    ok = [r for r in records if "error" not in r]
    traced = [per_layer_sample(r) for r in ok if r["traced"]]
    out = {
        name: median([sample[name] for sample in traced])
        for name in traced[0]
    }
    untraced_wall = median([r["wall_s"] for r in ok if not r["traced"]])
    traced_wall = median([r["wall_s"] for r in ok if r["traced"]])
    out["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    return out


def fold(workload: str, records: list[dict], trace: bool) -> dict:
    """Judge ``records`` and fold them into one result document.

    ``end_to_end`` holds medians over the untraced runs; with ``trace``,
    ``per_layer`` holds the traced runs' split.  Either is None when no
    run of its kind completed.
    """
    digest = judge(records)
    ok = [r for r in records if "error" not in r]
    timed = [r for r in ok if not r["traced"]]
    samples = end_to_end(records)
    return {
        "workload": workload,
        "records": records,
        "digest": digest,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failed"]),
        "samples": samples,
        "end_to_end": (
            {name: median(values) for name, values in samples.items()}
            if timed
            else None
        ),
        "per_layer": (
            per_layer(records)
            if trace and timed and len(timed) < len(ok)
            else None
        ),
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    overrides: dict | None = None,
) -> dict:
    """Measure one workload and fold its runs into a result document."""
    records = measure(workload, seed, seconds, trace, overrides)
    return fold(workload, records, trace)


# --- reporting --------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.4e}"
    return f"{value:.6g}"


def print_runs(result: dict) -> None:
    for i, record in enumerate(result["records"]):
        kind = "traced" if record["traced"] else "timed "
        if "error" in record:
            print(f"  run {i:>2} {kind} ERROR {record['error']}")
            continue
        status = "ok" if not record["failed"] else "FAILED " + "; ".join(
            record["failed"]
        )
        print(
            f"  run {i:>2} {kind} wall {record['wall_s']:.4f} s  "
            f"setup {record['setup_s']:.4f} s  "
            f"{record['packets_per_s']:.1f} pkt/s  "
            f"rss {record['peak_rss_mb']:.1f} MB  {status}"
        )


def print_end_to_end(result: dict) -> None:
    samples = result["samples"]
    for metric in END_TO_END:
        values = samples[metric.name]
        if not values:
            continue
        q1, q3 = quartiles(values)
        print(
            f"  {metric.name:<16} {_fmt(median(values)):>12} {metric.unit:<5} "
            f"(median of {len(values)}; quartiles {_fmt(q1)}..{_fmt(q3)}; "
            f"{metric.better} is better)"
        )
    share = result["failed"] / result["attempted"]
    print(
        f"  {'failed_share':<16} {_fmt(share):>12} {'fraction':<5} "
        f"({result['failed']}/{result['attempted']} runs failed)"
    )


def print_layer_table(results: list[dict]) -> None:
    """Per-layer metrics, one column per workload, side by side."""
    names = [r["workload"] for r in results]
    width = max(14, *(len(n) for n in names))
    print(f"  {TRACE_NOTE}")
    header = "".join(f" {n:>{width}}" for n in names)
    print(f"  {'metric':<28} {'unit':<9}{header}")
    for metric in PER_LAYER:
        row = "".join(
            f" {_fmt(r['per_layer'][metric.name]):>{width}}"
            for r in results
        )
        print(f"  {metric.name:<28} {metric.unit:<9}{row}")


def report(results: list[dict], trace: bool, seed: int, seconds: float) -> dict:
    """Print the human-readable report; returns the final JSON object."""
    fingerprint = machine()
    print(
        "machine: " + " ".join(f"{k}={v}" for k, v in fingerprint.items())
    )
    for result in results:
        workload = WORKLOADS[result["workload"]]
        print(
            f"{workload.name} seed={seed} seconds={seconds:g} "
            f"trace={int(trace)}: {result['attempted']} runs"
        )
        print(f"  runner: {workload.call().replace('SEED', str(seed))}")
        print(f"  ledger digest: {result['digest']}")
        print_runs(result)
        print_end_to_end(result)
    if trace:
        print_layer_table(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    units = {m.name: m.unit for m in (END_TO_END + PER_LAYER)}
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        chosen = result["per_layer"] if trace else result["end_to_end"]
        for name, value in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--describe", action="store_true",
        help="print workloads, metrics and predictions as JSON",
    )
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=1))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = [
        run_workload(name, args.seed, args.seconds, trace) for name in names
    ]
    key = "per_layer" if trace else "end_to_end"
    missing = [r["workload"] for r in results if r[key] is None]
    if missing:
        for result in results:
            print_runs(result)
        print(
            f"perfbench: no complete run to measure for {', '.join(missing)}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(report(results, trace, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
