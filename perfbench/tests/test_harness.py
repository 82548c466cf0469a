"""Self-test of the benchmark harness, on tiny workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402

#: Runner overrides that shrink each workload to well under a second.
TINY = {
    "serve-adcp": {"duration_ns": 2000.0},
    "serve-rmt-sampled": {"duration_ns": 2000.0},
    "stateful-tokenbucket": {"packets": 200},
}


@pytest.fixture(scope="module")
def tiny_results():
    """Each workload measured once at tiny size: two timed, two traced."""
    return {
        name: run.run_workload(name, 1, 0, True, TINY[name])
        for name in WORKLOADS
    }


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json()


def test_benchmark_json_keeps_its_contract():
    doc = benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert 1 <= len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert unit.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(
    workload, tiny_results, capsys
):
    result = tiny_results[workload]
    for trace, metrics in ((False, END_TO_END), (True, PER_LAYER)):
        doc = run.report([result], trace, 1, 0)
        text = capsys.readouterr().out
        assert set(doc["metrics"]) == {m.name for m in metrics}
        for metric in metrics:
            assert doc["metrics"][metric.name]["unit"] == metric.unit
            assert re.search(
                rf"^\s+{re.escape(metric.name)}\s.*\s"
                rf"{re.escape(metric.unit)}(\s|$)",
                text,
                re.MULTILINE,
            ), metric.name
        assert "failed_share" in text
        assert result["digest"] in text


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_passes_its_output_checks(workload, tiny_results):
    result = tiny_results[workload]
    assert result["failed"] == 0, [r["failed"] for r in result["records"]]
    kinds = {r["traced"] for r in result["records"]}
    assert kinds == {False, True}
    # Timed and traced runs agree on the ledger digest.
    assert {r["digest"] for r in result["records"]} == {result["digest"]}


def test_corrupted_digest_counts_as_a_failed_run(tiny_results):
    records = copy.deepcopy(tiny_results["serve-adcp"]["records"])
    records[1]["digest"] = "0" * 64
    result = run.fold("serve-adcp", records, trace=True)
    assert result["attempted"] == len(records)
    assert result["failed"] == 1
    assert "differs" in records[1]["failed"][0]
    # The failed run stays in the sample.
    assert len(result["samples"]["wall_s"]) == sum(
        1 for r in records if not r["traced"]
    )


def test_crashed_run_counts_as_a_failed_run(tiny_results):
    records = copy.deepcopy(tiny_results["stateful-tokenbucket"]["records"])
    records.append({"traced": False, "error": "exit 1: boom"})
    result = run.fold("stateful-tokenbucket", records, trace=False)
    assert (result["attempted"], result["failed"]) == (len(records), 1)


def test_token_conservation_check_fires():
    workload = WORKLOADS["stateful-tokenbucket"]
    packets = workload.kwargs["packets"]

    def section(label, admitted, limited):
        series = {
            "admitted": {"mean": admitted},
            "rate_limited": {"mean": limited},
            "state_accesses": {"mean": admitted + limited},
        }
        return SimpleNamespace(label=label, series=series)

    params = {"packets": packets}
    good = SimpleNamespace(
        params=params, sections=[section("adcp:tokenbucket", packets - 5, 5)]
    )
    bad = SimpleNamespace(
        params=params, sections=[section("rmt:tokenbucket", packets - 5, 4)]
    )
    assert child.output_checks(workload, good)[0] == []
    failures, _ = child.output_checks(workload, bad)
    assert len(failures) == 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-adcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
