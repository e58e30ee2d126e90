"""Smoke-size self-test of the benchmark runner: tiny grids, one mesh
refinement, a few trials.  Run with ``python3 -m pytest bench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402

workloads = run.load_workloads()


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.EXERCISED)


@pytest.mark.parametrize("name", list(run.EXERCISED))
def test_smoke_run_emits_every_metric(name):
    record, spans = run.run_workload(name, seed=7, seconds=0, trace=True, smoke=True)
    assert len(spans) == 1 and spans[0]

    checks = record["checks"]
    known = {workloads.WINDING_LABEL} if name == "homology-refined" else set()
    assert set(checks["failures"]) == known
    assert checks["correct"] and checks["attempted"] > checks["failed"]

    untraced = run.result_line({**record, "trace": 0})
    assert [(k, m["unit"]) for k, m in untraced["metrics"].items()] == run.END_TO_END
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = run.result_line(record)
    assert list(traced["metrics"]) == run.PER_LAYER
    for key, m in traced["metrics"].items():
        if key.startswith("trace_"):
            continue
        if key.startswith(run.EXERCISED[name]):
            assert m["value"] > 0, f"{key} not exercised by {name}"
        else:
            assert m["value"] == 0, f"{key} predicted absent on {name}"
    assert 0 <= traced["metrics"]["trace_uncovered_share"]["value"] < 0.5


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-forms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
