"""formcalc benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of statics-box, homology-refined, leapfrog-64, exact-forms
(see ``workloads.py`` and BENCHMARK.json for what each one stresses);
``all`` runs the four one after another, each in its own process.

The measured work runs in one process, with one thread for BLAS/OpenMP.
Inputs come from ``--seed`` alone.  ``setup_s`` is the median time of
SETUP_REPEATS fresh interpreters that start and import everything a run
needs, plus the median of SETUP_REPEATS input generations in this process.
The timed phase repeats one pass of the workload until the next pass would
end after ``--seconds``; ``wall_s`` is the mean pass (the timed phase's
total over its passes) and ``ops_per_s`` the work of all passes over that
total.  On a shared 2-vCPU VM (Xeon, 2.1 GHz) the speed of Python code
drifted by 1.3-2.5x in spells of seconds to minutes; the median of a
run's few passes jumps between the levels, while the total follows the
share of the run that was slow, so it spreads less from run to run.  The
record keeps every pass time.  Every pass checks its outputs.  With
``--trace 1`` passes alternate between untraced and traced (see
``tracer.py``); the traced ones give the per-layer figures and the
difference is the tracing overhead.

Prints a summary, then as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run also
writes one record file, .bench_out/records/<workload>_seed<N>_trace<T>_*.json,
holding every metric with its unit and sample count, the check counts,
the seed and the environment, so two commits can be compared from their
records alone; a traced run writes its spans next to it.
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must be set before numpy is imported
    os.environ[_var] = "1"

import argparse
import gc
import gzip
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from datetime import datetime, timezone

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3

# (name, unit); the ones BENCHMARK.json lists.  ``ops_per_s`` counts the
# workload's unit of work; ``pass_rate`` is 1 - error_rate.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("pass_rate", "share"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    "grid.gradient_matrix.s",
    "grid.edge_hodge_diagonal.s",
    "grid.solve_poisson_grounded.self_s",
    "grid.surface_flux.s",
    "grid.surface_flux.calls",
    "grid.cg.s",
    "grid.cg.iterations",
    "grid.cg.matvec_nnz",
    "maxwell.solve_electrostatics.s",
    "maxwell.solve_magnetostatics.s",
    "maxwell.flux_through_box.s",
    "maxwell.circulation_around.s",
    "maxwell.evolve_leapfrog.self_s",
    "maxwell.EMState.energy.s",
    "maxwell.EMState.div_B.s",
    "maxwell.EMState.div_D.s",
    "maxwell.PointCharge.push.s",
    "maxwell.step_ms.p50",
    "maxwell.step_ms.p95",
    "maxwell.lorentz_force.s",
    "cli.main.self_s",
    "simplicial.parse_mesh.s",
    "simplicial.SimplicialComplex.__init__.s",
    "simplicial.boundary_matrix.s",
    "simplicial.boundary_matrix.calls",
    "simplicial.SimplicialComplex.orientability.s",
    "cohomology.betti_numbers.self_s",
    "cohomology.smith_normal_form.s",
    "cohomology.smith_normal_form.calls",
    "cohomology.smith_normal_form.entries",
    "cohomology.is_exact.s",
    "cohomology.is_closed.s",
    "cohomology.winding_cochain.s",
    "cochain.coboundary.s",
    "cochain.cup_wedge.s",
    "cochain.hodge_diagonal.s",
    "cochain.stokes_pairing_check.s",
    "forms.PolyForm.wedge.s",
    "forms.PolyForm.d.s",
    "forms.PolyForm.pullback.s",
    "forms.PolyForm.interior.s",
    "forms.PolyForm.hodge.s",
    "forms.PolyForm.sharp.s",
    "poly.Poly.__mul__.calls",
    "poly.Poly.__add__.calls",
    "metric.Metric.det.s",
    "metric.classify.s",
    "trace_overhead_s",
    "trace_uncovered_share",
]

# Per-layer metrics each workload is predicted to exercise; every other
# layer metric (bar the two trace_* ones) is predicted to record no calls.
EXERCISED = {
    "statics-box": ("grid.", "maxwell.solve_", "maxwell.flux_through_box",
                    "maxwell.circulation_around", "cli."),
    "homology-refined": ("simplicial.", "cohomology.", "cochain."),
    "leapfrog-64": ("maxwell.evolve_leapfrog", "maxwell.EMState.",
                    "maxwell.PointCharge.", "maxwell.step_ms."),
    "exact-forms": ("forms.", "poly.", "metric.", "maxwell.lorentz_force"),
}


def load_workloads():
    """Import the workloads against this checkout's ``src`` tree."""
    if not os.path.isfile(os.path.join(SRC, "formcalc", "__init__.py")):
        raise FileNotFoundError(f"formcalc sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    import formcalc
    if os.path.dirname(os.path.dirname(os.path.abspath(formcalc.__file__))) != SRC:
        raise ImportError(f"formcalc imported from {formcalc.__file__}, not {SRC}")
    return workloads


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _timed_pass(wl, inputs, checks) -> float:
    gc.collect()
    start = time.perf_counter()
    wl.run_pass(inputs, checks)
    return time.perf_counter() - start


def measure(wl, inputs, checks, seconds: float, trace: bool) -> dict:
    """Repeat passes until the next one would end after ``seconds``.
    With ``trace``, passes alternate untraced / traced."""
    import tracer as tracing

    untraced, traced, layer_samples, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            t = tracing.Tracer()
            with t.install():
                elapsed = _timed_pass(wl, inputs, checks)
            sample = tracing.summarize(t.spans, t.counts)
            sample.update(wl.layer_extras(inputs))
            sample["trace_uncovered_share"] = max(0.0, 1.0 - sample.pop("covered_s") / elapsed)
            traced.append(elapsed)
            layer_samples.append(sample)
            spans.append(t.spans)
        else:
            untraced.append(_timed_pass(wl, inputs, checks))
        passes = untraced + traced
        ready = len(passes) >= max(wl.min_passes, 2 if trace else 1)
        if ready and time.perf_counter() - start + _median(passes) > seconds:
            break
    return {"untraced": untraced, "traced": traced,
            "layer_samples": layer_samples, "spans": spans}


def layer_metrics(result: dict) -> dict:
    """Median over traced passes of every per-layer figure; absent ones are 0."""
    samples = result["layer_samples"]
    keys = sorted({k for s in samples for k in s})
    table = {k: _median([s.get(k, 0) for s in samples]) for k in keys}
    table["trace_overhead_s"] = _mean(result["traced"]) - _mean(result["untraced"])
    return table


def environment() -> dict:
    import numpy
    import scipy
    uname = platform.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "system": f"{uname.system} {uname.release}",
        "machine": uname.machine,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def source_digest() -> str:
    """sha256 over the program and benchmark sources, to tell commits apart."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "formcalc"), BENCH):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(top, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def startup_times(repeats: int) -> list[float]:
    """Wall time of fresh interpreters that start and import what a run needs."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {BENCH!r}]; import workloads"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, list]:
    """Set up, measure and check one workload; returns the run record and
    the spans of the traced passes."""
    workloads = load_workloads()
    start_times = startup_times(SETUP_REPEATS)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.build(name, workdir, smoke=smoke)
        gen_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = wl.setup(seed)
            gen_times.append(time.perf_counter() - t0)
        checks = workloads.Checks(wl.known_defects)
        result = measure(wl, inputs, checks, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = _mean(result["untraced"])
    units = wl.units_per_pass(inputs)
    error_rate = checks.failed / max(checks.attempted, 1)
    n_wall = len(result["untraced"])
    end_to_end = {
        "setup_s": (_median(start_times) + _median(gen_times), "s", SETUP_REPEATS),
        "wall_s": (wall, "s", n_wall),
        "ops_per_s": (units / wall, "1/s", n_wall),
        "error_rate": (error_rate, "share", checks.attempted),
        "pass_rate": (1.0 - error_rate, "share", checks.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": "smoke" if smoke else "full",
        "unit_of_work": wl.unit, "units_per_pass": units,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in end_to_end.items()},
        "timings": {"startup_import_s": start_times, "setup_generation_s": gen_times,
                    "untraced_pass_s": result["untraced"],
                    "traced_pass_s": result["traced"]},
        "checks": {"correct": checks.correct, "attempted": checks.attempted,
                   "failed": checks.failed, "failures": checks.failures,
                   "known_defects": checks.known},
        "environment": environment(),
        "source_sha256": source_digest(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if trace:
        table = layer_metrics(result)
        n_traced = len(result["traced"])
        record["per_layer"] = {k: {"value": table.get(k, 0), "unit": layer_unit(k),
                                   "samples": n_traced} for k in PER_LAYER}
        record["per_layer_all"] = {k: {"value": v, "unit": layer_unit(k),
                                       "samples": n_traced} for k, v in table.items()}
    return record, result["spans"]


def layer_unit(key: str) -> str:
    if key.endswith((".s", "_s")):
        return "s"
    if ".step_ms." in key:
        return "ms"
    if key.endswith("_share"):
        return "share"
    return "count"


def write_record(record: dict, spans: list) -> str:
    """One JSON file per run; a traced run also writes its spans, gzipped."""
    folder = os.path.join(OUT, "records")
    os.makedirs(folder, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = os.path.join(folder, f"{record['workload']}_seed{record['seed']}"
                                f"_trace{record['trace']}_{stamp}_{os.getpid()}")
    if record["trace"]:
        with gzip.open(base + "_spans.json.gz", "wt") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "passes": spans}, f)
        record["spans_file"] = os.path.relpath(base + "_spans.json.gz", ROOT)
    with open(base + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return base + ".json"


def summary_lines(record: dict) -> list[str]:
    e2e = record["end_to_end"]
    checks = record["checks"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"seconds {record['seconds']}  trace {record['trace']}"]
    for key in ("setup_s", "wall_s", "ops_per_s", "error_rate", "peak_rss_mb", "pass_rate"):
        m = e2e[key]
        note = ""
        if key == "ops_per_s":
            note = f"  ({record['unit_of_work']} per second)"
        elif key == "wall_s":
            note = f"  (mean of {m['samples']} passes)"
        elif key == "error_rate":
            note = f"  ({checks['failed']} of {checks['attempted']} checks failed)"
        lines.append(f"  {key:<12} = {m['value']:.6g} {m['unit']}{note}")
    for label, count in sorted(checks["failures"].items()):
        known = " (known defect)" if label in checks["known_defects"] else ""
        lines.append(f"  FAILED {label} x{count}{known}")
    if record["trace"]:
        for key, m in record["per_layer"].items():
            lines.append(f"  {key:<45} = {m['value']:.6g} {m['unit']}")
    return lines


def result_line(record: dict) -> dict:
    """The last stdout line: correct, attempted, failed and the metrics."""
    if record["trace"]:
        chosen = record["per_layer"]
    else:
        chosen = {k: record["end_to_end"][k] for k, _ in END_TO_END}
    return {"correct": record["checks"]["correct"],
            "attempted": record["checks"]["attempted"],
            "failed": record["checks"]["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in chosen.items()}}


def run_all(args) -> int:
    """Each workload in its own process, so each pays its own set-up."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in EXERCISED:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*EXERCISED, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        record, spans = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:  # no usable formcalc sources
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_record(record, spans)
    print("\n".join(summary_lines(record)))
    print("record:", os.path.relpath(path, ROOT))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
