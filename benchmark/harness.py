"""Measurement loop, set-up timing, machine info and the result lines.

Passes repeat over a workload's fixed items until the run's seconds are
spent (at least MIN_PASSES). Single passes vary by up to about 20%, so each
item's time is its median over the passes: ``pass_s`` is the sum of those
medians and ``item_s.p50`` their median.
"""
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np
import scipy

import toeplimit as tl
import checks
import workloads
from tracing import LAYER_METRICS, Tracer

MIN_PASSES = 3
SETUP_SAMPLES = 7
SETUP_TIMEOUT = 60

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "item_s.p50": "s", "peak_rss_mb": "MB",
    "failed_frac": "ratio", "arc_residual_max": "ratio", "arc_coverage": "ratio",
    "outlier_count_err": "count", "outlier_residual_max": "ratio",
    "finite_n_hit_frac": "ratio", "widom_relerr_max": "ratio",
}
# The end-to-end metrics compared across commits: the others are exact or
# pass/fail and act through the checks.
COMPARED = ("setup_s", "pass_s", "item_s.p50", "peak_rss_mb")
LAYER_UNITS = {name: ("s" if name.endswith(".s") else
                      "bytes" if name.endswith(".bytes") else "count")
               for name in LAYER_METRICS}
LAYER_UNITS.update({"limitsets.seed_yield": "ratio",
                    "trace.overhead_frac": "ratio"})


def machine_info() -> Dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "toeplimit": tl.__version__,
    }


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return np.column_stack([obj.real, obj.imag]).tolist()
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(runs: List[workloads.ItemRun]) -> str:
    """Digest of every item's outputs (or error) at full precision."""
    digest = hashlib.sha256()
    for run in runs:
        digest.update(json.dumps([run.id, run.output, run.error],
                                 default=_jsonable, sort_keys=True).encode())
    return digest.hexdigest()


def run_pass(workload: workloads.Workload, tracer: Tracer = None):
    """One pass over the items: (wall seconds, item runs)."""
    clock = time.perf_counter
    runs = []
    t0 = clock()
    for item in workload.items:
        if tracer is not None:
            tracer.item = item.id
        runs.append(workloads.run_item(item, clock))
    wall = clock() - t0
    if tracer is not None:
        tracer.item = None
    return wall, runs


def setup_seconds(run_py: str, name: str, seed: int) -> List[float]:
    """Fresh-process set-up times: from spawning the interpreter to its
    'ready' line, which it prints once the package is imported and the
    workload's models are built."""
    times = []
    cmd = [sys.executable, run_py, "--setup-only", "--workload", name,
           "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=SETUP_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed (exit {rc})")
        times.append(elapsed)
    return times


def check(workload, runs, fingerprints, seed) -> checks.CheckReport:
    report = checks.CheckReport()
    if len(set(fingerprints)) != 1:
        report.fail(f"outputs differ between passes: {len(set(fingerprints))} "
                    f"distinct fingerprints")
    limit = [(i, r) for i, r in zip(workload.items, runs) if i.kind == "limit"]
    if limit:
        reference = checks.load_reference(workload.name, seed)
        checks.check_limit_items([i for i, _ in limit], [r for _, r in limit],
                                 reference, report)
    else:
        checks.check_oracle_items(workload.items, runs, report)
    if all(r.output is None for r in runs):
        report.fail("no item succeeded")
    return report


def _failed(workload, pass_runs):
    per_pass = len(workload.items) + len(workload.setup_failures)
    failed = sum(len(workload.setup_failures) + sum(r.output is None
                                                    for r in runs)
                 for runs in pass_runs)
    return per_pass * len(pass_runs), failed


def _errors(workload, pass_runs):
    return sorted({f"{r.id}: {r.error}" for runs in pass_runs for r in runs
                   if r.error} | set(workload.setup_failures))


def _keep_going(started, walls, seconds, minimum):
    elapsed = time.perf_counter() - started
    return len(walls) < minimum or elapsed + statistics.median(walls) <= seconds


def measure(workload, seconds: float, minimum: int = MIN_PASSES):
    """Untraced passes for ``seconds`` (at least ``minimum``)."""
    walls, pass_runs = [], []
    started = time.perf_counter()
    while not walls or _keep_going(started, walls, seconds, minimum):
        wall, runs = run_pass(workload)
        walls.append(wall)
        pass_runs.append(runs)
    return walls, pass_runs


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_result(workload, seed, seconds, run_py) -> Dict:
    setup = setup_seconds(run_py, workload.name, seed)
    walls, pass_runs = measure(workload, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = _failed(workload, pass_runs)
    # per-item medians over passes filter slow bursts item by item
    item_s = [statistics.median(r.seconds for r in same)
              for same in zip(*pass_runs)]
    report = check(workload, pass_runs[0],
                   [fingerprint(runs) for runs in pass_runs], seed)
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(item_s),
        "item_s.p50": statistics.median(item_s) if item_s else 0.0,
        "peak_rss_mb": rss_mb,
        "failed_frac": failed / attempted if attempted else 0.0,
    }
    values.update(report.metrics)
    return {
        "values": values, "report": report, "attempted": attempted,
        "failed": failed,
        "samples": {"setup_s": setup, "pass_s": walls,
                    "items_per_pass": len(workload.items)},
        "errors": _errors(workload, pass_runs),
    }


def traced_result(workload, seed, seconds, scratch) -> Dict:
    """Alternating untraced and traced passes; per-layer metrics from the
    traced ones and tracing overhead as traced over untraced median pass."""
    tracer = Tracer()
    plain, traced, all_runs, traced_fps = [], [], [], []
    started = time.perf_counter()
    while not traced or _keep_going(started, [a + b for a, b in
                                              zip(plain, traced)], seconds, 1):
        wall, runs = run_pass(workload)
        plain.append(wall)
        all_runs.append(runs)
        with tracer.installed():
            wall, runs = run_pass(workload, tracer)
        traced.append(wall)
        all_runs.append(runs)
        traced_fps.append(fingerprint(runs))
    attempted, failed = _failed(workload, all_runs)
    plain_runs = all_runs[0]
    report = check(workload, plain_runs,
                   [fingerprint(plain_runs)] + traced_fps, seed)
    values = tracer.layer_metrics(len(traced))
    values["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    path = os.path.join(scratch, f"trace-{workload.name}-seed{seed}.json")
    tracer.write(path)
    return {
        "values": values, "report": report, "attempted": attempted,
        "failed": failed,
        "samples": {"untraced_pass_s": plain, "traced_pass_s": traced,
                    "spans": len(tracer.spans), "span_names":
                    tracer.span_names(), "spans_file": path},
        "errors": _errors(workload, all_runs),
    }
