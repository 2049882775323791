"""The toeplimit benchmark.

Run from the root of a checkout:

    python3 benchmark/run.py --workload demo_cli --seed 0 --seconds 36 --trace 0

``--trace 0`` times passes with tracing off and prints the end-to-end
metrics; ``--trace 1`` makes the separate traced run and prints the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give machine info and every end-to-end metric with its unit. A run whose
output checks fail prints the failures on standard error and exits 1.

``--regenerate-reference`` records this checkout's outputs as the reference
for (workload, seed); nothing else writes under ``benchmark/reference``.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without it the run exits 2 and prints no result. BLAS runs
single-threaded, so the CLI's default workers (one per CPU) are the only
threads doing work.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".benchmark_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("demo_cli", "wide_blocks", "oracle_checks"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print 'ready' and exit "
                        "(used to time set-up in a fresh process)")
    p.add_argument("--regenerate-reference", action="store_true",
                   help="overwrite the recorded reference outputs for this "
                        "workload and seed with this checkout's outputs")
    return p.parse_args(argv)


def import_package():
    """Import toeplimit from this checkout's src/ or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "toeplimit", "__init__.py")):
        print(f"benchmark: no package source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import toeplimit
    if not os.path.abspath(toeplimit.__file__).startswith(src + os.sep):
        print(f"benchmark: imported toeplimit from {toeplimit.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_package()
    import checks
    import harness
    import workloads

    os.makedirs(SCRATCH, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, ROOT, SCRATCH)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if args.regenerate_reference:
        _, runs = harness.run_pass(workload)
        entries = {item.id: checks.reference_entry(item.model, run.output)
                   for item, run in zip(workload.items, runs)
                   if item.kind == "limit"}
        if not entries:
            print(f"benchmark: {args.workload} has no limit items",
                  file=sys.stderr)
            return 2
        path = checks.write_reference(args.workload, args.seed, entries,
                                      seed_independent=args.workload == "demo_cli")
        print(f"reference for {args.workload} seed {args.seed} -> {path}")
        return 0

    if args.trace:
        result = harness.traced_result(workload, args.seed, args.seconds,
                                       SCRATCH)
        names = list(harness.LAYER_UNITS)
        units = harness.LAYER_UNITS
    else:
        result = harness.timed_result(workload, args.seed, args.seconds,
                                      os.path.abspath(__file__))
        names = list(harness.COMPARED)
        units = harness.END_TO_END_UNITS
    values, report = result["values"], result["report"]
    print(json.dumps({"machine": harness.machine_info()}))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {k: harness.metric(v, units[k]) for k, v in values.items()},
        "samples": result["samples"], "item_errors": result["errors"],
        "check_failures": report.failures}))
    for failure in report.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not report.failures,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: harness.metric(values[k], units[k]) for k in names}}))
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
