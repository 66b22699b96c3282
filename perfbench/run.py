"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sim1-reps --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It imports ``circfit`` from ``src/`` of
that root and nothing else, pins BLAS and OpenMP to one thread, prints a
summary line per metric with its unit, writes the full report (answer
fingerprints, recorded errors, and the spans of a traced run) under
``perfbench/results/``, and prints one JSON object as its last line.  With
``--trace 0`` that object holds the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.
"""

import argparse
import json
import os
import sys

THREADS = "1"
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS  # before numpy loads its BLAS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_harness():
    """Import the harness against this checkout's package, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "circfit", "__init__.py")):
        sys.exit(f"perfbench: no circfit package under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import circfit

    if os.path.dirname(os.path.dirname(os.path.abspath(circfit.__file__))) != SRC:
        sys.exit(f"perfbench: circfit imported from {circfit.__file__}, not {SRC}")
    import harness

    return harness


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    harness = load_harness()
    if args.workload not in harness.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}, "
                 f"expected one of {sorted(harness.WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    workload = harness.WORKLOADS[args.workload]

    report, tracer = harness.run(
        workload, args.seed, args.seconds, trace=bool(args.trace)
    )
    report["blas_threads"] = int(THREADS)
    problems = []
    if tracer is not None:
        values, problems = harness.layer_metrics(tracer.spans, report)
        metrics = spec["per_layer"]
        report["self_check"] = problems
    else:
        values = {"setup_s": report["setup_s"], "op_s": report["op_s"]}
        metrics = spec["end_to_end"]
    report["metrics"] = values

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(
        out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}"
    )
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    if tracer is not None:
        tracer.write(stem + "-spans.json")

    print(f"workload {workload.name} seed {args.seed} "
          f"blas_threads {THREADS} trace {args.trace}")
    for name, unit in (("fits_per_min", "1/min"), ("queries_per_s", "1/s"),
                       ("fail_frac", "ratio"), ("coverage_frac", "ratio"),
                       ("warmup_s", "s")):
        if name in report:
            print(f"  {name} {report[name]!r} {unit}")
    for message, count in report["errors"].items():
        print(f"  error x{count}: {message}")
    for problem in problems:
        print(f"  self-check failed: {problem}")
    for m in metrics:
        print(f"  {m['name']} {values[m['name']]!r} {m['unit']}")

    print(json.dumps({
        "correct": report["wrong"] == 0 and not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
