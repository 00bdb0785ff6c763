"""faslcr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload analytic_spread --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
run measures set-up time in fresh processes, then repeats full passes of the
workload until ``--seconds`` have elapsed, checks every pass's output, and
prints a readable report followed by one JSON line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds one traced pass and reports the
per-layer metrics instead.  See perfbench/README.md.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_REPEATS = 9
# Passes are repeated until --seconds have passed, and at least this often,
# so a workload whose pass is longer than the run still reports a median of
# two measurements.
MIN_PASSES = 2
SETUP_TIMEOUT_S = 60

# A fresh process imports faslcr and builds the workload's configs, profiles
# and sweep specs; it reports the time from its first statement.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
wl = workloads.WORKLOADS[sys.argv[3]]
workloads.build_plan(wl, workloads.make_inputs(wl, int(sys.argv[4])))
print(repr(time.perf_counter() - t0))
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def measure_setup(workload, seed):
    """Median set-up time over SETUP_REPEATS fresh processes, after one warm-up."""
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), workload, str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True, cwd=ROOT)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "faslcr" / "__init__.py").is_file():
        print(f"perfbench: faslcr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import faslcr
    if Path(faslcr.__file__).resolve().parent != SRC / "faslcr":
        print(f"perfbench: imported faslcr from {faslcr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    plan = workloads.build_plan(wl, workloads.make_inputs(wl, args.seed))
    setup_s = None if args.trace else measure_setup(wl.name, args.seed)

    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(workloads.run_pass(plan))
    traced = tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = workloads.run_pass(plan)

    reference = passes[0]
    content_failures = workloads.check_outputs(plan, reference)
    attempted = failed = 0
    problems = dict(content_failures)
    for p in passes + ([traced] if traced else []):
        bad = set(p.errors) | set(content_failures) | workloads.changed_points(p, reference)
        problems.update(p.errors)
        problems.update({k: "differs from the first pass" for k in bad if k not in problems})
        attempted += plan.points
        failed += len(bad)

    wall_s = statistics.median(p.wall_s for p in passes)
    point_ms = 1e3 * np.array([s for p in passes for s in p.point_s])
    tail_pct = workloads.tail_percentile(point_ms.size)
    # Every end-to-end figure of the report; END_TO_END names those that are
    # steady enough on this kind of host to bound (see README.md).
    report = [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} fresh processes"),
        ("wall_s", wall_s, "s", f"median of {len(passes)} passes"),
        ("point_ms.p50", float(np.median(point_ms)), "ms", f"{point_ms.size} samples"),
        ("point_ms.tail", float(np.percentile(point_ms, tail_pct)), "ms",
         f"p{tail_pct:g} of {point_ms.size} samples"),
        ("mc_port_samples_per_s",
         statistics.median(plan.mc_port_samples / p.mc_s for p in passes) if plan.mc else None,
         "1/s", f"median of {len(passes)} passes"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "this process"),
        ("fail_frac", failed / attempted, "",
         f"{failed} of {attempted} points failed a check or raised"),
    ]
    print(f"workload {wl.name}  seed {args.seed}  passes {len(passes)}  "
          f"points/pass {plan.points}")
    for name, value, unit, note in report:
        if value is None:
            print(f"  {name:<24} {'n/a':>14}")
        else:
            print(f"  {name:<24} {value:14.6g} {unit:<6} {note}")
    for key, why in sorted(problems.items(), key=str)[:20]:
        print(f"  FAIL {key}: {why}")

    if args.trace:
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = (traced.wall_s - wall_s, "s")
        print(f"traced pass: wall {traced.wall_s:.6g} s, {len(tracer.spans)} spans")
        for name, (value, unit) in layers.items():
            share = f"{value / traced.wall_s:7.1%} of traced pass" if unit == "s" else ""
            print(f"  {name:<58} {value:14.6g} {unit:<15} {share}")
        metrics = layers
    else:
        metrics = {name: (value, unit) for name, value, unit, _ in report if name in END_TO_END}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
