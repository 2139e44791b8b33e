#!/usr/bin/env python3
"""hyptet benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload dual-ladder --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``perfbench/README.md``).  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a readable report.  The full record,
with the environment and the spans of a traced run, goes to
``perfbench/results/``.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark stops with status 1 and prints no result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# BLAS threads are fixed before numpy loads, at two (or fewer, when fewer
# CPUs are available), so that a run's dense algebra does not depend on the
# size of the machine
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
SETUP_REPEATS = 3
#: counts and their ratios are exact, so they are taken from one pass
EXACT_UNITS = ("count", "ratio")

# the full report: every figure, for every workload
REPORT_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "call_ms": "ms",
    "maximize_s": "s",
    "solve_s": "s",
    "rigidity_s": "s",
    "cell_query_us": "us",
    "cell_query_p99_us": "us",
    "bulk_ns_per_row": "ns",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
    "ok_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    src = ROOT / "src"
    if not (src / "hyptet" / "__init__.py").is_file():
        raise SystemExit(f"error: no hyptet package under {src}")
    sys.path.insert(0, str(src))
    import hyptet

    if Path(hyptet.__file__).resolve().parent != (src / "hyptet").resolve():
        raise SystemExit(f"error: hyptet was imported from {hyptet.__file__}")


def set_up(cls, seed):
    """Everything before the first timed call: inputs of pass 0, warm-up."""
    wl = cls(seed)
    first = wl.make_pass(0)
    wl.warm_up()
    return wl, first


def time_set_up(name, seed):
    """Median wall time of fresh processes that import, generate and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(wl, first, seconds, tracer=None):
    """Closed-loop passes while a typical pass still ends within ``seconds``.

    ``first`` holds the inputs of pass 0.  Returns the pass records and,
    when tracing, each pass's span range.
    """
    from workloads import untraced

    passes, ranges, took = [], [], []
    start = time.perf_counter()
    p = 0
    while True:
        with untraced(tracer):
            inputs = first if p == 0 else wl.make_pass(p)
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        passes.append(wl.run_pass(inputs, tracer))
        took.append(time.perf_counter() - t0)
        ranges.append((first_span, len(tracer.spans) if tracer else 0))
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return passes, ranges
        p += 1


def summarize(wl, passes, setup_s):
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    typical = wl.typical_times(passes)
    bulk = passes[0].rows
    per_row = [k for k in passes[0].latencies if k not in bulk]
    # per query type: one call's typical latency, and the 99th percentile
    # over all of the run's calls
    per_call = [typical[k] / len(passes[0].latencies[k]) for k in per_row]
    p99 = [
        statistics.quantiles([x for r in passes for x in r.latencies[k]], n=100)[98]
        for k in per_row
    ]
    bulk_rows = sum(bulk.values())

    def stage(name):
        return sum(wl.typical_times(passes, name).values())

    s = {
        "setup_s": setup_s,
        "pipeline_s": sum(typical.values()),
        "maximize_s": stage("maximize"),
        "solve_s": stage("solve"),
        "rigidity_s": stage("rigidity"),
        "cell_query_us": 1e6 * statistics.fmean(per_call) if per_call else 0.0,
        "cell_query_p99_us": 1e6 * statistics.fmean(p99) if p99 else 0.0,
        "bulk_ns_per_row": 1e9 * sum(typical[k] for k in bulk) / bulk_rows if bulk_rows else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
        "ok_frac": 1.0 - failed / attempted,
    }
    s["call_ms"] = 1e3 * (
        sum(per_call) if wl.headline == "per-row" else s[f"{wl.headline}_s"]
    )
    return s


def declared(trace):
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def per_layer(traced, ranges, spans, plain, units):
    """Per-layer metrics: exact counts of the first traced pass, medians of times."""
    from tracing import layer_metrics

    per_pass = []
    for a, b in ranges:
        sub = [s[:3] + ((s[3] - a) if s[3] >= 0 else -1,) + s[4:] for s in spans[a:b]]
        per_pass.append(layer_metrics(sub))
    out = {}
    for name, first in per_pass[0].items():
        exact = units[name] in EXACT_UNITS
        out[name] = first if exact else statistics.median(m[name] for m in per_pass)
    # the same passes, traced and not: the difference is the tracer's cost
    pairs = zip(traced, plain)
    out["trace.overhead_s"] = statistics.median(
        _pass_total(t) - _pass_total(u) for t, u in pairs
    )
    return out


def _pass_total(rec):
    return sum(sum(stages.values()) for stages in rec.times.values())


def run_workload(cls, args):
    from environment import kernel_table, record
    from tracing import Tracer

    setup_s = None if args.trace else time_set_up(cls.name, args.seed)
    wl, first = set_up(cls, args.seed)
    units = declared(args.trace)
    report = {"workload": cls.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        plain, _ = run_passes(wl, first, args.seconds / 2)
        with Tracer() as tracer:
            traced, ranges = run_passes(wl, first, args.seconds / 2, tracer)
        passes = plain + traced
        metrics = per_layer(traced, ranges, tracer.spans, plain, units)
        spans_path = RESULTS / f"spans-{cls.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        report["spans_file"] = spans_path.name
    else:
        passes, _ = run_passes(wl, first, args.seconds)
        metrics = report["summary"] = summarize(wl, passes, setup_s)
    incorrect = [m for r in passes for m in r.incorrect]
    result = {
        "correct": not incorrect,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    report.update(
        passes=len(passes),
        pass_times=[r.times for r in passes],
        incorrect=incorrect[:20],
        environment=record(ROOT, BLAS_THREADS),
        kernel_ns_per_row=kernel_table(),
        result=result,
    )
    out = RESULTS / f"{cls.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"# {cls.name} seed={args.seed} passes={len(passes)}")
    print("# " + " ".join(f"{k}={v}" for k, v in report["environment"].items()))
    for backend, table in report["kernel_ns_per_row"].items():
        print(f"# {backend} kernels, ns/row: "
              + " ".join(f"{k}={v:.4g}" for k, v in table.items()))
    for k, unit in (units if args.trace else REPORT_UNITS).items():
        print(f"#   {k:<42} {metrics[k]:.6g} {unit}")
    for message in incorrect[:5]:
        print(f"# INCORRECT {message}")
    print(f"# record: {out.relative_to(ROOT)}")
    return result


def main(argv=None):
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    if args.setup_only:
        set_up(WORKLOADS[names[0]], args.seed)
        return 0
    for name in names:
        result = run_workload(WORKLOADS[name], args)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
