"""diffden pipeline benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one by one

A run times set-up in fresh interpreters, then calls the workload's entry
point (`bench.run_case` or `bench.score_mse_study`) back to back for
`--seconds`, checks every cell of every call, and prints a table of each
metric with its unit, median, quartiles and sample count.  With `--trace 1`
the second half of the calls runs under the span tracer of `spans.py` and
the per-layer metrics are reported instead of the end-to-end ones.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

diffden is imported from `src/` of the checkout this script sits in, never
from an installed copy; without it the run exits non-zero before measuring.
The BLAS thread variables are left as they are, so diffden's own
single-thread pinning applies.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
ENTRIES = ("bench.run_case", "bench.score_mse_study")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_names():
    import spans

    return spans.metric_names(ENTRIES) + [
        ("setup.make_density_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.child_share", "1", "higher"),
    ]


def import_diffden():
    sys.path.insert(0, str(SRC))
    try:
        import diffden
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import diffden from {SRC}: {exc}")
    if Path(diffden.__file__).resolve().parent != SRC / "diffden":
        raise SystemExit(f"perfbench: diffden imported from {diffden.__file__}, "
                         f"not from {SRC}")


def run_facts(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            revision = done.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_revision": revision,
        "seed": seed,
    }


def probe_setup(name, seed):
    """Wall time from launching a fresh interpreter until it is ready to make
    the first workload call, plus the probe's own make_density time."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), name,
                           str(seed)], stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
    return elapsed, json.loads(line)["make_density_s"]


def check(workload, results, entropy):
    """(attempted cells, failed cells, cells of the first call).

    A cell fails its own check (workloads.cells) or differs from the same
    cell of the first call, since every call of a run has the same seed."""
    import workloads

    first = workloads.cells(workload, results[0], entropy)
    attempted = failed = 0
    for result in results:
        cells = workloads.cells(workload, result, entropy)
        attempted += max(len(cells), len(first))
        failed += abs(len(cells) - len(first))
        for (key, value, ok), (key0, value0, _) in zip(cells, first):
            failed += not ok or key != key0 or value != value0
    return attempted, failed, first


def measure(name, seed, seconds, trace, shrink=None):
    from diffden import bench
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    setup = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    config = workload.config(seed)
    if shrink is not None:
        config = shrink(config)
    entry = getattr(bench, workload.entry)

    results, untraced, traced, per_call = [], [], [], []
    start = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    while not untraced or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        results.append(entry(config))
        untraced.append(time.perf_counter() - t0)
    if trace:
        with spans.Tracer() as tracer:
            while not traced or time.perf_counter() - start < seconds:
                t0 = time.perf_counter()
                result, root = tracer.root(f"bench.{workload.entry}", entry, config)
                traced.append(time.perf_counter() - t0)
                results.append(result)
                per_call.append(spans.summarize(tracer.spans, root))
        missing = tracer.missing
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # after the peak is read: the case-3 reference draws 200k points
    entropy = (workloads.reference_entropy(config)
               if workload.entry == "run_case" else None)
    print("run_s per call: " + " ".join(f"{v:.4f}" for v in untraced))
    attempted, failed, first = check(workload, results, entropy)
    samples = {
        "setup_s": [s for s, _ in setup],
        "run_s": untraced,
        "peak_rss_mb": [peak_rss_mb],
    }
    table = [(n, u, samples[n]) for n, u, _ in END_TO_END]
    quality, unit, value = workloads.quality(workload, first, entropy)
    table.append((quality, unit, [value]))
    if entropy is not None:  # margin to the plausibility band of the check
        table.append(("max |bpd - entropy|", "bit/dim",
                      [max(abs(bpd - entropy) for _, bpd, _ in first)]))
    table.append(("failed_share", f"of {attempted}", [failed / attempted]))
    metrics = {n: (u, statistics.median(samples[n])) for n, u, _ in END_TO_END}
    if trace:
        names = per_layer_names()
        layer = spans.median_metrics(per_call, [n for n, _, _ in names])
        layer["setup.make_density_s"] = statistics.median(m for _, m in setup)
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        table += [(n, u, [layer[n]]) for n, u, _ in names]
        table.append(("traced run_s", "s", traced))
        metrics = {n: (u, layer[n]) for n, u, _ in names}
        if missing:
            print("missing (reported as 0 calls): " + ", ".join(missing))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (u, v) in metrics.items()},
    }, table


def print_table(table):
    print(f"{'metric':44s} {'unit':>9s} {'median':>13s} {'p25':>13s} "
          f"{'p75':>13s} {'n':>4s}")
    for name, unit, values in table:
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{name:44s} {unit:>9s} {statistics.median(values):13.6g} "
              f"{q[0]:13.6g} {q[2]:13.6g} {len(values):4d}")


def run_all(args):
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None, shrink=None):
    """Run the benchmark; `shrink` maps the workload config to a smaller one
    (the self-test uses it)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_diffden()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    print("facts " + json.dumps(run_facts(args.seed)))
    print(f"workload {workload.name}: {workload.why}")
    print(f"skips: {workload.skips}")
    result, table = measure(args.workload, args.seed, args.seconds, args.trace,
                            shrink)
    print_table(table)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
