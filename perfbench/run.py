"""The brokenlines benchmark.

    python3 perfbench/run.py --workload mainc --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass of the workload is a fresh
single-threaded interpreter (perfbench/worker.py), so the `lru_cache` on
`tw_enumerate` and the import state never carry over.  Passes run in
rounds, one pass per CPU at once, each pinned to its own CPU (at most
two), until `--seconds` is spent (at least MIN_ROUNDS rounds); the pass
count is printed with the results.

With `--trace 0` the last line holds the end-to-end metrics:
  wall_s       seconds in the jobs of one pass, set-up excluded: the mean
               over the passes, so every second measured counts
  setup_s      median seconds from spawn to the first job
  peak_rss_mb  median peak resident memory of a pass, MiB
  ops          checked operations in one pass
`failed`/`attempted` in the same line give fail_ratio over all passes.
With `--trace 1` every round holds one traced pass and the others
untraced, and the last line holds the per-layer metrics of the traced
passes, with trace.overhead_s (traced minus untraced wall_s) and
fail_ratio.

Why two CPUs at once: on a shared machine each CPU runs at times up to
1.5x slower than at others, for tens of seconds at once and apart from the
other CPU, so passes on both CPUs double the samples a run averages over.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mainc", "strata", "flow")
MIN_ROUNDS = 2  # enough for one traced pass on one CPU; bounds the run on a slow host
RUN_LIMIT_S = 170  # every pass must end within this time from the start
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ops": "count"}


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".density")) or name == "fail_ratio":
        return "ratio"
    if name.endswith("_max"):
        return "1"
    if name.endswith("us_per_object") or name.endswith("us_per_field_row"):
        return "us"
    return "count"


def run_pass(root, args, workdir, cpu, spans, timeout):
    """One pass in a fresh interpreter pinned to `cpu`; traced when `spans`
    names a file."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--workdir", str(workdir / f"cpu{cpu}"),
           "--cpu", str(cpu),
           "--spawned", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("BROKENLINES_OUT", None)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(root):
    def count_lines(path):
        return sum(1 for _ in path.open())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_lines": sum(count_lines(p) for p in (root / "src").rglob("*.py")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="brokenlines benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "brokenlines" / "__init__.py").is_file():
        print("no src/brokenlines here: run from the root of a brokenlines checkout",
              file=sys.stderr)
        return 2
    out = root / "perfbench" / "out"
    workdir = out / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(root, args, out, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(root, args, out, workdir):
    passes = {False: [], True: []}
    cpus = sorted(os.sched_getaffinity(0))[:2]
    spans = out / f"spans-{args.workload}.json"
    start = time.monotonic()
    rounds = 0
    with ThreadPoolExecutor(len(cpus)) as pool:
        while True:
            # with --trace 1 one pass per round is traced, on each CPU in turn
            traced = [args.trace == 1 and (rounds + k) % 2 == 1 for k in range(len(cpus))]
            timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
            results = pool.map(
                lambda cpu, t: run_pass(root, args, workdir, cpu, t and spans, timeout),
                cpus, traced)
            for t, result in zip(traced, results):
                passes[t].append(result)
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
                break

    every = passes[False] + passes[True]
    failures = [f for p in every for f in p["failures"]]
    attempted = sum(p["ops"] for p in every)
    plain = passes[False]

    def median(key, runs=plain):
        return statistics.median(p[key] for p in runs)

    def mean(key, runs=plain):
        return statistics.mean(p[key] for p in runs)

    if args.trace == 0:
        values = {"wall_s": mean("wall_s"), "setup_s": median("setup_s"),
                  "peak_rss_mb": median("peak_rss_mb"), "ops": plain[0]["ops"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    else:
        traced = passes[True]
        layers = {key: statistics.median(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        layers["process.cpu_s"] = median("cpu_s", traced)
        layers["trace.overhead_s"] = mean("wall_s", traced) - mean("wall_s")
        layers["fail_ratio"] = len(failures) / attempted
        metrics = {k: {"value": v, "unit": metric_unit(k)} for k, v in sorted(layers.items())}

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "passes": len(plain), "traced_passes": len(passes[True]),
        "cpus": cpus,
        "wall_s_per_pass": [round(p["wall_s"], 4) for p in plain],
        "job_s_per_pass": [{job: round(t, 4) for job, t in p["job_s"].items()}
                           for p in plain],
        "ops": plain[0]["ops"], "fail_ratio": len(failures) / attempted,
        "machine": machine(root),
    }
    print(json.dumps(summary))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
