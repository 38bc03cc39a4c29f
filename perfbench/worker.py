"""One pass of one workload, in a fresh interpreter.

Started by run.py with the CLOCK_MONOTONIC time of its spawn, so the pass
can report its own set-up time: interpreter start, `import brokenlines`
(with numpy) and making the seeded inputs.  Then it runs every job of the
workload, times the jobs only, checks each output against its oracle and
prints one JSON line.  A failed check or an exception in a job is counted
and never ends the pass.

    python3 perfbench/worker.py --workload mainc --seed 1 --workdir DIR \\
        --cpu N --spawned NS [--spans FILE] [--size tiny]

With `--spans` the pass is traced and its span tree is written to FILE.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def monotonic_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_jobs(jobs, call=lambda name, fn: fn()):
    """({job: seconds}, checks attempted, failure messages)."""
    seconds = {}
    ops = 0
    failures = []
    for job in jobs:
        ops += len(job.expect)
        t0 = time.perf_counter()
        try:
            raw = call(job.name, job.run)
        except Exception as exc:  # a crash is a failure, not an abort
            seconds[job.name] = time.perf_counter() - t0
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            failures.extend([f"{job.name}.{key}: not reached" for key in job.expect][1:])
            continue
        seconds[job.name] = time.perf_counter() - t0
        try:
            got = job.observe(raw)
        except Exception as exc:
            failures.append(f"{job.name}: output unreadable: {type(exc).__name__}: {exc}")
            failures.extend([f"{job.name}.{key}: unreadable" for key in job.expect][1:])
            continue
        for key, want in job.expect.items():
            if got.get(key) != want:
                failures.append(f"{job.name}.{key}: got {got.get(key)!r}, want {want!r}")
    return seconds, ops, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--cpu", type=int, required=True, help="the CPU to run on")
    parser.add_argument("--spawned", type=int, required=True)
    parser.add_argument("--spans", help="trace the pass; file for its span tree")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).parent))
    import brokenlines
    if not Path(brokenlines.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"brokenlines imported from {brokenlines.__file__}, not ./src")
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)

    tracer = None
    call = lambda name, fn: fn()  # noqa: E731
    if args.spans:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        call = tracer.job
    setup_s = (monotonic_ns() - args.spawned) / 1e9

    cpu0 = time.process_time()
    job_s, ops, failures = run_jobs(jobs, call)
    result = {
        "wall_s": sum(job_s.values()),
        "job_s": job_s,
        "setup_s": setup_s,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
