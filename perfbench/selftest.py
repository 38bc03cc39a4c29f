"""Self-tests of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Run from the root of a checkout.  They check that a tiny run of every
workload prints every metric of BENCHMARK.json with its unit, that a
planted wrong expectation raises the failure count without ending the
pass, that digests do not depend on the order of enumerated sets, and
that the span tree of a traced pass is well formed.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_worker():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker
    import workloads
    return worker, workloads


def test_every_metric_with_its_unit():
    for w in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = _bench(w["name"], trace)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], kind, set(got) ^ set(want))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name


def test_planted_wrong_count_is_a_failure_not_an_abort():
    worker, workloads = _import_worker()
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        jobs = workloads.strata(3, "tiny", Path(tmp))
        honest = worker.run_jobs(jobs)
        assert honest[2] == [], honest[2]
        jobs[0].expect["count"] += 1            # a wrong closed form
        jobs[1].run = lambda: 1 / 0             # a job that raises
        seconds, ops, failures = worker.run_jobs(jobs)
    assert ops == honest[1]
    assert len(failures) == 1 + len(jobs[1].expect), failures
    assert set(seconds) == {job.name for job in jobs}, "a failure ended the pass"


def test_digest_ignores_enumeration_order():
    _, workloads = _import_worker()
    report = {"count": 3, "amalgams": [[0, 0], [0, 1], [1, 1]],
              "poset_edges": [[1, 0], [2, 1]]}
    shuffled = {"count": 3, "amalgams": [[1, 1], [0, 0], [0, 1]],
                "poset_edges": [[0, 2], [2, 1]]}
    assert workloads.canonical_report(report) == workloads.canonical_report(shuffled)
    moved = dict(shuffled, poset_edges=[[0, 2], [2, 0]])
    assert workloads.canonical_report(report) != workloads.canonical_report(moved)


def test_span_tree_is_well_formed():
    sys.path.insert(0, str(HERE))
    import tracer
    result = _bench("strata", 1)
    spans = json.loads((ROOT / "perfbench" / "out" / "spans-strata.json").read_text())
    assert spans["start"], "no spans stored"
    assert tracer.check_span_tree(spans) == []
    roots = [i for i, p in enumerate(spans["parent"]) if p < 0]
    assert all(spans["names"][spans["name"][i]].startswith("job:") for i in roots)
    for layer in tracer.LAYERS:
        assert result["metrics"][f"{layer}.self_s"]["value"] >= 0


def test_span_checker_finds_a_child_outside_its_parent():
    sys.path.insert(0, str(HERE))
    import tracer
    spans = {"start": [0, 5, 8], "end": [10, 9, 12], "parent": [-1, 0, 1]}
    problems = tracer.check_span_tree(spans)
    assert any("outside its parent" in p for p in problems), problems


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except Exception as exc:  # report every test, then fail
                failed += 1
                print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
