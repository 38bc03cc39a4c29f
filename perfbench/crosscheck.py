"""Time the ROADMAP baseline items at the package defaults.

    python3 perfbench/crosscheck.py

Run from the root of a checkout.  Each item runs once in a fresh
interpreter: the torus connection search with the default `Tolerances`,
`enumerate_linear_preorders(7)` and `tw_enumerate(5)`.  The benchmark
workloads use smaller or coarser versions of these; this script relates
their numbers to the ROADMAP's hand timings.  It takes about a minute.
"""

import json
import subprocess
import sys

ITEMS = {
    "torus_find_connections_s": (
        "from brokenlines import morse\n"
        "s = morse.Torus(); tol = morse.Tolerances()\n"
        "c = morse.find_critical_points(s, tol)\n"
        "t = time.perf_counter(); segs = morse.find_connections(s, c, tol)\n"
        "print(time.perf_counter() - t, len(segs))"),
    "enumerate_linear_preorders_7_s": (
        "from brokenlines import enumerate_linear_preorders\n"
        "t = time.perf_counter(); out = enumerate_linear_preorders(7)\n"
        "print(time.perf_counter() - t, len(out))"),
    "tw_enumerate_5_s": (
        "from brokenlines import tw_enumerate\n"
        "t = time.perf_counter(); objs, mors = tw_enumerate(5)\n"
        "print(time.perf_counter() - t, len(mors))"),
}


def main():
    out = {}
    for name, body in ITEMS.items():
        code = "import sys, time\nsys.path.insert(0, 'src')\n" + body
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=600)
        seconds, size = proc.stdout.split()
        out[name] = {"seconds": round(float(seconds), 3), "size": int(size)}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
