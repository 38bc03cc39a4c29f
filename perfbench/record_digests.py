"""Record the digests of the exact outputs that have no closed form.

    python3 perfbench/record_digests.py

Run from the root of a checkout of the commit whose outputs are the
reference; it rewrites perfbench/digests.json.  The recorded outputs do
not depend on the seed.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    path = HERE / "digests.json"
    if not path.exists():
        path.write_text("{}\n")
    import workloads

    recorded = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for size in ("full", "tiny"):
            for job in workloads.strata(0, size, Path(tmp)):
                if "digest" in job.expect:
                    recorded[job.name] = job.observe(job.run())["digest"]
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(json.dumps(recorded, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
