"""Each command line in README's `## CLI` block runs and exits 0."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from brokenlines.extreal import INF, ExtReal
from brokenlines.families import build_family
from brokenlines.orders import LinOrder
from brokenlines.rep import rep_from_gaps

ROOT = Path(__file__).resolve().parents[1]


def readme_cli_lines():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


LINES = readme_cli_lines()


def test_readme_has_cli_lines():
    assert LINES and all(line.startswith("brokenlines ") for line in LINES)


@pytest.mark.parametrize("line", LINES)
def test_readme_cli_line_runs(line, tmp_path):
    # the `sheaf` line names a family file the user supplies
    family, _ = build_family(
        LinOrder.standard(2),
        [rep_from_gaps([g]) for g in (ExtReal(0), INF)],
        ids=["a", "b"], edges=[("a", "b")], limits=["b"],
    )
    (tmp_path / "family.json").write_text(json.dumps(family.to_json()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "brokenlines.cli", *shlex.split(line)[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
