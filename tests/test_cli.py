import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brokenlines import acceptance, cli, twisted
from brokenlines.cli import _json_text, main
from brokenlines.families import build_family
from brokenlines.extreal import INF, ExtReal
from brokenlines.orders import (
    LinOrder,
    LinPreorder,
    enumerate_amalgams,
    enumerate_convex_equivalences,
    preorder_ranks,
)
from brokenlines.rep import rep_from_gaps
from brokenlines.vect import nilpotent_upper3, zero_algebra

from test_orders import plant_gap

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def preorders_report(n):
    """The preorders report as the stdlib writes it from the preorders."""
    words = preorder_ranks(n)
    data = {
        "count": len(words),
        "n": n,
        "preorders": [LinPreorder(word).to_json() for word in words],
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_enumerate_preorders(capsys):
    # the report is text grown from the rank enumeration; it must be, byte
    # for byte, what json.dumps writes from the preorders themselves
    for n in range(1, 8):
        code, out = run(capsys, "enumerate", "preorders", "--n", str(n))
        assert code == 0
        assert out == preorders_report(n), n


class RecordedStdout(io.StringIO):
    """A stdout that keeps the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_preorders_report_is_written_one_subtree_at_a_time(monkeypatch, tmp_path):
    stdout = RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["enumerate", "preorders", "--n", "7", "--out-dir", str(tmp_path)]) == 0
    report = stdout.getvalue()
    assert report == preorders_report(7)
    assert (tmp_path / "preorders_7.json").read_bytes() == report.encode()
    # one chunk per rank of label 0, then the closing lines; no write
    # holds the whole report
    assert len(stdout.sizes) == 7 + 1
    assert max(stdout.sizes) < len(report) / 2


def test_a_rank_step_that_leaves_a_gap_fails_before_any_write(
    capsys, monkeypatch, tmp_path
):
    plant_gap(monkeypatch)
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="bitmask 0b[01]+ are no initial segment") as err:
        main(["enumerate", "preorders", "--n", "7", "--out-dir", str(out_dir)])
    mask = int(err.value.args[0].split()[3], 2)
    assert mask & (mask + 1)  # the mask it names has a gap
    assert capsys.readouterr().out == ""
    assert not out_dir.exists()


def test_enumerate_amalgams_with_poset_edges(capsys):
    code, out = run(capsys, "enumerate", "amalgams", "--left", "2", "--right", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["poset_edges"] == [[1, 0]] or data["poset_edges"] == [[0, 1]]


@pytest.mark.parametrize("q", range(1, 6))
@pytest.mark.parametrize("p", range(1, 6))
def test_amalgam_edges_match_all_pairs_leq(capsys, p, q):
    amalgams = enumerate_amalgams(LinOrder.standard(p), LinOrder.standard(q))
    code, out = run(capsys, "enumerate", "amalgams", "--left", str(p), "--right", str(q))
    data = json.loads(out)
    assert data["amalgams"] == [list(a.preorder.ranks) for a in amalgams]
    assert data["poset_edges"] == [
        [i, j]
        for i, a in enumerate(amalgams)
        for j, b in enumerate(amalgams)
        if i != j and a.leq_amalgam(b)
    ]


def test_enumerate_convex(capsys):
    code, out = run(capsys, "enumerate", "convex", "--n", "4")
    data = json.loads(out)
    assert data["count"] == 8


@pytest.mark.parametrize("n", range(1, 9))
def test_convex_edges_match_all_pairs_refinement(capsys, n):
    rels = enumerate_convex_equivalences(LinOrder.standard(n))
    code, out = run(capsys, "enumerate", "convex", "--n", str(n))
    data = json.loads(out)
    assert data["relations"] == [[list(c) for c in r.classes] for r in rels]
    assert data["refinement_edges"] == [
        [i, j]
        for i, a in enumerate(rels)
        for j, b in enumerate(rels)
        if i != j and a.refines(b)
    ]


def test_verify_amalgams(capsys):
    code, out = run(capsys, "verify", "amalgams", "--left", "2", "--right", "2")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert data["pairs_checked"] == data["amalgams"] ** 2


def test_roundtrip_mainc(capsys):
    code, out = run(
        capsys,
        "--truncation",
        "3",
        "roundtrip",
        "mainc",
        "--algebra",
        "builtin:nilpotent3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True


@pytest.mark.parametrize("command", [["roundtrip", "mainc"], ["daycon"]])
def test_truncation_before_or_after_subcommand(capsys, command):
    for argv in (
        ["--truncation", "3", *command],
        [*command, "--truncation", "3"],
        ["--truncation", "2", *command, "--truncation", "3"],  # the later wins
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["truncation"] == 3
    code, out = run(capsys, *command)
    assert code == 0
    assert json.loads(out)["truncation"] == 4


@pytest.mark.parametrize(
    "command",
    [["enumerate", "preorders"], ["verify", "amalgams"], ["sheaf", "--family", "f.json"],
     ["morse", "demo"], ["accept"]],
    ids=["enumerate", "verify", "sheaf", "morse", "accept"],
)
def test_truncation_before_a_command_that_ignores_it_is_a_usage_error(
    capsys, monkeypatch, tmp_path, command
):
    # rejected while parsing: the acceptance suite must not run
    def suite_ran():
        raise AssertionError("the acceptance suite ran")

    monkeypatch.setattr(acceptance, "run_all", suite_ran)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["--truncation", "3", *command, "--out-dir", "out"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        f"brokenlines: error: --truncation applies to roundtrip and daycon only, not {command[0]}"
    ]
    assert list(tmp_path.iterdir()) == []


def test_roundtrip_reports_a_changed_algebra_as_a_witness(capsys, monkeypatch):
    recover = twisted._recover
    monkeypatch.setattr(
        twisted, "_recover", lambda functor, top: (zero_algebra(3), recover(functor, top)[1])
    )
    code, out = run(capsys, "--truncation", "3", "roundtrip", "mainc")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["witness"] == {
        "recovered": zero_algebra(3).to_json(),
        "original": nilpotent_upper3().to_json(),
    }
    assert "natural_iso_components" not in data and "error" not in data


def test_roundtrip_below_truncation_three_is_a_report(capsys):
    code, out = run(capsys, "--truncation", "2", "roundtrip", "mainc")
    assert code == 1
    assert out == json.dumps({
        "algebra": "builtin:nilpotent3",
        "error": "truncation must be at least 3",
        "ok": False,
        "truncation": 2,
    }, indent=2) + "\n"


def test_roundtrip_builds_and_unfolds_one_functor(capsys, monkeypatch):
    calls = []
    for name in ("algebra_to_functor", "_unfolds"):
        def spy(*args, fn=getattr(twisted, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(twisted, name, spy)
    code, out = run(capsys, "--truncation", "4", "roundtrip", "mainc", "--algebra", "builtin:mat2")
    assert code == 0
    assert json.loads(out)["natural_iso_components"] == len(twisted.tw_enumerate(4)[0])
    assert sorted(calls) == ["_unfolds", "algebra_to_functor"]


def test_roundtrip_unknown_builtin(capsys, tmp_path):
    # a bad input, not a failed check: exit 2 and one error line, as for a bad file
    family = tmp_path / "family.json"
    family.write_text(json.dumps(SHEAF_FAMILY))
    known = "['mat2', 'nilpotent3', 'rational', 'zero1']"
    for command in (["roundtrip", "mainc"], ["daycon"], ["sheaf", "--family", str(family)]):
        with pytest.raises(SystemExit) as err:
            main([*command, "--algebra", "builtin:nope"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"brokenlines: error: unknown builtin algebra 'nope'; choose from {known}\n"
        )


def test_daycon(capsys):
    code, out = run(capsys, "--truncation", "3", "daycon", "--algebra", "builtin:rational")
    assert code == 0
    data = json.loads(out)
    assert data["associativity_ok"] is True


def test_sheaf_eval(capsys, tmp_path):
    base = LinOrder.standard(2)
    points = [rep_from_gaps([g]) for g in (ExtReal(0), INF)]
    family, _ = build_family(
        base, points, ids=["a", "b"], edges=[("a", "b")], limits=["b"]
    )
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family.to_json()))
    code, out = run(
        capsys, "sheaf", "--algebra", "builtin:nilpotent3", "--family", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["stalk_dims"] == {"a": 3, "b": 9}
    assert "a->b" in data["edges"]


def test_reports_byte_identical(capsys):
    _, first = run(capsys, "enumerate", "amalgams", "--left", "2", "--right", "3")
    _, second = run(capsys, "enumerate", "amalgams", "--left", "2", "--right", "3")
    assert first == second


def test_out_dir_after_subcommand(capsys, tmp_path):
    code, _ = run(
        capsys, "enumerate", "preorders", "--n", "2", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert json.loads((tmp_path / "preorders_2.json").read_text())["count"] == 3


def test_empty_out_dir_writes_no_file(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    _, plain = run(capsys, "enumerate", "preorders", "--n", "2")
    code, out = run(capsys, "enumerate", "preorders", "--n", "2", "--out-dir", "")
    assert code == 0
    assert out == plain
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--config", "--out-dir"])
def test_an_option_before_the_subcommand_other_than_truncation_is_a_usage_error(
    capsys, monkeypatch, tmp_path, flag
):
    # the option's one source is its flag after the subcommand
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("n = 4\n")
    with pytest.raises(SystemExit) as err:
        main([flag, "run.cfg", "enumerate", "preorders", "--n", "2"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("brokenlines: error: ")
    if flag == "--out-dir":
        # named as the misplaced option, not read as the subcommand
        assert captured.err.splitlines()[-1] == (
            "brokenlines: error: --out-dir goes after the subcommand"
        )
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


def test_the_environment_sets_no_out_dir(capsys, monkeypatch, tmp_path):
    _, plain = run(capsys, "enumerate", "preorders", "--n", "3")
    monkeypatch.setenv("BROKENLINES_OUT", str(tmp_path / "out"))
    code, out = run(capsys, "enumerate", "preorders", "--n", "3")
    assert code == 0
    assert out == plain
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_pipe_exits_quietly():
    # the report is far larger than a pipe buffer, so the writer is still
    # writing when the reader quits after one line, as `| head -1` does
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "brokenlines.cli", "enumerate", "preorders", "--n", "7"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) != 0
    proc.stderr.close()
    assert stderr == b""


class BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


@pytest.mark.parametrize("chunks", [["a", "b", "c"], (c for c in "abc")])
def test_a_broken_stdout_still_gets_the_file_written_once(monkeypatch, tmp_path, chunks):
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        cli._write(chunks, tmp_path, "report.json")
    assert (tmp_path / "report.json").read_text() == "abc"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["enumerate", "surjections", "--target", "0"], "target"),
        (["enumerate", "preorders", "--n", "0"], "n"),
        (["enumerate", "amalgams", "--left", "0"], "left"),
        (["enumerate", "amalgams", "--right", "-1"], "right"),
        (["verify", "amalgams", "--left", "0"], "left"),
        (["--truncation", "0", "daycon"], "truncation"),
        (["roundtrip", "mainc", "--truncation", "0"], "truncation"),
    ],
)
def test_nonpositive_bound_is_a_usage_error(capsys, argv, bound):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    value = argv[argv.index(f"--{bound}") + 1]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"brokenlines: error: {bound} must be a positive integer, got {value}"
    )


# the flags each kind of `enumerate` reads, with their defaults
ENUMERATE_FLAGS = {
    "preorders": {"n": 3},
    "convex": {"n": 3},
    "surjections": {"n": 3, "target": 2},
    "amalgams": {"left": 2, "right": 2},
}


@pytest.mark.parametrize(
    "what, flag",
    [(what, flag) for what, reads in ENUMERATE_FLAGS.items()
     for flag in ("n", "target", "left", "right") if flag not in reads],
)
def test_enumerate_rejects_a_flag_its_kind_does_not_read(capsys, monkeypatch, tmp_path, what, flag):
    # named as not applying, not as a nonpositive bound, and nothing is written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["enumerate", what, f"--{flag}", "0", "--out-dir", "out"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"brokenlines: error: --{flag} does not apply to enumerate {what}"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("what", sorted(ENUMERATE_FLAGS))
def test_enumerate_kinds_keep_their_defaults(capsys, what):
    explicit = [f"--{flag}={value}" for flag, value in ENUMERATE_FLAGS[what].items()]
    _, plain = run(capsys, "enumerate", what)
    code, out = run(capsys, "enumerate", what, *explicit)
    assert code == 0
    assert out == plain


def test_enumerate_flags_have_help_text(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--help"])
    assert err.value.code == 0
    flat = " ".join(capsys.readouterr().out.split())
    for flag in ("n", "target", "left", "right"):
        assert re.search(rf"--{flag} N [^()-]+ \(default \d\)", flat), flag


def test_the_cached_parser_prints_what_a_fresh_one_does(capsys, monkeypatch, tmp_path):
    # after a usage error and after an --out-dir run, each command prints
    # what it printed as the first call of the process
    monkeypatch.chdir(tmp_path)
    commands = [["enumerate", "preorders", "--n", "3"], ["enumerate", "amalgams"],
                ["--truncation", "2", "roundtrip", "mainc"], ["daycon", "--truncation", "2"]]
    cli.build_parser.cache_clear()
    first = [run(capsys, *command) for command in commands]
    parser = cli.build_parser()
    for bad in (["--truncation", "3", "enumerate", "preorders"],
                ["enumerate", "preorders", "--left", "3"],
                ["--out-dir", "out", "enumerate", "amalgams"]):
        with pytest.raises(SystemExit):
            main(bad)
        capsys.readouterr()
        assert [run(capsys, *command) for command in commands] == first
    for i, command in enumerate(commands):
        assert run(capsys, *command, "--out-dir", f"out{i}") == first[i]
        assert [run(capsys, *command) for command in commands] == first
    assert cli.build_parser() is parser
    # each --out-dir run wrote its one report, and no later run wrote there
    written = [[path.name for path in (tmp_path / f"out{i}").iterdir()] for i in range(4)]
    assert written == [["preorders_3.json"], ["amalgams_2_2.json"],
                       ["roundtrip_mainc.json"], ["daycon.json"]]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out0", "out1", "out2", "out3"]


def test_surface_choices_are_the_morse_surfaces():
    from brokenlines import morse

    assert cli._SURFACES == tuple(sorted(morse.SURFACES))


def test_importing_the_cli_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, brokenlines.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert out == "False\n"


# (e0 e0) e1 = e0 e1 = e0 + e1, but e0 (e0 e1) = e0 e0 + e0 e1 = 2 e0 + e1
NON_ASSOCIATIVE = '{"dim": 2, "c": [[["1","1"],["0","0"]],[["0","1"],["1","0"]]]}'
NON_ASSOCIATIVE_REASON = "structure constants are not associative at basis triple (0, 0, 1)"


@pytest.mark.parametrize(
    "command, text, reason",
    [
        ("roundtrip mainc --algebra", '{"dim": 1, "c": [[["x"]]]}',
         "Invalid literal for Fraction: 'x'"),
        ("daycon --algebra", '{"c": [[[1]]]}', "missing key 'dim'"),
        # Fraction() would read 0.1 as 3602879701896397/36028797018963968
        # and true as 1, and both runs would pass
        ("roundtrip mainc --algebra", '{"dim": 1, "c": [[[0.1]]]}',
         "c[0][0][0] must be an int, a Fraction or a 'p/q' string, got 0.1"),
        ("daycon --algebra", '{"dim": 1, "c": [[[true]]]}',
         "c[0][0][0] must be an int, a Fraction or a 'p/q' string, got True"),
        ("daycon --algebra", '{"dim": 1.9, "c": [[["1"]]]}',
         "dimension must be an integer, got 1.9"),
        ("roundtrip mainc --algebra", '{"dim": "1", "c": [[["1"]]]}',
         "dimension must be an integer, got '1'"),
        ("roundtrip mainc --algebra", NON_ASSOCIATIVE, NON_ASSOCIATIVE_REASON),
        ("daycon --algebra", NON_ASSOCIATIVE, NON_ASSOCIATIVE_REASON),
        ("sheaf --family unread.json --algebra", NON_ASSOCIATIVE, NON_ASSOCIATIVE_REASON),
        ("sheaf --family", '{"index": {"n": 2, "rank": [0.5, 1]}, "samples": []}',
         "ranks must be integers, got 0.5"),
        ("sheaf --family", '{"index": {"n": 2, "rank": [0, 0]}, "samples": []}',
         "family index [0, 0] is not a linear order"),
        ("sheaf --family", "{oops", "Expecting property name enclosed in double quotes"),
        ("sheaf --family", "[1]", "expected a JSON object, got list"),
        ("roundtrip mainc --algebra", "[1]", "expected a JSON object, got list"),
        # operator.index reads true as 1, and the run would pass as dimension 1
        ("roundtrip mainc --algebra", '{"dim": true, "c": [[[1]]]}',
         "dimension must be an integer, got True"),
        ("daycon --algebra", '{"dim": 1, "c": [[["1/0"]]]}',
         "c[0][0][0] has a zero denominator, got '1/0'"),
        ("sheaf --family", '{"index": {"n": 2, "rank": [true, false]}, "samples": []}',
         "ranks must be integers, got True"),
        ("sheaf --family", None, "No such file or directory"),
    ],
)
def test_malformed_input_file_is_a_one_line_error(capsys, tmp_path, command, text, reason):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(command.split() + [str(path)])
    assert err.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"brokenlines: error: {path}: {reason}")


# ---------------------------------------------------------- report writer


class Count(int):
    pass


ESCAPES = '"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers().map(Count)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.text()
    | st.text(alphabet=ESCAPES)
)
json_trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.lists(st.integers())
        | st.dictionaries(st.text() | st.text(alphabet=ESCAPES), children)
        | st.dictionaries(st.integers(), children)
    ),
    max_leaves=30,
)


@given(json_trees)
def test_report_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


@st.composite
def same_key_dicts(draw, values):
    """A list of dicts with one set of keys, each inserted in its own order."""
    keys = draw(st.lists(st.text(alphabet="ab\u00e9\"", max_size=3), unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        order = draw(st.permutations(keys))
        rows.append({key: draw(values) for key in order})
    return rows


int_like = st.integers() | st.booleans() | st.integers().map(Count)
int_lists = st.lists(st.lists(st.integers(), max_size=4), max_size=6)
sibling_trees = st.recursive(
    int_like | st.text(max_size=3),
    lambda children: (
        same_key_dicts(children)
        | st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
    ),
    max_leaves=40,
)
siblings = (
    same_key_dicts(sibling_trees)
    | st.lists(int_like, max_size=8)
    | int_lists
    | st.lists(int_lists, max_size=4)
    | st.lists(sibling_trees, max_size=6)
)


def assert_matches_json_dumps_at_each_block(tree):
    expected = json.dumps(tree, sort_keys=True, indent=2)
    # a block of 2 cuts every sibling list of three or more items
    for block in (cli._BLOCK, 2):
        with mock.patch.object(cli, "_BLOCK", block):
            assert _json_text(tree) == expected


@given(siblings)
def test_report_writer_matches_json_dumps_on_siblings(tree):
    assert_matches_json_dumps_at_each_block(tree)


# Rows of one length whose items are all exact ints take the writer's row
# template; a bool, float, int subclass or nested list among them must not.
row_ints = st.integers(-9, 9) | st.integers(min_value=2**70) | st.integers(max_value=-(2**70))
odd_items = (
    st.booleans()
    | st.floats()
    | st.integers().map(Count)
    | st.lists(st.integers(-9, 9), max_size=2)
)


@st.composite
def equal_length_rows(draw):
    """Rows of one length in 1..4, all lists, all tuples or mixed: exact
    ints, with at most two items swapped for odd ones."""
    length = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(row_ints, min_size=length, max_size=length), max_size=6))
    if rows:
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, length - 1))] = draw(odd_items)
    kind = draw(st.sampled_from(["list", "tuple", "mixed"]))
    if kind == "mixed":
        return [tuple(row) if draw(st.booleans()) else row for row in rows]
    return rows if kind == "list" else list(map(tuple, rows))


rows_siblings = (
    equal_length_rows()
    | equal_length_rows().map(lambda rows: [{"n": len(row), "rank": row} for row in rows])
    | st.lists(equal_length_rows(), max_size=3)
    | st.lists(equal_length_rows(), max_size=3).map(tuple)
)


@given(rows_siblings)
def test_report_writer_matches_json_dumps_on_equal_length_rows(tree):
    assert_matches_json_dumps_at_each_block(tree)


def test_report_writer_on_more_siblings_than_one_block():
    n = 2 * cli._BLOCK + 3
    rows = [{"rank": [i % 7, i % 3], "n": 2} for i in range(n)]
    tree = {"ints": list(range(-n, n)), "rows": rows, "mixed": [1, True, Count(2)] * n}
    assert _json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


# sha256 of stdout, recorded with the stdlib json.dumps writer
GOLDEN_STDOUT = {
    "enumerate preorders --n 6":
        "9404ac024a077aba8d9488120e9233c2b9b07fabe35becec10e2064d33dd03b3",
    "enumerate preorders --n 7":
        "ccedffe8d660d552e11625438178fb3bfca72cccfb4dfeb79049457d4bc56f97",
    "enumerate convex --n 6":
        "0367f4a88b77c5450fcc0b970e2b528aee6ebd9fc8b0da215965b31e17169bf2",
    "enumerate surjections --n 6 --target 3":
        "8a671855923de6bbe86e6715c6ceeba7de33475baecceb27b8dfc30532df05d4",
    "enumerate surjections --n 7 --target 4":
        "4b3b0f2eca271e632faa6de77742aec4bc3fd166e57a164ac6a8de2222cd4779",
    "enumerate amalgams --left 3 --right 3":
        "457f77ce95c02452ea907b4f3de099d7e293ddf072d29001dfa4b7dc446421d9",
    "verify amalgams --left 3 --right 3":
        "b940c05b059ad43b9a5d2a58573881f5cd381020da87301c854812b82628ec23",
    "verify amalgams --left 4 --right 4":
        "a7aaadfbbb51d757c43a3de6cf7b6e7968d4298b58f5ef956f6752b401f2e96b",
    "roundtrip mainc --algebra builtin:mat2 --truncation 4":
        "82c08df6f5816bf1ef3fa93b0f25c0d34c9f17920af261167f30868f56d1d1e7",
    "roundtrip mainc --algebra builtin:mat2 --truncation 6":
        "735a128be7ec13a41c0677d7da177214630c41d137fdffb09e3ba9ea5f773dfc",
    "roundtrip mainc --algebra builtin:nilpotent3 --truncation 5":
        "002ff8d926ed6bd9dfddadb7239859dc40f003aacabb7fb2f7a684bbd363fffe",
    "daycon --algebra builtin:nilpotent3 --truncation 4":
        "ff43a3a0b32ed1be29fd63e18839f6b8ecf6ba318afa534e275cf51ae5158677",
    "daycon --algebra builtin:mat2 --truncation 4":
        "5b688c1c8c1dce44cf4fbea5db5112c0c5dddab9156838f032ecab13298fb237",
    "daycon --algebra builtin:mat2 --truncation 5":
        "be8666f86abc9efd7edb85eaed453e7647d8a91073ca5d08ceecb603dbae58e2",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_report_stdout_matches_golden_digest(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


# A family on the non-standard order 1 < 2 < 0, with finite, negative and
# infinite gaps: samples on three strata, edges in both directions, an edge
# within one stratum and an incomparable edge.
SHEAF_FAMILY = {
    "index": {"n": 3, "rank": [2, 0, 1]},
    "samples": [
        {"id": "p", "gaps": [{"fin": "1/2"}, {"fin": "3"}]},
        {"id": "q", "gaps": ["inf", {"fin": "1"}]},
        {"id": "r", "gaps": ["inf", "inf"]},
        {"id": "s", "gaps": [{"fin": "0"}, "inf"]},
        {"id": "t", "gaps": [{"fin": "-2"}, "inf"]},
    ],
    "edges": [["p", "q"], ["q", "r"], ["r", "p"], ["s", "q"], ["t", "s"], ["p", "t"]],
    "limits": ["r"],
}

# sha256 of the `sheaf --family` stdout on SHEAF_FAMILY, per algebra
GOLDEN_SHEAF_STDOUT = {
    "builtin:nilpotent3": "fe65576dc6f28e1752f1c6b4d0d710c9a5402abad335e949c0c05134c655f835",
    "builtin:mat2": "d7e754549e5ff461e69afec1f1a050d2ff77db39e010b12e88f455757c0ef5de",
}


@pytest.mark.parametrize("algebra", sorted(GOLDEN_SHEAF_STDOUT))
def test_sheaf_report_matches_golden_digest(capsys, tmp_path, algebra):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(SHEAF_FAMILY))
    code, out = run(capsys, "sheaf", "--algebra", algebra, "--family", str(path))
    assert code == 0
    assert json.loads(out)["incomparable_edges"] == [["s", "q"]]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHEAF_STDOUT[algebra]


def test_acceptance_json_uses_the_report_writer(capsys, tmp_path, monkeypatch):
    results = [
        {"name": "first", "ok": True, "detail": "3 checks \u2014 fine", "seconds": 0.25},
        {"name": "second", "ok": False, "detail": "", "seconds": 1e-05},
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: results)
    code, out = run(capsys, "accept", "--out-dir", str(tmp_path))
    assert code == 1
    assert out.splitlines()[1].startswith("[FAIL] second")
    payload = {"criteria": results, "all_ok": False}
    assert (tmp_path / "acceptance.json").read_text() == (
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
