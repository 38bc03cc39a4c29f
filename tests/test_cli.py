import json

import pytest

from brokenlines.cli import main
from brokenlines.families import build_family
from brokenlines.extreal import INF, ExtReal
from brokenlines.orders import LinOrder
from brokenlines.rep import rep_from_gaps


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_preorders(capsys):
    code, out = run(capsys, "enumerate", "preorders", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 13


def test_enumerate_amalgams_with_poset_edges(capsys):
    code, out = run(capsys, "enumerate", "amalgams", "--left", "2", "--right", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["poset_edges"] == [[1, 0]] or data["poset_edges"] == [[0, 1]]


def test_enumerate_convex(capsys):
    code, out = run(capsys, "enumerate", "convex", "--n", "4")
    data = json.loads(out)
    assert data["count"] == 8


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


def test_roundtrip_unknown_builtin(capsys):
    with pytest.raises(SystemExit):
        main(["roundtrip", "mainc", "--algebra", "builtin:nope"])


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


def test_out_dir_writes_files(capsys, tmp_path):
    code, _ = run(
        capsys,
        "--out-dir",
        str(tmp_path),
        "enumerate",
        "preorders",
        "--n",
        "2",
    )
    assert code == 0
    written = json.loads((tmp_path / "preorders_2.json").read_text())
    assert written["count"] == 3


def test_out_dir_after_subcommand(capsys, tmp_path):
    code, _ = run(
        capsys, "enumerate", "preorders", "--n", "2", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert json.loads((tmp_path / "preorders_2.json").read_text())["count"] == 3


def test_config_file_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\n# comment\n")
    code, out = run(capsys, "--config", str(cfg), "enumerate", "convex", "--n", "2")
    assert code == 0
    assert json.loads(out)["count"] == 8  # config n=4 wins over the flag


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


@pytest.mark.parametrize(
    "line, message",
    [
        ("n = 0", "n must be a positive integer, got 0"),
        ("truncation = -2", "truncation must be a positive integer, got -2"),
        ("n = three", "config value is not an integer: "),
    ],
)
def test_bad_config_bound_is_a_usage_error(capsys, tmp_path, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "enumerate", "convex"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"brokenlines: error: {message}"
    )
