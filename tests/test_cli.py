"""Command-line surface: outputs, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import subprocess_env

from hyptet import (
    AngleAssignment,
    cone_angles,
    covolume,
    extended_angles,
    validate,
    volume_from_angles,
)
from hyptet import cli
from hyptet.cli import main
from hyptet.tetra import SLOT_COEF, SLOT_CONST

PI = math.pi


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_plain_output(capsys):
    code, out, err = run_cli(["tetra", "classify", "--l", "1,1,1,2,2,2"], capsys)
    assert code == 0
    assert out.strip() == "InteriorL"


def test_lengths_to_angles_matches_library(capsys):
    s = math.log(math.sqrt(2.0) / 2.0)
    arg = f"0,0,0,{s!r},{s!r},{s!r}"
    code, out, _ = run_cli(["tetra", "lengths-to-angles", "--l", arg], capsys)
    assert code == 0
    alpha = json.loads(out)["alpha"]
    assert alpha[0] == pytest.approx(PI / 4, abs=1e-8)
    lib = extended_angles([0, 0, 0, s, s, s])
    assert alpha == list(lib)


def test_angles_to_lengths_and_degrees(capsys):
    code, out, _ = run_cli(
        ["tetra", "angles-to-lengths", "--alpha", "45,45,45,67.5,67.5,67.5",
         "--degrees"],
        capsys,
    )
    assert code == 0
    l = json.loads(out)["l"]
    assert l[3] == pytest.approx(math.log(math.sqrt(2) / 2), abs=1e-12)


def test_angles_to_lengths_near_a_flat_vertex_triangle(capsys):
    # apex angles (pi - 1e-9, 1e-10, 1e-10), where the dual cosine law's
    # numerator rounds to 0
    arg = ("3.141592652589793,1e-10,1e-10,5.000000413701855e-10,"
           "5.000000413701855e-10,3.141592652989793")
    code, out, _ = run_cli(["tetra", "angles-to-lengths", "--alpha", arg], capsys)
    assert code == 0
    assert all(math.isfinite(x) for x in json.loads(out)["l"])


def test_volume_and_covolume_match_library(capsys):
    alpha = [PI / 4] * 3 + [3 * PI / 8] * 3
    arg = ",".join(repr(a) for a in alpha)
    code, out, _ = run_cli(["tetra", "volume", "--alpha", arg], capsys)
    assert code == 0
    assert json.loads(out)["volume"] == volume_from_angles(alpha)

    larg = "0,0,0,0,0,10"
    code, out, _ = run_cli(["tetra", "covolume", "--l", larg], capsys)
    assert json.loads(out)["covolume"] == covolume([0, 0, 0, 0, 0, 10])


@pytest.mark.parametrize("query", ["lengths-to-angles", "covolume"])
def test_a_non_finite_result_is_an_error_object(capsys, query):
    # lengths near the float limit overflow the kernels to NaN, which JSON
    # cannot hold: the verb fails instead of printing it
    huge = "1e308,1e308,1e308,-1e308,1e308,1e308"
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(["tetra", query, "--l", huge], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.splitlines()[-1]) == {
        "error": "ValueError", "message": "JSON has no number nan",
    }


def test_fixture_validate_gap_pipeline(tmp_path, capsys):
    out_dir = str(tmp_path / "fx")
    code, out, _ = run_cli(
        ["fixture", "double", "--l", "0,0,0,0,0,0", "--out-dir", out_dir], capsys
    )
    assert code == 0
    paths = json.loads(out)

    code, out, _ = run_cli(["validate", paths["tri"]], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["edge_classes"] == 6
    assert summary["vertex_classes"] == 4
    assert summary["edge_slots"] == 12

    code, out, _ = run_cli(["gap", paths["tri"], "--k", paths["k"]], capsys)
    assert code == 0
    gap = json.loads(out)
    assert abs(gap["gap"]) <= 1e-6 * (1 + abs(2 * gap["volume"]))


def test_maximize_solve_rigidity_reports(tmp_path, capsys):
    out_dir = str(tmp_path / "fx2")
    run_cli(["fixture", "double", "--l", "0.2,-0.1,0,0.3,0.1,-0.2",
             "--out-dir", out_dir], capsys)
    tri = f"{out_dir}/tri.json"
    kp = f"{out_dir}/k.json"

    code, out, _ = run_cli(["maximize", tri, "--k", kp], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["kkt_residual"] <= 1e-8
    expected = _load(f"{out_dir}/assignment.json")
    got = np.array(rep["maximizer"]["values"])
    assert np.max(np.abs(got - np.array(expected["values"]))) <= 1e-6

    code, out, _ = run_cli(["solve", tri, "--k", kp], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["residual"] <= 1e-8
    assert rep["diverged"] is False

    code, out, _ = run_cli(["rigidity", tri, "--k", kp, "--starts", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["all_agree"] is True


def test_infeasible_target_solve_and_rigidity(tmp_path, capsys):
    out_dir = str(tmp_path / "fx4")
    run_cli(["fixture", "double", "--l", "0,0,0,0,0,0", "--out-dir", out_dir],
            capsys)
    tri = f"{out_dir}/tri.json"
    kp = str(tmp_path / "infeasible_k.json")
    # both cells on the apex row (1.5, 1.2, 1.0), whose sum is above pi
    T = validate(_load(tri))
    row = SLOT_CONST + SLOT_COEF @ np.array([1.5, 1.2, 1.0])
    k = cone_angles(T, AngleAssignment(np.stack([row, row])))
    with open(kp, "w") as fh:
        json.dump(k.to_json(T), fh)

    code, out, _ = run_cli(["solve", tri, "--k", kp], capsys)
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["metric", "residual", "diverged", "objective"]
    assert '"diverged":true' in out and rep["residual"] > 1e-8

    code, out, err = run_cli(["rigidity", tri, "--k", kp], capsys)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "MaxIterations"
    assert "certified infeasible" in payload["message"]


def test_bad_tolerance_gives_error_object(tmp_path, capsys):
    out_dir = str(tmp_path / "fx7")
    run_cli(["fixture", "double", "--l", "0.1,-0.2,0.3,0.5,0.4,0.6",
             "--out-dir", out_dir], capsys)
    code, out, err = run_cli(
        ["solve", f"{out_dir}/tri.json", "--k", f"{out_dir}/k.json", "--tol", "nan"],
        capsys,
    )
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError", "message": "tol must be a positive finite number"
    }


def test_byte_identical_reruns(tmp_path, capsys):
    out_dir = str(tmp_path / "fx3")
    run_cli(["fixture", "double", "--l", "0,0,0,0,0,0", "--out-dir", out_dir],
            capsys)
    tri = f"{out_dir}/tri.json"
    kp = f"{out_dir}/k.json"
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            ["rigidity", tri, "--k", kp, "--starts", "3", "--seed", "7"], capsys
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_seventeen_digit_floats(capsys):
    code, out, _ = run_cli(
        ["tetra", "volume", "--alpha",
         "0.8,0.7,0.6,1.1207963267948966,1.2207963267948966,1.3207963267948966"],
        capsys,
    )
    assert code == 0
    text = out.split(":")[1].rstrip("}\n")
    assert float(text) == json.loads(out)["volume"]


def test_error_object_and_exit_codes(capsys, tmp_path):
    code, out, err = run_cli(["tetra", "volume", "--alpha", "1,1,1,1,1,1"], capsys)
    assert code == 1 and out == ""
    assert err == (
        '{"error":"InvalidAngles","message":"cusp angle sums differ from pi"}\n'
    )

    code, out, err = run_cli(
        ["tetra", "angles-to-lengths", "--alpha", "1,1,1.2,1,1,1"], capsys
    )
    assert code == 1 and out == ""
    assert err == (
        '{"error":"NotInteriorAngle",'
        '"message":"apex angle sum must be strictly below pi"}\n'
    )

    code, _, err = run_cli(["tetra", "classify", "--l", "1,2"], capsys)
    assert code == 2

    code, _, err = run_cli(["validate", str(tmp_path / "missing.json")], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_malformed_json_is_an_error_object(capsys, tmp_path):
    path = tmp_path / "open.json"
    path.write_text("{")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (
        '{"error":"JSONDecodeError","message":"Expecting property name '
        'enclosed in double quotes: line 1 column 2 (char 1)"}'
    )


# one process's mix of calls: a query, a usage error, an unknown verb, and a
# cell 3e-7 past the X1 wall, which the default band calls Omega1 and
# --tol 1e-6 calls X1
PARSER_CALLS = [
    ["tetra", "covolume", "--l", "0,0,0,0,0,10"],
    ["tetra", "classify", "--l", "1,2"],
    ["nonsense-verb"],
    ["tetra", "classify", "--l", "0,0,0,0,0,2.07944169", "--tol", "1e-6"],
    ["tetra", "classify", "--l", "0,0,0,0,0,2.07944169"],
]


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    shared = [_outcome(argv, capsys) for argv in PARSER_CALLS]
    fresh_parser = cli.build_parser.__wrapped__
    monkeypatch.setattr(cli, "build_parser", fresh_parser)
    fresh = [_outcome(argv, capsys) for argv in PARSER_CALLS]
    assert shared == fresh
    assert [s[0] for s in shared] == [0, 2, ("exit", 2), 0, 0]
    assert [s[1] for s in shared[3:]] == ["X1\n", "Omega1\n"]
    # an option given on one call leaves the next call's default alone
    for argv in (["tetra", "classify"], ["rigidity", "tri.json", "--k", "k.json"]):
        assert vars(parser.parse_args(argv)) == vars(fresh_parser().parse_args(argv))
    assert parser.parse_args(["tetra", "classify"]).tol == 1e-9


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tetra", "covolume"], "--l is required for this query"),
        (["tetra", "volume", "--l", "0,0,0,0,0,0"],
         "--alpha is required for this query"),
        (["tetra", "covolume", "--l", "0,0,x,0,0,0"],
         "--l contains a non-numeric entry"),
    ],
    ids=["no-lengths", "no-angles", "non-numeric"],
)
def test_a_bad_six_vector_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_render_writes_json_or_raises():
    assert cli._render(None) == "null"
    assert cli._render({"a": np.array([[1.0, 0.5]])}) == '{"a":[[1,0.5]]}'
    with pytest.raises(TypeError, match="cannot serialize <class 'object'>"):
        cli._render([object()])


def test_usage_error_exit_code_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hyptet.cli", "nonsense-verb"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("verb", ["solve", "maximize"])
def test_huge_target_gives_one_error_object(tmp_path, capsys, verb):
    # near the float limit the counting identity must not overflow: stderr
    # is the error object alone, with no warning line before it
    out_dir = str(tmp_path / "fx6")
    run_cli(["fixture", "double", "--l", "0,0,0,0,0,0", "--out-dir", out_dir],
            capsys)
    kp = f"{out_dir}/k.json"
    k = _load(kp)
    k["values"] = [1e308] * len(k["values"])
    with open(kp, "w") as fh:
        json.dump(k, fh)
    proc = subprocess.run(
        [sys.executable, "-m", "hyptet.cli", verb, f"{out_dir}/tri.json", "--k", kp],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InadmissibleTarget"


def test_selftest_runs_quickly(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "6/6 suites passed" in out


_VALUES_MSG = "cone target 'values' must be a list of numbers"
_EDGES_MSG = "cone target 'edges' must be a list of strings"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda k: k["values"].__setitem__(0, None), _VALUES_MSG),
        (lambda k: k["values"].__setitem__(0, "1.0"), _VALUES_MSG),
        (lambda k: k["values"].__setitem__(0, True), _VALUES_MSG),
        (lambda k: k["values"].__setitem__(0, 10**400), _VALUES_MSG),
        (lambda k: k.__setitem__("values", 1.0), _VALUES_MSG),
        (lambda k: k.__setitem__("values", {"0:12": 1.0}), _VALUES_MSG),
        (lambda k: k["edges"].__setitem__(0, 12), _EDGES_MSG),
        (lambda k: k.__setitem__("edges", None), _EDGES_MSG),
    ],
    ids=["null-value", "string-value", "bool-value", "huge-int", "number-values",
         "object-values", "int-key", "null-edges"],
)
def test_malformed_cone_target_gives_error_object(tmp_path, capsys, edit, message):
    out_dir = str(tmp_path / "fx5")
    run_cli(["fixture", "double", "--l", "0,0,0,0,0,0", "--out-dir", out_dir],
            capsys)
    kp = f"{out_dir}/k.json"
    k = _load(kp)
    edit(k)
    with open(kp, "w") as fh:
        json.dump(k, fh)
    code, out, err = run_cli(["solve", f"{out_dir}/tri.json", "--k", kp], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "InvalidDocument", "message": message}
