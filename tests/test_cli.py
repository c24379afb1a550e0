import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gmpmat.cli import main


SET_SYM = {"b0": -2.0, "a0": 2.0, "gaps": [[-1.0, 1.0]]}
DELTA1 = {"lambda0": 1.0, "c0": 0.0, "terms": [[1.0, 1.0]]}
POINT1 = {"poles": [1.0], "p": [1.0, 1.0], "q": [0.0, 0.0]}
GOOD = {"poles": [2.0], "p": [1.0, 1.0], "q": [1.0, 0.0]}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "set.json").write_text(json.dumps(SET_SYM))
    (tmp_path / "delta.json").write_text(json.dumps(DELTA1))
    (tmp_path / "pt.json").write_text(json.dumps(POINT1))
    (tmp_path / "good.json").write_text(json.dumps(GOOD))
    return tmp_path


def _run(args, out):
    code = main(list(args) + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text()) if out.suffix == ".json" else out.read_text()


def test_delta_solve_and_bands_roundtrip(workdir):
    got = _run(
        ["delta", "solve", "--set", str(workdir / "set.json")],
        workdir / "delta_out.json",
    )
    assert abs(got["lambda0"] - 2.0) < 1e-10
    assert abs(got["terms"][0][0] - 4.0) < 1e-10
    (workdir / "solved.json").write_text(json.dumps(got))
    back = _run(
        ["delta", "bands", "--delta", str(workdir / "solved.json")],
        workdir / "set_out.json",
    )
    assert abs(back["b0"] + 2.0) < 1e-9 and abs(back["a0"] - 2.0) < 1e-9


def test_delta_eval_point_and_grid(workdir):
    got = _run(
        ["delta", "eval", "--delta", str(workdir / "delta.json"), "--z", "0.5,0.5"],
        workdir / "val.json",
    )
    want = complex(0.5, 0.5) + 1.0 / (1.0 - complex(0.5, 0.5))
    assert abs(complex(got["re"], got["im"]) - want) < 1e-12
    text = _run(
        ["delta", "eval", "--delta", str(workdir / "delta.json"), "--grid=-3:-2:5"],
        workdir / "grid.csv",
    )
    assert len(text.strip().splitlines()) == 5


def test_transfer_and_lambda_commands(workdir):
    got = _run(
        ["transfer", "coeffs", "--coeffs", str(workdir / "good.json")],
        workdir / "dc.json",
    )
    assert got["nu0"] == 1.0 and got["d0"] == -1.0 and got["nus"] == [4.0]
    lams = _run(
        ["transfer", "lambdas", "--coeffs", str(workdir / "good.json")],
        workdir / "lams.json",
    )
    assert lams == [4.0]


SMALL = {"poles": [2.0], "p": [1.0, 0.4], "q": [1.0, 0.2]}
SMALL_TRIANGLE = [
    "0,0,3", "1,0,0.40000000000000002", "1,1,0.080000000000000016", "2,0,0", "2,1,1",
    "2,2,3", "3,0,0", "3,1,0.40000000000000002", "3,2,0.40000000000000002",
    "3,3,0.080000000000000016",
]


def test_gmp_build_default_bytes_and_tol(workdir):
    # the default keeps every lower-triangle entry, zeros included
    (workdir / "small.json").write_text(json.dumps(SMALL))
    args = ["gmp", "build", "--coeffs", str(workdir / "small.json"), "--periods", "2"]
    assert _run(args, workdir / "all.csv") == "\n".join(SMALL_TRIANGLE) + "\n"
    kept = [line for line in SMALL_TRIANGLE if abs(float(line.split(",")[2])) > 0.5]
    assert _run(args + ["--tol", "0.5"], workdir / "big.csv") == "\n".join(kept) + "\n"


def test_gmp_check_command(workdir):
    got = _run(
        ["gmp", "check", "--coeffs", str(workdir / "good.json"), "--periods", "30"],
        workdir / "check.json",
    )
    assert got["is_gmp"] is True
    assert got["structural_ok"] is True


def test_iso_project_and_verify(workdir):
    got = _run(
        ["iso", "project", "--delta", str(workdir / "delta.json"), "--init", "1.2,0.1"],
        workdir / "proj.json",
    )
    (workdir / "proj.json").write_text(json.dumps(got))
    ver = _run(
        [
            "iso",
            "verify",
            "--delta",
            str(workdir / "delta.json"),
            "--coeffs",
            str(workdir / "proj.json"),
        ],
        workdir / "ver.json",
    )
    assert ver["on_manifold"] is True


def test_magic_verify_command(workdir):
    got = _run(
        [
            "magic",
            "verify",
            "--delta",
            str(workdir / "delta.json"),
            "--coeffs",
            str(workdir / "pt.json"),
            "--periods",
            "30",
        ],
        workdir / "magic.json",
    )
    assert got["defect"] < 1e-6


def test_spectrum_and_resolvent_commands(workdir):
    text = _run(
        ["spectrum", "eig", "--coeffs", str(workdir / "pt.json"), "--periods", "10"],
        workdir / "eig.csv",
    )
    assert len(text.strip().splitlines()) == 20
    got = _run(
        ["resolvent", "eval", "--coeffs", str(workdir / "pt.json"), "--z", "0.2,1.0"],
        workdir / "res.json",
    )
    assert got["r_plus"][1] > 0


def test_jacobi_bands_command(workdir):
    got = _run(
        ["jacobi", "transfer", "--a", "1,2", "--b", "0,0", "--bands"],
        workdir / "edges.json",
    )
    assert np.max(np.abs(np.array(got) - [-3.0, -1.0, 1.0, 3.0])) < 1e-10


def test_delta_and_jacobi_bands_ignore_tol(workdir):
    # delta solve, delta bands and jacobi transfer --bands have no
    # tolerance: --tol is accepted and changes nothing
    for cmd in (
        ["delta", "solve", "--set", str(workdir / "set.json")],
        ["delta", "bands", "--delta", str(workdir / "delta.json")],
        ["jacobi", "transfer", "--a", "1,1", "--b", "0,0.5", "--bands"],
    ):
        want = _run(cmd, workdir / "plain.json")
        for tol in ("0", "1e-30", "0.5"):
            assert _run(cmd + ["--tol", tol], workdir / "tol.json") == want


def test_jacobi_bands_tol_zero_terminates(workdir):
    # tol = 0 is below the float spacing: bisection must stop when the
    # midpoint equals an end, not loop forever
    out = workdir / "edges0.json"
    subprocess.run(
        [sys.executable, "-m", "gmpmat.cli", "jacobi", "transfer", "--a", "1,1",
         "--b", "0,0.5", "--bands", "--tol", "0", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=60,
    )
    want = _run(
        ["jacobi", "transfer", "--a", "1,1", "--b", "0,0.5", "--bands", "--tol", "1e-12"],
        workdir / "edges12.json",
    )
    got = json.loads(out.read_text())
    assert len(got) == len(want) == 4
    assert np.max(np.abs(np.array(got) - want)) <= 1e-12


def test_ortho_build_report(workdir):
    lines = ["%s,1.0" % x for x in np.linspace(-2.0, -1.0, 12)]
    lines += ["%s,1.0" % x for x in np.linspace(1.0, 2.0, 12)]
    (workdir / "measure.csv").write_text("\n".join(lines))
    got = _run(
        [
            "ortho",
            "build",
            "--measure",
            str(workdir / "measure.csv"),
            "--family",
            "monomial",
            "--n",
            "6",
            "--report",
        ],
        workdir / "rep.json",
    )
    assert got["pattern"] == "jacobi"
    assert got["violations"] == []


def test_invalid_set_exits_1(workdir, capsys):
    (workdir / "bad.json").write_text(json.dumps({"b0": 2.0, "a0": -2.0, "gaps": []}))
    code = main(["delta", "solve", "--set", str(workdir / "bad.json")])
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().err)


def test_missing_file_exits_1(workdir, capsys):
    code = main(["delta", "solve", "--set", str(workdir / "nope.json")])
    assert code == 1
    capsys.readouterr()


def test_convergence_failure_exits_2(workdir, capsys):
    # tol = 1e-20 is below this g = 4 projection's rounding floor
    delta = {
        "lambda0": 1.3243905315095892,
        "c0": -0.9448817735138633,
        "terms": [[0.7612966136188739, -2.283134910582869],
                  [0.9619876081506362, -0.3574393660939661],
                  [1.689864668876795, 0.35880005298548445],
                  [0.9365584454644904, 2.2817742236913503]],
    }
    (workdir / "d4.json").write_text(json.dumps(delta))
    init = ("0.02842224131579679,0.5467129866124469,-0.7364540870016669,-0.16290994799305278,"
            "-0.48211931267997826,0.5988462126346276,0.03972210748165899,-0.2924567509650886")
    code = main(["iso", "project", "--delta", str(workdir / "d4.json"), "--init", init,
                 "--tol", "1e-20"])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["residual"] == 1.1102230246251565e-16


@pytest.mark.parametrize(
    "args",
    [
        ["transfer", "eval", "--coeffs", "good.json", "--grid=1:3:3"],
        ["delta", "eval", "--delta", "delta.json", "--grid=0:2:3"],
        ["resolvent", "eval", "--coeffs", "good.json", "--grid=1:3:3", "--imag", "0"],
    ],
    ids=["transfer", "delta", "resolvent"],
)
def test_grid_through_pole_exits_1(workdir, capsys, args):
    args = [str(workdir / a) if a.endswith(".json") else a for a in args]
    out = workdir / "grid.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args + ["--out", str(out)])
    assert code == 1
    assert not out.exists()
    payload = json.loads(capsys.readouterr().err)
    assert "pole" in payload["error"] and ("2.0" in payload["error"] or "1.0" in payload["error"])


def test_signed_option_values_accept_a_space(workdir):
    D, C = str(workdir / "delta.json"), str(workdir / "good.json")
    M = str(workdir / "measure.csv")
    (workdir / "measure.csv").write_text(
        "\n".join("%s,1.0" % x for x in np.linspace(-2.0, 2.0, 30))
    )
    pairs = [
        (["delta", "eval", "--delta", D, "--grid", "-3:-2:5"], "--grid=-3:-2:5"),
        (["transfer", "eval", "--coeffs", C, "--z", "-0.5,-1e-3"], "--z=-0.5,-1e-3"),
        (["resolvent", "reflectionless", "--coeffs", C, "--x", "-1e-1"], "--x=-1e-1"),
        (["iso", "project", "--delta", D, "--init", "-1.2,0.1"], "--init=-1.2,0.1"),
        (["jacobi", "transfer", "--a", "1,2", "--b", "-0.3,0.2", "--z", "0.1"], "--b=-0.3,0.2"),
        (["ortho", "build", "--measure", M, "--family", "gmp", "--poles", "-3e-1",
          "--n", "4", "--report"], "--poles=-3e-1"),
    ]
    for spaced, joined in pairs:
        opt, value = joined.split("=", 1)
        i = spaced.index(opt)
        a = _run(spaced, workdir / "a.txt")
        b = _run(spaced[:i] + [joined] + spaced[i + 2 :], workdir / "b.txt")
        assert a == b and a.strip()


@pytest.mark.parametrize(
    "args",
    [
        ["delta", "eval"],
        ["nope"],
        ["gmp", "build", "--coeffs", "x.json", "--periods", "many"],
        ["delta", "bands", "--delta", "x.json", "--bogus"],
    ],
    ids=["missing", "command", "type", "unknown"],
)
def test_usage_error_exits_1_with_json(capsys, args):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


def _csv(text):
    return np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])


@pytest.mark.parametrize("imag", [1.0, 0.0, -1.0])
def test_resolvent_grid_matches_pointwise(workdir, imag):
    C = str(workdir / "good.json")
    grid = _csv(
        _run(["resolvent", "eval", "--coeffs", C, "--grid=-2.9:2.9:13", "--imag", repr(imag)],
             workdir / "r.csv")
    )
    for row in grid:
        got = _run(["resolvent", "eval", "--coeffs", C, f"--z={float(row[0])!r},{imag!r}"],
                   workdir / "r.json")
        want = got["r_plus"] + got["r_minus_inv"]
        np.testing.assert_allclose(row[1:], want, rtol=1e-12, atol=0.0)


def test_value_grids_match_pointwise(workdir):
    D, C = str(workdir / "delta.json"), str(workdir / "good.json")
    cases = [
        (["delta", "eval", "--delta", D], lambda got: got["re"]),
        (["transfer", "eval", "--coeffs", C], lambda got: got["m11"][0] + got["m22"][0]),
        (["jacobi", "transfer", "--a", "1,2", "--b", "0.3,-0.2"], lambda got: got["re"]),
    ]
    for cmd, value in cases:
        grid = _csv(_run(cmd + ["--grid=-2.9:2.9:13"], workdir / "g.csv"))
        assert grid.shape == (13, 2)
        assert np.array_equal(grid[:, 0], np.linspace(-2.9, 2.9, 13))
        for x, v in grid:
            want = value(_run(cmd + [f"--z={float(x)!r}"], workdir / "p.json"))
            np.testing.assert_allclose(v, want, rtol=1e-12, atol=0.0)


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code, *args):
    """stdout (JSON) of code run in a new interpreter that imports gmpmat from src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


STARTUP_PROBE = """
import contextlib, io, json, sys
seen = {}
import gmpmat, gmpmat.cli
seen["import"] = "scipy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    try:
        gmpmat.cli.main(["--help"])
    except SystemExit:
        pass
seen["--help"] = "scipy" in sys.modules
delta, coeffs, out = sys.argv[1:]
assert gmpmat.cli.main(["delta", "eval", "--delta", delta, "--z=0.5,0.5", "--out", out]) == 0
seen["delta eval"] = "scipy" in sys.modules
assert gmpmat.cli.main(["transfer", "eval", "--coeffs", coeffs, "--grid=-3:3:101", "--out", out]) == 0
seen["transfer eval --grid"] = "scipy" in sys.modules
print(json.dumps(seen))
"""


def test_cold_start_leaves_scipy_unloaded(workdir):
    seen = _fresh(STARTUP_PROBE, workdir / "delta.json", workdir / "good.json", workdir / "o.csv")
    assert seen == {
        "import": False, "--help": False, "delta eval": False, "transfer eval --grid": False
    }


BANDED_PROBE = """
import json, sys
import numpy as np
from gmpmat import (
    GmpCoefficients, assemble, resolvent_pair, spectrum_truncation,
    truncation_resolvent_oracle,
)
before = "scipy" in sys.modules
c = GmpCoefficients.from_dict(json.loads(sys.argv[1]))
eigs = spectrum_truncation(c, 20)
eig_err = np.max(np.abs(eigs - np.linalg.eigvalsh(assemble(c, 20).to_dense())))
z = 0.3 + 1.5j
rp, rm = truncation_resolvent_oracle(c, z)
rv = resolvent_pair(c, z)
print(json.dumps({
    "before": before,
    "after": "scipy.linalg" in sys.modules,
    "eig_err": float(eig_err),
    "rp_err": abs(rv.r_plus / rv.a0**2 - rp),
    "rm_err": abs(1.0 / rv.r_minus_inv - rm),
}))
"""


def test_banded_lapack_calls_load_scipy_on_demand():
    got = _fresh(BANDED_PROBE, json.dumps(GOOD))
    assert not got["before"] and got["after"]
    assert got["eig_err"] < 1e-12
    assert got["rp_err"] < 1e-6 and got["rm_err"] < 1e-6
