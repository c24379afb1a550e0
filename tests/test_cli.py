import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gmpmat
from gmpmat import GmpCoefficients, assemble
from gmpmat import cli
from gmpmat.cli import build_parser, main
from conftest import LATE_HIT


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


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape)
                        or eigh(a, *args, **kw))
    return calls


@pytest.mark.parametrize("g", [0, 1, 2, 3, 4])
def test_gmp_check_decomposes_only_where_a_pole_hits(workdir, monkeypatch, g):
    # the shifted resolvents (c_k - A)^-1 come from the block structure
    calls = _count_eigh(monkeypatch)
    rng = np.random.default_rng(g)
    coeffs = {"poles": list(np.cumsum(rng.uniform(0.5, 2.0, g))),
              "p": list(rng.uniform(0.2, 1.5, g + 1)), "q": list(rng.uniform(-1.2, 1.2, g + 1))}
    (workdir / "c.json").write_text(json.dumps(coeffs))
    got = _run(["gmp", "check", "--coeffs", str(workdir / "c.json")], workdir / "check.json")
    assert isinstance(got["structural_ok"], bool)
    assert calls == []


def test_gmp_check_decomposes_once_where_one_pole_hits(workdir, monkeypatch, capsys):
    # POINT1 has a boundary state on its pole, deflated; of LATE_HIT's
    # poles (5, 0) only 0 hits, at k = 2 after k = 1 fails
    calls = _count_eigh(monkeypatch)
    got = _run(["gmp", "check", "--coeffs", str(workdir / "pt.json")], workdir / "check.json")
    assert got["structural_ok"] is True and calls == [(80, 80)]
    (workdir / "late.json").write_text(json.dumps(vars(LATE_HIT)))
    assert main(["gmp", "check", "--coeffs", str(workdir / "late.json")]) == 1
    assert capsys.readouterr().err == '{"error": "pole 0.0 hits the truncation spectrum"}\n'
    assert calls == [(80, 80), (120, 120)]


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
    # the transfer-matrix spectrum agrees with the LAPACK oracle to rounding
    eigs = np.array([float(v) for v in text.split()])
    want = np.sort(assemble(GmpCoefficients.from_dict(POINT1), 10).eigenvalues())
    assert np.max(np.abs(eigs - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
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


def test_iso_trace_honours_tol(workdir, capsys):
    # README's d1.json and pt.json: tol = 1e-20 is below the trace's rounding floor
    delta = str(workdir / "delta.json")
    _run(["iso", "project", "--delta", delta, "--init", "1.2,0.1"], workdir / "proj.json")
    code = main(["iso", "trace", "--delta", delta, "--coeffs", str(workdir / "proj.json"),
                 "--steps", "2", "--tol", "1e-20"])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "Newton stalled at residual 1.110e-16",
                       "residual": 1.1102230246251565e-16}


def test_iso_trace_at_g0_prints_the_projected_point(workdir):
    # the trace printed its start, 0,2,5,0, which iso verify found off the manifold
    (workdir / "d0.json").write_text('{"lambda0": 1, "c0": 0, "terms": []}')
    (workdir / "c0.json").write_text('{"poles": [], "p": [2], "q": [5]}')
    files = ["--delta", str(workdir / "d0.json"), "--coeffs", str(workdir / "c0.json")]
    rows = _run(["iso", "trace", "--steps", "2"] + files, workdir / "trace.csv")
    assert rows.splitlines() == ["0,1,-0,0", "1,1,-0,0", "2,1,-0,0"]
    projected = _run(["iso", "project", "--delta", str(workdir / "d0.json")],
                     workdir / "proj.json")
    assert projected == {"poles": [], "p": [1.0], "q": [-0.0]}


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_iso_verify_residual_is_transfer_lambdas_minus_the_weights(workdir, g):
    # on and off the manifold, bit for bit: both print transfer.lambda_k's Lambda_k
    verdicts = []
    for seed in range(4):
        rng = np.random.default_rng(100 * g + seed)
        poles = np.cumsum(rng.uniform(0.5, 2.0, g)) - 0.6 * g
        delta = {"lambda0": rng.uniform(0.5, 2.0), "c0": rng.uniform(-1.0, 1.0),
                 "terms": [[w, c] for w, c in zip(rng.uniform(0.2, 2.0, g).tolist(),
                                                  poles.tolist())]}
        (workdir / "d.json").write_text(json.dumps(delta))
        point = _run(["iso", "project", "--delta", str(workdir / "d.json"), "--seed", str(seed)],
                     workdir / "on.json")
        point["q"][0] += 0.25
        (workdir / "off.json").write_text(json.dumps(point))
        for name in ("on.json", "off.json"):
            coeffs = str(workdir / name)
            got = _run(["iso", "verify", "--delta", str(workdir / "d.json"), "--coeffs", coeffs],
                       workdir / "verify.json")
            lams = _run(["transfer", "lambdas", "--coeffs", coeffs], workdir / "lams.json")
            assert got["residual"] == [lam - w for lam, (w, _) in zip(lams, delta["terms"])]
            verdicts.append(got["on_manifold"])
    assert verdicts == [True, False] * 4


@pytest.mark.parametrize(
    "args",
    [["magic", "verify", "--periods", "30"], ["iso", "trace", "--steps", "2"]],
    ids=["magic", "trace"],
)
def test_pole_mismatch_exits_1(workdir, capsys, args):
    # GOOD has pole 2.0, DELTA1 has pole 1.0
    files = ["--delta", str(workdir / "delta.json"), "--coeffs", str(workdir / "good.json")]
    code = main(args + files + ["--out", str(workdir / "out")])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "coefficients and discriminant must share the pole list"
    }
    assert not (workdir / "out").exists()


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


# Every option of every command: a new option is an edit of this table.
# --tol is on the six commands that read it.
OPTIONS = {
    "delta solve": "--set --out",
    "delta eval": "--delta --z --grid --out",
    "delta bands": "--delta --out",
    "ahlfors eval": "--delta --z --out",
    "gmp build": "--coeffs --periods --tol --out",
    "gmp check": "--coeffs --periods --tol --out",
    "transfer eval": "--coeffs --z --grid --out",
    "transfer coeffs": "--coeffs --out",
    "transfer lambdas": "--coeffs --out",
    "resolvent eval": "--coeffs --z --grid --imag --out",
    "resolvent reflectionless": "--coeffs --x --eps --out",
    "iso project": "--delta --init --seed --tol --out",
    "iso trace": "--delta --coeffs --steps --step-len --tol --out",
    "iso verify": "--delta --coeffs --tol --out",
    "magic verify": "--delta --coeffs --periods --out",
    "spectrum eig": "--coeffs --periods --out",
    "ortho build": "--measure --family --poles --n --report --tol --out",
    "jacobi transfer": "--a --b --z --grid --bands --out",
}


def _subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_option_surface():
    got = {}
    for group, group_parser in _subcommands(build_parser()).items():
        for action, leaf in _subcommands(group_parser).items():
            strings = [s for a in leaf._actions for s in a.option_strings]
            got[f"{group} {action}"] = sorted(set(strings) - {"-h", "--help"})
    assert got == {name: sorted(opts.split()) for name, opts in OPTIONS.items()}


@pytest.mark.parametrize(
    "args, refused",
    [
        (["resolvent", "eval", "--coeffs", "{}/pt.json", "--z", "0.2,1.0", "--imag", "5"],
         "--imag"),
        (["iso", "project", "--delta", "{}/delta.json", "--init", "1.2,0.1", "--seed", "3"],
         "--seed"),
        (["ortho", "build", "--measure", "{}/measure.csv", "--family", "monomial", "--n", "6",
          "--tol", "1e-3"], "--tol"),
        (["jacobi", "transfer", "--a", "1,1", "--b", "0,0.5", "--bands", "--tol", "0"], "--tol"),
    ],
    ids=["imag with z", "seed with init", "ortho tol without report", "tol not read"],
)
def test_setting_a_command_would_ignore_is_refused(workdir, capsys, args, refused):
    (workdir / "measure.csv").write_text(
        "\n".join("%s,1.0" % x for x in np.linspace(-2.0, 2.0, 30))
    )
    out = workdir / "out.txt"
    assert main([a.format(workdir) for a in args] + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert refused in json.loads(captured.err)["error"]


_POINT_COMMANDS = {
    "delta eval": ["delta", "eval", "--delta", "{}/delta.json"],
    "transfer eval": ["transfer", "eval", "--coeffs", "{}/pt.json"],
    "resolvent eval": ["resolvent", "eval", "--coeffs", "{}/pt.json"],
    "jacobi transfer": ["jacobi", "transfer", "--a", "1,2", "--b", "0,0"],
}


@pytest.mark.parametrize("choice", [[], ["--z", "0.5,0.5", "--grid", "-3:3:5"]],
                         ids=["missing", "doubled"])
@pytest.mark.parametrize("command", list(_POINT_COMMANDS))
def test_point_command_takes_one_of_z_and_grid(workdir, capsys, command, choice):
    # with no point these crashed with a traceback; given both, they used --grid
    out = workdir / "out.txt"
    args = [a.format(workdir) for a in _POINT_COMMANDS[command]] + choice
    assert main(args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    error = json.loads(captured.err)["error"]
    assert "--z" in error and "--grid" in error


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


def test_scalar_grid_points_equal_linspace():
    rng = np.random.default_rng(27)
    cases = [(0.0, 5e-324, 3), (-5e-324, 1e-323, 4), (0.0, 1e-320, 2000), (-1e308, 1e308, 5),
             (1.0, 1.0000000000000002, 7)]
    for _ in range(300):
        lo, hi = sorted((rng.normal(size=2) * 10.0 ** rng.integers(-8, 9, 2)).tolist())
        cases.append((lo, hi, int(rng.integers(2, cli._SCALAR_GRID_MAX + 1))))
    for lo, hi, n in cases:
        got = cli._parse_grid(f"{lo!r}:{hi!r}:{n}")
        assert type(got) is tuple and all(type(x) is float for x in got)
        with np.errstate(over="ignore", invalid="ignore"):  # hi - lo beyond the float range
            want = np.linspace(lo, hi, n).tolist()
        assert list(map(float.hex, got)) == list(map(float.hex, want))


def _both_grid_paths(monkeypatch, capsys, argv):
    """(exit code, stdout, stderr) of main(argv) on the scalar and on the array
    grid path, chosen by moving the scalar path's size limit around the grid."""
    n = int(next(a for a in argv if a.startswith("--grid=")).rsplit(":", 1)[1])
    got = []
    for limit in (n, n - 1):
        monkeypatch.setattr(cli, "_SCALAR_GRID_MAX", limit)
        code = main(argv)
        got.append((code, *capsys.readouterr()))
    return got


def test_scalar_grids_write_the_array_path_bytes(workdir, monkeypatch, capsys):
    rng = np.random.default_rng(26)
    limit = cli._SCALAR_GRID_MAX
    for i in range(6):
        g = i % 5
        poles = np.cumsum(rng.uniform(0.5, 2.0, g)) - 1.5
        coeffs = {"poles": poles.tolist(), "p": rng.uniform(0.2, 1.5, g + 1).tolist(),
                  "q": rng.uniform(-1.2, 1.2, g + 1).tolist()}
        delta = {"lambda0": rng.uniform(0.5, 2.0), "c0": rng.uniform(-1.0, 1.0),
                 "terms": [[rng.uniform(0.2, 2.0), c] for c in poles]}
        (workdir / "c.json").write_text(json.dumps(coeffs))
        (workdir / "d.json").write_text(json.dumps(delta))
        a, b = rng.uniform(0.5, 2.0, g + 1).tolist(), rng.uniform(-1.0, 1.0, g + 1).tolist()
        lo, hi = sorted(rng.uniform(-4.0, 4.0, 2).tolist())
        for n in (limit, limit + 1):
            grid = f"--grid={lo!r}:{hi!r}:{n}"
            for cmd in (["delta", "eval", "--delta", str(workdir / "d.json")],
                        ["transfer", "eval", "--coeffs", str(workdir / "c.json")],
                        ["jacobi", "transfer", "--a=" + ",".join(map(repr, a)),
                         "--b=" + ",".join(map(repr, b))]):
                scalar, array = _both_grid_paths(monkeypatch, capsys, cmd + [grid])
                assert scalar == array and array[0] == 0
                assert array[1].count("\n") == n


@pytest.mark.parametrize("cmd, message", [
    (["delta", "eval", "--delta", "two.json"], "evaluation at pole c = 0.5"),
    (["transfer", "eval", "--coeffs", "two.json"], "transfer matrix evaluated at pole c = 0.5"),
    (["delta", "eval", "--delta", "huge.json"], "overflows float64"),
    (["transfer", "eval", "--coeffs", "huge.json"], "overflows float64"),
    (["jacobi", "transfer", "--a=1e-200,1e-200", "--b=0,0"], "overflows float64"),
], ids=["delta poles", "transfer poles", "delta overflow", "transfer overflow",
        "jacobi overflow"])
def test_scalar_grids_write_the_array_path_errors(workdir, monkeypatch, capsys, cmd, message):
    # the grid meets pole -0.5 first, but the error names the first pole in pole order
    two = {"delta": {"lambda0": 1.0, "c0": 0.0, "terms": [[1.0, 0.5], [1.0, -0.5]]},
           "transfer": {"poles": [0.5, -0.5], "p": [1.0, 1.0, 1.0], "q": [0.5, 0.0, 0.0]}}
    huge = {"delta": {"lambda0": 1e308, "c0": 0.0, "terms": []},
            "transfer": {"poles": [2.0], "p": [1e200, 1.0], "q": [1e200, 0.0]}}
    if cmd[0] in two:
        (workdir / "two.json").write_text(json.dumps(two[cmd[0]]))
        (workdir / "huge.json").write_text(json.dumps(huge[cmd[0]]))
    argv = [str(workdir / a) if a.endswith(".json") else a for a in cmd]
    scalar, array = _both_grid_paths(monkeypatch, capsys, argv + ["--grid=-0.5:3.5:5"])
    assert scalar == array
    assert array[0] == 1
    _one_error_line(*array[1:], message)


def test_group_trees_match_the_full_parser():
    # main builds only the group argv[0] names, with the same code as build_parser
    full = _subcommands(build_parser())
    assert list(full) == list(cli._GROUPS)
    for name, want in full.items():
        (got,) = _subcommands(cli._parser([name])).values()
        assert got.format_help() == want.format_help()
        for leaf, want_leaf in _subcommands(want).items():
            got_leaf = _subcommands(got)[leaf]
            assert got_leaf.format_help() == want_leaf.format_help()
            assert ([(a.option_strings, a.default, a.required) for a in got_leaf._actions]
                    == [(a.option_strings, a.default, a.required) for a in want_leaf._actions])
            assert got_leaf._defaults == want_leaf._defaults


SRC = Path(__file__).resolve().parents[1] / "src"


def _child(argv, cwd=None):
    """A new interpreter that imports gmpmat from src; one that hangs fails after 60 s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=60, cwd=cwd)


def _fresh(code, *args, cwd=None):
    """stdout (JSON) of code run in a new interpreter that imports gmpmat from src."""
    proc = _child(["-c", code, *args], cwd=cwd)
    proc.check_returncode()
    return json.loads(proc.stdout)


# Inputs that are NaN, infinite or overflow float64.  Before they were refused these
# gave a traceback, a LAPACK message on stderr, a hang, or exit 0 with garbage.
NON_FINITE = {
    "set with Infinity": (["delta", "solve", "--set", "inf_set.json"], "a0 must be finite"),
    "delta with NaN": (["iso", "project", "--delta", "nan_delta.json"], "c0 must be finite"),
    "init nan": (["iso", "project", "--delta", "delta.json", "--init", "nan,1"],
                 "init_head must be finite"),
    "coeffs with NaN": (["gmp", "check", "--coeffs", "nan_coeffs.json"], "p must be finite"),
    "spectrum of NaN": (["spectrum", "eig", "--coeffs", "nan_coeffs.json", "--periods", "3"],
                        "p must be finite"),
    "spectrum overflow": (["spectrum", "eig", "--coeffs", "huge.json", "--periods", "3"],
                          "overflows float64"),
    "spectrum underflow": (["spectrum", "eig", "--coeffs", "tiny.json", "--periods", "3"],
                           "overflows float64"),
    "section overflow": (["gmp", "build", "--coeffs", "huge.json", "--periods", "3"],
                         "overflows float64"),
    "check overflow": (["gmp", "check", "--coeffs", "huge.json"], "overflows float64"),
    "transfer z overflow": (["transfer", "eval", "--coeffs", "huge.json", "--z", "0.5"],
                            "overflows float64"),
    "transfer grid overflow": (["transfer", "eval", "--coeffs", "huge.json", "--grid=-1:1:3"],
                               "overflows float64"),
    "lambdas overflow": (["transfer", "lambdas", "--coeffs", "huge.json"], "overflows float64"),
    "coeffs overflow": (["transfer", "coeffs", "--coeffs", "huge.json"], "overflows float64"),
    # p_j q_j = +inf and -inf: the sum was fsum's "-inf + inf in fsum"
    "coeffs inf - inf": (["transfer", "coeffs", "--coeffs", "cancel.json"], "overflows float64"),
    "verify inf - inf": (["iso", "verify", "--delta", "delta2.json", "--coeffs", "cancel.json"],
                         "overflows float64"),
    "project inf - inf": (["iso", "project", "--delta", "delta2.json",
                           "--init", "1e200,1e200,1e200,-1e200"], "overflows float64"),
    "resolvent z overflow": (["resolvent", "eval", "--coeffs", "huge.json", "--z", "0.5,1"],
                             "overflows float64"),
    "resolvent grid overflow": (["resolvent", "eval", "--coeffs", "huge.json", "--grid=-1:1:3"],
                                "overflows float64"),
    "ortho overflow": (["ortho", "build", "--measure", "far.csv", "--family", "monomial",
                        "--n", "3"], "overflows float64"),
    "jacobi b nan": (["jacobi", "transfer", "--a", "1,1", "--b", "nan,0", "--bands"],
                     "b must be finite"),
    "z nan": (["delta", "eval", "--delta", "delta.json", "--z", "nan"], "z must be finite"),
    "grid -inf": (["delta", "eval", "--delta", "delta.json", "--grid=-inf:1:5"],
                  "grid must be finite"),
    "imag nan": (["resolvent", "eval", "--coeffs", "pt.json", "--grid=-1:1:3", "--imag", "nan"],
                 "imag must be finite"),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_input_exits_1_with_one_json_line(workdir, case):
    (workdir / "inf_set.json").write_text('{"b0": -2.0, "a0": Infinity, "gaps": [[-1.0, 1.0]]}')
    (workdir / "nan_delta.json").write_text('{"lambda0": 1.0, "c0": NaN, "terms": [[1.0, 1.0]]}')
    (workdir / "nan_coeffs.json").write_text('{"poles": [2.0], "p": [1.0, NaN], "q": [1.0, 0.0]}')
    (workdir / "huge.json").write_text(json.dumps({"poles": [2.0], "p": [1e200, 1.0],
                                                   "q": [1e200, 0.0]}))
    (workdir / "cancel.json").write_text(json.dumps({"poles": [1.0, 2.0], "p": [1e200, 1e200, 1.0],
                                                     "q": [1e200, -1e200, 0.0]}))
    (workdir / "delta2.json").write_text('{"lambda0": 1.0, "c0": 0.0, "terms": [[1.0, 1.0], [1.0, 2.0]]}')
    (workdir / "far.csv").write_text("1e160,1\n2,1\n3,1\n4,1\n")
    (workdir / "tiny.json").write_text(json.dumps({"poles": [2.0], "p": [1.0, 1e-300],
                                                   "q": [1.0, 0.0]}))
    argv, message = NON_FINITE[case]
    proc = _child(["-m", "gmpmat.cli", *argv], cwd=workdir)
    assert (proc.returncode, proc.stdout) == (1, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and message in json.loads(lines[0])["error"]


# Input files of the wrong shape, and empty comma lists: before they were refused
# with one JSON line, the files gave a traceback or a bare "'q'", and "--a=" failed
# on float('').  Strings and booleans where a number belongs were read as numbers
# ("1" as 1, true as 1), and an integer beyond the float range gave a traceback.
MALFORMED = {
    "null in a list": (["gmp", "check", "--coeffs", "{bad}"],
                       '{"poles": [2.0], "p": [null, 1.0], "q": [1.0, 0.0]}', "p must be a number"),
    "number for a list": (["transfer", "lambdas", "--coeffs", "{bad}"],
                          '{"poles": 2.0, "p": [1.0, 1.0], "q": [1.0, 0.0]}',
                          "poles must be a list"),
    "top-level list": (["delta", "bands", "--delta", "{bad}"], "[1.0, 2.0]",
                       "the top level must be a JSON object"),
    "missing field": (["transfer", "coeffs", "--coeffs", "{bad}"],
                      '{"poles": [2.0], "p": [1.0, 1.0]}', "missing field 'q'"),
    "gap not a pair": (["delta", "solve", "--set", "{bad}"],
                       '{"b0": -2.0, "a0": 2.0, "gaps": [[1.0]]}',
                       "each gap must be a list of 2 numbers"),
    "term not a list": (["delta", "bands", "--delta", "{bad}"],
                        '{"lambda0": 1.0, "c0": 0.0, "terms": [1.0]}',
                        "each term must be a list of 2 numbers"),
    "not JSON": (["ahlfors", "eval", "--delta", "{bad}", "--z", "0.5"], '{"lambda0": ',
                 "Expecting value"),
    "string in a list": (["transfer", "coeffs", "--coeffs", "{bad}"],
                         '{"poles": [2], "p": ["1", true], "q": [1, false]}',
                         "p must be a number"),
    "boolean in a list": (["transfer", "coeffs", "--coeffs", "{bad}"],
                          '{"poles": [2], "p": [1, 1], "q": [1, false]}', "q must be a number"),
    "string lambda0": (["delta", "bands", "--delta", "{bad}"],
                       '{"lambda0": "1", "c0": 0.0, "terms": [[1.0, 1.0]]}',
                       "lambda0 must be a number"),
    "string a0": (["delta", "solve", "--set", "{bad}"],
                  '{"b0": -2.0, "a0": "2", "gaps": [[-1.0, 1.0]]}', "a0 must be a number"),
    "boolean in a term": (["ahlfors", "eval", "--delta", "{bad}", "--z", "0.5"],
                          '{"lambda0": 1.0, "c0": 0.0, "terms": [[true, 1.0]]}',
                          "terms must be a number"),
    "integer beyond float": (["transfer", "lambdas", "--coeffs", "{bad}"],
                             '{"poles": [], "p": [1%s], "q": [0]}' % ("0" * 400),
                             "p must be finite"),
    "empty --a": (["jacobi", "transfer", "--a=", "--b=", "--bands"], None,
                  "a and b must be nonempty"),
    "empty item in --b": (["jacobi", "transfer", "--a=1,1", "--b=0,,1", "--bands"], None,
                          "b must be a number"),
    "three parts in --z": (["jacobi", "transfer", "--a=1", "--b=0", "--z", "1,2,3"], None,
                           "cannot parse point '1,2,3'"),
    "empty --z": (["jacobi", "transfer", "--a=1", "--b=0", "--z="], None,
                  "cannot parse point ''"),
    "two parts in --grid": (["jacobi", "transfer", "--a=1", "--b=0", "--grid", "0:1"], None,
                            "grid must be lo:hi:count"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exits_1_with_one_json_line(workdir, capsys, case):
    argv, text, message = MALFORMED[case]
    bad = workdir / "bad.json"
    if text is not None:
        bad.write_text(text)
        message = f"{bad}: {message}"
    assert main([a.format(bad=bad) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and message in json.loads(lines[0])["error"]


# Option values out of range.  Before they were refused, a NaN --tol gave exit 0
# with a wrong answer ("structural_ok": true on a non-GMP input, an empty matrix, no
# violations), and a count gave a traceback, numpy's message or one row with exit 0.
HUGE = "99999999999999999999"
OUT_OF_RANGE = {
    "gmp build tol": (["gmp", "build", "--coeffs", "{}/non_gmp.json", "--tol", "nan"],
                      "tol must be finite"),
    "gmp check tol": (["gmp", "check", "--coeffs", "{}/non_gmp.json", "--tol", "nan"],
                      "tol must be finite"),
    "iso project tol": (["iso", "project", "--delta", "{}/delta.json", "--init", "1.2,0.1",
                         "--tol", "-1"], "tol must be >= 0"),
    "iso trace tol": (["iso", "trace", "--delta", "{}/delta.json", "--coeffs", "{}/pt.json",
                       "--tol", "inf"], "tol must be finite"),
    "iso verify tol": (["iso", "verify", "--delta", "{}/delta.json", "--coeffs", "{}/pt.json",
                        "--tol", "nan"], "tol must be finite"),
    "ortho build tol": (["ortho", "build", "--measure", "{}/measure.csv", "--family", "monomial",
                         "--n", "2", "--report", "--tol", "nan"], "tol must be finite"),
    "gmp build periods": (["gmp", "build", "--coeffs", "{}/pt.json", "--periods", HUGE],
                          "n_periods must be <= "),
    "gmp check periods": (["gmp", "check", "--coeffs", "{}/pt.json", "--periods", HUGE],
                          "n_periods must be <= "),
    "magic verify periods": (["magic", "verify", "--delta", "{}/delta.json", "--coeffs",
                              "{}/pt.json", "--periods", HUGE], "n_periods must be <= "),
    "spectrum eig periods": (["spectrum", "eig", "--coeffs", "{}/pt.json", "--periods", HUGE],
                             "n_periods must be <= "),
    "iso trace steps g=0": (["iso", "trace", "--delta", "{}/delta0.json", "--coeffs",
                             "{}/coeffs0.json", "--steps", "-1"], "steps must be >= 0"),
    "iso trace steps": (["iso", "trace", "--delta", "{}/delta.json", "--coeffs", "{}/pt.json",
                         "--steps", "-1"], "steps must be >= 0"),
    "ortho build n": (["ortho", "build", "--measure", "{}/measure.csv", "--family", "monomial",
                       "--n", "0"], "n_funcs must be >= 1"),
    # --step-len was checked inside the step loop, so --steps 0 took any value;
    # a huge --steps ran until killed at g >= 1 and overflowed at g = 0
    "iso trace step_len nan": (["iso", "trace", "--delta", "{}/delta.json", "--coeffs",
                                "{}/pt.json", "--steps", "0", "--step-len", "nan"],
                               "step_len must be finite"),
    "iso trace step_len inf": (["iso", "trace", "--delta", "{}/delta.json", "--coeffs",
                                "{}/pt.json", "--steps", "0", "--step-len", "inf"],
                               "step_len must be finite"),
    "iso trace huge steps g=0": (["iso", "trace", "--delta", "{}/delta0.json", "--coeffs",
                                  "{}/coeffs0.json", "--steps", HUGE], "steps must be <= "),
    "iso trace huge steps": (["iso", "trace", "--delta", "{}/delta.json", "--coeffs",
                              "{}/pt.json", "--steps", HUGE], "steps must be <= "),
    # the grid count went to a bare int() and then to numpy
    "grid count text": (["transfer", "eval", "--coeffs", "{}/pt.json", "--grid", "0:1:abc"],
                        "grid count must be an integer"),
    "grid count float": (["transfer", "eval", "--coeffs", "{}/pt.json", "--grid", "0:1:1e3"],
                         "grid count must be an integer"),
    "grid count huge": (["transfer", "eval", "--coeffs", "{}/pt.json", "--grid", "0:1:" + HUGE],
                        "grid count must be <= "),
    "grid lo above hi": (["transfer", "eval", "--coeffs", "{}/pt.json", "--grid", "3:-3:5"],
                         "grid needs lo < hi and count >= 2"),
    "grid count 1": (["delta", "eval", "--delta", "{}/delta.json", "--grid", "0:1:1"],
                     "grid needs lo < hi and count >= 2"),
    "iso project seed": (["iso", "project", "--delta", "{}/delta.json", "--seed", "-1"],
                         "seed must be >= 0"),
    # a g = 0 projection ignored --init; it has 2g = 0 head entries
    "iso project init g=0": (["iso", "project", "--delta", "{}/delta0.json", "--init", "1.0"],
                             "head must have length 2g = 0"),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_option_out_of_range_exits_1_with_one_json_line(workdir, capsys, case):
    (workdir / "non_gmp.json").write_text('{"poles": [5], "p": [1, 1], "q": [-1, 0]}')
    (workdir / "delta0.json").write_text('{"lambda0": 1.0, "c0": 0.0, "terms": []}')
    (workdir / "coeffs0.json").write_text('{"poles": [], "p": [1.0], "q": [0.0]}')
    (workdir / "measure.csv").write_text("1,1\n2,1\n3,1\n")
    argv, message = OUT_OF_RANGE[case]
    assert main([a.format(workdir) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and message in json.loads(lines[0])["error"]


def test_empty_measure_writes_only_its_json_line(workdir):
    # numpy's "UserWarning: loadtxt: input contained no data" came before the JSON
    # error.  pytest records a warning raised in process, so capfd would not see it:
    # the command runs in a child, whose stderr is read at the descriptor
    (workdir / "empty.csv").write_text("")
    proc = _child(["-m", "gmpmat.cli", "ortho", "build", "--measure", "empty.csv",
                   "--family", "monomial"], cwd=workdir)
    assert proc.returncode == 1
    _one_error_line(proc.stdout, proc.stderr, "empty.csv: the file holds no atoms")


@pytest.mark.parametrize("text, message", [
    ("1\n2\n", "each row must hold a point and a weight"),
    ("1,1\nx,1\n", "could not convert string 'x'"),
    ("1,1\n1,2\n", "support points must be distinct"),
], ids=["one column", "not a number", "repeated point"])
def test_bad_measure_names_its_file(workdir, capsys, text, message):
    # a one-column file gave an IndexError traceback
    (workdir / "bad.csv").write_text(text)
    argv = ["ortho", "build", "--measure", str(workdir / "bad.csv"), "--family", "monomial"]
    assert main(argv) == 1
    _one_error_line(*capsys.readouterr(), f"{workdir / 'bad.csv'}: {message}")


@pytest.mark.filterwarnings("default::RuntimeWarning")  # Python's own default, as in a shell
@pytest.mark.parametrize("report", [False, True], ids=["csv", "report"])
def test_ill_conditioned_family_warns_in_one_json_line(workdir, capfd, report):
    # the RuntimeWarning went to stderr as Python's two lines of text (the
    # warning and the source line); the library call still warns
    from gmpmat import serialize
    from gmpmat.ortho import (DiscreteMeasure, RationalFamily, multiplication_matrix,
                              structure_report)

    path = workdir / "m60.csv"
    path.write_text("".join(f"{x!r},1.0\n" for x in np.linspace(0.0, 1.0, 60).tolist()))
    fam = RationalFamily("monomial", ())
    with pytest.warns(RuntimeWarning, match="ill-conditioned family"):
        M = multiplication_matrix(DiscreteMeasure.from_csv(str(path)), fam, 22)
    want = serialize.dumps(structure_report(M, fam)) if report else serialize.lower_triangle_csv(M)
    argv = ["ortho", "build", "--measure", str(path), "--family", "monomial"] + ["--report"] * report
    assert main(argv + ["--n", "22"]) == 0
    assert capfd.readouterr() == (
        want, '{"warning": "ill-conditioned family: condition estimate exceeds 1e12"}\n')
    assert main(argv + ["--n", "21"]) == 0
    assert capfd.readouterr().err == ""


def _one_error_line(out, err, message):
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and message in json.loads(lines[0])["error"]


def test_newton_overflow_writes_only_its_json_line(workdir, capfd):
    # LAPACK's "** On entry to DLASCL parameter number 4 ..." went to file
    # descriptor 1, past sys.stdout, before the JSON error; capfd sees it
    argv = ["iso", "project", "--delta", str(workdir / "delta.json"), "--init", "1e300,1"]
    assert main(argv) == 1
    _one_error_line(*capfd.readouterr(), "the Newton system overflows float64")


@pytest.mark.parametrize("report", [[], ["--report"]], ids=["matrix", "report"])
def test_overflowing_multiplication_matrix_writes_only_its_json_line(workdir, capfd, report):
    # every family value is finite, but the R factor of the QR overflowed and
    # R2 @ R1 made it NaN: the command printed a NaN matrix, or a clean
    # report, with exit 0
    (workdir / "edge.csv").write_text("1.7e308,1\n-1.7e308,1\n0,1\n1.6e308,1\n")
    argv = ["ortho", "build", "--measure", str(workdir / "edge.csv"), "--family", "monomial",
            "--n", "2"]
    assert main(argv + report) == 1
    _one_error_line(*capfd.readouterr(), "the multiplication matrix overflows float64")


def _wide(rng, n):
    """n values of both signs with magnitudes from 1e-3 to 1.7e308."""
    mag = np.where(rng.random(n) < 0.5, 10.0 ** rng.uniform(-3, 3, n),
                   10.0 ** rng.uniform(150, 308, n))
    mag = np.where(rng.random(n) < 0.2, 1.7e308 * rng.uniform(0.5, 1.0, n), mag)
    return np.where(rng.random(n) < 0.5, -mag, mag)


def _printed_numbers(text):
    """Every number a matrix CSV or a structure report holds."""
    if text.startswith("{"):
        return [violation[2] for violation in json.loads(text)["violations"]]
    return [float(cell) for line in text.splitlines() for cell in line.split(",")]


def test_matrix_commands_print_finite_cells_or_one_error(workdir, capfd):
    # gmp build and ortho build print text that cli._all_finite never sees, so
    # each must refuse an overflow itself.  Runs in ~0.2 s
    rng = np.random.default_rng(35)
    runs = []
    for case in range(30):
        g = int(rng.integers(0, 3))
        coeffs = {"poles": sorted(rng.uniform(-3.0, 3.0, g).tolist()),
                  "p": np.abs(_wide(rng, g + 1)).tolist(), "q": _wide(rng, g + 1).tolist()}
        (workdir / f"c{case}.json").write_text(json.dumps(coeffs))
        runs.append([["gmp", "build", "--coeffs", str(workdir / f"c{case}.json"),
                      "--periods", "2"]])
    poles = {"monomial": [], "smp": ["--poles=0"], "gmp": ["--poles=0.5,-0.7"]}
    for case in range(60):
        family = list(poles)[case % 3]
        atoms = int(rng.integers(2, 6))
        xs, ws = _wide(rng, atoms), np.abs(_wide(rng, atoms))
        (workdir / f"m{case}.csv").write_text("".join(f"{x!r},{w!r}\n"
                                                      for x, w in zip(xs.tolist(), ws.tolist())))
        argv = ["ortho", "build", "--measure", str(workdir / f"m{case}.csv"), "--family", family,
                "--n", str(int(rng.integers(1, 3))), *poles[family]]
        runs.append([argv, argv + ["--report"]])
    for forms in runs:
        codes = []
        for argv in forms:
            codes.append(main(argv))
            out, err = capfd.readouterr()
            if codes[-1] == 0:
                assert all(map(math.isfinite, _printed_numbers(out))), argv
            else:
                assert codes[-1] == 1 and out == "" and len(err.splitlines()) == 1, argv
        assert len(set(codes)) == 1, forms  # the matrix and its report exit alike


@pytest.mark.parametrize("e", [8, 10, 20, 80])
def test_badly_scaled_spectrum_writes_only_its_json_line(workdir, capfd, e):
    # the transfer matrix cancels near 10^(3e) and the spectrum erred
    # 1.2e-8 to 0.38 of max|lambda| with exit 0
    (workdir / "c.json").write_text(json.dumps({"poles": [2.0], "p": [10.0**e, 1.0], "q": [1.0, 0.0]}))
    assert main(["spectrum", "eig", "--coeffs", str(workdir / "c.json"), "--periods", "3"]) == 1
    _one_error_line(*capfd.readouterr(), "the spectrum lost accuracy")


def test_magic_verify_refuses_an_empty_window(workdir, capfd):
    # one row at g = 0 and one period: the middle third holds none, and
    # numpy's "zero-size array to reduction operation maximum" named no field
    (workdir / "g0.json").write_text(json.dumps({"poles": [], "p": [1.0], "q": [0.0]}))
    (workdir / "d0.json").write_text(json.dumps({"lambda0": 1.0, "c0": 0.0, "terms": []}))
    argv = ["magic", "verify", "--delta", str(workdir / "d0.json"), "--coeffs",
            str(workdir / "g0.json"), "--periods", "1"]
    assert main(argv) == 1
    _one_error_line(*capfd.readouterr(), "window of 0 rows, need 1: raise n_periods")


@pytest.mark.parametrize("exc", [OverflowError("absolute value too large"),
                                 ZeroDivisionError("complex division by zero")])
def test_python_float_errors_exit_1_as_overflow(workdir, capsys, monkeypatch, exc):
    # a point command computes in Python floats, which raise where numpy gave inf
    def raising(delta, z):
        raise exc

    monkeypatch.setattr(importlib.import_module("gmpmat.discriminant"), "ahlfors_eval", raising)
    assert main(["ahlfors", "eval", "--delta", str(workdir / "delta.json"), "--z", "0.5"]) == 1
    _one_error_line(*capsys.readouterr(), "overflows float64")


# Limits this interpreter's address space to what it maps after importing
# numpy and gmpmat.cli, plus 1 GiB, then runs gmpmat.cli.main(argv).
MEMORY_PROBE = """
import resource, sys
import numpy
from gmpmat.cli import main
numpy.zeros(1)
with open("/proc/self/status") as fh:
    mapped = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) * 1024
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = mapped + 2**30 if hard == resource.RLIM_INFINITY else min(mapped + 2**30, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_out_of_memory_exits_1_with_one_json_line(workdir):
    # an 8 GB grid gave numpy's _ArrayMemoryError traceback
    argv = ["transfer", "eval", "--coeffs", "good.json", "--grid", "0:1:1000000000"]
    proc = _child(["-c", MEMORY_PROBE, *argv], cwd=workdir)
    assert proc.returncode == 1
    _one_error_line(proc.stdout, proc.stderr, "out of memory")


def _readme_cli_lines():
    """The shell lines of the code block under README's "## CLI" heading."""
    text = (SRC.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("  #")[0].strip() for line in block.splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


# Runs each line in order in one interpreter: "echo TEXT > FILE" writes
# FILE, "gmpmat ARGS" calls gmpmat.cli.main(ARGS) and records its exit
# code, whether scipy has been imported by then, and the names of the
# types other than Python's and np.float64 (a float) that reached the JSON
# writer's serialize._render, which has no numpy branch.  A type _render
# refuses raises TypeError; its message stands in for the exit code.
STARTUP_PROBE = """
import contextlib, io, json, shlex, sys
seen = {}
import gmpmat, gmpmat.cli
seen["import"] = [0, "scipy" in sys.modules, []]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        gmpmat.cli.main(["--help"])
    except SystemExit:
        pass
seen["--help"] = [0, "scipy" in sys.modules, []]
render, types = gmpmat.serialize._render, set()
def spy(obj):
    types.add(type(obj).__module__ + "." + type(obj).__qualname__)
    return render(obj)
gmpmat.serialize._render = spy
allowed = {"builtins." + t.__name__ for t in (bool, int, float, str, dict, list, tuple, type(None))}
json_lines = 0
for line in json.loads(sys.argv[1]):
    argv = shlex.split(line)
    if argv[0] == "echo":
        with open(argv[3], "w") as f:
            f.write(argv[1])
        continue
    types.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = gmpmat.cli.main(argv[1:])
        except TypeError as exc:
            code = str(exc)
    json_lines += bool(types)
    seen[line] = [code, "scipy" in sys.modules, sorted(types - allowed - {"numpy.float64"})]
print(json.dumps([json_lines, seen]))
"""


def test_cold_start_leaves_scipy_unloaded(workdir):
    lines = _readme_cli_lines()
    assert "gmpmat spectrum eig --coeffs coeffs.json --periods 100" in lines
    assert sum(line.startswith("gmpmat ") for line in lines) >= 19
    lines.append("gmpmat transfer eval --coeffs coeffs.json --grid=-3:3:101")
    lines.append("gmpmat delta eval --delta delta.json --grid=-3:-2:5")
    atoms = np.concatenate([np.linspace(-2.0, -1.0, 12), np.linspace(1.0, 2.0, 12)])
    (workdir / "atoms.csv").write_text("".join("%s,1.0\n" % x for x in atoms))
    json_lines, seen = _fresh(STARTUP_PROBE, json.dumps(lines), cwd=workdir)
    assert len(seen) == 2 + sum(line.startswith("gmpmat ") for line in lines)
    assert json_lines >= 10
    assert {step: got for step, got in seen.items() if got != [0, False, []]} == {}


# README's point evaluations: they run without numpy
POINT_LINES = [
    "gmpmat delta eval --delta delta.json --z 0.5,1.0",
    "gmpmat ahlfors eval --delta delta.json --z 0.5,1.0",
    "gmpmat transfer eval --coeffs coeffs.json --z 0.3,0.7",
    "gmpmat transfer lambdas --coeffs coeffs.json",
    "gmpmat transfer coeffs --coeffs coeffs.json",
    "gmpmat resolvent eval --coeffs coeffs.json --z 0.2,1.0",
    "gmpmat resolvent reflectionless --coeffs coeffs.json --x 2.4 --eps 1e-6",
    "gmpmat iso verify --delta d1.json --coeffs pt.json",
]

# grids of at most cli._SCALAR_GRID_MAX points run without numpy too
GRID_LINES = [
    "gmpmat delta eval --delta delta.json --grid=-3.1:3.3:{}",
    "gmpmat transfer eval --coeffs coeffs.json --grid=-3.1:3.3:{}",
    "gmpmat jacobi transfer --a 1,2 --b 0,0 --grid=-3.1:3.3:{}",
]

# Runs each line in order in one interpreter and records its exit code,
# whether numpy has been executed by then (a lazily bound numpy sits in
# sys.modules unexecuted, numpy._core does not) and the gmpmat modules loaded.
NUMPY_PROBE = """
import contextlib, io, json, shlex, sys
def modules():
    return sorted(m for m in sys.modules if m.startswith("gmpmat."))
import gmpmat
seen = {"import gmpmat": modules()}
import gmpmat.cli
for line in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = gmpmat.cli.main(shlex.split(line)[1:])
        except SystemExit as exc:  # --help
            code = exc.code
    seen[line] = [code, "numpy._core" in sys.modules, modules()]
print(json.dumps(seen))
"""


def test_point_commands_leave_numpy_unexecuted(workdir):
    assert set(POINT_LINES) <= set(_readme_cli_lines())
    (workdir / "coeffs.json").write_text(json.dumps(GOOD))
    (workdir / "d1.json").write_text(json.dumps(DELTA1))
    transfer_z = POINT_LINES[2]
    lines = POINT_LINES[:4] + [
        "gmpmat jacobi transfer --a 1,2 --b 0,0 --z 0.3",  # after transfer_z: loads isospectral
        *POINT_LINES[4:],
        *(line.format(200) for line in GRID_LINES),
        "gmpmat --help",
        "gmpmat transfer eval --coeffs coeffs.json",  # usage error: no --z or --grid
        "gmpmat delta eval --delta missing.json --z 0.5",
    ]
    seen = _fresh(NUMPY_PROBE, json.dumps(lines), cwd=workdir)
    assert seen.pop("import gmpmat") == []
    codes = {line: got[:2] for line, got in seen.items()}
    assert codes == {line: [1 if i >= len(lines) - 2 else 0, False] for i, line in enumerate(lines)}
    assert not {"gmpmat.isospectral", "gmpmat.ortho", "gmpmat.resolvent"} & set(seen[transfer_z][2])


@pytest.mark.parametrize("line", GRID_LINES)
def test_grid_beyond_the_scalar_limit_executes_numpy(workdir, line):
    from gmpmat.cli import _SCALAR_GRID_MAX

    (workdir / "coeffs.json").write_text(json.dumps(GOOD))
    lines = [line.format(_SCALAR_GRID_MAX), line.format(_SCALAR_GRID_MAX + 1)]
    seen = _fresh(NUMPY_PROBE, json.dumps(lines), cwd=workdir)
    assert [seen[line][:2] for line in lines] == [[0, False], [0, True]]


# Runs main on a result made by a stand-in command and records whether numpy was executed.
FINITE_PROBE = """
import contextlib, io, json, sys
import gmpmat.cli
gmpmat.cli._cmd_transfer_lambdas = lambda args: {"ok": True, "x": 1.0}
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = gmpmat.cli.main(["transfer", "lambdas", "--coeffs", "coeffs.json"])
print(json.dumps([code, out.getvalue(), "numpy._core" in sys.modules]))
"""


def test_results_without_arrays_leave_numpy_unexecuted(workdir):
    # a bool (or int, str, None) leaf reached the ndarray test in _all_finite
    (workdir / "coeffs.json").write_text(json.dumps(GOOD))
    assert _fresh(FINITE_PROBE, cwd=workdir) == [0, '{"ok": true, "x": 1}\n', False]


# Runs each line in order in one interpreter and records its exit code and
# whether numpy.random is loaded by then.
RANDOM_PROBE = """
import contextlib, io, json, shlex, sys
import gmpmat.cli
seen = {}
for line in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gmpmat.cli.main(shlex.split(line)[1:])
    seen[line] = [code, "numpy.random" in sys.modules]
print(json.dumps(seen))
"""


def test_iso_project_from_init_leaves_numpy_random_unloaded(workdir):
    # the retry generator is made at the first retry; --seed draws its start
    lines = ["gmpmat iso project --delta delta.json --init 1.2,0.1",
             "gmpmat iso project --delta delta.json --seed 0"]
    seen = _fresh(RANDOM_PROBE, json.dumps(lines), cwd=workdir)
    assert seen == {lines[0]: [0, False], lines[1]: [0, True]}


# Runs gmp check on each coefficient file in order in one interpreter and
# records its exit code and whether gmpmat.isospectral and scipy are loaded by then.
GMP_CHECK_PROBE = """
import contextlib, io, json, sys
import gmpmat.cli
seen = {}
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = gmpmat.cli.main(["gmp", "check", "--coeffs", path])
    seen[path] = [code, "gmpmat.isospectral" in sys.modules, "scipy" in sys.modules]
print(json.dumps(seen))
"""


def test_gmp_check_loads_neither_isospectral_nor_scipy(workdir):
    # the hit count, the block path (good.json) and the eigensolve of a
    # deflated pole (pt.json) all live in gmp
    seen = _fresh(GMP_CHECK_PROBE, "good.json", "pt.json", cwd=workdir)
    assert seen == {"good.json": [0, False, False], "pt.json": [0, False, False]}


# Every name ``gmpmat`` exports.
EXPORTS = """
BandedOperator ConvergenceError DiscreteMeasure DiscriminantCoefficients DomainError
FiniteGapSet GmpCoefficients RationalDiscriminant RationalFamily ResolventValue ahlfors_eval
assemble bands build_blocks check_shifted_inverse_structure discriminant_coeffs
discriminant_of eval_discriminant family_function forced_tail jacobi_band_edges
jacobi_transfer lambda_k lambda_k_residue lambda_positivity_test magic_verify
manifold_residual mirror_transfer multiplication_matrix project_to_manifold
reflectionless_check resolvent_pair solve_discriminant spectrum_truncation structure_report
trace_torus transfer transfer_from_resolvent truncation_resolvent_oracle
""".split()

# Names only unit tests called; the elementary factors are test oracles in conftest.
REMOVED = ["factor_infinity", "factor_pole", "jacobi_coeffs", "resolvent_matrix"]

EXPORT_PROBE = """
import json, sys, types
import gmpmat
import gmpmat.resolvent  # imports the submodule gmpmat.transfer, which would rebind the name
names = json.loads(sys.argv[1])
star = {}
exec("from gmpmat import *", star)
print(json.dumps({
    "missing": [n for n in names if not hasattr(gmpmat, n)],
    "not_starred": [n for n in names if n not in star],
    "transfer": gmpmat.transfer is sys.modules["gmpmat.transfer"].transfer,
    "function": isinstance(gmpmat.transfer, types.FunctionType),
}))
"""


def test_lazy_package_exports_every_name():
    got = _fresh(EXPORT_PROBE, json.dumps(EXPORTS))
    assert got == {"missing": [], "not_starred": [], "transfer": True, "function": True}


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_exported(name):
    assert name not in gmpmat.__all__
    with pytest.raises(AttributeError):
        getattr(gmpmat, name)


SPECTRUM_PROBE = """
import json, sys
import numpy as np
from gmpmat import GmpCoefficients, assemble, spectrum_truncation
c = GmpCoefficients.from_dict(json.loads(sys.argv[1]))
eigs = spectrum_truncation(c, 20)
loaded = "scipy" in sys.modules
eig_err = np.max(np.abs(eigs - np.linalg.eigvalsh(assemble(c, 20).to_dense())))
print(json.dumps({"loaded": loaded, "eig_err": float(eig_err)}))
"""


def test_spectrum_truncation_leaves_scipy_unloaded():
    got = _fresh(SPECTRUM_PROBE, json.dumps(GOOD))
    assert not got["loaded"]
    assert got["eig_err"] < 1e-12


ORACLE_PROBE = """
import json, sys
import numpy as np
from gmpmat import GmpCoefficients, assemble, resolvent_pair, truncation_resolvent_oracle
c = GmpCoefficients.from_dict(json.loads(sys.argv[1]))
got = {"before": "scipy" in sys.modules}
if sys.argv[2] == "eigenvalues":
    eigs = np.sort(assemble(c, 20).eigenvalues())
    got["err"] = float(np.max(np.abs(eigs - np.linalg.eigvalsh(assemble(c, 20).to_dense()))))
else:
    z = 0.3 + 1.5j
    rp, rm = truncation_resolvent_oracle(c, z)
    rv = resolvent_pair(c, z)
    got["err"] = max(abs(rv.r_plus / rv.a0**2 - rp), abs(1.0 / rv.r_minus_inv - rm))
got["after"] = "scipy.linalg" in sys.modules
print(json.dumps(got))
"""


def test_banded_lapack_calls_load_scipy_on_demand():
    # the two LAPACK oracles, each in a fresh interpreter, are what loads scipy
    eig = _fresh(ORACLE_PROBE, json.dumps(GOOD), "eigenvalues")
    assert not eig["before"] and eig["after"] and eig["err"] < 1e-12
    res = _fresh(ORACLE_PROBE, json.dumps(GOOD), "resolvent")
    assert not res["before"] and res["after"] and res["err"] < 1e-6
