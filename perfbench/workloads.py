"""Seeded workloads of the gmpmat benchmark.

A workload is a list of passes; a pass is a fixed list of operations
made from ``numpy.random.default_rng([seed, workload, pass])``, so the
same seed gives the same inputs.  Operations receive only the generated
input files (CLI workloads) or objects (``solver_sweep``).  Each
operation carries a check from ``reference``, which never calls gmpmat.

Why each workload exists:

- ``cli_small``: a seeded mix of small cold ``python -m gmpmat.cli``
  calls covering every README command at g <= 4.  Interpreter and
  import start-up is most of every call here, while serialization and
  compute are tiny.  A start-up change shows here and should not show
  in ``solver_sweep``.
- ``grid_large``: cold CLI calls with large outputs.  CSV encoding,
  per-point Python loops and ``to_dense`` dominate here, with import a
  small share.  It also writes large outputs, where ``cli_small`` only
  reads JSON and writes tiny outputs.
- ``solver_sweep``: in-process library calls after a warm-up.
  Newton/Gauss-Newton iterations, finite-difference Jacobians
  (``lambda_k`` calls) and scalar transfer calls dominate here, with no
  start-up and no serialization.  Gap edges uniform in [-10, 10] show
  the known ``solve_discriminant`` stall at g = 32; those inputs are
  kept, and their failures count.
"""

import json
from dataclasses import dataclass

import numpy as np

import reference as ref

WORKLOADS = ("cli_small", "grid_large", "solver_sweep")


@dataclass
class Op:
    """One operation: CLI arguments or a library call, and its check.

    ``check`` takes the ``--out`` path (CLI) or the call's return value
    and gives None when the output is right, else a one-line reason.
    ``rows`` is the number of CSV rows the operation writes.
    """

    name: str
    check: object
    argv: list = None
    call: object = None
    rows: int = 0


# --- input generators -------------------------------------------------------


def gmp_coeffs(rng, g):
    """Coefficients of a periodic GMP matrix: all Lambda_k > 0."""
    while True:
        poles = np.cumsum(rng.uniform(0.5, 2.0, g))
        coeffs = {
            "poles": (poles - poles.mean()).tolist() if g else [],
            "p": rng.uniform(0.2, 1.5, g + 1).tolist(),
            "q": rng.uniform(-1.2, 1.2, g + 1).tolist(),
        }
        if np.all(ref.lambdas(coeffs) > 0):
            return coeffs


def separated_gap_set(rng, g):
    """A gap set with 2g + 2 edges at least 0.25 apart."""
    edges = np.cumsum(rng.uniform(0.25, 1.0, 2 * g + 2))
    edges = edges - edges[g + 1]
    return _gap_set(edges)


def uniform_gap_set(rng, g):
    """A gap set with 2g + 2 edges uniform in [-10, 10]."""
    return _gap_set(np.sort(rng.uniform(-10.0, 10.0, 2 * g + 2)))


def _gap_set(edges):
    g = (len(edges) - 2) // 2
    gaps = [[float(edges[2 * j + 1]), float(edges[2 * j + 2])] for j in range(g)]
    return {"b0": float(edges[0]), "a0": float(edges[-1]), "gaps": gaps}


def random_delta(rng, g):
    """A rational discriminant with positive weights and spread poles."""
    poles = np.cumsum(rng.uniform(0.5, 2.0, g))
    terms = zip(rng.uniform(0.2, 2.0, g), poles - poles.mean())
    return {
        "lambda0": float(rng.uniform(0.5, 2.0)),
        "c0": float(rng.uniform(-1.0, 1.0)),
        "terms": [[float(lam), float(c)] for lam, c in terms],
    }


def jacobi_ab(rng, period):
    return rng.uniform(0.5, 2.0, period).tolist(), rng.uniform(-1.0, 1.0, period).tolist()


def band_point(coeffs, rng):
    """A point well inside a band: |trace| < 1.5 on a scan."""
    xs = np.linspace(-10.0, 10.0, 2001)
    with np.errstate(divide="ignore", invalid="ignore"):  # a scan point may hit a pole
        inside = [x for x in xs if abs(ref.transfer(coeffs, x).trace().real) < 1.5]
    return float(inside[rng.integers(len(inside))])


def _csv_list(values):
    return ",".join(repr(float(v)) for v in values)


class _Files:
    """Writes input files of one pass and names its outputs."""

    def __init__(self, workdir, tag):
        self.dir = workdir
        self.tag = tag

    def put(self, name, obj):
        path = self.dir / f"{self.tag}-{name}"
        if isinstance(obj, str):
            path.write_text(obj)
        else:
            path.write_text(json.dumps(obj))
        return str(path)

    def out(self, name):
        return str(self.dir / f"{self.tag}-out-{name}")


# --- checks of CLI outputs that need the output file -----------------------


def _json_check(fn):
    """Check on the parsed JSON output."""
    return lambda path: fn(ref.read_json(path))


def _point_close(got, want, rel=ref.REL):
    return abs(complex(*got) - want) <= rel * (1.0 + abs(want))


def _check_matrix(coeffs, z):
    M = ref.transfer(coeffs, z)
    scale = np.max(np.abs(M))

    def check(got):
        for key, (r, c) in {"m11": (0, 0), "m12": (0, 1), "m21": (1, 0), "m22": (1, 1)}.items():
            if abs(complex(*got[key]) - M[r, c]) > ref.REL * (1.0 + scale):
                return f"{key} = {got[key]}, want {M[r, c]}"
        return None

    return check


def _check_coeffs(coeffs):
    want = ref.delta_of(coeffs)

    def check(got):
        nus = np.array(got["nus"])
        lam = np.array([t[0] for t in want["terms"]])
        if not (
            ref.close(got["nu0"], want["lambda0"], abs(want["lambda0"]))
            and ref.close(got["d0"], want["c0"], abs(want["c0"]))
            and nus.shape == lam.shape
            and np.all(np.abs(nus - lam) <= ref.REL * (1.0 + np.abs(lam)))
        ):
            return f"discriminant coefficients {got} != {want}"
        return None

    return check


def _check_lambdas(coeffs):
    want = ref.lambdas(coeffs)

    def check(got):
        got = np.array(got)
        if got.shape != want.shape or np.any(np.abs(got - want) > ref.REL * (1.0 + np.abs(want))):
            return f"lambdas {got} != {want}"
        return None

    return check


def _check_gmp_check(coeffs):
    want = ref.lambdas(coeffs)

    def check(got):
        if got["is_gmp"] is not True or got["structural_ok"] is not True:
            return f"GMP coefficients not recognized: {got}"
        return _check_lambdas(coeffs)(got["lambdas"])

    return check


def _check_resolvent(coeffs, z):
    rp, rm = ref.resolvent_roots(coeffs, z)
    a0 = float(np.linalg.norm(coeffs["p"]))

    def check(got):
        if not (
            _point_close(got["r_plus"], rp)
            and _point_close(got["r_minus_inv"], rm)
            and ref.close(got["a0"], a0, a0)
        ):
            return f"resolvent {got} != ({rp}, {rm}, {a0})"
        return None

    return check


def _check_reflectionless(coeffs, x, eps):
    rp, rm = ref.resolvent_roots(coeffs, complex(x, eps))
    a0sq = float(np.dot(coeffs["p"], coeffs["p"]))
    want = abs(a0sq / rp - a0sq / np.conj(rm))

    def check(got):
        if not (got["defect"] <= 1e-3 and abs(got["defect"] - want) <= 1e-6 * (1.0 + want)):
            return f"reflectionless defect {got['defect']!r}, reference {want!r}"
        return None

    return check


def _check_value(want):
    def check(got):
        if not _point_close((got["re"], got["im"]), want):
            return f"value {got} != {want}"
        return None

    return check


def _check_ahlfors(delta, z):
    d = ref.delta_value(delta, z)

    def check(got):
        psi = complex(got["re"], got["im"])
        if not (0 < abs(psi) < 1 and abs(psi + 1 / psi - d) <= 1e-9 * (1 + abs(d))):
            return f"Psi = {psi} does not solve Psi + 1/Psi = {d}"
        return None

    return check


def _check_bands(delta):
    """Band edges solve Delta = -2 (left) and +2 (right), one pole per gap."""

    def check(got):
        g = len(delta["terms"])
        if len(got["gaps"]) != g:
            return f"{len(got['gaps'])} gaps for g = {g}"
        edges = [got["b0"]] + [v for gap in got["gaps"] for v in gap] + [got["a0"]]
        if edges != sorted(edges):
            return "band edges out of order"
        for i, x in enumerate(edges):
            t = -2.0 if i % 2 == 0 else 2.0
            slope = delta["lambda0"] + sum(lam / (c - x) ** 2 for lam, c in delta["terms"])
            if abs(ref.delta_value(delta, x) - t) > 1e-9 * (1.0 + slope):
                return f"Delta({x!r}) != {t}"
        poles = sorted(c for _, c in delta["terms"])
        if any(not a < c < b for (a, b), c in zip(got["gaps"], poles)):
            return "a gap without its pole"
        return None

    return check


def _manifold_tol(delta):
    return 1e-8 * (1.0 + max([abs(lam) for lam, _ in delta["terms"]] + [abs(delta["c0"])]))


def _coeffs_dict(obj):
    return {"poles": list(obj.poles), "p": list(obj.p), "q": list(obj.q)}


def _check_point(delta):
    tol = _manifold_tol(delta)

    def check(got):
        if ref.manifold_defect(got, delta) > tol or np.any(ref.lambdas(got) <= 0):
            return f"point off the manifold: defect {ref.manifold_defect(got, delta):.3e}"
        return None

    return check


def _check_verify(coeffs, delta):
    want = ref.lambdas(coeffs) - np.array([lam for lam, _ in delta["terms"]])

    def check(got):
        res = np.array(got["residual"])
        if (
            got["on_manifold"] is not True
            or res.shape != want.shape
            or np.max(np.abs(res - want), initial=0) > 1e-9
        ):
            return f"verify reported {got}"
        return None

    return check


def _check_trace_csv(delta, steps):
    g = len(delta["terms"])
    tol = _manifold_tol(delta)

    def check(path):
        lines = ref.read_lines(path)
        if lines is None or len(lines) != steps + 1:
            return f"expected {steps + 1} rows"
        for i, line in enumerate(lines):
            row = [float(v) for v in line.split(b",")]
            if len(row) != 2 * g + 4 or row[0] != i:
                return f"row {i} malformed"
            pt = {
                "poles": [c for _, c in delta["terms"]],
                "p": row[1 : 1 + g] + [row[1 + 2 * g]],
                "q": row[1 + g : 1 + 2 * g] + [row[2 + 2 * g]],
            }
            if ref.manifold_defect(pt, delta) > tol or row[-1] > tol:
                return f"row {i} off the manifold"
        return None

    return check


def _check_magic(defect):
    if not 0.0 <= defect <= 1e-6:
        return f"magic defect {defect!r} > 1e-6 at a manifold point"
    return None


def _check_structure(got):
    if got["pattern"] != "class-A" or got["bandwidth"] != 2 or got["violations"]:
        return f"structure report {got}"
    return None


# --- workloads --------------------------------------------------------------


def cli_small(rng, workdir, tag):
    """Every README command once, at g <= 4, on fresh seeded inputs."""
    f = _Files(workdir, tag)
    g = int(rng.integers(1, 5))
    gap_set = separated_gap_set(rng, g)
    coeffs = gmp_coeffs(rng, g)
    delta = ref.delta_of(coeffs)
    z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 2.0))
    zarg = f"{z.real!r},{z.imag!r}"
    head = np.array(coeffs["p"][:-1] + coeffs["q"][:-1])
    init = head + rng.normal(scale=0.05, size=head.size)
    a, b = jacobi_ab(rng, int(rng.integers(2, 5)))
    x_band = band_point(coeffs, rng)
    atoms = np.concatenate([np.linspace(-2.0, -1.0, 20), np.linspace(1.0, 2.0, 20)])
    weights = rng.uniform(0.5, 1.5, atoms.size)
    pole = float(rng.uniform(-0.5, 0.5))

    S = f.put("set.json", gap_set)
    D = f.put("delta.json", delta)
    C = f.put("coeffs.json", coeffs)
    M = f.put("atoms.csv", "".join(f"{float(x)!r},{float(w)!r}\n" for x, w in zip(atoms, weights)))
    grid = (-3.0, 3.0, 200)
    gspec = f"--grid={grid[0]}:{grid[1]}:{grid[2]}"
    rows = ref.check_grid_csv
    return [
        Op("delta solve", lambda p: ref.check_discriminant(ref.read_json(p), gap_set),
           ["delta", "solve", "--set", S, "--out", f.out("delta.json")]),
        Op("delta bands", _json_check(_check_bands(delta)),
           ["delta", "bands", "--delta", D, "--out", f.out("bands.json")]),
        Op("delta eval", _json_check(_check_value(ref.delta_value(delta, z))),
           ["delta", "eval", "--delta", D, "--z=" + zarg, "--out", f.out("deval.json")]),
        Op("delta eval --grid", lambda p: rows(p, grid, 2, ref.delta_grid_row(delta), rng),
           ["delta", "eval", "--delta", D, gspec, "--out", f.out("deval.csv")], rows=grid[2]),
        Op("ahlfors eval", _json_check(_check_ahlfors(delta, z)),
           ["ahlfors", "eval", "--delta", D, "--z=" + zarg, "--out", f.out("ahlfors.json")]),
        Op("gmp build", lambda p: ref.check_section_csv(p, coeffs, 4, rng),
           ["gmp", "build", "--coeffs", C, "--periods", "4", "--out", f.out("gmp.csv")],
           rows=(4 * (g + 1)) * (4 * (g + 1) + 1) // 2),
        Op("gmp check", _json_check(_check_gmp_check(coeffs)),
           ["gmp", "check", "--coeffs", C, "--out", f.out("check.json")]),
        Op("transfer eval", _json_check(_check_matrix(coeffs, z)),
           ["transfer", "eval", "--coeffs", C, "--z=" + zarg, "--out", f.out("teval.json")]),
        Op("transfer eval --grid", lambda p: rows(p, grid, 2, ref.transfer_grid_row(coeffs), rng),
           ["transfer", "eval", "--coeffs", C, gspec, "--out", f.out("teval.csv")], rows=grid[2]),
        Op("transfer coeffs", _json_check(_check_coeffs(coeffs)),
           ["transfer", "coeffs", "--coeffs", C, "--out", f.out("tcoeffs.json")]),
        Op("transfer lambdas", _json_check(_check_lambdas(coeffs)),
           ["transfer", "lambdas", "--coeffs", C, "--out", f.out("lambdas.json")]),
        Op("resolvent eval", _json_check(_check_resolvent(coeffs, z)),
           ["resolvent", "eval", "--coeffs", C, "--z=" + zarg, "--out", f.out("reval.json")]),
        Op("resolvent reflectionless", _json_check(_check_reflectionless(coeffs, x_band, 1e-6)),
           ["resolvent", "reflectionless", "--coeffs", C, "--x=" + repr(x_band), "--eps", "1e-6",
            "--out", f.out("refl.json")]),
        Op("spectrum eig", lambda p: ref.check_spectrum_csv(p, coeffs, 100),
           ["spectrum", "eig", "--coeffs", C, "--periods", "100", "--out", f.out("eig.csv")],
           rows=100 * (g + 1)),
        Op("iso project", _json_check(_check_point(delta)),
           ["iso", "project", "--delta", D, "--init=" + _csv_list(init), "--out", f.out("pt.json")]),
        Op("iso verify", _json_check(_check_verify(coeffs, delta)),
           ["iso", "verify", "--delta", D, "--coeffs", C, "--out", f.out("verify.json")]),
        Op("iso trace", _check_trace_csv(delta, 50),
           ["iso", "trace", "--delta", D, "--coeffs", C, "--steps", "50", "--step-len", "0.05",
            "--out", f.out("trace.csv")], rows=51),
        Op("magic verify", _json_check(lambda got: _check_magic(got["defect"])),
           ["magic", "verify", "--delta", D, "--coeffs", C, "--periods", "60",
            "--out", f.out("magic.json")]),
        Op("ortho build", _json_check(_check_structure),
           ["ortho", "build", "--measure", M, "--family", "gmp", "--poles=" + repr(pole),
            "--n", "12", "--report", "--out", f.out("ortho.json")]),
        Op("jacobi transfer --bands", _json_check(lambda got: ref.check_band_edges(got, a, b)),
           ["jacobi", "transfer", "--a=" + _csv_list(a), "--b=" + _csv_list(b), "--bands",
            "--out", f.out("jbands.json")]),
        Op("jacobi transfer", _json_check(_check_value(ref.jacobi_trace(a, b, z))),
           ["jacobi", "transfer", "--a=" + _csv_list(a), "--b=" + _csv_list(b), "--z=" + zarg,
            "--out", f.out("jvalue.json")]),
    ]


def grid_large(rng, workdir, tag, small=False):
    """Large grids and finite sections; ``small`` divides sizes by 100."""
    f = _Files(workdir, tag)
    k = 100 if small else 1
    c2 = gmp_coeffs(rng, 2)
    c1 = gmp_coeffs(rng, 1)
    delta = random_delta(rng, 4)
    a, b = jacobi_ab(rng, 3)
    C2, C1, D = f.put("c2.json", c2), f.put("c1.json", c1), f.put("delta.json", delta)
    tgrid, rgrid = (-3.0, 3.0, 1_000_000 // k), (-3.0, 3.0, 20_000 // k)
    dgrid, jgrid = (-10.0, 10.0, 200_000 // k), (-5.0, 5.0, 100_000 // k)
    periods, eig_periods = (25, 10) if small else (500, 1000)
    n = 2 * periods

    def spec(grid):
        return f"--grid={grid[0]}:{grid[1]}:{grid[2]}"

    rows = ref.check_grid_csv
    return [
        Op("transfer eval --grid", lambda p: rows(p, tgrid, 2, ref.transfer_grid_row(c2), rng),
           ["transfer", "eval", "--coeffs", C2, spec(tgrid), "--out", f.out("t.csv")],
           rows=tgrid[2]),
        Op("resolvent eval --grid", lambda p: rows(p, rgrid, 5, ref.resolvent_grid_row(c2, 1.0), rng),
           ["resolvent", "eval", "--coeffs", C2, spec(rgrid), "--out", f.out("r.csv")],
           rows=rgrid[2]),
        Op("delta eval --grid", lambda p: rows(p, dgrid, 2, ref.delta_grid_row(delta), rng),
           ["delta", "eval", "--delta", D, spec(dgrid), "--out", f.out("d.csv")], rows=dgrid[2]),
        Op("jacobi transfer --grid", lambda p: rows(p, jgrid, 2, ref.jacobi_grid_row(a, b), rng),
           ["jacobi", "transfer", "--a=" + _csv_list(a), "--b=" + _csv_list(b), spec(jgrid),
            "--out", f.out("j.csv")], rows=jgrid[2]),
        Op("gmp build", lambda p: ref.check_section_csv(p, c1, periods, rng),
           ["gmp", "build", "--coeffs", C1, "--periods", str(periods), "--out", f.out("g.csv")],
           rows=n * (n + 1) // 2),
        Op("spectrum eig", lambda p: ref.check_spectrum_csv(p, c2, eig_periods),
           ["spectrum", "eig", "--coeffs", C2, "--periods", str(eig_periods), "--out", f.out("e.csv")],
           rows=3 * eig_periods),
    ]


def solver_sweep(rng, small=False):
    """Solver calls on in-memory objects; ``small`` keeps one of each kind."""
    import gmpmat  # generation builds gmpmat input objects

    ops = []
    for g in (2, 4) if small else (4, 8, 16, 32):
        for _ in range(2 if small else 10):
            E = uniform_gap_set(rng, g)
            ops.append(_solve_op(gmpmat, E))
    for g in (2,) if small else (2, 4, 8):
        delta = random_delta(rng, g)
        ops.append(_iso_op(gmpmat, delta, rng.normal(size=2 * g), 2 if small else 20))
    for period in (2, 3) if small else range(2, 7):
        a, b = jacobi_ab(rng, period)
        ops.append(Op(f"jacobi_band_edges p={period}", lambda got, a=a, b=b: ref.check_band_edges(got, a, b),
                      call=lambda a=a, b=b: gmpmat.jacobi_band_edges(a, b)))
    coeffs = gmp_coeffs(rng, 3)
    periods = 20 if small else 1000
    obj = gmpmat.GmpCoefficients(**coeffs)
    ops.append(Op("spectrum_truncation", lambda got: ref.check_spectrum(got, coeffs, periods),
                  call=lambda: gmpmat.spectrum_truncation(obj, periods)))
    return ops


def _solve_op(gmpmat, E):
    obj = gmpmat.FiniteGapSet.from_dict(E)
    scale = E["a0"] - E["b0"]

    def call():
        delta = gmpmat.solve_discriminant(obj)
        return delta, gmpmat.bands(delta)

    def check(got):
        delta, back = got
        delta = {"lambda0": delta.lambda0, "c0": delta.c0, "terms": [list(t) for t in delta.terms]}
        back = {"b0": back.b0, "a0": back.a0, "gaps": [list(gap) for gap in back.gaps]}
        return ref.check_discriminant(delta, E) or ref.check_gap_set(back, E, scale)

    return Op(f"solve+bands g={len(E['gaps'])}", check, call=call)


def _iso_op(gmpmat, delta, init, steps):
    obj = gmpmat.RationalDiscriminant.from_dict(delta)
    check_point = _check_point(delta)

    def call():
        pt = gmpmat.project_to_manifold(init, obj)
        points = gmpmat.trace_torus(pt, obj, steps, 0.05)
        return points, gmpmat.magic_verify(points[-1], obj, 60)

    def check(got):
        points, defect = got
        if len(points) != steps + 1:
            return f"{len(points)} points for {steps} steps"
        for pt in points:
            reason = check_point(_coeffs_dict(pt))
            if reason:
                return reason
        return _check_magic(defect)

    return Op(f"project+trace+magic g={len(delta['terms'])}", check, call=call)


def warmup_ops(seed):
    """Small library calls of every solver kind, run before timing."""
    return solver_sweep(np.random.default_rng([seed, len(WORKLOADS)]), small=True)


def make_pass(workload, seed, index, workdir, small=False):
    """Operations of pass ``index``; ``small`` gives the smoke-test sizes."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    if workload == "cli_small":  # already the smallest size
        return cli_small(rng, workdir, f"p{index}")
    if workload == "grid_large":
        return grid_large(rng, workdir, f"p{index}", small)
    return solver_sweep(rng, small)
