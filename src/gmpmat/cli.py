"""Command-line front end.

Thin adapters over the library modules with deterministic, file-based
I/O: JSON for structured data, CSV for matrices, traces and grids.
Each command imports the library modules it runs when it runs, so a
point evaluation loads neither numpy nor the modules it does not use.
Each command returns its result and ``main`` writes it: a str as it is,
a dict or list as JSON (a dataclass result is returned as ``vars``: its
fields in declaration order), a 2-D ndarray as CSV rows.  ``_grid`` evaluates
every --grid but resolvent eval's with one evaluator, f(float) or f(array):
at most ``_SCALAR_GRID_MAX`` points one by one in Python floats, into a
tuple of rows that ``_all_finite`` checks and ``serialize.rows_csv``
encodes without executing numpy, and a larger grid in one f(array) call.
Exit codes: 0 success, 1 domain/input/usage error, 2 convergence failure.
A warning the command raises goes to stderr after the output, as one JSON
line; numpy's floating-point warnings are ignored.
A grid that hits a pole is a domain error: no partial output is written.
"""

import argparse
import math
import sys
import warnings

from . import serialize
from ._lazy import np
from .errors import ConvergenceError, DomainError, count, finite

# numpy's floating-point warnings; a non-finite result is refused instead
_FP_WARNINGS = r"(divide by zero|overflow|underflow|invalid value) encountered"


def _parse_complex(text):
    """'re' or 're,im' -> complex."""
    parts = _parse_floats("z", text)
    if not 1 <= len(parts) <= 2:
        raise DomainError(f"cannot parse point {text!r}")
    return complex(*parts)


# A --grid of at most this many points is evaluated point by point in
# Python floats and written without numpy, where the command has a scalar
# kernel (delta eval, transfer eval, jacobi transfer): a cold call then
# skips numpy's import, ~65 ms of CPU.  Measured cold break-even (median
# child CPU time of 11 alternating calls a side, 2-core x86-64 host):
# ~8,000 points for jacobi transfer at period 4, ~10,000 for transfer eval
# at g = 4, above 12,000 for delta eval at g = 4.  The limit is half the
# lowest, since the per-point cost grows with g and the period.
_SCALAR_GRID_MAX = 4096


def _parse_grid(text):
    """'lo:hi:count' -> the points of np.linspace(lo, hi, count): a tuple
    of Python floats, computed as linspace computes them, for a count of
    at most _SCALAR_GRID_MAX, else the array."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be lo:hi:count")
    lo, hi = finite("grid", parts[0]), finite("grid", parts[1])
    try:
        n = int(parts[2])
    except ValueError:
        raise DomainError("grid count must be an integer") from None
    if n < 2 or not lo < hi:
        raise DomainError("grid needs lo < hi and count >= 2")
    n = count("grid count", n, 2, sys.maxsize // 8, "grid")
    if n > _SCALAR_GRID_MAX:
        return np.linspace(lo, hi, n)
    delta, div = hi - lo, n - 1
    step = delta / div
    if step == 0.0:  # a subnormal step: linspace scales i / div instead
        return tuple(i / div * delta + lo for i in range(div)) + (hi,)
    return tuple(i * step + lo for i in range(div)) + (hi,)


def _grid(text, f, poles=()):
    """The rows (x, f(x)) over the --grid ``text``: a tuple of rows from
    ``f`` at each Python float, or an array from one ``f`` call on the
    array of points.

    A tuple grid through poles raises at the first pole in pole order that
    it holds, as the array kernels do: f(c) raises the pole's own error.
    """
    xs = _parse_grid(text)
    if not isinstance(xs, tuple):
        return np.column_stack([xs, f(xs)])
    for c in poles:
        if c in xs:
            f(c)
    return tuple((x, f(x)) for x in xs)


def _tol(text):
    """The value of --tol: a finite float >= 0."""
    try:
        tol = finite("tol", text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if tol < 0:
        raise argparse.ArgumentTypeError("tol must be >= 0")
    return tol


def _parse_floats(field, text):
    """'v1,v2,...' -> tuple of finite floats, errors naming ``field``; '' -> ()."""
    return tuple(finite(field, v) for v in text.split(",")) if text else ()


def _load(cls, path):
    """cls from the JSON object in the file at path; DomainError naming the file."""
    try:
        data = serialize.load_json(path)
        if not isinstance(data, dict):
            raise DomainError("the top level must be a JSON object")
        return cls.from_dict(data)
    except KeyError as exc:
        raise DomainError(f"{path}: missing field {exc}") from None
    except ValueError as exc:  # DomainError and JSON decode errors
        raise DomainError(f"{path}: {exc}") from None


def _complex(value):
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _cmd_delta_solve(args):
    from .discriminant import FiniteGapSet, solve_discriminant

    return vars(solve_discriminant(_load(FiniteGapSet, args.set)))


def _cmd_delta_eval(args):
    from .discriminant import RationalDiscriminant, eval_discriminant

    delta = _load(RationalDiscriminant, args.delta)
    if args.grid is not None:
        return _grid(args.grid, lambda x: eval_discriminant(delta, x), delta.poles)
    return _complex(eval_discriminant(delta, _parse_complex(args.z)))


def _cmd_delta_bands(args):
    from .discriminant import RationalDiscriminant, bands

    return vars(bands(_load(RationalDiscriminant, args.delta)))


def _cmd_ahlfors_eval(args):
    from .discriminant import RationalDiscriminant, ahlfors_eval

    return _complex(ahlfors_eval(_load(RationalDiscriminant, args.delta), _parse_complex(args.z)))


def _cmd_gmp_build(args):
    from .gmp import GmpCoefficients, assemble

    op = assemble(_load(GmpCoefficients, args.coeffs), args.periods)
    return serialize.lower_triangle_csv(op, tol=args.tol)


def _cmd_gmp_check(args):
    from .gmp import GmpCoefficients, check_shifted_inverse_structure, lambda_positivity_test

    coeffs = _load(GmpCoefficients, args.coeffs)
    is_gmp, lambdas = lambda_positivity_test(coeffs)
    structural = True
    for k in range(1, coeffs.g + 1):
        structural &= check_shifted_inverse_structure(coeffs, k, args.periods, args.tol)
    return {"is_gmp": is_gmp, "lambdas": lambdas, "structural_ok": structural}


def _cmd_transfer_eval(args):
    from ._kernels import _factor_product
    from .gmp import GmpCoefficients
    from .transfer import discriminant_of

    coeffs = _load(GmpCoefficients, args.coeffs)
    if args.grid is not None:
        return _grid(args.grid, lambda x: discriminant_of(coeffs, x), coeffs.poles)
    M = _factor_product(_parse_complex(args.z), coeffs.poles, coeffs.p, coeffs.q)
    return {f"m{k // 2 + 1}{k % 2 + 1}": [m.real, m.imag] for k, m in enumerate(M)}


def _cmd_transfer_coeffs(args):
    from .gmp import GmpCoefficients
    from .transfer import discriminant_coeffs

    return vars(discriminant_coeffs(_load(GmpCoefficients, args.coeffs)))


def _cmd_transfer_lambdas(args):
    from .gmp import GmpCoefficients
    from .transfer import lambda_k

    coeffs = _load(GmpCoefficients, args.coeffs)
    return [lambda_k(coeffs, k) for k in range(1, coeffs.g + 1)]


def _cmd_resolvent_eval(args):
    from .gmp import GmpCoefficients
    from .resolvent import resolvent_pair

    if args.z is not None and args.imag is not None:
        raise ValueError("gmpmat resolvent eval: argument --imag: not allowed with argument --z")
    coeffs = _load(GmpCoefficients, args.coeffs)
    if args.grid is not None:
        xs = np.asarray(_parse_grid(args.grid))
        imag = 1.0 if args.imag is None else finite("imag", args.imag)
        rv = resolvent_pair(coeffs, xs + 1j * imag)
        cols = [xs, rv.r_plus.real, rv.r_plus.imag, rv.r_minus_inv.real, rv.r_minus_inv.imag]
        return np.column_stack(cols)
    rv = resolvent_pair(coeffs, _parse_complex(args.z))
    return {
        "r_plus": [rv.r_plus.real, rv.r_plus.imag],
        "r_minus_inv": [rv.r_minus_inv.real, rv.r_minus_inv.imag],
        "a0": rv.a0,
    }


def _cmd_resolvent_reflectionless(args):
    from .gmp import GmpCoefficients
    from .resolvent import reflectionless_check

    coeffs = _load(GmpCoefficients, args.coeffs)
    return {"defect": reflectionless_check(coeffs, args.x, args.eps)}


def _cmd_iso_project(args):
    from .discriminant import RationalDiscriminant
    from .isospectral import project_to_manifold

    delta = _load(RationalDiscriminant, args.delta)
    if args.init is not None:
        head = _parse_floats("init_head", args.init)
    elif args.seed < 0:
        raise DomainError("seed must be >= 0")
    else:
        head = np.random.default_rng(args.seed).normal(size=2 * delta.g)
    return vars(project_to_manifold(head, delta, tol=args.tol))


def _cmd_iso_trace(args):
    from .discriminant import RationalDiscriminant
    from .gmp import GmpCoefficients
    from .isospectral import manifold_residual, trace_torus

    delta = _load(RationalDiscriminant, args.delta)
    start = _load(GmpCoefficients, args.coeffs)
    points = trace_torus(start, delta, args.steps, args.step_len, args.tol)
    P = np.array([pt.p for pt in points])
    Q = np.array([pt.q for pt in points])
    defects = [np.max(np.abs(manifold_residual(pt, delta)), initial=0.0) for pt in points]
    return np.column_stack([np.arange(len(points)), P[:, :-1], Q[:, :-1], P[:, -1], Q[:, -1],
                            defects])


def _cmd_iso_verify(args):
    from .discriminant import RationalDiscriminant
    from .gmp import GmpCoefficients
    from .isospectral import forced_tail, manifold_residual

    delta = _load(RationalDiscriminant, args.delta)
    coeffs = _load(GmpCoefficients, args.coeffs)
    res = manifold_residual(coeffs, delta)
    p_g, q_g = forced_tail(delta, list(coeffs.p[:-1]) + list(coeffs.q[:-1]))
    tail_defect = max(abs(coeffs.p[-1] - p_g), abs(coeffs.q[-1] - q_g))
    return {
        "residual": res,
        "tail_defect": tail_defect,
        "on_manifold": tail_defect <= args.tol and max(map(abs, res), default=0.0) <= args.tol,
    }


def _cmd_magic_verify(args):
    from .discriminant import RationalDiscriminant
    from .gmp import GmpCoefficients
    from .isospectral import magic_verify

    defect = magic_verify(
        _load(GmpCoefficients, args.coeffs), _load(RationalDiscriminant, args.delta), args.periods
    )
    return {"defect": defect}


def _cmd_spectrum_eig(args):
    from .gmp import GmpCoefficients
    from .isospectral import spectrum_truncation

    coeffs = _load(GmpCoefficients, args.coeffs)
    return spectrum_truncation(coeffs, args.periods)[:, None]


def _cmd_ortho_build(args):
    from .ortho import DiscreteMeasure, RationalFamily, multiplication_matrix, structure_report

    if args.tol is not None and not args.report:
        raise ValueError("gmpmat ortho build: argument --tol: not allowed without --report")
    measure = DiscreteMeasure.from_csv(args.measure)
    fam = RationalFamily(args.family, _parse_floats("poles", args.poles))
    M = multiplication_matrix(measure, fam, args.n)
    if not args.report:
        return serialize.lower_triangle_csv(M)
    return structure_report(M, fam, tol=1e-8 if args.tol is None else args.tol)


def _cmd_jacobi_transfer(args):
    from .isospectral import _jacobi_product, jacobi_band_edges

    a, b = _parse_floats("a", args.a), _parse_floats("b", args.b)

    def trace(x):
        m11, _, _, m22 = _jacobi_product(a, b, x)
        return m11 + m22

    if args.grid is not None:
        return _grid(args.grid, trace)
    if args.bands:
        return jacobi_band_edges(a, b)
    return _complex(trace(_parse_complex(args.z)))


def _all_finite(result):
    """False if a float or array in a command's result holds NaN or an infinity.

    The Python types are tested first: a result without an array must not
    execute numpy here.
    """
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, (list, tuple)):
        return all(map(_all_finite, result))
    if result is None or isinstance(result, (bool, int, str)):
        return True
    return not isinstance(result, np.ndarray) or bool(np.isfinite(result).all())


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as exceptions: exit 1 with a JSON payload, not 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


# Options whose value may start with "-": argparse reads "--grid -3:3:5"
# as two options unless the value is joined with "=".
_SIGNED_VALUE_OPTIONS = (
    "--grid", "--z", "--x", "--init", "--poles", "--a", "--b", "--imag", "--step-len"
)


def _join_signed_values(argv):
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _command(parent, name, func, *required):
    """A leaf command with its required options and --out."""
    p = parent.add_parser(name)
    for option in required:
        p.add_argument(option, required=True)
    p.add_argument("--out")
    p.set_defaults(func=func)
    return p


def _add_points(sp):
    """--z and --grid in a group that takes exactly one of its options."""
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--z")
    group.add_argument("--grid")
    return group


def _delta(sub):
    _command(sub, "solve", _cmd_delta_solve, "--set")
    _add_points(_command(sub, "eval", _cmd_delta_eval, "--delta"))
    _command(sub, "bands", _cmd_delta_bands, "--delta")


def _ahlfors(sub):
    _command(sub, "eval", _cmd_ahlfors_eval, "--delta", "--z")


def _gmp(sub):
    p = _command(sub, "build", _cmd_gmp_build, "--coeffs")
    p.add_argument("--periods", type=int, default=60)
    p.add_argument("--tol", type=_tol, default=0.0)
    p = _command(sub, "check", _cmd_gmp_check, "--coeffs")
    p.add_argument("--periods", type=int, default=40, help="periods of the finite section; "
                   "the structural check exits 1 unless at least 2(g+1) rows lie "
                   "2(g+1)^2 or more rows from both ends")
    p.add_argument("--tol", type=_tol, default=1e-8)


def _transfer(sub):
    _add_points(_command(sub, "eval", _cmd_transfer_eval, "--coeffs"))
    _command(sub, "coeffs", _cmd_transfer_coeffs, "--coeffs")
    _command(sub, "lambdas", _cmd_transfer_lambdas, "--coeffs")


def _resolvent(sub):
    p = _command(sub, "eval", _cmd_resolvent_eval, "--coeffs")
    _add_points(p)
    p.add_argument("--imag", type=float, help="imaginary part of every --grid point "
                   "(default 1.0); not allowed with --z")
    p = _command(sub, "reflectionless", _cmd_resolvent_reflectionless, "--coeffs")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-6)


def _iso(sub):
    p = _command(sub, "project", _cmd_iso_project, "--delta")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--init")
    start.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tol, default=1e-10)
    p = _command(sub, "trace", _cmd_iso_trace, "--delta", "--coeffs")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--step-len", type=float, default=0.05)
    p.add_argument("--tol", type=_tol, default=1e-10)
    p = _command(sub, "verify", _cmd_iso_verify, "--delta", "--coeffs")
    p.add_argument("--tol", type=_tol, default=1e-8)


def _magic(sub):
    p = _command(sub, "verify", _cmd_magic_verify, "--delta", "--coeffs")
    p.add_argument("--periods", type=int, default=60)


def _spectrum(sub):
    p = _command(sub, "eig", _cmd_spectrum_eig, "--coeffs")
    p.add_argument("--periods", type=int, default=60)


def _ortho(sub):
    p = _command(sub, "build", _cmd_ortho_build, "--measure")
    p.add_argument("--family", choices=["monomial", "smp", "gmp"], required=True)
    p.add_argument("--poles", default="")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--report", action="store_true")
    p.add_argument("--tol", type=_tol, help="violation threshold of --report (default 1e-8)")


def _jacobi(sub):
    p = _command(sub, "transfer", _cmd_jacobi_transfer, "--a", "--b")
    _add_points(p).add_argument("--bands", action="store_true")


# each command group and the function that adds its commands, in help order
_GROUPS = {"delta": _delta, "ahlfors": _ahlfors, "gmp": _gmp, "transfer": _transfer,
           "resolvent": _resolvent, "iso": _iso, "magic": _magic, "spectrum": _spectrum,
           "ortho": _ortho, "jacobi": _jacobi}


def _parser(groups):
    """The parser of gmpmat with only the named command groups."""
    parser = _Parser(prog="gmpmat")
    sub = parser.add_subparsers(dest="group", required=True)
    for name in groups:
        _GROUPS[name](sub.add_parser(name).add_subparsers(dest="action", required=True))
    return parser


def build_parser():
    return _parser(_GROUPS)


def _report(payload):
    print(serialize.dumps(payload), end="", file=sys.stderr)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a call names its group first; any other argv gets the whole tree,
        # so help and usage errors read as they always have
        parser = _parser(argv[:1]) if argv[:1] and argv[0] in _GROUPS else build_parser()
        args = parser.parse_args(_join_signed_values(argv))
        with warnings.catch_warnings(record=True) as caught:
            warnings.filterwarnings("ignore", _FP_WARNINGS, RuntimeWarning)
            result = args.func(args)
        if not _all_finite(result):
            raise OverflowError  # reported below
        if isinstance(result, (dict, list)):
            result = serialize.dumps(result)
        elif not isinstance(result, str):
            result = serialize.rows_csv(result)
        serialize.write_text(args.out, result)
        for w in caught:  # after the output, one JSON line each
            _report({"warning": str(w.message)})
    except ConvergenceError as exc:
        payload = {"error": str(exc)}
        if exc.residual is not None:
            payload["residual"] = float(exc.residual)
        _report(payload)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        # DomainError, JSON decode and usage errors all derive from ValueError
        _report({"error": str(exc)})
        return 1
    except (OverflowError, ZeroDivisionError):
        # Python float arithmetic raises these where numpy gives inf or NaN
        _report({"error": "the result overflows float64 (it holds NaN or infinity): "
                          "the input is out of range"})
        return 1
    except MemoryError as exc:
        _report({"error": f"out of memory: {exc}" if str(exc) else "out of memory"})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
