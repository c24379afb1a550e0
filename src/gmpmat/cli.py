"""Command-line front end.

Thin adapters over the library modules with deterministic, file-based
I/O: JSON for structured data, CSV for matrices, traces and grids.
Exit codes: 0 success, 1 domain/input/usage error, 2 convergence failure.
A grid that hits a pole is a domain error: no partial output is written.
"""

import argparse
import sys

import numpy as np

from . import _kernels, isospectral, ortho, resolvent, serialize
from .transfer import discriminant_coeffs, lambda_k, transfer as eval_transfer
from .discriminant import (
    FiniteGapSet,
    RationalDiscriminant,
    ahlfors_eval,
    bands,
    eval_discriminant,
    solve_discriminant,
)
from .errors import ConvergenceError, DomainError
from .gmp import assemble, check_shifted_inverse_structure, GmpCoefficients, lambda_positivity_test


def _parse_complex(text):
    """'re' or 're,im' -> complex."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise DomainError(f"cannot parse point {text!r}")


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2 or not lo < hi:
        raise DomainError("grid needs lo < hi and count >= 2")
    return np.linspace(lo, hi, count)


def _load_set(path):
    return FiniteGapSet.from_dict(serialize.load_json(path))


def _load_delta(path):
    return RationalDiscriminant.from_dict(serialize.load_json(path))


def _load_coeffs(path):
    return GmpCoefficients.from_dict(serialize.load_json(path))


def _cmd_delta_solve(args):
    delta = solve_discriminant(_load_set(args.set))
    serialize.write_text(args.out, serialize.dumps(delta.to_dict()))


def _cmd_delta_eval(args):
    delta = _load_delta(args.delta)
    if args.grid is not None:
        xs = _parse_grid(args.grid)
        vals = eval_discriminant(delta, xs)
        serialize.write_text(args.out, serialize.rows_csv(np.column_stack([xs, vals])))
    else:
        val = complex(eval_discriminant(delta, _parse_complex(args.z)))
        serialize.write_text(args.out, serialize.dumps({"re": val.real, "im": val.imag}))


def _cmd_delta_bands(args):
    E = bands(_load_delta(args.delta))
    serialize.write_text(args.out, serialize.dumps(E.to_dict()))


def _cmd_ahlfors_eval(args):
    val = ahlfors_eval(_load_delta(args.delta), _parse_complex(args.z))
    serialize.write_text(args.out, serialize.dumps({"re": val.real, "im": val.imag}))


def _cmd_gmp_build(args):
    op = assemble(_load_coeffs(args.coeffs), args.periods)
    serialize.write_text(args.out, serialize.lower_triangle_csv(op.to_dense(), tol=args.tol))


def _cmd_gmp_check(args):
    coeffs = _load_coeffs(args.coeffs)
    is_gmp, lambdas = lambda_positivity_test(coeffs)
    structural = [
        check_shifted_inverse_structure(coeffs, k, args.periods, args.tol)
        for k in range(1, coeffs.g + 1)
    ]
    serialize.write_text(
        args.out,
        serialize.dumps(
            {
                "is_gmp": is_gmp,
                "lambdas": list(lambdas),
                "structural_ok": all(structural),
            }
        ),
    )


def _cmd_transfer_eval(args):
    coeffs = _load_coeffs(args.coeffs)
    if args.grid is not None:
        xs = _parse_grid(args.grid)
        vals = _kernels.discriminant_grid(coeffs, xs)
        serialize.write_text(args.out, serialize.rows_csv(np.column_stack([xs, vals.real])))
    else:
        M = eval_transfer(coeffs, _parse_complex(args.z))
        out = {
            "m11": [M[0, 0].real, M[0, 0].imag],
            "m12": [M[0, 1].real, M[0, 1].imag],
            "m21": [M[1, 0].real, M[1, 0].imag],
            "m22": [M[1, 1].real, M[1, 1].imag],
        }
        serialize.write_text(args.out, serialize.dumps(out))


def _cmd_transfer_coeffs(args):
    dc = discriminant_coeffs(_load_coeffs(args.coeffs))
    serialize.write_text(args.out, serialize.dumps(dc.to_dict()))


def _cmd_transfer_lambdas(args):
    coeffs = _load_coeffs(args.coeffs)
    vals = [lambda_k(coeffs, k) for k in range(1, coeffs.g + 1)]
    serialize.write_text(args.out, serialize.dumps(vals))


def _cmd_resolvent_eval(args):
    coeffs = _load_coeffs(args.coeffs)
    if args.grid is not None:
        xs = _parse_grid(args.grid)
        rv = resolvent.resolvent_pair(coeffs, xs + 1j * args.imag)
        cols = [xs, rv.r_plus.real, rv.r_plus.imag, rv.r_minus_inv.real, rv.r_minus_inv.imag]
        serialize.write_text(args.out, serialize.rows_csv(np.column_stack(cols)))
    else:
        rv = resolvent.resolvent_pair(coeffs, _parse_complex(args.z))
        serialize.write_text(
            args.out,
            serialize.dumps(
                {
                    "r_plus": [rv.r_plus.real, rv.r_plus.imag],
                    "r_minus_inv": [rv.r_minus_inv.real, rv.r_minus_inv.imag],
                    "a0": rv.a0,
                }
            ),
        )


def _cmd_resolvent_reflectionless(args):
    defect = resolvent.reflectionless_check(_load_coeffs(args.coeffs), args.x, args.eps)
    serialize.write_text(args.out, serialize.dumps({"defect": defect}))


def _cmd_iso_project(args):
    delta = _load_delta(args.delta)
    if args.init is not None:
        head = [float(v) for v in args.init.split(",")] if args.init else []
    else:
        rng = np.random.default_rng(args.seed)
        head = rng.normal(size=2 * delta.g)
    coeffs = isospectral.project_to_manifold(head, delta, tol=args.tol)
    serialize.write_text(args.out, serialize.dumps(coeffs.to_dict()))


def _cmd_iso_trace(args):
    delta = _load_delta(args.delta)
    start = _load_coeffs(args.coeffs)
    points = isospectral.trace_torus(start, delta, args.steps, args.step_len)
    P = np.array([pt.p for pt in points])
    Q = np.array([pt.q for pt in points])
    defects = [
        np.max(np.abs(isospectral.manifold_residual(pt, delta))) if delta.g else 0.0
        for pt in points
    ]
    cols = [np.arange(len(points)), P[:, :-1], Q[:, :-1], P[:, -1], Q[:, -1], defects]
    serialize.write_text(args.out, serialize.rows_csv(np.column_stack(cols)))


def _cmd_iso_verify(args):
    delta = _load_delta(args.delta)
    coeffs = _load_coeffs(args.coeffs)
    res = isospectral.manifold_residual(coeffs, delta)
    p_g, q_g = isospectral.forced_tail(
        delta, list(coeffs.p[:-1]) + list(coeffs.q[:-1])
    )
    tail_defect = max(abs(coeffs.p[-1] - p_g), abs(coeffs.q[-1] - q_g))
    serialize.write_text(
        args.out,
        serialize.dumps(
            {
                "residual": list(res),
                "tail_defect": tail_defect,
                "on_manifold": bool(
                    tail_defect <= args.tol
                    and (res.size == 0 or np.max(np.abs(res)) <= args.tol)
                ),
            }
        ),
    )


def _cmd_magic_verify(args):
    defect = isospectral.magic_verify(
        _load_coeffs(args.coeffs), _load_delta(args.delta), args.periods
    )
    serialize.write_text(args.out, serialize.dumps({"defect": defect}))


def _cmd_spectrum_eig(args):
    eigs = isospectral.spectrum_truncation(_load_coeffs(args.coeffs), args.periods)
    serialize.write_text(args.out, serialize.rows_csv(eigs[:, None]))


def _cmd_ortho_build(args):
    measure = ortho.DiscreteMeasure.from_csv(args.measure)
    poles = tuple(float(v) for v in args.poles.split(",")) if args.poles else ()
    fam = ortho.RationalFamily(args.family, poles, orientation=args.orientation)
    M = ortho.multiplication_matrix(measure, fam, args.n)
    if args.report:
        rep = ortho.structure_report(M, fam, tol=args.tol)
        rep["violations"] = [list(v) for v in rep["violations"]]
        serialize.write_text(args.out, serialize.dumps(rep))
    else:
        serialize.write_text(args.out, serialize.lower_triangle_csv(M))


def _cmd_jacobi_transfer(args):
    a = [float(v) for v in args.a.split(",")]
    b = [float(v) for v in args.b.split(",")]
    if args.grid is not None:
        xs = _parse_grid(args.grid)
        t, _ = isospectral.jacobi_transfer(a, b, xs)
        serialize.write_text(args.out, serialize.rows_csv(np.column_stack([xs, t])))
    elif args.bands:
        edges = isospectral.jacobi_band_edges(a, b)
        serialize.write_text(args.out, serialize.dumps(edges))
    else:
        t, _ = isospectral.jacobi_transfer(a, b, _parse_complex(args.z))
        t = complex(t)
        serialize.write_text(args.out, serialize.dumps({"re": t.real, "im": t.imag}))


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


def _add_common(sp, tol=1e-10):
    # every subcommand takes --tol; delta solve, delta bands and
    # jacobi transfer --bands accept and ignore it: they have no iteration
    sp.add_argument("--tol", type=float, default=tol)
    sp.add_argument("--out", default=None)


def build_parser():
    parser = _Parser(prog="gmpmat")
    sub = parser.add_subparsers(dest="group", required=True)

    delta = sub.add_parser("delta").add_subparsers(dest="action", required=True)
    p = delta.add_parser("solve")
    p.add_argument("--set", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_delta_solve)
    p = delta.add_parser("eval")
    p.add_argument("--delta", required=True)
    p.add_argument("--z")
    p.add_argument("--grid")
    _add_common(p)
    p.set_defaults(func=_cmd_delta_eval)
    p = delta.add_parser("bands")
    p.add_argument("--delta", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_delta_bands)

    ahl = sub.add_parser("ahlfors").add_subparsers(dest="action", required=True)
    p = ahl.add_parser("eval")
    p.add_argument("--delta", required=True)
    p.add_argument("--z", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_ahlfors_eval)

    gmp = sub.add_parser("gmp").add_subparsers(dest="action", required=True)
    p = gmp.add_parser("build")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--periods", type=int, default=60)
    _add_common(p, tol=0.0)
    p.set_defaults(func=_cmd_gmp_build)
    p = gmp.add_parser("check")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--periods", type=int, default=40, help="periods of the finite section; "
                   "the structural check exits 1 unless at least 2(g+1) rows lie "
                   "2(g+1)^2 or more rows from both ends")
    _add_common(p, tol=1e-8)
    p.set_defaults(func=_cmd_gmp_check)

    tr = sub.add_parser("transfer").add_subparsers(dest="action", required=True)
    p = tr.add_parser("eval")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--z")
    p.add_argument("--grid")
    _add_common(p)
    p.set_defaults(func=_cmd_transfer_eval)
    p = tr.add_parser("coeffs")
    p.add_argument("--coeffs", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_transfer_coeffs)
    p = tr.add_parser("lambdas")
    p.add_argument("--coeffs", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_transfer_lambdas)

    res = sub.add_parser("resolvent").add_subparsers(dest="action", required=True)
    p = res.add_parser("eval")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--z")
    p.add_argument("--grid")
    p.add_argument("--imag", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_resolvent_eval)
    p = res.add_parser("reflectionless")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=_cmd_resolvent_reflectionless)

    iso = sub.add_parser("iso").add_subparsers(dest="action", required=True)
    p = iso.add_parser("project")
    p.add_argument("--delta", required=True)
    p.add_argument("--init")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_iso_project)
    p = iso.add_parser("trace")
    p.add_argument("--delta", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--step-len", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=_cmd_iso_trace)
    p = iso.add_parser("verify")
    p.add_argument("--delta", required=True)
    p.add_argument("--coeffs", required=True)
    _add_common(p, tol=1e-8)
    p.set_defaults(func=_cmd_iso_verify)

    magic = sub.add_parser("magic").add_subparsers(dest="action", required=True)
    p = magic.add_parser("verify")
    p.add_argument("--delta", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--periods", type=int, default=60)
    _add_common(p)
    p.set_defaults(func=_cmd_magic_verify)

    spec = sub.add_parser("spectrum").add_subparsers(dest="action", required=True)
    p = spec.add_parser("eig")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--periods", type=int, default=60)
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum_eig)

    ob = sub.add_parser("ortho").add_subparsers(dest="action", required=True)
    p = ob.add_parser("build")
    p.add_argument("--measure", required=True)
    p.add_argument("--family", choices=["monomial", "smp", "gmp"], required=True)
    p.add_argument("--poles", default="")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--report", action="store_true")
    p.add_argument("--orientation", choices=["paper", "reversed"], default="paper")
    _add_common(p, tol=1e-8)
    p.set_defaults(func=_cmd_ortho_build)

    jac = sub.add_parser("jacobi").add_subparsers(dest="action", required=True)
    p = jac.add_parser("transfer")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--z")
    p.add_argument("--grid")
    p.add_argument("--bands", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_jacobi_transfer)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_join_signed_values(argv))
        args.func(args)
    except ConvergenceError as exc:
        payload = {"error": str(exc)}
        if exc.residual is not None:
            payload["residual"] = float(exc.residual)
        print(serialize.dumps(payload), end="", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        # DomainError, JSON decode and usage errors all derive from ValueError
        print(serialize.dumps({"error": str(exc)}), end="", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
