"""Finite gap sets and their rational discriminants.

A finite gap set is an outer interval [b0, a0] with g open gaps removed.
Each such set has a unique rational function Delta with

    Delta(z) = lambda0*z + c0 + sum_k lambda_k / (c_k - z),

all lambda_k > 0 and one pole c_k inside each gap, such that the preimage
of [-2, 2] is exactly the set.  This module solves for Delta, inverts it
back to bands, and evaluates the associated unimodular-bounded function
by Joukowski inversion.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError


@dataclass(frozen=True)
class FiniteGapSet:
    """Union of g+1 closed intervals: [b0, a0] minus g open gaps.

    Gaps are ordered, pairwise disjoint and strictly inside (b0, a0).
    """

    b0: float
    a0: float
    gaps: tuple = ()

    def __post_init__(self):
        gaps = tuple((float(a), float(b)) for a, b in self.gaps)
        object.__setattr__(self, "b0", float(self.b0))
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "gaps", gaps)
        if not self.b0 < self.a0:
            raise DomainError(f"need b0 < a0, got [{self.b0}, {self.a0}]")
        prev = self.b0
        for a, b in gaps:
            if not a < b:
                raise DomainError(f"gap ({a}, {b}) is empty or reversed")
            if not prev < a:
                raise DomainError(f"gap ({a}, {b}) overlaps or is out of order")
            prev = b
        if gaps and not prev < self.a0:
            raise DomainError("last gap reaches outside the outer interval")

    @property
    def g(self):
        return len(self.gaps)

    @property
    def bands(self):
        """The g+1 closed bands as (lo, hi) pairs, left to right."""
        los = [self.b0] + [b for _, b in self.gaps]
        his = [a for a, _ in self.gaps] + [self.a0]
        return list(zip(los, his))

    @property
    def edges(self):
        """All 2g+2 band edges with their target values: Delta(a)=2, Delta(b)=-2."""
        pts = [(self.b0, -2.0), (self.a0, 2.0)]
        for a, b in self.gaps:
            pts.append((a, 2.0))
            pts.append((b, -2.0))
        return pts

    def to_dict(self):
        return {"b0": self.b0, "a0": self.a0, "gaps": [list(gp) for gp in self.gaps]}

    @classmethod
    def from_dict(cls, d):
        return cls(d["b0"], d["a0"], tuple(tuple(gp) for gp in d.get("gaps", [])))


@dataclass(frozen=True)
class RationalDiscriminant:
    """lambda0*z + c0 + sum_k lambda_k / (c_k - z) with all lambda_k > 0."""

    lambda0: float
    c0: float
    terms: tuple = ()

    def __post_init__(self):
        terms = tuple((float(lam), float(c)) for lam, c in self.terms)
        object.__setattr__(self, "lambda0", float(self.lambda0))
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "terms", terms)
        if self.lambda0 <= 0:
            raise DomainError("lambda0 must be positive")
        for lam, _ in terms:
            if lam <= 0:
                raise DomainError("all residue weights lambda_k must be positive")
        poles = [c for _, c in terms]
        if len(set(poles)) != len(poles):
            raise DomainError("poles must be distinct")

    @property
    def g(self):
        return len(self.terms)

    @property
    def poles(self):
        return tuple(c for _, c in self.terms)

    def __call__(self, z):
        return eval_discriminant(self, z)

    def to_dict(self):
        return {
            "lambda0": self.lambda0,
            "c0": self.c0,
            "terms": [list(t) for t in self.terms],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["lambda0"], d["c0"], tuple(tuple(t) for t in d.get("terms", [])))


def eval_discriminant(delta, z):
    """Evaluate Delta at a real or complex z (not a pole); z may be an ndarray."""
    array = isinstance(z, np.ndarray)
    for _, c in delta.terms:
        if (z == c).any() if array else z == c:
            raise DomainError(f"evaluation at pole c = {c}")
    val = delta.lambda0 * z + delta.c0
    for lam, c in delta.terms:
        val = val + lam / (c - z)
    return val


def eval_discriminant_deriv(delta, x):
    """Delta'(x); positive on the real line away from the poles."""
    d = delta.lambda0
    for lam, c in delta.terms:
        d = d + lam / (c - x) ** 2
    return d


def _edge_residual(params, xs, ts, g):
    lam0, c0 = params[0], params[1]
    lams = params[2 : 2 + g]
    cs = params[2 + g :]
    return lam0 * xs + c0 + np.sum(lams / (cs - xs[:, None]), axis=1) - ts


def _edge_jacobian(params, xs, g):
    lams = params[2 : 2 + g]
    d = params[2 + g :] - xs[:, None]
    J = np.empty((len(xs), 2 + 2 * g))
    J[:, 0] = xs
    J[:, 1] = 1.0
    J[:, 2 : 2 + g] = 1.0 / d
    J[:, 2 + g :] = -lams / d**2
    return J


def _admissible_bounds(E):
    """Open bounds on params: lambda0 > 0, lambda_k > 0, each pole inside its gap."""
    g = E.g
    gap_a, gap_b = np.array(E.gaps).reshape(-1, 2).T
    lower = np.concatenate([[0.0, -np.inf], np.zeros(g), gap_a])
    upper = np.concatenate([np.full(2 + g, np.inf), gap_b])
    return lower, upper


def solve_discriminant(E, tol=1e-12, max_iter=100):
    """Solve for the unique rational discriminant of a finite gap set.

    Poles start at gap midpoints; the linear parameters (lambda0, c0,
    lambda_k) are initialized by least squares on the 2g+2 edge equations
    Delta(a_j) = 2, Delta(b_j) = -2, and a damped Newton iteration then
    refines all 2g+2 unknowns.

    Raises ConvergenceError (carrying the last residual) if the edge
    residual does not drop below ``tol`` within ``max_iter`` iterations.
    """
    g = E.g
    xs, ts = np.array(E.edges).reshape(-1, 2).T
    lower, upper = _admissible_bounds(E)

    cs = np.array([(a + b) / 2.0 for a, b in E.gaps])
    # Delta is linear in (lambda0, c0, lambda_k) for fixed poles.
    design = np.column_stack([xs, np.ones_like(xs), 1.0 / (cs - xs[:, None])])
    lin, *_ = np.linalg.lstsq(design, ts, rcond=None)

    params = np.concatenate([lin, cs])
    params[2 : 2 + g] = np.maximum(params[2 : 2 + g], 1e-12)
    if params[0] <= 0:
        params[0] = 1.0

    res = _edge_residual(params, xs, ts, g)
    rnorm = np.max(np.abs(res))
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        J = _edge_jacobian(params, xs, g)
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        scale = 1.0
        for _ in range(40):
            trial = params + scale * step
            if np.all((lower < trial) & (trial < upper)):
                tres = _edge_residual(trial, xs, ts, g)
                tnorm = np.max(np.abs(tres))
                if tnorm < rnorm or tnorm <= tol:
                    params, res, rnorm = trial, tres, tnorm
                    break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"Newton stalled at residual {rnorm:.3e}", residual=rnorm
            )
    else:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations, residual {rnorm:.3e}",
            residual=rnorm,
        )
    return RationalDiscriminant(
        params[0], params[1], tuple(zip(params[2 : 2 + g], params[2 + g :]))
    )


def bands(delta, tol=1e-12):
    """Invert Delta: return the finite gap set with Delta^{-1}([-2,2]) = E.

    On each maximal interval between consecutive poles (and the two
    unbounded ends) Delta increases from -inf to +inf, so each carries
    exactly one solution of Delta = -2 and one of Delta = 2.  All -2
    roots are found in one lane-wise bisection, then all +2 roots, each
    bracketed by its -2 root and the end of its interval.
    """
    g = delta.g
    order = np.argsort(delta.poles)
    cs = np.array(delta.poles)[order]
    segments = []
    if g == 0:
        lo = -1.0
        while eval_discriminant(delta, lo) > -2.0:
            lo = 2.0 * lo - 1.0
        hi = 1.0
        while eval_discriminant(delta, hi) < 2.0:
            hi = 2.0 * hi + 1.0
        segments.append((lo, hi))
    else:
        span = max(1.0, cs[-1] - cs[0])
        lo = cs[0] - span
        while eval_discriminant(delta, lo) > -2.0:
            lo -= span
            span *= 2.0
        hi_end = cs[-1] + max(1.0, cs[-1] - cs[0])
        span = max(1.0, cs[-1] - cs[0])
        while eval_discriminant(delta, hi_end) < 2.0:
            hi_end += span
            span *= 2.0
        segments.append((lo, _shrink_to_pole(delta, cs[0], -1)))
        for k in range(g - 1):
            segments.append(
                (_shrink_to_pole(delta, cs[k], +1), _shrink_to_pole(delta, cs[k + 1], -1))
            )
        segments.append((_shrink_to_pole(delta, cs[-1], +1), hi_end))

    lo, hi = np.array(segments).T
    f = lambda x: eval_discriminant(delta, x)
    x_minus = _bisect(lambda x: f(x) + 2.0, lo, hi, tol)
    x_plus = _bisect(lambda x: f(x) - 2.0, x_minus, hi, tol)
    gaps = tuple(zip(x_plus[:-1], x_minus[1:]))
    return FiniteGapSet(x_minus[0], x_plus[-1], gaps)


def _bisect(f, lo, hi, tol):
    """Roots of a monotone increasing f, one per bracket [lo[i], hi[i]].

    A lane stops once its bracket is no wider than tol or its midpoint
    equals an end; stopped lanes stay frozen while the others go on.
    """
    while True:
        mid = 0.5 * (lo + hi)
        run = (hi - lo > tol) & (mid != lo) & (mid != hi)
        if not run.any():
            return mid
        below = f(mid) < 0.0
        lo = np.where(run & below, mid, lo)
        hi = np.where(run & ~below, mid, hi)


def _shrink_to_pole(delta, c, side):
    """Point near pole c (side=-1: left, +1: right) where |Delta| > 2."""
    target = 2.0 if side < 0 else -2.0
    eps = 1e-3 * (1.0 + abs(c))
    for _ in range(200):
        x = c + side * eps
        val = eval_discriminant(delta, x)
        if (side < 0 and val > target) or (side > 0 and val < target):
            return x
        eps *= 0.5
    raise ConvergenceError(f"could not bracket band edge near pole {c}")


def ahlfors_eval(delta, z, boundary_tol=1e-8):
    """Small Joukowski root: Psi with Psi + 1/Psi = Delta(z), |Psi| < 1.

    Psi vanishes exactly at the poles of Delta and at infinity.  On the
    band set both roots are unimodular and no branch is selected; this is
    reported as a DomainError.
    """
    for _, c in delta.terms:
        if z == c:
            return 0.0 + 0.0j
    d = complex(eval_discriminant(delta, z))
    s = np.sqrt(d * d - 4.0 + 0.0j)
    w1 = (d - s) / 2.0
    w2 = (d + s) / 2.0
    m1, m2 = abs(w1), abs(w2)
    if abs(m1 - 1.0) < boundary_tol and abs(m2 - 1.0) < boundary_tol:
        raise DomainError("z lies on the band set: both roots unimodular")
    return w1 if m1 < m2 else w2
