"""Finite gap sets and their rational discriminants.

A finite gap set is an outer interval [b0, a0] with g open gaps removed.
Each such set has a unique rational function Delta with

    Delta(z) = lambda0*z + c0 + sum_k lambda_k / (c_k - z),

all lambda_k > 0 and one pole c_k inside each gap, such that the preimage
of [-2, 2] is exactly the set.  This module solves for Delta and inverts
it back to bands, both in closed form (no iteration but the pole
bisection), and evaluates the associated unimodular-bounded function by
Joukowski inversion.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


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


def solve_discriminant(E):
    """Solve for the unique rational discriminant of a finite gap set.

    With P_A, P_B the monic polynomials vanishing on A = {gap starts, a0}
    (Delta = 2) and B = {b0, gap ends} (Delta = -2), the closed form is
    Delta = 2 (P_A + P_B) / (P_B - P_A).  So lambda0 = 4 / (sum A - sum B);
    pole c_k is the one root of P_A = P_B in gap k, found for all k in one
    lane-wise bisection run to two float spacings of the gap's edges;
    lambda_k = 4 / (sum_a 1/(c_k - a) - sum_b 1/(c_k - b)); and c0 follows
    from Delta(b0) = -2.  Raises DomainError for a gap too narrow to hold
    a pole strictly inside it.
    """
    gap_a, gap_b = np.array(E.gaps).reshape(-1, 2).T
    A = np.append(gap_a, E.a0)
    B = np.append(gap_b, E.b0)
    lambda0 = 4.0 / (np.sum(A) - np.sum(B))

    def log_ratio(x):  # log|P_A(x) / P_B(x)|: no product is formed, none overflows
        with np.errstate(divide="ignore"):  # a frozen lane may sit on an edge
            return np.sum(np.log(np.abs((x[:, None] - A) / (x[:, None] - B))), axis=1)

    width = 2.0 * np.spacing(np.maximum(np.abs(gap_a), np.abs(gap_b)))
    cs = _bisect(log_ratio, gap_a, gap_b, width)
    if not np.all((gap_a < cs) & (cs < gap_b)):
        raise DomainError("a gap is too narrow to hold a pole")
    lams = 4.0 / (np.sum(1.0 / (cs[:, None] - A), axis=1)
                  - np.sum(1.0 / (cs[:, None] - B), axis=1))
    c0 = -2.0 - lambda0 * E.b0 - np.sum(lams / (cs - E.b0))
    return RationalDiscriminant(lambda0, c0, tuple(zip(lams, cs)))


def bands(delta):
    """Invert Delta: return the finite gap set with Delta^{-1}([-2,2]) = E.

    The g+1 roots of Delta(x) = t are the eigenvalues of the arrowhead
    matrix [[(t - c0)/lambda0, w^T], [w, diag(c)]], w_k = sqrt(lambda_k/lambda0),
    whose characteristic polynomial is the secular equation Delta(x) = t.
    By interlacing, the i-th sorted root of each level lies between poles
    i-1 and i, so the -2 and +2 roots pair index-wise into bands.
    """
    order = np.argsort(delta.poles)
    lams, cs = np.array(delta.terms).reshape(-1, 2)[order].T
    x_minus = _level_roots(delta, lams, cs, -2.0)
    x_plus = _level_roots(delta, lams, cs, 2.0)
    return FiniteGapSet(x_minus[0], x_plus[-1], tuple(zip(x_plus[:-1], x_minus[1:])))


def _level_roots(delta, lams, cs, t):
    """Sorted roots of Delta(x) = t: arrowhead eigenvalues plus one Newton
    step, kept where it stays between the root's neighbouring poles (or
    +/-inf) and skipped for an eigenvalue equal to a pole."""
    M = np.diag(np.append((t - delta.c0) / delta.lambda0, cs))
    M[0, 1:] = M[1:, 0] = np.sqrt(lams / delta.lambda0)
    x = np.linalg.eigvalsh(M)
    free = ~np.isin(x, cs)
    y = x[free]
    newton = y - (eval_discriminant(delta, y) - t) / eval_discriminant_deriv(delta, y)
    lo = np.append(-np.inf, cs)[free]
    hi = np.append(cs, np.inf)[free]
    x[free] = np.where((lo < newton) & (newton < hi), newton, y)
    return x


def _bisect(f, lo, hi, tol):
    """Roots of f, one per bracket [lo[i], hi[i]] on which f changes sign
    once, from negative to positive.

    ``tol`` is one width for all lanes or one per lane.  A lane stops once
    its bracket is no wider than its tol or its midpoint equals an end;
    stopped lanes stay frozen while the others go on.
    """
    while True:
        mid = 0.5 * (lo + hi)
        run = (hi - lo > tol) & (mid != lo) & (mid != hi)
        if not run.any():
            return mid
        below = f(mid) < 0.0
        lo = np.where(run & below, mid, lo)
        hi = np.where(run & ~below, mid, hi)


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
