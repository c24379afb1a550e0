"""Finite gap sets and their rational discriminants.

A finite gap set is an outer interval [b0, a0] with g open gaps removed.
Each such set has a unique rational function Delta with

    Delta(z) = lambda0*z + c0 + sum_k lambda_k / (c_k - z),

all lambda_k > 0 and one pole c_k inside each gap, such that the preimage
of [-2, 2] is exactly the set.  This module solves for Delta and inverts
it back to bands, each way as symmetric eigenvalue problems plus one
guarded Newton step (no iteration), and evaluates the associated
unimodular-bounded function by Joukowski inversion.
"""

import math

from ._kernels import _sqrt
from ._lazy import np
from .errors import DomainError, _Record, finite, number, numbers, sequence


class FiniteGapSet(_Record):
    """Union of g+1 closed intervals: [b0, a0] minus g open gaps.

    Gaps are ordered, pairwise disjoint and strictly inside (b0, a0).
    """

    b0: float
    a0: float
    gaps: tuple = ()

    def __post_init__(self):
        gaps = tuple((finite("gaps", a), finite("gaps", b)) for a, b in self.gaps)
        object.__setattr__(self, "b0", finite("b0", self.b0))
        object.__setattr__(self, "a0", finite("a0", self.a0))
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

    @classmethod
    def from_dict(cls, d):
        gaps = tuple(numbers("gaps", sequence("each gap", gp, 2))
                     for gp in sequence("gaps", d.get("gaps", [])))
        return cls(number("b0", d["b0"]), number("a0", d["a0"]), gaps)


class RationalDiscriminant(_Record):
    """lambda0*z + c0 + sum_k lambda_k / (c_k - z) with all lambda_k > 0."""

    lambda0: float
    c0: float
    terms: tuple = ()

    def __post_init__(self):
        terms = tuple((finite("terms", lam), finite("terms", c)) for lam, c in self.terms)
        object.__setattr__(self, "lambda0", finite("lambda0", self.lambda0))
        object.__setattr__(self, "c0", finite("c0", self.c0))
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

    @classmethod
    def from_dict(cls, d):
        terms = tuple(numbers("terms", sequence("each term", t, 2))
                      for t in sequence("terms", d.get("terms", [])))
        return cls(number("lambda0", d["lambda0"]), number("c0", d["c0"]), terms)


def eval_discriminant(delta, z):
    """Evaluate Delta at a real or complex z (not a pole); z may be an ndarray.

    A scalar z is evaluated in Python arithmetic, without numpy.
    """
    array = not isinstance(z, (int, float, complex))
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
    with np.errstate(over="ignore"):  # a term whose (c - x)^2 overflows has the value 0
        for lam, c in delta.terms:
            d = d + lam / (c - x) ** 2
    return d


def solve_discriminant(E):
    """Solve for the unique rational discriminant of a finite gap set.

    With P_A, P_B the monic polynomials vanishing on A = {gap starts, a0}
    (Delta = 2) and B = {b0, gap ends} (Delta = -2), the closed form is
    Delta = 2 (P_A + P_B) / (P_B - P_A).  So lambda0 = 4 / (sum A - sum B),
    and the poles c_k are the g roots of the secular equation
    P_A/P_B = 1 + sum_i r_i/(x - B_i) = 1, whose weights r_i all have one
    sign: the eigenvalues of diag(B) compressed to the complement of
    u = sqrt|r| (Golub 1973), clamped into the open gaps and refined by
    one Newton step on log|P_A/P_B| kept where it stays inside its gap.
    Then lambda_k = 4 / (sum_a 1/(c_k - a) - sum_b 1/(c_k - b)), and c0
    follows from Delta(b0) = -2.  All of this is done for E - m, with the
    exact shift m of ``_exact_shift``, so the digits do not depend on
    where E lies.  Raises DomainError for a gap with no float strictly
    inside it.
    """
    gap_a, gap_b = np.array(E.gaps).reshape(-1, 2).T
    lo, hi = np.nextafter(gap_a, np.inf), np.nextafter(gap_b, -np.inf)
    if not np.all(lo <= hi):
        raise DomainError("a gap is too narrow to hold a pole")
    m = _exact_shift(E.b0, E.a0)
    A = np.append(gap_a, E.a0) - m
    B = np.append(gap_b, E.b0) - m
    lambda0 = 4.0 / (np.sum(A) - np.sum(B))

    # log|r_i| = sum_j log|B_i - A_j| - sum_{j != i} log|B_i - B_j|: no product is formed
    BB = B[:, None] - B
    np.fill_diagonal(BB, 1.0)
    log_r = np.sum(np.log(np.abs((B[:, None] - A) / BB)), axis=1)
    u = np.exp(0.5 * (log_r - np.max(log_r)))
    Q = np.linalg.qr(u[:, None], mode="complete")[0][:, 1:]

    def log_ratio(x):  # log|P_A/P_B| and its derivative
        dA, dB = x[:, None] - A, x[:, None] - B
        return (np.sum(np.log(np.abs(dA / dB)), axis=1),
                np.sum(1.0 / dA, axis=1) - np.sum(1.0 / dB, axis=1))

    x = _refine(np.linalg.eigvalsh(Q.T @ (B[:, None] * Q)), A[:-1], B[:-1], log_ratio)

    lams = 4.0 / (np.sum(1.0 / (x[:, None] - A), axis=1)
                  - np.sum(1.0 / (x[:, None] - B), axis=1))
    c0 = -2.0 - lambda0 * B[-1] - np.sum(lams / (x - B[-1]))
    cs = np.clip(x + m, lo, hi)  # a pole within half a spacing of an edge stays inside
    return RationalDiscriminant(lambda0, c0 - lambda0 * m, tuple(zip(lams, cs)))


def _exact_shift(b0, a0):
    """Shift m with x - m exact for every float x in [b0, a0], or 0.

    m is the centre of [b0, a0] rounded to a multiple of
    s = 2^floor(log2(a0 - b0)), kept only where m/2 <= x <= 2m holds at
    both ends (Sterbenz's lemma); a set within a few widths of 0 gets 0.
    """
    s = math.ldexp(1.0, math.frexp(a0 - b0)[1] - 1)
    m = round((b0 + a0) / 2.0 / s) * s
    lo, hi = (b0, a0) if m > 0 else (-a0, -b0)
    return m if abs(m) <= 2.0 * lo and hi <= 2.0 * abs(m) else 0.0


def _refine(x, lo, hi, f_df):
    """Clamp x into the open intervals (lo, hi), then take one Newton step
    x - f/df, with (f, df) = f_df(x), kept only where it stays inside."""
    x = np.clip(x, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))
    f, df = f_df(x)
    new = x - f / df
    return np.where((lo < new) & (new < hi), new, x)


def bands(delta):
    """Invert Delta: return the finite gap set with Delta^{-1}([-2,2]) = E.

    The g+1 roots of Delta(x) = t are the eigenvalues of the arrowhead
    matrix [[(t - c0)/lambda0, w^T], [w, diag(c)]], w_k = sqrt(lambda_k/lambda0),
    whose characteristic polynomial is the secular equation Delta(x) = t.
    By interlacing, the i-th sorted root of each level lies between poles
    i-1 and i, so the -2 and +2 roots pair index-wise into bands.
    Raises DomainError for two poles with fewer than two floats between
    them: a band holds at least two.
    """
    order = np.argsort(delta.poles)
    lams, cs = np.array(delta.terms).reshape(-1, 2)[order].T
    close = np.nextafter(np.nextafter(cs[:-1], np.inf), np.inf) >= cs[1:]
    if close.any():
        i = int(np.argmax(close))
        raise DomainError(f"poles {cs[i]} and {cs[i + 1]} have fewer than two floats between "
                          "them, too few for the band they enclose")
    x_minus = _level_roots(delta, lams, cs, -2.0)
    x_plus = _level_roots(delta, lams, cs, 2.0)
    return FiniteGapSet(x_minus[0], x_plus[-1], tuple(zip(x_plus[:-1], x_minus[1:])))


def _level_roots(delta, lams, cs, t):
    """Sorted roots of Delta(x) = t: the arrowhead eigenvalues, each refined
    between its neighbouring poles (or +/-inf) by ``_refine``."""
    M = np.diag(np.append((t - delta.c0) / delta.lambda0, cs))
    M[0, 1:] = M[1:, 0] = np.sqrt(lams / delta.lambda0)
    return _refine(np.linalg.eigvalsh(M), np.append(-np.inf, cs), np.append(cs, np.inf),
                   lambda x: (eval_discriminant(delta, x) - t, eval_discriminant_deriv(delta, x)))


def ahlfors_eval(delta, z):
    """Small Joukowski root: Psi with Psi + 1/Psi = Delta(z), |Psi| < 1.

    Psi vanishes exactly at the poles of Delta and at infinity.  On the
    band set both roots are unimodular and no branch is selected; this is
    reported as a DomainError (both moduli within 1e-8 of 1).
    """
    for _, c in delta.terms:
        if z == c:
            return 0.0 + 0.0j
    d = complex(eval_discriminant(delta, z))
    s = _sqrt(d * d - 4.0 + 0.0j)
    w1 = (d - s) / 2.0
    w2 = (d + s) / 2.0
    m1, m2 = abs(w1), abs(w2)
    if abs(m1 - 1.0) < 1e-8 and abs(m2 - 1.0) < 1e-8:
        raise DomainError("z lies on the band set: both roots unimodular")
    return w1 if m1 < m2 else w2
