"""Closed-form resolvent functions and truncation-based oracles.

The half-line resolvent values are the two roots of the quadratic

    m21 x^2 + (m22 - m11) x - m12 = 0

built from the one-period transfer matrix: x = a0^2 r_+ is the root with
positive imaginary part on the upper half plane and x = 1/r_- the other.
"""

import math

from ._kernels import _cdiv, _dot, _factor_product, _sqrt
from ._lazy import np
from .errors import DomainError, _Record, finite
from .gmp import assemble


class ResolventValue(_Record):
    """Roots of the transfer quadratic at a point z, or over an array of z.

    r_plus holds a0^2 * r_+(z), r_minus_inv holds 1/r_-(z); a0 = ||p||.
    """

    r_plus: complex
    r_minus_inv: complex
    a0: float


def resolvent_pair(coeffs, z):
    """Both resolvent roots at z with the Herglotz branch selected.

    Both square-root candidates are computed and the one with positive
    imaginary part is assigned to a0^2 r_+ (negative imaginary part to
    1/r_-).  For real z in a gap both roots are real, and r_+ is the one
    whose Floquet multiplier (tr +/- s)/2 has modulus above 1; with s the
    principal root of tr^2 - 4 that is (V + s) / (2 m21) exactly when
    tr > 0.  z is a scalar or an ndarray; for an ndarray the roots are
    arrays of its shape.  One body serves both.  A scalar z runs in plain
    Python, numpy not executed, with the square root and the quotient
    rounded as numpy's scalar arithmetic rounds them (``_sqrt``, ``_cdiv``);
    an ndarray z runs in numpy's elementwise arithmetic, whose complex
    products may differ from Python's in the last bit.
    """
    array = not isinstance(z, (int, float, complex)) and isinstance(z, np.ndarray)
    z = z.astype(complex, copy=False) if array else complex(z)
    m11, _, m21, m22 = _factor_product(z, coeffs.poles, coeffs.p, coeffs.q)
    tr, V = m11 + m22, m11 - m22
    s = _sqrt(tr * tr - 4.0 + 0.0j)
    vanishes = abs(m21) < 1e-14 * (1.0 + abs(V))
    if vanishes.any() if array else vanishes:
        raise DomainError("transfer entry m21 vanishes; retry at a perturbed z")
    den = 2.0 * m21
    c0, c1 = _cdiv(V + s, den), _cdiv(V - s, den)
    plus_first = _where(c0.imag == c1.imag, tr.real > 0, c0.imag > c1.imag) != (z.imag < 0)
    return ResolventValue(_where(plus_first, c0, c1), _where(plus_first, c1, c0), _norm(coeffs.p))


def _where(cond, a, b):
    """np.where(cond, a, b), or a conditional for a bool cond: no numpy."""
    return (a if cond else b) if isinstance(cond, bool) else np.where(cond, a, b)


def _norm(p):
    """a0 = ||p||, from ``_dot``: within 2 eps a0 of ``np.linalg.norm``'s
    BLAS dot (worst measured 1.35 eps, g <= 9)."""
    return math.sqrt(_dot(p, p))


def reflectionless_check(coeffs, x, eps=1e-6):
    """Defect of the reflectionless relation 1/r_+ = a0^2 conj(r_-) at x + i*eps.

    O(eps) on band interiors; O(1) in gaps, where both roots are real.
    Computed in Python arithmetic: the first quotient with Python's ``/``,
    the second rounded as numpy divides, which keeps the defect's bits
    wherever a0 is unchanged.  a0 comes from ``_dot``, so the defect is within
    8 eps (|a0^2/r_+| + |a0^2/conj(r_-)|) of the one a BLAS-based norm
    gives (worst measured 3.7 eps, g <= 9).
    """
    if not finite("eps", eps) > 0:
        raise DomainError("eps must be positive")
    rv = resolvent_pair(coeffs, finite("x", x) + 1j * eps)
    a0sq = rv.a0 * rv.a0
    return abs(a0sq / rv.r_plus - _cdiv(complex(a0sq), rv.r_minus_inv.conjugate()))


def truncation_resolvent_oracle(coeffs, z):
    """Numerical oracle for (r_+, r_-) from banded finite sections of 400 periods.

    The right half-line operator is the open-boundary truncation starting
    at block 0 with cyclic vector p/||p|| on the first block; the left
    half-line operator ends at the last index with cyclic vector e_{-1}.
    """
    import scipy.linalg  # deferred: ~250 ms start-up no other command needs

    z = complex(z)
    if z.imag == 0:
        raise DomainError("oracle needs z off the real axis")
    op = assemble(coeffs, 400)
    hb = op.half_bandwidth
    ab = np.zeros((2 * hb + 1, op.n), dtype=complex)  # solve_banded's full band storage
    for d in range(hb + 1):
        ab[hb + d, : op.n - d] = ab[hb - d, d:] = op.lower[d, : op.n - d]
    ab[hb, :] -= z
    p = np.asarray(coeffs.p)
    a0 = float(np.linalg.norm(p))
    e0 = np.zeros(op.n, dtype=complex)
    e0[: coeffs.g + 1] = p / a0
    em1 = np.zeros(op.n, dtype=complex)
    em1[-1] = 1.0
    sols = scipy.linalg.solve_banded((hb, hb), ab, np.column_stack([e0, em1]))
    r_plus_num = e0 @ sols[:, 0]
    r_minus_num = sols[-1, 1]
    return r_plus_num, r_minus_num
