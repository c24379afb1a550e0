"""The one-period factor product behind every transfer matrix, and the
scalar arithmetic that reproduces numpy's without executing it.

A transfer matrix is an ordered product of 2x2 elementary factors, one
per coefficient pair.  ``_factor_product`` multiplies them out entry by
entry, so the same code serves a scalar z (plain Python arithmetic, no
array allocation) and an ndarray of z (elementwise numpy arithmetic over
the whole grid, looping only over the factors).  ``_sqrt`` and ``_cdiv``
take either too: numpy's own square root and quotient for an ndarray, and
for a Python complex the same rounding without numpy.  ``_dot`` is the one
sum of products behind ||p||, d0 and the forced tail q_g.
"""

import cmath
import math
import operator

from ._lazy import np
from .errors import DomainError


def _dot(x, y):
    """sum_j x_j y_j of two float sequences: math.fsum of the rounded products.

    The value does not depend on a BLAS build, as ``np.dot`` does (OpenBLAS
    sums with FMA on hosts that have it); it is within eps * sum |x_j y_j|
    of the exact sum.  Where fsum raises (a sum past the float range, or
    inf - inf), the value is the plain left-to-right sum, inf or NaN.
    """
    try:
        return math.fsum(map(operator.mul, x, y))
    except (OverflowError, ValueError):
        return sum(map(operator.mul, x, y))


def _sqrt(x):
    """Principal square root as np.sqrt gives it: of an ndarray x by np.sqrt,
    of a Python complex x without numpy.

    cmath.sqrt rounds the two equal parts of sqrt(iy) = sqrt(|y|/2)(1 +/- i)
    one at a time, at times one ulp apart, and the real part of Delta^2 - 4
    is exactly 0 at Delta = +/-2 + i eps for every |eps| below ~2e-8.
    Elsewhere the two roots agree bit for bit, unless a part of x or of the
    root is below ~2e-307 (near or in the subnormal range).
    """
    if not isinstance(x, complex):
        return np.sqrt(x)
    if x.real == 0.0 and x.imag != 0.0:
        t = math.sqrt(0.5 * abs(x.imag))
        return complex(t, math.copysign(t, x.imag))
    return cmath.sqrt(x)


def _cdiv(a, b):
    """The complex quotient a / b as numpy rounds it: numpy's ``/`` for an
    ndarray b, and for Python complex b Smith's method with the reciprocal of
    the scaled denominator, without numpy; Python's own ``/`` divides by
    that denominator instead, and differs in the last bit on about 40% of
    random pairs.  Raises ZeroDivisionError for a complex b = 0.
    """
    if not isinstance(b, complex):
        return a / b
    if abs(b.real) >= abs(b.imag):
        rat = b.imag / b.real
        scl = 1.0 / (b.real + b.imag * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = b.real / b.imag
    scl = 1.0 / (b.imag + b.real * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _factor_product(z, poles, p, q, mirror=False, rank_one=None):
    """Entries (m11, m12, m21, m22) of an ordered product of elementary factors.

    Pair j of (p, q) gives the pole factor I - (1/(c_j - z)) [p_j; q_j][p_j q_j] j
    for j < len(poles), with j = [[0, -1], [1, 0]], and the infinity factor
    [[0, -p_j], [1/p_j, (z - p_j q_j)/p_j]] for the remaining pairs.

    ``mirror`` multiplies the factors in reverse order, each replaced by
    its mirror S F^T S with S = diag(1, -1); for a pole factor that swaps
    the roles of p and q.  ``rank_one = k`` replaces factor k by the
    rank-one matrix [p_k; q_k][p_k q_k] j.  A Python (or numpy) scalar z
    stays a scalar and needs no numpy; an ndarray z gives entries of its
    shape.  Raises DomainError when z hits a pole of a pole factor.
    """
    g = len(poles)
    array = not isinstance(z, (int, float, complex))
    zero = 0.0 * z
    m11, m12, m21, m22 = 1.0 + zero, zero, zero, 1.0 + zero
    for j, (pj, qj) in enumerate(zip(p, q)):
        pq = pj * qj
        if j == rank_one:
            f11, f12, f21, f22 = pq, -pj * pj, qj * qj, -pq
        elif j < g:
            c = poles[j]
            if (z == c).any() if array else z == c:
                raise DomainError(f"transfer matrix evaluated at pole c = {c}")
            u = 1.0 / (c - z)
            f11, f12, f21, f22 = 1.0 - u * pq, u * (pj * pj), -u * (qj * qj), 1.0 + u * pq
        else:
            f11, f12, f21, f22 = 0.0, -pj, 1.0 / pj, (z - pq) / pj
        if mirror:  # S F^T S multiplies the product from the left
            m11, m12, m21, m22, f11, f12, f21, f22 = f11, -f21, -f12, f22, m11, m12, m21, m22
        m11, m12, m21, m22 = (
            m11 * f11 + m12 * f21,
            m11 * f12 + m12 * f22,
            m21 * f11 + m22 * f21,
            m21 * f12 + m22 * f22,
        )
    return m11, m12, m21, m22


# Grid points per _factor_product call: bounds its ~16 temporaries to a block.
_BLOCK_POINTS = 1 << 16


def discriminant_grid(coeffs, zs):
    """Trace of the transfer matrix over a z grid.

    The grid is multiplied out block by block.  A real grid stays real:
    each block is multiplied out in float and only its trace is kept, the
    same arithmetic as the scalar ``discriminant_of`` at each point.
    """
    zs = np.asarray(zs)
    zs = zs.astype(complex if np.iscomplexobj(zs) else float, copy=False)
    for c in coeffs.poles:  # whole grid first: the error names the first pole hit
        if (zs == c).any():
            raise DomainError(f"transfer matrix evaluated at pole c = {c}")
    out = np.empty(zs.shape, dtype=zs.dtype)
    flat, flat_out = zs.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _BLOCK_POINTS):
        block = slice(lo, lo + _BLOCK_POINTS)
        m11, _, _, m22 = _factor_product(flat[block], coeffs.poles, coeffs.p, coeffs.q)
        flat_out[block] = m11 + m22
    return out
