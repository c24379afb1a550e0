"""Transfer matrices, discriminants and residues of periodic operators.

One period of the operator is encoded in a 2x2 product of elementary
factors, one per pole plus one for infinity; the trace of the product is
the discriminant.  Two independent routes are provided: the direct
factor product and a resolvent-based construction from the single
diagonal block, which must agree identically.
"""

from ._kernels import _dot, _factor_product, discriminant_grid
from ._lazy import np
from .errors import DomainError, _Record
from .gmp import build_blocks


class DiscriminantCoefficients(_Record):
    """Partial-fraction data of the trace: nu0*z + d0 + sum nus_k/(c_k - z)."""

    nu0: float
    d0: float
    nus: tuple


def transfer(coeffs, z):
    """Ordered one-period product; unimodular (det = 1) by construction.

    For an ndarray z the result has shape (2, 2) + z.shape.
    """
    m11, m12, m21, m22 = _factor_product(z, coeffs.poles, coeffs.p, coeffs.q)
    return np.array([[m11, m12], [m21, m22]])


def discriminant_of(coeffs, z):
    """Trace of the one-period transfer matrix at a scalar z or, blocked, an ndarray z."""
    if not isinstance(z, (int, float, complex)):
        return discriminant_grid(coeffs, z)
    m11, _, _, m22 = _factor_product(z, coeffs.poles, coeffs.p, coeffs.q)
    return m11 + m22


def lambda_k(coeffs, k):
    """Negative residue of the discriminant at pole c_k, in closed form.

    The product formula replaces the k-th elementary factor by the
    rank-one matrix [p;q][p q] j of the (k-1)-th coefficient pair.
    """
    g = coeffs.g
    if not 1 <= k <= g:
        raise DomainError(f"k must be in 1..{g}")
    m11, _, _, m22 = _factor_product(
        coeffs.poles[k - 1], coeffs.poles, coeffs.p, coeffs.q, rank_one=k - 1
    )
    return -(m11 + m22)


def lambda_k_residue(coeffs, k):
    """Numeric residue oracle: limit of (c_k - z) * trace at z -> c_k.

    One-sided limit at z = c_k + h, h = 1e-6 (1 + |c_k|), with one Richardson
    extrapolation step to remove the O(h) error of the simple pole.
    """
    g = coeffs.g
    if not 1 <= k <= g:
        raise DomainError(f"k must be in 1..{g}")
    ck = coeffs.poles[k - 1]
    h = 1e-6 * (1.0 + abs(ck))

    def f(step):
        z = ck + step
        return (ck - z) * discriminant_of(coeffs, z)

    return 2.0 * f(h / 2.0) - f(h)


def discriminant_coeffs(coeffs):
    """Partial-fraction coefficients of the discriminant.

    nu0 = 1/p_g, d0 = -q_g - nu0 * sum_{j<g} p_j q_j, and the residue
    weights are the Lambda_k.  The reconstruction
    nu0*z + d0 + sum nus_k/(c_k - z) equals the trace pointwise.  Plain
    Python arithmetic: the sum is ``_dot``'s, so d0 is within
    4 eps (|q_g| + nu0 sum |p_j q_j|) of the value a BLAS dot gives
    (worst measured 2.2 eps, g <= 9).
    """
    g = coeffs.g
    p, q = coeffs.p, coeffs.q
    nu0 = 1.0 / p[g]
    d0 = -q[g] - nu0 * _dot(p[:g], q[:g])
    nus = tuple(lambda_k(coeffs, k) for k in range(1, g + 1))
    return DiscriminantCoefficients(nu0, d0, nus)


def transfer_from_resolvent(coeffs, z):
    """Second route: transfer matrix from resolvent entries of one block B.

    With R(z,x,y) = <(B - z)^{-1} x, y> for x, y in {p, e_g}, the matrix

        (1/R(z,p,g)) [[R_pp R_gg - R_pg^2, -R_pp], [R_gg, -1]]

    coincides with the factor product.
    """
    _, B = build_blocks(coeffs)
    g = coeffs.g
    p = np.asarray(coeffs.p, dtype=complex)
    delta_g = np.zeros(g + 1, dtype=complex)
    delta_g[g] = 1.0
    shifted = B.astype(complex) - z * np.eye(g + 1)
    try:
        sol = np.linalg.solve(shifted, np.column_stack([p, delta_g]))
    except np.linalg.LinAlgError:
        raise DomainError("B - z is singular") from None
    xp, xd = sol[:, 0], sol[:, 1]
    Rpp = p @ xp
    Rpg = xp[g]
    Rgg = xd[g]
    if abs(Rpg) < 1e-14 * (1.0 + abs(Rpp) + abs(Rgg)):
        raise DomainError("R(z, p, g) vanishes; retry at a perturbed z")
    return (
        np.array([[Rpp * Rgg - Rpg * Rpg, -Rpp], [Rgg, -1.0]], dtype=complex) / Rpg
    )


def mirror_transfer(coeffs, z):
    """Transfer matrix of the left half-line resolvent.

    Product runs in reverse order with the roles of p and q swapped in
    the pole factors; entrywise it relates to the direct transfer matrix
    by m11 = m11^-, m22 = m22^-, m12 = -m21^-, m21 = -m12^-.
    """
    m11, m12, m21, m22 = _factor_product(
        z, coeffs.poles, coeffs.p, coeffs.q, mirror=True
    )
    return np.array([[m11, m12], [m21, m22]])
