"""Shared generators for randomized suites (all seeded, deterministic), a
pinned set whose poles hit the section's spectrum, the elementary
transfer factors as 2x2 matrices, the oracle of ``_kernels._factor_product``,
and the row-block fill of a band matrix, the oracle of ``to_dense`` windows
and of the band-walking triangle encoder."""

import numpy as np

from gmpmat import DomainError, FiniteGapSet, GmpCoefficients


# index 1 of each period is uncoupled with eigenvalue c_2 = 0: every period
# puts an eigenvalue on that pole, with amplitude away from the boundary
LATE_HIT = GmpCoefficients((5.0, 0.0), (1.0, 0.0, 1.0), (-1.0, 0.0, 0.0))


def row_block(op, start, stop):
    """Rows start..stop-1, columns 0..stop-1 of a BandedOperator as a dense
    array: the lower band only, -0.0 stored as +0.0 (the fill that
    ``BandedOperator.row_block`` was)."""
    M = np.zeros((stop - start, stop))
    flat = M.reshape(-1)
    for d in range(min(op.half_bandwidth, stop - 1) + 1):
        first = max(start, d)  # entries (i, i - d), i = first..stop-1
        flat[(first - start) * stop + first - d :: stop + 1] = (
            op.lower[d, first - d : stop - d] + 0.0
        )
    return M


def random_gap_set(rng, g):
    """A finite gap set with g well-separated gaps."""
    # 2g + 2 edges with pairwise separation >= 0.25
    edges = np.cumsum(rng.uniform(0.25, 1.0, 2 * g + 2))
    edges = edges - edges[len(edges) // 2]
    gaps = tuple((edges[2 * j + 1], edges[2 * j + 2]) for j in range(g))
    return FiniteGapSet(edges[0], edges[-1], gaps)


def random_coeffs(rng, g=None, g_max=3):
    """A random coefficient set (not necessarily GMP: Lambda_k may be <= 0)."""
    if g is None:
        g = int(rng.integers(1, g_max + 1))
    poles = np.cumsum(rng.uniform(0.5, 2.0, g)) if g else np.empty(0)
    poles = poles - (poles[-1] / 2 if g else 0.0)
    p = rng.uniform(0.2, 1.5, g + 1)
    q = rng.uniform(-1.2, 1.2, g + 1)
    return GmpCoefficients(tuple(poles), tuple(p), tuple(q))


def random_point(rng, box=3.0, min_imag=1e-3):
    """A random point of the open upper half plane."""
    return complex(rng.uniform(-box, box), rng.uniform(min_imag, box))


def factor_infinity(z, p, q):
    """Elementary factor for the pole at infinity: [[0, -p], [1/p, (z-pq)/p]]."""
    if p == 0:
        raise DomainError("factor_infinity requires p != 0")
    dtype = complex if np.iscomplexobj(z) else float
    return np.array([[0.0, -p], [1.0 / p, (z - p * q) / p]], dtype=dtype)


def _rank_one_j(p, q):
    # [p; q] [p q] j with j = [[0,-1],[1,0]]
    return np.array([[p * q, -p * p], [q * q, -p * q]])


def factor_pole(z, c, p, q):
    """Elementary factor for a finite pole: I - (1/(c-z)) [p;q][p q] j."""
    if z == c:
        raise DomainError(f"factor evaluated at its pole c = {c}")
    return np.eye(2) - _rank_one_j(p, q) / (c - z)
