"""Shared generators for randomized suites (all seeded, deterministic), a
pinned set whose poles hit the section's spectrum and two generators of
sets whose poles do, a spy on ``np.linalg.eigh``, a call that turns a
DomainError into its message, the elementary transfer
factors as 2x2 matrices, the oracle of ``_kernels._factor_product``, the
row-block fill of a band matrix, the oracle of ``to_dense`` windows and
of the band-walking triangle encoder, and the numpy blocks and band gather
that ``gmp._stacked_blocks`` and ``gmp._band`` replaced, their oracles."""

import numpy as np
import pytest

from gmpmat import (
    DomainError,
    FiniteGapSet,
    GmpCoefficients,
    RationalDiscriminant,
    assemble,
    discriminant_coeffs,
    lambda_positivity_test,
)


# index 1 of each period is uncoupled with eigenvalue c_2 = 0: every period
# puts an eigenvalue on that pole, with amplitude away from the boundary
LATE_HIT = GmpCoefficients((5.0, 0.0), (1.0, 0.0, 1.0), (-1.0, 0.0, 0.0))


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices np.linalg.eigh decomposes, in call order."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape)
                        or eigh(a, *args, **kw))
    return calls


def verdict(fn, *args):
    """fn(*args), or the message of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


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


def numpy_blocks(coeffs):
    """(A, B) as ``build_blocks`` formed them with numpy: B is the sum of
    np.triu(q p^T, 1), np.tril(p q^T) and diag(c_1..c_g, 0)."""
    p = np.asarray(coeffs.p)
    q = np.asarray(coeffs.q)
    g = coeffs.g
    A = np.zeros((g + 1, g + 1))
    A[g, :] = p
    with np.errstate(over="ignore"):
        B = np.triu(np.outer(q, p), 1) + np.tril(np.outer(p, q))
        B += np.diag(list(coeffs.poles) + [0.0])
    return A, B


def numpy_band(coeffs, n_periods):
    """The band storage of ``assemble`` as it was gathered with numpy: one
    period of row d from the stacked blocks [B; A^T], tiled, then zeros
    past the last row."""
    w = coeffs.g + 1
    n = w * n_periods
    A, B = numpy_blocks(coeffs)
    r = np.arange(w)
    lower = np.tile(np.vstack([B, A.T])[r + np.arange(w + 1)[:, None], r], n_periods)
    for d in range(1, w + 1):
        lower[d, n - d :] = 0.0
    return lower


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


def random_hit_set(rng, g):
    """Coefficients with structural zeros, and a discriminant on their poles.

    The poles lie on a 0.1 grid and each p_j (j < g) and q_j is zeroed with
    probability 0.35: where p_j = q_j = 0, index j of every period is
    uncoupled with eigenvalue c_j, so about half of these sets put an
    eigenvalue of the section on a pole.
    """
    poles = 0.1 * rng.choice(np.arange(-30, 31), g, replace=False)
    p = rng.uniform(0.2, 1.5, g + 1)
    q = rng.uniform(-1.2, 1.2, g + 1)
    p[:g][rng.random(g) < 0.35] = 0.0
    q[rng.random(g + 1) < 0.35] = 0.0
    coeffs = GmpCoefficients(tuple(poles), tuple(p), tuple(q))
    delta = RationalDiscriminant(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                                 tuple(zip(rng.uniform(0.2, 2.0, g), coeffs.poles)))
    return coeffs, delta


def random_pinned_set(rng, g):
    """A GMP point with an eigenvalue of its sections on a pole, and the
    discriminant it lies on.

    One q_j of a ``random_coeffs`` draw is tuned, by bisection on the
    eigenvalue of the 3-period section nearest a pole c_k, until that
    eigenvalue lies on c_k.  No p_j or q_j is zeroed, but the mode is still
    confined to one period: the first or the last, or it lies in every
    period, as the modes of ``random_hit_set`` do.
    """
    while True:
        start = random_coeffs(rng, g)
        c, j = start.poles[int(rng.integers(g))], int(rng.integers(g + 1))
        q = np.array(start.q)

        def offset(x):
            q[j] = x
            section = assemble(GmpCoefficients(start.poles, start.p, tuple(q)), 3)
            ev = np.linalg.eigvalsh(section.to_dense()) - c
            return ev[np.argmin(np.abs(ev))]

        xs = np.linspace(-3.0, 3.0, 61)
        fs = [offset(x) for x in xs]
        brackets = [(a, b, fa) for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:])
                    if fa * fb < 0 and max(abs(fa), abs(fb)) < 0.5]
        if not brackets:
            continue
        lo, hi, f_lo = brackets[0]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if (offset(mid) < 0) == (f_lo < 0) else (lo, mid)
        if abs(offset(lo)) < 1e-13:
            coeffs = GmpCoefficients(start.poles, start.p, tuple(q))
            if lambda_positivity_test(coeffs)[0]:
                d = discriminant_coeffs(coeffs)
                return coeffs, RationalDiscriminant(d.nu0, d.d0, tuple(zip(d.nus, coeffs.poles)))


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
