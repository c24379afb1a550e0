import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmpmat import (
    BandedOperator,
    DomainError,
    GmpCoefficients,
    assemble,
    build_blocks,
    check_shifted_inverse_structure,
    lambda_positivity_test,
)
from gmpmat.serialize import lower_triangle_csv
from conftest import random_coeffs


def test_coefficient_validation():
    with pytest.raises(DomainError):
        GmpCoefficients((1.0,), (1.0,), (0.0, 0.0))
    with pytest.raises(DomainError):
        GmpCoefficients((1.0, 1.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        GmpCoefficients((1.0,), (1.0, -1.0), (0.0, 0.0))


def test_sign_normalization():
    c = GmpCoefficients((1.0,), (-2.0, 1.0), (0.5, 0.0))
    assert c.p == (2.0, 1.0)
    assert c.q == (-0.5, 0.0)


def test_blocks_worked_example():
    # c1 = 2, p = (1, 1), q = (1, 0)
    c = GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))
    A, B = build_blocks(c)
    assert np.array_equal(A, [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(B, [[3.0, 1.0], [1.0, 0.0]])


def test_assemble_two_periods_dense():
    c = GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))
    M = assemble(c, 2).to_dense()
    want = np.array(
        [
            [3.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 3.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
        ]
    )
    assert np.array_equal(M, want)


def test_assemble_symmetric_banded():
    rng = np.random.default_rng(2)
    c = random_coeffs(rng, g=2)
    op = assemble(c, 5)
    M = op.to_dense()
    assert np.array_equal(M, M.T)
    w = c.g + 1
    for i in range(op.n):
        for j in range(op.n):
            if abs(i - j) > w:
                assert M[i, j] == 0.0
            assert op.entry(i, j) == M[i, j]


def test_band_storage_roundtrip():
    rng = np.random.default_rng(4)
    c = random_coeffs(rng, g=1)
    op = assemble(c, 6)
    ab = op.full_band()
    hb = op.half_bandwidth
    M = op.to_dense()
    for i in range(op.n):
        for j in range(max(0, i - hb), min(op.n, i + hb + 1)):
            assert ab[hb + i - j, j] == M[i, j]


def test_eigenvalues_match_dense():
    rng = np.random.default_rng(9)
    c = random_coeffs(rng, g=2)
    op = assemble(c, 8)
    want = np.linalg.eigvalsh(op.to_dense())
    got = np.sort(op.eigenvalues())
    assert np.max(np.abs(got - want)) < 1e-10


@settings(deadline=None, max_examples=40)
@given(
    p=st.lists(st.floats(0.1, 2.0), min_size=2, max_size=3),
    q=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=3),
)
def test_diagonal_blocks_symmetric(p, q):
    n = min(len(p), len(q))
    p, q = p[:n], q[:n]
    c = GmpCoefficients(tuple(range(n - 1)), tuple(p), tuple(q))
    _, B = build_blocks(c)
    assert np.array_equal(B, B.T)


def test_positivity_and_structure_agree_on_examples():
    # Lambda_1 = 4 > 0: GMP; Lambda_1 = -3 < 0: not GMP
    good = GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))
    bad = GmpCoefficients((5.0,), (1.0, 1.0), (-1.0, 0.0))
    ok_good, lams_good = lambda_positivity_test(good)
    ok_bad, lams_bad = lambda_positivity_test(bad)
    assert ok_good and abs(lams_good[0] - 4.0) < 1e-12
    assert not ok_bad and abs(lams_bad[0] + 3.0) < 1e-12
    assert check_shifted_inverse_structure(good, 1, 30)
    assert not check_shifted_inverse_structure(bad, 1, 30)


def test_structure_check_deflates_boundary_state():
    # q = 0 decouples the first coordinate, pinning an eigenvalue on the
    # pole; the check must still pass for this manifold point
    pt = GmpCoefficients((1.0,), (1.0, 1.0), (0.0, 0.0))
    assert check_shifted_inverse_structure(pt, 1, 30)


def test_structure_check_rejects_bad_k():
    c = GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))
    with pytest.raises(DomainError):
        check_shifted_inverse_structure(c, 2)


def test_g0_reduces_to_jacobi():
    c = GmpCoefficients((), (1.5,), (-0.5,))
    M = assemble(c, 4).to_dense()
    want = np.diag([-0.75] * 4) + np.diag([1.5] * 3, 1) + np.diag([1.5] * 3, -1)
    assert np.max(np.abs(M - want)) < 1e-15


def _dense_by_diag_sums(op):
    """Dense matrix as a sum of np.diag matrices, one per band diagonal."""
    M = np.zeros((op.n, op.n))
    for d in range(op.half_bandwidth + 1):
        diag = op.lower[d, : op.n - d]
        M += np.diag(diag, -d)
        if d:
            M += np.diag(diag, d)
    return M


def test_to_dense_matches_diag_sums_bytes_with_negative_zero():
    rng = np.random.default_rng(7)
    lower = rng.standard_normal((4, 9))
    lower[1, 2] = lower[0, 5] = lower[3, 0] = -0.0
    ops = [BandedOperator(n=9, half_bandwidth=3, lower=lower)]
    # p_0 = -0.0 survives sign normalization and lands in the band
    ops.append(assemble(GmpCoefficients((1.0,), (-0.0, 1.0), (0.5, 0.2)), 3))
    assert np.signbit(ops[1].lower).any()
    for op in ops:
        new, old = op.to_dense(), _dense_by_diag_sums(op)
        assert new.tobytes() == old.tobytes()
        assert lower_triangle_csv(new) == lower_triangle_csv(old)
        assert "-0\n" not in lower_triangle_csv(new)


def _check_shifted_oracle(coeffs, k, n_periods, tol):
    """The per-entry loop that check_shifted_inverse_structure replaces."""
    g = coeffs.g
    w = g + 1
    ck = coeffs.poles[k - 1]
    M = assemble(coeffs, n_periods).to_dense()
    margin = 2 * w * w
    evals, evecs = np.linalg.eigh(M)
    hit = np.abs(ck - evals) < 1e-9 * (1.0 + abs(ck))
    if np.any(hit) and np.max(np.abs(evecs[margin : M.shape[0] - margin, hit])) > 1e-8:
        raise DomainError(f"c_k - A numerically singular at pole {ck}")
    weights = np.where(hit, 0.0, 1.0 / np.where(hit, 1.0, ck - evals))
    R = ((evecs * weights) @ evecs.T)[k:, k:]
    m = R.shape[0]
    scale = 1.0 + np.max(np.abs(R))
    for i in range(margin, m - margin):
        for j in range(margin, m - margin):
            d = j - i
            if abs(d) > w and abs(R[i, j]) > tol * scale:
                return False
            if d == w:
                if i % w == g:
                    if R[i, j] <= tol * scale:
                        return False
                elif abs(R[i, j]) > tol * scale:
                    return False
    return True


def _verdict(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


_NOT_GMP = GmpCoefficients((5.0,), (1.0, 1.0), (-1.0, 0.0))  # Lambda_1 = -3
_PINNED = GmpCoefficients((1.0,), (1.0, 1.0), (0.0, 0.0))  # an eigenvalue on c_1


@st.composite
def coeffs_and_k(draw):
    """random_coeffs-style coefficients (Lambda_k of either sign) and k in 1..g."""
    g = draw(st.integers(1, 3))
    coeffs = random_coeffs(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), g=g)
    return coeffs, draw(st.integers(1, g))


@settings(deadline=None, max_examples=60)
@given(
    case=coeffs_and_k(),
    n_periods=st.integers(20, 40),  # a window of at least one block for g <= 3
    tol=st.sampled_from([0.0, 1e-10, 1e-8, 1e-4]),
)
@example(case=(_NOT_GMP, 1), n_periods=30, tol=1e-8)  # False
@example(case=(_PINNED, 1), n_periods=30, tol=1e-8)  # deflates a boundary state
def test_structure_check_matches_per_entry_loop(case, n_periods, tol):
    coeffs, k = case
    got = _verdict(check_shifted_inverse_structure, coeffs, k, n_periods, tol)
    assert got is _verdict(_check_shifted_oracle, coeffs, k, n_periods, tol)


def test_structure_check_rejects_short_window():
    # p=(1,1), q=(-1,0), c=5 is not GMP; up to 10 periods the window of
    # rows 2(g+1)^2 from both ends holds < 2(g+1) rows and misses the
    # outermost diagonal, which would pass vacuously
    for n_periods in (1, 4, 10):
        with pytest.raises(DomainError, match="window of"):
            check_shifted_inverse_structure(_NOT_GMP, 1, n_periods)
    assert check_shifted_inverse_structure(_NOT_GMP, 1, 11) is False
