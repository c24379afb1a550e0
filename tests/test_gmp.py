import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
