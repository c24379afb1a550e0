import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

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
from gmpmat import cli, serialize
from gmpmat.gmp import _window_resolvent
from gmpmat.serialize import lower_triangle_csv
from conftest import LATE_HIT, random_coeffs


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
            else:
                assert op.lower[abs(i - j), min(i, j)] == M[i, j]


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


@pytest.mark.parametrize("g", [1, 2, 3, 4, 8])
def test_pole_solve_of_p_has_zero_last_entry(g):
    # e_g^T (c_k - B)^{-1} p = 0 at every pole, within the rounding of the
    # solve: the Schur recursions of _window_resolvent rest on it
    rng = np.random.default_rng(g)
    for _ in range(50):
        coeffs = random_coeffs(rng, g=g)
        B = build_blocks(coeffs)[1]
        for c in coeffs.poles:
            Z = c * np.eye(g + 1) - B
            y = np.linalg.solve(Z, coeffs.p)
            assert abs(y[g]) <= 4 * np.finfo(float).eps * np.linalg.cond(Z) * np.max(np.abs(y))


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


def _assemble_loop(coeffs, n_periods):
    """The per-slot double loop that assemble replaces, kept as its oracle."""
    g = coeffs.g
    w = g + 1
    n = w * n_periods
    A, B = build_blocks(coeffs)
    lower = np.zeros((w + 1, n))
    for d in range(w + 1):
        for i in range(d, n):
            j = i - d
            bi, bj = i // w, j // w
            if bi == bj:
                lower[d, j] = B[i % w, j % w]
            elif bi == bj + 1 and j % w == g:
                lower[d, j] = A[g, i % w]
    return lower


@pytest.mark.parametrize("g", range(7))
def test_assemble_matches_slot_loop(g):
    rng = np.random.default_rng(g)
    coeffs = [random_coeffs(rng, g=g) for _ in range(3)]
    if g:  # a -0.0 entry keeps its sign in the band, as in the loop
        coeffs.append(GmpCoefficients(tuple(range(g)), (-0.0,) + (1.0,) * g, (0.5,) * (g + 1)))
    for c in coeffs:
        for n_periods in range(1, 8):
            got, want = assemble(c, n_periods).lower, _assemble_loop(c, n_periods)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


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


def _to_dense_fill(op):
    """The per-diagonal fill that to_dense replaces, kept as its oracle."""
    n = op.n
    M = np.zeros((n, n))
    flat = M.reshape(-1)
    for d in range(min(op.half_bandwidth, n - 1) + 1):
        diag = op.lower[d, : n - d] + 0.0
        flat[d * n :: n + 1] = diag  # entries (i + d, i)
        flat[d :: n + 1][: n - d] = diag  # entries (i, i + d)
    return M


def test_to_dense_matches_diagonal_fill_bits():
    # random band matrices with -0.0 entries, compared as int64
    rng = np.random.default_rng(12)
    for _ in range(300):
        n, hb = int(rng.integers(1, 13)), int(rng.integers(0, 6))
        lower = rng.standard_normal((hb + 1, n))
        lower[rng.random(lower.shape) < 0.3] = -0.0
        op = BandedOperator(n=n, half_bandwidth=hb, lower=lower)
        assert np.array_equal(op.to_dense().view(np.int64), _to_dense_fill(op).view(np.int64))


@pytest.mark.parametrize("tol", [0.0, 0.5, -1.0, np.inf])
def test_triangle_from_band_storage_matches_dense(monkeypatch, tol):
    # row blocks of a few entries each, so blocks start mid-band
    monkeypatch.setattr(serialize, "_BLOCK_ROWS", 5)
    lower = np.random.default_rng(3).standard_normal((4, 11))
    lower[1, 2] = lower[0, 5] = lower[3, 0] = -0.0  # printed "0", as to_dense gives
    g3 = GmpCoefficients((-1.5, 0.0, 1.5), (0.7, 1.1, 0.5, 0.9), (0.2, -0.4, 0.3, 0.1))
    ops = [BandedOperator(n=11, half_bandwidth=3, lower=lower), assemble(g3, 3),
           BandedOperator(n=1, half_bandwidth=3, lower=lower[:, :1])]
    for op in ops:
        assert lower_triangle_csv(op, tol) == lower_triangle_csv(op.to_dense(), tol)


def _check_shifted_oracle(coeffs, k, n_periods, tol):
    """The per-entry loop that check_shifted_inverse_structure replaces.

    The pole-hit gate and the resolvent come from a dense eigendecomposition
    of the section.  At tol = 0 rounding decides the verdict: the check's
    block solves can give exact zeros off the band where the
    eigendecomposition gives only rounding noise.  There the loop reads the
    check's own resolvent, which must equal the dense one to within a
    first-order perturbation bound.
    """
    g = coeffs.g
    w = g + 1
    ck = coeffs.poles[k - 1]
    M = assemble(coeffs, n_periods).to_dense()
    n = M.shape[0]
    margin = 2 * w * w
    evals, evecs = np.linalg.eigh(M)
    hit = np.abs(ck - evals) < 1e-9 * (1.0 + abs(ck))
    if np.any(hit) and np.max(np.abs(evecs[margin : n - margin, hit])) > 1e-8:
        raise DomainError(f"pole {ck} hits the truncation spectrum")
    weights = np.where(hit, 0.0, 1.0 / np.where(hit, 1.0, ck - evals))
    R = ((evecs * weights) @ evecs.T)[k:, k:]
    if tol == 0.0:
        dense = R
        try:
            R = _window_resolvent(coeffs, ((1.0, ck),), n_periods, k, n, slice(margin, n - margin))
        except DomainError as exc:  # the dense gate above found no hit
            raise AssertionError(f"the window resolvent raised: {exc}") from exc
        # eps |A| |R|^2, with a wide factor for eps
        bound = 1e-11 * (1.0 + np.max(np.abs(M))) * (1.0 + np.max(np.abs(dense))) ** 2
        assert np.max(np.abs(R - dense)) <= bound
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
    """fn(*args), or the message of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


def _gmp_check(coeffs, n_periods, tol):
    """``gmp check``'s structural_ok, run in process, or the message of its
    JSON error line as ``_verdict`` gives it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "coeffs.json")
        with open(path, "w") as fh:
            json.dump(vars(coeffs), fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["gmp", "check", "--coeffs", path, "--periods", str(n_periods),
                             "--tol", repr(tol)])
    if code == 0:
        return json.loads(out.getvalue())["structural_ok"]
    assert code == 1 and out.getvalue() == ""
    return f"DomainError: {json.loads(err.getvalue())['error']}"


def _all_poles_oracle(coeffs, n_periods, tol):
    return all([_check_shifted_oracle(coeffs, k, n_periods, tol) for k in range(1, coeffs.g + 1)])


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
@example(case=(LATE_HIT, 1), n_periods=30, tol=1e-8)  # False for k = 1, then a pole hit
def test_structure_check_matches_per_entry_loop(case, n_periods, tol):
    coeffs, k = case
    got = _verdict(check_shifted_inverse_structure, coeffs, k, n_periods, tol)
    assert got == _verdict(_check_shifted_oracle, coeffs, k, n_periods, tol)
    # gmp check over all poles: the per-k verdicts in order, and the first
    # DomainError of any k, even after a False
    assert _gmp_check(coeffs, n_periods, tol) == _verdict(_all_poles_oracle, coeffs, n_periods, tol)


@pytest.mark.parametrize("g, n_periods", [(4, 40), (8, 40), (2, 200)])
def test_structure_check_matches_per_entry_loop_beyond_hypothesis(g, n_periods):
    # the sizes the test above does not draw, where the block path runs
    rng = np.random.default_rng(2300 + g)
    verdicts = []
    for tol in (0.0, 1e-10, 1e-8, 1e-4):
        coeffs = random_coeffs(rng, g=g)
        got = _gmp_check(coeffs, n_periods, tol)
        assert got == _verdict(_all_poles_oracle, coeffs, n_periods, tol)
        verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_structure_check_rejects_short_window():
    # p=(1,1), q=(-1,0), c=5 is not GMP; up to 10 periods the window of
    # rows 2(g+1)^2 from both ends holds < 2(g+1) rows and misses the
    # outermost diagonal, which would pass vacuously
    for n_periods in (1, 4, 10):
        with pytest.raises(DomainError, match="window of"):
            check_shifted_inverse_structure(_NOT_GMP, 1, n_periods)
    assert check_shifted_inverse_structure(_NOT_GMP, 1, 11) is False
