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
    RationalDiscriminant,
    assemble,
    build_blocks,
    check_shifted_inverse_structure,
    discriminant_coeffs,
    lambda_positivity_test,
    magic_verify,
)
from gmpmat import cli, gmp, isospectral
from gmpmat.gmp import _near_pole_counts, _window_resolvent
from gmpmat.serialize import lower_triangle_csv
from conftest import (
    LATE_HIT,
    numpy_band,
    numpy_blocks,
    random_coeffs,
    random_hit_set,
    random_pinned_set,
    row_block,
    verdict,
)


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


def _band_fill_sample():
    """Seeded coefficient sets at g = 0..6: a ``random_coeffs`` draw (negative
    q_j and poles), the same with q = 0 in signed zeros, with p_0 = -0.0 and
    c_1 = -0.0, and with subnormal p_j, whose products round to 0 or stay
    subnormal."""
    sets = []
    for g in range(7):
        c = random_coeffs(np.random.default_rng([40, g]), g=g)
        sets += [c, GmpCoefficients(c.poles, c.p, ((-0.0, 0.0) * (g + 1))[: g + 1]),
                 GmpCoefficients(c.poles, tuple(v * 1e-310 for v in c.p[:g]) + (5e-324,), c.q)]
        if g:
            sets.append(GmpCoefficients((-0.0,) + c.poles[1:], (-0.0,) + c.p[1:],
                                        (abs(c.q[0]),) + c.q[1:]))
    return sets


def test_band_fill_equals_the_numpy_blocks_and_gather_bit_for_bit():
    # the plain-Python B and band fill against the numpy sums and np.tile
    # gather they replaced: == and sign bits, past-the-end zeros included
    sample = _band_fill_sample()
    assert any(np.signbit(numpy_band(c, 2)).any() for c in sample)
    assert any((np.abs(numpy_blocks(c)[1]) < 2.0**-1022).any() for c in sample)
    for c in sample:
        for got, want in zip(build_blocks(c), numpy_blocks(c)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for n_periods in range(1, 41):
            got, want = assemble(c, n_periods).lower, numpy_band(c, n_periods)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("tol", [0.0, 0.5])
def test_gmp_build_bytes_equal_the_numpy_band_walk(tmp_path, tol):
    for k, c in enumerate(_band_fill_sample()):
        path, out = tmp_path / f"c{k}.json", tmp_path / "section.csv"
        path.write_text(json.dumps(vars(c)))
        w = c.g + 1
        for n_periods in (1, 2, 40):
            argv = ["gmp", "build", "--coeffs", str(path), "--periods", str(n_periods),
                    "--tol", repr(tol), "--out", str(out)]
            assert cli.main(argv) == 0
            want = BandedOperator(w * n_periods, w, numpy_band(c, n_periods))
            assert out.read_text() == lower_triangle_csv(want, tol)


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
def test_triangle_from_band_storage_matches_dense(tol):
    # the band walk's edges: rows with and without zeros left of the band
    # (kept as one run at tol <= 0), a band as wide as or wider than the
    # matrix, one row, and exact zeros inside the band
    lower = np.random.default_rng(3).standard_normal((4, 11))
    lower[1, 2] = lower[0, 5] = lower[3, 0] = -0.0  # printed "0", as to_dense gives
    lower[2, 6] = lower[0, 8] = 0.0
    g3 = GmpCoefficients((-1.5, 0.0, 1.5), (0.7, 1.1, 0.5, 0.9), (0.2, -0.4, 0.3, 0.1))
    ops = [BandedOperator(n=11, half_bandwidth=3, lower=lower), assemble(g3, 3), assemble(g3, 1),
           BandedOperator(n=3, half_bandwidth=3, lower=lower[:, :3]),
           BandedOperator(n=1, half_bandwidth=3, lower=lower[:, :1])]
    for op in ops:
        assert lower_triangle_csv(op, tol) == lower_triangle_csv(op.to_dense(), tol)


def _window_by_row_block(op, lo, hi):
    """Rows and columns lo..hi-1 of op as magic_verify read them before:
    the row-block fill's lower triangle, mirrored."""
    low = row_block(op, lo, hi)[:, lo:]
    return low + np.tril(low, -1).T


def test_window_from_band_storage_matches_row_block_fill():
    rng = np.random.default_rng(36)
    for g in range(9):
        w = g + 1
        c = random_coeffs(rng, g)
        # the short section (at most 4w + 3 periods) and real-N fallbacks
        for periods in [*range(1, 4 * w + 4), 60, 201]:
            op = assemble(c, periods)
            lo, hi = op.n // 3, 2 * op.n // 3
            window = BandedOperator(hi - lo, w, op.lower[:, lo:hi]).to_dense()
            assert window.tobytes() == _window_by_row_block(op, lo, hi).tobytes()
    for _ in range(300):  # arbitrary windows of band matrices holding -0.0
        n, hb = int(rng.integers(1, 15)), int(rng.integers(0, 6))
        lower = rng.standard_normal((hb + 1, n))
        lower[rng.random(lower.shape) < 0.3] = -0.0
        op = BandedOperator(n, hb, lower)
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n + 1))
        window = BandedOperator(hi - lo, hb, lower[:, lo:hi]).to_dense()
        assert window.tobytes() == _window_by_row_block(op, lo, hi).tobytes()


def _check_shifted_oracle(coeffs, k, n_periods, tol):
    """The per-entry loop that check_shifted_inverse_structure replaces.

    The pole-hit gate and the resolvent come from a dense eigendecomposition
    of the section.  At tol = 0 rounding decides the verdict: the check's
    block solves can give exact zeros off the band where the
    eigendecomposition gives only rounding noise.  There the loop reads the
    check's own resolvent, which must equal the dense one of the section
    it was formed on to within a first-order perturbation bound.
    """
    g = coeffs.g
    w = g + 1
    ck = coeffs.poles[k - 1]
    margin = 2 * w * w

    def dense_resolvent(periods):
        M = assemble(coeffs, periods).to_dense()
        n = M.shape[0]
        evals, evecs = np.linalg.eigh(M)
        hit = np.abs(ck - evals) < 1e-9 * (1.0 + abs(ck))
        if np.any(hit) and np.max(np.abs(evecs[margin : n - margin, hit])) > 1e-8:
            raise DomainError(f"pole {ck} hits the truncation spectrum")
        weights = np.where(hit, 0.0, 1.0 / np.where(hit, 1.0, ck - evals))
        return M, ((evecs * weights) @ evecs.T)[k:, k:]

    M, R = dense_resolvent(n_periods)
    if tol == 0.0:
        try:
            R, n = _window_resolvent(coeffs, ((1.0, ck),), n_periods,
                                     lambda n: (k, n, slice(margin, n - margin)))
        except DomainError as exc:  # the dense gate above found no hit
            raise AssertionError(f"the window resolvent raised: {exc}") from exc
        M, dense = dense_resolvent(n // w)  # the section the check used
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


def _gmp_check(coeffs, tol):
    """``gmp check``'s structural_ok, run in process, or the message of its
    JSON error line as ``verdict`` gives it.  The command reads 4(g+1) + 3
    periods, so against an oracle at N >= 4(g+1) + 3 this also checks that
    the verdict does not depend on N."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "coeffs.json")
        with open(path, "w") as fh:
            json.dump(vars(coeffs), fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["gmp", "check", "--coeffs", path, "--tol", repr(tol)])
    if code == 0:
        return json.loads(out.getvalue())["structural_ok"]
    assert code == 1 and out.getvalue() == ""
    return f"DomainError: {json.loads(err.getvalue())['error']}"


def _all_poles_oracle(coeffs, n_periods, tol):
    return all([_check_shifted_oracle(coeffs, k, n_periods, tol) for k in range(1, coeffs.g + 1)])


_NOT_GMP = GmpCoefficients((5.0,), (1.0, 1.0), (-1.0, 0.0))  # Lambda_1 = -3
_PINNED = GmpCoefficients((1.0,), (1.0, 1.0), (0.0, 0.0))  # an eigenvalue on c_1
_PINNED_DELTA = RationalDiscriminant(1.0, 0.0, ((1.0, 1.0),))  # _PINNED lies on its manifold


@st.composite
def coeffs_and_k(draw):
    """random_coeffs-style coefficients (Lambda_k of either sign) and k in 1..g."""
    g = draw(st.integers(1, 3))
    coeffs = random_coeffs(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), g=g)
    return coeffs, draw(st.integers(1, g))


@settings(deadline=None, max_examples=60)
@given(
    case=coeffs_and_k(),
    n_periods=st.integers(20, 40),  # >= 4(g+1) + 3 for g <= 3: a window of a block
    tol=st.sampled_from([0.0, 1e-10, 1e-8, 1e-4]),
)
@example(case=(_NOT_GMP, 1), n_periods=30, tol=1e-8)  # False
@example(case=(_PINNED, 1), n_periods=30, tol=1e-8)  # deflates a boundary state
@example(case=(LATE_HIT, 1), n_periods=30, tol=1e-8)  # False for k = 1, then a pole hit
def test_structure_check_matches_per_entry_loop(case, n_periods, tol):
    coeffs, k = case
    got = verdict(check_shifted_inverse_structure, coeffs, k, n_periods, tol)
    assert got == verdict(_check_shifted_oracle, coeffs, k, n_periods, tol)
    # gmp check over all poles: the per-k verdicts in order, and the first
    # DomainError of any k, even after a False
    assert _gmp_check(coeffs, tol) == verdict(_all_poles_oracle, coeffs, n_periods, tol)


@pytest.mark.parametrize("g, n_periods", [(4, 40), (8, 40), (2, 200)])
def test_structure_check_matches_per_entry_loop_beyond_hypothesis(g, n_periods):
    # the sizes the test above does not draw, where the block path runs
    rng = np.random.default_rng(2300 + g)
    verdicts = []
    for tol in (0.0, 1e-10, 1e-8, 1e-4):
        coeffs = random_coeffs(rng, g=g)
        got = _gmp_check(coeffs, tol)
        assert got == verdict(_all_poles_oracle, coeffs, n_periods, tol)
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


def _windowed_block_resolvent(coeffs, terms, n_periods, start, stop):
    """The block path before the section was shortened, kept as its oracle:
    rows and columns start..stop-1 of the N-period resolvent, from the
    blocks the window meets, or None where a solve or a block fails."""
    _, B = build_blocks(coeffs)
    p = np.asarray(coeffs.p)
    lam, c = np.array(terms, dtype=float).reshape(-1, 2).T
    g = coeffs.g
    w = g + 1
    first, last = start // w, (stop - 1) // w
    Z = c[:, None, None] * np.eye(w) - B
    E = np.zeros((w, w))
    E[g, g] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            y = np.linalg.solve(Z, np.column_stack([p, E[g]]))
            alpha = y[:, g, 1, None, None]
            beta = (y[..., 0] @ p)[:, None, None]
            k = np.arange(first, last + 1)[:, None, None, None]
            M = (Z - np.where(k > 0, alpha, 0.0) * np.outer(p, p)
                 - np.where(k < n_periods - 1, beta, 0.0) * E)
            G = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            return None
        nb = last - first + 1
        t = np.arange(nb)
        W = np.zeros((nb, w, nb, w))
        W[t, :, t, :] = np.einsum("l,tlij->tij", lam, G)
        below = np.einsum("l,li,tlj->tij", lam, y[..., 0], G[:-1, :, g])
        W[t[1:], :, t[:-1], :] = below
        W[t[:-1], :, t[1:], :] = below.transpose(0, 2, 1)
    o = first * w
    W = W.reshape(nb * w, nb * w)[start - o : stop - o, start - o : stop - o]
    return W if np.isfinite(W).all() else None


def _real_length_window_resolvent(coeffs, terms, n_periods, window):
    """``_window_resolvent`` before its fallback ran on the short section,
    kept as its oracle: the hit gate and the eigendecomposition path at the
    real N, the block path on min(N, 4w + 3) periods."""
    try:
        hit = _near_pole_counts(coeffs, n_periods, [c for _, c in terms]).any()
    except DomainError:
        hit = True
    w = coeffs.g + 1
    n = w * min(n_periods, 4 * w + 3)
    start, stop, rows = window(n)
    W = None if hit else gmp._block_resolvent(coeffs, terms, n // w)
    if W is None or not np.isfinite(W := W[start:stop, start:stop]).all():
        n = w * n_periods
        start, stop, rows = window(n)
        evals, evecs = np.linalg.eigh(assemble(coeffs, n_periods).to_dense())
        weights = sum(gmp._pole_weights(evals, evecs, c, lam, rows) for lam, c in terms)
        W = (evecs[start:stop] * weights) @ evecs[start:stop].T
    return W, n


def _full_length_window_resolvent(coeffs, terms, n_periods, window):
    """``_window_resolvent`` at the real N: the windowed block path where no
    pole is hit, and the eigendecomposition path of
    ``_real_length_window_resolvent`` where that takes it."""
    n = (coeffs.g + 1) * n_periods
    start, stop, _ = window(n)
    try:
        hit = _near_pole_counts(coeffs, n_periods, [c for _, c in terms]).any()
    except DomainError:
        hit = True
    W = None if hit else _windowed_block_resolvent(coeffs, terms, n_periods, start, stop)
    return (W, n) if W is not None else _real_length_window_resolvent(coeffs, terms, n_periods,
                                                                      window)


def _on_and_off(rng, g):
    """A random GMP point with the discriminant it lies on, and the point
    with every q_j moved by 0.3, off that discriminant's manifold."""
    on = random_coeffs(rng, g)
    while not lambda_positivity_test(on)[0]:
        on = random_coeffs(rng, g)
    d = discriminant_coeffs(on)
    delta = RationalDiscriminant(d.nu0, d.d0, tuple(zip(d.nus, on.poles)))
    return delta, on, GmpCoefficients(on.poles, on.p, tuple(v + 0.3 for v in on.q))


def _both_checks(coeffs, delta, n_periods, ks=None, call=lambda fn, *args: fn(*args)):
    """magic_verify, then check_shifted_inverse_structure(k) at tol 1e-8 and 0
    for each k in ks, by default every k; each through call, which by
    default lets a DomainError raise."""
    ks = ks or range(1, coeffs.g + 1)
    return [call(magic_verify, coeffs, delta, n_periods)] + [
        call(check_shifted_inverse_structure, coeffs, k, n_periods, tol)
        for tol in (1e-8, 0.0) for k in ks]


def test_checks_equal_the_block_path_at_the_real_length(monkeypatch):
    # both checks read the floats of the N-period window from the short
    # section, bit for bit: at a seeded N from N0 = 4(g+1) + 3 to N0 + 100
    # for every pole, and at 300 periods, where the oracle's check costs
    # O(n^2) per pole, for the first and the last

    def sweep():
        rng = np.random.default_rng(33)
        out = []
        for g in range(1, 9):
            n0 = 4 * (g + 1) + 3
            delta, on, off = _on_and_off(rng, g)
            for n, ks in ((int(rng.integers(n0, n0 + 101)), None), (300, (1, g))):
                out += [(g, n)] + _both_checks(on, delta, n, ks) + _both_checks(off, delta, n, ks)
        return out

    got = sweep()
    monkeypatch.setattr(gmp, "_window_resolvent", _full_length_window_resolvent)
    monkeypatch.setattr(isospectral, "_window_resolvent", _full_length_window_resolvent)
    assert sweep() == got
    assert {True, False} <= set(got)
    defects = [v for v in got if type(v) is float]
    assert min(defects) < 1e-10 and max(defects) > 1e-2


def _hit_sweep(n_sets, seed):
    """(coeffs, delta, N) for n_sets draws, g = 1..4, every third one a
    ``random_pinned_set`` and the others ``random_hit_set``, each at
    N = N0 + 1, 40 and 90, N0 = 4(g + 1) + 3."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_sets):
        g = int(rng.integers(1, 5))
        coeffs, delta = (random_pinned_set if i % 3 == 2 else random_hit_set)(rng, g)
        cases += [(coeffs, delta, n) for n in (4 * g + 8, 40, 90)]
    return cases


# The widest move of a magic_verify float from the real-length fallback's
# was 1.74e-10 (1 + d), at a defect d of 2e5, over 9,000 cases of
# random_hit_set draws alone (g = 1..4, seeds 7 and 8, 1,500 sets each, at
# the three N of _hit_sweep); that fallback itself moved 1.67e-10 (1 + d)
# between 15, 20, 40 and 90 periods there.  Over
# the 9,000 cases of _hit_sweep(1500, 7) and _hit_sweep(1500, 8), 3,000 of
# them pinned, it was 2.05e-11 (1 + d).  Margin 3 on the widest.
_MOVED = 5e-10


def test_hit_sets_read_the_short_section_and_keep_their_verdicts(monkeypatch):
    # where a pole is hit, the fallback runs on N0 periods: the hit gate
    # there names the poles the real-length one names, every check keeps
    # the real-length verdict or error, and every magic float or error is
    # the real-length fallback's at N0, bit for bit
    cases = _hit_sweep(36, 37)
    hits = 0
    for coeffs, _, n in cases:
        at_n0, at_n = (_near_pole_counts(coeffs, m, coeffs.poles) > 0
                       for m in (4 * coeffs.g + 7, n))
        assert at_n0.tolist() == at_n.tolist(), (coeffs, n)
        hits += at_n.any()

    def run():
        return [([verdict(check_shifted_inverse_structure, c, k, n) for k in range(1, c.g + 1)],
                 verdict(magic_verify, c, d, n)) for c, d, n in cases]

    got = run()
    monkeypatch.setattr(gmp, "_window_resolvent", _real_length_window_resolvent)
    monkeypatch.setattr(isospectral, "_window_resolvent", _real_length_window_resolvent)
    magic_n0 = {c: verdict(magic_verify, c, d, 4 * c.g + 7) for c, d, _ in cases}
    moved = 0
    for (coeffs, _, _), (checks, magic), (want, magic_n) in zip(cases, got, run()):
        assert checks == want
        assert repr(magic) == repr(magic_n0[coeffs])
        if type(magic) is float:
            assert abs(magic - magic_n) <= _MOVED * (1.0 + magic_n)
            moved += magic != magic_n
        else:
            assert magic == magic_n
    assert hits >= 50 and moved >= 15, (hits, moved)


def test_checks_at_a_billion_periods_equal_their_shortest_section():
    # no array of either check grows with N: at 10^9 periods the block path
    # asked for gigabytes, and the eigendecomposition of a hit input for
    # exabytes; here every result is the one at N0
    delta, on, off = _on_and_off(np.random.default_rng(9), 2)
    for coeffs in (on, off):
        assert _both_checks(coeffs, delta, 10**9) == _both_checks(coeffs, delta, 15)
    hit = "DomainError: pole 0.0 hits the truncation spectrum"
    late_delta = RationalDiscriminant(1.0, 0.0, ((1.0, 5.0), (1.0, 0.0)))
    for n in (11, 10**9, 10**12):
        # at tol = 0 the eigendecomposition's rounding off the band fails the check
        assert _both_checks(_PINNED, _PINNED_DELTA, n) == [3.1086244689504383e-15, True, False]
        assert _both_checks(LATE_HIT, late_delta, max(n, 15), call=verdict) == [
            hit, False, hit, False, hit]


@pytest.mark.parametrize("g", [1, 2, 4, 8])
def test_no_block_batch_outgrows_the_short_section(monkeypatch, g):
    batches = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: batches.append(a.shape[0]) or inv(a))
    delta, on, off = _on_and_off(np.random.default_rng(g), g)
    for coeffs in (on, off):
        _both_checks(coeffs, delta, 1000)
    assert len(batches) == 2 * (2 * g + 1) and set(batches) == {4 * (g + 1) + 3}
