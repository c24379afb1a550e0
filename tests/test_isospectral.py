import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmpmat import isospectral as iso
from gmpmat import (
    ConvergenceError,
    DomainError,
    GmpCoefficients,
    RationalDiscriminant,
    bands,
    check_shifted_inverse_structure,
    forced_tail,
    jacobi_band_edges,
    jacobi_transfer,
    lambda_positivity_test,
    magic_verify,
    manifold_residual,
    project_to_manifold,
    spectrum_truncation,
    trace_torus,
)
from gmpmat._kernels import _factor_product
from gmpmat.gmp import _near_pole_counts, _pole_weights, assemble
from gmpmat.transfer import discriminant_coeffs, lambda_k
from conftest import LATE_HIT, random_coeffs, random_hit_set, verdict


DELTA1 = RationalDiscriminant(1.0, 0.0, ((1.0, 1.0),))
POINT1 = GmpCoefficients((1.0,), (1.0, 1.0), (0.0, 0.0))


def test_forced_tail_worked_example():
    p_g, q_g = forced_tail(DELTA1, [1.0, 0.0])
    assert p_g == 1.0 and q_g == 0.0


def test_forced_tail_length_check():
    with pytest.raises(DomainError):
        forced_tail(DELTA1, [1.0])


def test_residual_zero_on_manifold():
    res = manifold_residual(POINT1, DELTA1)
    assert np.max(np.abs(res)) < 1e-14


def test_residual_requires_matching_poles():
    other = GmpCoefficients((2.0,), (1.0, 1.0), (0.0, 0.0))
    with pytest.raises(DomainError):
        manifold_residual(other, DELTA1)


def test_projection_lands_on_manifold():
    pt = project_to_manifold([1.2, 0.1], DELTA1, tol=1e-12)
    assert np.max(np.abs(manifold_residual(pt, DELTA1))) < 1e-12
    assert abs(pt.p[-1] - 1.0) < 1e-14  # p_g = 1/lambda0 exactly enforced
    dc = discriminant_coeffs(pt)
    assert abs(dc.nu0 - 1.0) < 1e-12 and abs(dc.d0) < 1e-12


def test_projection_from_several_starts():
    rng = np.random.default_rng(3)
    for _ in range(4):
        init = rng.normal(size=2)
        pt = project_to_manifold(init, DELTA1)
        assert np.max(np.abs(manifold_residual(pt, DELTA1))) < 1e-10


def test_projection_g2():
    delta = RationalDiscriminant(1.0, 0.0, ((1.0, -2.0), (1.5, 2.0)))
    pt = project_to_manifold([1.0, 1.0, 0.1, -0.1], delta)
    assert np.max(np.abs(manifold_residual(pt, delta))) < 1e-10
    assert magic_verify(pt, delta, 60) < 1e-6  # lambda_k != 1 weight the resolvents


def test_magic_formula_on_and_off_manifold():
    on60 = magic_verify(POINT1, DELTA1, 60)
    assert on60 < 1e-6
    off = GmpCoefficients((1.0,), (1.0, 1.0), (0.5, 0.0))
    assert magic_verify(off, DELTA1, 60) > 1e-2


def test_torus_trace_stays_on_manifold():
    points = trace_torus(POINT1, DELTA1, steps=20, step_len=0.05)
    assert len(points) == 21
    for pt in points:
        assert np.max(np.abs(manifold_residual(pt, DELTA1))) < 1e-8
    # the trace actually moves
    heads = np.array([pt.p[0] for pt in points])
    assert np.max(np.abs(np.diff(heads))) > 1e-4


def test_torus_trace_at_g0_is_the_one_manifold_point():
    # the trace returned its unprojected start, p_0 = 2, q_0 = 5, at every step
    delta = RationalDiscriminant(2.0, 0.5, ())
    points = trace_torus(GmpCoefficients((), (2.0,), (5.0,)), delta, steps=3, step_len=0.05)
    assert points == [GmpCoefficients((), (0.5,), (-0.5,))] * 4
    assert points[0] == project_to_manifold([], delta)


def test_projection_rejects_a_point_with_a_nonpositive_lambda(monkeypatch):
    # every converged point is refused as if some Lambda_k <= 0: the first
    # start and 8 seeded perturbed ones are tried, then the refusal is raised
    starts = []
    gauss_newton = iso._gauss_newton
    monkeypatch.setattr(iso, "_gauss_newton", lambda delta, pm, head, tol:
                        starts.append(head) or gauss_newton(delta, pm, head, tol))
    monkeypatch.setattr(iso, "lambda_positivity_test", lambda coeffs: (False, [-1.0]))
    with pytest.raises(ConvergenceError, match=r"^converged to a point with Lambda_k <= 0$"):
        project_to_manifold([1.2, 0.1], DELTA1)
    assert len(starts) == 9 and np.array_equal(starts[0], [1.2, 0.1])
    assert len({tuple(s) for s in starts}) == 9


def test_trace_refuses_a_rank_deficient_jacobian(monkeypatch):
    # the projection after step 0 hands back a zero Jacobian, so step 1 has
    # no null direction to follow
    calls = []
    gauss_newton = iso._gauss_newton

    def flat_after_first(delta, pm, head, tol):
        head, jacobian = gauss_newton(delta, pm, head, tol)
        calls.append(head)
        return head, (jacobian if len(calls) == 1 else lambda: np.zeros((1, 2)))

    monkeypatch.setattr(iso, "_gauss_newton", flat_after_first)
    with pytest.raises(ConvergenceError, match="^residual Jacobian rank-deficient at step 1$"):
        trace_torus(POINT1, DELTA1, steps=3, step_len=0.05)
    assert len(calls) == 2


def test_projection_forms_the_lane_product_once_per_point(monkeypatch):
    # the residual and the Jacobian at a point share one lane product (it was
    # formed twice); the Lambda_k > 0 check of the converged point takes
    # lambda_k, so it forms none
    evaluated, lanes = [], []
    head_system, lane_factors = iso._head_system, iso._lane_factors

    def counted_system(delta, pm, head):
        evaluated.append(head)
        return head_system(delta, pm, head)

    def counted_lanes(*args):
        lanes.append(args)
        return lane_factors(*args)

    monkeypatch.setattr(iso, "_head_system", counted_system)
    monkeypatch.setattr(iso, "_lane_factors", counted_lanes)
    project_to_manifold([1.0, 1.0, 0.1, -0.1],
                        RationalDiscriminant(1.0, 0.0, ((1.0, -2.0), (1.5, 2.0))))
    assert len(evaluated) > 2
    assert len(lanes) == len(evaluated)


def test_truncation_spectrum_concentrates_on_bands():
    E = bands(DELTA1)
    eigs = spectrum_truncation(POINT1, 100)
    outside = 0
    for x in eigs:
        if not any(lo - 1e-4 <= x <= hi + 1e-4 for lo, hi in E.bands):
            outside += 1
    assert outside <= 2 * 2  # at most 2(g+1) boundary eigenvalues


def test_free_truncation_eigenvalues_exact():
    c = GmpCoefficients((), (1.0,), (0.0,))
    n = 50
    eigs = spectrum_truncation(c, n)
    want = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.max(np.abs(eigs - want)) < 1e-10


def _lapack_close(c, n_periods):
    got = spectrum_truncation(c, n_periods)
    want = np.sort(assemble(c, n_periods).eigenvalues())
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_spectrum_truncation_matches_lapack_oracle():
    # seeded draws with g <= 8 and periods log-uniform in 1..2000, kept to
    # n = (g+1) N <= 4000 so the banded LAPACK oracle stays fast
    rng = np.random.default_rng(20)
    for _ in range(24):
        g = int(rng.integers(0, 9))
        n_periods = min(int(np.exp(rng.uniform(0.0, np.log(2000.0)))), 4000 // (g + 1))
        _lapack_close(random_coeffs(rng, g=g), n_periods)
    _lapack_close(random_coeffs(rng, g=1), 2000)


@pytest.mark.parametrize("c, periods", [
    # p_0 = p_1 = 0: the Floquet points at theta = pi/2 are eigenvalues of B
    (GmpCoefficients((-1.0, 1.0), (0.0, 0.0, 1.0), (0.5, -0.3, 0.2)), (1, 2, 7, 40, 44)),
    # p_0 = q_0 = 0 and p = e_g: eigenvalues of multiplicity N sit on the poles
    (GmpCoefficients((-1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.2)), (1, 2, 5, 40)),
    (GmpCoefficients((-1.0, 1.0), (0.0, 0.7, 1.0), (0.5, -0.3, 0.2)), (1, 2, 16, 39)),
    (GmpCoefficients((0.3, 0.3 + 1e-7), (0.8, 0.9, 1.1), (0.2, -0.4, 0.1)), (1, 2, 3, 50)),
    # a pole at 0 with integer data: exact hits of the pole and of |tr T| = 2
    (GmpCoefficients((-1.0, 0.0, 1.0), (1.0, 0.0, 0.5, 1.0), (0.5, 0.0, 0.0, 0.0)), (1, 2, 3, 8)),
    (GmpCoefficients((0.0, 3.0), (0.0, 1.0, 1.0), (0.0, -1.0, 1.0)), (1, 2, 5, 33)),
    # free case, odd N: 0 is an eigenvalue and the eigenvalue of B
    (GmpCoefficients((), (1.0,), (0.0,)), (1, 2, 51, 301)),
    # entries near 1e160, whose squares the accuracy check must not overflow
    (GmpCoefficients((), (1.0,), (1e160,)), (1, 3)),
])
def test_spectrum_truncation_pinned_cases(c, periods):
    for n_periods in periods:
        _lapack_close(c, n_periods)


def test_spectrum_truncation_long_section():
    _lapack_close(random_coeffs(np.random.default_rng(21), g=2), 5000)


def test_spectrum_truncation_rejects_empty_section():
    with pytest.raises(DomainError):
        spectrum_truncation(POINT1, 0)


@pytest.mark.parametrize("c, periods", [
    # the transfer matrix cancels near 1e15: an error of 2.6e-12 of max|lambda|
    (GmpCoefficients((2.0,), (1e5, 1.0), (1.0, 0.0)), 3),
    # A_1 = B = (1e-20) beside p = 1: the eigenvalue came out as 5e-324
    (GmpCoefficients((), (1.0,), (1e-20,)), 1),
])
def test_spectrum_truncation_refuses_lost_digits(c, periods):
    with pytest.raises(DomainError, match="the spectrum lost accuracy"):
        spectrum_truncation(c, periods)


@pytest.mark.parametrize("p, q", [
    ((1e200, 1.0), (1e200, 0.0)),  # B overflows; the search never closed a bracket
    ((1.0, 1e-300), (1.0, 0.0)),  # T overflows; gave -2.3027756377319943 six times
    ((1e150, 1.0), (1e150, 0.0)),  # T overflows; gave -2e150 six times
])
def test_spectrum_truncation_refuses_overflow(p, q):
    # RuntimeWarnings are errors under pytest, so none may escape either
    with pytest.raises(DomainError, match="overflows float64"):
        spectrum_truncation(GmpCoefficients((2.0,), p, q), 3)


@pytest.mark.parametrize("g, n_periods", [(0, 31), (3, 30), (2, 200)])
def test_sturm_count_matches_dense_count(g, n_periods):
    # floor(phi/pi) + N j counts the eigenvalues below x at every grid
    # point, in bands and deep in gaps, where the periods' product is
    # near-singular, and on the eigenvalues of B (0 for the free case)
    rng = np.random.default_rng(22 + g)
    c = GmpCoefficients((), (1.0,), (0.0,)) if g == 0 else random_coeffs(rng, g=g)
    eigs = np.linalg.eigvalsh(assemble(c, n_periods).to_dense())
    lo, hi = (-3.0, 3.0) if g == 0 else (eigs[0] - 1.0, eigs[-1] + 1.0)
    xs = np.linspace(lo, hi, 2001)  # symmetric for g = 0: x = 0 is a grid point
    eig_b = np.linalg.eigvalsh(iso.build_blocks(c)[1])
    phi, psi, j = iso._transfer_phase(c, eig_b, n_periods, xs)
    count = np.floor(phi / np.pi) + n_periods * j
    assert np.array_equal(np.floor(psi / np.pi), np.floor(phi / np.pi))
    want = np.searchsorted(eigs, xs)
    off = count != want
    # a mismatch is allowed only within rounding of an eigenvalue
    gap = np.min(np.abs(xs[off, None] - eigs), axis=1, initial=np.inf)
    assert np.all(gap <= 1e-13 * max(1.0, np.max(np.abs(eigs))))


def test_jacobi_period2_trace():
    for z in (0.0, 1.3, -2.4, 0.5 + 0.5j):
        t, M = jacobi_transfer((1.0, 2.0), (0.0, 0.0), z)
        assert abs(t - (z * z / 2.0 - 2.5)) < 1e-12
        assert abs(np.linalg.det(M) - 1.0) < 1e-12


def test_jacobi_period2_band_edges():
    edges = jacobi_band_edges((1.0, 2.0), (0.0, 0.0))
    assert np.max(np.abs(np.array(edges) - [-3.0, -1.0, 1.0, 3.0])) < 1e-10


def test_jacobi_band_edges_keep_close_and_closed_gaps():
    # 2N edges always: a gap narrower than any scan grid cell, and a closed
    # gap counted as an equal pair
    edges = jacobi_band_edges((1.0, 1.0), (0.0, 1e-4))
    assert len(edges) == 4
    np.testing.assert_allclose(edges[1:3], [0.0, 1e-4], rtol=0, atol=1e-15)
    assert jacobi_band_edges((1.0, 1.0), (0.0, 0.0)) == [-2.0, 0.0, 0.0, 2.0]
    assert jacobi_band_edges((1.5,), (0.2,)) == [0.2 - 3.0, 0.2 + 3.0]


def test_jacobi_band_edges_solve_trace_levels():
    # each edge is a root of trace = +/-2; the periodic and antiperiodic
    # spectra give N edges at each level
    rng = np.random.default_rng(7)
    for period in range(1, 9):
        a, b = rng.uniform(0.5, 2.0, period), rng.uniform(-1.0, 1.0, period)
        edges = np.array(jacobi_band_edges(a, b))
        t = jacobi_transfer(a, b, edges)[0]
        assert edges.shape == (2 * period,) and np.all(np.diff(edges) >= 0)
        assert np.sum(t > 0) == np.sum(t < 0) == period
        assert np.max(np.abs(np.abs(t) - 2.0)) < 1e-9


def test_jacobi_free_magic():
    # T_1(J) = J for a = 1, b = 0, and J = S + S^{-1} on interior rows
    c = GmpCoefficients((), (1.0,), (0.0,))
    M = assemble(c, 40).to_dense()
    n = M.shape[0]
    shift = np.zeros((n, n))
    idx = np.arange(n - 1)
    shift[idx, idx + 1] = 1.0
    shift[idx + 1, idx] = 1.0
    assert np.max(np.abs(M - shift)) < 1e-15


def test_jacobi_transfer_validates_input():
    with pytest.raises(DomainError):
        jacobi_transfer((1.0, -2.0), (0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        jacobi_transfer((1.0, 2.0), (0.0,), 0.0)
    with pytest.raises(DomainError):
        jacobi_band_edges((), ())


def test_projection_below_rounding_floor_reports_stall():
    # tol = 1e-20 is below the residual's rounding floor: every restart stalls
    delta = RationalDiscriminant(
        1.3243905315095892,
        -0.9448817735138633,
        (
            (0.7612966136188739, -2.283134910582869),
            (0.9619876081506362, -0.3574393660939661),
            (1.689864668876795, 0.35880005298548445),
            (0.9365584454644904, 2.2817742236913503),
        ),
    )
    init = [0.02842224131579679, 0.5467129866124469, -0.7364540870016669, -0.16290994799305278,
            -0.48211931267997826, 0.5988462126346276, 0.03972210748165899, -0.2924567509650886]
    with pytest.raises(ConvergenceError) as exc_info:
        project_to_manifold(init, delta, tol=1e-20)
    assert str(exc_info.value) == "Newton stalled at residual 1.110e-16"
    assert exc_info.value.residual == 1.1102230246251565e-16


def _random_delta(rng, g):
    poles = np.cumsum(rng.uniform(0.5, 2.0, g)) - 0.6 * g
    terms = zip(rng.uniform(0.2, 2.0, g), poles)
    return RationalDiscriminant(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), tuple(terms))


def _lane_lambdas(pm, p, q):
    # every Lambda_k from the lane products: minus the trace of each lane's product
    m = iso._prefix_products(iso._lane_factors(pm, p, q))[:, -1]
    return -(m[:, 0, 0] + m[:, 1, 1])


def test_lane_factors_are_the_transfer_kernels_factors():
    # every lane factor is the one-factor product of _factor_product at z = c_k,
    # bit for bit: a pole factor, the rank-one factor on lane k = j, and the
    # infinity factor
    n = 0
    for seed in range(320):
        rng = np.random.default_rng(seed)
        g = 1 + seed % 8
        c = tuple(np.cumsum(rng.uniform(0.5, 2.0, g)) - 0.6 * g)
        p, q = rng.uniform(0.2, 1.5, g + 1), rng.uniform(-1.2, 1.2, g + 1)
        F = iso._lane_factors(iso._pole_matrices(c), p, q)
        for k in range(g):
            for j in range(g):
                want = _factor_product(c[k], (c[j],), (p[j],), (q[j],),
                                       rank_one=0 if j == k else None)
                assert F[k, j].ravel().tolist() == list(want), (seed, k, j)
            want = _factor_product(c[k], (), (p[g],), (q[g],))
            assert F[k, g].ravel().tolist() == list(want), (seed, k, g)
            n += 4 * (g + 1)
    assert n == 40 * 4 * sum(g * (g + 1) for g in range(1, 9))


@settings(deadline=None, max_examples=40)
@given(g=st.integers(0, 16), seed=st.integers(0, 2**32 - 1))
def test_lane_lambdas_match_lambda_k(g, seed):
    # the Newton residual's Lambda_k against the one every printed Lambda_k takes
    rng = np.random.default_rng(seed)
    poles = np.cumsum(rng.uniform(0.5, 2.0, g)) - 0.6 * g
    c = GmpCoefficients(tuple(poles), tuple(rng.uniform(0.2, 1.5, g + 1)),
                        tuple(rng.uniform(-1.2, 1.2, g + 1)))
    delta = RationalDiscriminant(1.0 / c.p[g], -c.q[g], tuple((1.0, ck) for ck in c.poles))
    head = np.array(c.p[:g] + c.q[:g])
    res, _ = iso._head_system(delta, iso._pole_matrices(delta.poles), head)
    got = res + np.array([lam for lam, _ in delta.terms])
    point = iso._coeffs_from_head(delta, head)
    want = np.array([lambda_k(point, k) for k in range(1, g + 1)])
    assert got.shape == (g,)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


@settings(deadline=None, max_examples=40)
@given(g=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_head_jacobian_matches_central_difference(g, seed):
    rng = np.random.default_rng(seed)
    delta = _random_delta(rng, g)
    head = rng.normal(size=2 * g)
    pm = iso._pole_matrices(delta.poles)
    res, jacobian = iso._head_system(delta, pm, head)
    J = jacobian()
    lams = _lane_lambdas(pm, *iso._head_pq(delta, head))
    assert np.array_equal(res, lams - np.array([lam for lam, _ in delta.terms]))
    Jc = np.empty_like(J)
    for i in range(2 * g):
        step = np.zeros(2 * g)
        step[i] = 1e-5 * (1.0 + abs(head[i]))
        up, down = (iso._head_system(delta, pm, head + s)[0] for s in (step, -step))
        Jc[:, i] = (up - down) / (2.0 * step[i])
    assert J.shape == (g, 2 * g)
    assert np.max(np.abs(J - Jc)) <= 1e-6 * np.max(np.abs(Jc))


def _magic_verify_oracle(coeffs, delta, n_periods):
    # the full-matrix form: every n x n pole term, then the window
    g = coeffs.g
    A = assemble(coeffs, n_periods)
    dense = A.to_dense()
    n = A.n
    window = slice(n // 3, 2 * n // 3)
    evals, evecs = np.linalg.eigh(dense)
    D = delta.lambda0 * dense + delta.c0 * np.eye(n)
    for lam, c in delta.terms:
        D += (evecs * _pole_weights(evals, evecs, c, lam, window)) @ evecs.T
    w = g + 1
    shift = np.zeros((n, n))
    idx = np.arange(n - w)
    shift[idx, idx + w] = 1.0
    shift[idx + w, idx] = 1.0
    return float(np.max(np.abs((D - shift)[window, window])))


def _magic_lu_oracle(coeffs, delta, n_periods):
    # every pole term from a dense LU inverse: the reference where no pole
    # hits the section's spectrum, and the tighter one at g = 8
    dense = assemble(coeffs, n_periods).to_dense()
    n = dense.shape[0]
    D = delta.lambda0 * dense + delta.c0 * np.eye(n)
    for lam, c in delta.terms:
        D += lam * np.linalg.inv(c * np.eye(n) - dense)
    w = coeffs.g + 1
    idx = np.arange(n - w)
    D[idx, idx + w] -= 1.0
    D[idx + w, idx] -= 1.0
    return float(np.max(np.abs(D[n // 3 : 2 * n // 3, n // 3 : 2 * n // 3])))


def _on_and_off(g):
    rng = np.random.default_rng(g)
    delta = _random_delta(rng, g)
    on = project_to_manifold(rng.normal(size=2 * g), delta)
    return delta, on, GmpCoefficients(on.poles, on.p, np.array(on.q) + 0.1)


@pytest.mark.parametrize("g", [0, 1, 2, 4, 8])
def test_windowed_magic_matches_full_matrix_oracle(g):
    # at 1, 2, 3 and 5 periods the window covers part of a block
    delta, on, off = _on_and_off(g)
    for coeffs in (on, off):
        for periods in (1, 2, 3, 5, 30, 61) if g else (2, 3, 5, 30, 61):
            got = magic_verify(coeffs, delta, periods)
            if g <= 4:  # the eigh path erred 1.7e-13 at g = 8
                want = _magic_verify_oracle(coeffs, delta, periods)
                assert abs(got - want) <= 1e-13 * (1.0 + want)
            want = _magic_lu_oracle(coeffs, delta, periods)
            assert abs(got - want) <= 1e-13 * (1.0 + want)
    assert magic_verify(on, delta, 30) < 1e-6 < magic_verify(off, delta, 30)


_LATE_HIT_DELTA = RationalDiscriminant(1.0, 0.0, ((1.0, 5.0), (1.0, 0.0)))


@pytest.mark.parametrize("g", [1, 2, 4, 8])
def test_magic_verify_decomposes_only_where_a_pole_hits(eigh_calls, g):
    delta, on, off = _on_and_off(g)
    for coeffs in (on, off):
        magic_verify(coeffs, delta, 60)
    assert eigh_calls == []
    # an eigenvalue on c_1, localized at the boundary and deflated: the
    # value of the eigendecomposition path on the 11 periods of the short
    # section, bit for bit; the oracle's decomposition is the second call
    assert magic_verify(POINT1, DELTA1, 60) == _magic_verify_oracle(POINT1, DELTA1, 11)
    assert eigh_calls == [(22, 22), (22, 22)]
    with pytest.raises(DomainError, match="^pole 0.0 hits the truncation spectrum$"):
        magic_verify(LATE_HIT, _LATE_HIT_DELTA, 30)
    assert eigh_calls[2:] == [(45, 45)]


def test_magic_verify_is_the_same_float_at_every_section_length():
    # the window blocks of the resolvent do not depend on N, so neither
    # does the defect, bit for bit; where an eigenvalue lies on a pole the
    # eigendecomposition runs on the same short section, so neither does
    # the defect or the error there
    rng = np.random.default_rng(28)
    hit_sets = [(POINT1, DELTA1), random_hit_set(np.random.default_rng(1), 3)]
    assert [_near_pole_counts(c, 4 * c.g + 7, c.poles).tolist() for c, _ in hit_sets] == [
        [1], [1, 0, 0]]
    sets = []
    for g in range(1, 9):
        for _ in range(3):
            delta = _random_delta(rng, g)
            on = project_to_manifold(rng.normal(size=2 * g), delta)
            sets += [(on, delta), (GmpCoefficients(on.poles, on.p, tuple(v + 0.3 for v in on.q)),
                                   delta)]
    for i, (coeffs, delta) in enumerate(hit_sets + sets):
        # a DomainError of a hit set is compared as text; elsewhere it raises
        call = verdict if i < len(hit_sets) else lambda fn, *args: fn(*args)
        n0 = 4 * (coeffs.g + 1) + 3
        want = repr(call(magic_verify, coeffs, delta, n0))
        for n in rng.integers(n0 + 1, n0 + 81, 6).tolist():
            assert repr(call(magic_verify, coeffs, delta, n)) == want, (coeffs.g, n)


def test_structure_check_verdict_is_the_same_at_every_section_length():
    # the shortest section the check accepts, N0 = 4(g+1) + 3, already
    # gives the verdict of every longer one, and it is the verdict of the
    # Lambda_k positivity test.  With n_periods omitted the check reads N0;
    # up to g = 8 that is also the verdict at 40, gmp check's old default
    rng = np.random.default_rng(28)
    for g in [*range(1, 9), 9, 13, 16]:
        n0 = 4 * (g + 1) + 3
        for _ in range(10):
            coeffs = random_coeffs(rng, g)
            n = int(rng.integers(n0 + 1, n0 + 81))
            want = [check_shifted_inverse_structure(coeffs, k, n0) for k in range(1, g + 1)]
            got = [check_shifted_inverse_structure(coeffs, k, n) for k in range(1, g + 1)]
            assert got == want, (g, n)
            assert [check_shifted_inverse_structure(coeffs, k) for k in range(1, g + 1)] == want
            if g <= 8:
                assert [check_shifted_inverse_structure(coeffs, k, 40)
                        for k in range(1, g + 1)] == want, g
            assert lambda_positivity_test(coeffs)[0] == all(want), g


def test_hit_counts_match_eigenvalue_threshold():
    # the inertia counts at c -+ eps against the eigenvalues _pole_weights
    # marks as hit
    rng = np.random.default_rng(20)
    sets = [(POINT1, 30), (LATE_HIT, 30)]
    for g in (1, 2, 3, 4, 8):
        for _ in range(3):
            delta = _random_delta(rng, g)
            on = project_to_manifold(rng.normal(size=2 * g), delta)
            off = GmpCoefficients(on.poles, on.p, np.array(on.q) + rng.uniform(-0.5, 0.5, g + 1))
            sets += [(on, int(rng.integers(1, 40))), (off, int(rng.integers(1, 40)))]
    hits = 0
    for coeffs, periods in sets:
        evals = np.linalg.eigvalsh(assemble(coeffs, periods).to_dense())
        want = [np.sum(np.abs(c - evals) < 1e-9 * (1.0 + abs(c))) for c in coeffs.poles]
        got = _near_pole_counts(coeffs, periods, coeffs.poles)
        assert list(got) == want
        hits += sum(want)
    assert hits == 1 + 30



@pytest.mark.parametrize("periods", [1000, 10000, 10**6, 10**9])
def test_hit_counts_at_long_sections(periods):
    # every period of LATE_HIT puts an eigenvalue on c_2 = 0, and POINT1
    # has one boundary state on its pole, at any length; past 10^9 periods
    # LATE_HIT's band around c_2 (Lambda_2 = 0) also puts eigenvalues
    # within the threshold, 286 of them at 10^12
    assert _near_pole_counts(LATE_HIT, periods, LATE_HIT.poles).tolist() == [0, periods]
    assert _near_pole_counts(POINT1, periods, POINT1.poles).tolist() == [1]


@pytest.mark.parametrize("e", [5, 8, 10, 20, 80])
def test_hit_counts_on_badly_scaled_coefficients(e):
    # the spectrum's reproducer: its transfer matrix cancels terms near
    # 10^(3e), but the count near the pole stays right
    coeffs = GmpCoefficients((2.0,), (10.0**e, 1.0), (1.0, 0.0))
    evals = np.linalg.eigvalsh(assemble(coeffs, 3).to_dense())
    want = [np.sum(np.abs(c - evals) < 1e-9 * (1.0 + abs(c))) for c in coeffs.poles]
    assert _near_pole_counts(coeffs, 3, coeffs.poles).tolist() == want


def test_hit_counts_on_tiny_coefficients_emit_no_warning():
    # poles, p and q scaled by 1e-160: the transfer matrix overflows past
    # the first block of _transfer_phase, which warned at the t12 * t22
    # sign test and in _hyperbolic_phase
    c = random_coeffs(np.random.default_rng(3), 3)
    tiny = GmpCoefficients(*(tuple(np.array(v) * 1e-160) for v in (c.poles, c.p, c.q)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _near_pole_counts(tiny, 40, tiny.poles).tolist() == [120, 120, 120]
        with pytest.raises(DomainError, match="^pole .* hits the truncation spectrum"):
            check_shifted_inverse_structure(tiny, 1, 40)
        with pytest.raises(DomainError, match="^the spectrum lost accuracy"):
            spectrum_truncation(tiny, 40)


def test_magic_verify_decomposes_where_the_transfer_matrix_overflows(eigh_calls):
    # with p_g = 1e-300 the count cannot be taken, so the pole terms come
    # from the eigendecomposition path, bit for bit
    coeffs = GmpCoefficients((2.0,), (1.0, 1e-300), (1.0, 0.0))
    delta = RationalDiscriminant(1.0, 0.0, ((1.0, 2.0),))
    with pytest.raises(DomainError, match="^the transfer matrix overflows float64"):
        _near_pole_counts(coeffs, 3, coeffs.poles)
    want = _magic_verify_oracle(coeffs, delta, 3)
    assert magic_verify(coeffs, delta, 3) == want
    assert eigh_calls == [(6, 6), (6, 6)]  # the oracle's, then magic_verify's

def test_projection_and_trace_make_no_scalar_transfer_product(monkeypatch):
    # residuals and Jacobians come from the lane products; only the positivity
    # check of the accepted point takes g scalar products, one per lambda_k
    calls = []
    for mod in (importlib.import_module("gmpmat.transfer"), iso):
        product = mod._factor_product
        monkeypatch.setattr(mod, "_factor_product",
                            lambda *args, _f=product, **kw: calls.append(1) or _f(*args, **kw))
    delta = _random_delta(np.random.default_rng(4), 4)
    pt = project_to_manifold(np.random.default_rng(5).normal(size=8), delta)
    assert len(calls) == 4
    assert lambda_k(pt, 1) > 0 and len(calls) == 5  # the patch sees a lambda_k call
    points = trace_torus(pt, delta, steps=5, step_len=0.05)
    assert len(points) == 6 and len(calls) == 5


@pytest.mark.parametrize(
    "coeffs",
    [GmpCoefficients((), (1.0,), (0.0,)), GmpCoefficients((1.5,), (1.0, 1.0), (0.0, 0.0))],
    ids=["g0", "poles"],
)
def test_magic_and_trace_require_matching_poles(coeffs):
    # a g = 0 point gave a magic defect of 1.0000000000000053 against DELTA1,
    # and poles (1.5,) against (1.0,) gave 1.289
    msg = "coefficients and discriminant must share the pole list"
    with pytest.raises(DomainError, match=msg):
        magic_verify(coeffs, DELTA1, 60)
    with pytest.raises(DomainError, match=msg):
        trace_torus(coeffs, DELTA1, steps=2, step_len=0.05)
