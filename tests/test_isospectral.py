import numpy as np
import pytest

from gmpmat import (
    ConvergenceError,
    DomainError,
    GmpCoefficients,
    RationalDiscriminant,
    bands,
    forced_tail,
    jacobi_band_edges,
    jacobi_coeffs,
    jacobi_transfer,
    magic_verify,
    manifold_residual,
    project_to_manifold,
    spectrum_truncation,
    trace_torus,
)
from gmpmat.transfer import discriminant_coeffs


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


def test_jacobi_coeffs_at_origin():
    a, b = jacobi_coeffs(POINT1)
    assert abs(a - np.sqrt(2.0)) < 1e-14
    assert b == 0.0


def test_jacobi_period2_trace():
    for z in (0.0, 1.3, -2.4, 0.5 + 0.5j):
        t, M = jacobi_transfer((1.0, 2.0), (0.0, 0.0), z)
        assert abs(t - (z * z / 2.0 - 2.5)) < 1e-12
        assert abs(np.linalg.det(M) - 1.0) < 1e-12


def test_jacobi_period2_band_edges():
    edges = jacobi_band_edges((1.0, 2.0), (0.0, 0.0))
    assert np.max(np.abs(np.array(edges) - [-3.0, -1.0, 1.0, 3.0])) < 1e-10


def test_jacobi_free_magic():
    # T_1(J) = J for a = 1, b = 0, and J = S + S^{-1} on interior rows
    c = GmpCoefficients((), (1.0,), (0.0,))
    from gmpmat.gmp import assemble

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
