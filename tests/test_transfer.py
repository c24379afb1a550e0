import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmpmat import (
    DomainError,
    GmpCoefficients,
    discriminant_coeffs,
    discriminant_of,
    lambda_k,
    lambda_k_residue,
    mirror_transfer,
    transfer,
    transfer_from_resolvent,
)
from conftest import factor_infinity, factor_pole, random_coeffs, random_point


def test_factor_determinants():
    assert abs(np.linalg.det(factor_infinity(0.3 + 0.2j, 1.5, -0.7)) - 1.0) < 1e-14
    assert abs(np.linalg.det(factor_pole(0.3 + 0.2j, 2.0, 1.5, -0.7)) - 1.0) < 1e-14


def test_pole_factor_singular_at_pole():
    with pytest.raises(DomainError):
        factor_pole(2.0, 2.0, 1.0, 1.0)


def _factor_norm_product(c, z):
    """Product of the infinity norms of the factors of T(z): a bound on
    every partial product, so on the size of its rounding errors."""
    factors = [factor_pole(z, ck, pk, qk) for ck, pk, qk in zip(c.poles, c.p, c.q)]
    factors.append(factor_infinity(z, c.p[-1], c.q[-1]))
    return np.prod([np.abs(F).sum(axis=1).max() for F in factors])


# Rounding the product moves det T by about eps K^2, K the factor norm
# product, which near a pole is far above 1e-10.  The largest
# (|det T - 1| - 1e-10) / (eps K^2) seen was 0.63, over 737,584 points:
# seeds 0..10,000 at uniform z and at z 1e-6..1e-2 off each pole.
_DET_ROUNDING_C = 2.0


@settings(deadline=None, max_examples=50)
@given(
    zr=st.floats(-3.0, 3.0),
    zi=st.floats(-3.0, 3.0),
    seed=st.integers(0, 10_000),
)
@example(zr=0.48046875, zi=0.0, seed=9667)  # 5.9e-4 from a pole: det 1 - 5.1e-10
def test_transfer_unimodular(zr, zi, seed):
    c = random_coeffs(np.random.default_rng(seed))
    z = complex(zr, zi)
    if any(abs(z - ck) < 1e-6 for ck in c.poles):
        return
    bound = 1e-10 + _DET_ROUNDING_C * np.finfo(float).eps * _factor_norm_product(c, z) ** 2
    assert abs(np.linalg.det(transfer(c, z)) - 1.0) < bound


def test_worked_discriminant_free_style():
    c = GmpCoefficients((1.0,), (1.0, 1.0), (0.0, 0.0))
    for z in (0.3, -1.7, 0.4 + 0.9j):
        want = z + 1.0 / (1.0 - z)
        assert abs(discriminant_of(c, z) - want) < 1e-12


def test_worked_discriminant_shifted():
    c = GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))
    for z in (0.3, -1.7, 0.4 + 0.9j):
        want = z - 1.0 + 4.0 / (2.0 - z)
        assert abs(discriminant_of(c, z) - want) < 1e-12


def test_lambda_sign_examples():
    assert abs(lambda_k(GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0)), 1) - 4.0) < 1e-12
    assert abs(lambda_k(GmpCoefficients((5.0,), (1.0, 1.0), (-1.0, 0.0)), 1) + 3.0) < 1e-12


def test_lambda_matches_residue_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        c = random_coeffs(rng)
        for k in range(1, c.g + 1):
            assert abs(lambda_k(c, k) - lambda_k_residue(c, k)) < 1e-8


def test_g1_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(10):
        c = random_coeffs(rng, g=1)
        (p0, q0), (p1, q1) = zip(c.p, c.q)
        c1 = c.poles[0]
        want = p0**2 / p1 + q0**2 * p1 + p0 * q0 * (c1 - p1 * q1) / p1
        assert abs(lambda_k(c, 1) - want) < 1e-12


def test_discriminant_coeffs_expansion():
    rng = np.random.default_rng(17)
    for _ in range(10):
        c = random_coeffs(rng)
        dc = discriminant_coeffs(c)
        for z in (0.05 + 1.3j, -2.1 + 0.4j):
            series = dc.nu0 * z + dc.d0 + sum(
                nu / (ck - z) for nu, ck in zip(dc.nus, c.poles)
            )
            assert abs(series - discriminant_of(c, z)) < 1e-10
        assert abs(dc.nu0 - 1.0 / c.p[-1]) < 1e-14


def test_product_route_equals_resolvent_route():
    rng = np.random.default_rng(23)
    for _ in range(30):
        c = random_coeffs(rng)
        z = random_point(rng)
        M = transfer(c, z)
        Mr = transfer_from_resolvent(c, z)
        assert np.max(np.abs(M - Mr)) < 1e-10 * max(1.0, np.max(np.abs(M)))


def test_mirror_entry_relations():
    rng = np.random.default_rng(29)
    for _ in range(30):
        c = random_coeffs(rng)
        z = random_point(rng)
        M = transfer(c, z)
        Mm = mirror_transfer(c, z)
        scale = max(1.0, np.max(np.abs(M)))
        assert abs(M[0, 0] - Mm[0, 0]) < 1e-12 * scale
        assert abs(M[0, 1] + Mm[1, 0]) < 1e-12 * scale
        assert abs(M[1, 0] + Mm[0, 1]) < 1e-12 * scale
        assert abs(M[1, 1] - Mm[1, 1]) < 1e-12 * scale


def test_lambda_k_index_range():
    c = GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))
    with pytest.raises(DomainError):
        lambda_k(c, 0)
    with pytest.raises(DomainError):
        lambda_k(c, 2)


def test_lambda_k_residue_index_range():
    c = GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))
    for k in (0, 2):
        with pytest.raises(DomainError, match=r"^k must be in 1\.\.1$"):
            lambda_k_residue(c, k)


def test_resolvent_route_refuses_a_singular_block():
    # g = 0: B is the 1x1 block p_0 q_0 = 1.5
    with pytest.raises(DomainError, match="^B - z is singular$"):
        transfer_from_resolvent(GmpCoefficients((), (2.0,), (0.75,)), 1.5)


def test_resolvent_route_refuses_z_on_a_pole():
    # at a pole c, R(c, p, g) = e_g^T (B - c)^{-1} p vanishes
    c = GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))
    with pytest.raises(DomainError, match=r"^R\(z, p, g\) vanishes; retry at a perturbed z$"):
        transfer_from_resolvent(c, 2.0)


def test_d0_within_its_bound_of_the_blas_dot():
    # d0 sums with math.fsum; numpy's BLAS dot (FMA where the host has it)
    # rounds differently, within 4 eps (|q_g| + nu0 sum |p_j q_j|): worst
    # measured 2.2 eps over 120,000 sets with g = 0-9
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    worst = 0.0
    for i in range(3000):
        c = random_coeffs(rng, g=i % 10)
        p, q = np.array(c.p), np.array(c.q)
        g = c.g
        dc = discriminant_coeffs(c)
        want = -q[g] - dc.nu0 * float(np.dot(p[:g], q[:g]))
        scale = abs(q[g]) + dc.nu0 * float(np.sum(np.abs(p[:g] * q[:g])))
        worst = max(worst, abs(dc.d0 - want) / (eps * scale))
        assert type(dc.nu0) is float and dc.nu0 == 1.0 / c.p[g]
    assert worst <= 4.0
