import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmpmat import (
    DomainError,
    GmpCoefficients,
    ResolventValue,
    bands,
    reflectionless_check,
    resolvent_pair,
    solve_discriminant,
    transfer,
    truncation_resolvent_oracle,
)
from gmpmat._kernels import _cdiv, _dot, _factor_product, _sqrt
from gmpmat.transfer import discriminant_coeffs, discriminant_of
from gmpmat.discriminant import RationalDiscriminant
from conftest import random_coeffs, random_point


def _gmp_point():
    # on-manifold point for Delta(z) = z - 1 + 4/(2 - z)
    return GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))


def test_free_case_semicircle():
    c = GmpCoefficients((), (1.0,), (0.0,))
    rv = resolvent_pair(c, 0.0 + 1e-8j)
    # m-function of the free Jacobi half line at 0 is i
    assert abs(rv.r_plus - 1j) < 1e-6


@settings(deadline=None, max_examples=50)
@given(
    zr=st.floats(-3.0, 3.0),
    zi=st.floats(1e-2, 3.0),
    seed=st.integers(0, 10_000),
)
def test_herglotz_signs(zr, zi, seed):
    c = random_coeffs(np.random.default_rng(seed))
    z = complex(zr, zi)
    if any(abs(zr - ck) < 1e-4 for ck in c.poles):
        return
    rv = resolvent_pair(c, z)
    assert rv.r_plus.imag > 0
    assert rv.r_minus_inv.imag < 0


def test_conjugate_symmetry():
    c = _gmp_point()
    z = 0.4 + 1.3j
    up = resolvent_pair(c, z)
    dn = resolvent_pair(c, z.conjugate())
    assert abs(up.r_plus - np.conj(dn.r_plus)) < 1e-12
    assert abs(up.r_minus_inv - np.conj(dn.r_minus_inv)) < 1e-12


def test_matches_truncation_oracle():
    rng = np.random.default_rng(41)
    c = _gmp_point()
    for _ in range(5):
        z = random_point(rng, box=2.0, min_imag=1.0)
        rv = resolvent_pair(c, z)
        rp_num, rm_num = truncation_resolvent_oracle(c, z)
        assert abs(rv.r_plus / rv.a0**2 - rp_num) < 1e-6
        assert abs(1.0 / rv.r_minus_inv - rm_num) < 1e-6


def test_reflectionless_on_bands_not_in_gaps():
    c = _gmp_point()
    dc = discriminant_coeffs(c)
    delta = RationalDiscriminant(dc.nu0, dc.d0, tuple(zip(dc.nus, c.poles)))
    E = bands(delta)
    for lo, hi in E.bands:
        mid = 0.5 * (lo + hi)
        d6 = reflectionless_check(c, mid, eps=1e-6)
        d7 = reflectionless_check(c, mid, eps=1e-7)
        assert d6 < 1e-3
        assert d7 < d6 / 5.0
    gap_mid = 0.5 * (E.gaps[0][0] + E.gaps[0][1])
    assert reflectionless_check(c, gap_mid, eps=1e-6) > 1e-2


def test_reflectionless_rejects_bad_eps():
    with pytest.raises(DomainError):
        reflectionless_check(_gmp_point(), 0.0, eps=0.0)


def test_oracle_rejects_real_z():
    with pytest.raises(DomainError):
        truncation_resolvent_oracle(_gmp_point(), 1.5)


def _resolvent_pair_perturbed(coeffs, z):
    """resolvent_pair as it was before the trace rule: a lane with two real
    roots takes the branch of the limit from above, the transfer matrix
    evaluated a second time at z + 1e-9 (1 + |z|) i.  Kept as an oracle."""
    def quadratic(z):
        M = transfer(coeffs, z)
        tr = M[0, 0] + M[1, 1]
        return M[0, 0] - M[1, 1], np.sqrt(tr * tr - 4.0 + 0.0j), M[1, 0]

    scalar = not isinstance(z, np.ndarray)
    z = complex(z) if scalar else z.astype(complex, copy=False)
    V, s, a21 = quadratic(z)
    if (np.abs(a21) < 1e-14 * (1.0 + np.abs(V))).any():
        raise DomainError("transfer entry m21 vanishes; retry at a perturbed z")
    c0, c1 = (V + s) / (2.0 * a21), (V - s) / (2.0 * a21)
    plus_first = c0.imag > c1.imag
    gap = c0.imag == c1.imag
    if gap.any():
        Vu, su, a21u = quadratic(z + 1j * (1e-9 * (1.0 + np.abs(z))))
        plus_first = np.where(gap, ((Vu + su) / (2.0 * a21u)).imag > 0, plus_first)
    plus_first = plus_first != (z.imag < 0)
    r_plus, r_minus_inv = np.where(plus_first, c0, c1), np.where(plus_first, c1, c0)
    if scalar:
        return complex(r_plus), complex(r_minus_inv), bool(gap)
    return r_plus, r_minus_inv, gap


@pytest.mark.parametrize("offset", [0.0, 1e-12j, 1e-6j, 1j, -0.5j])
def test_gap_branch_matches_perturbed_oracle(offset):
    # bit for bit over grids through bands, gaps and poles' neighbourhoods
    lanes = 0  # lanes with two real roots
    for seed in range(40):
        rng = np.random.default_rng(seed)
        c = random_coeffs(rng, g=seed % 5)
        zs = np.linspace(-4.0, 4.0, 2001) + offset
        rv = resolvent_pair(c, zs)
        r_plus, r_minus_inv, gap = _resolvent_pair_perturbed(c, zs)
        lanes += gap.sum()
        assert np.array_equal(rv.r_plus.view(np.int64), r_plus.view(np.int64))
        assert np.array_equal(rv.r_minus_inv.view(np.int64), r_minus_inv.view(np.int64))
        # the scalar path, at a lane with two real roots where there is one
        z = complex(zs[np.argmax(gap)] if gap.any() else zs[int(rng.integers(zs.size))])
        one = resolvent_pair(c, z)
        assert repr((one.r_plus, one.r_minus_inv)) == repr(_resolvent_pair_perturbed(c, z)[:2])
    if offset == 0.0:
        assert lanes > 0


def test_a0_and_defect_within_their_bounds_of_the_blas_norm():
    # a0 = sqrt(math.fsum(p_j^2)) against np.linalg.norm (a BLAS dot): within
    # 2 eps a0, worst measured 1.35 eps over 120,000 sets with g = 0-9.  The
    # defect |a0^2/r_+ - a0^2/conj(r_-)| moves with a0^2 only: within
    # 8 eps (|a0^2/r_+| + |a0^2/conj(r_-)|), worst measured 3.7 eps.  The
    # scalar and the array path share a0.
    rng = np.random.default_rng(37)
    eps = np.finfo(float).eps
    worst_a0 = worst_defect = 0.0
    for i in range(3000):
        c = random_coeffs(rng, g=i % 10)
        x, e = rng.uniform(-4.0, 4.0), 10.0 ** rng.uniform(-9, 0)
        rv = resolvent_pair(c, complex(x, e))
        assert rv.a0 == resolvent_pair(c, np.array([complex(x, e)])).a0
        a0 = float(np.linalg.norm(c.p))
        worst_a0 = max(worst_a0, abs(rv.a0 - a0) / (eps * a0))
        q1, q2 = a0 * a0 / rv.r_plus, a0 * a0 / np.conj(rv.r_minus_inv)
        defect = reflectionless_check(c, x, e)
        worst_defect = max(worst_defect, abs(defect - abs(q1 - q2)) / (eps * (abs(q1) + abs(q2))))
    assert worst_a0 <= 2.0 and worst_defect <= 8.0


def _resolvent_point(coeffs, z):
    """resolvent_pair's former scalar body, in Python arithmetic: the square
    root and the quotient rounded as numpy's scalars round.  Kept as an oracle."""
    m11, _, m21, m22 = _factor_product(z, coeffs.poles, coeffs.p, coeffs.q)
    tr, V = m11 + m22, m11 - m22
    s = _sqrt(tr * tr - 4.0 + 0.0j)
    if abs(m21) < 1e-14 * (1.0 + abs(V)):
        raise DomainError("transfer entry m21 vanishes; retry at a perturbed z")
    den = 2.0 * m21
    c0, c1 = _cdiv(V + s, den), _cdiv(V - s, den)
    plus_first = tr.real > 0 if c0.imag == c1.imag else c0.imag > c1.imag
    if plus_first == (z.imag < 0):
        c0, c1 = c1, c0
    return c0, c1, math.sqrt(_dot(coeffs.p, coeffs.p))


def _resolvent_array(coeffs, z):
    """resolvent_pair's former array body, in numpy's elementwise
    arithmetic.  Kept as an oracle."""
    z = z.astype(complex, copy=False)
    m11, _, m21, m22 = _factor_product(z, coeffs.poles, coeffs.p, coeffs.q)
    tr, V = m11 + m22, m11 - m22
    s = np.sqrt(tr * tr - 4.0 + 0.0j)
    if (np.abs(m21) < 1e-14 * (1.0 + np.abs(V))).any():
        raise DomainError("transfer entry m21 vanishes; retry at a perturbed z")
    c0, c1 = (V + s) / (2.0 * m21), (V - s) / (2.0 * m21)
    gap = c0.imag == c1.imag
    plus_first = np.where(gap, tr.real > 0, c0.imag > c1.imag)
    plus_first = plus_first != (z.imag < 0)
    r_plus, r_minus_inv = np.where(plus_first, c0, c1), np.where(plus_first, c1, c0)
    return r_plus, r_minus_inv, math.sqrt(_dot(coeffs.p, coeffs.p))


def _outcome(f, coeffs, z):
    """repr of (r_plus, r_minus_inv, a0), arrays of z as lists, or the DomainError text."""
    try:
        out = f(coeffs, z)
    except DomainError as e:
        return f"DomainError: {e}"
    if isinstance(out, ResolventValue):
        out = (out.r_plus, out.r_minus_inv, out.a0)
    return repr(tuple(v.tolist() if isinstance(v, np.ndarray) and v.ndim else v for v in out))


def test_one_body_keeps_the_bits_of_both_former_bodies():
    # A scalar z keeps the scalar body's bits and an ndarray z the array
    # body's, with the same error text at a pole and where m21 vanishes:
    # z in both half-planes, |Im z| = 1e-9, and real z in bands and gaps.
    rng = np.random.default_rng(32)
    counts = {"scalar": 0, "array": 0, "band": 0, "gap": 0, "pole": 0, "m21": 0, "array errors": 0}
    for i in range(420):
        g = i % 6
        c = random_coeffs(rng, g=g)
        x = rng.uniform(-4.0, 4.0, 30)
        y = 10.0 ** rng.uniform(-3.0, 0.5, 20) * rng.choice([-1.0, 1.0], 20)
        zs = [complex(a, b) for a, b in zip(x[:20], y)]
        zs += [complex(a, 1e-9 * s) for a, s in zip(x[20:], [1.0, -1.0] * 5)]
        reals = rng.uniform(-4.0, 4.0, 20).tolist()
        zs += reals[:10] + [complex(a, 0.0) for a in reals[10:]]
        zs += list(c.poles)
        tr = discriminant_of(c, np.array(reals))
        counts["band"] += int((np.abs(tr) <= 2.0).sum())
        counts["gap"] += int((np.abs(tr) > 2.0).sum())
        if g == 1:  # m22 of the pole factor is 0 at z = c + p0 q0, so m21 is 0
            c = GmpCoefficients(c.poles, (1.0, c.p[1]), (0.5 * (i % 7 + 1), c.q[1]))
            zs.append(c.poles[0] + 0.5 * (i % 7 + 1))
        for z in zs:
            want = _outcome(_resolvent_point, c, complex(z))
            assert _outcome(resolvent_pair, c, z) == want, (i, z)
            counts["scalar"] += 1
            counts["pole"] += want.startswith("DomainError: transfer matrix evaluated at pole")
            counts["m21"] += want.startswith("DomainError: transfer entry m21")
        # the last array holds every pole or, at g = 1, the m21 point alone
        arrays = [np.array(zs[:50]).reshape(5, 10), np.array(reals), np.array(zs[:50] + zs[-1:])]
        for zarr in arrays:
            want = _outcome(_resolvent_array, c, zarr)
            assert _outcome(resolvent_pair, c, zarr) == want, i
            counts["array"] += 1
            counts["array errors"] += want.startswith("DomainError")
    assert counts["scalar"] >= 20_000 and counts["array"] >= 200, counts
    assert min(counts["band"], counts["gap"], counts["pole"], counts["m21"]) >= 50, counts
    assert counts["array errors"] == 350, counts  # every set with g >= 1
