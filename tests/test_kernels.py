import re

import numpy as np
import pytest

from gmpmat import DomainError, _kernels, transfer
from gmpmat.transfer import discriminant_of
from conftest import factor_infinity, factor_pole, random_coeffs


def _grid(rng, n=64):
    return rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(0.1, 2.0, n)


def _factor_matrices(c, z):
    mats = [factor_pole(z, ck, pk, qk) for ck, pk, qk in zip(c.poles, c.p, c.q)]
    return mats + [factor_infinity(z, c.p[-1], c.q[-1])]


def test_core_matches_factor_matrix_product():
    rng = np.random.default_rng(1)
    S = np.diag([1.0, -1.0])
    for _ in range(5):
        c = random_coeffs(rng)
        zs = _grid(rng, 16)
        grid = _kernels._factor_product(zs, c.poles, c.p, c.q)
        mirror = _kernels._factor_product(zs, c.poles, c.p, c.q, mirror=True)
        for i, z in enumerate(zs):
            mats = _factor_matrices(c, complex(z))
            want = np.linalg.multi_dot([np.eye(2)] + mats)
            want_mirror = np.linalg.multi_dot(
                [np.eye(2)] + [S @ F.T @ S for F in reversed(mats)]
            )
            scalar = _kernels._factor_product(complex(z), c.poles, c.p, c.q)
            assert all(isinstance(v, complex) for v in scalar)
            scale = 1.0 + np.max(np.abs(want))
            for got in (scalar, [m[i] for m in grid]):
                assert np.max(np.abs(np.reshape(got, (2, 2)) - want)) < 1e-12 * scale
            got_mirror = np.reshape([m[i] for m in mirror], (2, 2))
            assert np.max(np.abs(got_mirror - want_mirror)) < 1e-12 * scale


def _mirror_product_oracle(z, poles, p, q, rank_one=None):
    """The mirrored product with its own 4-entry expression: each factor's
    mirror S F^T S = [[f11, -f21], [-f12, f22]] multiplies from the left."""
    array = not isinstance(z, (int, float, complex))
    zero = 0.0 * z
    m11, m12, m21, m22 = 1.0 + zero, zero, zero, 1.0 + zero
    for j, (pj, qj) in enumerate(zip(p, q)):
        pq = pj * qj
        if j == rank_one:
            f11, f12, f21, f22 = pq, -pj * pj, qj * qj, -pq
        elif j < len(poles):
            c = poles[j]
            if (z == c).any() if array else z == c:
                raise DomainError(f"transfer matrix evaluated at pole c = {c}")
            u = 1.0 / (c - z)
            f11, f12, f21, f22 = 1.0 - u * pq, u * (pj * pj), -u * (qj * qj), 1.0 + u * pq
        else:
            f11, f12, f21, f22 = 0.0, -pj, 1.0 / pj, (z - pq) / pj
        m11, m12, m21, m22 = (
            f11 * m11 - f21 * m21,
            f11 * m12 - f21 * m22,
            f22 * m21 - f12 * m11,
            f22 * m22 - f12 * m12,
        )
    return m11, m12, m21, m22


@pytest.mark.parametrize("rank_one", [None, 0])
def test_mirror_fold_equals_explicit_mirrored_product(rank_one):
    # the mirrored factor, swapped in as the left operand of the one product
    # expression, computes the same sums: equal in value, and bit for bit on
    # real z (on complex z an exact zero part may differ in its sign only)
    rng = np.random.default_rng(8)
    for _ in range(200):
        c = random_coeffs(rng, g_max=8)
        xs = rng.uniform(-3.0, 3.0, 8)
        zs = _grid(rng, 8)
        for z in [float(x) for x in xs] + [complex(w) for w in zs] + [xs, zs]:
            got = _kernels._factor_product(z, c.poles, c.p, c.q, mirror=True, rank_one=rank_one)
            want = _mirror_product_oracle(z, c.poles, c.p, c.q, rank_one)
            for g_entry, w_entry in zip(got, want):
                assert np.all(g_entry == w_entry)
                if not np.iscomplexobj(z):
                    assert np.asarray(g_entry).tobytes() == np.asarray(w_entry).tobytes()


def test_core_infinity_factors_only():
    # period-3 Jacobi chain: no pole factors, three infinity factors
    p, q = (1.0, 0.5, 2.0), (0.3, -0.4, 0.1)
    zs = np.linspace(-2.0, 2.0, 9)
    m = _kernels._factor_product(zs, (), p, q)
    for i, z in enumerate(zs):
        want = np.linalg.multi_dot(
            [factor_infinity(z, pj, qj) for pj, qj in zip(p, q)]
        )
        assert np.max(np.abs(np.reshape([e[i] for e in m], (2, 2)) - want)) < 1e-13


def test_core_rejects_grid_through_pole():
    c = random_coeffs(np.random.default_rng(4), g=2)
    zs = np.array([c.poles[0] - 1.0, c.poles[1], c.poles[1] + 1.0])
    with pytest.raises(DomainError, match="pole"):
        _kernels.discriminant_grid(c, zs)


def test_grid_matches_pointwise_transfer():
    rng = np.random.default_rng(2)
    c = random_coeffs(rng, g=2)
    zs = _grid(rng, 16)
    tr = _kernels.discriminant_grid(c, zs)
    for i, z in enumerate(zs):
        M = transfer(c, complex(z))
        assert abs(M[0, 0] + M[1, 1] - tr[i]) < 1e-12


def test_discriminant_grid_unit_determinant():
    rng = np.random.default_rng(3)
    c = random_coeffs(rng)
    zs = _grid(rng)
    m11, m12, m21, m22 = _kernels._factor_product(zs, c.poles, c.p, c.q)
    det = m11 * m22 - m12 * m21
    assert np.max(np.abs(det - 1.0)) < 1e-10
    tr = _kernels.discriminant_grid(c, zs)
    assert np.max(np.abs(tr - (m11 + m22))) == 0.0


# discriminant_of hands an ndarray to discriminant_grid; both are pinned
_GRID_TRACES = pytest.mark.parametrize(
    "trace", [_kernels.discriminant_grid, discriminant_of], ids=lambda f: f.__name__
)


@pytest.mark.parametrize("n", [1, _kernels._BLOCK_POINTS, 2 * _kernels._BLOCK_POINTS + 3])
@_GRID_TRACES
def test_blocked_grid_equals_one_core_call(trace, n):
    rng = np.random.default_rng(5)
    c = random_coeffs(rng, g=3)
    zs = _grid(rng, n)
    got = trace(c, zs)
    m11, _, _, m22 = _kernels._factor_product(zs, c.poles, c.p, c.q)
    assert got.shape == (n,)
    assert np.array_equal(got, m11 + m22)


@_GRID_TRACES
def test_blocked_grid_names_pole_hit_in_second_block(trace):
    c = random_coeffs(np.random.default_rng(6), g=2)
    zs = np.full(2 * _kernels._BLOCK_POINTS + 3, 0.5j)
    # c_1 is checked before c_2, so its hit in block 2 is reported even
    # though block 1 already hits c_2, as for one core call over the grid
    zs[3] = c.poles[1]
    zs[_kernels._BLOCK_POINTS + 7] = c.poles[0]
    with pytest.raises(DomainError, match=re.escape(f"pole c = {c.poles[0]}")):
        trace(c, zs)


def test_real_grid_stays_real_and_equals_scalar_path():
    # a real grid is multiplied out in float, the arithmetic of the scalar
    # discriminant_of at each point, so the values agree bit for bit
    rng = np.random.default_rng(7)
    c = random_coeffs(rng, g=3)
    xs = np.linspace(-3.0, 3.0, 2001)
    tr = _kernels.discriminant_grid(c, xs)
    assert tr.dtype == np.float64
    assert tr.tolist() == [discriminant_of(c, float(x)) for x in xs]
    zs = _grid(rng, 16)  # a complex grid keeps the complex core
    m11, _, _, m22 = _kernels._factor_product(zs, c.poles, c.p, c.q)
    assert np.array_equal(_kernels.discriminant_grid(c, zs), m11 + m22)


def _wide_complex(rng, n):
    """Complex values with parts of mixed sign over 20 decades, and some 0 parts."""
    parts = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-10, 10, (n, 2))
    parts[rng.random((n, 2)) < 0.05] = 0.0
    return [complex(re, im) for re, im in parts]


def test_cdiv_rounds_as_numpy_divides():
    rng = np.random.default_rng(11)
    a, b = _wide_complex(rng, 4000), _wide_complex(rng, 4000)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = [np.complex128(x) / np.complex128(y) for x, y in zip(a, b)]
    for x, y, w in zip(a, b, want):
        if y == 0:
            with pytest.raises(ZeroDivisionError):
                _kernels._cdiv(x, y)
        else:
            got = _kernels._cdiv(x, y)
            assert (got.real.hex(), got.imag.hex()) == (w.real.hex(), w.imag.hex())


def test_sqrt_rounds_as_numpy():
    rng = np.random.default_rng(12)
    xs = _wide_complex(rng, 4000) + [complex(0.0, v) for v in rng.normal(size=200)]
    want = [np.sqrt(np.complex128(x)) for x in xs]
    for x, w in zip(xs, want):
        got = _kernels._sqrt(x)
        assert (got.real.hex(), got.imag.hex()) == (w.real.hex(), w.imag.hex())


def test_dot_within_eps_of_exact_sum():
    from fractions import Fraction

    rng = np.random.default_rng(13)
    for g in range(12):
        x, y = rng.normal(size=(2, g)) * 10.0 ** rng.uniform(-3, 3, (2, g))
        exact = sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))
        bound = np.finfo(float).eps * float(np.sum(np.abs(x * y)))
        assert abs(Fraction(_kernels._dot(x.tolist(), y.tolist())) - exact) <= bound


@pytest.mark.parametrize("x, y, want", [([1e200, 1e200], [1e200, -1e200], "nan"),  # inf - inf
                                        ([1e308, 1e308], [1.0, 1.0], "inf"),
                                        ([1e308, 1e308, -1e308], [1.0, 1.0, 1.0], "inf")])
def test_dot_past_the_float_range_is_the_plain_sum(x, y, want):
    # math.fsum raises ValueError or OverflowError here; a BLAS dot gives inf or
    # NaN too, which one depending on whether it fuses the multiply-add
    assert repr(_kernels._dot(x, y)) == want
