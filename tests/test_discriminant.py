from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmpmat import discriminant as dm
from gmpmat.isospectral import _damped_newton
from gmpmat import (
    ConvergenceError,
    DomainError,
    FiniteGapSet,
    RationalDiscriminant,
    ahlfors_eval,
    bands,
    eval_discriminant,
    solve_discriminant,
)
from conftest import random_gap_set


def _edges(E):
    """All 2g+2 band edges of E with their targets: Delta(a) = 2, Delta(b) = -2."""
    pts = [(E.b0, -2.0), (E.a0, 2.0)]
    for a, b in E.gaps:
        pts += [(a, 2.0), (b, -2.0)]
    return pts


def test_interval_validation():
    with pytest.raises(DomainError):
        FiniteGapSet(2.0, -2.0)
    with pytest.raises(DomainError):
        FiniteGapSet(-2.0, 2.0, ((1.0, 0.5),))
    with pytest.raises(DomainError):
        FiniteGapSet(-2.0, 2.0, ((-1.0, 0.0), (-0.5, 1.0)))
    with pytest.raises(DomainError):
        FiniteGapSet(-2.0, 2.0, ((0.0, 3.0),))


def test_bands_and_edges_properties():
    E = FiniteGapSet(-2.0, 2.0, ((-1.0, 1.0),))
    assert E.g == 1
    assert E.bands == [(-2.0, -1.0), (1.0, 2.0)]
    assert dict(_edges(E))[-1.0] == 2.0 and dict(_edges(E))[1.0] == -2.0


def test_discriminant_validation():
    with pytest.raises(DomainError):
        RationalDiscriminant(0.0, 0.0)
    with pytest.raises(DomainError):
        RationalDiscriminant(1.0, 0.0, ((-1.0, 0.5),))
    with pytest.raises(DomainError):
        RationalDiscriminant(1.0, 0.0, ((1.0, 0.5), (2.0, 0.5)))


def test_eval_at_pole_raises():
    delta = RationalDiscriminant(1.0, 0.0, ((1.0, 0.5),))
    with pytest.raises(DomainError):
        eval_discriminant(delta, 0.5)


def test_free_interval():
    delta = solve_discriminant(FiniteGapSet(-2.0, 2.0))
    assert abs(delta.lambda0 - 1.0) < 1e-12
    assert abs(delta.c0) < 1e-12
    assert delta.terms == ()


def test_symmetric_two_band_set():
    delta = solve_discriminant(FiniteGapSet(-2.0, 2.0, ((-1.0, 1.0),)))
    lam, c = delta.terms[0]
    assert abs(delta.lambda0 - 2.0) < 1e-10
    assert abs(delta.c0) < 1e-10
    assert abs(lam - 4.0) < 1e-10
    assert abs(c) < 1e-10


def test_edge_values_hit_plus_minus_two():
    rng = np.random.default_rng(11)
    E = random_gap_set(rng, 3)
    delta = solve_discriminant(E)
    for x, t in _edges(E):
        assert abs(eval_discriminant(delta, x) - t) < 1e-9


def test_roundtrip_bands_solve():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = int(rng.integers(0, 5))
        E = random_gap_set(rng, g)
        E2 = bands(solve_discriminant(E))
        got = np.array([E2.b0, E2.a0] + [v for gp in E2.gaps for v in gp])
        want = np.array([E.b0, E.a0] + [v for gp in E.gaps for v in gp])
        assert np.max(np.abs(got - want)) < 1e-9


@settings(deadline=None, max_examples=60)
@given(
    x=st.floats(-4.0, 4.0),
    y=st.floats(1e-3, 4.0),
    lam=st.floats(0.1, 5.0),
)
def test_discriminant_is_herglotz(x, y, lam):
    # a valid discriminant maps the upper half plane into itself
    delta = RationalDiscriminant(1.0, -0.3, ((lam, 0.7),))
    val = eval_discriminant(delta, complex(x, y))
    assert val.imag > 0


def test_monotone_between_poles():
    delta = RationalDiscriminant(2.0, 0.0, ((4.0, 0.0),))
    xs = np.linspace(0.1, 50.0, 400)
    vals = np.array([eval_discriminant(delta, x) for x in xs])
    assert np.all(np.diff(vals) > 0)


def test_ahlfors_small_root():
    delta = solve_discriminant(FiniteGapSet(-2.0, 2.0))
    z = 0.3 + 1.1j
    w = ahlfors_eval(delta, z)
    assert abs(w) < 1.0
    assert abs(w + 1.0 / w - eval_discriminant(delta, z)) < 1e-12


def test_ahlfors_vanishes_at_poles_and_infinity():
    delta = RationalDiscriminant(2.0, 0.0, ((4.0, 0.0),))
    assert ahlfors_eval(delta, 0.0) == 0.0
    assert abs(ahlfors_eval(delta, 1e8j)) < 1e-7


def test_ahlfors_rejects_band_points():
    delta = solve_discriminant(FiniteGapSet(-2.0, 2.0))
    with pytest.raises(DomainError):
        ahlfors_eval(delta, 0.25)


def _ahlfors_numpy(delta, z):
    """ahlfors_eval as it was written with np.sqrt: the oracle of its cmath form."""
    for _, c in delta.terms:
        if z == c:
            return 0.0 + 0.0j
    d = complex(eval_discriminant(delta, z))
    s = np.sqrt(d * d - 4.0 + 0.0j)
    w1 = (d - s) / 2.0
    w2 = (d + s) / 2.0
    m1, m2 = abs(w1), abs(w2)
    if abs(m1 - 1.0) < 1e-8 and abs(m2 - 1.0) < 1e-8:
        raise DomainError("z lies on the band set: both roots unimodular")
    return w1 if m1 < m2 else w2


def test_ahlfors_matches_its_numpy_form_bit_for_bit():
    # Delta(z) = z: the points put Delta within 1e-16..1e-1 of +-2 (both
    # roots near the unit circle), at +-2 + i eps with eps down to 1e-300
    # (Delta^2 - 4 purely imaginary, where cmath.sqrt alone is one ulp off),
    # on the real band (refused by both), and at moduli up to 1e150 in every
    # direction; a g = 2 discriminant adds points near its poles
    rng = np.random.default_rng(16)
    n = 4000
    sign = rng.choice([-1.0, 1.0], n)
    near = 2.0 * sign + 10.0 ** rng.uniform(-16, -1, n) * np.exp(
        2j * np.pi * rng.uniform(size=n))
    edge = 2.0 * sign + 1j * sign[::-1] * 10.0 ** rng.uniform(-300, -1, n)
    far = 10.0 ** rng.uniform(0, 150, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    band = rng.uniform(-2.0, 2.0, 200) + 0j
    zs = np.concatenate([near, edge, far, band, near.real + 0j])
    deltas = [RationalDiscriminant(1.0, 0.0),
              RationalDiscriminant(1.5, -0.3, ((0.7, -1.0), (0.4, 1.0)))]
    poles = np.array([-1.0, 1.0]).repeat(n // 2) + 10.0 ** rng.uniform(-12, 0, n)
    checked = 0
    for delta, points in zip(deltas, [zs, np.concatenate([poles, zs[:n]])]):
        for z in points.tolist():
            outcome = []
            for f in (ahlfors_eval, _ahlfors_numpy):
                try:
                    w = complex(f(delta, z))
                    outcome.append(np.array([w.real, w.imag]).view(np.int64).tolist())
                except DomainError as exc:
                    outcome.append(str(exc))
            assert outcome[0] == outcome[1], z
            checked += isinstance(outcome[0], list)
    assert checked > 3 * n


def test_serialization_roundtrip():
    E = FiniteGapSet(-2.0, 2.0, ((-1.0, 1.0),))
    assert FiniteGapSet.from_dict(vars(E)) == E
    delta = RationalDiscriminant(2.0, 0.5, ((4.0, 0.0),))
    assert RationalDiscriminant.from_dict(vars(delta)) == delta


# --- oracles: the damped-Newton solve, the bracketed pole search and the
# bracket-and-bisect band inverse that the closed forms in
# gmpmat.discriminant replace.  The closed forms agree with them at
# rounding level, not bit for bit.


def _residual_oracle(params, edges, g):
    lam0, c0 = params[0], params[1]
    lams = params[2 : 2 + g]
    cs = params[2 + g :]
    res = np.empty(len(edges))
    for i, (x, t) in enumerate(edges):
        res[i] = lam0 * x + c0 + np.sum(lams / (cs - x)) - t
    return res


def _jacobian_oracle(params, edges, g):
    lams = params[2 : 2 + g]
    cs = params[2 + g :]
    J = np.empty((len(edges), 2 + 2 * g))
    for i, (x, _) in enumerate(edges):
        J[i, 0] = x
        J[i, 1] = 1.0
        J[i, 2 : 2 + g] = 1.0 / (cs - x)
        J[i, 2 + g :] = -lams / (cs - x) ** 2
    return J


def _admissible_oracle(params, E):
    g = E.g
    if params[0] <= 0 or np.any(params[2 : 2 + g] <= 0):
        return False
    return all(a < params[2 + g + k] < b for k, (a, b) in enumerate(E.gaps))


def _solve_oracle(E, tol=1e-12, max_iter=100):
    g = E.g
    edges = _edges(E)
    xs = np.array([x for x, _ in edges])
    ts = np.array([t for _, t in edges])
    cs = np.array([(a + b) / 2.0 for a, b in E.gaps])
    design = np.empty((len(edges), 2 + g))
    design[:, 0] = xs
    design[:, 1] = 1.0
    for k in range(g):
        design[:, 2 + k] = 1.0 / (cs[k] - xs)
    lin, *_ = np.linalg.lstsq(design, ts, rcond=None)
    params = np.concatenate([lin, cs])
    params[2 : 2 + g] = np.maximum(params[2 : 2 + g], 1e-12)
    if params[0] <= 0:
        params[0] = 1.0
    res = _residual_oracle(params, edges, g)
    rnorm = np.max(np.abs(res))
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        J = _jacobian_oracle(params, edges, g)
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        scale = 1.0
        for _ in range(40):
            trial = params + scale * step
            if _admissible_oracle(trial, E):
                tres = _residual_oracle(trial, edges, g)
                tnorm = np.max(np.abs(tres))
                if tnorm < rnorm or tnorm <= tol:
                    params, res, rnorm = trial, tres, tnorm
                    break
            scale *= 0.5
        else:
            raise ConvergenceError(f"Newton stalled at residual {rnorm:.3e}", residual=rnorm)
    else:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations, residual {rnorm:.3e}",
            residual=rnorm,
        )
    return RationalDiscriminant(
        params[0], params[1], tuple(zip(params[2 : 2 + g], params[2 + g :]))
    )


def _bisect_oracle(f, lo, hi, tol):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _pole_search_oracle(E):
    """The bracketed solve: per gap, a lane-wise bisection of log|P_A/P_B|
    that proposes Newton steps in logit coordinates, run to two float
    spacings of the gap's edges; lambda0, lambda_k and c0 as in
    solve_discriminant, on the unshifted set."""
    gap_a, gap_b = np.array(E.gaps).reshape(-1, 2).T
    A = np.append(gap_a, E.a0)
    B = np.append(gap_b, E.b0)
    lambda0 = 4.0 / (np.sum(A) - np.sum(B))

    def log_ratio(x):
        dA, dB = x[:, None] - A, x[:, None] - B
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.sum(np.log(np.abs(dA / dB)), axis=1),
                    np.sum(1.0 / dA, axis=1) - np.sum(1.0 / dB, axis=1))

    def logit_newton(x, h, dh):  # in t = log(u/v), u = x - a, v = b - x: h ~ t at both ends
        u, v, w = x - gap_a, gap_b - x, gap_b - gap_a
        with np.errstate(all="ignore"):
            return gap_a + w * u / (u + v * np.exp(h * w / (dh * u * v)))

    tol = 2.0 * np.spacing(np.maximum(np.abs(gap_a), np.abs(gap_b)))
    lo, hi = gap_a, gap_b
    x = 0.5 * (lo + hi)
    while True:  # lanes stop at width tol or when the midpoint hits an end
        mid = 0.5 * (lo + hi)
        run = (hi - lo > tol) & (mid != lo) & (mid != hi)
        if not run.any():
            break
        h, dh = log_ratio(x)
        lo = np.where(run & (h < 0.0), x, lo)
        hi = np.where(run & ~(h < 0.0), x, hi)
        new = logit_newton(x, h, dh)
        inside = (lo <= new) & (new <= hi)
        x = np.where(inside, np.clip(new, lo + 0.5 * tol, hi - 0.5 * tol), 0.5 * (lo + hi))
    cs = mid
    if not np.all((gap_a < cs) & (cs < gap_b)):
        raise DomainError("a gap is too narrow to hold a pole")
    lams = 4.0 / (np.sum(1.0 / (cs[:, None] - A), axis=1)
                  - np.sum(1.0 / (cs[:, None] - B), axis=1))
    c0 = -2.0 - lambda0 * E.b0 - np.sum(lams / (cs - E.b0))
    return RationalDiscriminant(lambda0, c0, tuple(zip(lams, cs)))


def _bands_oracle(delta, tol=1e-12):
    g = delta.g
    cs = np.array(delta.poles)[np.argsort(delta.poles)]
    segments = []
    if g == 0:
        lo = -1.0
        while eval_discriminant(delta, lo) > -2.0:
            lo = 2.0 * lo - 1.0
        hi = 1.0
        while eval_discriminant(delta, hi) < 2.0:
            hi = 2.0 * hi + 1.0
        segments.append((lo, hi))
    else:
        span = max(1.0, cs[-1] - cs[0])
        lo = cs[0] - span
        while eval_discriminant(delta, lo) > -2.0:
            lo -= span
            span *= 2.0
        hi_end = cs[-1] + max(1.0, cs[-1] - cs[0])
        span = max(1.0, cs[-1] - cs[0])
        while eval_discriminant(delta, hi_end) < 2.0:
            hi_end += span
            span *= 2.0
        segments.append((lo, _shrink_to_pole(delta, cs[0], -1)))
        for k in range(g - 1):
            segments.append(
                (_shrink_to_pole(delta, cs[k], +1), _shrink_to_pole(delta, cs[k + 1], -1))
            )
        segments.append((_shrink_to_pole(delta, cs[-1], +1), hi_end))
    band_list = []
    for lo, hi in segments:
        x_minus = _bisect_oracle(lambda x: eval_discriminant(delta, x) + 2.0, lo, hi, tol)
        x_plus = _bisect_oracle(lambda x: eval_discriminant(delta, x) - 2.0, x_minus, hi, tol)
        band_list.append((x_minus, x_plus))
    gaps = tuple((band_list[i][1], band_list[i + 1][0]) for i in range(len(band_list) - 1))
    return FiniteGapSet(band_list[0][0], band_list[-1][1], gaps)


def _shrink_to_pole(delta, c, side):
    """Point near pole c (side=-1: left, +1: right) where |Delta| > 2,
    strictly short of the next pole on that side."""
    target = 2.0 if side < 0 else -2.0
    ahead = [p for p in delta.poles if side * (p - c) > 0]
    limit = (min if side > 0 else max)(ahead, default=side * np.inf)
    eps = 1e-3 * (1.0 + abs(c))
    for _ in range(200):
        x = c + side * eps
        if side * (limit - x) > 0:
            val = eval_discriminant(delta, x)
            if (side < 0 and val > target) or (side > 0 and val < target):
                return x
        eps *= 0.5
    raise ConvergenceError(f"could not bracket band edge near pole {c}")


def _floats(obj):
    """Fields of a FiniteGapSet or RationalDiscriminant as one flat array."""
    first, second, pairs = vars(obj).values()
    return np.concatenate([[first, second], np.ravel(pairs)])


def _assert_close(got, want, rel):
    """Equal field by field to rel * (1 + |want|)."""
    got, want = _floats(got), _floats(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * (1.0 + np.abs(want)))


def _assert_edges_solve(delta, E, ulps=8):
    """Each edge x of E is within `ulps` spacings of (1 + |x|) of its root of Delta = t."""
    for x, t in _edges(E):
        err = abs(eval_discriminant(delta, x) - t) / dm.eval_discriminant_deriv(delta, x)
        assert err <= ulps * np.spacing(1.0 + abs(x)), (x, t, err)


def _assert_roundtrip(E, rel):
    E2 = bands(solve_discriminant(E))
    assert E2.g == E.g
    assert np.max(np.abs(_floats(E2) - _floats(E))) <= rel * (E.a0 - E.b0)


@st.composite
def uniform_gap_sets(draw, min_width=1e-5):
    """g in 0..64, edges uniform in [-10, 10]; optionally one gap narrowed
    to a width in [min_width, 1e-5]."""
    g = draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = np.sort(rng.uniform(-10.0, 10.0, 2 * g + 2))
    if g and draw(st.booleans()):
        k = 2 * draw(st.integers(0, g - 1)) + 1
        width = 10.0 ** draw(st.floats(np.log10(min_width), -5.0))
        e[k + 1] = min(e[k + 1], e[k] + width)
    return FiniteGapSet(e[0], e[-1], tuple(zip(e[1:-1:2], e[2:-1:2])))


_TINY_GAP = FiniteGapSet(-2.0, 2.0, ((-1.0, -1.0 + 1e-4), (0.5, 1.0)))


@settings(deadline=None, max_examples=25)
@given(E=uniform_gap_sets())
@example(E=_TINY_GAP)
def test_solve_and_bands_match_scalar_oracles(E):
    # wherever the Newton oracle converges, the closed form agrees with it
    delta = solve_discriminant(E)
    try:
        want = _solve_oracle(E)
    except ConvergenceError:
        return
    _assert_close(delta, want, 1e-12)
    _assert_close(bands(delta), _bands_oracle(delta), 1e-12)


@settings(deadline=None, max_examples=40)
@given(E=uniform_gap_sets(), seed=st.integers(0, 2**32 - 1))
@example(E=_TINY_GAP, seed=0)
def test_bands_match_scalar_bisection(E, seed):
    # a valid discriminant with one pole at each gap midpoint of E
    rng = np.random.default_rng(seed)
    terms = [(rng.uniform(1e-3, 3.0), (a + b) / 2.0) for a, b in E.gaps]
    delta = RationalDiscriminant(rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0), tuple(terms))
    got = bands(delta)
    _assert_edges_solve(delta, got)
    _assert_close(got, _bands_oracle(delta), 1e-12)


@settings(deadline=None, max_examples=60)
@given(E=uniform_gap_sets(min_width=1e-8))
@example(E=_TINY_GAP)
def test_solve_bands_roundtrip_down_to_narrow_gaps(E):
    # no iteration is left that can stall: every set solves and inverts back
    _assert_roundtrip(E, 1e-9)


def _assert_poles_inside(delta, E):
    a, b = np.array(E.gaps).reshape(-1, 2).T
    assert np.all((a < np.array(delta.poles)) & (np.array(delta.poles) < b))


@settings(deadline=None, max_examples=60)
@given(E=uniform_gap_sets(min_width=1e-8))
@example(E=_TINY_GAP)
def test_solve_matches_pole_search_oracle(E):
    # the eigen solve and the bracketed search agree at rounding level: poles
    # to 16 spacings of their gap's edges, every field to 1e-9 (1 + |v|)
    delta, want = solve_discriminant(E), _pole_search_oracle(E)
    _assert_poles_inside(delta, E)
    a, b = np.array(E.gaps).reshape(-1, 2).T
    spacing = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    assert np.all(np.abs(np.array(delta.poles) - want.poles) <= 16 * spacing)
    _assert_close(delta, want, 1e-9)


def test_solve_seven_float_gap():
    # 7 floats lie strictly inside the gap, and its pole 0.92 spacings above
    # the gap start: the last bracket [a, a + 1 spacing] of the bracketed
    # search has its midpoint on a, so that search rejects the gap
    E = FiniteGapSet(999999.9990434134, 1000000.0007129214,
                     ((999999.9992360517, 999999.9992360526),))
    with pytest.raises(DomainError, match="too narrow to hold a pole"):
        _pole_search_oracle(E)
    delta = solve_discriminant(E)
    _assert_poles_inside(delta, E)
    _assert_edges_solve(delta, E)


@pytest.mark.parametrize("centre", [0.0, 1e6])
def test_solve_one_float_gap(centre):
    # the pole is the one float strictly inside the gap, also where the set
    # is solved shifted by 1e6 and the shifted gap holds many floats
    starts = centre + np.array([-7.1, -0.3, 0.25, 3.3])
    ends = np.nextafter(np.nextafter(starts, np.inf), np.inf)
    E = FiniteGapSet(centre - 10.0, centre + 10.0, tuple(zip(starts, ends)))
    assert dm._exact_shift(E.b0, E.a0) == centre
    delta = solve_discriminant(E)
    assert delta.poles == tuple(np.nextafter(starts, np.inf))
    _assert_edges_solve(delta, E)


def test_solve_clamps_pole_next_to_gap_start():
    # the pole lies 0.03 spacings above the gap start, so shifted back by
    # m = 1e6 it would round onto it; the residues and c0 keep their digits
    E = FiniteGapSet(999999.0270740084, 1000000.4447489451,
                     ((999999.0274996115, 999999.0274996215),))
    delta = solve_discriminant(E)
    assert delta.poles == (np.nextafter(E.gaps[0][0], np.inf),)
    err = np.max(np.abs(_floats(bands(delta)) - _floats(E)))
    assert err <= 8 * np.spacing(E.a0)


@settings(deadline=None, max_examples=200)
@given(b0=st.floats(-1e7, 1e7), width=st.floats(1e-6, 1e4), u=st.floats(0.0, 1.0))
def test_exact_shift_is_exact(b0, width, u):
    # x - m is exact for every x in [b0, a0], so the shifted set has the same gaps
    a0 = b0 + width
    x = min(b0 + u * width, a0)
    m = dm._exact_shift(b0, a0)
    assert Fraction(x - m) == Fraction(x) - Fraction(m)


# bands(solve_discriminant(E)) returns every edge to _ROUNDTRIP_C units of
# eps * max(1, |b0|, |a0|) on the sets below; 1,045 is the largest seen on
# 3,000 such sets, against 82,211 for the bracketed search on the unshifted set
_ROUNDTRIP_C = 2048


@pytest.mark.parametrize("centre", [0.0, 1e3, -1e3, 1e6, -1e6])
def test_solve_bands_roundtrip_far_from_zero(centre):
    # g <= 64 and edges uniform in centre + scale * [-1, 1]; every other set
    # has one gap narrowed to 1e-8 * scale, but to no less than one spacing:
    # far from 0 that may leave no float inside it
    for i, scale in enumerate(10.0 ** np.arange(-3, 5)):
        for seed in range(4):
            rng = np.random.default_rng([i, seed])
            g = int(rng.integers(0, 65))
            e = np.sort(centre + scale * rng.uniform(-1.0, 1.0, 2 * g + 2))
            if g and seed % 2:
                k = 2 * int(rng.integers(0, g)) + 1
                e[k + 1] = min(e[k + 1], max(e[k] + 1e-8 * scale, np.nextafter(e[k], np.inf)))
            E = FiniteGapSet(e[0], e[-1], tuple(zip(e[1:-1:2], e[2:-1:2])))
            a, b = np.array(E.gaps).reshape(-1, 2).T
            if not np.all(np.nextafter(a, np.inf) < b):
                with pytest.raises(DomainError, match="too narrow to hold a pole"):
                    solve_discriminant(E)
                continue
            delta = solve_discriminant(E)
            _assert_poles_inside(delta, E)
            err = np.max(np.abs(_floats(bands(delta)) - _floats(E)))
            assert err <= _ROUNDTRIP_C * np.finfo(float).eps * max(1.0, abs(E.b0), abs(E.a0))


def test_g32_stall_is_pinned():
    # this seeded set stalled the Newton solve at residual 1.148e-12; the
    # closed form solves it
    e = np.sort(np.random.default_rng(0).uniform(-10.0, 10.0, 66))
    E = FiniteGapSet(e[0], e[-1], tuple(zip(e[1:-1:2], e[2:-1:2])))
    with pytest.raises(ConvergenceError, match="Newton stalled at residual 1.148e-12"):
        _solve_oracle(E)
    _assert_edges_solve(solve_discriminant(E), E, ulps=64)  # ≈11 ulps here
    _assert_roundtrip(E, 1e-12)


def test_solve_accepts_tol_reached_on_last_allowed_iteration():
    # Newton on x^2 = 2 from above accepts every full step, so the point is
    # evaluated once at the start and once per iteration
    calls = []

    def evaluate(x):
        calls.append(x)
        return x**2 - 2.0, lambda: np.array([[2.0 * x[0]]])

    def run(max_iter):
        return _damped_newton(evaluate, np.array([3.0]), 1e-12, max_iter)[0]

    want = run(100)
    n = len(calls) - 1
    assert n > 1
    assert abs(want[0] - np.sqrt(2.0)) <= 1e-12
    assert np.array_equal(run(n), want)
    with pytest.raises(ConvergenceError, match=f"no convergence after {n - 1} iterations"):
        run(n - 1)


def test_bands_newton_step_never_reaches_a_pole():
    # the Newton step from the +2 eigenvalue left of the first pole lands
    # on that pole and is refused
    delta = RationalDiscriminant(
        0.09246581940941694, -1.7252693807053074,
        ((1.1594017808755708e-14, -5.3327232930242925), (8.340490531288196e-06, 2.8967851690856383)),
    )
    _assert_edges_solve(delta, bands(delta))
    # x + c0 is 2 + 1e-7 at the pole 1, so the -2 root lies 2.5e-23 right of
    # it and its eigenvalue rounds onto it: it is clamped to the first float
    # right of the pole, where the Newton step is refused, so the pole stays
    # strictly inside its gap
    E = bands(RationalDiscriminant(1.0, 1.0 + 1e-7, ((1e-22, 1.0),)))
    assert E.gaps[0][1] == np.nextafter(1.0, np.inf)


def test_bands_of_far_out_edges_warns_nothing():
    # the edges lie near +-2e300, where (c - x)^2 in Delta' overflows; the
    # term's limit there, 0, is its value, with no RuntimeWarning (an error
    # under this suite's warning filter)
    E = bands(RationalDiscriminant(1e-300, 0.0, ((1.0, 1.0),)))
    assert E == FiniteGapSet(-1.9999999999999998e300, 1.9999999999999998e300, ((0.5, 1.5),))


@pytest.mark.parametrize("hi", ["1.0000000000000002", "1.0000000000000004"])
def test_bands_rejects_poles_too_close_for_a_band(hi):
    # no float, then one float, lies between the poles 1.0 and hi; a band
    # [b, a] between them needs two floats b < a.  The error names both
    # poles, in either input order.
    message = (f"poles 1.0 and {hi} have fewer than two floats between them, "
               "too few for the band they enclose")
    for terms in (((1.0, 1.0), (1.0, float(hi))), ((2.0, -3.0), (1.0, float(hi)), (1.0, 1.0))):
        with pytest.raises(DomainError) as info:
            bands(RationalDiscriminant(1.0, 0.0, terms))
        assert str(info.value) == message

def test_solve_rejects_gap_without_interior_float():
    # far from 0 the set is solved shifted, where the gap holds many floats:
    # the check is made on the gap itself
    for a in (0.5, 1e6):
        E = FiniteGapSet(a - 2.0, a + 2.0, ((a, np.nextafter(a, np.inf)),))
        with pytest.raises(DomainError, match="too narrow to hold a pole"):
            solve_discriminant(E)


def test_bands_of_random_g64_discriminants():
    # poles as close as ~1e-3 apart: each root stays between its neighbouring poles
    for seed in range(40):
        rng = np.random.default_rng(seed)
        poles = rng.uniform(-10.0, 10.0, 64)
        lams = rng.uniform(0.2, 2.0, 64)
        delta = RationalDiscriminant(
            rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), tuple(zip(lams, poles))
        )
        for x, t in _edges(bands(delta)):
            slope = dm.eval_discriminant_deriv(delta, x)
            assert abs(eval_discriminant(delta, x) - t) <= 5e-13 * slope


# --- oracle: the root refinement of bands before solve and bands shared one
# clamp-then-step helper.  It skipped an eigenvalue equal to a pole and kept
# one whose Newton step was refused, even outside its interval (c_{i-1}, c_i).


def _level_roots_oracle(delta, lams, cs, t):
    M = np.diag(np.append((t - delta.c0) / delta.lambda0, cs))
    M[0, 1:] = M[1:, 0] = np.sqrt(lams / delta.lambda0)
    x = np.linalg.eigvalsh(M)
    free = ~np.isin(x, cs)
    y = x[free]
    new = y - (eval_discriminant(delta, y) - t) / dm.eval_discriminant_deriv(delta, y)
    lo, hi = np.append(-np.inf, cs)[free], np.append(cs, np.inf)[free]
    x[free] = np.where((lo < new) & (new < hi), new, y)
    return x


def _bands_unclamped_oracle(delta):
    lams, cs = np.array(delta.terms).reshape(-1, 2)[np.argsort(delta.poles)].T
    x_minus = _level_roots_oracle(delta, lams, cs, -2.0)
    x_plus = _level_roots_oracle(delta, lams, cs, 2.0)
    return FiniteGapSet(x_minus[0], x_plus[-1], tuple(zip(x_plus[:-1], x_minus[1:])))


@pytest.mark.parametrize("centre", [0.0, 1e3, 1e6, -1e6])
def test_bands_match_unclamped_level_roots(centre):
    # wherever every eigenvalue lies inside its interval, the clamp is a no-op
    # and bands gives the unclamped oracle's bytes
    for seed in range(100):
        rng = np.random.default_rng([seed, int(abs(centre)), centre < 0])
        g = int(rng.integers(0, 33))
        lam0 = rng.uniform(0.5, 2.0)
        terms = zip(rng.uniform(0.2, 2.0, g), centre + rng.uniform(-10.0, 10.0, g))
        delta = RationalDiscriminant(lam0, -lam0 * centre + rng.uniform(-1.0, 1.0), tuple(terms))
        assert _floats(bands(delta)).tobytes() == _floats(_bands_unclamped_oracle(delta)).tobytes()


def _roundtrip_units(E):
    """Largest edge error of bands(solve_discriminant(E)) in eps * max(1, |b0|, |a0|)."""
    err = np.max(np.abs(_floats(bands(solve_discriminant(E))) - _floats(E)))
    return err / (np.finfo(float).eps * max(1.0, abs(E.b0), abs(E.a0)))


# bands(solve_discriminant(E)) returns every edge to _NARROW_C units of
# eps * max(1, |b0|, |a0|) on sets at 1e6 +/- 0.1 with one gap 1e-9 wide;
# 5.8 is the largest seen on 3,000 such sets
_NARROW_C = 8


def test_bands_clamps_eigenvalue_beyond_its_pole():
    # 9 floats lie inside the first gap; the +2 eigenvalue of that gap lies
    # right of its pole and its Newton step is refused, so unclamped it
    # reverses the gap to (999999.9302147973, 999999.9302147971)
    E = FiniteGapSet(999999.9271748404, 1000000.0582573279,
                     ((999999.9302147966, 999999.9302147976), (1000000.0078670812, 1000000.0158369357)))
    with pytest.raises(DomainError, match="empty or reversed"):
        _bands_unclamped_oracle(solve_discriminant(E))
    assert _roundtrip_units(E) <= _NARROW_C


def test_solve_bands_roundtrip_narrow_gaps_far_from_zero():
    # g <= 8, edges uniform in 1e6 + 0.1 * [-1, 1], one gap narrowed to 1e-9
    # (about 8 floats); unclamped, 9 of these 200 sets reverse a gap
    for seed in range(200):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(1, 9))
        e = np.sort(1e6 + 0.1 * rng.uniform(-1.0, 1.0, 2 * g + 2))
        k = 2 * int(rng.integers(0, g)) + 1
        e[k + 1] = min(e[k + 1], e[k] + 1e-9)
        E = FiniteGapSet(e[0], e[-1], tuple(zip(e[1:-1:2], e[2:-1:2])))
        assert _roundtrip_units(E) <= _NARROW_C, seed
