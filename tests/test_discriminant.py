import dataclasses

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
    assert dict(E.edges)[-1.0] == 2.0 and dict(E.edges)[1.0] == -2.0


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
    for x, t in E.edges:
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


def test_serialization_roundtrip():
    E = FiniteGapSet(-2.0, 2.0, ((-1.0, 1.0),))
    assert FiniteGapSet.from_dict(E.to_dict()) == E
    delta = RationalDiscriminant(2.0, 0.5, ((4.0, 0.0),))
    assert RationalDiscriminant.from_dict(delta.to_dict()) == delta


# --- oracles: the damped-Newton solve and the bracket-and-bisect band
# inverse that the closed forms in gmpmat.discriminant replace.  The closed
# forms agree with them at rounding level, not bit for bit.


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
    edges = E.edges
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
    first, second, pairs = dataclasses.astuple(obj)
    return np.concatenate([[first, second], np.ravel(pairs)])


def _assert_close(got, want, rel):
    """Equal field by field to rel * (1 + |want|)."""
    got, want = _floats(got), _floats(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * (1.0 + np.abs(want)))


def _assert_edges_solve(delta, E, ulps=8):
    """Each edge x of E is within `ulps` spacings of (1 + |x|) of its root of Delta = t."""
    for x, t in E.edges:
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


@settings(deadline=None, max_examples=200)
@given(
    lanes=st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e3), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=6,
    ),
    tol=st.sampled_from([0.0, 1e-12, 1e-3, None]),
)
def test_bisect_lanes_match_scalar_bisection(lanes, tol):
    # f(x) = x - r per lane; None sets tol to the first bracket's exact width
    lo = np.array([l for l, _, _ in lanes])
    hi = lo + np.array([w for _, w, _ in lanes])
    r = lo + (hi - lo) * np.array([u for _, _, u in lanes])
    tol = hi[0] - lo[0] if tol is None else tol
    got = dm._bisect(lambda x: x - r, lo, hi, tol)
    want = [_bisect_oracle(lambda x, ri=ri: x - ri, a, b, tol) for a, b, ri in zip(lo, hi, r)]
    assert np.array_equal(got, want)


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
    # Newton on x^2 = 2; the Jacobian is formed once per iteration
    calls = []

    def jacobian(x, _res):
        calls.append(x)
        return np.array([[2.0 * x[0]]])

    def run(max_iter):
        return _damped_newton(lambda x: x**2 - 2.0, jacobian, np.array([3.0]), 1e-12, max_iter)

    want, _ = run(100)
    n = len(calls)
    assert n > 1
    assert abs(want[0] - np.sqrt(2.0)) <= 1e-12
    assert np.array_equal(run(n)[0], want)
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
    # it and rounds onto it: that eigenvalue is kept with no Newton step
    assert bands(RationalDiscriminant(1.0, 1.0 + 1e-7, ((1e-22, 1.0),))).gaps[0][1] == 1.0


def test_solve_rejects_gap_without_interior_float():
    E = FiniteGapSet(-2.0, 2.0, ((0.5, np.nextafter(0.5, 1.0)),))
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
        for x, t in bands(delta).edges:
            slope = dm.eval_discriminant_deriv(delta, x)
            assert abs(eval_discriminant(delta, x) - t) <= 5e-13 * slope
