import warnings

import numpy as np
import pytest

from gmpmat import ortho
from gmpmat import (
    DiscreteMeasure,
    DomainError,
    RationalFamily,
    family_function,
    multiplication_matrix,
    structure_report,
)


def _two_band_measure(n_per_band=20, seed=0):
    rng = np.random.default_rng(seed)
    xs = np.concatenate(
        [np.linspace(-2.0, -1.0, n_per_band), np.linspace(1.0, 2.0, n_per_band)]
    )
    ws = rng.uniform(0.5, 1.5, xs.size)
    return DiscreteMeasure(tuple(zip(xs, ws)))


def test_measure_validation():
    with pytest.raises(DomainError):
        DiscreteMeasure(((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(DomainError):
        DiscreteMeasure(((0.0, 1.0), (1.0, -1.0)))


def test_family_validation():
    with pytest.raises(DomainError):
        RationalFamily("weird")
    with pytest.raises(DomainError):
        RationalFamily("monomial", (1.0,))
    with pytest.raises(DomainError):
        RationalFamily("smp", (1.0,))
    with pytest.raises(DomainError):
        RationalFamily("gmp", (1.0, 1.0))


def test_family_functions_smp_order():
    fam = RationalFamily("smp", (0.0,))
    x = np.array([2.0])
    assert family_function(fam, 0, x)[0] == 1.0
    assert family_function(fam, 1, x)[0] == -0.5  # -1/x
    assert family_function(fam, 2, x)[0] == 2.0  # x
    assert family_function(fam, 3, x)[0] == 0.25  # 1/x^2
    assert family_function(fam, 4, x)[0] == 4.0  # x^2


def test_family_functions_gmp_order():
    fam = RationalFamily("gmp", (0.0, 5.0))
    x = np.array([1.0])
    # block m = 1: (c_2 - x)^-1, (c_1 - x)^-1, x
    assert family_function(fam, 1, x)[0] == 0.25
    assert family_function(fam, 2, x)[0] == -1.0
    assert family_function(fam, 3, x)[0] == 1.0
    # the pole list fixes the order: reversing it swaps the reciprocal functions
    rev = RationalFamily("gmp", (5.0, 0.0))
    assert family_function(rev, 1, x)[0] == -1.0


def test_pole_evaluation_rejected():
    fam = RationalFamily("gmp", (1.0,))
    with pytest.raises(DomainError):
        family_function(fam, 1, np.array([1.0]))
    with pytest.raises(DomainError, match="evaluation at the pole 0.0"):
        family_function(RationalFamily("smp", (0.0,)), 3, np.array([0.0, 1.0]))


def _family_function_per_kind(fam, n, x):
    """The per-kind formulas that the GMP formula replaces, kept as its oracle."""
    x = np.asarray(x, dtype=float)
    if fam.kind == "monomial":
        return x**n
    if fam.kind == "smp":
        if n == 0:
            return np.ones_like(x)
        if n % 2 == 0:
            return x ** (n // 2)
        m = (n + 1) // 2
        return (-1.0) ** m / x**m
    g = len(fam.poles)
    if n == 0:
        return np.ones_like(x)
    m = (n - 1) // (g + 1) + 1
    r = (n - 1) % (g + 1)
    return x**m if r == g else (fam.poles[g - 1 - r] - x) ** (-m)


def test_family_fold_matches_per_kind_formulas(monkeypatch):
    # monomial and GMP: the same operations, so the same bits.  Laurent:
    # (0 - x)^-m against (-1)^m / x^m differ by rounding (at most 2 ulp),
    # which the QR carries into M with the conditioning kappa(F) of the
    # weighted family: both matrices are within about kappa eps |M| of exact.
    eps = np.finfo(float).eps
    for seed in range(30):
        rng = np.random.default_rng(seed)
        lo, hi = rng.uniform(0.5, 1.5, 2)
        xs = np.concatenate([np.linspace(-lo - rng.uniform(0.5, 1.5), -lo, 20),
                             np.linspace(hi, hi + rng.uniform(0.5, 1.5), 20)])
        mu = DiscreteMeasure(tuple(zip(xs, rng.uniform(0.5, 1.5, xs.size))))
        n = int(rng.integers(4, 21))
        gap_pole = float(rng.uniform(-lo, hi))
        for fam in (RationalFamily("monomial"), RationalFamily("smp", (0.0,)),
                    RationalFamily("gmp", (gap_pole,))):
            F = np.column_stack([_family_function_per_kind(fam, k, xs) for k in range(n)])
            got = np.column_stack([family_function(fam, k, xs) for k in range(n)])
            M = multiplication_matrix(mu, fam, n)
            with monkeypatch.context() as m:
                m.setattr(ortho, "family_function", _family_function_per_kind)
                want = multiplication_matrix(mu, fam, n)
            if fam.kind == "smp":
                assert np.all(np.abs(got - F) <= 2 * np.spacing(np.abs(F)))
                kappa = np.linalg.cond(np.sqrt(mu.weights)[:, None] * F)
                assert np.max(np.abs(M - want)) <= kappa * eps * np.max(np.abs(want))
            else:
                assert np.array_equal(got.view(np.int64), F.view(np.int64))
                assert np.array_equal(M.view(np.int64), want.view(np.int64))
            assert repr(structure_report(M, fam)) == repr(structure_report(want, fam))


def test_two_atom_multiplication_matrix():
    mu = DiscreteMeasure(((1.0, 0.5), (-1.0, 0.5)))
    M = multiplication_matrix(mu, RationalFamily("monomial"), 2)
    assert np.max(np.abs(M - [[0.0, 1.0], [1.0, 0.0]])) < 1e-12


def test_monomial_gives_jacobi_matrix():
    mu = _two_band_measure()
    fam = RationalFamily("monomial")
    M = multiplication_matrix(mu, fam, 9)
    rep = structure_report(M, fam, tol=1e-10)
    assert rep["pattern"] == "jacobi"
    assert rep["bandwidth"] == 1
    assert rep["violations"] == []


def test_smp_gives_five_diagonal():
    mu = _two_band_measure(seed=1)
    fam = RationalFamily("smp", (0.0,))
    M = multiplication_matrix(mu, fam, 10)
    rep = structure_report(M, fam, tol=1e-8)
    assert rep["pattern"] == "smp"
    assert rep["violations"] == []


def test_gmp_family_gives_class_a_pattern():
    mu = _two_band_measure(seed=2)
    fam = RationalFamily("gmp", (0.3,))
    M = multiplication_matrix(mu, fam, 12)
    rep = structure_report(M, fam, tol=1e-8)
    assert rep["pattern"] == "class-A"
    assert rep["bandwidth"] == 2
    assert rep["violations"] == []


def test_gmp_two_pole_pattern():
    rng = np.random.default_rng(8)
    xs = np.concatenate(
        [np.linspace(-3.0, -2.0, 14), np.linspace(-1.0, 0.0, 13), np.linspace(1.0, 2.0, 13)]
    )
    mu = DiscreteMeasure(tuple(zip(xs, rng.uniform(0.5, 1.5, xs.size))))
    fam = RationalFamily("gmp", (-1.5, 0.5))
    M = multiplication_matrix(mu, fam, 12)
    rep = structure_report(M, fam, tol=1e-8)
    assert rep["bandwidth"] == 3
    assert rep["violations"] == []


def test_too_many_functions_rejected():
    mu = DiscreteMeasure(((0.0, 1.0), (1.0, 1.0), (2.0, 1.0)))
    with pytest.raises(DomainError):
        multiplication_matrix(mu, RationalFamily("monomial"), 4)


def test_structure_report_flags_violations():
    fam = RationalFamily("monomial")
    M = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5], [1.0, 0.5, 0.0]])
    rep = structure_report(M, fam, tol=1e-10)
    reasons = {v[3] for v in rep["violations"]}
    assert "outside bandwidth" in reasons


def _structure_report_loop(M, fam, tol=1e-8):
    """The per-entry loops that structure_report replaces, kept as its oracle."""
    M = np.asarray(M)
    n = M.shape[0]
    scale = tol * (1.0 + np.max(np.abs(M)))
    w = fam.block_size
    violations = []
    for i in range(n):
        for j in range(i + w + 1, n):
            if abs(M[i, j]) > scale:
                violations.append((i, j, float(M[i, j]), "outside bandwidth"))
    outer = np.array([M[i, i + w] for i in range(n - w)])
    if fam.kind == "monomial":
        pattern = "jacobi"
        for i in range(n - 1):
            if M[i, i + 1] <= scale:
                violations.append((i, i + 1, float(M[i, i + 1]), "off-diagonal not positive"))
    else:
        pattern = "smp" if fam.kind == "smp" else "class-A"
        classes = [np.max(np.abs(outer[r::w])) if outer[r::w].size else 0.0 for r in range(w)]
        live = int(np.argmax(classes))
        for i in range(len(outer)):
            if i % w == live:
                if outer[i] <= scale:
                    violations.append((i, i + w, float(outer[i]), "outer entry not positive"))
            elif abs(outer[i]) > scale:
                violations.append((i, i + w, float(outer[i]), "outer entry not zero"))
    return {"pattern": pattern, "bandwidth": w, "violations": violations}


_FAMILIES = (RationalFamily("monomial"), RationalFamily("smp", (0.0,)),
             RationalFamily("gmp", (0.3,)), RationalFamily("gmp", (-1.5, 0.5)))


def _shaped_matrix(rng, n, w):
    """Symmetric n x n, bandwidth w, outer diagonal positive on one residue
    class mod w and zero elsewhere; then some entries overwritten at random
    (values, zeros and -0.0), so that every kind of violation occurs."""
    M = rng.standard_normal((n, n))
    M = np.tril(np.triu(M + M.T, -w), w)
    i = np.arange(max(n - w, 0))
    live = i % w == rng.integers(w)
    M[i, i + w] = np.where(live, np.abs(M[i, i + w]), 0.0)
    M[i + w, i] = M[i, i + w]
    hit = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.3))
    M[hit] = rng.choice([0.0, -0.0, 1.0, -1.0, 1e-9, -1e-9], hit.sum()) * rng.uniform(0.0, 3.0, hit.sum())
    return np.where(np.tri(n, k=-1, dtype=bool), M.T, M)  # mirrored, not summed: keeps -0.0


@pytest.mark.parametrize("tol", [0.0, 1e-8, 0.5])
def test_structure_report_matches_per_entry_loop(tol):
    # bytes and order: repr tells -0.0 from 0.0 and np.int64 from int
    rng = np.random.default_rng(31)
    mu = _two_band_measure(seed=3)
    for fam in _FAMILIES:
        cases = [_shaped_matrix(rng, int(rng.integers(1, 16)), fam.block_size) for _ in range(150)]
        cases.append(multiplication_matrix(mu, fam, 12))
        for M in cases:
            assert repr(structure_report(M, fam, tol)) == repr(_structure_report_loop(M, fam, tol))


def test_overflowing_multiplication_matrix_is_refused_without_a_warning():
    # every family value is finite, but R2 @ R1 was NaN (numpy warned "invalid
    # value encountered in matmul") and the NaN matrix passed both rank tests
    atoms = ((1.7e308, 1.0), (-1.7e308, 1.0), (0.0, 1.0), (1.6e308, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="the multiplication matrix overflows float64"):
            multiplication_matrix(DiscreteMeasure(atoms), RationalFamily("monomial"), 2)


def test_multiplication_matrix_near_the_float64_limit_is_finite():
    # the one entry is the mean 1.65e308, which fits; the sum M + M^T does not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        M = multiplication_matrix(DiscreteMeasure(((1.7e308, 1.0), (1.6e308, 1.0))),
                                  RationalFamily("monomial"), 1)
    assert M.shape == (1, 1) and abs(M[0, 0] / 1.65e308 - 1.0) < 1e-15
