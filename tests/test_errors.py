import math

import numpy as np
import pytest

from gmpmat import (
    BandedOperator,
    DiscreteMeasure,
    DiscriminantCoefficients,
    DomainError,
    FiniteGapSet,
    GmpCoefficients,
    RationalDiscriminant,
    RationalFamily,
    ResolventValue,
    jacobi_band_edges,
    project_to_manifold,
    reflectionless_check,
    trace_torus,
)

GOOD = GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0))
DELTA = RationalDiscriminant(1.0, 0.0, ((1.0, 1.0),))

# Every input field: (the field named in the error, make(v), a finite v that make accepts).
FIELDS = {
    "coeffs poles": ("poles", lambda v: GmpCoefficients((v,), (1.0, 1.0), (1.0, 0.0)), 2.0),
    "coeffs p": ("p", lambda v: GmpCoefficients((2.0,), (v, 1.0), (1.0, 0.0)), 1.0),
    "coeffs p_g": ("p", lambda v: GmpCoefficients((2.0,), (1.0, v), (1.0, 0.0)), 1.0),
    "coeffs q": ("q", lambda v: GmpCoefficients((2.0,), (1.0, 1.0), (v, 0.0)), 1.0),
    "set b0": ("b0", lambda v: FiniteGapSet(v, 2.0, ((-1.0, 1.0),)), -2.0),
    "set a0": ("a0", lambda v: FiniteGapSet(-2.0, v, ((-1.0, 1.0),)), 2.0),
    "set gap start": ("gaps", lambda v: FiniteGapSet(-2.0, 2.0, ((v, 1.0),)), -1.0),
    "set gap end": ("gaps", lambda v: FiniteGapSet(-2.0, 2.0, ((-1.0, v),)), 1.0),
    "delta lambda0": ("lambda0", lambda v: RationalDiscriminant(v, 0.0, ((1.0, 1.0),)), 1.0),
    "delta c0": ("c0", lambda v: RationalDiscriminant(1.0, v, ((1.0, 1.0),)), 0.0),
    "delta weight": ("terms", lambda v: RationalDiscriminant(1.0, 0.0, ((v, 1.0),)), 1.0),
    "delta pole": ("terms", lambda v: RationalDiscriminant(1.0, 0.0, ((1.0, v),)), 1.0),
    "measure point": ("atoms", lambda v: DiscreteMeasure(((v, 1.0), (2.0, 1.0))), 1.0),
    "measure weight": ("atoms", lambda v: DiscreteMeasure(((1.0, v), (2.0, 1.0))), 1.0),
    "family pole": ("poles", lambda v: RationalFamily("gmp", (v,)), 0.5),
    "projection start": ("init_head", lambda v: project_to_manifold([v, 0.5], DELTA), 1.0),
    "trace step": ("step_len", lambda v: trace_torus(project_to_manifold([1.2, 0.1], DELTA),
                                                     DELTA, 1, v), 0.05),
    "jacobi a": ("a", lambda v: jacobi_band_edges([1.0, v], [0.0, 0.5]), 1.0),
    "jacobi b": ("b", lambda v: jacobi_band_edges([1.0, 1.0], [v, 0.5]), 0.0),
    "reflectionless x": ("x", lambda v: reflectionless_check(GOOD, v), 0.5),
    "reflectionless eps": ("eps", lambda v: reflectionless_check(GOOD, 0.5, v), 1e-6),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("case", list(FIELDS))
def test_non_finite_input_is_refused(case, value):
    field, make, finite = FIELDS[case]
    make(finite)
    with pytest.raises(DomainError, match=f"^{field} must be finite$"):
        make(value)


# The eight frozen records: (type, field names, field values, repr); every
# value is stored as given, so the values are what ``vars`` returns.
LOWER = np.array([[1.0, 2.0], [3.0, 0.0]])
RECORDS = {
    "FiniteGapSet": (FiniteGapSet, ("b0", "a0", "gaps"), (-2.0, 2.0, ((-1.0, 1.0),)),
                     "FiniteGapSet(b0=-2.0, a0=2.0, gaps=((-1.0, 1.0),))"),
    "RationalDiscriminant": (RationalDiscriminant, ("lambda0", "c0", "terms"),
                             (1.0, 0.5, ((1.0, 2.0),)),
                             "RationalDiscriminant(lambda0=1.0, c0=0.5, terms=((1.0, 2.0),))"),
    "GmpCoefficients": (GmpCoefficients, ("poles", "p", "q"), ((2.0,), (1.0, 1.0), (1.0, 0.0)),
                        "GmpCoefficients(poles=(2.0,), p=(1.0, 1.0), q=(1.0, 0.0))"),
    "BandedOperator": (BandedOperator, ("n", "half_bandwidth", "lower"), (2, 1, LOWER),
                       f"BandedOperator(n=2, half_bandwidth=1, lower={LOWER!r})"),
    "DiscreteMeasure": (DiscreteMeasure, ("atoms",), (((0.0, 1.0), (1.0, 0.5)),),
                        "DiscreteMeasure(atoms=((0.0, 1.0), (1.0, 0.5)))"),
    "RationalFamily": (RationalFamily, ("kind", "poles"), ("gmp", (0.3, -1.0)),
                       "RationalFamily(kind='gmp', poles=(0.3, -1.0))"),
    "ResolventValue": (ResolventValue, ("r_plus", "r_minus_inv", "a0"), (1 + 2j, 3 - 1j, 2.0),
                       "ResolventValue(r_plus=(1+2j), r_minus_inv=(3-1j), a0=2.0)"),
    "DiscriminantCoefficients": (DiscriminantCoefficients, ("nu0", "d0", "nus"),
                                 (1.0, 0.5, (0.25,)),
                                 "DiscriminantCoefficients(nu0=1.0, d0=0.5, nus=(0.25,))"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_take_their_fields_in_order_and_compare_by_them(name):
    cls, names, values, text = RECORDS[name]
    x, y = cls(*values), cls(**dict(zip(names, values)))
    assert list(vars(x)) == list(names) and tuple(vars(x).values()) == values
    assert repr(x) == repr(y) == text
    assert x == y and x.__eq__(values) is NotImplemented and x != values
    if name != "BandedOperator":  # an ndarray field: no hash, and == only by identity
        assert hash(x) == hash(y) == hash(values)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{names[0]}'$"):
        setattr(x, names[0], values[0])
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        x.extra = 1
    with pytest.raises(AttributeError, match=f"^cannot delete field '{names[-1]}'$"):
        delattr(x, names[-1])
    assert tuple(vars(x).values()) == values
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing 1 required positional "
                                        rf"argument: '{names[0]}'$"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match=r"unexpected keyword argument 'extra'"):
        cls(*values, extra=1)


def test_records_with_an_array_field_compare_as_a_tuple_of_fields():
    op = BandedOperator(2, 1, LOWER)
    assert op == BandedOperator(2, 1, LOWER)  # the same array: equal by identity
    with pytest.raises(ValueError, match="truth value of an array"):
        op == BandedOperator(2, 1, LOWER.copy())  # noqa: B015
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(op)


def test_records_defaults_conversions_and_round_trips():
    assert vars(FiniteGapSet(-2, 2)) == {"b0": -2.0, "a0": 2.0, "gaps": ()}
    assert vars(RationalDiscriminant(1, 0)) == {"lambda0": 1.0, "c0": 0.0, "terms": ()}
    assert vars(RationalFamily("monomial")) == {"kind": "monomial", "poles": ()}
    assert GmpCoefficients(poles=[2], p=[-1, 1], q=[1, 0]) == GmpCoefficients((2.0,), (1.0, 1.0),
                                                                                (-1.0, 0.0))
    assert type(GmpCoefficients([2], [1, 1], [1, 0]).poles[0]) is float
    assert GmpCoefficients((2.0,), (1.0, 1.0), (1.0, 0.0)) != GmpCoefficients((2.0,), (1.0, 1.0),
                                                                               (1.0, 0.5))
    for name in ("FiniteGapSet", "RationalDiscriminant", "GmpCoefficients"):
        cls, _, values, _ = RECORDS[name]
        x = cls(*values)
        assert cls.from_dict(vars(x)) == x


# Each record's own checks: make() and the message of the DomainError it raises.
RECORD_CHECKS = [
    (lambda: FiniteGapSet(2.0, -2.0), "need b0 < a0, got [2.0, -2.0]"),
    (lambda: FiniteGapSet(-2.0, 2.0, ((1.0, -1.0),)), "gap (1.0, -1.0) is empty or reversed"),
    (lambda: FiniteGapSet(-2.0, 2.0, ((0.0, 1.0), (0.5, 1.5))),
     "gap (0.5, 1.5) overlaps or is out of order"),
    (lambda: FiniteGapSet(-2.0, 2.0, ((1.0, 2.0),)), "last gap reaches outside the outer interval"),
    (lambda: RationalDiscriminant(0.0, 0.0), "lambda0 must be positive"),
    (lambda: RationalDiscriminant(1.0, 0.0, ((0.0, 1.0),)),
     "all residue weights lambda_k must be positive"),
    (lambda: RationalDiscriminant(1.0, 0.0, ((1.0, 1.0), (2.0, 1.0))), "poles must be distinct"),
    (lambda: GmpCoefficients((2.0,), (1.0,), (1.0, 0.0)), "p and q must have length g+1 = 2"),
    (lambda: GmpCoefficients((2.0, 2.0), (1.0,) * 3, (0.0,) * 3), "poles must be distinct"),
    (lambda: GmpCoefficients((2.0,), (1.0, 0.0), (1.0, 0.0)), "p_g must be positive"),
    (lambda: DiscreteMeasure(((0.0, 1.0), (0.0, 2.0))), "support points must be distinct"),
    (lambda: DiscreteMeasure(((0.0, 1.0), (1.0, 0.0))), "weights must be positive"),
    (lambda: RationalFamily("laurent"), "kind must be one of ('monomial', 'smp', 'gmp')"),
    (lambda: RationalFamily("monomial", (1.0,)), "monomial family has no poles"),
    (lambda: RationalFamily("smp", (1.0,)), "smp family has the single pole 0"),
    (lambda: RationalFamily("gmp", (1.0, 1.0)), "poles must be distinct"),
]


@pytest.mark.parametrize("make, message", RECORD_CHECKS)
def test_records_refuse_their_invalid_fields(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message
