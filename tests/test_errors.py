import math

import pytest

from gmpmat import (
    DiscreteMeasure,
    DomainError,
    FiniteGapSet,
    GmpCoefficients,
    RationalDiscriminant,
    RationalFamily,
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
