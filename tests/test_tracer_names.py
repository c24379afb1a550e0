"""The public names perfbench's tracer looks its per-layer metrics up by.

``perfbench/tracer.py`` wraps every public function and method defined in
each ``gmpmat`` layer and reads its metrics by name, so a name missing
here is a ``KeyError`` in a ``--trace 1`` run.  This test makes that a
tier-1 failure instead.
"""

import importlib
import inspect

import pytest

TRACED = [
    "cli.main",
    "serialize.load_json",
    "serialize.dumps",
    "serialize.rows_csv",
    "serialize.lower_triangle_csv",
    "serialize.write_text",
    "transfer.transfer",
    "transfer.lambda_k",
    "resolvent.resolvent_pair",
    "discriminant.solve_discriminant",
    "discriminant.bands",
    "discriminant.eval_discriminant",
    "gmp.assemble",
    "gmp.BandedOperator.to_dense",
    "gmp.BandedOperator.eigenvalues",
    "gmp.lambda_positivity_test",
    "gmp.check_shifted_inverse_structure",
    "isospectral.project_to_manifold",
    "isospectral.trace_torus",
    "isospectral.magic_verify",
    "isospectral.jacobi_band_edges",
    "isospectral.jacobi_transfer",
]


def _public_functions(mod):
    # what the tracer wraps: public functions defined in the module itself
    return [name for name, obj in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__]


@pytest.mark.parametrize("key", TRACED)
def test_tracer_name_resolves(key):
    layer, *path = key.split(".")
    mod = importlib.import_module(f"gmpmat.{layer}")
    if len(path) == 1:
        assert path[0] in _public_functions(mod)
    else:
        cls = vars(mod)[path[0]]
        assert inspect.isclass(cls) and cls.__module__ == mod.__name__
        assert inspect.isfunction(vars(cls).get(path[1]))


def test_kernels_have_a_public_function():
    assert _public_functions(importlib.import_module("gmpmat._kernels"))
