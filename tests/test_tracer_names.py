"""The public names perfbench's tracer looks its per-layer metrics up by.

``perfbench/tracer.py`` wraps every public function and method defined in
each ``gmpmat`` layer and reads its metrics by name, so a name missing
here is a ``KeyError`` in a ``--trace 1`` run.  This test makes that a
tier-1 failure instead.
"""

import importlib
import inspect
import json
import sys

import pytest

from gmpmat import cli, gmp

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


def test_gmp_check_calls_the_traced_structural_check(tmp_path, monkeypatch, capsys):
    # wrapped as the tracer wraps it, in every gmpmat namespace that holds
    # it, gmp check's structural work is one traced call per pole
    original = gmp.check_shifted_inverse_structure
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "gmpmat" and vars(mod).get("check_shifted_inverse_structure") is original:
            monkeypatch.setattr(mod, "check_shifted_inverse_structure", wrapper)
    coeffs = {"poles": [-1.5, 0.0, 1.5], "p": [0.7, 1.1, 0.5, 0.9], "q": [0.2, -0.4, 0.3, 0.1]}
    (tmp_path / "c.json").write_text(json.dumps(coeffs))
    assert cli.main(["gmp", "check", "--coeffs", str(tmp_path / "c.json")]) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["structural_ok"], bool)
    assert calls == [1, 2, 3]
