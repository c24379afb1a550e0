"""Spectral theory of periodic GMP matrices.

Finite gap sets and their rational discriminants, class-A block
operators, transfer-matrix and residue algebra, closed-form resolvents,
the operator identity Delta(A) = S^{g+1} + S^{-(g+1)}, the algebraic
isospectral manifold, and a Gram-Schmidt multiplication-matrix oracle.

The names below are loaded on first access (PEP 562), so ``import
gmpmat`` imports no submodule and no numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the names it exports here
_MODULES = {
    "discriminant": ("FiniteGapSet", "RationalDiscriminant", "ahlfors_eval", "bands",
                     "eval_discriminant", "solve_discriminant"),
    "errors": ("ConvergenceError", "DomainError"),
    "gmp": ("BandedOperator", "GmpCoefficients", "assemble", "build_blocks",
            "check_shifted_inverse_structure", "lambda_positivity_test"),
    "isospectral": ("forced_tail", "jacobi_band_edges", "jacobi_transfer", "magic_verify",
                    "manifold_residual", "project_to_manifold", "spectrum_truncation",
                    "trace_torus"),
    "ortho": ("DiscreteMeasure", "RationalFamily", "family_function", "multiplication_matrix",
              "structure_report"),
    "resolvent": ("ResolventValue", "reflectionless_check", "resolvent_pair",
                  "truncation_resolvent_oracle"),
    "transfer": ("DiscriminantCoefficients", "discriminant_coeffs", "discriminant_of",
                 "lambda_k", "lambda_k_residue", "mirror_transfer", "transfer",
                 "transfer_from_resolvent"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # bound once, as an eager import would; later access is plain
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(types.ModuleType):
    """Keeps ``gmpmat.transfer`` the function: the first import of the
    submodule of that name would bind the submodule in its place."""

    def __setattr__(self, name, value):
        if name != "transfer" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
