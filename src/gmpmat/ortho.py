"""Constructive oracle: multiplication matrices over rational bases.

Orthonormalizing a family of rational functions against a discrete
measure and writing the multiplication-by-x operator in the resulting
basis reproduces the characteristic matrix shapes: tridiagonal for
monomials, five-diagonal with an alternating outer diagonal for the
Laurent family, and the banded class-A block pattern for the rational
family with poles C.  All three are one family, the GMP family of their
poles: (), (0) and C.
"""

import warnings

from ._lazy import np
from .errors import DomainError, _Record, finite
from .gmp import _check_finite, _class_a_violations

# kind -> the pattern name of structure_report
_PATTERNS = {"monomial": "jacobi", "smp": "smp", "gmp": "class-A"}


class DiscreteMeasure(_Record):
    """Finite positive measure: tuple of (support point, weight) atoms."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((finite("atoms", x), finite("atoms", w)) for x, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        xs = [x for x, _ in atoms]
        if len(set(xs)) != len(xs):
            raise DomainError("support points must be distinct")
        if any(w <= 0 for _, w in atoms):
            raise DomainError("weights must be positive")

    @property
    def support(self):
        return np.array([x for x, _ in self.atoms])

    @property
    def weights(self):
        return np.array([w for _, w in self.atoms])

    @classmethod
    def from_csv(cls, path):
        """The measure of a CSV file of ``x,weight`` rows; DomainError naming the file."""
        try:
            with warnings.catch_warnings():
                # an empty file is refused below, not warned about
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, delimiter=",", ndmin=2)
            if not data.size:
                raise DomainError("the file holds no atoms")
            if data.shape[1] != 2:
                raise DomainError("each row must hold a point and a weight")
            return cls(tuple((row[0], row[1]) for row in data))
        except ValueError as exc:  # DomainError and loadtxt's parse errors
            raise DomainError(f"{path}: {exc}") from None


class RationalFamily(_Record):
    """Basis family: the GMP family of ``poles``.

    ``kind`` "monomial" is the family with no poles and "smp" the Laurent
    family, the single pole 0.  A super-block descends from (c_g - x)^-m
    to (c_1 - x)^-m, so the order of ``poles`` fixes the order of its
    reciprocal functions.
    """

    kind: str
    poles: tuple = ()

    def __post_init__(self):
        if self.kind not in _PATTERNS:
            raise DomainError(f"kind must be one of {tuple(_PATTERNS)}")
        poles = tuple(finite("poles", c) for c in self.poles)
        object.__setattr__(self, "poles", poles)
        if self.kind == "monomial" and poles:
            raise DomainError("monomial family has no poles")
        if self.kind == "smp" and poles != (0.0,):
            raise DomainError("smp family has the single pole 0")
        if self.kind == "gmp" and len(set(poles)) != len(poles):
            raise DomainError("poles must be distinct")

    @property
    def block_size(self):
        return len(self.poles) + 1


def family_function(fam, n, x):
    """Value of the n-th family function at x (x must avoid the poles).

    The order is 1, then the super-blocks (c_g-x)^-m .. (c_1-x)^-m, x^m for
    m = 1, 2, ...: monomials are the case of no poles, and the Laurent family
    the case of the single pole 0.
    """
    x = np.asarray(x, dtype=float)
    g = len(fam.poles)
    if n == 0:
        return np.ones_like(x)
    m = (n - 1) // (g + 1) + 1
    r = (n - 1) % (g + 1)
    if r == g:
        return x**m
    c = fam.poles[g - 1 - r]
    if np.any(x == c):
        raise DomainError(f"evaluation at the pole {c}")
    return (c - x) ** (-m)


def multiplication_matrix(measure, fam, n_funcs):
    """Matrix of multiplication by x in the orthonormalized family basis.

    QR with one reorthogonalization pass orthonormalizes the first
    n_funcs family functions in L2 of the measure.  Raises on a family
    value or a matrix that overflows float64 and on rank deficiency
    (reporting the failing index), and warns when the conditioning of
    the raw family exceeds 1e12.
    """
    xs, ws = measure.support, measure.weights
    if n_funcs < 1:
        raise DomainError("n_funcs must be >= 1")
    if n_funcs > len(xs):
        raise DomainError("n_funcs exceeds the number of atoms")
    sw = np.sqrt(ws)
    with np.errstate(over="ignore", invalid="ignore"):  # refused, not warned about
        F = np.column_stack([sw * family_function(fam, n, xs) for n in range(n_funcs)])
        Q1, R1 = np.linalg.qr(_check_finite("a family function", F))
        Q, R2 = np.linalg.qr(Q1)  # one reorthogonalization pass
        R = _check_finite("the multiplication matrix", R2 @ R1)
    diag = np.abs(np.diag(R))
    bad = np.where(diag <= 1e-13 * np.max(diag))[0]
    if bad.size:
        raise DomainError(
            f"family is linearly dependent on the support at index {bad[0]}"
        )
    if diag.max() / diag.min() > 1e12:
        warnings.warn(
            "ill-conditioned family: condition estimate exceeds 1e12",
            RuntimeWarning,
            stacklevel=2,
        )
    signs = np.sign(np.diag(R))
    Q = Q * signs
    with np.errstate(over="ignore", invalid="ignore"):
        M = Q.T @ (xs[:, None] * Q)
        return _check_finite("the multiplication matrix", 0.5 * M + 0.5 * M.T)


def structure_report(M, fam, tol=1e-8):
    """Classify M against the expected pattern and list violations.

    Returns {"pattern": name, "bandwidth": b, "violations": [...]} where
    each violation is (i, j, value, reason).  Patterns: "jacobi"
    (tridiagonal, positive off-diagonal), "smp" (five-diagonal, outer
    diagonal alternating zero / positive), "class-A" (bandwidth g+1,
    outer diagonal zero except positive entries on one block position).
    """
    M = np.asarray(M)
    scale = tol * (1.0 + np.max(np.abs(M)))
    w = fam.block_size
    outer = np.diagonal(M, w)
    # nonzero outer entries live on a single residue class mod the block
    # size; detect the class, then enforce it (for w = 1 it is 0)
    classes = [np.max(np.abs(outer[r::w])) if outer[r::w].size else 0.0 for r in range(w)]
    live = int(np.argmax(classes))
    bad = _class_a_violations(M, w, live, scale)
    violations = [(i, j, float(M[i, j]), "outside bandwidth")
                  for i, j in np.argwhere(np.triu(bad, w + 1)).tolist()]
    for i in np.flatnonzero(np.diagonal(bad, w)).tolist():
        if fam.kind == "monomial":
            reason = "off-diagonal not positive"
        else:
            reason = "outer entry not positive" if i % w == live else "outer entry not zero"
        violations.append((i, i + w, float(outer[i]), reason))
    return {"pattern": _PATTERNS[fam.kind], "bandwidth": w, "violations": violations}
