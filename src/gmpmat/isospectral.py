"""The algebraic isospectral manifold of periodic GMP matrices.

For a target discriminant the manifold is cut out by the tail equations
p_g = 1/lambda0, q_g = -c0 - lambda0 * sum_{j<g} p_j q_j and the residue
equations Lambda_k = lambda_k.  This module projects onto the manifold,
traces it, verifies the operator identity Delta(A) = S^{g+1} + S^{-(g+1)}
on truncations, and extracts the induced Jacobi coefficients.
"""

import numpy as np

from ._kernels import _factor_product
from .errors import ConvergenceError, DomainError
from .gmp import _pole_weights, assemble, GmpCoefficients
from .transfer import lambda_k


def _damped_newton(residual, jacobian, x, tol, max_iter=100):
    """Damped Newton iteration on residual(x) = 0; returns (x, residual(x)).

    ``jacobian(x, res)`` gets the residual the iteration already holds at
    x.  The step is the minimum-norm least-squares solution of
    J step = -res (the Newton step for a square, nonsingular J); it is
    halved up to 40 times until the trial point is finite and lowers
    the max-norm residual or reaches ``tol``.

    Raises ConvergenceError (carrying the last residual) if no halving is
    accepted, or if the residual is above ``tol`` after ``max_iter`` steps.
    """
    res = residual(x)
    rnorm = np.max(np.abs(res))
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        J = jacobian(x, res)
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        scale = 1.0
        for _ in range(40):
            trial = x + scale * step
            if np.all(np.isfinite(trial)):
                tres = residual(trial)
                tnorm = np.max(np.abs(tres))
                if tnorm < rnorm or tnorm <= tol:
                    x, res, rnorm = trial, tres, tnorm
                    break
            scale *= 0.5
        else:
            raise ConvergenceError(f"Newton stalled at residual {rnorm:.3e}", residual=rnorm)
    if rnorm <= tol:
        return x, res
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations, residual {rnorm:.3e}",
        residual=rnorm,
    )


def forced_tail(delta, head):
    """Tail pair (p_g, q_g) forced by the manifold equations.

    ``head`` is the flat vector (p_0..p_{g-1}, q_0..q_{g-1}).
    """
    g = delta.g
    head = np.asarray(head, dtype=float)
    if head.shape != (2 * g,):
        raise DomainError(f"head must have length 2g = {2 * g}")
    p_head, q_head = head[:g], head[g:]
    p_g = 1.0 / delta.lambda0
    q_g = -delta.c0 - delta.lambda0 * float(np.dot(p_head, q_head))
    return p_g, q_g


def _coeffs_from_head(delta, head):
    g = delta.g
    p_g, q_g = forced_tail(delta, head)
    return GmpCoefficients(
        delta.poles, tuple(head[:g]) + (p_g,), tuple(head[g:]) + (q_g,)
    )


def manifold_residual(coeffs, delta):
    """Vector of defects Lambda_k - lambda_k, k = 1..g."""
    if coeffs.g != delta.g or coeffs.poles != delta.poles:
        raise DomainError("coefficients and discriminant must share the pole list")
    return np.array(
        [lambda_k(coeffs, k) - delta.terms[k - 1][0] for k in range(1, delta.g + 1)]
    )


def _head_residual(delta, head):
    return manifold_residual(_coeffs_from_head(delta, head), delta)


def _head_jacobian(delta, head, r0, h=1e-7):
    """Forward-difference Jacobian of the head residual; r0 is its value at head."""
    g = delta.g
    J = np.empty((g, 2 * g))
    for i in range(2 * g):
        step = h * (1.0 + abs(head[i]))
        hp = head.copy()
        hp[i] += step
        J[:, i] = (_head_residual(delta, hp) - r0) / step
    return J


def _gauss_newton(delta, head, tol):
    """Damped Gauss-Newton projection of a head; returns (head, residual)."""
    return _damped_newton(
        lambda x: _head_residual(delta, x),
        lambda x, res: _head_jacobian(delta, x, res),
        np.asarray(head, dtype=float), tol,
    )


def project_to_manifold(init_head, delta, tol=1e-10, max_restarts=8):
    """Damped Gauss-Newton projection of a head vector onto the manifold.

    The 2g head unknowns are iterated with the tail substituted from
    forced_tail at every step.  Converged points with some Lambda_k <= 0
    are rejected and retried from a deterministically perturbed start.
    """
    g = delta.g
    if g == 0:
        return _coeffs_from_head(delta, np.empty(0))
    init_head = np.asarray(init_head, dtype=float)
    rng = np.random.default_rng(0)
    last_exc = None
    for attempt in range(max_restarts + 1):
        start = init_head if attempt == 0 else init_head + rng.normal(
            scale=0.3 * (1.0 + np.abs(init_head)), size=2 * g
        )
        try:
            head, _ = _gauss_newton(delta, start, tol)
        except ConvergenceError as exc:
            last_exc = exc
            continue
        coeffs = _coeffs_from_head(delta, head)
        if all(lambda_k(coeffs, k) > 0 for k in range(1, g + 1)):
            return coeffs
        last_exc = ConvergenceError("converged to a point with Lambda_k <= 0")
    raise last_exc


def trace_torus(start, delta, steps, step_len, tol=1e-10):
    """Continuation along the manifold by tangent steps plus re-projection.

    Each step moves the head along a unit null vector of the residual
    Jacobian (orientation kept consistent with the previous step) and
    re-projects.  Every returned point satisfies the manifold equations
    to ``tol`` and carries the exact forced tail.
    """
    g = delta.g
    if g == 0:
        return [start] * (steps + 1)
    head = np.concatenate([np.asarray(start.p[:g]), np.asarray(start.q[:g])])
    head, res = _gauss_newton(delta, head, tol)
    points = [_coeffs_from_head(delta, head)]
    prev_t = None
    for i in range(steps):
        J = _head_jacobian(delta, head, res)
        _, svals, vh = np.linalg.svd(J)
        if svals.size and svals[-1] < 1e-10 * max(1.0, svals[0]):
            raise ConvergenceError(f"residual Jacobian rank-deficient at step {i}")
        t = vh[-1]  # null direction of the g x 2g Jacobian
        if prev_t is not None and np.dot(t, prev_t) < 0:
            t = -t
        prev_t = t
        head, res = _gauss_newton(delta, head + step_len * t, tol)
        points.append(_coeffs_from_head(delta, head))
    return points


def magic_verify(coeffs, delta, n_periods=60):
    """Interior defect of Delta(A_N) - (S^{g+1} + S^{-(g+1)}) on a truncation.

    Returns the maximum absolute entry over the middle-third row and
    column range; small (and shrinking with N) exactly at manifold points.
    """
    g = coeffs.g
    A = assemble(coeffs, n_periods)
    dense = A.to_dense()
    n = A.n
    window = slice(n // 3, 2 * n // 3)
    evals, evecs = np.linalg.eigh(dense)
    D = delta.lambda0 * dense + delta.c0 * np.eye(n)
    for lam, c in delta.terms:
        D += (evecs * _pole_weights(evals, evecs, c, lam, window)) @ evecs.T
    w = g + 1
    shift = np.zeros((n, n))
    idx = np.arange(n - w)
    shift[idx, idx + w] = 1.0
    shift[idx + w, idx] = 1.0
    defect = D - shift
    return float(np.max(np.abs(defect[window, window])))


def spectrum_truncation(coeffs, n_periods):
    """Sorted eigenvalues of the symmetric banded finite section."""
    return np.sort(assemble(coeffs, n_periods).eigenvalues())


def jacobi_coeffs(coeffs):
    """Jacobi coefficients induced at the origin: (||p||, p_g * q_g)."""
    p = np.asarray(coeffs.p)
    return float(np.linalg.norm(p)), float(coeffs.p[-1] * coeffs.q[-1])


def _jacobi_ab(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise DomainError("a and b must be nonempty and of equal length")
    if np.any(a <= 0):
        raise DomainError("all a_j must be positive")
    return a, b


def jacobi_transfer(a, b, z):
    """Periodic Jacobi transfer matrix and its trace.

    The factors are the infinity-type factors with (p, q) = (a_j,
    b_{j-1}/a_j); the spectrum of the period-p operator is the preimage
    of [-2, 2] under the trace.  For an ndarray z the trace has the shape
    of z and the matrix has shape (2, 2) + z.shape.
    """
    a, b = _jacobi_ab(a, b)
    m11, m12, m21, m22 = _factor_product(z, (), a.tolist(), (b / a).tolist())
    return m11 + m22, np.array([[m11, m12], [m21, m22]])


def jacobi_band_edges(a, b):
    """The 2N band edges, sorted, of the period-N Jacobi operator.

    They are the Floquet eigenvalues at theta = 0 and pi: the spectra of
    the N x N matrices with diagonal b, off-diagonal a[1:] and corners
    +a[0] (periodic) or -a[0] (antiperiodic); for N = 1 these are
    b +/- 2a.  A closed gap appears as an equal pair.
    """
    a, b = _jacobi_ab(a, b)
    M = np.diag(b) + np.diag(a[1:], 1) + np.diag(a[1:], -1)
    corners = np.zeros_like(M)
    corners[0, -1] += a[0]
    corners[-1, 0] += a[0]  # for N = 1 both land on the diagonal
    edges = np.append(np.linalg.eigvalsh(M + corners), np.linalg.eigvalsh(M - corners))
    return np.sort(edges).tolist()
