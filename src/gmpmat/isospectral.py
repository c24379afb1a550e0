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


def _damped_newton(residual, jacobian, x, tol, max_iter=100):
    """Damped Newton iteration on residual(x) = 0; returns x.

    The step is the minimum-norm least-squares solution of
    J step = -res with J = jacobian(x) (the Newton step for a square,
    nonsingular J); it is halved up to 40 times until the trial point is
    finite and lowers the max-norm residual or reaches ``tol``.

    Raises ConvergenceError (carrying the last residual) if no halving is
    accepted, or if the residual is above ``tol`` after ``max_iter`` steps.
    """
    res = residual(x)
    rnorm = np.max(np.abs(res))
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        step, *_ = np.linalg.lstsq(jacobian(x), -res, rcond=None)
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
        return x
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


def _head_pq(delta, head):
    """Full (p, q) of a head vector, with the forced tail appended."""
    p_g, q_g = forced_tail(delta, head)
    return np.concatenate([head[:delta.g], [p_g], head[delta.g:], [q_g]]).reshape(2, -1)


def _coeffs_from_head(delta, head):
    return GmpCoefficients(delta.poles, *_head_pq(delta, head))


def _check_poles(coeffs, delta):
    if coeffs.g != delta.g or coeffs.poles != delta.poles:
        raise DomainError("coefficients and discriminant must share the pole list")


def _pole_matrices(poles):
    """(c, W, 1 - I): the pole-only parts of the lane factors.

    W[k, j] = 1/(c_k - c_j) off the diagonal and W[k, k] = 1.  They depend
    only on the poles, so each solve builds them once and passes them down.
    """
    c = np.asarray(poles, dtype=float)
    eye = np.eye(len(c))
    return c, 1.0 / (c[:, None] - c + eye), 1.0 - eye


def _lane_factors(pm, p, q):
    """Factors F[k, j], shape (g, g+1, 2, 2), with Lambda_k = -tr(F[k, 0] .. F[k, g]).

    Lane k is the one-period product at z = c_k with factor k replaced by
    the rank-one R_k = [p_k; q_k][p_k q_k] j, as in transfer.lambda_k:
    F[k, j] = I + W[k, j] R_j with W[k, j] = 1/(c_k - c_j), F[k, k] = R_k
    (W[k, k] = 1), and F[k, g] the infinity factor.  ``pm`` is
    ``_pole_matrices(poles)``.
    """
    c, W, off = pm
    g = len(c)
    pj, qj = p[:g], q[:g]
    Wpq = W * (pj * qj)
    F = np.empty((g, g + 1, 2, 2))
    F[:, :g, 0, 0] = off + Wpq
    F[:, :g, 0, 1] = W * -(pj * pj)
    F[:, :g, 1, 0] = W * (qj * qj)
    F[:, :g, 1, 1] = off - Wpq
    p_g, q_g = p[g], q[g]
    F[:, g, 0] = 0.0, -p_g
    F[:, g, 1, 0] = 1.0 / p_g
    F[:, g, 1, 1] = (c - p_g * q_g) / p_g
    return F


def _prefix_products(F):
    """P[:, j] = F[:, 0] .. F[:, j-1] in every lane, j = 0..g+1."""
    P = np.empty((F.shape[0], F.shape[1] + 1, 2, 2))
    P[:, 0] = np.eye(2)
    for j in range(F.shape[1]):
        P[:, j + 1] = P[:, j] @ F[:, j]
    return P


def _lane_lambdas(pm, p, q):
    """All Lambda_k at once: minus the trace of each lane's product."""
    m = _prefix_products(_lane_factors(pm, p, q))[:, -1]
    return -(m[:, 0, 0] + m[:, 1, 1])


def manifold_residual(coeffs, delta):
    """Vector of defects Lambda_k - lambda_k, k = 1..g."""
    _check_poles(coeffs, delta)
    return _residual(delta, _pole_matrices(delta.poles), np.array(coeffs.p), np.array(coeffs.q))


def _residual(delta, pm, p, q):
    return _lane_lambdas(pm, p, q) - np.array([lam for lam, _ in delta.terms])


def _head_jacobian(delta, pm, head):
    """Exact Jacobian of the head residual, shape (g, 2g).

    With prefix P_j and suffix S_j of factor j in lane k,
    dLambda_k/dx = -tr(dF_j/dx S_j P_j).  The pole and rank-one factors
    are W R_j (plus I), and R = [[pq, -p^2], [q^2, -pq]] gives
    tr(dR/dp M) = q (M00 - M11) - 2p M10 and
    tr(dR/dq M) = p (M00 - M11) + 2q M01.  The forced tail adds
    dLambda_k/dq_g = (S_g P_g)_11 through dq_g/dp_j = -lambda0 q_j and
    dq_g/dq_j = -lambda0 p_j.
    """
    g = delta.g
    W = pm[1]
    p, q = _head_pq(delta, head)
    F = _lane_factors(pm, p, q)
    P = _prefix_products(F)
    S = np.empty_like(F)  # S[:, j] = F[:, j+1] .. F[:, g]
    S[:, g] = np.eye(2)
    for j in range(g, 0, -1):
        S[:, j - 1] = F[:, j] @ S[:, j]
    M = S @ P[:, :-1]
    diag = M[:, :g, 0, 0] - M[:, :g, 1, 1]
    tail = delta.lambda0 * M[:, g, 1, 1, None]  # dLambda_k/dq_g = M_g11, times lambda0
    pj, qj = p[:g], q[:g]
    Jp = -W * (qj * diag - 2.0 * pj * M[:, :g, 1, 0]) - tail * qj
    Jq = -W * (pj * diag + 2.0 * qj * M[:, :g, 0, 1]) - tail * pj
    return np.hstack([Jp, Jq])


def _gauss_newton(delta, pm, head, tol):
    """Damped Gauss-Newton projection of a head onto the manifold."""
    return _damped_newton(
        lambda x: _residual(delta, pm, *_head_pq(delta, x)),
        lambda x: _head_jacobian(delta, pm, x),
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
    pm = _pole_matrices(delta.poles)
    rng = np.random.default_rng(0)
    last_exc = None
    for attempt in range(max_restarts + 1):
        start = init_head if attempt == 0 else init_head + rng.normal(
            scale=0.3 * (1.0 + np.abs(init_head)), size=2 * g
        )
        try:
            head = _gauss_newton(delta, pm, start, tol)
        except ConvergenceError as exc:
            last_exc = exc
            continue
        if np.all(_lane_lambdas(pm, *_head_pq(delta, head)) > 0):
            return _coeffs_from_head(delta, head)
        last_exc = ConvergenceError("converged to a point with Lambda_k <= 0")
    raise last_exc


def trace_torus(start, delta, steps, step_len, tol=1e-10):
    """Continuation along the manifold by tangent steps plus re-projection.

    Each step moves the head along a unit null vector of the residual
    Jacobian (orientation kept consistent with the previous step) and
    re-projects.  Every returned point satisfies the manifold equations
    to ``tol`` and carries the exact forced tail.
    """
    _check_poles(start, delta)
    g = delta.g
    if g == 0:
        return [start] * (steps + 1)
    head = np.concatenate([np.asarray(start.p[:g]), np.asarray(start.q[:g])])
    pm = _pole_matrices(delta.poles)
    head = _gauss_newton(delta, pm, head, tol)
    points = [_coeffs_from_head(delta, head)]
    prev_t = None
    for i in range(steps):
        _, svals, vh = np.linalg.svd(_head_jacobian(delta, pm, head))
        if svals.size and svals[-1] < 1e-10 * max(1.0, svals[0]):
            raise ConvergenceError(f"residual Jacobian rank-deficient at step {i}")
        t = vh[-1]  # null direction of the g x 2g Jacobian
        if prev_t is not None and np.dot(t, prev_t) < 0:
            t = -t
        prev_t = t
        head = _gauss_newton(delta, pm, head + step_len * t, tol)
        points.append(_coeffs_from_head(delta, head))
    return points


def magic_verify(coeffs, delta, n_periods=60):
    """Interior defect of Delta(A_N) - (S^{g+1} + S^{-(g+1)}) on a truncation.

    Returns the maximum absolute entry over the middle-third row and
    column range; small (and shrinking with N) exactly at manifold points.
    Only that window block is formed: the pole terms share the
    eigenvectors, so their weights add up to one vector before the
    (window x n)(n x window) product.
    """
    _check_poles(coeffs, delta)
    dense = assemble(coeffs, n_periods).to_dense()
    n = dense.shape[0]
    window = slice(n // 3, 2 * n // 3)
    evals, evecs = np.linalg.eigh(dense)
    weights = sum(_pole_weights(evals, evecs, c, lam, window) for lam, c in delta.terms)
    V = evecs[window]
    m = V.shape[0]
    D = (V * weights) @ V.T + delta.lambda0 * dense[window, window] + delta.c0 * np.eye(m)
    w = coeffs.g + 1
    idx = np.arange(m - w)
    D[idx, idx + w] -= 1.0
    D[idx + w, idx] -= 1.0
    return float(np.max(np.abs(D)))


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
