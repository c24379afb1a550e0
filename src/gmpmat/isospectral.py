"""The algebraic isospectral manifold of periodic GMP matrices.

For a target discriminant the manifold is cut out by the tail equations
p_g = 1/lambda0, q_g = -c0 - lambda0 * sum_{j<g} p_j q_j and the residue
equations Lambda_k = lambda_k.  This module projects onto the manifold,
traces it, verifies the operator identity Delta(A) = S^{g+1} + S^{-(g+1)}
on truncations, computes the spectrum of a truncation from the one-period
transfer matrix, and gives the transfer matrix and band edges of a
periodic Jacobi operator for comparison.
"""

import sys

from ._kernels import _dot, _factor_product
from ._lazy import np
from .errors import ConvergenceError, DomainError, count, finite
from .gmp import (BandedOperator, GmpCoefficients, _check_finite, _check_periods, _transfer_phase,
                  _window_resolvent, assemble, build_blocks, lambda_positivity_test)
from .transfer import lambda_k


def _damped_newton(evaluate, x, tol, max_iter=100):
    """Damped Newton iteration on res(x) = 0; returns x and its ``jacobian``.

    ``evaluate(x)`` gives (res, jacobian) at x, one call per point, and
    ``jacobian()`` forms J from that evaluation when a step needs it.  The
    step is the minimum-norm least-squares solution of J step = -res (the
    Newton step for a square, nonsingular J); it is halved up to 40 times
    until the trial point is finite and lowers the max-norm residual or
    reaches ``tol``.  An empty residual (g = 0) is solved at once.

    Raises ConvergenceError (carrying the last residual) if no halving is
    accepted, or if the residual is above ``tol`` after ``max_iter`` steps,
    and DomainError if the residual or the Jacobian overflows.
    """
    # LAPACK prints to stdout when lstsq gets a non-finite system; an accepted
    # step lowers a finite residual, so only the first one needs the check
    res, jacobian = evaluate(x)
    rnorm = np.max(np.abs(_check_finite("the Newton system", res)), initial=0.0)
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        J = _check_finite("the Newton system", jacobian())
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        scale = 1.0
        for _ in range(40):
            trial = x + scale * step
            if np.all(np.isfinite(trial)):
                tres, tjac = evaluate(trial)
                tnorm = np.max(np.abs(tres))
                if tnorm < rnorm or tnorm <= tol:
                    x, res, jacobian, rnorm = trial, tres, tjac, tnorm
                    break
            scale *= 0.5
        else:
            raise ConvergenceError(f"Newton stalled at residual {rnorm:.3e}", residual=rnorm)
    if rnorm <= tol:
        return x, jacobian
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations, residual {rnorm:.3e}",
        residual=rnorm,
    )


def forced_tail(delta, head):
    """Tail pair (p_g, q_g) forced by the manifold equations.

    ``head`` is the flat sequence (p_0..p_{g-1}, q_0..q_{g-1}).  The sum is
    ``_dot``'s, as in ``discriminant_coeffs``' d0: no numpy.
    """
    g = delta.g
    if len(head) != 2 * g:
        raise DomainError(f"head must have length 2g = {2 * g}")
    return 1.0 / delta.lambda0, -delta.c0 - delta.lambda0 * _dot(head[:g], head[g:])


def _head_pq(delta, head):
    """Full (p, q) of a head vector, with the forced tail appended."""
    p_g, q_g = forced_tail(delta, head.tolist())  # _dot reads Python floats faster
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


def manifold_residual(coeffs, delta):
    """Defects Lambda_k - lambda_k, k = 1..g: a list of floats, with Lambda_k
    from ``transfer.lambda_k`` (``transfer lambdas``' values, bit for bit)."""
    _check_poles(coeffs, delta)
    return [lambda_k(coeffs, k) - lam for k, (lam, _) in enumerate(delta.terms, 1)]


def _head_system(delta, pm, head):
    """(res, jacobian): the head residual Lambda_k - lambda_k and a function
    giving its exact Jacobian, shape (g, 2g), from the same lane products.

    With prefix P_j and suffix S_j of factor j in lane k,
    dLambda_k/dx = -tr(dF_j/dx S_j P_j).  The pole and rank-one factors
    are W R_j (plus I), and R = [[pq, -p^2], [q^2, -pq]] gives
    tr(dR/dp M) = q (M00 - M11) - 2p M10 and
    tr(dR/dq M) = p (M00 - M11) + 2q M01.  The forced tail adds
    dLambda_k/dq_g = (S_g P_g)_11 through dq_g/dp_j = -lambda0 q_j and
    dq_g/dq_j = -lambda0 p_j.
    """
    g = delta.g
    p, q = _head_pq(delta, head)
    F = _lane_factors(pm, p, q)
    P = _prefix_products(F)
    res = -(P[:, -1, 0, 0] + P[:, -1, 1, 1]) - np.array([lam for lam, _ in delta.terms])

    def jacobian():
        S = np.empty_like(F)  # S[:, j] = F[:, j+1] .. F[:, g]
        S[:, g] = np.eye(2)
        for j in range(g, 0, -1):
            S[:, j - 1] = F[:, j] @ S[:, j]
        M = S @ P[:, :-1]
        diag = M[:, :g, 0, 0] - M[:, :g, 1, 1]
        tail = delta.lambda0 * M[:, g, 1, 1, None]  # dLambda_k/dq_g = M_g11, times lambda0
        pj, qj = p[:g], q[:g]
        Jp = -pm[1] * (qj * diag - 2.0 * pj * M[:, :g, 1, 0]) - tail * qj
        Jq = -pm[1] * (pj * diag + 2.0 * qj * M[:, :g, 0, 1]) - tail * pj
        return np.hstack([Jp, Jq])

    return res, jacobian


def _gauss_newton(delta, pm, head, tol):
    """Damped Gauss-Newton projection of a head onto the manifold; (head, jacobian)."""
    return _damped_newton(lambda x: _head_system(delta, pm, x), np.asarray(head, dtype=float), tol)


def project_to_manifold(init_head, delta, tol=1e-10):
    """Damped Gauss-Newton projection of a head vector onto the manifold.

    The 2g head unknowns are iterated with the tail substituted from
    forced_tail at every step.  A converged point with some Lambda_k <= 0
    (``lambda_positivity_test``, ``gmp check``'s is_gmp) is rejected and
    retried from up to 8 seeded perturbed starts.
    """
    g = delta.g
    init_head = np.array([finite("init_head", v) for v in init_head])
    pm = _pole_matrices(delta.poles)
    rng = None  # made at the first retry: a first-try success never imports numpy.random
    last_exc = None
    for attempt in range(9):
        start = init_head
        if attempt:
            rng = rng or np.random.default_rng(0)
            start = init_head + rng.normal(scale=0.3 * (1.0 + np.abs(init_head)), size=2 * g)
        try:
            head, _ = _gauss_newton(delta, pm, start, tol)
        except ConvergenceError as exc:
            last_exc = exc
            continue
        point = _coeffs_from_head(delta, head)
        if lambda_positivity_test(point)[0]:
            return point
        last_exc = ConvergenceError("converged to a point with Lambda_k <= 0")
    raise last_exc


def trace_torus(start, delta, steps, step_len, tol=1e-10):
    """Continuation along the manifold by tangent steps plus re-projection.

    Each step moves the head along a unit null vector of the residual
    Jacobian (its sign kept consistent with the previous step) and
    re-projects.  Every returned point, the first included, satisfies the
    manifold equations to ``tol`` and carries the exact forced tail, at
    every g (at g = 0 it is the one point p_0 = 1/lambda0, q_0 = -c0).
    The steps + 1 rows of 2g + 3 floats of the CLI's table must have
    fewer bytes than an index can count.
    """
    _check_poles(start, delta)
    g = delta.g
    count("steps", steps, 0, sys.maxsize // (8 * (2 * g + 3)) - 1, "trace")
    step_len = finite("step_len", step_len)
    head = np.concatenate([np.asarray(start.p[:g]), np.asarray(start.q[:g])])
    pm = _pole_matrices(delta.poles)
    head, jacobian = _gauss_newton(delta, pm, head, tol)
    points = [_coeffs_from_head(delta, head)]
    prev_t = None
    for i in range(steps):
        _, svals, vh = np.linalg.svd(jacobian())
        if svals.size and svals[-1] < 1e-10 * max(1.0, svals[0]):
            raise ConvergenceError(f"residual Jacobian rank-deficient at step {i}")
        t = vh[-1:].reshape(-1)  # null direction of the g x 2g Jacobian; empty at g = 0
        if prev_t is not None and np.dot(t, prev_t) < 0:
            t = -t
        prev_t = t
        head, jacobian = _gauss_newton(delta, pm, head + step_len * t, tol)
        points.append(_coeffs_from_head(delta, head))
    return points


def magic_verify(coeffs, delta, n_periods=60):
    """Interior defect of Delta(A_N) - (S^{g+1} + S^{-(g+1)}) on a truncation.

    Returns the maximum absolute entry over the middle-third row and
    column range; small exactly at manifold points.  It is the same float
    at every N from 4(g+1) + 3 on, whether or not an eigenvalue of the
    section lies on a pole: the window is taken from a section of at most
    that many periods, in work that does not grow with N
    (``_window_resolvent``).
    """
    _check_poles(coeffs, delta)
    _check_periods(coeffs, n_periods)
    build_blocks(coeffs)  # B's overflow error comes before the window's
    w = coeffs.g + 1
    if w * n_periods == 1:  # one row: an empty middle third
        raise DomainError("window of 0 rows, need 1: raise n_periods")
    D, n = _window_resolvent(coeffs, delta.terms, n_periods,
                             lambda n: (n // 3, 2 * n // 3, slice(n // 3, 2 * n // 3)))
    lo, hi = n // 3, 2 * n // 3
    m = hi - lo
    # rows and columns lo..hi-1 are the band matrix in columns lo..hi-1 of the band storage
    window = BandedOperator(m, w, assemble(coeffs, n // w).lower[:, lo:hi]).to_dense()
    D = D + delta.lambda0 * window + delta.c0 * np.eye(m)
    idx = np.arange(m - w)
    D[idx, idx + w] -= 1.0
    D[idx + w, idx] -= 1.0
    return float(np.max(np.abs(D)))


def _floquet_points(B, p, n_periods):
    """Sorted eigenvalues of the periodic closure, padded by 2||p|| at both ends.

    They are the eigenvalues of B + e^{i theta} e_g p^T + e^{-i theta} p e_g^T
    at theta = 2 pi k/N (theta and -theta agree, so only k <= N/2 is
    solved).  The closure differs from the open section by a rank-2
    perturbation of norm at most 2||p|| with one eigenvalue of each sign,
    so by Weyl the i-th eigenvalue of the open section lies between
    points i and i+2 of the returned list.
    """
    g = len(p) - 1
    k = np.arange(n_periods // 2 + 1)
    phase = np.exp(2j * np.pi * k / n_periods)[:, None]
    F = np.broadcast_to(B.astype(complex), (k.size,) + B.shape).copy()
    F[:, g, :] += phase * p
    F[:, :, g] += np.conj(phase) * p
    ev = np.linalg.eigvalsh(F)
    twice = (k > 0) & (2 * k < n_periods)
    mu = np.sort(np.repeat(ev, np.where(twice, 2, 1), axis=0), axis=None)
    pad = 2.0 * np.linalg.norm(p)
    return np.concatenate([[mu[0] - pad], mu, [mu[-1] + pad]])


def spectrum_truncation(coeffs, n_periods):
    """Sorted eigenvalues of the open finite section with n_periods blocks.

    No matrix is factored.  The count of eigenvalues below x comes from
    the one-period transfer matrix (``_transfer_phase``), in O(g) work per
    point whatever n_periods is.  Every eigenvalue starts in the bracket
    of two neighbouring periodic (Floquet) eigenvalues, ``_floquet_points``,
    and all are refined together on the continuous phase: a secant step
    through the last two points, else regula falsi on the bracket, and a
    bisection when a bracket has not halved in three passes, until no
    float lies strictly inside the bracket or the phase hits its target
    exactly.  ``assemble(coeffs, n_periods).eigenvalues()``, the LAPACK
    banded solver, is the oracle the tests compare against.

    Raises DomainError when the eigenvalues miss the section's closed-form
    trace or Frobenius norm by more than ``_SPECTRUM_DEFECT_BOUND`` (see
    ``_spectrum_defect``): badly scaled coefficients cancel in the
    transfer matrix and lose the phase's digits.
    """
    _check_periods(coeffs, n_periods)
    N = n_periods
    B = build_blocks(coeffs)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        pts = _check_finite("a Floquet point", _floquet_points(B, np.asarray(coeffs.p), N))
    eig_b = np.linalg.eigvalsh(B)

    def residual(phi, psi, j, lanes):
        # of the two phases' distances to lane i's target (i + 1) pi, the
        # smaller: both have its sign, so the pick is continuous in x
        target = np.pi * (lanes + 1 - N * j)
        return np.where(np.abs(phi - target) <= np.abs(psi - target), phi, psi) - target

    phi, psi, j = _transfer_phase(coeffs, eig_b, N, pts)
    theta = np.maximum.accumulate(phi + np.pi * N * j)
    lanes = np.arange((coeffs.g + 1) * N)
    # first point with count >= i + 1, and the one before it
    h = np.clip(np.searchsorted(theta, np.pi * (lanes + 1)), 1, pts.size - 1)
    lo, hi = pts[h - 1], pts[h]
    flo = residual(phi[h - 1], psi[h - 1], j[h - 1], lanes)
    fhi = residual(phi[h], psi[h], j[h], lanes)
    xa, fa, xb, fb = lo, flo, hi, fhi  # the last two points, for the secant
    widths = [np.full(lanes.size, np.inf)] * 3
    out = np.empty(lanes.size)
    while True:
        done = (0.5 * (lo + hi) <= lo) | (0.5 * (lo + hi) >= hi)
        if done.any():
            out[lanes[done]] = hi[done]
            keep = ~done
            lanes, lo, hi, flo, fhi, xa, fa, xb, fb = (
                v[keep] for v in (lanes, lo, hi, flo, fhi, xa, fa, xb, fb)
            )
            widths = [v[keep] for v in widths]
            if not lanes.size:
                break
        width = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):  # equal residuals: no step
            secant = xa - fa * ((xa - xb) / (fa - fb))
            falsi = lo - flo * (width / (fhi - flo))
        trial = np.where((lo < secant) & (secant < hi), secant, falsi)
        trial = np.minimum(np.maximum(trial, np.nextafter(lo, hi)), np.nextafter(hi, lo))
        step = (width <= 0.5 * widths[0]) & ~np.isnan(trial)
        x = np.where(step, trial, 0.5 * (lo + hi))
        widths = widths[1:] + [width]
        f = residual(*_transfer_phase(coeffs, eig_b, N, x), lanes)
        left = f < 0.0
        lo, flo = np.where(left, x, lo), np.where(left, f, flo)
        hi, fhi = np.where(left, hi, x), np.where(left, fhi, f)
        lo = np.where(f == 0.0, x, lo)  # on target: x is the eigenvalue
        xb, fb, xa, fa = xa, fa, x, f
    eigs = np.sort(out)
    d = _spectrum_defect(eigs, B, np.asarray(coeffs.p), N)
    if not d <= _SPECTRUM_DEFECT_BOUND:
        raise DomainError(f"the spectrum lost accuracy (invariant defect {d:.1e} > "
                          f"{_SPECTRUM_DEFECT_BOUND:.0e}): the coefficients are too badly scaled")
    return eigs


# d of well-scaled sections grows about like sqrt(N): at most 1.0e-15 at
# 20 periods, 8.0e-15 at 10^3 and 7.9e-14 at 10^5.  The reproducer
# p = (10^e, 1), q = (1, 0), c = 2 at 3 periods reads 1.6e-12 at e = 5
# (an error of 2.6e-12 of max|lambda|) and 7.6e-9 at e = 8.
_SPECTRUM_DEFECT_BOUND = 1e-12


def _spectrum_defect(eigs, B, p, N):
    """max(|sum lam - tr A_N| / |A_N|_F, |sum lam^2 - |A_N|_F^2| / |A_N|_F^2).

    tr A_N = N tr B and |A_N|_F^2 = N |B|_F^2 + 2 (N - 1) |p|^2 hold
    exactly for the open section, so d reads the eigenvalues' error and
    the sums' rounding.  All terms are divided by the largest entry
    first, so no square overflows.
    """
    s = max(np.max(np.abs(B)), np.max(np.abs(p)))
    lam, B, p = eigs / s, B / s, p / s
    frob2 = N * np.sum(B * B) + 2.0 * (N - 1) * np.sum(p * p)
    scale2 = max(frob2, np.finfo(float).tiny)  # frob2 = 0 for A_1 = B = 0
    return max(abs(np.sum(lam) - N * np.trace(B)) / np.sqrt(scale2),
               abs(np.sum(lam * lam) - frob2) / scale2)


def _jacobi_ab(a, b):
    """(a, b) as tuples of finite floats, a_j > 0, checked in Python."""
    a = tuple(finite("a", v) for v in a)
    b = tuple(finite("b", v) for v in b)
    if len(a) != len(b) or not a:
        raise DomainError("a and b must be nonempty and of equal length")
    if any(v <= 0 for v in a):
        raise DomainError("all a_j must be positive")
    return a, b


def _jacobi_product(a, b, z):
    """Entries (m11, m12, m21, m22) of the periodic Jacobi transfer matrix.

    The factors are the infinity-type factors with (p, q) = (a_j,
    b_{j-1}/a_j); a scalar z needs no numpy.
    """
    a, b = _jacobi_ab(a, b)
    return _factor_product(z, (), a, tuple(bj / aj for aj, bj in zip(a, b)))


def jacobi_transfer(a, b, z):
    """Periodic Jacobi transfer matrix and its trace (see ``_jacobi_product``).

    The spectrum of the period-p operator is the preimage of [-2, 2]
    under the trace.  For an ndarray z the trace has the shape of z and
    the matrix has shape (2, 2) + z.shape.
    """
    m11, m12, m21, m22 = _jacobi_product(a, b, z)
    return m11 + m22, np.array([[m11, m12], [m21, m22]])


def jacobi_band_edges(a, b):
    """The 2N band edges, sorted, of the period-N Jacobi operator.

    They are the Floquet eigenvalues at theta = 0 and pi: the spectra of
    the N x N matrices with diagonal b, off-diagonal a[1:] and corners
    +a[0] (periodic) or -a[0] (antiperiodic); for N = 1 these are
    b +/- 2a.  A closed gap appears as an equal pair.
    """
    a, b = map(np.array, _jacobi_ab(a, b))
    M = np.diag(b) + np.diag(a[1:], 1) + np.diag(a[1:], -1)
    corners = np.zeros_like(M)
    corners[0, -1] += a[0]
    corners[-1, 0] += a[0]  # for N = 1 both land on the diagonal
    edges = np.append(np.linalg.eigvalsh(M + corners), np.linalg.eigvalsh(M - corners))
    return np.sort(edges).tolist()
