"""Block operators of class A and GMP membership tests.

A class-A operator is a (g+1)-block Jacobi matrix with diagonal blocks

    B = strict_upper(q p^T) + lower_with_diag(p q^T) + diag(c_1..c_g, 0)

and off-diagonal blocks A = e_g p^T (only the last row nonzero).  The
one-block-periodic case is generated by a single coefficient pair
(p, q) in R^{g+1} together with the ordered pole list C.
"""

import math
import sys

from ._kernels import _factor_product
from ._lazy import np
from .errors import DomainError, _Record, count, finite, numbers


class GmpCoefficients(_Record):
    """Generating data of a one-block-periodic class-A operator.

    ``poles`` holds the g distinct reals c_1..c_g; ``p`` and ``q`` are the
    length g+1 generating vectors.  Requires p[g] > 0.  The sign ambiguity
    (p_j, q_j) -> (-p_j, -q_j) for j < g is fixed by storing p_j >= 0
    (and q_j >= 0 whenever p_j = 0).
    """

    poles: tuple
    p: tuple
    q: tuple

    def __post_init__(self):
        poles = tuple(finite("poles", c) for c in self.poles)
        p = [finite("p", v) for v in self.p]
        q = [finite("q", v) for v in self.q]
        g = len(poles)
        if len(p) != g + 1 or len(q) != g + 1:
            raise DomainError(f"p and q must have length g+1 = {g + 1}")
        if len(set(poles)) != g:
            raise DomainError("poles must be distinct")
        if p[g] <= 0:
            raise DomainError("p_g must be positive")
        for j in range(g):
            if p[j] < 0 or (p[j] == 0 and q[j] < 0):
                p[j], q[j] = -p[j], -q[j]
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "p", tuple(p))
        object.__setattr__(self, "q", tuple(q))

    @property
    def g(self):
        return len(self.poles)

    @classmethod
    def from_dict(cls, d):
        return cls(numbers("poles", d.get("poles", [])), numbers("p", d["p"]),
                   numbers("q", d["q"]))


class BandedOperator(_Record):
    """Real symmetric banded matrix in LAPACK lower-band storage.

    ``lower[d, i]`` holds entry (i+d, i) for 0 <= d <= half_bandwidth.
    ``gmp build`` hands ``serialize.lower_triangle_csv`` the rows of
    ``_band`` as they are, not wrapped in an array.
    """

    n: int
    half_bandwidth: int
    lower: "np.ndarray"

    def to_dense(self):
        """The full matrix: the lower band, mirrored.  The mirroring add
        stores a band -0.0 as +0.0 on both sides."""
        n = self.n
        L = np.zeros((n, n))
        flat = L.reshape(-1)
        for d in range(min(self.half_bandwidth, n - 1) + 1):
            flat[d * n :: n + 1] = self.lower[d, : n - d]  # entries (i + d, i)
        L += np.tril(L, -1).T
        return L

    def eigenvalues(self):
        """All eigenvalues, from LAPACK's banded solver (scipy.linalg.eig_banded).

        The oracle the tests compare ``spectrum_truncation`` against; no CLI
        command calls it.
        """
        import scipy.linalg  # deferred: ~250 ms start-up that no CLI command needs

        return scipy.linalg.eig_banded(
            self.lower, lower=True, eigvals_only=True
        )


def build_blocks(coeffs):
    """The (g+1) x (g+1) blocks (A, B) of the periodic operator; DomainError
    if an entry of B overflows float64."""
    S = np.array(_stacked_blocks(coeffs))
    w = coeffs.g + 1
    return S[w:].T, S[:w]


def _stacked_blocks(coeffs):
    """The 2(g+1) rows of [B; A^T] as lists of Python floats, numpy not
    executed; DomainError if an entry of B overflows float64.

    Each entry of B is rounded as the sum np.triu(q p^T, 1) + np.tril(p q^T)
    + diag(c_1..c_g, 0) rounds it: an off-diagonal product plus 0.0 (a -0.0
    becomes +0.0) and (p_i q_i + 0.0) + c_i on the diagonal.  Row i of A^T
    is p_i e_g^T.
    """
    p, q, g = coeffs.p, coeffs.q, coeffs.g
    B = [[(p[i] * q[j] if j <= i else q[i] * p[j]) + 0.0 for j in range(g + 1)]
         for i in range(g + 1)]
    for i, c in enumerate(coeffs.poles + (0.0,)):
        B[i][i] += c
    return _check_finite("the block B", B) + [[0.0] * g + [v] for v in p]


def _check_finite(what, a):
    """a, or DomainError if an entry overflowed to inf or became NaN.  A list
    of rows of Python floats is tested without executing numpy."""
    if isinstance(a, list):
        ok = all(math.isfinite(v) for row in a for v in row)
    else:
        ok = np.isfinite(a).all()
    if not ok:
        raise DomainError(f"{what} overflows float64: the input is out of range")
    return a


def _check_periods(coeffs, n_periods):
    """DomainError unless 1 <= n_periods and the band storage of the section,
    (g+2) (g+1) n_periods floats, has fewer bytes than an index can count."""
    w = coeffs.g + 1
    count("n_periods", n_periods, 1, sys.maxsize // (8 * (w + 1) * w), "section")


def _band(coeffs, n_periods):
    """The band storage of ``assemble``, numpy not executed: g+2 rows, each
    an ``array.array`` of float64.

    Entry (j + d, j) of row d, r = j mod w, is entry (r + d, r) of the
    stacked blocks [B; A^T], and 0.0 past the last row.
    """
    from array import array  # deferred: an extension module the other commands skip

    _check_periods(coeffs, n_periods)
    S = _stacked_blocks(coeffs)
    w = coeffs.g + 1
    n = w * n_periods
    band = [array("d", [S[r + d][r] for r in range(w)]) * n_periods for d in range(w + 1)]
    for d, row in enumerate(band):
        row[n - d :] = array("d", [0.0] * d)
    return band


def assemble(coeffs, n_periods):
    """Finite section with n_periods blocks and open (zero) boundary."""
    w = coeffs.g + 1
    return BandedOperator(n=w * n_periods, half_bandwidth=w,
                          lower=np.array(_band(coeffs, n_periods)))


def _transfer_phase(coeffs, eig_b, n_periods, x):
    """Sturm count of the N-period open section at every point of x.

    Returns (phi, psi, j): #{eigenvalues < x} = floor(phi/pi) + N j, and
    psi - k pi has the sign of phi - k pi for every integer k.  The block
    LDL^T recursion sigma_k = [(B - x - sigma_{k-1} p p^T)^{-1}]_gg is the
    Moebius map of the transposed transfer matrix K = T(x)^T acting on
    the angle w, sigma = -cot w, and the count is floor(K~^N(pi/2)/pi)
    for the lift K~ of K with K~(0) in ((m-1)pi, m pi], where
    m = #{eig B < x} + [R_pp >= 0] and R_pp = T12/T22.  The Nth power is
    taken in closed form by conjugation: to a rotation by beta where
    |tr T| < 2, with phi = psi = phi0 + N beta, and to diag(lam, 1/lam)
    where |tr T| > 2.  There phi is the forward image of the angle pi/2
    and psi the backward image of 0 compared with pi/2: each is a step
    function of x at states localized at one end of the section and
    smooth at those at the other.  Where the conjugation degenerates, at
    |tr T| = 2 exactly and within one float spacing of a pole (at the
    scale of max(|x|, ||p||)), the count is taken one such spacing above.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.linalg.norm(coeffs.p)  # never 0, since p_g > 0
        while True:
            for c in coeffs.poles:
                step = np.spacing(max(abs(c), scale))
                on = np.abs(x - c) < step
                if on.any():
                    x = np.where(on, c + step, x)
            t11, t12, t21, t22 = _factor_product(x, coeffs.poles, coeffs.p, coeffs.q)
            tau = 0.5 * (t11 + t22)
            w = np.sqrt(np.abs((1.0 - tau) * (1.0 + tau)))
            _check_finite("the transfer matrix", w)
            flat = w == 0.0
            if not flat.any():
                break
            x = np.where(flat, x + np.spacing(np.maximum(np.abs(x), scale)), x)
        # #{eig B < x}: T22 = -1/R_pg vanishes at eig B and changes sign at the
        # poles, so T22 > 0 iff an even number of both lie above x; a count
        # that disagrees (x within rounding of an eigenvalue) moves across the
        # nearest one
        k = np.searchsorted(eig_b, x)
        above = len(eig_b) - k + np.sum(np.asarray(coeffs.poles)[:, None] > x, axis=0)
        off = (t22 != 0.0) & ((t22 < 0.0) != (above % 2 == 1))
        if off.any():
            near = np.concatenate([[-np.inf], eig_b, [np.inf]])
            k = np.where(off, np.where(x - near[k] < near[k + 1] - x, k - 1, k + 1), k)
        j = k - 1 + (t12 * t22 >= 0.0)
        # elliptic: K = P R(beta) P^-1 with P = [[1, A], [0, C]], C > 0, fixing the angle 0
        up = t12 > 0.0
        beta = np.arctan2(w, tau)
        beta = np.where(up, beta, np.pi - beta)
        phi = np.arctan2(2.0 * w, np.where(up, t22 - t11, t11 - t22)) + n_periods * beta
        psi = phi
        hyp = np.abs(tau) >= 1.0
        if hyp.any():
            phi, psi = phi.copy(), psi.copy()
            phi[hyp], psi[hyp], low = _hyperbolic_phase(
                n_periods, tau[hyp], w[hyp], t11[hyp], t12[hyp], t21[hyp], t22[hyp]
            )
            j[hyp] += low
        return phi, psi, j


def _hyperbolic_phase(n_periods, tau, w, t11, t12, t21, t22):
    """(phi, psi, low) of ``_transfer_phase`` where |tr T| > 2.

    sign(tau) K = P diag(lam, 1/lam) P^-1 with P = [u, v], det P > 0.
    zeta and phi0 are the preimages under P of the angles 0 and pi/2;
    the lift of K is P~ D~ P~^-1 + (m - 1 + low) pi, with low = 1 when
    P~ D~ P~^-1 maps the angle 0 below 0.
    """
    sg = np.where(tau > 0.0, 1.0, -1.0)
    a, b, c, d = sg * t11, sg * t21, sg * t12, sg * t22
    lam, inv = np.abs(tau) + w, np.abs(tau) - w
    ua = np.abs(lam - a) > np.abs(lam - d)
    u1, u2 = np.where(ua, b, lam - d), np.where(ua, lam - a, c)
    va = np.abs(inv - a) > np.abs(inv - d)
    v1, v2 = np.where(va, b, inv - d), np.where(va, inv - a, c)
    det = u1 * v2 - u2 * v1
    v1, v2 = np.where(det < 0.0, -v1, v1), np.where(det < 0.0, -v2, v2)
    zeta = np.arctan2(-u2, v2)  # taken in (-pi, 0]
    zeta = np.where(zeta > 0.0, zeta - np.pi, zeta)
    phi0 = zeta + np.arctan2(np.abs(det), -(u1 * u2 + v1 * v2))
    mu = np.exp(-2.0 * n_periods * np.arcsinh(w))  # lam^(-2N)
    phi = np.arctan2(mu * np.sin(phi0), np.cos(phi0)) - zeta
    psi = phi0 - np.arctan2(np.sin(zeta), mu * np.cos(zeta))
    return phi, psi, zeta < -0.5 * np.pi


# an eigenvalue within _HIT (1 + |c|) of a pole c lies on it
_HIT = 1e-9


def _near_pole_counts(coeffs, n_periods, poles):
    """Eigenvalues of the N-period section within eps = _HIT (1 + |c|) of
    each pole c, the threshold ``_pole_weights`` deflates with: the counts
    of ``_transfer_phase`` below c + eps and below c - eps, differenced.
    ``poles`` picks the poles counted, in order; each count is
    elementwise, so it does not depend on which others are counted."""
    c = np.asarray(poles, dtype=float)
    eps = _HIT * (1.0 + np.abs(c))
    eig_b = np.linalg.eigvalsh(build_blocks(coeffs)[1])
    phi, _, j = _transfer_phase(coeffs, eig_b, n_periods, np.concatenate([c - eps, c + eps]))
    below = np.floor(phi / np.pi).astype(int) + n_periods * j
    return below[c.size :] - below[: c.size]


def lambda_positivity_test(coeffs):
    """GMP membership via positivity of all residues Lambda_k.

    Returns (is_gmp, lambdas), lambdas a list of floats; vacuously true
    for g = 0, and false where a Lambda_k is NaN.
    """
    from .transfer import lambda_k  # deferred to avoid an import cycle

    lambdas = [lambda_k(coeffs, k) for k in range(1, coeffs.g + 1)]
    return all(v > 0 for v in lambdas), lambdas


def check_shifted_inverse_structure(coeffs, k, n_periods=None, tol=1e-8):
    """Numerical check that S^{-k} (c_k - A)^{-1} S^k is again of class A.

    Forms the resolvent at c_k of the finite section (``_window_resolvent``),
    shifts indices by k and verifies the class-A sparsity and sign pattern
    on the window rows, those at least 2(g+1)^2 rows from both ends of the
    shifted matrix: zero beyond bandwidth g+1, and on the outermost
    diagonal zero except at the p_g positions (row index g modulo g+1),
    which must be positive.

    n_periods=None reads N0 = 4(g+1) + 3 periods, whose verdict every N >= N0
    gives.  An explicit N raises DomainError if the window holds fewer than
    2(g+1) rows, which could miss every outermost-diagonal entry and so pass
    vacuously: w (N - 4w - 2) >= k with w = g+1, a multiple of w against
    1 <= k <= g < w, holds for every k (N >= N0) or for none.
    ``gmp check`` calls this for k = 1..g in order and evaluates every k, so
    a DomainError of a later pole is raised even after an earlier False.
    """
    if not 1 <= k <= coeffs.g:
        raise DomainError(f"k must be in 1..{coeffs.g}")
    g = coeffs.g
    w = g + 1
    margin = 2 * w * w
    if n_periods is not None:
        rows = w * n_periods - k - 2 * margin
        if rows < 2 * w:
            raise DomainError(f"window of {max(rows, 0)} rows, need {2 * w}: raise n_periods")
        _check_periods(coeffs, n_periods)
    # rows and columns k..n-1: the index shift by k
    R, _ = _window_resolvent(coeffs, ((1.0, coeffs.poles[k - 1]),), n_periods,
                             lambda n: (k, n, slice(margin, n - margin)))
    m = R.shape[0]
    t = tol * (1.0 + max(R.max(), -R.min()))  # max|R|, with no n x n temporary
    # margin is a multiple of w, so window row r carries p_g where r % w == g
    return not _class_a_violations(R[margin : m - margin, margin : m - margin], w, g, t).any()


def _class_a_violations(M, w, live, scale):
    """Mask of the entries of M that break the class-A shape of bandwidth w.

    An entry beyond the bandwidth must be at most ``scale`` in modulus; on
    the outermost diagonal (i, i + w) it must exceed ``scale`` in rows
    i = live (mod w) and be at most ``scale`` in modulus in the others.
    """
    i = np.arange(M.shape[0])[:, None]
    d = np.arange(M.shape[1]) - i  # column minus row
    big = np.abs(M) > scale
    outer = d == w
    live_row = i % w == live
    return (big & (np.abs(d) > w)) | (outer & ~live_row & big) | (outer & live_row & (M <= scale))


def _pole_weights(evals, evecs, c, num, rows):
    """Spectral weights num / (c - evals) of num (c - A)^{-1}, pole-deflated.

    Open-boundary truncations can pin spurious eigenvalues on a pole c,
    within _HIT (1 + |c|) of it, the threshold ``_near_pole_counts`` counts
    with.  Such modes are boundary-localized and carry no weight on the
    window ``rows``, so they get weight 0; a mode with amplitude on the
    window makes the resolvent genuinely singular and raises DomainError.
    """
    hit = np.abs(c - evals) < _HIT * (1.0 + abs(c))
    if np.any(hit) and np.max(np.abs(evecs[rows, hit])) > 1e-8:
        raise DomainError(f"pole {c} hits the truncation spectrum")
    return np.where(hit, 0.0, num / np.where(hit, 1.0, c - evals))


def _window_resolvent(coeffs, terms, n_periods, window):
    """(W, n): rows and columns start..stop-1, (start, stop, rows) = window(n),
    of the sum of lam (c - A)^{-1} over the (lam, c) in terms, every c a pole
    of coeffs, for the one section A of n rows, min(N, 4w + 3) periods (4w + 3
    if N is None), w = g + 1, that the hit gate and both paths read.  Its
    first, interior and last blocks and their neighbours (``_block_resolvent``)
    do not depend on N, and magic's middle third and the check's 3w - k > 2w
    rows 2w blocks from both ends are interior and span two full blocks, so
    the block path reads the floats it reads at N.  Where a c is hit
    (``_near_pole_counts``), the transfer matrix overflows, a block solve
    fails or W is not finite, W is one eigendecomposition's of A, deflated by
    ``_pole_weights``.
    """
    w = coeffs.g + 1
    n0 = 4 * w + 3
    n_periods = n0 if n_periods is None else min(n_periods, n0)
    n = w * n_periods
    start, stop, rows = window(n)
    try:
        hit = _near_pole_counts(coeffs, n_periods, [c for _, c in terms]).any()
    except DomainError:  # the transfer matrix overflows at a c of terms
        hit = True
    W = None if hit else _block_resolvent(coeffs, terms, n_periods)
    if W is None or not np.isfinite(W := W[start:stop, start:stop]).all():
        evals, evecs = np.linalg.eigh(assemble(coeffs, n_periods).to_dense())
        weights = sum(_pole_weights(evals, evecs, c, lam, rows) for lam, c in terms)
        W = (evecs[start:stop] * weights) @ evecs[start:stop].T
    return W, n


def _block_resolvent(coeffs, terms, n_periods):
    """The whole resolvent of ``_window_resolvent`` where no eigenvalue lies
    on a c of terms; None if a solve is exactly singular.

    c - A_N is block tridiagonal with Z = c - B on the diagonal and
    -p e_g^T below it, so every block of its inverse G below the diagonal
    is rank one: G_kj = a_k (e_g^T G_{k-1,j}) with a_k = (Z - beta_k e_g e_g^T)^{-1} p
    (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992).  The left Schur
    complements are Z - alpha_k p p^T, alpha_0 = 0 and
    alpha_{k+1} = [(Z - alpha_k p p^T)^{-1}]_gg; the right ones are
    Z - beta_k e_g e_g^T, beta_{N-1} = 0 and beta_{k-1} = p^T a_k; and
    G_kk = (Z - alpha_k p p^T - beta_k e_g e_g^T)^{-1}.

    At a pole, e_g^T Z^{-1} p = 0.  For c on diagonal index i < g, take v
    supported on 0..i: row j >= i of Z v = p reads
    -p_j (q_0 v_0 + ... + q_i v_i) = p_j, one condition for all of them,
    which with rows 0..i-1 makes i + 1 equations for i + 1 unknowns.  By Sherman-Morrison both recursions are then constant after
    one step, alpha_k = [Z^{-1}]_gg and beta_k = p^T Z^{-1} p, and
    a_k = Z^{-1} p has a zero g-th entry, so G is block tridiagonal.
    Each pole is a lane of the batched solves, LU with pivoting.
    """
    _, B = build_blocks(coeffs)
    p = np.asarray(coeffs.p)
    lam, c = np.array(terms, dtype=float).reshape(-1, 2).T
    g = coeffs.g
    w = g + 1
    Z = c[:, None, None] * np.eye(w) - B
    E = np.zeros((w, w))
    E[g, g] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            y = np.linalg.solve(Z, np.column_stack([p, E[g]]))  # Z^-1 p and Z^-1 e_g
            alpha = y[:, g, 1, None, None]
            beta = (y[..., 0] @ p)[:, None, None]
            k = np.arange(n_periods)[:, None, None, None]  # block, then lane
            M = (Z - np.where(k > 0, alpha, 0.0) * np.outer(p, p)
                 - np.where(k < n_periods - 1, beta, 0.0) * E)
            G = np.linalg.inv(M)  # (block, lane, w, w)
        except np.linalg.LinAlgError:  # an exactly singular Z or Schur complement
            return None
        t = np.arange(n_periods)
        W = np.zeros((n_periods, w, n_periods, w))
        W[t, :, t, :] = np.einsum("l,tlij->tij", lam, G)
        below = np.einsum("l,li,tlj->tij", lam, y[..., 0], G[:-1, :, g])  # G_{k,k-1}
        W[t[1:], :, t[:-1], :] = below
        W[t[:-1], :, t[1:], :] = below.transpose(0, 2, 1)
    return W.reshape(n_periods * w, n_periods * w)
