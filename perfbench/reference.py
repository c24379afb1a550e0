"""Reference formulas and output checks, independent of the code under test.

Every check here recomputes the expected value from the paper's
definitions with its own few lines of numpy, so a defect in a gmpmat
code path cannot also hide in its check:

- one-period transfer matrix: the ordered product of the pole factors
  I - (1/(c_k - z)) [p;q][p q] j and the infinity factor
  [[0, -p_g], [1/p_g, (z - p_g q_g)/p_g]];
- Lambda_k: minus the trace of that product at z = c_k with the k-th
  factor replaced by its rank-one part [p;q][p q] j;
- Delta(z) = lambda0 z + c0 + sum lambda_k / (c_k - z);
- resolvent roots: the two roots of m21 x^2 + (m22 - m11) x - m12 = 0,
  the one with positive imaginary part being a0^2 r_+ on the upper half
  plane;
- periodic Jacobi trace: the product of infinity factors with
  (p, q) = (a_j, b_j / a_j);
- finite sections: B = strict_upper(q p^T) + lower_with_diag(p q^T)
  + diag(c, 0) on the diagonal blocks and p on the coupling column.

A check returns None when the output is right and a one-line reason
when it is not.
"""

import json

import numpy as np

REL = 1e-9  # relative tolerance for values printed with 17 digits


def close(got, want, scale, rel=REL):
    return abs(got - want) <= rel * (1.0 + scale)


# --- formulas ---------------------------------------------------------------


def rank_one(p, q):
    return np.array([[p * q, -p * p], [q * q, -p * q]])


def pole_factor(z, c, p, q):
    return np.eye(2) - rank_one(p, q) / (c - z)


def inf_factor(z, p, q):
    return np.array([[0.0, -p], [1.0 / p, (z - p * q) / p]], dtype=complex)


def transfer(coeffs, z):
    poles, p, q = coeffs["poles"], coeffs["p"], coeffs["q"]
    M = np.eye(2, dtype=complex)
    for k, c in enumerate(poles):
        M = M @ pole_factor(z, c, p[k], q[k])
    return M @ inf_factor(z, p[-1], q[-1])


def lambdas(coeffs):
    poles, p, q = coeffs["poles"], coeffs["p"], coeffs["q"]
    out = []
    for k, ck in enumerate(poles):
        M = np.eye(2)
        for m, c in enumerate(poles):
            M = M @ (rank_one(p[m], q[m]) if m == k else pole_factor(ck, c, p[m], q[m]))
        M = M @ inf_factor(ck, p[-1], q[-1]).real
        out.append(-(M[0, 0] + M[1, 1]))
    return np.array(out)


def delta_value(delta, z):
    val = delta["lambda0"] * z + delta["c0"]
    for lam, c in delta["terms"]:
        val = val + lam / (c - z)
    return val


def delta_of(coeffs):
    """The discriminant whose isospectral manifold contains ``coeffs``."""
    p, q = coeffs["p"], coeffs["q"]
    nu0 = 1.0 / p[-1]
    d0 = -q[-1] - nu0 * float(np.dot(p[:-1], q[:-1]))
    return {
        "lambda0": nu0,
        "c0": d0,
        "terms": [[float(lam), float(c)] for lam, c in zip(lambdas(coeffs), coeffs["poles"])],
    }


def manifold_defect(coeffs, delta):
    """Largest defect of the tail and residue equations of the manifold."""
    p, q = np.asarray(coeffs["p"]), np.asarray(coeffs["q"])
    tail_p = 1.0 / delta["lambda0"]
    tail_q = -delta["c0"] - delta["lambda0"] * float(np.dot(p[:-1], q[:-1]))
    res = lambdas(coeffs) - np.array([lam for lam, _ in delta["terms"]])
    return max([abs(p[-1] - tail_p), abs(q[-1] - tail_q)] + list(np.abs(res)))


def resolvent_roots(coeffs, z):
    """(a0^2 r_+, 1/r_-) at a point of the upper half plane."""
    M = transfer(coeffs, z)
    V = M[0, 0] - M[1, 1]
    tr = M[0, 0] + M[1, 1]
    s = np.sqrt(tr * tr - 4.0 + 0.0j)
    x1, x2 = (V + s) / (2.0 * M[1, 0]), (V - s) / (2.0 * M[1, 0])
    return (x1, x2) if x1.imag > x2.imag else (x2, x1)


def jacobi_trace(a, b, z):
    M = np.eye(2, dtype=complex)
    for aj, bj in zip(a, b):
        M = M @ inf_factor(z, aj, bj / aj)
    return M[0, 0] + M[1, 1]


def section_entry(coeffs, i, j):
    """Entry (i, j) of the finite section, i >= j."""
    p, q, poles = coeffs["p"], coeffs["q"], coeffs["poles"]
    w = len(p)
    if i // w == j // w:
        r, s = i % w, j % w
        return p[r] * q[s] + (poles[r] if r == s and r < w - 1 else 0.0)
    if i // w == j // w + 1 and j % w == w - 1:
        return p[i % w]
    return 0.0


# --- readers ----------------------------------------------------------------


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_lines(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.endswith(b"\n"):
        return None
    return data[:-1].split(b"\n")


def sample_rows(n, rng, k=64):
    """First, last and k random row indices."""
    return sorted({0, n - 1, *rng.integers(0, n, size=min(k, n)).tolist()})


# --- checks of CLI outputs --------------------------------------------------


def check_grid_csv(path, spec, ncols, ref_row, rng):
    """Row count, exact x column and sampled rows against ``ref_row(x)``."""
    lines = read_lines(path)
    xs = np.linspace(*spec)
    if lines is None or len(lines) != len(xs):
        return f"expected {len(xs)} rows, got {None if lines is None else len(lines)}"
    for i in sample_rows(len(xs), rng):
        row = [float(v) for v in lines[i].split(b",")]
        if len(row) != ncols or row[0] != xs[i]:
            return f"row {i} malformed: {lines[i][:80]!r}"
        want = ref_row(xs[i])
        scale = max(abs(v) for v in want)
        for got, ref in zip(row[1:], want):
            if not close(got, ref, scale):
                return f"row {i}: {got!r} != reference {float(ref)!r}"
    return None


def transfer_grid_row(coeffs):
    return lambda x: [transfer(coeffs, x).trace().real]


def delta_grid_row(delta):
    return lambda x: [delta_value(delta, x)]


def resolvent_grid_row(coeffs, imag):
    def row(x):
        rp, rm = resolvent_roots(coeffs, complex(x, imag))
        return [rp.real, rp.imag, rm.real, rm.imag]

    return row


def jacobi_grid_row(a, b):
    return lambda x: [jacobi_trace(a, b, x).real]


def check_section_csv(path, coeffs, periods, rng):
    """Line count n(n+1)/2, (i, j) order and sampled entries."""
    n = len(coeffs["p"]) * periods
    lines = read_lines(path)
    want = n * (n + 1) // 2
    if lines is None or len(lines) != want:
        return f"expected {want} lines, got {None if lines is None else len(lines)}"
    for k in sample_rows(want, rng):
        i = int((np.sqrt(8 * k + 1) - 1) // 2)
        j = k - i * (i + 1) // 2
        fi, fj, val = lines[k].split(b",")
        ref = section_entry(coeffs, i, j)
        if (int(fi), int(fj)) != (i, j) or not close(float(val), ref, abs(ref)):
            return f"line {k}: {lines[k]!r}, want {i},{j},{ref!r}"
    return None


def check_spectrum(eigs, coeffs, periods):
    """Count, order, trace and Frobenius norm of the finite section."""
    eigs = np.asarray(eigs, dtype=float)
    p, q, poles = map(np.asarray, (coeffs["p"], coeffs["q"], coeffs["poles"]))
    n = len(p) * periods
    if eigs.shape != (n,) or np.any(np.diff(eigs) < 0):
        return f"expected {n} sorted eigenvalues"
    B = np.triu(np.outer(q, p), 1) + np.tril(np.outer(p, q)) + np.diag(list(poles) + [0.0])
    trace = periods * np.trace(B)
    frob2 = periods * np.sum(B * B) + 2.0 * (periods - 1) * np.sum(p * p)
    if not close(eigs.sum(), trace, n * np.max(np.abs(eigs))):
        return f"eigenvalue sum {float(eigs.sum())!r} != trace {float(trace)!r}"
    if not close(np.sum(eigs * eigs), frob2, frob2):
        return f"eigenvalue square sum != Frobenius norm {float(frob2)!r}"
    return None


def check_spectrum_csv(path, coeffs, periods):
    lines = read_lines(path)
    if lines is None:
        return "output does not end in a newline"
    return check_spectrum([float(v) for v in lines], coeffs, periods)


def check_gap_set(got, E, scale):
    """A finite gap set dict against the expected one, to 1e-9 * scale."""
    want = [E["b0"], E["a0"]] + [v for gap in E["gaps"] for v in gap]
    have = [got["b0"], got["a0"]] + [v for gap in got["gaps"] for v in gap]
    if len(have) != len(want):
        return f"expected {len(E['gaps'])} gaps, got {len(got['gaps'])}"
    err = max(abs(a - b) for a, b in zip(have, want))
    if err > 1e-9 * scale:
        return f"band edges off by {err:.3e}"
    return None


def check_discriminant(delta, E):
    """Delta = +/-2 at every band edge, positive weights, one pole per gap."""
    if delta["lambda0"] <= 0 or len(delta["terms"]) != len(E["gaps"]):
        return "wrong leading coefficient or number of poles"
    for (lam, c), (a, b) in zip(sorted(delta["terms"], key=lambda t: t[1]), E["gaps"]):
        if lam <= 0 or not a < c < b:
            return f"term ({lam}, {c}) not admissible for gap ({a}, {b})"
    edges = [(E["b0"], -2.0), (E["a0"], 2.0)]
    for a, b in E["gaps"]:
        edges += [(a, 2.0), (b, -2.0)]
    for x, t in edges:
        scale = abs(delta["lambda0"] * x) + abs(delta["c0"])
        scale += sum(abs(lam / (c - x)) for lam, c in delta["terms"])
        if abs(delta_value(delta, x) - t) > 1e-9 * (1.0 + scale):
            return f"Delta({x}) != {t}"
    return None


def check_band_edges(edges, a, b):
    """Each edge solves trace = +/-2 with a sign change; at most 2p edges."""
    edges = list(edges)
    if len(edges) > 2 * len(a) or edges != sorted(edges):
        return f"{len(edges)} edges for period {len(a)}"
    for x in edges:
        h = 1e-7 * (1.0 + abs(x))
        lo, mid, hi = (jacobi_trace(a, b, v).real for v in (x - h, x, x + h))
        t = 2.0 if abs(mid - 2.0) < abs(mid + 2.0) else -2.0
        if (lo - t) * (hi - t) > 0 or abs(mid - t) > 1e-6 * (1.0 + abs(hi - lo) / h):
            return f"trace at edge {x!r} is {mid!r}"
    return None
