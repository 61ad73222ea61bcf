"""Brute-force dense oracles, independent of the package's contraction code,
reference constructions that the package's faster builders replaced, and
spies that collect what the solver keeps no copy of."""

import numpy as np

from ttkrylov import (TTOperator, make_tt_operator, make_tt_vector, solver,
                      tt_round)
from ttkrylov.tt import _carry_right, _min_rank_for_tail


def dense_from_cores(cores):
    """Entrywise contraction of order-3 cores by explicit index loops."""
    modes = [c.shape[1] for c in cores]
    out = np.zeros(modes)
    for idx in np.ndindex(*modes):
        mat = cores[0][:, idx[0], :]
        for k in range(1, len(cores)):
            mat = mat @ cores[k][:, idx[k], :]
        out[idx] = mat[0, 0]
    return out


def dense_op_from_cores(cores):
    """Matricized operator from order-4 cores by explicit index loops."""
    rows = [c.shape[1] for c in cores]
    cols = [c.shape[2] for c in cores]
    out = np.zeros((int(np.prod(rows)), int(np.prod(cols))))
    for ridx in np.ndindex(*rows):
        for cidx in np.ndindex(*cols):
            mat = cores[0][:, ridx[0], cidx[0], :]
            for k in range(1, len(cores)):
                mat = mat @ cores[k][:, ridx[k], cidx[k], :]
            out[np.ravel_multi_index(ridx, rows),
                np.ravel_multi_index(cidx, cols)] = mat[0, 0]
    return out


def min_rank_for_tail_loop(s, tau):
    """Truncation rank by a scan: smallest r whose tail energy is <= tau, >= 1.

    tail[r] = sqrt(sum_{i >= r} s_i^2), accumulated from the smallest value
    up, as the package's rounding does.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0:
        return 1
    tail = np.sqrt(np.maximum(np.cumsum(s[::-1] ** 2), 0.0))[::-1]
    keep = s.size
    for r in range(s.size + 1):
        t = tail[r] if r < s.size else 0.0
        if t <= tau:
            keep = r
            break
    return max(1, keep)


def kron_chain(mats):
    out = np.array([[1.0]])
    for m in mats:
        out = np.kron(out, m)
    return out


def kron_sum(mats_per_term):
    """Dense sum of Kronecker products: one list of factors per term."""
    return sum(kron_chain(mats) for mats in mats_per_term)


def random_tt_cores(rng, modes, ranks):
    return [rng.standard_normal((ranks[k], n, ranks[k + 1]))
            for k, n in enumerate(modes)]


def random_ttop_cores(rng, row_modes, col_modes, ranks):
    return [rng.standard_normal((ranks[k], n, m, ranks[k + 1]))
            for k, (n, m) in enumerate(zip(row_modes, col_modes))]


def dense_mgs_gmres(a, b, maxit):
    """Reference dense MGS-GMRES; returns the iterate sequence."""
    beta = np.linalg.norm(b)
    v = [b / beta]
    h = np.zeros((maxit + 1, maxit))
    iterates = []
    for k in range(1, maxit + 1):
        w = a @ v[-1]
        for i in range(k):
            h[i, k - 1] = v[i] @ w
            w = w - h[i, k - 1] * v[i]
        h[k, k - 1] = np.linalg.norm(w)
        if h[k, k - 1] < 1e-14 * beta:
            e1 = np.zeros(k + 1)
            e1[0] = beta
            y, *_ = np.linalg.lstsq(h[:k + 1, :k], e1, rcond=None)
            iterates.append(sum(y[j] * v[j] for j in range(k)))
            break
        v.append(w / h[k, k - 1])
        e1 = np.zeros(k + 1)
        e1[0] = beta
        y, *_ = np.linalg.lstsq(h[:k + 1, :k], e1, rcond=None)
        iterates.append(sum(y[j] * v[j] for j in range(k)))
    return iterates


def fused_mode_preconditioner(d, g, q, tau):
    """Exponential-sum inverse Laplacian rounded as an operator, d >= 2.

    The reference construction: the 2q+1 Kronecker terms c_k E_k x ... x E_k
    are summed exactly into cores with fused n^2 modes and rounded once at
    tau, so the rounding sees the operator itself, not its spectra.
    """
    n = g.n
    j = np.arange(1, n + 1)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
    mu = (2.0 - 2.0 * np.cos(j * np.pi / (n + 1))) / g.h**2
    xi = np.pi / np.sqrt(q)
    terms = [(xi * np.exp(k * xi), (s * np.exp(-np.exp(k * xi) * mu)) @ s.T)
             for k in range(-q, q + 1)]
    cores = []
    for mode in range(d):
        a = 1 if mode == 0 else len(terms)
        b = 1 if mode == d - 1 else len(terms)
        core = np.zeros((a, n, n, b))
        for t, (c, e) in enumerate(terms):
            if mode == 0:
                core[0, :, :, t] = c * e
            elif mode == d - 1:
                core[t, :, :, 0] = e
            else:
                core[t, :, :, t] = e
        cores.append(core)
    return tt_round(make_tt_operator(cores), tau)


def right_orthogonalize(cores):
    """Make cores[1:] row-orthonormal in their (r_{k-1}, n_k r_k) unfolding.

    Returns a new list; the input cores are only read.
    """
    cores = list(cores)
    for k in range(len(cores) - 1, 0, -1):
        a, n, b = cores[k].shape
        q, r = np.linalg.qr(cores[k].reshape(a, n * b).T)
        cores[k] = q.T.reshape(q.shape[1], n, b)
        p, m, _ = cores[k - 1].shape
        cores[k - 1] = (cores[k - 1].reshape(p * m, a) @ r.T).reshape(p, m, -1)
    return cores


def cap_left_bonds(cores):
    """Cut leading bonds above their natural cap r_{k-1} n_k, exactly.

    While the left unfolding (r_{k-1} n_k, r_k) of the leading core is
    wide, that core is replaced by the Q of its QR and R is multiplied
    into the next core.  The last core is never replaced.  Returns a new
    list; the input cores are only read.
    """
    cores = list(cores)
    for k in range(len(cores) - 1):
        a, n, b = cores[k].shape
        if a * n >= b:
            break
        q, r = np.linalg.qr(cores[k].reshape(a * n, b))
        cores[k] = q.reshape(a, n, a * n)
        _, m, c = cores[k + 1].shape
        cores[k + 1] = (r @ cores[k + 1].reshape(b, m * c)).reshape(-1, m, c)
    return cores


def round_cores_forming_q(cores, delta):
    """QR-then-SVD rounding (Oseledets, SISC 2011) with every Q formed.

    The reference for the package's R-only sweep: right-orthogonalize
    explicitly, then truncate the SVD of each orthogonalized core.
    """
    d = len(cores)
    if d == 1:
        return [cores[0]]
    cores = right_orthogonalize(cap_left_bonds(cores))
    nrm = np.linalg.norm(cores[0])
    if nrm == 0.0:
        return [np.zeros((1, c.shape[1], 1)) for c in cores]
    tau = delta * nrm / np.sqrt(d - 1)
    for k in range(d - 1):
        a, n, b = cores[k].shape
        u, s, vt = np.linalg.svd(cores[k].reshape(a * n, b),
                                 full_matrices=False)
        r = _min_rank_for_tail(s, tau)
        cores[k] = u[:, :r].reshape(a, n, r)
        cores[k + 1] = _carry_right(s[:r, None] * vt[:r], cores[k + 1])
    return cores


def tt_round_forming_q(x, delta):
    """tt_round by round_cores_forming_q, for vectors and operators."""
    if isinstance(x, TTOperator):
        fused = [c.reshape(c.shape[0], c.shape[1] * c.shape[2], c.shape[3])
                 for c in x.cores]
        rounded = round_cores_forming_q(fused, delta)
        return make_tt_operator(
            [r.reshape(r.shape[0], c.shape[1], c.shape[2], r.shape[2])
             for r, c in zip(rounded, x.cores)])
    return make_tt_vector(round_cores_forming_q(list(x.cores), delta))


def tt_norm_forming_q(x):
    """Frobenius norm as |core 0| after an explicit right-orthogonalization."""
    return float(np.linalg.norm(right_orthogonalize(list(x.cores))[0]))


def tt_inner_tensordot(x, y):
    """<x, y> by the tensordot core sweep that tt_inners replaced."""
    g = np.ones((1, 1))
    for cx, cy in zip(x.cores, y.cores):
        tmp = np.tensordot(g, cx, axes=([0], [0]))       # (ry, n, rx')
        g = np.tensordot(cy, tmp, axes=([0, 1], [0, 1])).T  # (rx', ry')
    return float(g[0, 0])


def spy_bases(mp) -> list:
    """Every cycle's Krylov basis, in cycle order, filled in as solves run.

    `mp` is a pytest MonkeyPatch; the spy wraps solver._combine, which
    receives the list of basis vectors that its cycle grows, so once the
    cycle ends the list holds the whole basis.
    """
    bases = []
    combine = solver._combine

    def spy(v, y, delta):
        if not any(b is v for b in bases):
            bases.append(v)
        return combine(v, y, delta)

    mp.setattr(solver, "_combine", spy)
    return bases


def spy_judged_iterates(mp) -> list:
    """Every iterate the solver judges, in trace order, filled in as solves
    run; `mp` is a pytest MonkeyPatch, and the spy wraps
    solver.backward_errors."""
    iterates = []
    judge = solver.backward_errors

    def spy(a, x, *args, **kwargs):
        iterates.append(x)
        return judge(a, x, *args, **kwargs)

    mp.setattr(solver, "backward_errors", spy)
    return iterates
