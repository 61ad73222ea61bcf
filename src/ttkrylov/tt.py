"""Tensor-train vectors and operators with exact and rounded arithmetic.

A tensor of order d is stored as a chain of order-3 cores, core k having
shape ``(r_{k-1}, n_k, r_k)`` with boundary ranks ``r_0 = r_d = 1``.  A
multilinear operator is stored the same way with order-4 cores of shape
``(r_{k-1}, n_k, m_k, r_k)``.

All objects are immutable after construction (core arrays are marked
read-only) and every function here is pure, so values can be shared freely
between threads.  Indices exposed to callers (slicing) are 1-based to match
the usual mathematical convention; storage is 0-based.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TTError",
    "RankChainError",
    "ModeMismatchError",
    "DenseBudgetError",
    "TTVector",
    "TTOperator",
    "StorageStats",
    "make_tt_vector",
    "make_tt_operator",
    "tt_zero",
    "tt_ones",
    "tt_rank_one",
    "tt_from_dense",
    "tt_to_dense",
    "tt_op_to_dense",
    "tt_op_from_factors",
    "tt_identity_operator",
    "tt_add",
    "tt_scale",
    "tt_inner",
    "tt_norm",
    "tt_first_mode_norms",
    "tt_round",
    "tt_apply",
    "tt_op_compose",
    "tt_random",
    "tt_slice_first_mode",
    "tt_op_diag_slice",
    "storage_stats",
    "dense_budget",
]

DENSE_BUDGET_ENV = "TTKRYLOV_DENSE_BUDGET"
_DEFAULT_DENSE_BUDGET = 10**6


class TTError(ValueError):
    """Base class for malformed tensor-train input."""


class RankChainError(TTError):
    """Adjacent cores disagree on a bond rank, or a boundary rank is not 1."""


class ModeMismatchError(TTError):
    """Two tensor trains do not share compatible mode sizes."""


class DenseBudgetError(TTError):
    """Dense materialization would exceed the configured entry budget."""


def dense_budget() -> int:
    """Entry cap for dense materialization, from TTKRYLOV_DENSE_BUDGET."""
    raw = os.environ.get(DENSE_BUDGET_ENV)
    if raw is None:
        return _DEFAULT_DENSE_BUDGET
    try:
        return int(float(raw))
    except (ValueError, OverflowError):
        raise TTError(f"{DENSE_BUDGET_ENV}: expected a finite number of "
                      f"entries, got {raw!r}") from None


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only float64 view of `a`; the caller's array keeps its flags."""
    a = np.ascontiguousarray(a, dtype=np.float64).view()
    a.flags.writeable = False
    return a


def _check_chain(shapes: list[tuple[int, ...]], kind: str) -> None:
    if shapes[0][0] != 1 or shapes[-1][-1] != 1:
        raise RankChainError(f"{kind} boundary ranks must be 1, got "
                             f"{shapes[0][0]} and {shapes[-1][-1]}")
    for k in range(len(shapes) - 1):
        if shapes[k][-1] != shapes[k + 1][0]:
            raise RankChainError(
                f"{kind} cores {k} and {k + 1} disagree on the bond rank: "
                f"{shapes[k][-1]} != {shapes[k + 1][0]}")


@dataclass(frozen=True)
class TTVector:
    """Order-d tensor as a chain of order-3 cores."""

    cores: tuple[np.ndarray, ...]

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    @property
    def max_rank(self) -> int:
        return max(self.ranks)


@dataclass(frozen=True)
class TTOperator:
    """Multilinear operator as a chain of order-4 cores (a "TT-matrix")."""

    cores: tuple[np.ndarray, ...]

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def row_modes(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def col_modes(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[3] for c in self.cores)

    @property
    def max_rank(self) -> int:
        return max(self.ranks)


@dataclass(frozen=True)
class StorageStats:
    """Storage telemetry: entry counts in TT and dense form."""

    max_rank: int
    tt_entries: int
    dense_entries: int
    compression_ratio: float


def _frozen_cores(cores, order: int, kind: str) -> tuple[np.ndarray, ...]:
    """Check a list of order-`order` cores and return read-only views."""
    if not cores:
        raise TTError("empty core list")
    frozen = []
    for k, c in enumerate(cores):
        c = np.asarray(c, dtype=np.float64)
        if c.ndim != order:
            raise TTError(
                f"core {k} must be order {order}, got shape {c.shape}")
        if min(c.shape) < 1:
            raise TTError(f"core {k} has an empty axis: {c.shape}")
        frozen.append(_freeze(c))
    _check_chain([c.shape for c in frozen], kind)
    return tuple(frozen)


def make_tt_vector(cores) -> TTVector:
    """Validate a list of order-3 cores and wrap it as a TTVector.

    Cores are not copied: the vector holds read-only views of the caller's
    float64 C-contiguous arrays (other arrays are converted first), so
    writing into such an array afterwards changes the vector.
    """
    return TTVector(_frozen_cores(cores, 3, "vector"))


def make_tt_operator(cores) -> TTOperator:
    """Validate a list of order-4 cores and wrap it as a TTOperator.

    Cores are not copied; see make_tt_vector.
    """
    return TTOperator(_frozen_cores(cores, 4, "operator"))


def tt_zero(modes) -> TTVector:
    """All-zero tensor with every rank equal to 1."""
    return make_tt_vector([np.zeros((1, n, 1)) for n in modes])


def tt_ones(modes) -> TTVector:
    """All-ones tensor (rank 1)."""
    return make_tt_vector([np.ones((1, n, 1)) for n in modes])


def tt_rank_one(factors) -> TTVector:
    """Separable tensor ``f_1 x ... x f_d`` from 1-d factor vectors."""
    return make_tt_vector(
        [np.asarray(f, dtype=np.float64).reshape(1, -1, 1) for f in factors])


def _min_rank_for_tail(s: np.ndarray, tau: float) -> int:
    """Smallest kept rank whose discarded singular-value energy is <= tau."""
    # tail[r] = sqrt(sum_{i >= r} s_i^2) is non-increasing and tail[size] = 0,
    # so the smallest r with tail[r] <= tau is a search from the right.
    tail = np.append(np.sqrt(np.cumsum(s[::-1] ** 2))[::-1], 0.0)
    keep = tail.size - np.searchsorted(tail[::-1], tau, side="right")
    return max(1, int(keep))


def tt_from_dense(t: np.ndarray, delta: float) -> TTVector:
    """Compress a dense array into TT form (sequential truncated SVD).

    The result ``y`` satisfies ``|dense(y) - t|_F <= delta * |t|_F`` using
    a per-unfolding cutoff of ``delta * |t| / sqrt(d - 1)``.
    """
    if delta < 0:
        raise TTError("delta must be >= 0")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        raise TTError("need at least an order-1 tensor")
    d = t.ndim
    modes = t.shape
    nrm = np.linalg.norm(t)
    if nrm == 0.0:
        return tt_zero(modes)
    if d == 1:
        return make_tt_vector([t.reshape(1, -1, 1)])
    tau = delta * nrm / np.sqrt(d - 1)
    cores = []
    r_prev = 1
    z = t
    for k in range(d - 1):
        m = z.reshape(r_prev * modes[k], -1)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        r = _min_rank_for_tail(s, tau)
        cores.append(u[:, :r].reshape(r_prev, modes[k], r))
        z = s[:r, None] * vt[:r]
        r_prev = r
    cores.append(z.reshape(r_prev, modes[-1], 1))
    return make_tt_vector(cores)


def tt_to_dense(x: TTVector, budget: int | None = None) -> np.ndarray:
    """Materialize the full tensor; refuses above the dense entry budget."""
    total = float(np.prod([float(n) for n in x.modes]))
    cap = dense_budget() if budget is None else budget
    if total > cap:
        raise DenseBudgetError(
            f"dense materialization of {x.modes} needs {int(total)} entries, "
            f"budget is {cap}")
    out = x.cores[0]
    for c in x.cores[1:]:
        out = np.tensordot(out, c, axes=([out.ndim - 1], [0]))
    return out.reshape(x.modes)


def tt_op_to_dense(a: TTOperator, budget: int | None = None) -> np.ndarray:
    """Materialize the matricized operator, shape (prod n_k, prod m_k)."""
    rows = int(np.prod([float(n) for n in a.row_modes]))
    cols = int(np.prod([float(m) for m in a.col_modes]))
    cap = dense_budget() if budget is None else budget
    if float(rows) * float(cols) > cap:
        raise DenseBudgetError(
            f"dense operator of shape ({rows}, {cols}) exceeds budget {cap}")
    out = np.ones((1, 1, 1))  # (row block, col block, bond)
    for c in a.cores:
        out = np.einsum("xyb,bijc->xiyjc", out, c)
        out = out.reshape(out.shape[0] * out.shape[1],
                          out.shape[2] * out.shape[3], out.shape[4])
    return out.reshape(rows, cols)


def tt_op_from_factors(factors) -> TTOperator:
    """Rank-1 operator ``A_1 x ... x A_d`` from per-mode matrices."""
    cores = []
    for f in factors:
        f = np.asarray(f, dtype=np.float64)
        if f.ndim != 2:
            raise TTError("factors must be matrices")
        cores.append(f.reshape(1, f.shape[0], f.shape[1], 1))
    return make_tt_operator(cores)


def tt_identity_operator(modes) -> TTOperator:
    """Identity operator (rank 1) on the given mode sizes."""
    return tt_op_from_factors([np.eye(n) for n in modes])


def _is_operator(x) -> bool:
    return isinstance(x, TTOperator)


def tt_add(*terms):
    """Exact sum of any number of TT vectors, or of TT operators.

    First cores are concatenated along the right bond, last cores along the
    left bond, and interior cores are filled in as diagonal blocks, in the
    order of the terms.  Interior bond ranks add exactly (r_k + s_k + ...);
    boundary ranks stay 1.
    """
    if not terms:
        raise TTError("tt_add needs at least one term")
    x = terms[0]
    for y in terms[1:]:
        if _is_operator(x) != _is_operator(y):
            raise ModeMismatchError("cannot add a vector and an operator")
        if _is_operator(x):
            if x.row_modes != y.row_modes or x.col_modes != y.col_modes:
                raise ModeMismatchError(
                    f"operator modes differ: {x.row_modes}x{x.col_modes} vs "
                    f"{y.row_modes}x{y.col_modes}")
        elif x.modes != y.modes:
            raise ModeMismatchError(f"modes differ: {x.modes} vs {y.modes}")
    d = x.d
    if d == 1:
        total = x.cores[0]
        for y in terms[1:]:
            total = total + y.cores[0]
        return _rewrap(x, [total])
    cores = [np.concatenate([t.cores[0] for t in terms], axis=-1)]
    for k in range(1, d - 1):
        blocks = [t.cores[k] for t in terms]
        new = np.zeros((sum(c.shape[0] for c in blocks),)
                       + blocks[0].shape[1:-1]
                       + (sum(c.shape[-1] for c in blocks),))
        a = b = 0
        for c in blocks:
            new[a:a + c.shape[0], ..., b:b + c.shape[-1]] = c
            a += c.shape[0]
            b += c.shape[-1]
        cores.append(new)
    cores.append(np.concatenate([t.cores[-1] for t in terms], axis=0))
    return _rewrap(x, cores)


def _rewrap(template, cores):
    if _is_operator(template):
        return make_tt_operator(cores)
    return make_tt_vector(cores)


def tt_scale(x, c: float):
    """Scale by a real number; only the first core changes, ranks do not."""
    return _rewrap(x, [x.cores[0] * float(c)] + list(x.cores[1:]))


def tt_inner(x: TTVector, y: TTVector) -> float:
    """Euclidean dot product, by a left-to-right core sweep."""
    if x.modes != y.modes:
        raise ModeMismatchError(f"modes differ: {x.modes} vs {y.modes}")
    g = np.ones((1, 1))
    for cx, cy in zip(x.cores, y.cores):
        tmp = np.tensordot(g, cx, axes=([0], [0]))       # (ry, n, rx')
        g = np.tensordot(cy, tmp, axes=([0, 1], [0, 1]))  # (ry', rx')
        g = g.T
    return float(g[0, 0])


def _carry_right(carry: np.ndarray, core: np.ndarray) -> np.ndarray:
    """``carry @ core`` over the left bond: (r, a) x (a, n, b) -> (r, n, b)."""
    a, n, b = core.shape
    return (carry @ core.reshape(a, n * b)).reshape(carry.shape[0], n, b)


def _right_r_sweep(cores):
    """Right-to-left QR sweep that keeps only the triangular factors.

    Returns (first, rs).  For k >= 1, rs[k] is the R factor of core k with
    rs[k+1]^T absorbed (geqrf alone, ``mode="r"``: no Q is formed), so
    cores k, ..., d-1 contract to rs[k]^T times a row-orthonormal matrix;
    first is core 0 with rs[1]^T absorbed.  The input cores are only read.
    """
    rs = [None] * len(cores)
    core = cores[-1]
    for k in range(len(cores) - 1, 0, -1):
        a, n, b = core.shape
        rs[k] = np.linalg.qr(core.reshape(a, n * b).T, mode="r")
        p, m, _ = cores[k - 1].shape
        core = (cores[k - 1].reshape(p * m, a) @ rs[k].T).reshape(p, m, -1)
    return core, rs


def tt_norm(x: TTVector) -> float:
    """Frobenius norm, sqrt(<x, x>).

    Evaluated as |core 0| after a right-to-left sweep that keeps only the
    R factors of each core's QR (the Q factors are orthonormal and never
    formed), rather than by the Gram recursion: on cancellation-heavy
    inputs (residuals of nearly-consistent systems) this keeps the
    absolute error at eps * |cores| instead of eps * |cores|^2, and it
    cannot go negative.
    """
    first, _ = _right_r_sweep(x.cores)
    return float(np.linalg.norm(first))


def tt_first_mode_norms(x: TTVector) -> np.ndarray:
    """Norms of the n_1 slices of x along its first mode, from one sweep.

    After tt_norm's right-to-left R sweep, cores 1, ..., d-1 contract to a
    row-orthonormal matrix, so slice l of x has the norm of row l of the
    swept first core.  Entry l-1 is the norm of tt_slice_first_mode(x, l);
    the norm of the returned array is |x|.
    """
    first, _ = _right_r_sweep(x.cores)
    return np.linalg.norm(first[0], axis=1)


def _cap_left_bonds(cores: list[np.ndarray]) -> list[np.ndarray]:
    """Cut leading bonds down to their natural cap r_{k-1} n_k, exactly.

    While a core's left unfolding (r_{k-1} n_k, r_k) is wide, its QR factor R
    is absorbed into the next core.  This is a change of basis, so the tensor
    is unchanged up to round-off; the QR sweep that follows then works at the
    capped bond instead of the inflated one.
    """
    cores = list(cores)
    for k in range(len(cores) - 1):
        a, n, b = cores[k].shape
        if a * n >= b:
            break
        q, r = np.linalg.qr(cores[k].reshape(a * n, b))
        cores[k] = q.reshape(a, n, a * n)
        cores[k + 1] = _carry_right(r, cores[k + 1])
    return cores


def _round_cores(cores: list[np.ndarray], delta: float) -> list[np.ndarray]:
    d = len(cores)
    if d == 1:
        return [cores[0]]
    cores = _cap_left_bonds(cores)
    first, rs = _right_r_sweep(cores)
    nrm = np.linalg.norm(first)
    if nrm == 0.0:
        return [np.zeros((1, c.shape[1], 1)) for c in cores]
    tau = delta * nrm / np.sqrt(d - 1)
    out = []
    m = cores[0]
    for k in range(d - 1):
        # m is core k with the carry applied, in the original right basis;
        # m @ rs[k+1]^T is the unfolding the Q-forming sweep would SVD.
        a, n, b = m.shape
        m = m.reshape(a * n, b)
        w = first.reshape(n, -1) if k == 0 else m @ rs[k + 1].T
        u, s, _ = np.linalg.svd(w, full_matrices=False)
        r = _min_rank_for_tail(s, tau)
        u = u[:, :r]
        out.append(u.reshape(a, n, r))
        m = _carry_right(u.T @ m, cores[k + 1])
    out.append(m)
    return out


def tt_round(x, delta: float):
    """Recompress to relative accuracy delta.

    Leading bonds above their natural cap r_{k-1} n_k are first cut by an
    exact left QR sweep.  A right-to-left sweep then keeps only the R
    factor R_k of each core's QR (core k with R_{k+1}^T absorbed); no Q is
    formed.  The left-to-right sweep takes M_k, core k with the carry
    applied, in its original basis, and truncates the SVD of
    M_k R_{k+1}^T with per-core cutoff ``delta * |x| / sqrt(d - 1)``: the
    kept left singular vectors U_r become core k and U_r^T M_k is carried
    into core k+1.  As the cores right of bond k contract to R_{k+1}^T
    times a row-orthonormal matrix, M_k R_{k+1}^T has the singular values
    of the full unfolding at that bond, so this is the QR-then-SVD
    rounding of Oseledets (SISC 2011).  Ranks never increase;
    ``|x - round(x)| <= delta * |x|``.
    """
    if delta < 0:
        raise TTError("delta must be >= 0")
    if _is_operator(x):
        fused = [c.reshape(c.shape[0], c.shape[1] * c.shape[2], c.shape[3])
                 for c in x.cores]
        shapes = [(c.shape[1], c.shape[2]) for c in x.cores]
        rounded = _round_cores(fused, delta)
        return make_tt_operator(
            [c.reshape(c.shape[0], n, m, c.shape[2])
             for c, (n, m) in zip(rounded, shapes)])
    return make_tt_vector(_round_cores(list(x.cores), delta))


def _core_product(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """One core of an operator product, as a single GEMM over the shared mode.

    ``ca`` is an operator core (ra, n, m, rb) and ``cb`` a core (sa, m, j, sb)
    (j = 1 for a vector core).  Returns the (ra sa, n, j, rb sb) core whose
    bonds are the Kronecker products of the input bonds, A's index major.
    """
    ra, n, m, rb = ca.shape
    sa, _, j, sb = cb.shape
    left = ca.transpose(0, 1, 3, 2).reshape(ra * n * rb, m)
    right = cb.transpose(1, 0, 2, 3).reshape(m, sa * j * sb)
    out = (left @ right).reshape(ra, n, rb, sa, j, sb)
    return out.transpose(0, 3, 1, 4, 2, 5).reshape(ra * sa, n, j, rb * sb)


def tt_apply(a: TTOperator, x: TTVector) -> TTVector:
    """Contract an operator with a vector; bond ranks multiply exactly."""
    if a.col_modes != x.modes:
        raise ModeMismatchError(
            f"operator col_modes {a.col_modes} do not match vector modes "
            f"{x.modes}")
    cores = []
    for ca, cx in zip(a.cores, x.cores):
        sa, m, sb = cx.shape
        new = _core_product(ca, cx.reshape(sa, m, 1, sb))
        cores.append(new.reshape(new.shape[0], new.shape[1], new.shape[3]))
    return make_tt_vector(cores)


def tt_op_compose(a: TTOperator, b: TTOperator) -> TTOperator:
    """Operator product A @ B in matricized sense; bond ranks multiply."""
    if a.col_modes != b.row_modes:
        raise ModeMismatchError(
            f"cannot compose: col_modes {a.col_modes} vs row_modes "
            f"{b.row_modes}")
    return make_tt_operator(
        [_core_product(ca, cb) for ca, cb in zip(a.cores, b.cores)])


def tt_random(modes, ranks, seed: int) -> TTVector:
    """Unit-norm random tensor with i.i.d. standard normal cores.

    `ranks` is the full chain (r_0, ..., r_d) with boundary entries 1.
    Deterministic for a fixed seed.
    """
    modes = tuple(int(n) for n in modes)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(modes) + 1:
        raise RankChainError(
            f"need {len(modes) + 1} ranks for {len(modes)} modes, got "
            f"{len(ranks)}")
    if ranks[0] != 1 or ranks[-1] != 1:
        raise RankChainError("boundary ranks must be 1")
    if any(r < 1 for r in ranks):
        raise RankChainError("ranks must be >= 1")
    rng = np.random.default_rng(seed)
    cores = [rng.standard_normal((ranks[k], n, ranks[k + 1]))
             for k, n in enumerate(modes)]
    x = make_tt_vector(cores)
    return tt_scale(x, 1.0 / tt_norm(x))


def tt_slice_first_mode(x: TTVector, ell: int) -> TTVector:
    """Slice along the first mode (1-based), returning an order-(d-1) tensor.

    The selected row of the first core is absorbed into the second core.
    """
    if x.d < 2:
        raise TTError("slicing needs an order >= 2 tensor")
    n0 = x.modes[0]
    if not 1 <= ell <= n0:
        raise IndexError(f"slice index {ell} outside 1..{n0}")
    row = x.cores[0][0, ell - 1, :]                       # (r_1,)
    first = np.tensordot(row, x.cores[1], axes=([0], [0]))  # (n_1, r_2)
    return make_tt_vector([first[None], *x.cores[2:]])


def tt_op_diag_slice(a: TTOperator, ell: int, tol: float = 1e-12) -> TTOperator:
    """(ell, ell) slice of an operator whose first core is a diagonal selector.

    Requires the first core to vanish off the diagonal of its (row, col) mode
    pair, as produced by the all-in-one constructions.
    """
    p = a.row_modes[0]
    if a.col_modes[0] != p:
        raise TTError("first mode pair must be square")
    if a.d < 2:
        raise TTError("diagonal slicing needs an order >= 2 operator")
    if not 1 <= ell <= p:
        raise IndexError(f"slice index {ell} outside 1..{p}")
    c0 = a.cores[0][0]                                    # (p, p, r_1)
    off = c0 * (1.0 - np.eye(p)[:, :, None])
    scale = np.abs(c0).max()
    if scale > 0 and np.abs(off).max() > tol * scale:
        raise TTError("first core is not a diagonal selector")
    vec = c0[ell - 1, ell - 1, :]                          # (r_1,)
    first = np.tensordot(vec, a.cores[1], axes=([0], [0]))
    return make_tt_operator([first[None], *a.cores[2:]])


def storage_stats(x) -> StorageStats:
    """Entry counts and the TT/dense compression ratio."""
    tt_entries = int(sum(int(np.prod(c.shape)) for c in x.cores))
    if _is_operator(x):
        dense = int(np.prod([float(n * m) for n, m
                             in zip(x.row_modes, x.col_modes)]))
    else:
        dense = int(np.prod([float(n) for n in x.modes]))
    return StorageStats(max_rank=x.max_rank,
                        tt_entries=tt_entries,
                        dense_entries=dense,
                        compression_ratio=tt_entries / dense)
