"""Tensor-train vectors and operators with exact and rounded arithmetic.

A tensor of order d is stored as a chain of order-3 cores, core k having
shape ``(r_{k-1}, n_k, r_k)`` with boundary ranks ``r_0 = r_d = 1``.  A
multilinear operator is stored the same way with order-4 cores of shape
``(r_{k-1}, n_k, m_k, r_k)``.

There is one rounding routine, tt_round_sum, which rounds a linear
combination of TT vectors term by term without forming it; tt_round is its
one-term case, and rounds an operator as the vector of its fused-mode
cores.  tt_norm and tt_first_mode_norms take the right-to-left R sweep of
the same routine.  Every sweep takes a sum in one form, c^T blockdiag(B_0)
... blockdiag(B_{d-1}) 1: rows c of coefficients in (a norm is one term
under the coefficient 1) and the row of ones to close.  No QR whose Q
would be square is taken: a leading bond above its cap is cut by fusing
the leading modes, Q = I.

That sweep keeps one factor F per core, F^T F = C C^T for the core's unfolding
C (r x m), C^T itself where C is wide.  When tt_round_sum rounds a single term
and C is tall (m >= GRAM_MIN_ROWS), F may be Lambda^(1/2) V^T from the eigh of
the Gram matrix C C^T (Al Daas, Ballard & Manning, IPDPS 2022): its syrk runs
at level-3 speed, where geqrf's panels do not.  Any other core takes the R
factor of C^T (geqrf).  A Gram factor is exact only to |F^T F - C C^T| <=
sqrt(m) eps |C|_F^2, so the singular values it gives at the bond left of the
core are off by up to sqrt(sqrt(m) eps) |L| |C|, L the cores left of the
bond.  That is sqrt(eps) times the size of the parts of x, not of x, and it is
larger than x's own small singular values wherever those parts cancel.  So
tt_round_sum bounds it at every bond from the norms of L, spends it out of the
bond's cutoff, and redoes the rounding on geqrf when it is above half the
cutoff.  Below delta = 2 sqrt((d - 1) sqrt(m) eps) (at d = 3, 2.6e-7 for m =
1536 and 5e-7 for m = 20000) no rounding could pass, and the Gram factor is
not tried: so never at the judge's 1e-8.  A sum's terms are apt to cancel (a
residual, an MGS step), where the Gram sweep would be wasted, and the norms of
tt_norm and tt_first_mode_norms need eps, not sqrt(eps): those stay on geqrf.

All objects are immutable after construction (core arrays are marked
read-only) and every function here is pure, so values can be shared freely
between threads.  Indices exposed to callers (slicing) are 1-based to match
the usual mathematical convention; storage is 0-based.
"""

from __future__ import annotations

import math
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
    "tt_inners",
    "tt_norm",
    "tt_first_mode_norms",
    "tt_round",
    "tt_round_sum",
    "tt_rounded_norm",
    "tt_apply",
    "tt_op_compose",
    "tt_random",
    "tt_slice_first_mode",
    "tt_op_diag_slice",
    "storage_stats",
    "dense_budget",
]

# Least rows m of a core's unfolding C (r x m) that may take the Gram
# factor (see the module docstring).  geqrf time over syrk + eigh time,
# numpy, one OpenBLAS thread (Haswell kernels, 2 vCPUs), by rows m of C^T:
#
#     r \ m   256   512   768  1024  1536  2048  4096  8192
#       8    0.90  1.00  1.11  1.24  1.38  1.46  6.37  5.89
#      16    0.65  0.81  1.11  1.13  1.43  1.62  4.84  6.51
#      31    0.45  0.67  0.83  1.02  1.29  1.59  2.27  5.56
#      62    0.50  0.90  1.11  1.45  1.91  1.70  4.95  8.04
#     127     -   1.05  1.04  1.42  2.11  2.63  5.66  9.05
#     162     -     -   0.90  1.17  1.59  1.93  3.36  5.63
#
# The Gram sweep wins by at least 1.29 from m = 1536 on, and loses below
# about 768 rows, where the eigh of the r x r Gram matrix costs as much as
# the panel QR it replaces.  It also loses on squat cores: 0.74-1.04 at
# m = 4r for r = 127 ... 400 (1.46-2.02 at m = 8r); the cores of the
# bench workloads that take the Gram factor have m >= 50r.
GRAM_MIN_ROWS = 1536

_EPS = float(np.finfo(np.float64).eps)

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
    if not delta >= 0:
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
    """Euclidean dot product, by one left-to-right core sweep.

    The carry g (r, s) is <x, y> contracted over the modes left of the
    bond: y's core enters as g @ C_y, (r, n s'), and x's as one GEMM,
    C_x^T (r', r n) @ (r n, s').
    """
    if x.modes != y.modes:
        raise ModeMismatchError(f"modes differ: {x.modes} vs {y.modes}")
    g = np.ones((1, 1))
    for cx, cy in zip(x.cores, y.cores):
        r, n, r_next = cx.shape
        g = cx.reshape(r * n, r_next).T @ \
            _carry_right(g, cy).reshape(r * n, -1)
    return float(g[0, 0])


def tt_inners(xs, y: TTVector) -> np.ndarray:
    """<x_j, y> for every x_j in xs, one tt_inner sweep per term; an empty
    xs gives an empty array."""
    return np.array([tt_inner(x, y) for x in xs], dtype=float)


def _carry_right(carry: np.ndarray, core: np.ndarray) -> np.ndarray:
    """``carry @ core`` over the left bond: (r, a) x (a, n, b) -> (r, n, b)."""
    a, n, b = core.shape
    return (carry @ core.reshape(a, n * b)).reshape(carry.shape[0], n, b)


def _split_columns(m: np.ndarray, sizes) -> list[np.ndarray]:
    """Column blocks of m of the given widths (views)."""
    out, start = [], 0
    for size in sizes:
        out.append(m[:, start:start + size])
        start += size
    return out


def _carried(carry: np.ndarray, blocks):
    """``carry @ blockdiag(blocks)``, one block at a time.

    The columns of carry (r, sum a_j) are split by the left ranks a_j of the
    blocks (a_j, n, b_j); yields carry_j @ block_j, shape (r, n, b_j).
    """
    for c, block in zip(_split_columns(carry, [b.shape[0] for b in blocks]),
                        blocks):
        yield _carry_right(c, block)


def _times_rt(block: np.ndarray, rt: np.ndarray) -> np.ndarray:
    """block (a, n, b) with rt^T (b, rho) absorbed into its right bond."""
    a, n, b = block.shape
    return (block.reshape(a * n, b) @ rt.T).reshape(a, n, -1)


def _split_rt(rt: np.ndarray, blocks) -> list[np.ndarray]:
    """Column blocks of rt by the right ranks of the blocks."""
    return _split_columns(rt, [b.shape[2] for b in blocks])


def _sum_times_rt(carry: np.ndarray, blocks, rt: np.ndarray) -> np.ndarray:
    """``carry @ blockdiag(blocks) @ rt^T``, one block at a time: (r, n, rho).

    At the last core (all b_j = 1), rt is the (1, J) row of ones.
    """
    parts = map(_times_rt, _carried(carry, blocks), _split_rt(rt, blocks))
    total = next(parts)
    for m in parts:
        total += m
    return total


def _factor(c: np.ndarray, room) -> tuple[np.ndarray, float]:
    """A factor F of the unfolding c (r, m) with F^T F = c c^T, and a bound
    on |F^T F - c c^T|_2.

    A wide c (m <= r) is its own factor, F = c^T (m, r), with bound 0: the
    QR of c^T would only rotate it by a square Q.
    With room set and m >= GRAM_MIN_ROWS, sqrt(m) eps <= room, F =
    Lambda^(1/2) V^T (r, r) from eigh(c c^T), eigenvalues below 0 taken
    as 0, and the bound is sqrt(m) eps |c|_F^2: the probabilistic bound
    of the syrk's round-off (Higham & Mary, SISC 2019), which also covers
    eigh's backward error, eps |c c^T|_2 times a small multiple.  On the
    7 cores of a convdiff-prec-n127 solve that take it (m = 3048 to
    14478), the error against a Gram matrix in extended precision was
    0.013 to 0.086 of the bound.
    Otherwise F is the R factor of c^T (r, r) by geqrf (``mode="r"``, no
    Q formed), exact up to eps |c| in c, with bound 0.
    """
    r, m = c.shape
    if m <= r:
        return c.T, 0.0
    if room is not None and GRAM_MIN_ROWS <= m and math.sqrt(m) * _EPS <= room:
        g = c @ c.T
        lam, v = np.linalg.eigh(g)
        return (np.sqrt(np.maximum(lam, 0.0))[:, None] * v.T,
                math.sqrt(m) * _EPS * float(np.trace(g)))
    return np.linalg.qr(c.T, mode="r"), 0.0


def _right_r_sweep(lead, blocks, at=0, delta=None):
    """Right-to-left sweep of a sum that keeps only a small factor per core.

    The sum is the chain ``B_0 ... B_{at-1} lead blockdiag(B_at) ...
    blockdiag(B_{d-1}) 1``, where blocks[k] lists core k of every term,
    B_k, the leading blocks k < at hold one core each, and 1 is the
    column of ones (at = 0: lead holds K >= 1 rows of coefficients, one
    per sum).  Its cores are never formed; each product with a
    block-diagonal core is taken one term at a time.

    Returns (first, rs, errs).  For k >= 1, rs[k] is a factor F of the
    unfolding C (r_{k-1}, n_k r_k) of core k of the sum with rs[k+1]^T
    absorbed, F^T F = C C^T (_factor), so cores k, ..., d-1 contract to
    rs[k]^T times a row-orthonormal matrix; core d-1 absorbs the (1, J)
    row of ones.  first is core 0 with rs[1]^T absorbed, (K, n_0, r_1) at
    at = 0.  F is C^T if C is wide, else the R factor of C^T (geqrf)
    unless delta is given and C is tall, when it may come from
    eigh(C C^T); only tt_round_sum gives delta, for one term.
    errs[k] bounds |rs[k]^T rs[k] - G_k|_2 for G_k the exact Gram matrix
    of cores k, ..., d-1 (0 with no Gram factor among them): core k's own
    Gram error, plus errs[k+1] carried through core k, which scales it by
    at most |B_k|_F^2 (a single term has no lead left after
    _cap_sum_bonds).  A Gram factor is taken only where the check of
    tt_round_sum can pass, |L|_F |C|_F >= |x| being its best case:
    sqrt(m) eps <= delta^2 / (4 (d - 1)).  The input cores are only read.
    """
    d = len(blocks)
    room = None if delta is None else delta * delta / (4 * (d - 1))
    rs = [None] * d
    errs = [0.0] * (d + 1)
    rt = np.ones((1, len(blocks[-1])))
    for k in range(d - 1, -1, -1):
        if k == at:
            core = _sum_times_rt(lead, blocks[k], rt)
        else:
            parts = [_times_rt(b, r)
                     for b, r in zip(blocks[k], _split_rt(rt, blocks[k]))]
            # one core needs no stacking, and its copy would cost a pass
            # over the swept core
            core = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if k:
            rt, err = _factor(core.reshape(core.shape[0], -1), room)
            rs[k] = rt
            if errs[k + 1]:
                err += sum(np.vdot(b, b) for b in blocks[k]) * errs[k + 1]
            errs[k] = err
    return core, rs, errs


def tt_norm(x: TTVector) -> float:
    """Frobenius norm, sqrt(<x, x>).

    Evaluated as |core 0| after a right-to-left sweep of x, one term
    under the lead [[1]], that keeps only the R factors of each core's QR
    (the Q factors are orthonormal and never formed), rather than by the
    Gram recursion: on cancellation-heavy inputs (residuals of
    nearly-consistent systems) this keeps the absolute error at eps *
    |cores| instead of eps * |cores|^2, and it cannot go negative.  So the
    sweep never takes a Gram factor here.
    """
    first = _right_r_sweep(np.ones((1, 1)), [[c] for c in x.cores])[0]
    return float(np.linalg.norm(first))


def _sum_blocks(terms, coeffs):
    """sum_j coeffs[j] terms[j] as (lead, blocks), for _right_r_sweep.

    The sum is ``lead @ blockdiag(blocks[0]) ... blockdiag(blocks[-1])``
    closed by a column of ones: lead is the (1, J) row of coefficients (K
    rows for a matrix of coeffs, one per sum) and blocks[k] lists core k
    of every term.
    """
    terms = list(terms)
    if not terms:
        raise TTError("a sum needs at least one term")
    if any(_is_operator(t) for t in terms):
        raise TTError("only TT vectors are summed term by term")
    lead = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if lead.ndim != 2 or lead.shape[1] != len(terms):
        raise TTError(f"{len(terms)} terms but {lead.shape[1]} coefficients")
    for t in terms[1:]:
        if t.modes != terms[0].modes:
            raise ModeMismatchError(
                f"modes differ: {terms[0].modes} vs {t.modes}")
    return lead, [[t.cores[k] for t in terms] for k in range(terms[0].d)]


def tt_first_mode_norms(*terms: TTVector, coeffs=None) -> np.ndarray:
    """Norms of the n_1 slices along the first mode, from one sweep.

    The tensor is the sum of coeffs[j] terms[j] (coeffs default to ones),
    a single term x included; a matrix of coeffs gives a row of norms per
    row of coefficients.  tt_norm's right-to-left R sweep of the sums, one
    per row (see _right_r_sweep), gives their swept first cores, and cores
    1, ..., d-1 contract to a row-orthonormal matrix, so slice l has the
    norm of row l of a sum's swept first core.  Entry l-1 is the norm of
    tt_slice_first_mode(x, l); the norm of a row is |x|.
    """
    lead, blocks = _sum_blocks(
        terms, np.ones(len(terms)) if coeffs is None else coeffs)
    norms = np.linalg.norm(_right_r_sweep(lead, blocks)[0], axis=2)
    return norms if np.ndim(coeffs) == 2 else norms[0]


def _cap_sum_bonds(lead: np.ndarray, blocks):
    """Cut the leading bonds of a sum down to their natural cap, exactly.

    The sum is ``lead @ blockdiag(blocks[0]) ...`` as in _sum_blocks.
    While the left unfolding (r_{k-1} n_k, r_k) of its leading core, lead
    applied, is wide, lead becomes that unfolding and the core the
    identity (r_{k-1}, n_k, r_{k-1} n_k): the core's QR with Q = I, which
    is exact, where a square Q from geqrf would only rotate it.  The sweeps
    that follow then work at the capped bond instead of the inflated one.
    Returns (lead, blocks, at) in the form _right_r_sweep takes: blocks[k]
    is [I] for k < at, and lead the unfolding that enters blocks[at].

    A single term takes lead into its core at once (lead becomes 1, at 0):
    that product is no larger than the core, and the sweeps then see the
    capped tensor itself, which keeps rounding a tensor whose parts cancel
    as accurate as the Q-forming QR-then-SVD rounding.  A sum keeps lead
    apart, as it would form the (r, n, sum_j r_j) core with its terms'.
    """
    head = []
    for block in blocks[:-1]:
        a, n = lead.shape[0], block[0].shape[1]
        b = sum(c.shape[2] for c in block)
        if a * n >= b:
            break
        lead = np.dstack(list(_carried(lead, block))).reshape(a * n, b)
        head.append([np.eye(a * n).reshape(a, n, a * n)])
    at = len(head)
    blocks = head + list(blocks[at:])
    if len(blocks[at]) == 1:
        blocks[at] = [_carry_right(lead, blocks[at][0])]
        lead, at = np.ones((1, 1)), 0
    return lead, blocks, at


def _truncated_basis(w: np.ndarray, tau: float) -> np.ndarray:
    """The left singular vectors of w that the cutoff tau keeps."""
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    return u[:, :_min_rank_for_tail(s, tau)]


def tt_round(x, delta: float):
    """Recompress to relative accuracy delta.

    This is tt_round_sum, the one rounding routine, of the single term x.
    An operator is rounded as the vector of its fused-mode cores
    ``(r_{k-1}, n_k m_k, r_k)``.  Ranks never increase;
    ``|x - round(x)| <= delta * |x|`` up to round-off, the Gram factors'
    error included (see tt_round_sum).
    """
    if not _is_operator(x):
        return tt_round_sum([x], [1.0], delta)
    fused = make_tt_vector(
        [c.reshape(c.shape[0], -1, c.shape[3]) for c in x.cores])
    rounded = tt_round_sum([fused], [1.0], delta)
    return make_tt_operator(
        [r.reshape(r.shape[0], c.shape[1], c.shape[2], r.shape[2])
         for r, c in zip(rounded.cores, x.cores)])


def tt_round_sum(terms, coeffs, delta: float) -> TTVector:
    """round(sum_j coeffs[j] terms[j], delta), without forming the sum.

    This is the one rounding routine: tt_round is its single-term case.
    It is the QR-then-SVD rounding of Oseledets (SISC 2011) with no Q
    formed.  The sum is held as its terms' cores, as
    ``c^T blockdiag(B_0) blockdiag(B_1) ... blockdiag(B_{d-1}) 1``, with
    c the coefficients, B_k core k of every term and 1 a column of ones:
    its interior cores, block diagonal with zero blocks off the diagonal,
    are never formed.

    * Leading bonds above their natural cap r_{k-1} n_k are first cut,
      exactly, by fusing the leading modes (_cap_sum_bonds).
    * A right-to-left sweep keeps only a factor R_k of each core, with
      R_k^T R_k = C_k C_k^T for the unfolding C_k of core k with R_{k+1}^T
      absorbed; for a sum it absorbs R_{k+1}^T into each block,
      ``B_k^j R_j^T`` (R_j the columns of R_{k+1} on term j's bond), and
      stacks the results, which is the swept core of the sum
      (_right_r_sweep).  R_k is C_k^T if C_k is wide, else the R of
      C_k^T's QR (geqrf, no Q), or, for a single term and C_k tall
      (m >= GRAM_MIN_ROWS), Lambda^(1/2) V^T from eigh(C_k C_k^T), which
      costs a syrk instead of geqrf's level-2 panels.  The SVD sweep needs
      only R_k^T R_k, so it is the same for all three.
    * The left-to-right sweep forms ``W_k = sum_j (carry_j B_k^j) R_j^T``,
      which has the singular values of the sum's unfolding at bond k, as
      the cores right of it contract to R_{k+1}^T times a row-orthonormal
      matrix.  It truncates the SVD of W_k with per-core cutoff
      ``tau = delta * |x| / sqrt(d - 1)``; the kept left singular vectors
      U_r become core k, and ``U_r^T (carry_j B_k^j)`` is carried into
      core k+1, one term at a time, so the carried core (r, n, sum_j r_j)
      never exists.

    Gram factors right of bond k leave R_{k+1}^T R_{k+1} off the exact
    Gram matrix by at most e_{k+1} (_right_r_sweep), so the squared tail
    that the cut leaves out of W_k is off by at most e_{k+1} |L_k|_F^2,
    L_k = carry B_k (for a term of size beta whose parts cancel down to
    eta beta, about sqrt(eps) beta against the cutoff's delta eta beta).
    The bond is then cut at sqrt(tau^2 - e_{k+1} |L_k|_F^2), so that the
    tail it leaves out is at most tau all the same; if that error is
    above tau^2 / 4, the Gram factors are dropped and the rounding is
    redone on geqrf, which also keeps the ranks near geqrf's.

    Work and memory grow linearly with the number of terms, where rounding
    the formed sum also spends both on its zero blocks.  Ranks never
    exceed the sum's; ``|x - round(x)| <= delta * |x|`` for x the exact
    sum, up to the round-off of contracting the cores, a small multiple of
    eps sum_j |c_j| prod_k |B_k^j|_F, which cancellation can put far above
    eps |x|.

    Cores 0, ..., d-2 of the result are the kept singular vectors U_r,
    with orthonormal columns, so |result| = |core d-1|_F up to round-off
    (tt_rounded_norm).  That holds for d = 1 too, where the one core is
    the result, and for a sum that is zero, returned as tt_zero, whose
    last core is zero.
    """
    if not delta >= 0:
        raise TTError("delta must be >= 0")
    lead, blocks = _sum_blocks(terms, coeffs)
    if len(lead) != 1:
        raise TTError("a rounded sum takes one row of coefficients")
    if len(blocks) == 1:
        return make_tt_vector(
            [_sum_times_rt(lead, blocks[0], np.ones((1, len(blocks[0]))))])
    lead, blocks, at = _cap_sum_bonds(lead, blocks)
    if len(blocks[-1]) == 1:
        rounded = _round_swept(lead, blocks, at, delta, gram=True)
        if rounded is not None:
            return rounded
    return _round_swept(lead, blocks, at, delta, gram=False)


def _round_swept(lead, blocks, at, delta: float, gram: bool):
    """The two sweeps of tt_round_sum on its capped sum (lead, blocks, at).

    With gram, tall cores of the single term may take Gram factors, and
    the result is None where their error is above a quarter of a bond's
    squared cutoff.
    """
    d = len(blocks)
    first, rs, errs = _right_r_sweep(lead, blocks, at,
                                     delta if gram else None)
    nrm = np.linalg.norm(first)
    if nrm == 0.0:
        return None if errs[1] else tt_zero([b[0].shape[1] for b in blocks])
    tau = delta * nrm / np.sqrt(d - 1)
    out = []
    carry = np.ones((1, 1))
    for k, block in enumerate(blocks):
        if k == at:
            carry = carry @ lead
        if k == d - 1:
            out.append(_sum_times_rt(carry, block,
                                     np.ones((1, len(block)))))
            break
        a, n = carry.shape[0], block[0].shape[1]
        cut = tau
        if len(block) == 1:
            products = [_carry_right(carry, block[0])]
            w = _times_rt(products[0], rs[k + 1]) if k else first
            if errs[k + 1]:
                slack = errs[k + 1] * np.vdot(products[0], products[0])
                if slack > tau * tau / 4:
                    return None
                cut = math.sqrt(tau * tau - slack)
        else:
            # carry_j B_k^j is formed again for the carry rather than kept
            # from W_k: held together, those products are the
            # (a, n, sum_j r_j) core.
            products = _carried(carry, block)
            w = _sum_times_rt(carry, block, rs[k + 1]) if k else first
        u = _truncated_basis(w.reshape(a * n, -1), cut)
        out.append(u.reshape(a, n, -1))
        carry = np.concatenate([u.T @ m.reshape(a * n, -1)
                                for m in products], axis=1)
    return make_tt_vector(out)


def tt_rounded_norm(x: TTVector) -> float:
    """|x| of a tt_round or tt_round_sum result, whose cores 0, ..., d-2
    have orthonormal columns: the norm of its last core, without a sweep."""
    return float(np.linalg.norm(x.cores[-1]))


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
