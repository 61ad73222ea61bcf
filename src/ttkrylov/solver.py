"""MGS-GMRES in tensor-train arithmetic with rounding-aware telemetry.

One engine, the restarted right-preconditioned driver ``tt_right_gmres``,
runs every variant: full GMRES is the restart length m = maxit, and relaxed
GMRES is a rounding policy.  Iteration k of a cycle rounds at an accuracy
delta_k after each operator contraction, after the orthogonalization sweep,
and when the iterate is assembled.  The constant policy keeps
delta_k = delta; the relaxed policy loosens every one of these roundings to
delta_k = min(1, delta / |r~_{k-1}|), with |r~_{k-1}| the least-squares
residual norm of the previous iteration (the cycle's rhs norm at k = 1).
Every iteration is logged as an IterationRecord; convergence is judged on a
normwise backward error.

To keep intermediate bond ranks bounded on long cycles, the MGS subtraction
loop and the iterate accumulation apply stabilization roundings at
``delta_k / (4 * k)``.  Their combined perturbation per iteration is below
delta_k / 2, so the backward-error plateau and the basis-orthogonality
contract (100 * delta) are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .tt import (
    TTOperator,
    TTVector,
    storage_stats,
    tt_add,
    tt_apply,
    tt_inner,
    tt_norm,
    tt_random,
    tt_round,
    tt_scale,
    tt_zero,
)

__all__ = [
    "GmresConfig",
    "IterationRecord",
    "GmresOutcome",
    "OperatorChain",
    "hessenberg_lsq",
    "estimate_l2_norm",
    "tt_gmres",
    "tt_right_gmres",
    "relaxed_tt_gmres",
]

#: rounding accuracy used where the algorithm calls for exact arithmetic
WORKING_PRECISION = 1e-13
#: random vectors, and their bond rank, of the sampled L2-norm estimate
NORM_SAMPLES = 10
SAMPLE_RANK = 2
#: breakdown threshold (times beta; hard when R's diagonal falls below it
#: too, times the norm of the Hessenberg column)
BREAKDOWN_TOL = 1e-14
#: a plateau is a window whose best value the latest one fails to beat by
#: this relative margin
PLATEAU_RTOL = 0.05


@dataclass(frozen=True)
class GmresConfig:
    """Solver knobs; see the field comments for semantics."""

    m: int = 25                       # restart length (iterations per cycle)
    epsilon: float = 1e-5             # threshold on eta_Ab (relaxed: eta~_b)
    delta: float = 1e-5               # rounding accuracy
    maxit: int = 100                  # global iteration cap
    rounding_policy: str = "constant"   # constant | relaxed
    seed: int = 0                     # first sample of the norm estimate
    assembly_every: int = 1           # evaluate the iterate every c steps
    keep_iterates: bool = False       # retain assembled iterates in outcome
    keep_basis: bool = False          # retain Krylov bases (tests only)
    plateau_window: int = 0           # 0 disables plateau detection

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.maxit < self.m:
            raise ValueError("maxit must be >= m")
        if self.rounding_policy not in ("constant", "relaxed"):
            raise ValueError(f"unknown rounding policy {self.rounding_policy}")


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration telemetry.

    Fields that were not computed at an iteration hold NaN; two records are
    equal when every field matches, a NaN matching a NaN in the same field.
    """

    k: int
    eta_b: float
    eta_Ab: float
    eta_AMb: float
    eta_tilde_b: float
    lsq_residual: float
    true_residual: float
    max_rank_v: int
    max_rank_x: float
    cr_last_vec: float
    cr_basis: float
    delta_used: float

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same, astuple(self), astuple(other)))

    def __hash__(self):
        return hash(tuple("nan" if v != v else v for v in astuple(self)))


@dataclass
class GmresOutcome:
    """Result of a solve: iterate, status and trace."""

    solution: TTVector
    converged: bool
    iterations: int
    trace: list[IterationRecord]
    estimated_opnorm: float
    iterates: list[TTVector] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


class OperatorChain:
    """Operators applied right to left, with optional rounding in between.

    Never pre-composes the factors into one TT operator (the bond ranks would
    multiply); a preconditioned application A(M x) is two contractions with
    one rounding between them.
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        for left, right in zip(factors[:-1], factors[1:]):
            if left.col_modes != right.row_modes:
                raise ValueError("chain factors have incompatible modes")
        self.factors = factors

    @property
    def row_modes(self):
        return self.factors[0].row_modes

    @property
    def col_modes(self):
        return self.factors[-1].col_modes

    def apply(self, x: TTVector, delta: float | None = None) -> TTVector:
        """Apply the chain; round at delta after each contraction if given."""
        for op in reversed(self.factors):
            x = tt_apply(op, x)
            if delta is not None:
                x = tt_round(x, delta)
        return x


def _as_chain(op) -> OperatorChain:
    if isinstance(op, OperatorChain):
        return op
    return OperatorChain([op])


class GivensLsq:
    """Incremental solver for min |beta e_1 - Hbar y| via plane rotations.

    Appending column k costs O(k): previous rotations are replayed on the new
    column and one new rotation annihilates the subdiagonal entry.
    """

    def __init__(self, beta: float):
        self.cos: list[float] = []
        self.sin: list[float] = []
        self.r_cols: list[np.ndarray] = []       # upper-triangular columns
        self.g = [beta]                          # rotated rhs
        self.residual = abs(beta)

    @property
    def k(self) -> int:
        return len(self.r_cols)

    def append_column(self, h: np.ndarray) -> float:
        """Add Hessenberg column (k+1 entries incl. subdiagonal); returns
        the updated least-squares residual."""
        h = np.array(h, dtype=np.float64)
        k = self.k
        if h.size != k + 2:
            raise ValueError(f"expected {k + 2} entries, got {h.size}")
        for i in range(k):
            c, s = self.cos[i], self.sin[i]
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], \
                -s * h[i] + c * h[i + 1]
        denom = math.hypot(h[k], h[k + 1])
        if denom == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = h[k] / denom, h[k + 1] / denom
        self.cos.append(c)
        self.sin.append(s)
        h[k] = denom
        self.r_cols.append(h[:k + 1])
        self.g.append(-s * self.g[k])
        self.g[k] = c * self.g[k]
        self.residual = abs(self.g[-1])
        return self.residual

    def pop_column(self) -> float:
        """Undo the last append_column; returns the restored residual."""
        c, s = self.cos.pop(), self.sin.pop()
        self.r_cols.pop()
        g_last = self.g.pop()
        self.g[-1] = c * self.g[-1] - s * g_last
        self.residual = abs(self.g[-1])
        return self.residual

    def solve(self) -> np.ndarray:
        """Back-substitute for the current y."""
        k = self.k
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            acc = self.g[i] - sum(self.r_cols[j][i] * y[j]
                                  for j in range(i + 1, k))
            rii = self.r_cols[i][i]
            if rii == 0.0:
                raise ZeroDivisionError(
                    "exactly singular triangular factor (lucky breakdown "
                    "should be handled upstream)")
            y[i] = acc / rii
        return y


def hessenberg_lsq(hbar: np.ndarray, beta: float):
    """Solve min_y |beta e_1 - Hbar y| for an (k+1) x k Hessenberg matrix.

    Returns (y, lsq_residual).  Uses the same incremental plane rotations as
    the solver loop.
    """
    hbar = np.asarray(hbar, dtype=np.float64)
    if hbar.ndim != 2 or hbar.shape[0] != hbar.shape[1] + 1:
        raise ValueError("expected a (k+1) x k array")
    if np.any(np.abs(np.tril(hbar, -2)) > 0):
        raise ValueError("matrix is not upper Hessenberg")
    lsq = GivensLsq(beta)
    for j in range(hbar.shape[1]):
        lsq.append_column(hbar[:j + 2, j])
    return lsq.solve(), lsq.residual


def estimate_l2_norm(op, samples: int = NORM_SAMPLES, seed: int = 0,
                     sample_rank: int = SAMPLE_RANK) -> float:
    """Sampled L2 norm: max image norm over random unit TT vectors."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    chain = _as_chain(op)
    modes = chain.col_modes
    ranks = (1,) + (sample_rank,) * (len(modes) - 1) + (1,)
    best = 0.0
    for i in range(samples):
        w = tt_random(modes, ranks, seed + i)
        best = max(best, tt_norm(chain.apply(w)))
    return best


def _accumulate(vecs, coeffs, stab_delta: float, final_delta: float):
    """round(sum_j coeffs[j] vecs[j], final_delta) with bounded intermediates."""
    acc = tt_scale(vecs[0], coeffs[0])
    for v, c in zip(vecs[1:], coeffs[1:]):
        acc = tt_round(tt_add(acc, tt_scale(v, c)), stab_delta)
    return tt_round(acc, final_delta)


@dataclass
class _GlobalContext:
    """State shared across restart cycles so traces stay globally meaningful."""

    beta: float                     # |b| of the original system
    opnorm: float                   # estimated |A|_2 (or |AM|_2)
    preconditioned: bool
    offset_t: TTVector | None = None  # accumulated iterate from past cycles
    iter_offset: int = 0
    records: list = field(default_factory=list)
    iterates: list = field(default_factory=list)
    bases: list = field(default_factory=list)


def _gmres_cycle(chain: OperatorChain, rhs: TTVector, cfg: GmresConfig,
                 ctx: _GlobalContext, cycle_len: int):
    """One Arnoldi expansion of at most cycle_len iterations (Alg. 3 body).

    Returns (t, converged, iterations, plateaued, hard_breakdown); t is the
    last assembled iterate of this cycle (in the preconditioned variable when
    the chain has a preconditioner factor).

    A breakdown (h_{k+1,k} below BREAKDOWN_TOL * beta) is lucky when the
    rotated diagonal r_kk stays above BREAKDOWN_TOL times the norm of
    column k: the least-squares problem is then solved exactly.  Otherwise
    it is hard: A is singular on the Krylov space and the system is
    inconsistent there (Brown & Walker, SIMAX 1997), so column k is dropped
    and the iterate is the least-squares solution over the leading k - 1
    columns.
    """
    beta_cycle = tt_norm(rhs)
    dense_entries = storage_stats(rhs).dense_entries
    if beta_cycle == 0.0:
        return tt_zero(rhs.modes), True, 0, False, False
    v = [tt_scale(rhs, 1.0 / beta_cycle)]
    lsq = GivensLsq(beta_cycle)
    lsq_res_prev = beta_cycle
    relaxed = cfg.rounding_policy == "relaxed"
    t_best = None
    eta_hist = []
    converged = False
    plateaued = False
    hard_breakdown = False
    iters_done = 0

    for k in range(1, cycle_len + 1):
        # Relaxed policy: every rounding of iteration k is loosened to
        # delta_k, scaled by the inverse least-squares residual norm, so
        # the perturbation grows as the projected residual shrinks.
        if relaxed:
            delta_k = min(1.0, cfg.delta / max(lsq_res_prev, 1e-300))
        else:
            delta_k = cfg.delta
        # k stabilization roundings this iteration, each at delta_k/(4k),
        # keep the extra perturbation below delta_k / 4.
        stab = delta_k / (4.0 * k)

        w = chain.apply(v[-1], delta=delta_k)
        col = np.zeros(k + 1)
        for i in range(k):
            col[i] = tt_inner(v[i], w)
            w = tt_round(tt_add(w, tt_scale(v[i], -col[i])), stab)
        w = tt_round(w, delta_k)
        h_last = tt_norm(w)
        col[k] = h_last
        breakdown = h_last < BREAKDOWN_TOL * beta_cycle
        if not breakdown:
            v.append(tt_scale(w, 1.0 / h_last))
        lsq.append_column(col)
        if breakdown and abs(lsq.r_cols[-1][-1]) <= \
                BREAKDOWN_TOL * np.linalg.norm(col):
            hard_breakdown = True
            lsq.pop_column()
        eta_tilde = lsq.residual / ctx.beta
        lsq_res_prev = lsq.residual
        iters_done = k

        assemble = breakdown or k == cycle_len \
            or (k % cfg.assembly_every == 0) \
            or (relaxed and eta_tilde < cfg.epsilon)
        eta_b = eta_ab = true_res = float("nan")
        max_rank_x = float("nan")
        if assemble:
            y = lsq.solve()
            # y is empty only when A v_1 = 0: the rhs lies in A's null space
            t_best = _accumulate(v[:len(y)], y, stab, delta_k) if len(y) \
                else tt_zero(rhs.modes)
            z = tt_add(rhs, tt_scale(
                chain.apply(t_best, delta=WORKING_PRECISION), -1.0))
            true_res = tt_norm(z)
            t_glob = t_best if ctx.offset_t is None else \
                tt_add(ctx.offset_t, t_best)
            eta_b = true_res / ctx.beta
            eta_ab = true_res / (ctx.opnorm * tt_norm(t_glob) + ctx.beta)
            max_rank_x = t_best.max_rank
            if cfg.keep_iterates:
                ctx.iterates.append(t_glob)

        last_v = v[-1]
        basis_entries = sum(storage_stats(b).tt_entries for b in v)
        rec = IterationRecord(
            k=ctx.iter_offset + k,
            eta_b=eta_b,
            eta_Ab=float("nan") if ctx.preconditioned else eta_ab,
            eta_AMb=eta_ab if ctx.preconditioned else float("nan"),
            eta_tilde_b=eta_tilde,
            lsq_residual=lsq.residual,
            true_residual=true_res,
            max_rank_v=last_v.max_rank,
            max_rank_x=max_rank_x,
            cr_last_vec=storage_stats(last_v).compression_ratio,
            cr_basis=basis_entries / (len(v) * dense_entries),
            delta_used=delta_k,
        )
        ctx.records.append(rec)

        # The relaxed policy stops on the least-squares residual, which
        # needs no assembled iterate; the constant one on eta_Ab.
        crit = eta_tilde if relaxed else eta_ab
        if not math.isnan(crit):
            eta_hist.append(crit)
            if crit < cfg.epsilon:
                converged = True
                break
        if breakdown:
            break
        if cfg.plateau_window and len(eta_hist) > cfg.plateau_window:
            window = eta_hist[-(cfg.plateau_window + 1):]
            best_prev, latest = min(window[:-1]), window[-1]
            if latest <= 100 * cfg.delta and \
                    latest > best_prev * (1.0 - PLATEAU_RTOL):
                plateaued = True
                break

    if t_best is None:
        y = lsq.solve()
        t_best = _accumulate(v[:len(y)], y,
                             cfg.delta / (4.0 * max(1, len(y))), cfg.delta)
    if cfg.keep_basis:
        ctx.bases.append(v)
    ctx.iter_offset += iters_done
    return t_best, converged, iters_done, plateaued, \
        hard_breakdown and not converged


def tt_gmres(a, b: TTVector, cfg: GmresConfig) -> GmresOutcome:
    """Full TT-GMRES (no restart) on A x = b with zero initial guess.

    The restarted driver with one cycle of cfg.maxit iterations; `a` may be a
    TTOperator or an OperatorChain (then the solution is in the variable the
    chain acts on).  See tt_right_gmres for the outcome's meta entries.
    """
    return tt_right_gmres(a, None, b, None, replace(cfg, m=cfg.maxit))


def relaxed_tt_gmres(a, b: TTVector, cfg: GmresConfig) -> GmresOutcome:
    """Full TT-GMRES with an iteration-dependent rounding accuracy.

    Every rounding of step k (operator contractions, basis vector and
    assembled iterate) is done at ``delta_k = min(1, delta / |r~_{k-1}|)``,
    where |r~_{k-1}| is the least-squares residual norm of the previous
    step, and the stabilization roundings at ``delta_k / (4 k)``; the
    stopping test is on the scaled least-squares residual eta_tilde_b.
    """
    return tt_gmres(a, b, replace(cfg, rounding_policy="relaxed"))


def tt_right_gmres(a, m: TTOperator | None, b: TTVector,
                   x0: TTVector | None, cfg: GmresConfig) -> GmresOutcome:
    """Restarted right-preconditioned GMRES (Alg. 4 driver).

    `a` is a TTOperator or an OperatorChain; the inner cycles solve with the
    chain a M.  Repeats: r = round(b - A x, delta); run an inner cycle on
    A M t = r for up to cfg.m iterations; x = round(x + M t, delta).  With
    no initial guess the first residual is b itself, which is exact for
    x = 0.  Returns the unpreconditioned solution with the merged trace.
    Two events raise meta["stagnated"] and stop the solve unconverged: a
    cycle that fails to shrink the outer residual by 1e-14 relative, and a
    hard breakdown inside a cycle (see _gmres_cycle), where the cycle's
    update is still the least-squares solution over the columns before the
    breakdown.  meta["plateaued"] reports a plateau stop and meta["cycles"]
    the cycle count.  With cfg.keep_basis, meta["bases"] holds each cycle's
    Krylov basis.
    """
    op = _as_chain(a)
    chain = op if m is None else OperatorChain(op.factors + (m,))
    if chain.col_modes != b.modes or chain.row_modes != b.modes:
        raise ValueError("operator/preconditioner modes must match the rhs")
    x = tt_zero(b.modes) if x0 is None else x0
    beta = tt_norm(b)
    opnorm = estimate_l2_norm(chain, seed=cfg.seed)
    ctx = _GlobalContext(beta=beta, opnorm=opnorm,
                         preconditioned=len(chain.factors) > 1)
    outcome = GmresOutcome(solution=x, converged=False, iterations=0,
                           trace=ctx.records, estimated_opnorm=opnorm,
                           iterates=ctx.iterates,
                           meta={"stagnated": False, "plateaued": False,
                                 "cycles": 0})
    if cfg.keep_basis:
        outcome.meta["bases"] = ctx.bases
    if beta == 0.0:
        outcome.converged = True
        return outcome
    prev_res = math.inf
    total = 0
    while total < cfg.maxit:
        if x0 is None and outcome.meta["cycles"] == 0:
            r = b
        else:
            r = tt_round(tt_add(b, tt_scale(op.apply(x), -1.0)), cfg.delta)
        res_norm = tt_norm(r)
        if res_norm == 0.0:
            outcome.converged = True
            break
        if prev_res < math.inf and res_norm > prev_res * (1.0 - 1e-14):
            outcome.meta["stagnated"] = True
            break
        prev_res = res_norm
        cycle_len = min(cfg.m, cfg.maxit - total)
        t, converged, iters, plateaued, hard = _gmres_cycle(
            chain, r, cfg, ctx, cycle_len)
        total += iters
        outcome.meta["cycles"] += 1
        mt = t if m is None else tt_round(tt_apply(m, t),
                                          WORKING_PRECISION)
        x = tt_round(tt_add(x, mt), cfg.delta)
        ctx.offset_t = t if ctx.offset_t is None else \
            tt_round(tt_add(ctx.offset_t, t), WORKING_PRECISION)
        if converged:
            outcome.converged = True
            break
        if hard:
            outcome.meta["stagnated"] = True
            break
        if plateaued:
            outcome.meta["plateaued"] = True
            break
    outcome.solution = x
    outcome.iterations = total
    return outcome
