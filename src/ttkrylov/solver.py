"""MGS-GMRES in tensor-train arithmetic with rounding-aware telemetry.

One engine, the restarted right-preconditioned driver ``tt_right_gmres``,
runs every variant: full GMRES is the restart length m = maxit, and relaxed
GMRES is a rounding policy.  It sets only the accuracy delta_k of the two
roundings of iteration k's Arnoldi step, of A M v_k (M v_k too, between
the factors) and of the new basis vector: delta for the constant policy,
min(1, delta |b| / |r~_{k-1}|) for the relaxed one, with |r~_{k-1}| the
previous least-squares residual norm (the cycle's rhs norm at k = 1).
As in Simoncini & Szyld (SISC 2003), the iterate and the stop are not
loosened: both policies assemble at delta and judge alike.

The driver keeps one iterate u, in the variable the chain A M acts on:
each cycle solves A M t = r for r = round(b - A M u, delta), then
u = round(u + t, delta), and the solution is x = round(M u, delta), formed
once at the end.  Every iteration is logged as an IterationRecord.  A
judged row's eta is the normwise backward error, from backward_errors, of
the assembled iterate x = round(u + t, tau) (x = t in the first cycle) on
the whole system A M x = b, and convergence is judged on it alone.
Rounding the sum keeps A M from being applied at rank r_u + r_t.  The
outcome keeps every judgement, with its slice norms, for the bound report
to read.

Which rows are judged follows one rule.  Every row is judged when the
caller reads every judgement (judge_every_step, which the per-slice bound
report sets) or when a plateau window is set, since a plateau is read on
consecutive judged rows.  Otherwise a row is judged on demand: only where
the free predictor eta^_k = |r~_k| / (|A| (|u| + |y_k|) + |b|) is at most
PREDICTOR_MARGIN epsilon, where r~_k is the least-squares residual and y_k
the least-squares solution of the step.  |r~_k| is the true residual norm
in exact arithmetic (Saad & Schultz, SISC 1986); in finite precision the
two part (Greenbaum, Rozloznik & Strakos, BIT 1997), which is why the
judge still decides.  As |u| + |y_k| >= |u + V y_k| up to the basis' loss
of orthogonality, the denominator can only make eta^ err low.  The
numerator |r~_k| can exceed the true residual, and the margin of 2 lets it
be up to twice the true one before a row that could end the solve goes
unjudged; such a miss costs iterations, up to the cycle's last step, never
a wrong verdict.  Either way a breakdown and a cycle's last step, whose
update the restart needs, are always judged, and a row that is not carries
NaN in its eta, true residual and iterate rank.

The judge works at the precision its verdict needs,
tau = max(WORKING_PRECISION, JUDGE_ACCURACY * epsilon).  It rounds M x at
tau, forms the last product A (M x) exactly and norms b - A M x with one
R sweep, so the residual is exact for the vector it judges; without a
preconditioner it rounds nothing.  The rounding of M x moves the residual
by at most tau |A| |M x|; against a judge at WORKING_PRECISION it moved
eta by at most 0.4 tau on the measured presets.  Both policies stop
only when eta < epsilon - tau, a margin that keeps the certificate under
that perturbation.

Each cycle keeps its (m+1) x m Hessenberg matrix and, after every step,
solves the small least-squares problem by one dense QR (hessenberg_lsq);
at m <= 100 that QR is small next to the TT arithmetic of a step.

Every rounded sum is one tt_round_sum, which works on the terms one at a
time and never forms the rank-sum cores: the least-squares update t = V y
at delta over the k terms y_j v_j, so it needs no intermediate rounding;
the MGS sum below; the judged iterate u + t at tau; and, per cycle, the
restart residual b - A M u and the update u + t at delta.

The Arnoldi step orthogonalizes w = round(A M v_k, delta_k) by MGS in
exact arithmetic and rounds the result once (_orthogonalize).  The MGS
coefficients of the unrounded running sum w_i = w - sum_j c_j v_j, over
the kept terms j < i, are c_i = <v_i, w> - sum_j <v_i, v_j> c_j over the
same j: tt_inners gives every <v_i, w>, and the Gram matrix of the
basis, kept per cycle and filled in as steps need its entries, gives the
rest (the low-synchronization form of MGS; Swirydowicz, Langou,
Ananthan, Yang & Thomas, NLA 2021).  One tt_round_sum at delta_k then
forms round(w - sum_i c_i v_i, delta_k) without forming the sum, so no
stabilization rounding is needed.  A term is left out of the sum when
|c_i| <= stab * |w_i - c_i v_i|, stab = delta_k / (4 k); as nothing is
rounded, |w_i - c_i v_i|^2 = |w_i|^2 - c_i^2 is exact.  The k terms left
out move the new vector by at most delta_k / 4 relative in all, and
their c_i stay in the Hessenberg column.  That bounds each step, not the
loss of orthogonality it adds up to: the basis-orthogonality contract
|I - V^T V| <= 100 * delta is measured only on the bench workloads and
on cycles of up to 40 steps.  Longer cycles lose it (Poisson at n = 15,
delta = 1e-4: 0.62 at k = 50, against 9.1e-8 with no term left out);
making the rule keep it is ROADMAP item 3(b).  On symmetric operators,
whose Arnoldi matrix is tridiagonal up to round-off, most terms are left
out.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .tt import (
    TTOperator,
    TTVector,
    storage_stats,
    tt_apply,
    tt_first_mode_norms,
    tt_inners,
    tt_norm,
    tt_random,
    tt_round,
    tt_round_sum,
    tt_rounded_norm,
    tt_scale,
    tt_zero,
)

__all__ = [
    "GmresConfig",
    "IterationRecord",
    "GmresOutcome",
    "OperatorChain",
    "BackwardErrors",
    "backward_errors",
    "judge_accuracy",
    "hessenberg_lsq",
    "estimate_l2_norm",
    "tt_gmres",
    "tt_right_gmres",
    "relaxed_tt_gmres",
]

#: rounding accuracy used where the algorithm calls for exact arithmetic
WORKING_PRECISION = 1e-13
#: the solver judges its iterates at this fraction of epsilon (no finer
#: than WORKING_PRECISION), and stops below epsilon minus that accuracy
JUDGE_ACCURACY = 1e-3
#: random vectors, and their bond rank, of the sampled L2-norm estimate
NORM_SAMPLES = 10
SAMPLE_RANK = 2
#: breakdown threshold (times beta; hard when R's diagonal falls below it
#: too, times the norm of the Hessenberg column)
BREAKDOWN_TOL = 1e-14
#: a plateau is a window whose best value the latest one fails to beat by
#: this relative margin
PLATEAU_RTOL = 0.05
#: on demand, a row is judged when the free predictor of its eta is at most
#: this many times epsilon: a least-squares residual up to this many times
#: the true one still calls the judge in time
PREDICTOR_MARGIN = 2.0


@dataclass(frozen=True)
class GmresConfig:
    """Solver knobs; see the field comments for semantics."""

    m: int = 25                       # restart length (iterations per cycle)
    epsilon: float = 1e-5             # stop when eta_Ab < epsilon - tau,
    #                                   tau = judge_accuracy(epsilon)
    delta: float = 1e-5               # rounding accuracy
    maxit: int = 100                  # global iteration cap
    rounding_policy: str = "constant"   # constant | relaxed
    seed: int = 0                     # first sample of the norm estimate
    judge_every_step: bool = False    # judge every row, for a caller that
    #                                   reads every judgement; otherwise
    #                                   on demand, where the free predictor
    #                                   says the row can end the solve
    plateau_window: int = 0           # 0 disables plateau detection; a
    #                                   window judges every row

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and > 0")
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and >= 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.maxit < self.m:
            raise ValueError("maxit must be >= m")
        if self.plateau_window < 0:
            raise ValueError("plateau_window must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    """Result of a solve: iterate, status, trace, and the BackwardErrors
    of every assembled iterate, in trace order (`judgements`)."""

    solution: TTVector
    converged: bool
    iterations: int
    trace: list[IterationRecord]
    estimated_opnorm: float
    judgements: list[BackwardErrors] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


class OperatorChain:
    """Operators applied right to left, with optional rounding in between.

    Never pre-composes the factors into one TT operator (the bond ranks would
    multiply); a preconditioned application A(M x) is two contractions with
    one rounding between them, and the last contraction is never rounded.
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
        """Apply the chain; round at delta between contractions if given.

        The product of the last (leftmost) factor is exact: a caller that
        needs it rounded rounds it, and one that only norms it does not.
        """
        for op in reversed(self.factors[1:]):
            x = tt_apply(op, x)
            if delta is not None:
                x = tt_round(x, delta)
        return tt_apply(self.factors[0], x)


def _as_chain(op) -> OperatorChain:
    if isinstance(op, OperatorChain):
        return op
    return OperatorChain([op])


def hessenberg_lsq(hbar: np.ndarray, beta: float):
    """Solve min_y |beta e_1 - Hbar y| for an (k+1) x k Hessenberg matrix.

    Returns (y, lsq_residual, r_kk) from one QR of [Hbar, beta e_1], whose
    R holds R_H (Hbar = Q R_H) and, as last column, Q^T beta e_1;
    r_kk = |R_H[k-1, k-1]| (NaN when k = 0).  As r_jj >= |h_{j+1,j}|,
    only r_kk can vanish when the subdiagonal is nonzero; if it is exactly
    0, the minimizer with y_k = 0 is returned.
    """
    hbar = np.asarray(hbar, dtype=np.float64)
    if hbar.ndim != 2 or hbar.shape[0] != hbar.shape[1] + 1:
        raise ValueError("expected a (k+1) x k array")
    if np.any(np.abs(np.tril(hbar, -2)) > 0):
        raise ValueError("matrix is not upper Hessenberg")
    k = hbar.shape[1]
    rhs = np.zeros((k + 1, 1))
    rhs[0] = beta
    r = np.linalg.qr(np.hstack((hbar, rhs)), mode="r")
    r_kk = float(abs(r[k - 1, k - 1])) if k else math.nan
    n = k if r_kk != 0 else k - 1
    y = np.zeros(k)
    y[:n] = np.linalg.solve(r[:n, :n], r[:n, k])
    return y, math.hypot(*r[n:, k]), r_kk


def estimate_l2_norm(op, seed: int = 0) -> float:
    """Sampled L2 norm: max image norm over NORM_SAMPLES random unit TT
    vectors, drawn from seeds seed, seed + 1, ..."""
    chain = _as_chain(op)
    modes = chain.col_modes
    ranks = (1,) + (SAMPLE_RANK,) * (len(modes) - 1) + (1,)
    best = 0.0
    for i in range(NORM_SAMPLES):
        w = tt_random(modes, ranks, seed + i)
        best = max(best, tt_norm(chain.apply(w)))
    return best


@dataclass(frozen=True)
class BackwardErrors:
    """Normwise backward errors of one iterate on one system.

    `opnorm` is the |A| the judgement was taken at.  The by-products take
    no part in equality: `residual_slice_norms`, `product_slice_norms` and
    `x_slice_norms` are the norms of the slices of b - A x, A x and x
    along the first mode, from the sweeps that gave `residual_norm` and
    `x_norm`: all that the per-slice bound report needs of the iterate.
    """

    eta_b: float
    eta_Ab: float
    residual_norm: float
    x_norm: float
    opnorm: float
    residual_slice_norms: np.ndarray = field(compare=False, repr=False)
    product_slice_norms: np.ndarray = field(compare=False, repr=False)
    x_slice_norms: np.ndarray = field(compare=False, repr=False)


def judge_accuracy(epsilon: float) -> float:
    """The accuracy tau the solver judges at for the threshold epsilon."""
    return max(WORKING_PRECISION, JUDGE_ACCURACY * epsilon)


def backward_errors(a, x: TTVector, b: TTVector, opnorm: float,
                    bnorm: float | None = None,
                    accuracy: float = WORKING_PRECISION) -> BackwardErrors:
    """eta_b and eta_Ab of the iterate x for A x = b.

    `a` is an operator or a chain; for a chain ending in a preconditioner,
    x is the preconditioned iterate and `opnorm` estimates |A M|.  `bnorm`
    is |b|, taken here when not given; a caller that judges many iterates
    of one system norms b once.  The product A x is formed by
    `a.apply(x, accuracy)`: rounded at `accuracy` between the factors of
    a chain, the last factor's product exact.  It is never rounded, and
    one R sweep of the terms b and A x (tt_first_mode_norms) norms the
    first-mode slices of b - A x and of A x, so the residual is exact for
    the vector judged and its cores are never formed; a single operator
    rounds nothing.  The product is dropped once swept: the judgement
    keeps only norms, of b - A x, A x and x and of their slices.
    """
    if not opnorm >= 0:
        raise ValueError("opnorm must be >= 0")
    if bnorm is None:
        bnorm = tt_norm(b)
    if bnorm == 0:
        raise ValueError("rhs has zero norm")
    r_slices, ax_slices = tt_first_mode_norms(
        b, _as_chain(a).apply(x, accuracy), coeffs=((1.0, -1.0), (0.0, 1.0)))
    x_slices = tt_first_mode_norms(x)
    rnorm = float(np.linalg.norm(r_slices))
    xnorm = float(np.linalg.norm(x_slices))
    return BackwardErrors(
        eta_b=rnorm / bnorm,
        eta_Ab=rnorm / (opnorm * xnorm + bnorm),
        residual_norm=rnorm,
        x_norm=xnorm,
        opnorm=opnorm,
        residual_slice_norms=r_slices,
        product_slice_norms=ax_slices,
        x_slice_norms=x_slices,
    )


def _combine(v, y, delta: float) -> TTVector:
    """round(sum_j y[j] v[j], delta) (tt_round_sum); the zero vector when
    y is empty."""
    if not len(y):
        return tt_zero(v[0].modes)
    return tt_round_sum(v[:len(y)], y, delta)


def _orthogonalize(w: TTVector, w_norm: float, v, gram, stab: float,
                   delta: float):
    """MGS of w, of norm w_norm, against the unit vectors v, exact, then
    one rounding.

    The coefficients are those of MGS on the unrounded running sum
    w_i = w - sum_{j < i, j kept} c_j v_j: c_i = <v_i, w_i> =
    <v_i, w> - sum_{j < i, j kept} <v_i, v_j> c_j, from tt_inners and
    the Gram matrix of the basis.  gram is a square NaN array of at least
    len(v) rows, kept across the calls of a cycle: gram[i, j]
    caches <v_j, v_i> for j < i, NaN until a step first needs it, that
    is, keeps term j and then reaches term i; the entries of row i that a
    step needs are taken by one tt_inners call.  As
    |w_i - c_i v_i|^2 = |w_i|^2 - c_i^2, the norms of the running sum are
    exact too.  Term i is left out of the sum when
    |c_i| <= stab * |w_i - c_i v_i|.  Returns (w', c, kept):
    w' = round(w - sum_{i in kept} c_i v_i, delta) by one tt_round_sum,
    c every coefficient, left-out terms included, and kept the indices of
    the terms in the sum.
    """
    c = tt_inners(v, w)
    kept = []
    w_sq = w_norm * w_norm
    for i in range(len(v)):
        if kept:
            row = gram[i]
            missing = [j for j in kept if np.isnan(row[j])]
            if missing:
                row[missing] = tt_inners([v[j] for j in missing], v[i])
            c[i] -= row[kept] @ c[kept]
        rest_sq = max(w_sq - c[i] * c[i], 0.0)
        if abs(c[i]) > stab * math.sqrt(rest_sq):
            kept.append(i)
            w_sq = rest_sq
    w = tt_round_sum([w] + [v[i] for i in kept],
                     np.concatenate(([1.0], -c[kept])), delta)
    return w, c, kept


def _gmres_cycle(chain: OperatorChain, b: TTVector, beta: float,
                 u: TTVector | None, r: TTVector, r_norm: float,
                 cfg: GmresConfig, out: GmresOutcome):
    """One Arnoldi expansion on chain t = r, where r = b - chain u has norm
    r_norm and beta = |b| (Alg. 3 body).

    Runs at most cfg.m iterations, and no more than cfg.maxit in total, and
    appends each iteration's record to `out`, and the judgement of each
    assembled iterate round(u + t, tau), tau = judge_accuracy(epsilon).
    u, when given, is a tt_round_sum result, so |u| is its last core's
    norm.  Step k is assembled at a breakdown, at the cycle's last step,
    at every step under cfg.judge_every_step or a plateau window, and
    otherwise where the predictor |r~_k| / (|A| (|u| + |y_k|) + |b|) is at
    most PREDICTOR_MARGIN epsilon; only an assembled step is judged, and
    only a judged eta below epsilon - tau converges.  Returns (t, stop): t
    is the least-squares update, assembled at delta, of the last iteration
    (a cycle ends only on an assembled one) or, at a plateau, of the
    window's best judged row; stop is None (restart), "converged",
    "plateaued" or "stagnated".

    After step k, one QR of the leading k columns of the kept Hessenberg
    matrix (hessenberg_lsq) gives y, the residual and R's last diagonal
    r_kk.  A breakdown (h_{k+1,k} below BREAKDOWN_TOL * r_norm) is lucky
    when r_kk stays above BREAKDOWN_TOL times the norm of column k: the
    least-squares problem is then solved exactly.  Otherwise it is hard: A
    is singular on the Krylov space and the system is inconsistent there
    (Brown & Walker, SIMAX 1997), so column k is dropped, the update is the
    least-squares solution over the leading k - 1 columns, and the cycle
    stops "stagnated".
    """
    cycle_len = min(cfg.m, cfg.maxit - out.iterations)
    dense_entries = storage_stats(r).dense_entries
    preconditioned = len(chain.factors) > 1
    relaxed = cfg.rounding_policy == "relaxed"
    tau = judge_accuracy(cfg.epsilon)
    u_norm = 0.0 if u is None else tt_rounded_norm(u)
    v = [tt_scale(r, 1.0 / r_norm)]
    v_stats = storage_stats(v[0])
    basis_entries = v_stats.tt_entries
    gram = np.full((cycle_len + 1, cycle_len + 1), np.nan)
    hbar = np.zeros((cycle_len + 1, cycle_len))
    lsq_residual = r_norm
    judge_all = cfg.judge_every_step or cfg.plateau_window > 0
    window = []                       # (eta, t) of the latest judged rows
    stop = None

    for k in range(1, cycle_len + 1):
        # Relaxed policy: the Arnoldi step's roundings are loosened by
        # |b| / |r~_{k-1}|, so the perturbation grows as the residual shrinks.
        delta_k = cfg.delta
        if relaxed:
            delta_k = min(1.0, delta_k * (beta / max(lsq_residual, 1e-300)))
        # Each of the k MGS terms left out of the sum moves it by at most
        # delta_k / (4k) relative, delta_k / 4 in all.
        stab = delta_k / (4.0 * k)

        w = tt_round(chain.apply(v[-1], delta_k), delta_k)
        w, coeffs, _ = _orthogonalize(w, tt_rounded_norm(w), v, gram, stab,
                                      delta_k)
        h_last = tt_rounded_norm(w)
        hbar[:k, k - 1] = coeffs
        hbar[k, k - 1] = h_last
        breakdown = h_last < BREAKDOWN_TOL * r_norm
        if not breakdown:
            v.append(tt_scale(w, 1.0 / h_last))
            v_stats = storage_stats(v[-1])
            basis_entries += v_stats.tt_entries
        y, lsq_residual, r_kk = hessenberg_lsq(hbar[:k + 1, :k], r_norm)
        hard = breakdown and r_kk <= \
            BREAKDOWN_TOL * np.linalg.norm(hbar[:k + 1, k - 1])
        if hard:
            y, lsq_residual, _ = hessenberg_lsq(hbar[:k, :k - 1], r_norm)
        out.iterations += 1

        if breakdown or k == cycle_len or judge_all:
            assemble = True
        else:
            # eta^_k <= PREDICTOR_MARGIN epsilon, without the division
            assemble = lsq_residual <= PREDICTOR_MARGIN * cfg.epsilon * (
                out.estimated_opnorm * (u_norm + np.linalg.norm(y)) + beta)
        t = None
        eta = BackwardErrors(*[math.nan] * 8)
        if assemble:
            t = _combine(v, y, cfg.delta)
            x = t if u is None else tt_round_sum([u, t], [1.0, 1.0], tau)
            eta = backward_errors(chain, x, b, out.estimated_opnorm, beta,
                                  tau)
            out.judgements.append(eta)

        out.trace.append(IterationRecord(
            k=out.iterations,
            eta_b=eta.eta_b,
            eta_Ab=math.nan if preconditioned else eta.eta_Ab,
            eta_AMb=eta.eta_Ab if preconditioned else math.nan,
            eta_tilde_b=lsq_residual / beta,
            lsq_residual=lsq_residual,
            true_residual=eta.residual_norm,
            max_rank_v=v_stats.max_rank,
            max_rank_x=math.nan if t is None else t.max_rank,
            cr_last_vec=v_stats.compression_ratio,
            cr_basis=basis_entries / (len(v) * dense_entries),
            delta_used=delta_k,
        ))

        # Both policies stop on eta_Ab, judged at tau, with a margin of tau
        # below epsilon.
        if assemble and eta.eta_Ab < cfg.epsilon - tau:
            stop = "converged"
            break
        if breakdown:
            stop = "stagnated" if hard else None
            break
        # A plateau ends the solve on the window's best iterate, which this
        # cycle still holds.
        if assemble and cfg.plateau_window:
            window = (window + [(eta.eta_Ab, t)])[-(cfg.plateau_window + 1):]
            etas = [e for e, _ in window]
            latest = etas[-1]
            if len(etas) > cfg.plateau_window and latest <= 100 * cfg.delta \
                    and latest > min(etas[:-1]) * (1.0 - PLATEAU_RTOL):
                t = window[etas.index(min(etas))][1]
                stop = "plateaued"
                break

    return t, stop


def tt_gmres(a, b: TTVector, cfg: GmresConfig) -> GmresOutcome:
    """Full TT-GMRES (no restart) on A x = b with zero initial guess.

    The restarted driver with one cycle of cfg.maxit iterations; `a` may be a
    TTOperator or an OperatorChain (then the solution is in the variable the
    chain acts on).  See tt_right_gmres for the outcome's meta entries.
    """
    return tt_right_gmres(a, None, b, replace(cfg, m=cfg.maxit))


def relaxed_tt_gmres(a, b: TTVector, cfg: GmresConfig) -> GmresOutcome:
    """Full TT-GMRES with an iteration-dependent rounding accuracy.

    The Arnoldi step of iteration k rounds the product A v_k and the new
    basis vector at ``delta_k = min(1, delta |b| / |r~_{k-1}|)``, where
    |r~_{k-1}| is the least-squares residual norm of the previous step, so
    delta_1 = delta.  The new basis vector is one rounding at delta_k of
    the exact MGS vector, less the MGS terms left out of the sum, which
    move it by at most delta_k / 4 relative.  Nothing else is loosened:
    the iterate is assembled at delta and judged, and the solve stops, as
    under the constant policy.
    """
    return tt_gmres(a, b, replace(cfg, rounding_policy="relaxed"))


def tt_right_gmres(a, m: TTOperator | None, b: TTVector,
                   cfg: GmresConfig) -> GmresOutcome:
    """Restarted right-preconditioned GMRES (Alg. 4 driver) from x = 0.

    `a` is a TTOperator or an OperatorChain; the cycles solve with the
    chain a M.  The driver keeps one iterate u, in the variable the chain
    acts on, and repeats: r = round(b - A M u, delta) (r = b at the start);
    run a cycle on A M t = r for up to cfg.m iterations; u = round(u + t,
    delta).  It returns x = round(M u, delta), or u without a
    preconditioner, with the trace of all cycles.  A judged trace row's
    eta is the backward error of the assembled iterate
    x = round(u + t, tau) on the whole system A M x = b, judged at
    tau = judge_accuracy(epsilon); either policy converges when it falls
    below epsilon - tau.  Every row is judged under cfg.judge_every_step
    or a plateau window, and otherwise only where the free least-squares
    predictor says the row may converge (see _gmres_cycle); the other rows
    hold NaN eta.  A plateau stop returns the window's best judged
    iterate.  The restart residual forms A M u with M u rounded at
    WORKING_PRECISION.
    Two events raise meta["stagnated"] and stop the solve unconverged: a
    cycle that fails to shrink the outer residual by 1e-14 relative, and a
    hard breakdown inside a cycle (see _gmres_cycle).  meta["plateaued"]
    reports a plateau stop and meta["cycles"] the cycle count.
    """
    op = _as_chain(a)
    chain = op if m is None else OperatorChain(op.factors + (m,))
    if chain.col_modes != b.modes or chain.row_modes != b.modes:
        raise ValueError("operator/preconditioner modes must match the rhs")
    beta = tt_norm(b)
    out = GmresOutcome(solution=tt_zero(b.modes), converged=False,
                       iterations=0, trace=[],
                       estimated_opnorm=estimate_l2_norm(chain,
                                                         seed=cfg.seed),
                       meta={"stagnated": False, "plateaued": False,
                             "cycles": 0})
    u = None
    r, r_norm = b, beta
    while out.iterations < cfg.maxit:
        if u is not None:
            r = tt_round_sum([b, chain.apply(u, WORKING_PRECISION)],
                             [1.0, -1.0], cfg.delta)
            prev_norm, r_norm = r_norm, tt_rounded_norm(r)
            if r_norm > prev_norm * (1.0 - 1e-14):
                out.meta["stagnated"] = True
                break
        if r_norm == 0.0:
            out.converged = True
            break
        t, stop = _gmres_cycle(chain, b, beta, u, r, r_norm, cfg, out)
        out.meta["cycles"] += 1
        terms = [t] if u is None else [u, t]
        u = tt_round_sum(terms, np.ones(len(terms)), cfg.delta)
        if stop == "converged":
            out.converged = True
        elif stop is not None:
            out.meta[stop] = True
        if stop is not None:
            break
    if u is not None:
        out.solution = u if m is None else tt_round(tt_apply(m, u),
                                                    cfg.delta)
    return out
