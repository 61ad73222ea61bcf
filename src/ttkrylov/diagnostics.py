"""Backward errors, slice-wise extraction and bound verification.

For an all-in-one system stacking p parametric problems along the leading
mode, these routines extract per-parameter backward errors from the joint
iterate and evaluate the scaling factors that bound them in terms of the
joint backward error:

  rho_l(x)  = (|A| |x| + sqrt(p)) / (|A_l x^[l]| + 1)
  rho*(x)   = (|A| |x| + sqrt(p)) / (2 - nu)
  psi_l(x)  = (|x| + sqrt(p)/|A0|) / (|x^[l]| + 1/|A0|)
  rho^dag   = sqrt(p) (1 + kappa_2) / (2 - nu)

The stacked operator is block diagonal, so each slice product A_l x^[l] is
an exact slice of the joint product A x: one product per iterate gives the
joint and every per-slice residual, with no slice operator applied.  That
product is the solver's: each iterate is judged once, when the solver
assembles it, and the report reads the judgements (GmresOutcome.judgements),
so its joint eta is the trace's and it forms no product with A.  A
judgement carries the |A| it was taken at and the joint and per-slice norms
of x, A x and b - A x, from the R sweeps of x and of the terms b and A x
(tt_first_mode_norms): no slice is formed and no iterate need be kept.

Operator norms are sampled estimates; the per-slice estimates are augmented
with the Rayleigh quotients of the iterates themselves so the inequalities
stay theorems under estimation (the estimate remains a lower bound of the
true norm).  The psi-based check is evaluated with the joint operator norm
on both sides, whether the slice operators differ or not: that is the
setting in which that bound is proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import (BackwardErrors, OperatorChain, _as_chain,
                     backward_errors, estimate_l2_norm)
from .tt import TTVector, tt_first_mode_norms, tt_op_diag_slice

__all__ = [
    "BackwardErrors",
    "BoundParams",
    "BoundReport",
    "backward_errors",
    "verify_bounds",
]

#: absolute floating-point slack of the bound inequalities
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class BoundParams:
    """Scalars entering the bound factors."""

    p: int
    nu: float
    opnorm_A: float
    opnorm_A0: float
    opnorm_Ainv: float | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not 0.0 <= self.nu < 2.0:
            raise ValueError("nu must lie in [0, 2)")

    @property
    def kappa2(self) -> float | None:
        if self.opnorm_Ainv is None:
            return None
        return self.opnorm_A * self.opnorm_Ainv


@dataclass
class BoundReport:
    """Per-iteration, per-slice bound evaluation.

    Arrays are indexed [k][l] (iteration, slice).  `violations` lists
    (iteration, slice, bound name) triples for inequalities that failed
    beyond the floating-point slack.
    """

    p: int
    iterations: int
    eta_b: list
    eta_Ab: list
    eta_b_slice: list
    eta_Ab_slice: list
    rho_ell: list
    rho_star: list
    psi_ell: list
    rho_dagger: float | None
    upsilon: np.ndarray
    gamma: np.ndarray
    ell_min: int
    ell_max: int
    nu: float
    k_star: int
    violations: list = field(default_factory=list)
    selector: str = "upsilon"


def _detect_k_star(ax_norm_hist: np.ndarray, window: int = 3,
                   rtol: float = 0.1) -> int:
    """First iteration from which |A_l x^[l]| stays within rtol variation
    over a sliding window (0-based); falls back to the last iteration."""
    n_it = ax_norm_hist.shape[0]
    for k in range(0, n_it - window + 1):
        seg = ax_norm_hist[k:k + window]
        lo, hi = seg.min(axis=0), seg.max(axis=0)
        denom = np.maximum(np.abs(hi), 1e-300)
        if np.all((hi - lo) / denom <= rtol):
            return k
    return n_it - 1


def verify_bounds(a, b: TTVector, judgements,
                  opnorm_Ainv: float | None = None,
                  seed: int = 0) -> BoundReport:
    """Evaluate the per-slice backward-error bounds along a solve.

    `a` is the all-in-one operator or chain (operator + preconditioner) and
    `judgements` the solver's BackwardErrors of its assembled iterates
    (GmresOutcome.judgements; of the preconditioned variable when a
    preconditioner is part of the chain).  The report reuses them: their
    joint eta, their |A| and the first-mode slice norms of x, A x and
    b - A x, which are those of x^[l], A_l x^[l] and the slice residuals as
    the stacked operator is block diagonal.  `a` is applied only to the
    sampled slice-norm estimates.  Checks, per iteration and slice:

      * eta_b * sqrt(p) >= eta_b_l
      * eta_Ab * rho_l  >= eta_Ab_l
      * eta_Ab * psi_l  >= eta_Ab_l  (eta_Ab_l taken at the joint |A|)
      * eta_Ab * rho*   >= eta_Ab_l  for k >= k*, with nu from the trace

    Violations beyond BOUND_SLACK are recorded, never raised.
    """
    chain = _as_chain(a)
    p = b.modes[0]
    sp = math.sqrt(p)
    n_it = len(judgements)
    if n_it == 0:
        raise ValueError("need at least one judgement")
    opnorm_A = judgements[0].opnorm
    if any(j.opnorm != opnorm_A for j in judgements):
        raise ValueError("judgements taken at different |A|")
    b_slice_norms = tt_first_mode_norms(b)

    sub_chains = [OperatorChain([tt_op_diag_slice(f, ell)
                                 for f in chain.factors])
                  for ell in range(1, p + 1)]
    # Slices of one factor share every core but the first, so they are equal
    # when their first cores are.  A false "differ" only selects the upsilon
    # ranking of the slices instead of gamma; no check depends on it.
    slices_equal = all(np.array_equal(f.cores[0], f0.cores[0])
                       for sc in sub_chains[1:]
                       for f, f0 in zip(sc.factors, sub_chains[0].factors))

    eta_b, eta_ab, x_norm, res_slice, ax_slice, x_slice_norm = (
        np.array([getattr(j, name) for j in judgements])
        for name in ("eta_b", "eta_Ab", "x_norm", "residual_slice_norms",
                     "product_slice_norms", "x_slice_norms"))

    # Sampled slice norms, sharpened with every iterate's Rayleigh quotient.
    rayleigh = np.divide(ax_slice, x_slice_norm,
                         out=np.zeros_like(ax_slice), where=x_slice_norm > 0)
    slice_est = np.maximum(
        [estimate_l2_norm(sc, seed=seed) for sc in sub_chains],
        rayleigh.max(axis=0))

    # nu and k*: stabilization of |A_l x^[l]| around 1.
    k_star = max(_detect_k_star(ax_slice[:, ell:ell + 1])
                 for ell in range(p))
    nu = float(np.abs(ax_slice[k_star:] - 1.0).max())
    nu_valid = nu < 2.0
    params = BoundParams(p=p, nu=nu if nu_valid else 0.0,
                         opnorm_A=opnorm_A, opnorm_A0=opnorm_A,
                         opnorm_Ainv=opnorm_Ainv)

    # The bound factors, from the norms gathered above.
    joint_scale = params.opnorm_A * x_norm + sp
    rho = joint_scale[:, None] / (ax_slice + 1.0)
    rho_star = joint_scale / (2.0 - params.nu)
    psi = ((x_norm + sp / params.opnorm_A0)[:, None]
           / (x_slice_norm + 1.0 / params.opnorm_A0))
    rho_dagger = None if params.kappa2 is None else \
        sp * (1.0 + params.kappa2) / (2.0 - params.nu)

    eta_b_sl = res_slice / b_slice_norms
    eta_ab_sl = res_slice / (slice_est * x_slice_norm + b_slice_norms)
    eta_ab_sl_joint = res_slice / (opnorm_A * x_slice_norm + b_slice_norms)
    late = nu_valid & (np.arange(n_it) >= k_star)[:, None]
    failed = {
        "prop1": eta_b[:, None] * sp + BOUND_SLACK < eta_b_sl,
        "prop2": eta_ab[:, None] * rho + BOUND_SLACK < eta_ab_sl,
        "prop3": eta_ab[:, None] * psi + BOUND_SLACK < eta_ab_sl_joint,
        "cor_rho_star": late & ((eta_ab * rho_star)[:, None] + BOUND_SLACK
                                < eta_ab_sl),
    }
    if rho_dagger is not None:
        failed["cor_rho_dagger"] = late & (
            eta_ab[:, None] * rho_dagger + BOUND_SLACK < eta_ab_sl)
    violations = [(k, ell, name) for k in range(n_it) for ell in range(p)
                  for name, bad in failed.items() if bad[k, ell]]

    upsilon = np.linalg.norm(rho, axis=0)
    gamma = np.linalg.norm(psi, axis=0)
    selector = "gamma" if slices_equal else "upsilon"
    chosen = gamma if selector == "gamma" else upsilon
    return BoundReport(
        p=p, iterations=n_it,
        eta_b=eta_b.tolist(), eta_Ab=eta_ab.tolist(),
        eta_b_slice=eta_b_sl.tolist(), eta_Ab_slice=eta_ab_sl.tolist(),
        rho_ell=rho.tolist(), rho_star=rho_star.tolist(),
        psi_ell=psi.tolist(), rho_dagger=rho_dagger,
        upsilon=upsilon, gamma=gamma,
        ell_min=int(np.argmin(chosen)) + 1,
        ell_max=int(np.argmax(chosen)) + 1,
        nu=nu, k_star=k_star,
        violations=violations, selector=selector)
