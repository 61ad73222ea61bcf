"""Backward errors, slice-wise extraction and bound verification.

For an all-in-one system stacking p parametric problems along the leading
mode, these routines extract per-parameter backward errors from the joint
iterate and evaluate the scaling factors that bound them in terms of the
joint backward error:

  rho_l(x)  = (|A| |x| + sqrt(p)) / (|A_l x^[l]| + 1)
  rho*(x)   = (|A| |x| + sqrt(p)) / (2 - nu)
  psi_l(x)  = (|x| + sqrt(p)/|A0|) / (|x^[l]| + 1/|A0|)
  rho^dag   = sqrt(p) (1 + kappa_2) / (2 - nu)

Operator norms are sampled estimates; the per-slice estimates are augmented
with the Rayleigh quotients of the iterates themselves so the inequalities
stay theorems under estimation (the estimate remains a lower bound of the
true norm).  For instances whose slice operators differ, the psi-based check
is evaluated with the joint operator norm on both sides, which is the
setting in which that bound is proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import (NORM_SAMPLES, WORKING_PRECISION, BackwardErrors,
                     OperatorChain, _as_chain, backward_errors,
                     estimate_l2_norm)
from .tt import (
    TTVector,
    tt_add,
    tt_norm,
    tt_op_diag_slice,
    tt_scale,
    tt_slice_first_mode,
)

__all__ = [
    "BackwardErrors",
    "BoundParams",
    "BoundReport",
    "backward_errors",
    "bound_factors",
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


def _slice_chain(chain: OperatorChain, ell: int) -> OperatorChain:
    return OperatorChain([tt_op_diag_slice(f, ell) for f in chain.factors])


def bound_factors(x: TTVector, x_slices, ax_slice_norms,
                  params: BoundParams):
    """Scaling factors rho_l, rho*, psi_l and (optionally) rho-dagger.

    `x_slices` holds the extracted slices of the iterate and
    `ax_slice_norms` the norms |A_l x^[l]|.
    """
    sp = math.sqrt(params.p)
    xnorm = tt_norm(x)
    rho = [(params.opnorm_A * xnorm + sp) / (axn + 1.0)
           for axn in ax_slice_norms]
    rho_star = (params.opnorm_A * xnorm + sp) / (2.0 - params.nu)
    psi = [(xnorm + sp / params.opnorm_A0)
           / (tt_norm(xl) + 1.0 / params.opnorm_A0) for xl in x_slices]
    rho_dagger = None
    if params.kappa2 is not None:
        rho_dagger = sp * (1.0 + params.kappa2) / (2.0 - params.nu)
    return rho, rho_star, psi, rho_dagger


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


def verify_bounds(a, b: TTVector, iterates, opnorm_A: float,
                  opnorm_Ainv: float | None = None,
                  seed: int = 0) -> BoundReport:
    """Evaluate the per-slice backward-error bounds along a solve.

    `a` is the all-in-one operator or chain (operator + preconditioner);
    `iterates` the assembled iterates per iteration (preconditioned
    variable when a preconditioner is part of the chain).  Checks, per
    iteration and slice:

      * eta_b * sqrt(p) >= eta_b_l
      * eta_Ab * rho_l  >= eta_Ab_l
      * eta_Ab * psi_l  >= eta_Ab_l  (joint-norm variant when slices differ)
      * eta_Ab * rho*   >= eta_Ab_l  for k >= k*, with nu from the trace

    Violations beyond BOUND_SLACK are recorded, never raised.
    """
    chain = _as_chain(a)
    p = b.modes[0]
    sp = math.sqrt(p)
    n_it = len(iterates)
    if n_it == 0:
        raise ValueError("need at least one iterate")
    b_slices = [tt_slice_first_mode(b, ell) for ell in range(1, p + 1)]
    b_slice_norms = [tt_norm(bl) for bl in b_slices]

    sub_chains = [_slice_chain(chain, ell) for ell in range(1, p + 1)]
    slices_equal = _slices_equal(sub_chains)
    # Sampled slice norms, sharpened with every iterate's Rayleigh quotient.
    slice_est = [estimate_l2_norm(sc, NORM_SAMPLES, seed)
                 for sc in sub_chains]

    eta_b = np.zeros(n_it)
    eta_ab = np.zeros(n_it)
    res_slice = np.zeros((n_it, p))
    ax_slice = np.zeros((n_it, p))
    x_slice_norm = np.zeros((n_it, p))
    x_slices_all = []
    for k, x in enumerate(iterates):
        joint = backward_errors(chain, x, b, opnorm_A)
        eta_b[k], eta_ab[k] = joint.eta_b, joint.eta_Ab
        row = []
        for ell in range(p):
            x_l = tt_slice_first_mode(x, ell + 1)
            row.append(x_l)
            ax_l = sub_chains[ell].apply(x_l, delta=WORKING_PRECISION)
            ax_slice[k, ell] = tt_norm(ax_l)
            res_slice[k, ell] = tt_norm(
                tt_add(ax_l, tt_scale(b_slices[ell], -1.0)))
            nx = tt_norm(x_l)
            x_slice_norm[k, ell] = nx
            if nx > 0:
                slice_est[ell] = max(slice_est[ell], ax_slice[k, ell] / nx)
        x_slices_all.append(row)

    # nu and k*: stabilization of |A_l x^[l]| around 1.
    k_star = max(_detect_k_star(ax_slice[:, ell:ell + 1])
                 for ell in range(p))
    nu = float(np.abs(ax_slice[k_star:] - 1.0).max()) if n_it else 0.0
    nu_valid = nu < 2.0
    params = BoundParams(p=p, nu=nu if nu_valid else 0.0,
                         opnorm_A=opnorm_A, opnorm_A0=opnorm_A,
                         opnorm_Ainv=opnorm_Ainv)

    eta_b_sl = res_slice / np.asarray(b_slice_norms)[None, :]
    eta_ab_sl = np.zeros_like(eta_b_sl)
    eta_ab_sl_joint = np.zeros_like(eta_b_sl)
    rho = np.zeros((n_it, p))
    psi = np.zeros((n_it, p))
    rho_star = np.zeros(n_it)
    rho_dagger = None
    violations = []
    for k in range(n_it):
        rho_k, rho_star_k, psi_k, rho_dagger = bound_factors(
            iterates[k], x_slices_all[k], ax_slice[k], params)
        rho[k] = rho_k
        psi[k] = psi_k
        rho_star[k] = rho_star_k
        for ell in range(p):
            eta_ab_sl[k, ell] = res_slice[k, ell] / (
                slice_est[ell] * x_slice_norm[k, ell] + b_slice_norms[ell])
            eta_ab_sl_joint[k, ell] = res_slice[k, ell] / (
                opnorm_A * x_slice_norm[k, ell] + b_slice_norms[ell])
            if eta_b[k] * sp + BOUND_SLACK < eta_b_sl[k, ell]:
                violations.append((k, ell, "prop1"))
            if eta_ab[k] * rho[k, ell] + BOUND_SLACK < eta_ab_sl[k, ell]:
                violations.append((k, ell, "prop2"))
            psi_target = eta_ab_sl[k, ell] if slices_equal \
                else eta_ab_sl_joint[k, ell]
            if eta_ab[k] * psi[k, ell] + BOUND_SLACK < psi_target:
                violations.append((k, ell, "prop3"))
            if nu_valid and k >= k_star and \
                    eta_ab[k] * rho_star[k] + BOUND_SLACK < eta_ab_sl[k, ell]:
                violations.append((k, ell, "cor_rho_star"))
            if nu_valid and rho_dagger is not None and k >= k_star and \
                    eta_ab[k] * rho_dagger + BOUND_SLACK < eta_ab_sl[k, ell]:
                violations.append((k, ell, "cor_rho_dagger"))

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


def _slices_equal(sub_chains, probes: int = 2, tol: float = 1e-12) -> bool:
    """True when all slice operators act identically on a few random probes."""
    from .tt import tt_random
    first = sub_chains[0]
    modes = first.col_modes
    ranks = (1,) + (2,) * (len(modes) - 1) + (1,)
    for i in range(probes):
        w = tt_random(modes, ranks, 977 + i)
        ref = first.apply(w, delta=WORKING_PRECISION)
        refn = max(tt_norm(ref), 1e-300)
        for sc in sub_chains[1:]:
            diff = tt_add(sc.apply(w, delta=WORKING_PRECISION),
                          tt_scale(ref, -1.0))
            if tt_norm(diff) > tol * refn:
                return False
    return True
