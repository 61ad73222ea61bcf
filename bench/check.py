"""Outside check of a returned solution: eta_Ab against the benchmark's own |A|_2.

The residual ``b - A x`` is formed with the exact public TT operations
(``tt_apply``, ``tt_add``, ``tt_scale``) and its norm is taken on the dense
tensor, contracted here, so the library's norm code plays no part.
``|A|_2`` comes from a fixed number of power iterations on ``A^T A``, not
from the solver's estimate; every value it reports is ``|A v| / |v|`` for
some v, a lower bound of the true norm, so a shortfall only makes the
check stricter.
"""

from __future__ import annotations

import numpy as np

from ttkrylov.tt import (make_tt_operator, make_tt_vector, tt_add, tt_apply,
                         tt_round, tt_scale, tt_zero)

#: Power iterations for the reference norm; on poisson-n31 the estimate is
#: 0.5% below the exact 2-norm after this many.
POWER_ITERATIONS = 100
#: Rounding accuracy between power iterations; it keeps ranks small and
#: cannot bias the estimate, which is measured on the rounded vector.
POWER_DELTA = 1e-3
POWER_SEED = 20221026
#: Largest tensor the check densifies.
DENSE_LIMIT = 8 * 10**6


def dense_norm(x) -> float:
    """Frobenius norm of a TT vector, contracted to a dense array here."""
    size = float(np.prod([float(n) for n in x.modes]))
    if size > DENSE_LIMIT:
        raise ValueError(f"check would densify {size:.0f} entries")
    out = np.ones((1, 1))
    for c in x.cores:
        out = (out @ c.reshape(c.shape[0], -1)).reshape(-1, c.shape[2])
    return float(np.linalg.norm(out))


def _gram_norm(x) -> float:
    g = np.ones((1, 1))
    for c in x.cores:
        g = np.tensordot(c, np.tensordot(g, c, axes=([1], [0])),
                         axes=([0, 1], [0, 1]))
    return float(np.sqrt(max(g[0, 0], 0.0)))


def _apply(a, x):
    """A x by BLAS tensordot; the same product as tt_apply, only faster."""
    cores = []
    for ca, cx in zip(a.cores, x.cores):
        ra, n, _, rb = ca.shape
        sa, _, sb = cx.shape
        t = np.tensordot(ca, cx, axes=([2], [1]))            # a i b c d
        cores.append(t.transpose(0, 3, 1, 2, 4).reshape(ra * sa, n, rb * sb))
    return make_tt_vector(cores)


def reference_opnorm(a) -> float:
    """Lower bound of |A|_2 by power iteration on A^T A (transpose = swap
    the row and column axes of every core)."""
    at = make_tt_operator([np.swapaxes(c, 1, 2) for c in a.cores])
    rng = np.random.default_rng(POWER_SEED)
    modes = a.col_modes
    ranks = (1,) + (2,) * (len(modes) - 1) + (1,)
    v = make_tt_vector([rng.standard_normal((ranks[k], n, ranks[k + 1]))
                        for k, n in enumerate(modes)])
    best = 0.0
    for _ in range(POWER_ITERATIONS):
        v = tt_scale(v, 1.0 / _gram_norm(v))
        u = _apply(a, v)
        best = max(best, _gram_norm(u))
        v = tt_round(_apply(at, tt_round(u, POWER_DELTA)), POWER_DELTA)
    return best


def eta_ab(a, x, b, opnorm: float) -> tuple[float, float]:
    """(eta_b, eta_Ab) of x for A x = b, with |A|_2 taken as `opnorm`."""
    r = tt_add(b, tt_scale(tt_apply(a, x), -1.0))
    rnorm, bnorm = dense_norm(r), dense_norm(b)
    return rnorm / bnorm, rnorm / (opnorm * dense_norm(x) + bnorm)


def verdict(a, b, outcome, report, bounds_expected: bool, epsilon: float,
            opnorm: float) -> dict:
    """Judge one solve; ``passed`` is False on any of the failure causes.

    A solve fails if it reports ``converged=False``, if the recomputed
    eta_Ab exceeds epsilon, or if a bound report was due and is missing or
    lists violations.  The same check is run on the zero vector, which it
    must reject, so a check that accepts everything shows as a failure.
    """
    eta_b, eta = eta_ab(a, outcome.solution, b, opnorm)
    _, eta_zero = eta_ab(a, tt_zero(b.modes), b, opnorm)
    violations = None if report is None else len(report.violations)
    reasons = []
    if not outcome.converged:
        reasons.append("converged=False")
    if not eta <= epsilon:
        reasons.append(f"eta_Ab {eta:.3g} > epsilon {epsilon:.3g}")
    if bounds_expected and violations is None:
        reasons.append("no bound report")
    if violations:
        reasons.append(f"{violations} bound violations")
    if not eta_zero > epsilon:
        reasons.append("check accepted the zero vector")
    return {"passed": not reasons, "reasons": reasons, "eta_b": eta_b,
            "eta_Ab": eta, "eta_Ab_zero_vector": eta_zero,
            "bound_violations": violations, "reference_opnorm": opnorm,
            "solver_opnorm_estimate": outcome.estimated_opnorm}
