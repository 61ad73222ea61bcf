"""Builders for the PDE operators, preconditioners and right-hand sides.

Everything is emitted directly in TT form; dense matrices only appear per
mode (size n x n).  Grids are uniform with n interior points and step
``h = (b - a) / (n + 1)``; node i sits at ``a + i h`` (1-based).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tt import (
    TTOperator,
    TTVector,
    TTError,
    make_tt_operator,
    tt_add,
    tt_identity_operator,
    tt_norm,
    tt_op_from_factors,
    tt_random,
    tt_rank_one,
    tt_round,
    tt_scale,
    tt_slice_first_mode,
    make_tt_vector,
)

__all__ = [
    "Grid1D",
    "ParamSet",
    "ProblemInstance",
    "GridOnInterfaceError",
    "laplacian_1d",
    "gradient_1d",
    "laplace_like",
    "tt_laplacian",
    "poisson_problem",
    "convection_diffusion_problem",
    "heat_parametrized_parts",
    "inv_laplacian_preconditioner",
    "kron_leading_identity",
    "all_in_one_operator",
    "all_in_one_rhs",
    "parametric_convection_diffusion_problem",
    "heat_parametrized_problem",
    "multi_rhs_problem",
    "laplacian_eigen_rhs",
    "laplacian_eigenvalue",
    "default_addend_count",
]


class GridOnInterfaceError(TTError):
    """A sampling node lies exactly on the coefficient-jump interface."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-d grid with n interior points on (a, b)."""

    n: int
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 interior points")
        if not self.b > self.a:
            raise ValueError("need b > a")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class ParamSet:
    """Discrete parameter values with their sampling law."""

    values: tuple[float, ...]
    distribution: str
    range: tuple[float, float]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("need at least one parameter value")
        if list(self.values) != sorted(self.values):
            raise ValueError("parameter values must be sorted ascending")
        lo, hi = self.range
        if min(self.values) < lo or max(self.values) > hi:
            raise ValueError("parameter values outside the stated range")

    @property
    def p(self) -> int:
        return len(self.values)

    @staticmethod
    def log_spaced(p: int, lo: float = 1.0, hi: float = 10.0) -> "ParamSet":
        return ParamSet(tuple(np.geomspace(lo, hi, p)), "log", (lo, hi))

    @staticmethod
    def uniform(p: int, lo: float = 0.0, hi: float = 10.0) -> "ParamSet":
        return ParamSet(tuple(np.linspace(lo, hi, p)), "uniform", (lo, hi))


@dataclass(frozen=True)
class ProblemInstance:
    """A ready-to-solve (operator, rhs) pair with optional extras."""

    operator: TTOperator
    rhs: TTVector
    analytic_solution: TTVector | None = None

    def __post_init__(self):
        if self.operator.col_modes != self.rhs.modes:
            raise TTError("operator col_modes do not match rhs modes")


def laplacian_1d(g: Grid1D) -> np.ndarray:
    """1-d central-difference Laplacian, tridiag(1, -2, 1) / h^2."""
    n, h = g.n, g.h
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = -2.0
    m[idx[:-1], idx[:-1] + 1] = 1.0
    m[idx[1:], idx[1:] - 1] = 1.0
    return m / h**2


def gradient_1d(g: Grid1D) -> np.ndarray:
    """Order-2 central first-difference matrix, tridiag(-1, 0, 1) / 2h."""
    n, h = g.n, g.h
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx[:-1], idx[:-1] + 1] = 1.0
    m[idx[1:], idx[1:] - 1] = -1.0
    return m / (2.0 * h)


def laplace_like(left, mid, right) -> TTOperator:
    """Kronecker sum-of-products operator with exact TT-rank 2.

    Dense form is ``sum_k L_1 x .. x L_{k-1} x M_k x R_{k+1} x .. x R_d``.
    """
    left = [np.asarray(m, dtype=np.float64) for m in left]
    mid = [np.asarray(m, dtype=np.float64) for m in mid]
    right = [np.asarray(m, dtype=np.float64) for m in right]
    d = len(mid)
    if len(left) != d or len(right) != d:
        raise TTError("left, mid, right must have equal length")
    for k in range(d):
        if not (left[k].shape == mid[k].shape == right[k].shape):
            raise TTError(f"mode {k}: factor shapes disagree")
    if d == 1:
        m = mid[0]
        return make_tt_operator([m.reshape(1, *m.shape, 1)])
    cores = []
    n0, m0 = mid[0].shape
    c = np.zeros((1, n0, m0, 2))
    c[0, :, :, 0] = left[0]
    c[0, :, :, 1] = mid[0]
    cores.append(c)
    for k in range(1, d - 1):
        n, m = mid[k].shape
        c = np.zeros((2, n, m, 2))
        c[0, :, :, 0] = left[k]
        c[0, :, :, 1] = mid[k]
        c[1, :, :, 1] = right[k]
        cores.append(c)
    n, m = mid[-1].shape
    c = np.zeros((2, n, m, 1))
    c[0, :, :, 0] = mid[-1]
    c[1, :, :, 0] = right[-1]
    cores.append(c)
    return make_tt_operator(cores)


def tt_laplacian(d: int, g: Grid1D, negate: bool = False) -> TTOperator:
    """d-dimensional discrete Laplacian (or its negation) in TT form."""
    if d < 1:
        raise TTError("d must be >= 1")
    lap = laplacian_1d(g)
    eye = np.eye(g.n)
    op = laplace_like([eye] * d, [lap] * d, [eye] * d)
    return tt_scale(op, -1.0) if negate else op


def _poly_nodes(g: Grid1D):
    x = g.nodes
    return 1.0 - x**2


def poisson_problem(g: Grid1D) -> ProblemInstance:
    """3-d Poisson problem -Lap u = f with separable manufactured solution.

    u(x, y, z) = (1 - x^2)(1 - y^2)(1 - z^2), f = -Lap u; the rhs is the
    pointwise sampling of f, assembled analytically as a rank-3 TT sum.
    """
    w = _poly_nodes(g)
    ones = np.ones(g.n)
    op = tt_laplacian(3, g, negate=True)
    rhs = tt_add(
        tt_add(tt_rank_one([2 * ones, w, w]), tt_rank_one([2 * w, ones, w])),
        tt_rank_one([2 * w, w, ones]))
    exact = tt_rank_one([w, w, w])
    return ProblemInstance(operator=op, rhs=rhs, analytic_solution=exact)


def _convdiff_terms(g: Grid1D):
    x = g.nodes
    grad = gradient_1d(g)
    eye = np.eye(g.n)
    t1 = tt_op_from_factors([np.diag(1.0 - x**2) @ grad,
                             np.diag(2.0 * x), eye])
    t2 = tt_op_from_factors([np.diag(-2.0 * x),
                             np.diag(1.0 - x**2) @ grad, eye])
    return tt_add(t1, t2)


def _convdiff_rhs(g: Grid1D, alpha: float = 1.0) -> TTVector:
    """Dirichlet lifting of u = 1 on the y = 1 face.

    At nodes adjacent to that face the eliminated boundary value contributes
    ``alpha / h^2`` through the (scaled) Laplacian stencil and
    ``x (1 - y_n^2) / h`` through the convection term.
    """
    n, h = g.n, g.h
    x = g.nodes
    ones = np.ones(n)
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    y_n = g.nodes[-1]
    lap_part = tt_rank_one([(alpha / h**2) * ones, e_last, ones])
    conv_part = tt_rank_one([x / h, (1.0 - y_n**2) * e_last, ones])
    return tt_add(lap_part, conv_part)


def convection_diffusion_problem(g: Grid1D) -> ProblemInstance:
    """3-d convection-diffusion on [-1, 1]^3 with u = 1 on the y = 1 face."""
    op = tt_add(tt_laplacian(3, g, negate=True), _convdiff_terms(g))
    return ProblemInstance(operator=op, rhs=_convdiff_rhs(g))


def _interface_diagonal(g: Grid1D, lo: float = -0.5, hi: float = 0.5):
    """0/1 diagonal of the inclusion indicator, sampled at cell centers.

    Cell centers ``a + (i - 1/2)(b - a)/n`` never hit +-0.5 for odd n, which
    is what lets the paper-sized grids (and n = 15) through; a center landing
    exactly on the interface is a forbidden grid size.
    """
    centers = g.a + (np.arange(1, g.n + 1) - 0.5) * (g.b - g.a) / g.n
    if np.any(np.isclose(centers, lo, rtol=0.0, atol=1e-14)) or \
       np.any(np.isclose(centers, hi, rtol=0.0, atol=1e-14)):
        raise GridOnInterfaceError(
            f"grid size n={g.n} places a node exactly on the interface")
    return np.diag(((centers >= lo) & (centers <= hi)).astype(np.float64))


def heat_parametrized_parts(g: Grid1D):
    """Pieces of the parametrized-diffusion heat problem on [-1, 1]^3.

    Returns ``(B0, B1, c)`` with ``B0 = -Lap_3``, ``B1`` the inclusion-masked
    Laplace-like term (TT-rank 2) and ``c`` the all-ones rhs scaled to unit
    norm.
    """
    b0 = tt_laplacian(3, g, negate=True)
    d_mask = _interface_diagonal(g)
    lap_pos = -laplacian_1d(g)
    b1 = laplace_like([d_mask] * 3, [d_mask @ lap_pos] * 3, [d_mask] * 3)
    c = tt_scale(tt_rank_one([np.ones(g.n)] * 3), g.n ** -1.5)
    return b0, b1, c


def default_addend_count(n: int) -> int:
    """Default exponential-sum length: a quarter of the grid dimension."""
    return max(1, round(n / 4))


def _sum_rank_one_operators(factor_sets, coeffs) -> TTOperator:
    """Exact sum of K rank-1 Kronecker operators, built in one pass."""
    k_terms = len(factor_sets)
    d = len(factor_sets[0])
    if d == 1:
        n, m = factor_sets[0][0].shape
        core = np.zeros((1, n, m, 1))
        for t in range(k_terms):
            core[0, :, :, 0] += coeffs[t] * factor_sets[t][0]
        return make_tt_operator([core])
    cores = []
    for mode in range(d):
        n, m = factor_sets[0][mode].shape
        a = 1 if mode == 0 else k_terms
        b = 1 if mode == d - 1 else k_terms
        core = np.zeros((a, n, m, b))
        for t in range(k_terms):
            f = factor_sets[t][mode]
            if mode == 0:
                core[0, :, :, t] = coeffs[t] * f
            elif mode == d - 1:
                core[t, :, :, 0] = f
            else:
                core[t, :, :, t] = f
        cores.append(core)
    return make_tt_operator(cores)


def inv_laplacian_preconditioner(d: int, g: Grid1D, q: int,
                                 tau: float) -> TTOperator:
    """Exponential-sum approximation of the inverse d-dim (negated) Laplacian.

    M = sum_{k=-q}^{q} c_k E_k x ... x E_k with E_k = exp(-t_k L),
    L = -Lap_1 (positive definite), c_k = xi t_k, t_k = exp(k xi) and the
    sinc-quadrature step xi = pi / sqrt(q).  The 2q+1 rank-1 addends are
    summed exactly (pre-round max rank 2q+1) and rounded once at tau.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    n = g.n
    # Exact sine eigenbasis of the 1-d tridiagonal Toeplitz Laplacian.
    j = np.arange(1, n + 1)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
    mu = (2.0 - 2.0 * np.cos(j * np.pi / (n + 1))) / g.h**2
    xi = np.pi / np.sqrt(q)
    factor_sets = []
    coeffs = []
    for k in range(-q, q + 1):
        t_k = np.exp(k * xi)
        e_k = (s * np.exp(-t_k * mu)) @ s.T
        factor_sets.append([e_k] * d)
        coeffs.append(xi * t_k)
    return tt_round(_sum_rank_one_operators(factor_sets, coeffs), tau)


def kron_leading_identity(p: int, a: TTOperator) -> TTOperator:
    """I_p tensor A: prepend a rank-1 identity selector core."""
    selector = np.eye(p).reshape(1, p, p, 1)
    return make_tt_operator([selector] + [np.array(c) for c in a.cores])


def all_in_one_operator(b0: TTOperator, b1: TTOperator,
                        params: ParamSet) -> TTOperator:
    """Block-diagonal stacking ``I_p x B0 + diag(alpha) x B1`` in TT form.

    The leading core is the 1 x p x p x 2 diagonal selector carrying
    ``[1, alpha_l]``; interior cores are block-diagonal concatenations of the
    B0/B1 cores and the final cores are stacked vertically.  No densification
    happens at any point, and interior bond ranks are exactly the sums of the
    input bond ranks.
    """
    if b0.row_modes != b1.row_modes or b0.col_modes != b1.col_modes:
        raise TTError("B0 and B1 must share modes")
    p = params.p
    alphas = np.asarray(params.values)
    first = np.zeros((1, p, p, 2))
    for ell in range(p):
        first[0, ell, ell, 0] = 1.0
        first[0, ell, ell, 1] = alphas[ell]
    d = b0.d
    cores = [first]
    for k in range(d):
        c0, c1 = b0.cores[k], b1.cores[k]
        a0, n, m, r0 = c0.shape
        a1, _, _, r1 = c1.shape
        if k == d - 1:
            new = np.zeros((a0 + a1, n, m, 1))
            new[:a0] = c0
            new[a0:] = c1
        else:
            new = np.zeros((a0 + a1, n, m, r0 + r1))
            new[:a0, :, :, :r0] = c0
            new[a0:, :, :, r0:] = c1
        cores.append(new)
    return make_tt_operator(cores)


def all_in_one_rhs(parts, round_delta: float | None = None) -> TTVector:
    """Stack p tensors along a new leading mode so that slice l is parts[l].

    Cores are zero-padded to a common rank chain, the leading core is the
    1 x p x p selector, interior cores are block-diagonal and the last cores
    are stacked vertically.
    """
    parts = list(parts)
    p = len(parts)
    if p < 1:
        raise TTError("need at least one part")
    modes = parts[0].modes
    for x in parts:
        if x.modes != modes:
            raise TTError("all parts must share modes")
    d = len(modes)
    # Common rank chain; missing directions are padded with zero blocks.
    smax = [1] + [max(x.ranks[k] for x in parts) for k in range(1, d)] + [1]
    padded = []
    for x in parts:
        cs = []
        for k, c in enumerate(x.cores):
            a, n, b = c.shape
            new = np.zeros((smax[k], n, smax[k + 1]))
            new[:a, :, :b] = c
            cs.append(new)
        padded.append(cs)
    selector = np.zeros((1, p, p * smax[0]))
    for ell in range(p):
        selector[0, ell, ell] = 1.0
    cores = [selector]
    for k in range(d):
        s_in, s_out = smax[k], smax[k + 1]
        n = modes[k]
        if k == d - 1:
            new = np.zeros((p * s_in, n, 1))
            for ell in range(p):
                new[ell * s_in:(ell + 1) * s_in] = padded[ell][k]
        else:
            new = np.zeros((p * s_in, n, p * s_out))
            for ell in range(p):
                new[ell * s_in:(ell + 1) * s_in, :,
                    ell * s_out:(ell + 1) * s_out] = padded[ell][k]
        cores.append(new)
    out = make_tt_vector(cores)
    if round_delta is not None:
        out = tt_round(out, round_delta)
    return out


def parametric_convection_diffusion_problem(
        g: Grid1D, params: ParamSet) -> ProblemInstance:
    """All-in-one operator and rhs for the parametric convection-diffusion.

    Slice l solves ``-alpha_l Lap u + convection = lifted boundary datum``;
    each rhs slice is normalized to unit norm so the stacked rhs has norm
    sqrt(p).
    """
    neg_lap = tt_laplacian(3, g, negate=True)
    conv = _convdiff_terms(g)
    op = all_in_one_operator(conv, neg_lap, params)
    parts = []
    for alpha in params.values:
        c = _convdiff_rhs(g, alpha=alpha)
        parts.append(tt_scale(c, 1.0 / tt_norm(c)))
    rhs = all_in_one_rhs(parts, round_delta=1e-15)
    return ProblemInstance(operator=op, rhs=rhs)


def heat_parametrized_problem(g: Grid1D, params: ParamSet) -> ProblemInstance:
    """All-in-one parametrized-diffusion heat problem with rhs 1_p x c."""
    b0, b1, c = heat_parametrized_parts(g)
    op = all_in_one_operator(b0, b1, params)
    ones_core = np.ones((1, params.p, 1))
    rhs = make_tt_vector([ones_core] + [np.array(k) for k in c.cores])
    return ProblemInstance(operator=op, rhs=rhs)


def multi_rhs_problem(base: ProblemInstance, p: int, rank_cap: int,
                      seed: int) -> ProblemInstance:
    """Stack p perturbed copies of a base problem under a shared operator.

    The rhs is ``1_p x b + e`` with ``e`` a rank-capped random tensor scaled
    to ``|e| = sqrt(p) |b|``, then every slice is normalized to unit norm,
    so interior ranks stay bounded by ``rank_cap + rank(b)`` independently
    of p.
    """
    if p < 1 or rank_cap < 1:
        raise ValueError("p and rank_cap must be >= 1")
    modes = (p,) + base.rhs.modes
    ranks = (1,) + (rank_cap,) * len(base.rhs.modes) + (1,)
    e = tt_random(modes, ranks, seed)
    base_norm = tt_norm(base.rhs)
    e = tt_scale(e, np.sqrt(p) * base_norm)
    ones_core = np.ones((1, p, 1))
    stacked = make_tt_vector([ones_core]
                             + [np.array(c) for c in base.rhs.cores])
    rhs = tt_add(stacked, e)
    # Per-slice normalization only rescales rows of the leading core.
    norms = [tt_norm(tt_slice_first_mode(rhs, ell)) for ell in range(1, p + 1)]
    first = np.array(rhs.cores[0])
    for ell in range(p):
        first[0, ell, :] /= norms[ell]
    rhs = make_tt_vector([first] + [np.array(c) for c in rhs.cores[1:]])
    op = kron_leading_identity(p, base.operator)
    return ProblemInstance(operator=op, rhs=rhs)


def laplacian_eigen_rhs(g: Grid1D, indices) -> TTVector:
    """Sum of rank-1 eigenvectors of -Lap_3 picked by (j1, j2, j3) triples."""
    n = g.n
    k = np.arange(1, n + 1)
    total = None
    for triple in indices:
        if len(triple) != 3:
            raise TTError("expected (j1, j2, j3) index triples")
        factors = []
        for j in triple:
            if not 1 <= j <= n:
                raise IndexError(f"eigen index {j} outside 1..{n}")
            v = np.sin(j * np.pi * k / (n + 1))
            factors.append(v / np.linalg.norm(v))
        term = tt_rank_one(factors)
        total = term if total is None else tt_add(total, term)
    if total is None:
        raise TTError("need at least one index triple")
    return total


def laplacian_eigenvalue(g: Grid1D, triple) -> float:
    """Eigenvalue of -Lap_3 for the sine eigenvector with the given triple."""
    return float(sum((2.0 - 2.0 * np.cos(j * np.pi / (g.n + 1))) / g.h**2
                     for j in triple))
