import math
import sys

import numpy as np
import pytest

from ttkrylov import solver
from ttkrylov import (
    make_tt_operator,
    tt_add,
    tt_apply,
    tt_identity_operator,
    tt_inner,
    tt_inners,
    tt_norm,
    tt_op_from_factors,
    tt_op_to_dense,
    tt_random,
    tt_round,
    tt_scale,
    tt_to_dense,
    tt_zero,
)
from ttkrylov.operators import (
    Grid1D,
    convection_diffusion_problem,
    inv_laplacian_preconditioner,
    laplacian_eigen_rhs,
    poisson_problem,
    tt_laplacian,
)
from ttkrylov.solver import (
    JUDGE_ACCURACY,
    NORM_SAMPLES,
    WORKING_PRECISION,
    GmresConfig,
    OperatorChain,
    _orthogonalize,
    backward_errors,
    estimate_l2_norm,
    hessenberg_lsq,
    judge_accuracy,
    relaxed_tt_gmres,
    tt_gmres,
    tt_right_gmres,
)

from oracles import dense_mgs_gmres, spy_bases, spy_judged_iterates

rng = np.random.default_rng(99)

#: every seed the suite passes to small_spd_op
SPD_SEEDS = (0, 1, 2, 4, 8, 12, 21, 31, 33, 41, 42)


def small_spd_op(n=8, seed=0):
    """Rank-2 SPD operator ``G1_1 x G2_1 + G1_2 x G2_2 + 2 I`` on (n, n).

    Each G = X X^T / n (X an n x n standard normal draw) is a Gram matrix,
    so the Kronecker sum is positive semidefinite and the shift puts the
    spectrum in [2, 17.6] over SPD_SEEDS (kappa 4.2 to 8.7; 5.6 at seed 21).
    That keeps the restarted tests reachable: GMRES(5) gains the Chebyshev
    factor 2((sqrt(kappa) - 1)/(sqrt(kappa) + 1))^5 per cycle, and 6 cycles
    reach 1e-9 only for kappa up to about 6.
    """
    r = np.random.default_rng(seed)
    x = r.standard_normal((2, 2, n, n))
    gram = np.einsum("tkij,tklj->tkil", x, x) / n
    a1 = gram[0].transpose(1, 2, 0)[None]
    a2 = gram[1][..., None]
    op = make_tt_operator([a1, a2])
    return tt_add(op, tt_scale(tt_identity_operator((n, n)), 2.0))


@pytest.mark.parametrize("seed", SPD_SEEDS)
def test_small_spd_op_is_spd(seed):
    a = tt_op_to_dense(small_spd_op(seed=seed))
    assert a.shape == (64, 64)
    np.testing.assert_allclose(a, a.T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(a).min() > 0


class TestHessenbergLsq:
    def test_exact_square(self):
        y, res, r_kk = hessenberg_lsq(np.array([[2.0], [0.0]]), 4.0)
        np.testing.assert_allclose(y, [2.0])
        assert res < 1e-14
        assert r_kk == 2.0

    def test_exactly_singular_last_column_does_not_raise(self):
        # A zero last column (A v_k = 0): r_kk = 0, and y_k = 0 leaves the
        # solution and residual of the leading columns.
        y, res, r_kk = hessenberg_lsq(np.array([[1.0, 0.0], [1.0, 0.0],
                                                [0.0, 0.0]]), np.sqrt(2.0))
        assert r_kk == 0.0
        np.testing.assert_allclose(y, [1.0 / np.sqrt(2.0), 0.0])
        np.testing.assert_allclose(res, 1.0)

    def test_residual_one(self):
        # min_y |sqrt(2) e_1 - [1, 1]^T y| is at y = 1/sqrt(2), residual 1
        y, res, _ = hessenberg_lsq(np.array([[1.0], [1.0]]), np.sqrt(2.0))
        np.testing.assert_allclose(y, [1.0 / np.sqrt(2.0)])
        np.testing.assert_allclose(res, 1.0)

    def test_random_matches_lstsq(self):
        # Every leading (j+1) x j block of one Hessenberg matrix, as the
        # cycle solves them, from j = 0 (y empty, residual beta); the
        # residual never grows with j.
        for seed in range(5):
            r = np.random.default_rng(seed)
            h = np.triu(r.standard_normal((6, 5)), -1)
            beta = 2.0 + r.random()
            prev = beta
            for j in range(6):
                y, res, r_kk = hessenberg_lsq(h[:j + 1, :j], beta)
                e1 = np.zeros(j + 1)
                e1[0] = beta
                y_ref, *_ = np.linalg.lstsq(h[:j + 1, :j], e1, rcond=None)
                np.testing.assert_allclose(y, y_ref, atol=1e-11)
                np.testing.assert_allclose(
                    res, np.linalg.norm(e1 - h[:j + 1, :j] @ y_ref),
                    atol=1e-11)
                if j:
                    np.testing.assert_allclose(
                        r_kk, abs(np.linalg.qr(h[:j + 1, :j])[1][-1, -1]),
                        rtol=1e-12)
                if not j:
                    assert y.shape == (0,) and res == beta
                assert res <= prev + 1e-12
                prev = res

    def test_incremental_residual_monotone(self):
        # Append one random Hessenberg column at a time, as the cycle does,
        # and re-solve the grown block: the residual never grows.
        r = np.random.default_rng(3)
        beta = 5.0
        h = np.zeros((7, 6))
        prev = beta
        for k in range(6):
            h[:k + 2, k] = r.standard_normal(k + 2)
            _, res, _ = hessenberg_lsq(h[:k + 2, :k + 1], beta)
            assert res <= prev + 1e-12
            prev = res

    def test_rejects_non_hessenberg(self):
        with pytest.raises(ValueError):
            hessenberg_lsq(np.ones((4, 3)), 1.0)



class TestTtGmres:
    def test_identity_one_iteration(self):
        b = tt_random((5, 5, 5), (1, 3, 3, 1), seed=7)
        out = tt_gmres(tt_identity_operator((5, 5, 5)), b,
                       GmresConfig(m=5, maxit=5, epsilon=1e-10, delta=1e-14))
        assert out.iterations == 1 and out.converged
        assert tt_norm(tt_add(out.solution, tt_scale(b, -1.0))) < 1e-12

    def test_matches_dense_oracle(self):
        op = small_spd_op()
        b = tt_random((8, 8), (1, 3, 1), seed=11)
        cfg = GmresConfig(m=15, maxit=15, epsilon=1e-12, delta=1e-14)
        out = tt_gmres(op, b, cfg)
        ref_iterates = dense_mgs_gmres(tt_op_to_dense(op),
                                       tt_to_dense(b).ravel(),
                                       out.iterations)
        got = tt_to_dense(out.solution).ravel()
        ref = ref_iterates[-1]
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_lsq_equals_true_residual_at_tight_delta(self):
        op = small_spd_op(seed=2)
        b = tt_random((8, 8), (1, 2, 1), seed=5)
        out = tt_gmres(op, b, GmresConfig(m=12, maxit=12, epsilon=1e-12,
                                          delta=1e-14, judge_every_step=True))
        assert not any(np.isnan(rec.true_residual) for rec in out.trace)
        for rec in out.trace:
            if rec.true_residual > 1e-13:
                assert abs(rec.lsq_residual - rec.true_residual) \
                    <= 1e-9 * max(rec.true_residual, 1e-30)

    def test_lsq_residual_monotone(self):
        op = small_spd_op(seed=4)
        b = tt_random((8, 8), (1, 2, 1), seed=6)
        out = tt_gmres(op, b, GmresConfig(m=10, maxit=10, epsilon=1e-13,
                                          delta=1e-6))
        res = [r.lsq_residual for r in out.trace]
        assert all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))

    def test_trace_length_and_convergence_flag(self):
        op = small_spd_op(seed=8)
        b = tt_random((8, 8), (1, 2, 1), seed=9)
        cfg = GmresConfig(m=20, maxit=20, epsilon=1e-8, delta=1e-12)
        out = tt_gmres(op, b, cfg)
        assert len(out.trace) == out.iterations
        if out.converged:
            assert out.trace[-1].eta_Ab < cfg.epsilon

    def test_deterministic_traces(self):
        op = small_spd_op(seed=1)
        b = tt_random((8, 8), (1, 3, 1), seed=2)
        cfg = GmresConfig(m=10, maxit=10, epsilon=1e-9, delta=1e-8, seed=3)
        t1 = tt_gmres(op, b, cfg).trace
        t2 = tt_gmres(op, b, cfg).trace
        assert len(t1) == len(t2)
        for a, c in zip(t1, t2):
            assert a == c
            assert hash(a) == hash(c)

    def test_basis_orthogonality(self, monkeypatch):
        op = small_spd_op(seed=12)
        b = tt_random((8, 8), (1, 3, 1), seed=13)
        delta = 1e-6
        bases = spy_bases(monkeypatch)
        cfg = GmresConfig(m=10, maxit=10, epsilon=1e-13, delta=delta)
        tt_gmres(op, b, cfg)
        [basis] = bases
        worst = 0.0
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                worst = max(worst, abs(tt_inner(basis[i], basis[j])))
        assert worst <= 100 * delta

    def test_zero_rhs(self):
        op = small_spd_op()
        out = tt_gmres(op, tt_zero((8, 8)),
                       GmresConfig(m=5, maxit=5, epsilon=1e-10, delta=1e-12))
        assert out.converged and out.iterations == 0

    def test_lucky_breakdown_single_eigenvector(self):
        g = Grid1D(9, 0.0, 1.0)
        a = tt_laplacian(3, g, negate=True)
        b = laplacian_eigen_rhs(g, [(2, 2, 2)])
        out = tt_gmres(a, b, GmresConfig(m=10, maxit=10, epsilon=1e-8,
                                         delta=1e-14))
        assert out.converged and out.iterations == 1

    @pytest.mark.parametrize("solve", [tt_gmres, relaxed_tt_gmres])
    @pytest.mark.parametrize("in_null_space", [False, True])
    def test_hard_breakdown_not_converged(self, solve, in_null_space):
        # singular projector with the rhs partly outside its range (r_22 ~ 0
        # at the breakdown) or wholly in its null space (A v_1 = 0): the
        # iterate must stay the bounded least-squares one
        proj = np.eye(6)
        proj[0, 0] = 0.0
        op = tt_op_from_factors([proj, np.eye(6)])
        b = tt_random((6, 6), (1, 2, 1), seed=3)
        if in_null_space:
            b = tt_apply(tt_op_from_factors([np.eye(6) - proj, np.eye(6)]), b)
        out = solve(op, b, GmresConfig(m=10, maxit=10, epsilon=1e-12,
                                       delta=1e-12))
        assert not out.converged
        assert out.meta["stagnated"]
        assert tt_norm(out.solution) <= 2 * tt_norm(b)


class TestRightGmres:
    def test_identity_preconditioner_equivalent(self):
        op = small_spd_op(seed=21)
        b = tt_random((8, 8), (1, 3, 1), seed=22)
        cfg = GmresConfig(m=5, maxit=30, epsilon=1e-9, delta=1e-12)
        plain = tt_right_gmres(op, None, b, cfg)
        with_id = tt_right_gmres(op, tt_identity_operator((8, 8)), b, cfg)
        assert plain.converged and with_id.converged
        diff = tt_add(plain.solution, tt_scale(with_id.solution, -1.0))
        assert tt_norm(diff) <= 1e-7 * tt_norm(plain.solution)

    def test_restart_converges_small_poisson(self):
        g = Grid1D(15, 0.0, 1.0)
        prob = poisson_problem(g)
        cfg = GmresConfig(m=10, maxit=200, epsilon=1e-5, delta=1e-5, seed=1)
        out = tt_right_gmres(prob.operator, None, prob.rhs, cfg)
        assert out.converged
        assert out.meta["cycles"] > 1
        etas = [r.eta_Ab for r in out.trace if not np.isnan(r.eta_Ab)]
        assert etas[-1] < 1e-5

    def test_stagnation_guard(self):
        # singular projector with rhs outside the range: no progress
        proj = np.eye(6)
        proj[0, 0] = 0.0
        op = tt_op_from_factors([proj, np.eye(6)])
        b = tt_random((6, 6), (1, 2, 1), seed=3)
        cfg = GmresConfig(m=3, maxit=30, epsilon=1e-12, delta=1e-12)
        out = tt_right_gmres(op, None, b, cfg)
        assert not out.converged
        assert out.meta["stagnated"]

    def test_preconditioned_convdiff_small(self):
        g = Grid1D(15, -1.0, 1.0)
        prob = convection_diffusion_problem(g)
        m = inv_laplacian_preconditioner(3, g, 4, 1e-2)
        cfg = GmresConfig(m=40, maxit=40, epsilon=1e-5, delta=1e-5, seed=2)
        out = tt_right_gmres(prob.operator, m, prob.rhs, cfg)
        assert out.converged
        assert out.iterations <= 15
        # trace exposes the preconditioned backward error
        assert not np.isnan(out.trace[-1].eta_AMb)
        assert np.isnan(out.trace[-1].eta_Ab)

    @pytest.mark.parametrize("m, delta, epsilon, cycles",
                             [(4, 1e-5, 1e-5, 2), (3, 1e-8, 1e-6, 3)])
    def test_restarted_preconditioned_reports_true_backward_errors(
            self, monkeypatch, m, delta, epsilon, cycles):
        # every trace row's eta is the backward error on the whole system
        # A M u = b of the iterate stored with it, however many cycles ran
        g = Grid1D(7, -1.0, 1.0)
        prob = convection_diffusion_problem(g)
        precond = inv_laplacian_preconditioner(3, g, 2, 1e-2)
        iterates = spy_judged_iterates(monkeypatch)
        cfg = GmresConfig(m=m, maxit=60, epsilon=epsilon, delta=delta,
                          seed=1, judge_every_step=True)
        out = tt_right_gmres(prob.operator, precond, prob.rhs, cfg)
        assert out.converged and out.meta["cycles"] == cycles
        chain = OperatorChain([prob.operator, precond])
        am = tt_op_to_dense(prob.operator) @ tt_op_to_dense(precond)
        bd = tt_to_dense(prob.rhs).ravel()
        rows = [r for r in out.trace if not np.isnan(r.eta_b)]
        assert len(rows) == len(iterates) == out.iterations
        for rec, u in zip(rows, iterates):
            be = backward_errors(chain, u, prob.rhs, out.estimated_opnorm)
            np.testing.assert_allclose([be.eta_b, be.eta_Ab],
                                       [rec.eta_b, rec.eta_AMb], rtol=1e-12)
            ud = tt_to_dense(u).ravel()
            res = np.linalg.norm(bd - am @ ud)
            dense = [res / np.linalg.norm(bd),
                     res / (out.estimated_opnorm * np.linalg.norm(ud)
                            + np.linalg.norm(bd))]
            np.testing.assert_allclose([rec.eta_b, rec.eta_AMb], dense,
                                       rtol=1e-8)


class TestJudge:
    """The judge rounds only between the factors of a chain, at tau."""

    def test_chain_apply_leaves_last_product_exact(self):
        g = Grid1D(7, -1.0, 1.0)
        prob = convection_diffusion_problem(g)
        precond = inv_laplacian_preconditioner(3, g, 2, 1e-2)
        x = tt_random(prob.rhs.modes, (1, 3, 3, 1), seed=5)
        for factors, expected in (
                ([prob.operator, precond], tt_apply(
                    prob.operator, tt_round(tt_apply(precond, x), 1e-4))),
                ([prob.operator], tt_apply(prob.operator, x))):
            got = OperatorChain(factors).apply(x, 1e-4)
            assert got.ranks == expected.ranks
            for c, e in zip(got.cores, expected.cores):
                np.testing.assert_array_equal(c, e)

    def test_unpreconditioned_judge_is_exact_and_rounds_nothing(
            self, monkeypatch):
        prob = convection_diffusion_problem(Grid1D(7, -1.0, 1.0))
        x = tt_random(prob.rhs.modes, (1, 3, 3, 1), seed=6)
        rounds = []

        def spy(y, delta):
            rounds.append(delta)
            return tt_round(y, delta)

        monkeypatch.setattr(solver, "tt_round", spy)
        be = backward_errors(prob.operator, x, prob.rhs, 1.0, accuracy=1e-3)
        assert rounds == []
        a = tt_op_to_dense(prob.operator)
        dense = np.linalg.norm(tt_to_dense(prob.rhs).ravel()
                               - a @ tt_to_dense(x).ravel())
        assert abs(be.residual_norm - dense) <= 1e-13 * dense

    def test_preconditioned_judge_within_judge_accuracy(self, monkeypatch):
        # The trace's eta, judged at tau, against eta of the same iterate
        # from the exact product A (M x), densified.
        g = Grid1D(15, -1.0, 1.0)
        prob = convection_diffusion_problem(g)
        precond = inv_laplacian_preconditioner(3, g, 4, 1e-2)
        eps = 1e-5
        iterates = spy_judged_iterates(monkeypatch)
        cfg = GmresConfig(m=20, maxit=20, epsilon=eps, delta=1e-6,
                          judge_every_step=True)
        out = tt_right_gmres(prob.operator, precond, prob.rhs, cfg)
        assert out.converged and len(iterates) == out.iterations
        bd = tt_to_dense(prob.rhs).ravel()
        for rec, x in zip(out.trace, iterates):
            ax = tt_apply(prob.operator, tt_apply(precond, x))
            res = np.linalg.norm(bd - tt_to_dense(ax).ravel())
            dense = res / (out.estimated_opnorm
                           * np.linalg.norm(tt_to_dense(x))
                           + np.linalg.norm(bd))
            assert abs(rec.eta_AMb - dense) <= JUDGE_ACCURACY * eps

    def test_stop_keeps_a_margin_of_tau(self):
        # An iterate whose eta lies just below epsilon, but not below
        # epsilon - tau, is not reported converged.
        g = Grid1D(7, -1.0, 1.0)
        prob = convection_diffusion_problem(g)
        precond = inv_laplacian_preconditioner(3, g, 2, 1e-2)

        def solve(eps):
            cfg = GmresConfig(m=40, maxit=40, epsilon=eps, delta=1e-8)
            return tt_right_gmres(prob.operator, precond, prob.rhs, cfg)

        first = solve(1e-5)
        assert first.converged
        k = first.iterations
        eta_k = first.trace[-1].eta_AMb
        near = solve(eta_k * (1.0 + JUDGE_ACCURACY / 2))
        assert near.iterations > k
        assert near.trace[k - 1].eta_AMb == pytest.approx(eta_k, rel=1e-6)
        clear = solve(eta_k * (1.0 + 2 * JUDGE_ACCURACY))
        assert clear.converged and clear.iterations == k

    def test_judge_accuracy(self):
        assert judge_accuracy(1e-5) == JUDGE_ACCURACY * 1e-5
        assert judge_accuracy(1e-15) == WORKING_PRECISION

    def test_only_the_norm_samples_apply_an_unrounded_chain(
            self, monkeypatch):
        # The restart residual A M u rounds M u at working precision, and
        # the judge at tau; the norm estimate's samples round nothing.
        g = Grid1D(7, -1.0, 1.0)
        prob = convection_diffusion_problem(g)
        precond = inv_laplacian_preconditioner(3, g, 2, 1e-2)
        deltas = []
        apply = OperatorChain.apply

        def spy(self, x, delta=None):
            deltas.append(delta)
            return apply(self, x, delta)

        monkeypatch.setattr(OperatorChain, "apply", spy)
        cfg = GmresConfig(m=3, maxit=60, epsilon=1e-6, delta=1e-8, seed=1)
        out = tt_right_gmres(prob.operator, precond, prob.rhs, cfg)
        assert out.converged and out.meta["cycles"] == 3
        assert deltas.count(None) == NORM_SAMPLES
        assert deltas.count(WORKING_PRECISION) == 2      # two restarts
        assert deltas.count(judge_accuracy(1e-6)) == len(out.judgements)


class TestMgsSkip:
    """MGS runs on the unrounded sum, which is rounded once per step."""

    def test_symmetric_operator_skips_stabilization_roundings(
            self, monkeypatch):
        # Poisson is symmetric, so H is tridiagonal up to round-off and
        # most c_i = <v_i, w> vanish: their terms are left out of the sum.
        prob = poisson_problem(Grid1D(7))
        delta = 1e-5
        stab_rounds, mgs_sums = [], []

        # Stabilization roundings would be at delta / (4 k), k <= m.
        def counting_round(x, d):
            if delta / (4 * 20) <= d < delta:
                stab_rounds.append(d)
            return tt_round(x, d)

        round_sum = solver.tt_round_sum

        def counting_sum(terms, coeffs, d):
            if sys._getframe(1).f_code.co_name == "_orthogonalize":
                mgs_sums.append(len(terms))
            return round_sum(terms, coeffs, d)

        monkeypatch.setattr(solver, "tt_round", counting_round)
        monkeypatch.setattr(solver, "tt_round_sum", counting_sum)
        bases = spy_bases(monkeypatch)
        cfg = GmresConfig(m=20, maxit=20, epsilon=1e-5, delta=delta)
        out = tt_gmres(prob.operator, prob.rhs, cfg)
        assert out.converged and out.iterations == 15
        assert stab_rounds == []
        assert len(mgs_sums) == out.iterations
        # w and k basis vectors at step k, when no term is left out
        assert sum(mgs_sums) < sum(k + 1 for k in range(1, out.iterations + 1))
        [basis] = bases
        worst = max(abs(tt_inner(basis[i], basis[j]))
                    for i in range(len(basis))
                    for j in range(i + 1, len(basis)))
        assert worst <= 100 * delta

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 2.0, 1e3])
    @pytest.mark.parametrize("loose", [False, True])
    def test_step_meets_rounding_contract(self, ratio, loose):
        # Four unit vectors, orthonormal to round-off or (loose) only to
        # about 1e-6, and w = p + sum_i t_i v_i with p a unit vector
        # orthogonal to them and t = (3, r, 0.3, r), r = ratio * stab.  The
        # r terms are left out when ratio <= 0.5 (|w_i - c_i v_i| >= |p| =
        # 1) and kept when ratio >= 2 (|w_i - c_i v_i| <= 1.05 once term 0
        # is subtracted, against |w| > 3).  The step is checked against
        # dense MGS.
        stab, delta = 1e-3, 1e-4
        modes = (5, 6, 4)
        v = []
        for i in range(4):
            x = tt_random(modes, (1, 2, 2, 1), seed=20 + i)
            x = tt_add(x, *[tt_scale(u, -tt_inner(u, x)) for u in v])
            if loose:
                noise = tt_random(modes, (1, 1, 1, 1), seed=40 + i)
                x = tt_add(tt_scale(x, 1.0 / tt_norm(x)),
                           tt_scale(noise, 1e-5))
            v.append(tt_scale(x, 1.0 / tt_norm(x)))
        dv = np.array([tt_to_dense(x).ravel() for x in v])
        off = np.abs(dv @ dv.T - np.eye(4)).max()
        assert (1e-7 < off < 1e-5) if loose else off < 1e-14
        p = tt_random(modes, (1, 3, 2, 1), seed=7)
        dp = tt_to_dense(p).ravel()
        coef = np.linalg.solve(dv @ dv.T, dv @ dp)
        p = tt_add(p, *[tt_scale(u, -a) for u, a in zip(v, coef)])
        p = tt_scale(p, 1.0 / tt_norm(p))
        targets = [3.0, ratio * stab, 0.3, ratio * stab]
        w = tt_add(p, *[tt_scale(u, t) for u, t in zip(v, targets)])

        gram = np.full((4, 4), np.nan)
        w_new, c, kept = _orthogonalize(w, tt_norm(w), v, gram, stab, delta)

        # <v_j, v_i> is taken only for kept j < i
        assert np.isnan(gram[np.triu_indices(4)]).all()
        for i in range(4):
            taken = np.isfinite(gram[i, :i])
            assert list(np.flatnonzero(taken)) == [j for j in kept if j < i]
            np.testing.assert_allclose(gram[i, :i][taken],
                                       dv[:i][taken] @ dv[i],
                                       rtol=0, atol=1e-15)
        # sequential dense MGS, subtracting the same kept terms
        dw = tt_to_dense(w).ravel()
        z, budget = dw.copy(), 0.0
        for i in range(4):
            ci = dv[i] @ z
            assert abs(c[i] - ci) <= 1e-12 * np.linalg.norm(dw)
            if i in kept:
                z -= ci * dv[i]
            else:
                assert abs(ci) <= stab * np.linalg.norm(z - ci * dv[i])
                budget += abs(ci)
        assert kept == ([0, 2] if ratio <= 0.5 else [0, 1, 2, 3])
        exact = dw - c @ dv
        err = np.linalg.norm(tt_to_dense(w_new).ravel() - exact)
        assert err <= delta * np.linalg.norm(exact) + (1 + delta) * budget
        if ratio >= 2.0:
            assert err <= delta * np.linalg.norm(exact)


class TestOrthogonality:
    @pytest.mark.parametrize("delta", [1e-6, 1e-8])
    def test_nonsymmetric_basis(self, monkeypatch, delta):
        # Conv-diff is non-symmetric: unlike Poisson's, its Hessenberg
        # matrix is full, and the MGS sums keep 859 and 860 of 860 terms.
        prob = convection_diffusion_problem(Grid1D(15, -1.0, 1.0))
        bases = spy_bases(monkeypatch)
        cfg = GmresConfig(m=40, maxit=40, epsilon=1e-15, delta=delta)
        tt_gmres(prob.operator, prob.rhs, cfg)
        [basis] = bases
        assert len(basis) == 41
        gram = np.array([tt_inners(basis, x) for x in basis])
        assert np.abs(gram - np.eye(len(basis))).max() <= 100 * delta


class TestAssembly:
    @pytest.mark.parametrize("policy", ["constant", "relaxed"])
    def test_update_is_a_rounding_of_v_y(self, monkeypatch, policy):
        # Every assembled update t is round(V y, delta), one rounding of
        # the least-squares combination of the kept basis, checked dense;
        # the relaxed policy loosens only the Arnoldi step, not this.
        prob = poisson_problem(Grid1D(7))
        calls = []
        round_sum = solver.tt_round_sum

        def spy(terms, coeffs, delta):
            t = round_sum(terms, coeffs, delta)
            if sys._getframe(1).f_code.co_name == "_combine":
                calls.append((list(terms), np.array(coeffs), delta, t))
            return t

        monkeypatch.setattr(solver, "tt_round_sum", spy)
        bases = spy_bases(monkeypatch)
        cfg = GmresConfig(m=20, maxit=20, epsilon=1e-6, delta=1e-5,
                          rounding_policy=policy, judge_every_step=True)
        out = tt_gmres(prob.operator, prob.rhs, cfg)
        [basis] = bases
        assert len(calls) == out.iterations
        for terms, y, delta, t in calls:
            assert delta == cfg.delta
            assert all(v is w for v, w in zip(terms, basis[:len(y)]))
            vy = sum(c * tt_to_dense(v) for c, v in zip(y, terms))
            err = np.linalg.norm(tt_to_dense(t) - vy)
            assert err <= (delta + 1e-12) * np.linalg.norm(vy)

    @pytest.mark.parametrize("preconditioned", [False, True],
                             ids=["plain", "preconditioned"])
    def test_restart_sums_are_roundings_of_the_exact_sums(
            self, monkeypatch, preconditioned):
        # The restart residual b - A M u and the update u + t are each one
        # rounding at delta of the exact sum, and the judged iterate
        # u + t one at tau, checked dense.
        g = Grid1D(7)
        prob = poisson_problem(g)
        precond = inv_laplacian_preconditioner(3, g, 3, 1e-2) \
            if preconditioned else None
        calls = []
        round_sum = solver.tt_round_sum

        def spy(terms, coeffs, delta):
            z = round_sum(terms, coeffs, delta)
            caller = sys._getframe(1).f_code.co_name
            if caller in ("tt_right_gmres", "_gmres_cycle"):
                calls.append((caller, list(terms), list(coeffs), delta, z))
            return z

        monkeypatch.setattr(solver, "tt_round_sum", spy)
        cfg = GmresConfig(m=3 if preconditioned else 4, maxit=40,
                          epsilon=1e-6, delta=1e-5, judge_every_step=True)
        out = tt_right_gmres(prob.operator, precond, prob.rhs, cfg)
        cycles = out.meta["cycles"]
        assert out.converged and cycles >= 3
        tau = judge_accuracy(cfg.epsilon)
        kinds = []
        for caller, terms, coeffs, delta, z in calls:
            if caller == "_gmres_cycle":
                kind, accuracy = "judged", tau
            elif terms[0] is prob.rhs:
                kind, accuracy = "residual", cfg.delta
                assert coeffs == [1.0, -1.0]
            else:
                kind, accuracy = "update", cfg.delta
                assert coeffs == [1.0] * len(terms)
            # the first call is the first cycle's update, round(t)
            assert len(terms) == (2 if kinds else 1)
            assert delta == accuracy
            kinds.append(kind)
            exact = sum(c * tt_to_dense(t) for c, t in zip(coeffs, terms))
            err = np.linalg.norm(tt_to_dense(z) - exact)
            assert err <= (accuracy + 1e-12) * np.linalg.norm(exact)
        assert kinds.count("residual") == cycles - 1
        assert kinds.count("update") == cycles
        assert kinds.count("judged") == out.iterations - cfg.m


class TestRelaxed:
    def test_first_delta_and_schedule(self):
        # delta_k = min(1, delta |b| / |r~_{k-1}|): delta_1 = delta whatever
        # |b|, and delta grows as the least-squares residual shrinks
        op = small_spd_op(seed=31)
        b = tt_scale(tt_random((8, 8), (1, 2, 1), seed=32), 7.0)
        beta = tt_norm(b)
        cfg = GmresConfig(m=8, maxit=8, epsilon=1e-13, delta=1e-5)
        out = relaxed_tt_gmres(op, b, cfg)
        assert out.trace[0].delta_used == 1e-5
        lsq = [r.lsq_residual for r in out.trace]
        for rec, prev_res in zip(out.trace[1:], lsq[:-1]):
            assert rec.delta_used == min(1.0, 1e-5 * (beta / prev_res))

    def test_stops_on_judged_eta(self):
        # the relaxed policy stops where the constant one does: at the
        # first assembled iterate judged below epsilon - tau; the rows
        # left unjudged carry NaN
        op = small_spd_op(seed=33)
        b = tt_random((8, 8), (1, 2, 1), seed=34)
        cfg = GmresConfig(m=30, maxit=30, epsilon=1e-6, delta=1e-8)
        out = relaxed_tt_gmres(op, b, cfg)
        threshold = cfg.epsilon - judge_accuracy(cfg.epsilon)
        assert out.converged
        assert out.trace[-1].eta_Ab < threshold
        assert all(r.eta_Ab >= threshold or math.isnan(r.eta_Ab)
                   for r in out.trace[:-1])

    def test_keeps_a_smaller_basis(self):
        # The relaxed policy's point: the loosened roundings of later basis
        # vectors keep their ranks down, in as many iterations.  On
        # preconditioned conv-diff at n = 31 the peak basis rank is 20
        # against 27 for the constant policy.
        g = Grid1D(31, -1.0, 1.0)
        problem = convection_diffusion_problem(g)
        m = inv_laplacian_preconditioner(3, g, 8, 1e-2)
        peaks, iterations = {}, {}
        for policy in ("constant", "relaxed"):
            cfg = GmresConfig(m=40, maxit=40, epsilon=1e-5, delta=1e-7,
                              rounding_policy=policy)
            out = tt_right_gmres(problem.operator, m, problem.rhs, cfg)
            assert out.converged
            iterations[policy] = out.iterations
            peaks[policy] = max(r.max_rank_v for r in out.trace)
        assert iterations["relaxed"] == iterations["constant"]
        assert peaks["relaxed"] < peaks["constant"]


#: the problems of the dense-oracle grid below
CONVDIFF_7 = convection_diffusion_problem(Grid1D(7, -1.0, 1.0))
POISSON_7 = poisson_problem(Grid1D(7))


def _dense_power_norm(a, steps=100):
    """|A|_2 from below, by power iteration on A^T A: a lower bound only
    raises a dense eta_Ab, so a check against it stays strict."""
    v = np.ones(a.shape[1])
    for _ in range(steps):
        v = a.T @ (a @ v)
        v /= np.linalg.norm(v)
    return float(np.linalg.norm(a @ v))


@pytest.mark.parametrize("accuracy", [1e-6, 1e-5, 1e-4])
@pytest.mark.parametrize("solve", [tt_gmres, relaxed_tt_gmres])
def test_converged_means_dense_eta_below_epsilon(solve, accuracy):
    # Both policies judge the same iterate they return, so a converged
    # solve has a dense eta_Ab <= epsilon, and b x 1e-3, 1 and 1e3 give the
    # same iterations and rounding schedule.
    a = tt_op_to_dense(CONVDIFF_7.operator)
    norm_a = _dense_power_norm(a)
    cfg = GmresConfig(m=60, maxit=60, epsilon=accuracy, delta=accuracy)
    schedules = []
    for scale in (1e-3, 1.0, 1e3):
        b = tt_scale(CONVDIFF_7.rhs, scale)
        out = solve(CONVDIFF_7.operator, b, cfg)
        x = tt_to_dense(out.solution).ravel()
        bd = tt_to_dense(b).ravel()
        eta = np.linalg.norm(bd - a @ x) / (
            norm_a * np.linalg.norm(x) + np.linalg.norm(bd))
        assert out.converged
        assert eta <= accuracy
        schedules.append([r.delta_used for r in out.trace])
    small, unit, large = schedules
    np.testing.assert_allclose(small, unit, rtol=1e-10)
    np.testing.assert_allclose(large, unit, rtol=1e-10)


class TestEstimate:
    def test_identity(self):
        op = tt_identity_operator((6, 6))
        assert abs(estimate_l2_norm(op, seed=0) - 1.0) < 1e-12

    def test_scaled_identity(self):
        op = tt_scale(tt_identity_operator((6, 6)), -3.5)
        assert abs(estimate_l2_norm(op, seed=0) - 3.5) < 1e-12

    def test_lower_bounds_true_norm(self):
        m = rng.standard_normal((7, 7))
        op = tt_op_from_factors([m, np.eye(7)])
        est = estimate_l2_norm(op, seed=1)
        true = np.linalg.norm(np.kron(m, np.eye(7)), 2)
        assert est <= true + 1e-12
        assert est > 0.2 * true

    def test_chain_matches_composed(self):
        a = small_spd_op(seed=41)
        b_op = small_spd_op(seed=42)
        chain = OperatorChain([a, b_op])
        w = tt_random((8, 8), (1, 2, 1), seed=43)
        direct = tt_apply(a, tt_apply(b_op, w))
        via_chain = chain.apply(w)
        assert tt_norm(tt_add(direct, tt_scale(via_chain, -1.0))) < 1e-12


class TestConfigValidation:
    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            GmresConfig(epsilon=0.0)

    @pytest.mark.parametrize("field", ["epsilon", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_accuracy(self, field, value):
        # NaN passes every ordered comparison check as False, and an
        # infinite epsilon leaves epsilon - tau undefined.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GmresConfig(**{field: value})

    def test_bad_maxit(self):
        with pytest.raises(ValueError):
            GmresConfig(m=10, maxit=5)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            GmresConfig(rounding_policy="sometimes")

    def test_bad_plateau_window(self):
        with pytest.raises(ValueError, match="plateau_window must be >= 0"):
            GmresConfig(plateau_window=-1)

    def test_bad_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            GmresConfig(seed=-1)


def _judged_rows(out):
    """{trace iteration: (eta_b, eta_AMb or eta_Ab)} of the judged rows."""
    return {r.k: (r.eta_b, r.eta_Ab if math.isnan(r.eta_AMb) else r.eta_AMb)
            for r in out.trace if not math.isnan(r.eta_b)}


class TestOnDemand:
    """Without judge_every_step or a plateau window, a row is judged only
    where the free least-squares predictor says that it may end the
    solve."""

    @pytest.mark.parametrize("restart", [None, 4], ids=["full", "m4"])
    @pytest.mark.parametrize("policy", ["constant", "relaxed"])
    @pytest.mark.parametrize("problem, q", [
        (CONVDIFF_7, 0), (CONVDIFF_7, 2), (POISSON_7, 0)],
        ids=["plain", "preconditioned", "poisson"])
    def test_matches_every_step(self, problem, q, policy, restart):
        # Same iterations, verdict and solution cores as a judge at every
        # step, the same eta on every row both judged, and no more rows.
        # Poisson is symmetric, so MGS leaves most of its terms out.
        g = Grid1D(7, -1.0, 1.0)
        precond = inv_laplacian_preconditioner(3, g, q, 1e-2) if q else None
        outs = []
        for every in (True, False):
            cfg = GmresConfig(m=restart or 80, maxit=80, epsilon=1e-6,
                              delta=1e-8, rounding_policy=policy,
                              judge_every_step=every)
            outs.append(tt_right_gmres(problem.operator, precond,
                                       problem.rhs, cfg))
        every, on_demand = outs
        assert every.converged and on_demand.converged
        assert on_demand.iterations == every.iterations
        assert on_demand.meta == every.meta
        for a, b in zip(on_demand.solution.cores, every.solution.cores):
            np.testing.assert_array_equal(a, b)
        judged, all_rows = _judged_rows(on_demand), _judged_rows(every)
        assert len(all_rows) == every.iterations
        assert len(judged) < len(all_rows)
        assert judged.keys() <= all_rows.keys()
        for k, eta in judged.items():
            assert eta == all_rows[k]
        assert len(on_demand.judgements) == len(judged)

    @pytest.mark.parametrize("q", [0, 2], ids=["plain", "preconditioned"])
    def test_never_converges_above_epsilon(self, monkeypatch, q):
        # At delta = 1e-4 the least-squares residual falls below the true
        # one, so the predictor errs low.  With epsilon just below the
        # dense eta of the iterate judged at such a row k, the on-demand
        # solve does not stop at row k, and an iterate it stops on has a
        # dense eta below epsilon.  The chain A M is passed as the operator,
        # so the judged iterates are in the variable it acts on.
        g = Grid1D(7, -1.0, 1.0)
        factors = [CONVDIFF_7.operator]
        if q:
            factors.append(inv_laplacian_preconditioner(3, g, q, 1e-2))
        chain = OperatorChain(factors)
        a = tt_op_to_dense(factors[0])
        for f in factors[1:]:
            a = a @ tt_op_to_dense(f)
        bd = tt_to_dense(CONVDIFF_7.rhs).ravel()
        iterates = spy_judged_iterates(monkeypatch)

        def solve(eps, every):
            iterates.clear()
            cfg = GmresConfig(m=40, maxit=40, epsilon=eps, delta=1e-4,
                              judge_every_step=every)
            return tt_right_gmres(chain, None, CONVDIFF_7.rhs, cfg)

        def dense_eta(x, opnorm):
            xd = tt_to_dense(x).ravel()
            return np.linalg.norm(bd - a @ xd) / (
                opnorm * np.linalg.norm(xd) + np.linalg.norm(bd))

        every = solve(1e-12, True)
        parted = [(rec.k, dense_eta(x, every.estimated_opnorm))
                  for rec, x in zip(every.trace, iterates)
                  if rec.lsq_residual < 0.9 * rec.true_residual]
        assert len(parted) >= 3
        for k, eta in parted[:3]:
            eps = eta * (1.0 - JUDGE_ACCURACY / 2)
            out = solve(eps, False)
            assert out.iterations > k
            if out.converged:
                assert dense_eta(iterates[-1], out.estimated_opnorm) < eps

    def test_three_step_solve_is_judged_once(self, monkeypatch):
        g = Grid1D(7, -1.0, 1.0)
        precond = inv_laplacian_preconditioner(3, g, 4, 1e-2)
        iterates = spy_judged_iterates(monkeypatch)
        cfg = GmresConfig(m=40, maxit=40, epsilon=1e-3, delta=1e-5)
        out = tt_right_gmres(CONVDIFF_7.operator, precond, CONVDIFF_7.rhs,
                             cfg)
        assert out.converged and out.iterations == 3
        assert len(iterates) == len(out.judgements) == 1
        assert [math.isnan(r.eta_AMb) for r in out.trace] == \
            [True, True, False]


class TestPlateau:
    def test_returns_the_windows_best_iterate(self):
        # Relaxed conv-diff stops on a plateau whose latest judged eta is
        # above the window's best; the solve returns the best one.  The
        # chain A M is passed as the operator, so the solution is in the
        # variable judged.
        g = Grid1D(7, -1.0, 1.0)
        chain = OperatorChain([CONVDIFF_7.operator,
                               inv_laplacian_preconditioner(3, g, 2, 1e-2)])
        cfg = GmresConfig(m=40, maxit=40, epsilon=1e-15, delta=1e-5,
                          plateau_window=4)
        out = relaxed_tt_gmres(chain, CONVDIFF_7.rhs, cfg)
        assert out.meta["plateaued"] and not out.converged
        etas = [r.eta_AMb for r in out.trace]
        assert not any(math.isnan(e) for e in etas)
        best, latest = min(etas[-5:]), etas[-1]
        assert best < latest
        eta = backward_errors(chain, out.solution, CONVDIFF_7.rhs,
                              out.estimated_opnorm).eta_Ab
        # Below the latest row's eta, nearer the best than the latest, and
        # within delta of the best.
        assert latest - eta > (latest - best) / 2
        assert abs(eta - best) <= cfg.delta
