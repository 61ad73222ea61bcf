import numpy as np
import pytest

from ttkrylov import (
    make_tt_operator,
    make_tt_vector,
    tt_add,
    tt_apply,
    tt_norm,
    tt_op_to_dense,
    tt_scale,
    tt_slice_first_mode,
    tt_op_diag_slice,
    tt_to_dense,
)
from ttkrylov.operators import (
    Grid1D,
    GridOnInterfaceError,
    ParamSet,
    _convdiff_terms,
    _merge_equal_slices,
    all_in_one_operator,
    all_in_one_rhs,
    convection_diffusion_problem,
    default_addend_count,
    gradient_1d,
    heat_parametrized_parts,
    inv_laplacian_preconditioner,
    kron_leading_identity,
    laplace_like,
    laplacian_1d,
    laplacian_eigen_rhs,
    laplacian_eigenvalue,
    multi_rhs_problem,
    parametric_convection_diffusion_problem,
    poisson_problem,
    tt_laplacian,
)
from ttkrylov.solver import OperatorChain, estimate_l2_norm
from ttkrylov.tt import tt_random, tt_rank_one

from oracles import fused_mode_preconditioner, kron_chain, kron_sum

rng = np.random.default_rng(7)


class TestStencils:
    def test_laplacian_values(self):
        g = Grid1D(3, 0.0, 1.0)  # h = 1/4
        ref = 16.0 * np.array([[-2.0, 1, 0], [1, -2, 1], [0, 1, -2]])
        np.testing.assert_allclose(laplacian_1d(g), ref)

    def test_laplacian_symmetry(self):
        m = laplacian_1d(Grid1D(7, -1.0, 1.0))
        np.testing.assert_allclose(m, m.T)

    def test_laplacian_eigenpairs(self):
        g = Grid1D(9, 0.0, 1.0)
        m = laplacian_1d(g)
        k = np.arange(1, g.n + 1)
        for j in (1, 4, 9):
            v = np.sin(j * np.pi * k / (g.n + 1))
            lam = -(2 - 2 * np.cos(j * np.pi / (g.n + 1))) / g.h**2
            np.testing.assert_allclose(m @ v, lam * v, atol=1e-9 / g.h**2)

    def test_gradient_values(self):
        g = Grid1D(3, 0.0, 2.0)  # h = 1/2
        ref = np.array([[0.0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        np.testing.assert_allclose(gradient_1d(g), ref)

    def test_gradient_skew(self):
        m = gradient_1d(Grid1D(6, -1.0, 1.0))
        np.testing.assert_allclose(m + m.T, 0.0, atol=1e-14)

    def test_gradient_constant_vector(self):
        g = Grid1D(8, 0.0, 1.0)
        r = gradient_1d(g) @ np.ones(g.n)
        assert np.allclose(r[1:-1], 0.0, atol=1e-12)
        assert abs(r[0]) > 0 and abs(r[-1]) > 0


class TestLaplaceLike:
    def test_d3_laplacian_structure(self):
        n = 4
        lap = laplacian_1d(Grid1D(n, 0.0, 1.0))
        eye = np.eye(n)
        op = laplace_like([eye] * 3, [lap] * 3, [eye] * 3)
        assert op.ranks == (1, 2, 2, 1)
        ref = kron_sum([[lap, eye, eye], [eye, lap, eye], [eye, eye, lap]])
        np.testing.assert_allclose(tt_op_to_dense(op), ref, atol=1e-11)

    def test_d1_reduces_to_single_matrix(self):
        m = rng.standard_normal((5, 5))
        op = laplace_like([np.eye(5)], [m], [np.eye(5)])
        np.testing.assert_allclose(tt_op_to_dense(op), m)

    def test_d2_random_kron_sum(self):
        mats = {name: rng.standard_normal((3, 3)) for name in
                ("l1", "m1", "r1", "l2", "m2", "r2")}
        op = laplace_like([mats["l1"], mats["l2"]],
                          [mats["m1"], mats["m2"]],
                          [mats["r1"], mats["r2"]])
        ref = kron_sum([[mats["m1"], mats["r2"]], [mats["l1"], mats["m2"]]])
        np.testing.assert_allclose(tt_op_to_dense(op), ref, atol=1e-13)

    def test_tt_laplacian_rank_two(self):
        for d in (2, 3, 4):
            assert tt_laplacian(d, Grid1D(5, 0.0, 1.0)).max_rank == 2

    def test_tt_laplacian_d1(self):
        g = Grid1D(6, 0.0, 1.0)
        np.testing.assert_allclose(tt_op_to_dense(tt_laplacian(1, g)),
                                   laplacian_1d(g))

    def test_tt_laplacian_negated(self):
        g = Grid1D(4, 0.0, 1.0)
        np.testing.assert_allclose(
            tt_op_to_dense(tt_laplacian(3, g, negate=True)),
            -tt_op_to_dense(tt_laplacian(3, g)), atol=1e-12)


class TestPoisson:
    def test_analytic_solution_rank_one(self):
        prob = poisson_problem(Grid1D(7, 0.0, 1.0))
        assert prob.analytic_solution.max_rank == 1

    def test_solution_vanishes_at_unit_boundary(self):
        # the separable factors vanish at the |x| = 1 extension
        x = np.array([-1.0, 1.0])
        assert np.all(1.0 - x**2 == 0.0)

    def test_rhs_rank(self):
        prob = poisson_problem(Grid1D(7, 0.0, 1.0))
        assert prob.rhs.max_rank <= 3

    def test_rhs_matches_pointwise_f(self):
        g = Grid1D(5, 0.0, 1.0)
        prob = poisson_problem(g)
        x = g.nodes
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        f = 2 * ((1 - yy**2) * (1 - zz**2) + (1 - xx**2) * (1 - zz**2)
                 + (1 - xx**2) * (1 - yy**2))
        np.testing.assert_allclose(tt_to_dense(prob.rhs), f, atol=1e-12)

    def test_discrete_consistency_on_symmetric_domain(self):
        # On [-1, 1]^3 the quadratic solution satisfies the discrete system
        # to machine precision (central differences are exact on quadratics
        # and the Dirichlet data vanishes on every face).
        for n in (7, 15):
            g = Grid1D(n, -1.0, 1.0)
            prob = poisson_problem(g)
            r = tt_add(tt_apply(prob.operator, prob.analytic_solution),
                       tt_scale(prob.rhs, -1.0))
            assert tt_norm(r) <= 1e-10 * tt_norm(prob.rhs)


class TestConvectionDiffusion:
    def test_operator_matches_dense(self):
        n = 4
        g = Grid1D(n, -1.0, 1.0)
        prob = convection_diffusion_problem(g)
        x = g.nodes
        lap = laplacian_1d(g)
        grad = gradient_1d(g)
        eye = np.eye(n)
        ref = kron_sum([
            [-lap, eye, eye], [eye, -lap, eye], [eye, eye, -lap],
            [np.diag(1 - x**2) @ grad, np.diag(2 * x), eye],
            [np.diag(-2 * x), np.diag(1 - x**2) @ grad, eye],
        ])
        np.testing.assert_allclose(tt_op_to_dense(prob.operator), ref,
                                   atol=1e-11)

    def test_rhs_support(self):
        g = Grid1D(5, -1.0, 1.0)
        prob = convection_diffusion_problem(g)
        dense = tt_to_dense(prob.rhs)
        assert np.all(dense[:, :-1, :] == 0.0)
        assert np.all(dense[:, -1, :] != 0.0)

    def test_rhs_lifting_values(self):
        g = Grid1D(5, -1.0, 1.0)
        prob = convection_diffusion_problem(g)
        dense = tt_to_dense(prob.rhs)
        x = g.nodes
        y_n = g.nodes[-1]
        ref = 1.0 / g.h**2 + x * (1 - y_n**2) / g.h
        np.testing.assert_allclose(dense[:, -1, 0], ref, atol=1e-10)


class TestHeatParts:
    def test_indicator_diagonal(self):
        g = Grid1D(15, -1.0, 1.0)
        b0, b1, c = heat_parametrized_parts(g)
        centers = g.a + (np.arange(1, g.n + 1) - 0.5) * (g.b - g.a) / g.n
        inside = (np.abs(centers) <= 0.5).astype(float)
        # read D_x back from the dense operator at theta -> B1 columns
        assert b1.max_rank == 2
        assert 0 < inside.sum() < g.n

    def test_rhs_normalized(self):
        _, _, c = heat_parametrized_parts(Grid1D(15, -1.0, 1.0))
        assert abs(tt_norm(c) - 1.0) < 1e-13

    def test_theta_zero_slice_equals_b0(self):
        g = Grid1D(4, -1.0, 1.0)
        b0, b1, _ = heat_parametrized_parts(g)
        params = ParamSet.uniform(3, 0.0, 10.0)
        a = all_in_one_operator(b0, b1, params)
        s = tt_op_diag_slice(a, 1)  # theta = 0
        np.testing.assert_allclose(tt_op_to_dense(s), tt_op_to_dense(b0),
                                   atol=1e-11)

    def test_forbidden_grid(self):
        # n = 2 mod 4 places a cell center exactly on the interface
        with pytest.raises(GridOnInterfaceError):
            heat_parametrized_parts(Grid1D(2, -1.0, 1.0))

    def test_b1_dense_structure(self):
        g = Grid1D(5, -1.0, 1.0)
        b0, b1, _ = heat_parametrized_parts(g)
        centers = g.a + (np.arange(1, g.n + 1) - 0.5) * (g.b - g.a) / g.n
        d = np.diag((np.abs(centers) <= 0.5).astype(float))
        lpos = -laplacian_1d(g)
        ref = kron_sum([[d @ lpos, d, d], [d, d @ lpos, d], [d, d, d @ lpos]])
        np.testing.assert_allclose(tt_op_to_dense(b1), ref, atol=1e-11)


class TestPreconditioner:
    def test_default_addend_count(self):
        assert default_addend_count(63) == 16
        assert default_addend_count(127) == 32

    def test_apply_residual_small(self):
        # M approximates the inverse: |(-Lap) M w - w| <= 0.1 |w|
        g = Grid1D(31, 0.0, 1.0)
        a = tt_laplacian(3, g, negate=True)
        m = inv_laplacian_preconditioner(3, g, 32, 1e-8)
        w = tt_random((31, 31, 31), (1, 2, 2, 1), seed=3)
        amw = tt_apply(a, tt_apply(m, w))
        r = tt_add(amw, tt_scale(w, -1.0))
        assert tt_norm(r) <= 0.1

    @pytest.mark.parametrize("tau", [-1.0, np.nan])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be >= 0"):
            inv_laplacian_preconditioner(3, Grid1D(8, 0.0, 1.0), 3, tau)

    def test_pre_round_rank(self):
        g = Grid1D(8, 0.0, 1.0)
        m = inv_laplacian_preconditioner(3, g, 3, 0.0)
        assert m.max_rank <= 2 * 3 + 1

    def test_d2_matches_dense_inverse_loosely(self):
        g = Grid1D(10, 0.0, 1.0)
        m = inv_laplacian_preconditioner(2, g, 32, 1e-10)
        lap2 = kron_sum([[-laplacian_1d(g), np.eye(10)],
                         [np.eye(10), -laplacian_1d(g)]])
        prod = lap2 @ tt_op_to_dense(m)
        assert np.linalg.norm(prod - np.eye(100), 2) < 0.05

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_dense_exponential_sum(self, d):
        g = Grid1D(7, 0.0, 1.0)
        q = 3
        lam, vec = np.linalg.eigh(-laplacian_1d(g))
        xi = np.pi / np.sqrt(q)
        ref = 0.0
        for k in range(-q, q + 1):
            t_k = np.exp(k * xi)
            e_k = (vec * np.exp(-t_k * lam)) @ vec.T
            ref = ref + xi * t_k * kron_chain([e_k] * d)
        got = tt_op_to_dense(inv_laplacian_preconditioner(d, g, q, 0.0))
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("tau", [1e-2, 1e-8])
    def test_matches_fused_mode_rounding(self, d, tau):
        # Rounding the spectra must give the ranks and the operator that
        # rounding the n^2-mode operator gives.  The dense forms (up to
        # 3375^2 entries) are compared through their fused-mode TT
        # difference, whose norm is the Frobenius norm of the dense one.
        g = Grid1D(15, 0.0, 1.0)
        got = inv_laplacian_preconditioner(d, g, 4, tau)
        ref = fused_mode_preconditioner(d, g, 4, tau)
        assert got.ranks == ref.ranks

        def fused(op):
            return make_tt_vector([c.reshape(c.shape[0], -1, c.shape[3])
                                   for c in op.cores])

        diff = tt_add(fused(got), tt_scale(fused(ref), -1.0))
        assert tt_norm(diff) <= 1e-12 * tt_norm(fused(ref))


class TestAllInOne:
    def setup_method(self):
        self.n = 4
        self.p = 3
        self.b0 = laplace_like([np.eye(self.n)] * 2,
                               [rng.standard_normal((self.n, self.n))] * 2,
                               [np.eye(self.n)] * 2)
        self.b1 = laplace_like([np.eye(self.n)] * 2,
                               [rng.standard_normal((self.n, self.n))] * 2,
                               [np.eye(self.n)] * 2)
        self.params = ParamSet.log_spaced(self.p, 1.0, 10.0)

    def test_diag_slices(self):
        a = all_in_one_operator(self.b0, self.b1, self.params)
        for ell in range(1, self.p + 1):
            ref = tt_op_to_dense(self.b0) \
                + self.params.values[ell - 1] * tt_op_to_dense(self.b1)
            got = tt_op_to_dense(tt_op_diag_slice(a, ell))
            np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_dense_block_diagonal(self):
        a = all_in_one_operator(self.b0, self.b1, self.params)
        dense = tt_op_to_dense(a)
        nn = self.n ** 2
        for i in range(self.p):
            for j in range(self.p):
                block = dense[i * nn:(i + 1) * nn, j * nn:(j + 1) * nn]
                if i != j:
                    np.testing.assert_allclose(block, 0.0, atol=1e-12)

    def test_interior_rank_sums(self):
        a = all_in_one_operator(self.b0, self.b1, self.params)
        expected = tuple(r + s for r, s
                         in zip(self.b0.ranks[:-1], self.b1.ranks[:-1]))
        assert a.ranks[1:-1] == expected

    def test_rhs_stacking(self):
        parts = [tt_random((4, 5), (1, 2, 1), seed=i) for i in range(3)]
        b = all_in_one_rhs(parts)
        assert abs(tt_norm(b) - np.sqrt(3)) < 1e-12  # unit parts
        for ell, part in enumerate(parts, start=1):
            got = tt_to_dense(tt_slice_first_mode(b, ell))
            np.testing.assert_allclose(got, tt_to_dense(part), atol=1e-13)

    def test_rhs_p1(self):
        part = tt_random((4, 4), (1, 2, 1), seed=0)
        b = all_in_one_rhs([part])
        assert b.modes == (1, 4, 4)
        np.testing.assert_allclose(tt_to_dense(b)[0], tt_to_dense(part),
                                   atol=1e-13)

    def test_rhs_rank_padding(self):
        parts = [tt_random((4, 4, 4), (1, 1, 1, 1), seed=0),
                 tt_random((4, 4, 4), (1, 3, 2, 1), seed=1)]
        b = all_in_one_rhs(parts)
        for ell, part in enumerate(parts, start=1):
            got = tt_to_dense(tt_slice_first_mode(b, ell))
            np.testing.assert_allclose(got, tt_to_dense(part), atol=1e-13)

    def test_rhs_keeps_each_part_at_its_own_ranks(self):
        # Exact sum of e_l x parts[l]: bonds add the parts' ranks, unpadded.
        parts = [tt_random((4, 4, 4), (1, 1, 1, 1), seed=0),
                 tt_random((4, 4, 4), (1, 3, 2, 1), seed=1)]
        assert all_in_one_rhs(parts).ranks == (1, 2, 4, 3, 1)

    def test_slice_apply_commutes(self):
        # slicing after applying the all-in-one operator equals applying the
        # sliced operator to the sliced vector
        a = all_in_one_operator(self.b0, self.b1, self.params)
        x = tt_random((self.p, self.n, self.n), (1, 2, 2, 1), seed=5)
        ax = tt_apply(a, x)
        for ell in range(1, self.p + 1):
            lhs = tt_to_dense(tt_slice_first_mode(ax, ell))
            rhs = tt_to_dense(tt_apply(tt_op_diag_slice(a, ell),
                                       tt_slice_first_mode(x, ell)))
            assert np.linalg.norm(lhs - rhs) <= 1e-11 * \
                max(1.0, np.linalg.norm(rhs))


class TestParametricProblems:
    def test_param_convdiff_norm(self):
        prob = parametric_convection_diffusion_problem(
            Grid1D(7, -1.0, 1.0), ParamSet.log_spaced(4))
        assert abs(tt_norm(prob.rhs) - 2.0) < 1e-10
        assert prob.operator.row_modes[0] == 4

    def test_param_convdiff_slices_match_direct(self):
        g = Grid1D(5, -1.0, 1.0)
        params = ParamSet.log_spaced(3)
        prob = parametric_convection_diffusion_problem(g, params)
        from ttkrylov.operators import _convdiff_terms, _convdiff_rhs
        neg_lap = tt_laplacian(3, g, negate=True)
        conv = _convdiff_terms(g)
        for ell, alpha in enumerate(params.values, start=1):
            ref = tt_op_to_dense(conv) + alpha * tt_op_to_dense(neg_lap)
            got = tt_op_to_dense(tt_op_diag_slice(prob.operator, ell))
            np.testing.assert_allclose(got, ref, atol=1e-9)
            c = _convdiff_rhs(g, alpha=alpha)
            ref_rhs = tt_to_dense(c) / tt_norm(c)
            got_rhs = tt_to_dense(tt_slice_first_mode(prob.rhs, ell))
            np.testing.assert_allclose(got_rhs, ref_rhs, atol=1e-12)

    def test_multi_rhs_structure(self):
        base = poisson_problem(Grid1D(7, 0.0, 1.0))
        prob = multi_rhs_problem(base, p=5, rank_cap=4, seed=11)
        assert abs(tt_norm(prob.rhs) - np.sqrt(5)) < 1e-12
        cap = 4 + base.rhs.max_rank
        assert prob.rhs.max_rank <= max(cap, 5)
        for ell in range(1, 6):
            assert abs(tt_norm(tt_slice_first_mode(prob.rhs, ell)) - 1.0) \
                < 1e-12

    def test_multi_rhs_deterministic(self):
        base = poisson_problem(Grid1D(5, 0.0, 1.0))
        a = multi_rhs_problem(base, p=3, rank_cap=2, seed=4)
        b = multi_rhs_problem(base, p=3, rank_cap=2, seed=4)
        for ca, cb in zip(a.rhs.cores, b.rhs.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_multi_rhs_rank_independent_of_p(self):
        base = poisson_problem(Grid1D(5, 0.0, 1.0))
        r4 = multi_rhs_problem(base, p=4, rank_cap=3, seed=0).rhs.ranks[2]
        r8 = multi_rhs_problem(base, p=8, rank_cap=3, seed=0).rhs.ranks[2]
        assert r4 == r8



class TestMergeEqualSlices:
    """The exact merge of equal left-bond slices in the conv-diff builders."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_convdiff_bitwise_at_exact_ranks(self, n):
        g = Grid1D(n, -1.0, 1.0)
        summed = tt_add(tt_laplacian(3, g, negate=True), _convdiff_terms(g))
        op = convection_diffusion_problem(g).operator
        assert summed.ranks == (1, 4, 4, 1)
        assert op.ranks == (1, 4, 2, 1)
        np.testing.assert_array_equal(tt_op_to_dense(op),
                                      tt_op_to_dense(summed))

    @pytest.mark.parametrize("n", [3, 5])
    def test_param_convdiff_bitwise_at_exact_ranks(self, n):
        g = Grid1D(n, -1.0, 1.0)
        params = ParamSet.log_spaced(3)
        summed = all_in_one_operator(_convdiff_terms(g),
                                     tt_laplacian(3, g, negate=True), params)
        op = parametric_convection_diffusion_problem(g, params).operator
        assert summed.ranks == (1, 2, 4, 4, 1)
        assert op.ranks == (1, 2, 4, 2, 1)
        np.testing.assert_array_equal(tt_op_to_dense(op),
                                      tt_op_to_dense(summed))

    def test_no_equal_slices_keeps_the_cores(self):
        op = make_tt_operator([rng.standard_normal((1, 3, 2, 2)),
                               rng.standard_normal((2, 3, 3, 3)),
                               rng.standard_normal((3, 2, 3, 1))])
        merged = _merge_equal_slices(op)
        assert merged.ranks == op.ranks
        for a, b in zip(merged.cores, op.cores):
            np.testing.assert_array_equal(a, b)

    def test_overlapping_partners_sum_at_round_off(self):
        # Both columns of the middle core are full, so the merge adds
        # nonzero entries: exact in arithmetic, rounded once per entry.
        # Positive entries keep the sums free of cancellation.
        last = rng.uniform(0.5, 1.0, (1, 3, 3, 1))
        op = make_tt_operator([rng.uniform(0.5, 1.0, (1, 3, 3, 2)),
                               rng.uniform(0.5, 1.0, (2, 3, 3, 2)),
                               np.concatenate([last, last])])
        merged = _merge_equal_slices(op)
        assert merged.ranks == (1, 2, 1, 1)
        ref = tt_op_to_dense(op)
        err = np.linalg.norm(tt_op_to_dense(merged) - ref)
        assert err <= 4 * np.finfo(float).eps * np.linalg.norm(ref)

    def test_norm_estimate_unchanged(self):
        g = Grid1D(7, -1.0, 1.0)
        summed = tt_add(tt_laplacian(3, g, negate=True), _convdiff_terms(g))
        op = convection_diffusion_problem(g).operator
        m = inv_laplacian_preconditioner(3, g, 2, 1e-2)
        ref = estimate_l2_norm(OperatorChain([summed, m]), seed=3)
        got = estimate_l2_norm(OperatorChain([op, m]), seed=3)
        assert abs(got - ref) <= 1e-12 * ref


class TestEigenRhs:
    def test_eigen_identity(self):
        g = Grid1D(9, 0.0, 1.0)
        v = laplacian_eigen_rhs(g, [(1, 1, 1)])
        a = tt_laplacian(3, g, negate=True)
        lam = laplacian_eigenvalue(g, (1, 1, 1))
        r = tt_add(tt_apply(a, v), tt_scale(v, -lam))
        assert tt_norm(r) <= 1e-10 * lam

    def test_rank_bound(self):
        g = Grid1D(9, 0.0, 1.0)
        v = laplacian_eigen_rhs(g, [(j, j, j) for j in range(1, 5)])
        assert v.max_rank <= 4

    def test_index_validation(self):
        g = Grid1D(5, 0.0, 1.0)
        with pytest.raises(IndexError):
            laplacian_eigen_rhs(g, [(6, 1, 1)])


class TestParamSet:
    def test_log_spacing(self):
        ps = ParamSet.log_spaced(5, 1.0, 10.0)
        np.testing.assert_allclose(ps.values, np.geomspace(1, 10, 5))

    def test_sorted_validation(self):
        with pytest.raises(ValueError):
            ParamSet((3.0, 1.0), (0.0, 10.0))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ParamSet((0.5, 2.0), (1.0, 10.0))
