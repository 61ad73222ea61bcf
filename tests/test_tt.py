import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttkrylov import (
    DenseBudgetError,
    ModeMismatchError,
    RankChainError,
    TTError,
    TTOperator,
    TTVector,
    make_tt_operator,
    make_tt_vector,
    storage_stats,
    tt_add,
    tt_apply,
    tt_first_mode_norms,
    tt_from_dense,
    tt_identity_operator,
    tt_inner,
    tt_inners,
    tt_norm,
    tt_ones,
    tt_op_compose,
    tt_op_diag_slice,
    tt_op_from_factors,
    tt_op_to_dense,
    tt_random,
    tt_rank_one,
    tt_round,
    tt_round_sum,
    tt_rounded_norm,
    tt_scale,
    tt_slice_first_mode,
    tt_to_dense,
    tt_zero,
)
from ttkrylov import tt as tt_module
from ttkrylov.operators import Grid1D, tt_laplacian
from ttkrylov.tt import _min_rank_for_tail, dense_budget

from oracles import (
    dense_from_cores,
    dense_op_from_cores,
    kron_sum,
    min_rank_for_tail_loop,
    tt_inner_tensordot,
    tt_norm_forming_q,
    tt_round_forming_q,
)

rng = np.random.default_rng(2024)


def rand_vec(modes, ranks, seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    return make_tt_vector(
        [r.standard_normal((ranks[k], n, ranks[k + 1]))
         for k, n in enumerate(modes)])


def rand_op(row_modes, col_modes, ranks, seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    return make_tt_operator(
        [r.standard_normal((ranks[k], n, m, ranks[k + 1]))
         for k, (n, m) in enumerate(zip(row_modes, col_modes))])


class TestConstruction:
    def test_make_vector_shapes(self):
        x = make_tt_vector([rng.standard_normal((1, 4, 3)),
                            rng.standard_normal((3, 4, 1))])
        assert x.d == 2
        assert x.ranks == (1, 3, 1)
        assert x.modes == (4, 4)

    def test_adjacent_rank_mismatch(self):
        with pytest.raises(RankChainError):
            make_tt_vector([rng.standard_normal((1, 4, 3)),
                            rng.standard_normal((2, 4, 1))])

    def test_boundary_rank(self):
        with pytest.raises(RankChainError):
            make_tt_vector([rng.standard_normal((2, 4, 1))])

    def test_single_core(self):
        x = make_tt_vector([rng.standard_normal((1, 5, 1))])
        assert x.d == 1 and x.ranks == (1, 1)

    def test_cores_read_only(self):
        x = rand_vec((3, 3), (1, 2, 1))
        with pytest.raises(ValueError):
            x.cores[0][0, 0, 0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        a = np.zeros((1, 3, 1))
        x = make_tt_vector([a])
        a[0, 0, 0] = 1.0                       # the caller's array
        with pytest.raises(ValueError):
            x.cores[0][0, 0, 0] = 2.0
        c = np.zeros((1, 2, 2, 1))
        op = make_tt_operator([c])
        c[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            op.cores[0][0, 0, 0, 0] = 2.0

    @pytest.mark.parametrize("make, cores, message", [
        (make_tt_vector, [np.zeros((1, 2, 2, 1))], "order 3"),
        (make_tt_operator, [np.zeros((1, 2, 1))], "order 4"),
        (make_tt_operator, [np.zeros((1, 0, 2, 1))], "empty axis"),
        (make_tt_operator, [np.zeros((1, 2, 2, 2)), np.zeros((3, 2, 2, 1))],
         "operator cores 0 and 1"),
    ])
    def test_invalid_cores(self, make, cores, message):
        with pytest.raises(TTError, match=message):
            make(cores)


class TestFromToDense:
    def test_rank_one_separable(self):
        u, v, w = (rng.standard_normal(4) for _ in range(3))
        t = np.einsum("i,j,k->ijk", u, v, w)
        x = tt_from_dense(t, 1e-14)
        assert x.ranks == (1, 1, 1, 1)
        np.testing.assert_allclose(tt_to_dense(x), t, atol=1e-12)

    @pytest.mark.parametrize("delta", [-0.1, np.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(TTError, match="delta must be >= 0"):
            tt_from_dense(np.ones((2, 3)), delta)

    def test_zero_tensor(self):
        x = tt_from_dense(np.zeros((3, 4, 5)), 0.5)
        assert x.ranks == (1, 1, 1, 1)
        assert tt_norm(x) == 0.0

    def test_round_trip(self):
        t = rng.standard_normal((5, 5, 5))
        x = tt_from_dense(t, 1e-12)
        err = np.linalg.norm(tt_to_dense(x) - t) / np.linalg.norm(t)
        assert err < 1e-10

    def test_to_dense_matches_loop_oracle(self):
        x = rand_vec((3, 4, 5), (1, 2, 3, 1))
        np.testing.assert_allclose(tt_to_dense(x),
                                   dense_from_cores(x.cores), atol=1e-12)

    def test_d1_vector(self):
        v = rng.standard_normal(6)
        x = make_tt_vector([v.reshape(1, 6, 1)])
        np.testing.assert_allclose(tt_to_dense(x), v)

    def test_dense_budget(self, monkeypatch):
        monkeypatch.setenv("TTKRYLOV_DENSE_BUDGET", "10")
        with pytest.raises(DenseBudgetError):
            tt_to_dense(rand_vec((4, 4), (1, 2, 1)))

    @pytest.mark.parametrize("raw", ["abc", "", "inf", "1e400"])
    def test_dense_budget_malformed(self, monkeypatch, raw):
        monkeypatch.setenv("TTKRYLOV_DENSE_BUDGET", raw)
        with pytest.raises(TTError, match="TTKRYLOV_DENSE_BUDGET"):
            dense_budget()
        with pytest.raises(TTError, match="TTKRYLOV_DENSE_BUDGET"):
            tt_to_dense(rand_vec((4, 4), (1, 2, 1)))


class TestArithmetic:
    def test_add_rank_sums(self):
        x = rand_vec((4, 4, 4), (1, 3, 2, 1))
        y = rand_vec((4, 4, 4), (1, 2, 4, 1))
        assert tt_add(x, y).ranks == (1, 5, 6, 1)

    def test_add_dense(self):
        x = rand_vec((3, 4, 5), (1, 2, 2, 1))
        y = rand_vec((3, 4, 5), (1, 3, 2, 1))
        ref = tt_to_dense(x) + tt_to_dense(y)
        err = np.linalg.norm(tt_to_dense(tt_add(x, y)) - ref)
        assert err <= 1e-13 * np.linalg.norm(ref)

    def test_add_cancellation(self):
        x = rand_vec((4, 4), (1, 3, 1))
        z = tt_add(x, tt_scale(x, -1.0))
        assert z.ranks == (1, 6, 1)
        assert tt_norm(z) < 1e-12 * tt_norm(x)

    def test_add_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            tt_add(rand_vec((3, 3), (1, 2, 1)), rand_vec((3, 4), (1, 2, 1)))

    @pytest.mark.parametrize("d", [1, 3])
    def test_add_many_terms_matches_nested_pairs(self, d):
        vecs = [rand_vec((3,) * d, (1,) + (r,) * (d - 1) + (1,))
                for r in (1, 2, 3)]
        ops = [rand_op((3,) * d, (2,) * d, (1,) + (r,) * (d - 1) + (1,))
               for r in (2, 1, 3)]
        for x, y, z in (vecs, ops):
            nested = tt_add(tt_add(x, y), z)
            flat = tt_add(x, y, z)
            assert type(flat) is type(nested)
            assert len(flat.cores) == len(nested.cores)
            for a, b in zip(flat.cores, nested.cores):
                assert np.array_equal(a, b)

    def test_add_needs_a_term(self):
        with pytest.raises(TTError):
            tt_add()

    @pytest.mark.parametrize("third", [
        lambda: rand_op((3, 3), (3, 3), (1, 2, 1)),
        lambda: rand_vec((3, 4), (1, 2, 1)),
    ], ids=["kind", "mode"])
    def test_add_checks_every_term(self, third):
        x = rand_vec((3, 3), (1, 2, 1))
        with pytest.raises(ModeMismatchError):
            tt_add(x, x, third())

    def test_scale(self):
        x = rand_vec((3, 4), (1, 2, 1))
        for c in (1.0, 0.0, 2.0):
            y = tt_scale(x, c)
            assert y.ranks == x.ranks
            np.testing.assert_allclose(tt_to_dense(y), c * tt_to_dense(x),
                                       atol=1e-13)

    def test_inner_matches_dense(self):
        x = rand_vec((3, 4, 5), (1, 2, 3, 1))
        y = rand_vec((3, 4, 5), (1, 3, 2, 1))
        ref = float(np.sum(tt_to_dense(x) * tt_to_dense(y)))
        assert abs(tt_inner(x, y) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_inner_orthogonal_rank_one(self):
        u = np.array([1.0, 0.0, 0.0])
        up = np.array([0.0, 1.0, 0.0])
        w = rng.standard_normal(3)
        x = tt_rank_one([u, w, w])
        y = tt_rank_one([up, w, w])
        assert abs(tt_inner(x, y)) < 1e-13

    def test_inner_positivity(self):
        x = rand_vec((3, 3, 3), (1, 2, 2, 1))
        assert tt_inner(x, x) > 0
        assert tt_inner(tt_zero((3, 3, 3)), tt_zero((3, 3, 3))) == 0.0


class TestNorm:
    def test_zero(self):
        assert tt_norm(tt_zero((3, 4))) == 0.0

    def test_all_ones(self):
        n = 5
        assert abs(tt_norm(tt_ones((n, n, n))) - n**1.5) < 1e-12

    def test_matches_dense(self):
        x = rand_vec((4, 5, 6), (1, 3, 2, 1))
        ref = np.linalg.norm(tt_to_dense(x))
        assert abs(tt_norm(x) - ref) <= 1e-12 * ref

    def test_cancellation_accuracy(self):
        # norm of a tiny difference of two large, nearly equal tensors
        x = rand_vec((5, 5, 5), (1, 3, 3, 1), seed=1)
        y = tt_add(x, tt_scale(rand_vec((5, 5, 5), (1, 1, 1, 1), seed=2),
                               1e-9))
        z = tt_add(y, tt_scale(x, -1.0))
        ref = np.linalg.norm(tt_to_dense(z))
        assert abs(tt_norm(z) - ref) <= 1e-6 * ref


class TestRound:
    def test_doubled_ranks_recover(self):
        x = rand_vec((4, 4, 4), (1, 3, 2, 1))
        z = tt_round(tt_add(x, x), 1e-14)
        assert all(r <= s for r, s in zip(z.ranks, x.ranks))
        np.testing.assert_allclose(tt_to_dense(z), 2 * tt_to_dense(x),
                                   rtol=1e-12, atol=1e-12)

    def test_zero_delta_lossless(self):
        x = rand_vec((4, 4, 4), (1, 2, 2, 1))
        z = tt_round(x, 0.0)
        assert all(r <= s for r, s in zip(z.ranks, x.ranks))
        np.testing.assert_allclose(tt_to_dense(z), tt_to_dense(x),
                                   rtol=1e-13, atol=1e-13)

    def test_coarse_round_error_bound(self):
        x = rand_vec((5, 5, 5), (1, 8, 8, 1))
        nrm = tt_norm(x)
        for delta in (1e-1, 1e-3, 1e-8, 0.5):
            z = tt_round(x, delta)
            err = np.linalg.norm(tt_to_dense(z) - tt_to_dense(x))
            assert err <= delta * nrm * (1 + 1e-12)
            assert all(r <= s for r, s in zip(z.ranks, x.ranks))

    def test_zero_tensor(self):
        z = tt_round(tt_zero((3, 3, 3)), 1e-3)
        assert z.ranks == (1, 1, 1, 1)

    def test_operator_round(self):
        a = rand_op((3, 3, 3), (3, 3, 3), (1, 3, 3, 1))
        b = tt_round(tt_add(a, a), 1e-13)
        assert all(r <= s for r, s in zip(b.ranks, a.ranks))
        np.testing.assert_allclose(tt_op_to_dense(b), 2 * tt_op_to_dense(a),
                                   rtol=1e-11, atol=1e-11)


@st.composite
def spectra(draw):
    """Non-increasing singular values (zeros and repeats allowed) and a tau."""
    values = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1e-3]),
                       st.floats(0.0, 1e3, allow_subnormal=False))
    s = np.sort(np.array(draw(st.lists(values, max_size=12))))[::-1]
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    scale = float(tail[0]) if s.size else 1.0
    tau = draw(st.one_of(st.just(0.0),
                         st.sampled_from(list(tail) or [0.0]),
                         st.floats(0.0, 2.0 * scale + 1.0)))
    return s, tau


class TestTruncationRank:
    @settings(max_examples=300, deadline=None)
    @given(spectra())
    def test_matches_loop_rule(self, case):
        s, tau = case
        assert _min_rank_for_tail(s, tau) == min_rank_for_tail_loop(s, tau)

    def test_edges(self):
        assert _min_rank_for_tail(np.array([]), 0.0) == 1
        assert _min_rank_for_tail(np.array([3.0, 0.0, 0.0]), 0.0) == 1
        assert _min_rank_for_tail(np.array([2.0, 2.0, 2.0]), 0.0) == 3
        assert _min_rank_for_tail(np.array([2.0, 2.0, 2.0]), 2.0) == 2
        assert _min_rank_for_tail(np.array([2.0, 2.0, 2.0]), 1e9) == 1


def natural_caps(modes):
    """Largest possible rank of each interior bond: min(left, right) size."""
    return [min(int(np.prod(modes[:k])), int(np.prod(modes[k:])))
            for k in range(1, len(modes))]


@st.composite
def inflated_sums(draw, min_d=2, operator=False):
    """Sums of 2-6 random TTs whose bonds exceed their natural caps.

    With `operator`, the terms are TT operators, each core's row and column
    modes drawn apart, and the caps are those of the fused modes.
    """
    d = draw(st.integers(min_d, 4))
    modes = tuple(draw(st.lists(st.integers(1, 3), min_size=d, max_size=d)))
    shapes = [(n,) for n in modes]
    if operator:
        cols = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
        shapes = list(zip(modes, cols))
    caps = natural_caps([int(np.prod(s)) for s in shapes])
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(2, 6))):
        ranks = [1] + [int(r.integers(1, c + 1)) for c in caps] + [1]
        cores = [r.standard_normal((ranks[k],) + s + (ranks[k + 1],))
                 for k, s in enumerate(shapes)]
        terms.append(make_tt_operator(cores) if operator
                     else make_tt_vector(cores))
    x = terms[0]
    for t in terms[1:]:
        x = tt_add(x, t)
    return x


class TestRoundProperties:
    @settings(max_examples=60, deadline=None)
    @given(inflated_sums(), st.sampled_from([1e-10, 1e-4, 1e-2, 0.3]))
    def test_round_contract(self, x, delta):
        ref = dense_from_cores(x.cores)
        nrm = np.linalg.norm(ref)
        assert abs(tt_norm(x) - nrm) <= 1e-12 * nrm

        z = tt_round(x, delta)
        err = np.linalg.norm(dense_from_cores(z.cores) - ref)
        assert err <= (delta + 1e-12) * nrm
        for out, cap, rank in zip(z.ranks[1:-1], natural_caps(x.modes),
                                  x.ranks[1:-1]):
            assert out <= min(cap, rank)

        exact = tt_round(x, 0.0)
        err0 = np.linalg.norm(dense_from_cores(exact.cores) - ref)
        assert err0 <= 1e-12 * nrm


def _dense(x):
    return tt_op_to_dense(x) if isinstance(x, TTOperator) else tt_to_dense(x)


def _cancelling_norm_case():
    """y + 1e-9 z - y, formed, and its exact norm 1e-9 |z|."""
    y = rand_vec((5, 5, 5), (1, 3, 3, 1), seed=1)
    z = rand_vec((5, 5, 5), (1, 1, 1, 1), seed=2)
    return (tt_add(y, tt_scale(z, 1e-9), tt_scale(y, -1.0)),
            1e-9 * np.linalg.norm(tt_to_dense(z)))


class TestRoundMatchesQFormingSweep:
    """tt_round keeps only R factors; the reference forms every Q."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(inflated_sums(min_d=1),
                     inflated_sums(min_d=1, operator=True)),
           st.sampled_from([0.0, 1e-10, 1e-4, 0.3]))
    def test_same_ranks_and_tensor(self, x, delta):
        z = tt_round(x, delta)
        ref = tt_round_forming_q(x, delta)
        assert z.ranks == ref.ranks
        nrm = np.linalg.norm(_dense(x))
        assert np.linalg.norm(_dense(z) - _dense(ref)) <= 1e-12 * nrm

    def test_cancellation(self):
        # (x + 1e-9 z) - x keeps the bonds of both x terms, whose parts
        # cancel to 1e-9 z; the exact result is 1e-9 z.  Both sweeps lose
        # about eps |x| to the cancellation, up to ~1e-6 of the result,
        # so they are compared over a set of inputs: never more than twice
        # the reference's error, and no larger on geometric average.
        ratios = []
        for seed in range(40):
            r = np.random.default_rng(seed)
            d = int(r.integers(1, 5))
            modes = tuple(int(n) for n in r.integers(2, 6, size=d))
            x = rand_vec(modes, [1, *r.integers(1, 4, size=d - 1), 1],
                         seed=r.integers(2**32))
            z = rand_vec(modes, [1, *r.integers(1, 3, size=d - 1), 1],
                         seed=r.integers(2**32))
            y = tt_add(x, tt_scale(z, 1e-9), tt_scale(x, -1.0))
            exact = 1e-9 * tt_to_dense(z)
            errs = [np.linalg.norm(tt_to_dense(f(y, 1e-13)) - exact)
                    for f in (tt_round, tt_round_forming_q)]
            assert errs[0] <= 1e-13 * tt_norm(x)
            ratios.append(errs[0] / errs[1])
        assert max(ratios) <= 2.0
        assert np.exp(np.mean(np.log(ratios))) <= 1.0

    @pytest.mark.parametrize("x, exact", [
        *[(x, np.linalg.norm(tt_to_dense(x))) for x in (
            tt_zero((3, 4, 2)),
            tt_zero((5,)),
            rand_vec((6,), (1, 1), seed=3),
            rand_vec((4, 5, 6), (1, 3, 2, 1), seed=4),
            rand_vec((2, 3, 2, 3), (1, 2, 6, 3, 1), seed=5))],
        _cancelling_norm_case(),
    ], ids=["zero", "zero-d1", "d1", "d3", "d4", "cancellation"])
    def test_norm(self, x, exact):
        # tt_norm is within 1e-14 of the exact norm, or no further from it
        # than the reference.  Where the parts cancel, y + 1e-9 z - y of norm
        # 1e-9 |z|, both lose round-off at the size of the parts (2.5e-8 and
        # 6.9e-8 of the result), and not the same round-off: tt_norm takes
        # a wide unfolding as its own factor, where the reference takes the
        # R of a QR whose Q is square.
        ref_err = abs(tt_norm_forming_q(x) - exact)
        assert abs(tt_norm(x) - exact) <= max(ref_err, 1e-14 * exact)

    @pytest.mark.parametrize("x", [
        rand_vec((4, 5, 6), (1, 3, 2, 1), seed=6),
        tt_add(rand_vec((6, 6, 6), (1, 3, 3, 1), seed=7),
               rand_vec((6, 6, 6), (1, 2, 2, 1), seed=8)),
        rand_op((3, 3, 3), (3, 3, 3), (1, 4, 4, 1), seed=9),
        [rand_vec((2, 3, 3), (1, 3, 3, 1), seed=s) for s in (10, 11, 12)],
    ], ids=["vector", "sum", "operator", "capped-sum"])
    def test_no_q_is_formed(self, x, monkeypatch):
        modes = []
        qr = tt_module.np.linalg.qr

        def spy(a, mode="reduced"):
            modes.append(mode)
            return qr(a, mode=mode)

        monkeypatch.setattr(tt_module.np.linalg, "qr", spy)
        if isinstance(x, list):
            # the sum's leading bond, 9, is above n_0 = 2, so it is capped
            tt_round_sum(x, [1.0, -2.0, 0.5], 1e-8)
        else:
            tt_round(x, 1e-8)
        if isinstance(x, TTVector):
            tt_norm(x)
        assert modes and set(modes) == {"r"}


class TestNoSquareQ:
    """No QR whose Q would be square is taken: leading bonds above their
    cap are cut with Q = I, and a wide unfolding C is its own factor C^T."""

    @pytest.mark.parametrize("room", [None, 1.0])
    def test_wide_unfolding_is_its_own_factor(self, room, monkeypatch):
        # Every width may take the Gram factor here, whose (r, r) factor a
        # wide C must not take either.
        monkeypatch.setattr(tt_module, "GRAM_MIN_ROWS", 1)
        calls = []
        for name in ("qr", "eigh"):
            real = getattr(tt_module.np.linalg, name)
            monkeypatch.setattr(
                tt_module.np.linalg, name,
                lambda *args, name=name, real=real, **kwargs:
                calls.append(name) or real(*args, **kwargs))
        c = np.random.default_rng(13).standard_normal((6, 4))
        f, err = tt_module._factor(c, room)
        assert (f.shape, err, calls) == ((4, 6), 0.0, [])
        np.testing.assert_array_equal(f.T @ f, c @ c.T)

    @pytest.mark.parametrize("terms, coeffs", [
        # leading bonds 9 and 9 above the caps 2 and 6, a wide last core
        ([tt_random((2, 3, 3), (1, 3, 3, 1), seed=s) for s in (14, 15, 16)],
         [0.7, -1.3, 2.1]),
        # ranks (1, 6, 6, 1): the last unfolding is (6, 2)
        ([tt_apply(rand_op((3, 3, 2), (3, 3, 2), (1, 3, 3, 1), seed=17),
                   tt_random((3, 3, 2), (1, 2, 2, 1), seed=18))], [1.0]),
    ], ids=["capped-sum", "wide-product"])
    def test_exact_at_delta_zero(self, terms, coeffs):
        z = tt_round_sum(terms, coeffs, 0.0)
        dense = sum(c * tt_to_dense(t) for c, t in zip(coeffs, terms))
        scale = sum(abs(c) * tt_norm(t) for c, t in zip(coeffs, terms))
        assert np.linalg.norm(tt_to_dense(z) - dense) <= 1e-14 * scale


@st.composite
def scaled_terms(draw):
    """1-6 random TT vectors of mixed ranks and their coefficients.

    First modes of 1-4 against term ranks of 1-4 put the sum's leading
    bonds above their caps in most draws; each coefficient may be zero, so
    some sums are identically zero.
    """
    d = draw(st.integers(1, 4))
    modes = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 6))
    terms = [rand_vec(modes, [1, *r.integers(1, 5, size=d - 1), 1],
                      seed=int(r.integers(2**32)))
             for _ in range(count)]
    zero = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    coeffs = np.where(zero, 0.0, r.standard_normal(count))
    return terms, coeffs


def _formed_sum(terms, coeffs):
    return tt_add(*[tt_scale(t, c) for t, c in zip(terms, coeffs)])


#: A sum whose ranks at delta = 0 round-off decides: the exact sum has rank
#: 1 at bond 3; with one OpenBLAS thread tt_round_sum keeps (1, 2, 2, 1, 1)
#: and tt_round of the formed sum (1, 2, 2, 2, 1), a round-off singular
#: value kept.
ROUND_OFF_RANK_SUM = (
    [rand_vec((2, 4, 1, 2), (1, 4, 2, 2, 1), seed=1980610037),
     rand_vec((2, 4, 1, 2), (1, 4, 1, 1, 1), seed=2244585779)],
    np.array([0.0, 0.317]))


def _cancelling_sum():
    """d = 4, every mode 1: four terms with O(1) cores, of which only the
    first has a nonzero coefficient, and its cores contract to about 1e-5
    of their norms, so |x| is far below the parts it is formed from."""
    cores = list(rand_vec((1, 1, 1, 1), (1, 2, 2, 2, 1), seed=1).cores)
    g = (cores[0][:, 0] @ cores[1][:, 0] @ cores[2][:, 0]).ravel()
    last = cores[3].ravel()
    target = 1e-5 * np.linalg.norm(g) * np.linalg.norm(last)
    cores[3] = (last - (g @ last - target) * g / (g @ g)).reshape(2, 1, 1)
    others = [rand_vec((1, 1, 1, 1), ranks, seed=seed) for seed, ranks in
              ((2, (1, 3, 2, 4, 1)), (3, (1, 4, 4, 1, 1)),
               (4, (1, 1, 2, 3, 1)))]
    return [make_tt_vector(cores)] + others, np.array([-0.739, 0.0, 0.0, 0.0])


#: round-off allowed per unit of sum_j |c_j| prod_k |B_k^j|_F, the size of
#: the parts the sum is contracted from; 15,000 random draws of
#: scaled_terms reached 10 eps
ROUND_OFF = 1000 * np.finfo(float).eps


class TestRoundSum:
    """tt_round_sum is tt_round of the formed sum, never formed."""

    @settings(max_examples=300, deadline=None)
    @given(scaled_terms(), st.sampled_from([0.0, 1e-10, 1e-4, 0.3]))
    @example(ROUND_OFF_RANK_SUM, 0.0)
    @example(_cancelling_sum(), 0.0)
    def test_matches_round_of_formed_sum(self, case, delta):
        # Contracting the cores errs at the size of the parts, which
        # cancellation can put far above |x|.
        terms, coeffs = case
        x = _formed_sum(terms, coeffs)
        z = tt_round_sum(terms, coeffs, delta)
        ref = tt_round(x, delta)
        if delta > 0:
            assert z.ranks == ref.ranks
        else:
            # The cutoff keeps every singular value above 0, so round-off
            # decides the ranks: the contract is only that none increases.
            assert all(r <= s for r, s in zip(z.ranks, x.ranks))
        exact = tt_to_dense(x)
        nrm = np.linalg.norm(exact)
        slack = ROUND_OFF * sum(
            abs(c) * np.prod([np.linalg.norm(core) for core in t.cores])
            for t, c in zip(terms, coeffs))
        assert np.linalg.norm(tt_to_dense(z) - tt_to_dense(ref)) <= slack
        assert np.linalg.norm(tt_to_dense(z) - exact) <= delta * nrm + slack

    @settings(max_examples=100, deadline=None)
    @given(scaled_terms(), st.sampled_from([0.0, 1e-4, 0.3]))
    @example(([rand_vec((6,), (1, 1), seed=5)] * 3, np.array([1.0, 2.0, 0.5])),
             1e-4)
    @example(([rand_vec((6,), (1, 1), seed=5)] * 2, np.array([1.0, -1.0])),
             0.0)
    @example(([rand_vec((3, 4, 2), (1, 2, 3, 1), seed=6)], np.array([0.0])),
             0.0)
    @example(([rand_vec((2000, 3), (1, 2, 1), seed=7)], np.array([1.0])),
             1e-3)
    def test_norm_is_the_last_cores(self, case, delta):
        # Cores 0, ..., d-2 of a rounded sum have orthonormal columns (the
        # d = 1, zero-sum and tall Gram-factor cases included), so its
        # norm is its last core's.
        z = tt_round_sum(*case, delta)
        assert abs(tt_rounded_norm(z) - tt_norm(z)) <= 1e-14 * tt_norm(z)

    @settings(max_examples=100, deadline=None)
    @given(scaled_terms())
    def test_first_mode_norms_of_a_sum(self, case):
        terms, coeffs = case
        x = _formed_sum(terms, coeffs)
        nrm = tt_norm(x)
        np.testing.assert_allclose(
            tt_first_mode_norms(*terms, coeffs=coeffs),
            tt_first_mode_norms(x), rtol=0, atol=1e-12 * nrm)

    @settings(max_examples=100, deadline=None)
    @given(scaled_terms())
    def test_per_term_slice_norms_from_one_sweep(self, case):
        # Every row of a coefficient matrix is read off one sweep: the
        # identity's rows are each term's own slice norms, and the sum less
        # its formed copy cancels to round-off.
        terms, coeffs = case
        x = _formed_sum(terms, coeffs)
        rows = np.vstack([np.eye(len(terms) + 1), np.append(coeffs, -1.0)])
        norms = tt_first_mode_norms(*terms, x, coeffs=rows)
        assert norms.shape == (len(terms) + 2, terms[0].modes[0])
        # The shared sweep is backward stable for the stacked terms, so a
        # small term is exact to the largest one's round-off.
        top = max(tt_norm(t) for t in terms + [x])
        for row, t in zip(norms, terms + [x]):
            np.testing.assert_allclose(row, tt_first_mode_norms(t),
                                       rtol=1e-13, atol=1e-13 * top)
        assert np.linalg.norm(norms[-1]) <= \
            1e-12 * top * (1.0 + np.abs(coeffs).sum())

    def test_all_zero_sum(self):
        terms = [rand_vec((3, 4, 2), (1, 3, 2, 1), seed=11),
                 rand_vec((3, 4, 2), (1, 2, 4, 1), seed=12)]
        z = tt_round_sum(terms, [0.0, 0.0], 1e-8)
        assert z.ranks == (1, 1, 1, 1)
        assert not np.any(tt_to_dense(z))

    def test_peak_memory_stays_below_the_inputs(self):
        # 25 rank-31 terms at 31^3: the formed sum's interior core alone
        # has 775 x 31 x 775 entries (149 MB), its terms' cores 6.3 MB.
        terms = [tt_random((31, 31, 31), (1, 31, 31, 1), seed=s)
                 for s in range(25)]
        inputs = sum(c.nbytes for t in terms for c in t.cores)
        tracemalloc.start()
        try:
            tt_round_sum(terms, np.linspace(1.0, 2.0, 25), 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < inputs

    @pytest.mark.parametrize("terms, coeffs, delta, error", [
        ([], [], 0.1, TTError),
        ([tt_ones((2, 3))], [1.0, 2.0], 0.1, TTError),
        ([tt_ones((2, 3)), tt_ones((3, 2))], [1.0, 2.0], 0.1,
         ModeMismatchError),
        ([tt_identity_operator((2, 3))], [1.0], 0.1, TTError),
        ([tt_ones((2, 3))], [1.0], -0.1, TTError),
        ([tt_ones((2, 3))], [1.0], np.nan, TTError),
        ([tt_ones((2, 3))], [[1.0], [2.0]], 0.1, TTError),
    ], ids=["empty", "coeff-count", "modes", "operator", "negative-delta",
            "nan-delta", "coeff-rows"])
    def test_rejects_bad_input(self, terms, coeffs, delta, error):
        with pytest.raises(error):
            tt_round_sum(terms, coeffs, delta)


@pytest.fixture
def factor_calls(monkeypatch):
    """Every factorization the tt module asks numpy for, in order:
    ("qr", mode, shape) or ("eigh", shape)."""
    calls = []
    qr, eigh = tt_module.np.linalg.qr, tt_module.np.linalg.eigh

    def spy_qr(a, mode="reduced"):
        calls.append(("qr", mode, a.shape))
        return qr(a, mode=mode)

    def spy_eigh(a, *args, **kwargs):
        calls.append(("eigh", a.shape))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(tt_module.np.linalg, "qr", spy_qr)
    monkeypatch.setattr(tt_module.np.linalg, "eigh", spy_eigh)
    return calls


def _unit(x):
    return tt_scale(x, 1.0 / tt_norm(x))


def _smooth_field(n):
    """A smooth function on the n^3 interior grid of the unit cube."""
    s = Grid1D(n).nodes
    return (np.exp(-(s[:, None, None] + 2.0 * s[None, :, None]
                     * s[None, None, :]))
            + np.sin(3.0 * s)[:, None, None]
            * np.cos(s[None, :, None] - s[None, None, :]))


GRAM_DELTAS = [1e-7, 1e-5, 1e-3]
EPS = np.finfo(float).eps


def on_geqrf(monkeypatch, run):
    """run() with no core tall enough for a Gram factor: the reference."""
    with monkeypatch.context() as m:
        m.setattr(tt_module, "GRAM_MIN_ROWS", np.iinfo(np.int64).max)
        return run()


def least_gram_delta(m, d):
    """The least delta at which a core with m rows tries its Gram factor."""
    return float(np.sqrt(4 * (d - 1) * np.sqrt(m) * tt_module._EPS))


@pytest.fixture(scope="module")
def nearly_solved():
    """(b, A u) at 127^3 with |b - A u| = eta |A u|, by eta: the restart
    residual of a nearly solved system, whose two terms cancel."""
    g = Grid1D(127)
    au = tt_apply(tt_laplacian(3, g, negate=True),
                  _unit(rand_vec((127,) * 3, (1, 8, 8, 1), seed=31)))
    z = _unit(rand_vec((127,) * 3, (1, 4, 4, 1), seed=32))
    scale = tt_norm(au)
    return {eta: (tt_round(tt_add(au, tt_scale(z, eta * scale)), 1e-14), au)
            for eta in (1e-3, 1e-6)}


class TestGramSweep:
    """Single-term roundings factor tall cores by their Gram matrix where
    its error fits in the cutoff, and fall back on geqrf where it does
    not."""

    @pytest.mark.parametrize("form", ["formed", "sum"])
    @pytest.mark.parametrize("delta", GRAM_DELTAS)
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("modes", [(8, 512, 8), (64, 512, 8)],
                             ids=["capped", "uncapped"])
    def test_cancellation_against_dense(self, modes, eps, delta, form,
                                        factor_calls, monkeypatch):
        # y + eps z - y: the swept middle core's unfolding has 4096 rows.
        # At modes (8, 512, 8) the leading bond (15) is cut to 8 first, so
        # the cancellation is applied before the Gram bond; at (64, 512, 8)
        # it is not, and the Gram factor of the formed sum is tried against
        # parts eps^-1 times larger than the sum.
        for seed in range(3):
            y = _unit(rand_vec(modes, (1, 6, 6, 1), seed=seed))
            z = _unit(rand_vec(modes, (1, 3, 3, 1), seed=50 + seed))
            x = tt_add(y, tt_scale(z, eps), tt_scale(y, -1.0))
            if form == "formed":
                def run():
                    return tt_round(x, delta)
            else:
                def run():
                    return tt_round_sum([y, z, y], [1.0, eps, -1.0], delta)
            factor_calls.clear()
            out = run()
            tried = any(call[0] == "eigh" for call in factor_calls)
            assert tried == (form == "formed"
                             and delta >= least_gram_delta(4096, 3))
            exact = eps * tt_to_dense(z)
            err = np.linalg.norm(tt_to_dense(out) - exact)
            # Summing the terms costs about eps (|y| + eps |z| + |y|) on
            # any path; at eps * delta = 1e-16 that is the larger term.
            assert err <= delta * np.linalg.norm(exact) + 4 * EPS * (2 + eps)
            reference = on_geqrf(monkeypatch, run)
            assert all(r <= s for r, s in zip(out.ranks, reference.ranks))

    @pytest.mark.parametrize("form", ["formed", "sum"])
    @pytest.mark.parametrize("delta", [1e-5, 1e-3])
    @pytest.mark.parametrize("eta", [1e-3, 1e-6])
    def test_residual_of_nearly_solved_system(self, eta, delta, form,
                                              nearly_solved, factor_calls,
                                              monkeypatch):
        b, au = nearly_solved[eta]
        if form == "formed":
            def run():
                return tt_round(tt_add(b, tt_scale(au, -1.0)), delta)
        else:
            def run():
                return tt_round_sum([b, au], [1.0, -1.0], delta)
        factor_calls.clear()
        out = run()
        assert any(call[0] == "eigh" for call in factor_calls) \
            == (form == "formed")
        budget = 127**3
        exact = tt_to_dense(b, budget=budget) - tt_to_dense(au, budget=budget)
        err = np.linalg.norm(tt_to_dense(out, budget=budget) - exact)
        assert err <= delta * np.linalg.norm(exact) \
            + 4 * EPS * (tt_norm(b) + tt_norm(au))
        reference = on_geqrf(monkeypatch, run)
        assert all(r <= s for r, s in zip(out.ranks, reference.ranks))

    @pytest.mark.parametrize("delta", GRAM_DELTAS)
    def test_negative_laplacian_of_smooth_field(self, delta, factor_calls,
                                                monkeypatch):
        g = Grid1D(127)
        x = tt_from_dense(_smooth_field(g.n), 1e-13)
        ax = tt_apply(tt_laplacian(3, g, negate=True), x)
        factor_calls.clear()
        out = tt_round(ax, delta)
        assert any(call[0] == "eigh" for call in factor_calls) \
            == (delta >= least_gram_delta(127 * x.ranks[2], 3))
        exact = tt_to_dense(ax, budget=g.n**3)
        err = np.linalg.norm(tt_to_dense(out, budget=g.n**3) - exact)
        assert err <= delta * np.linalg.norm(exact)
        reference = on_geqrf(monkeypatch, lambda: tt_round(ax, delta))
        assert all(r <= s for r, s in zip(out.ranks, reference.ranks))

    # The middle core of TALL and TALL_TOO, swept, has a 4 x 1536
    # unfolding, on the GRAM_MIN_ROWS edge, and FEW_ROWS a 4 x 1532 one.
    # The sum of WIDE and WIDE_TOO has a 7 x 1536 one, and its leading
    # bond (7) needs no cap.
    TALL = rand_vec((4, 384, 4), (1, 4, 4, 1), seed=21)
    TALL_TOO = rand_vec((4, 384, 4), (1, 3, 2, 1), seed=22)
    WIDE = rand_vec((16, 384, 4), (1, 4, 4, 1), seed=26)
    WIDE_TOO = rand_vec((16, 384, 4), (1, 3, 2, 1), seed=27)
    FEW_ROWS = rand_vec((4, 383, 4), (1, 4, 4, 1), seed=23)
    # y + 1e-6 z - y with no cap at the leading bond (see above)
    CANCELLING = tt_add(rand_vec((64, 512, 8), (1, 6, 6, 1), seed=24),
                        tt_scale(rand_vec((64, 512, 8), (1, 3, 3, 1),
                                          seed=25), 1e-6),
                        tt_scale(rand_vec((64, 512, 8), (1, 6, 6, 1),
                                          seed=24), -1.0))
    EDGE = least_gram_delta(1536, 3)

    @pytest.mark.parametrize("run, eigh_shape", [
        (lambda: tt_round(TestGramSweep.TALL, 1e-5), (4, 4)),
        (lambda: tt_round(TestGramSweep.TALL, 1.01 * TestGramSweep.EDGE),
         (4, 4)),
        (lambda: tt_round(TestGramSweep.TALL, 0.99 * TestGramSweep.EDGE),
         None),
        (lambda: tt_round(TestGramSweep.TALL, 1e-8), None),
        (lambda: tt_round_sum([TestGramSweep.WIDE, TestGramSweep.WIDE_TOO],
                              [1.0, -0.5], 1e-3), None),
        (lambda: tt_norm(TestGramSweep.TALL), None),
        (lambda: tt_first_mode_norms(TestGramSweep.TALL), None),
        (lambda: tt_first_mode_norms(TestGramSweep.TALL,
                                     TestGramSweep.TALL_TOO,
                                     coeffs=[1.0, -1.0]), None),
        (lambda: tt_round(TestGramSweep.FEW_ROWS, 1e-3), None),
    ], ids=["tall", "above-least-delta", "below-least-delta", "judge-delta",
            "sum", "norm", "first-mode-norms", "first-mode-norms-of-sum",
            "few-rows"])
    def test_factor_each_entry_point_takes(self, run, eigh_shape,
                                           factor_calls):
        run()
        eighs = [call for call in factor_calls if call[0] == "eigh"]
        if eigh_shape is None:
            assert not eighs
            assert {call[1] for call in factor_calls} == {"r"}
        else:
            assert eighs == [("eigh", eigh_shape)]

    def test_tall_rounding_keeps_its_gram_factor(self, factor_calls):
        tt_round(self.TALL, 1e-5)
        assert ("qr", "r", (1536, 4)) not in factor_calls

    def test_cut_gives_up_the_gram_error(self, monkeypatch):
        x = self.TALL
        errs = tt_module._right_r_sweep(
            np.ones((1, 1)), [[c] for c in x.cores], 0, 1e-5)[2]
        cuts = []
        basis = tt_module._truncated_basis

        def spy(w, tau):
            cuts.append(tau)
            return basis(w, tau)

        monkeypatch.setattr(tt_module, "_truncated_basis", spy)
        tt_round(x, 1e-5)
        tau = 1e-5 * tt_norm(x) / np.sqrt(2)
        slack = errs[1] * np.vdot(x.cores[0], x.cores[0])
        assert 1e-6 * tau**2 < slack <= tau**2 / 4
        assert cuts == [pytest.approx(np.sqrt(tau**2 - slack), rel=1e-7),
                        pytest.approx(tau, rel=1e-7)]

    def test_gram_error_is_carried_left(self):
        # d = 4: only core 2's unfolding (8 x 4096) is tall, and its Gram
        # error reaches bond 0 through core 1.
        x = rand_vec((16, 4, 512, 8), (1, 8, 8, 8, 1), seed=28)
        _, _, errs = tt_module._right_r_sweep(
            np.ones((1, 1)), [[c] for c in x.cores], 0, 1e-3)
        assert errs[3] == 0.0 and errs[2] > 0.0
        assert errs[1] == pytest.approx(
            np.vdot(x.cores[1], x.cores[1]) * errs[2])

    def test_cancelling_term_falls_back_on_geqrf(self, factor_calls):
        tt_round(self.CANCELLING, 1e-5)
        gram = factor_calls.index(("eigh", (15, 15)))
        assert factor_calls.index(("qr", "r", (4096, 15))) > gram


class TestInners:
    """tt_inners: every <x_j, y>, one tt_inner sweep per term."""

    @settings(max_examples=200, deadline=None)
    @given(scaled_terms(), st.integers(0, 2**32 - 1))
    def test_matches_dense_and_tensordot_sweep(self, case, seed):
        xs, _ = case
        r = np.random.default_rng(seed)
        y = rand_vec(xs[0].modes, [1, *r.integers(1, 5, size=xs[0].d - 1), 1],
                     seed=seed)
        got = tt_inners(xs, y)
        dense_y = tt_to_dense(y)
        for g, x in zip(got, xs):
            dense_x = tt_to_dense(x)
            scale = np.linalg.norm(dense_x) * np.linalg.norm(dense_y)
            assert abs(g - np.vdot(dense_x, dense_y)) <= 1e-13 * scale
            assert abs(g - tt_inner_tensordot(x, y)) <= 1e-13 * scale
        assert got.shape == (len(xs),)

    @pytest.mark.parametrize("modes, count, max_rank",
                             [((31, 31, 31), 25, 60),
                              ((5, 15, 15, 15), 6, 56)],
                             ids=["31^3", "5x15^3"])
    def test_bench_sizes_match_tensordot_sweep(self, modes, count,
                                                max_rank):
        # Basis-sized terms, as the MGS sweeps of the bench workloads see.
        r = np.random.default_rng(len(modes))
        d = len(modes)
        y = rand_vec(modes, [1, *r.integers(1, max_rank + 1, d - 1), 1],
                     seed=100)
        xs = [rand_vec(modes, [1, *r.integers(1, max_rank + 1, d - 1), 1],
                       seed=j)
              for j in range(count)]
        xs[0] = rand_vec(modes, [1] + [max_rank] * (d - 1) + [1], seed=99)
        got = tt_inners(xs, y)
        assert got.shape == (count,)
        for g, x in zip(got, xs):
            scale = tt_norm(x) * tt_norm(y)
            assert abs(g - tt_inner_tensordot(x, y)) <= 1e-13 * scale

    def test_inner_is_the_one_term_sweep(self):
        x = rand_vec((3, 4, 5), (1, 2, 3, 1), seed=3)
        y = rand_vec((3, 4, 5), (1, 3, 2, 1), seed=4)
        assert tt_inner(x, y) == tt_inners([x], y)[0]

    def test_empty(self):
        got = tt_inners([], tt_ones((2, 3)))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            tt_inners([tt_ones((2, 3)), tt_ones((3, 2))], tt_ones((2, 3)))
        with pytest.raises(ModeMismatchError):
            tt_inner(tt_ones((2, 3)), tt_ones((2, 4)))


class TestOperator:
    def test_apply_rank_product(self):
        a = rand_op((4, 4, 4), (4, 4, 4), (1, 2, 2, 1))
        x = rand_vec((4, 4, 4), (1, 3, 4, 1))
        assert tt_apply(a, x).ranks == (1, 6, 8, 1)

    def test_identity_apply(self):
        x = rand_vec((3, 4, 5), (1, 2, 2, 1))
        y = tt_apply(tt_identity_operator((3, 4, 5)), x)
        np.testing.assert_allclose(tt_to_dense(y), tt_to_dense(x),
                                   atol=1e-13)

    def test_apply_matches_dense(self):
        a = rand_op((3, 4, 5), (5, 4, 3), (1, 2, 3, 1))
        x = rand_vec((5, 4, 3), (1, 2, 2, 1))
        ref = tt_op_to_dense(a) @ tt_to_dense(x).ravel()
        got = tt_to_dense(tt_apply(a, x)).ravel()
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_apply_mode_mismatch(self):
        a = rand_op((3, 3), (4, 4), (1, 2, 1))
        with pytest.raises(ModeMismatchError):
            tt_apply(a, rand_vec((3, 3), (1, 2, 1)))

    def test_compose_rank_product(self):
        a = rand_op((4, 4), (4, 4), (1, 2, 1))
        b = rand_op((4, 4), (4, 4), (1, 3, 1))
        assert tt_op_compose(a, b).ranks == (1, 6, 1)

    def test_compose_identity(self):
        a = rand_op((3, 4), (4, 3), (1, 2, 1))
        c = tt_op_compose(a, tt_identity_operator((4, 3)))
        np.testing.assert_allclose(tt_op_to_dense(c), tt_op_to_dense(a),
                                   atol=1e-12)

    def test_compose_matches_dense_square(self):
        # d=1 operator squared equals the dense matrix square
        m = rng.standard_normal((5, 5))
        a = tt_op_from_factors([m])
        c = tt_op_compose(a, a)
        np.testing.assert_allclose(tt_op_to_dense(c), m @ m, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_apply_matches_loop_oracle(self, d):
        rows, cols = (3, 2, 4, 2)[:d], (2, 4, 1, 3)[:d]
        a = rand_op(rows, cols, (1, 2, 3, 2)[:d] + (1,), seed=d)
        x = rand_vec(cols, (1, 3, 2, 2)[:d] + (1,), seed=10 + d)
        y = tt_apply(a, x)
        assert y.ranks == tuple(p * q for p, q in zip(a.ranks, x.ranks))
        ref = dense_op_from_cores(a.cores) @ dense_from_cores(x.cores).ravel()
        got = dense_from_cores(y.cores).ravel()
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.linalg.norm(ref))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_compose_matches_loop_oracle(self, d):
        rows, mid, cols = (3, 2, 1, 2)[:d], (2, 3, 2, 2)[:d], (1, 2, 3, 2)[:d]
        a = rand_op(rows, mid, (1, 2, 3, 2)[:d] + (1,), seed=d)
        b = rand_op(mid, cols, (1, 3, 2, 2)[:d] + (1,), seed=10 + d)
        c = tt_op_compose(a, b)
        assert c.ranks == tuple(p * q for p, q in zip(a.ranks, b.ranks))
        assert (c.row_modes, c.col_modes) == (rows, cols)
        ref = dense_op_from_cores(a.cores) @ dense_op_from_cores(b.cores)
        np.testing.assert_allclose(dense_op_from_cores(c.cores), ref,
                                   rtol=1e-12,
                                   atol=1e-12 * np.linalg.norm(ref))

    def test_op_dense_matches_loop_oracle(self):
        a = rand_op((3, 2, 3), (2, 3, 2), (1, 2, 2, 1))
        np.testing.assert_allclose(tt_op_to_dense(a),
                                   dense_op_from_cores(a.cores), atol=1e-12)


class TestRandom:
    def test_deterministic(self):
        x = tt_random((4, 4, 4), (1, 3, 3, 1), seed=42)
        y = tt_random((4, 4, 4), (1, 3, 3, 1), seed=42)
        for cx, cy in zip(x.cores, y.cores):
            np.testing.assert_array_equal(cx, cy)

    def test_unit_norm(self):
        x = tt_random((4, 5, 6), (1, 2, 3, 1), seed=0)
        assert abs(tt_norm(x) - 1.0) < 1e-12

    def test_distinct_seeds(self):
        x = tt_random((4, 4), (1, 2, 1), seed=0)
        y = tt_random((4, 4), (1, 2, 1), seed=1)
        assert tt_norm(tt_add(x, tt_scale(y, -1.0))) > 1e-3

    def test_invalid_rank_chain(self):
        with pytest.raises(RankChainError):
            tt_random((4, 4), (1, 2), seed=0)
        with pytest.raises(RankChainError):
            tt_random((4, 4), (2, 2, 1), seed=0)


class TestSlicing:
    def test_matrix_row(self):
        x = rand_vec((4, 5), (1, 3, 1))
        mat = tt_to_dense(x)
        for ell in range(1, 5):
            row = tt_to_dense(tt_slice_first_mode(x, ell))
            np.testing.assert_allclose(row, mat[ell - 1], atol=1e-13)

    def test_norm_decomposition(self):
        x = rand_vec((5, 4, 4), (1, 3, 2, 1))
        total = sum(tt_norm(tt_slice_first_mode(x, ell))**2
                    for ell in range(1, 6))
        assert abs(total - tt_norm(x)**2) <= 1e-11 * tt_norm(x)**2

    @settings(max_examples=60, deadline=None)
    @given(inflated_sums())
    def test_first_mode_norms_match_sliced_norms(self, x):
        norms = tt_first_mode_norms(x)
        sliced = [tt_norm(tt_slice_first_mode(x, ell))
                  for ell in range(1, x.modes[0] + 1)]
        nrm = tt_norm(x)
        np.testing.assert_allclose(norms, sliced, rtol=0, atol=1e-12 * nrm)
        assert abs(np.linalg.norm(norms) - nrm) <= 1e-12 * nrm

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_first_mode_norms_under_cancellation(self, d):
        # slices of a tiny difference of two large, nearly equal tensors:
        # z = (x + 1e-9 w) - x has the slice norms of 1e-9 w
        modes = (4,) + (3,) * (d - 1)
        x = rand_vec(modes, (1,) + (3,) * (d - 1) + (1,), seed=1)
        w = rand_vec(modes, (1,) * (d + 1), seed=2)
        z = tt_add(x, tt_scale(w, 1e-9), tt_scale(x, -1.0))
        exact = 1e-9 * np.linalg.norm(
            tt_to_dense(w).reshape(modes[0], -1), axis=1)
        tol = 1e-6 * np.linalg.norm(exact)
        np.testing.assert_allclose(tt_first_mode_norms(z), exact, rtol=0,
                                   atol=tol)
        sliced = [tt_norm(tt_slice_first_mode(z, ell))
                  for ell in range(1, modes[0] + 1)]
        np.testing.assert_allclose(tt_first_mode_norms(z), sliced, rtol=0,
                                   atol=tol)
        # the same difference, swept term by term
        np.testing.assert_allclose(
            tt_first_mode_norms(x, w, x, coeffs=(1.0, 1e-9, -1.0)), exact,
            rtol=0, atol=tol)

    def test_out_of_range(self):
        x = rand_vec((4, 4), (1, 2, 1))
        with pytest.raises(IndexError):
            tt_slice_first_mode(x, 0)
        with pytest.raises(IndexError):
            tt_slice_first_mode(x, 5)

    def test_op_diag_slice_identity_kron(self):
        from ttkrylov.operators import kron_leading_identity
        c = rand_op((4, 4), (4, 4), (1, 2, 1))
        a = kron_leading_identity(3, c)
        for ell in (1, 2, 3):
            s = tt_op_diag_slice(a, ell)
            np.testing.assert_allclose(tt_op_to_dense(s), tt_op_to_dense(c),
                                       atol=1e-13)

    def test_op_diag_slice_rejects_dense_first_core(self):
        a = rand_op((3, 3, 4), (3, 3, 4), (1, 2, 2, 1))
        with pytest.raises(TTError):
            tt_op_diag_slice(a, 1)


class TestStorage:
    def test_rank_one_counts(self):
        x = rand_vec((4, 4, 4), (1, 1, 1, 1))
        st = storage_stats(x)
        assert st.tt_entries == 12
        assert st.dense_entries == 64
        assert st.compression_ratio == 12 / 64

    def test_hand_sum(self):
        x = rand_vec((5, 6, 7), (1, 3, 2, 1))
        st = storage_stats(x)
        assert st.tt_entries == 1 * 5 * 3 + 3 * 6 * 2 + 2 * 7 * 1
        assert st.max_rank == 3

    def test_operator_dense_count(self):
        a = rand_op((3, 4), (5, 2), (1, 2, 1))
        st = storage_stats(a)
        assert st.dense_entries == (3 * 5) * (4 * 2)
