import sys

import numpy as np
import pytest

from ttkrylov import (tt_op_diag_slice, tt_op_to_dense, tt_slice_first_mode,
                      tt_to_dense)
from ttkrylov import solver
from ttkrylov.diagnostics import BoundParams, backward_errors, verify_bounds
from ttkrylov.operators import (
    Grid1D,
    ParamSet,
    all_in_one_rhs,
    convection_diffusion_problem,
    inv_laplacian_preconditioner,
    kron_leading_identity,
    parametric_convection_diffusion_problem,
)
from ttkrylov.solver import (NORM_SAMPLES, GmresConfig, OperatorChain,
                             tt_right_gmres)
from ttkrylov import tt as tt_module
from ttkrylov.tt import tt_norm, tt_scale

from oracles import spy_judged_iterates

P = 2
N = 3


def assert_close(actual, desired):
    # The TT residual is formed after roundings at working precision, so
    # near convergence it agrees with the dense one only to an absolute
    # level of about 1e-13 |A| |x|.
    np.testing.assert_allclose(actual, desired, rtol=1e-9, atol=1e-11)


@pytest.fixture(scope="module", params=[False, True],
                ids=["plain", "preconditioned"])
def solved(request):
    """Param-convdiff (n = 3, p = 2) solve with its iterates, and the dense
    operator of the system the iterates belong to (A, or A M)."""
    g = Grid1D(N, -1.0, 1.0)
    prob = parametric_convection_diffusion_problem(g, ParamSet.log_spaced(P))
    factors = [prob.operator]
    if request.param:
        factors.append(kron_leading_identity(
            P, inv_laplacian_preconditioner(3, g, 2, 1e-2)))
    chain = OperatorChain(factors)
    cfg = GmresConfig(m=40, maxit=40, epsilon=1e-9, delta=1e-12,
                      judge_every_step=True)
    with pytest.MonkeyPatch.context() as mp:
        iterates = spy_judged_iterates(mp)
        out = tt_right_gmres(prob.operator,
                             factors[1] if request.param else None,
                             prob.rhs, cfg)
    assert out.converged and len(iterates) >= 3
    dense = tt_op_to_dense(factors[0])
    for f in factors[1:]:
        dense = dense @ tt_op_to_dense(f)
    return chain, prob.rhs, iterates, dense


def judged(chain, b, iterates, opnorm):
    """The iterates' judgements at |A| = opnorm, as verify_bounds reads
    them."""
    return [backward_errors(chain, x, b, opnorm) for x in iterates]


def _dense_slice(dense, ell):
    """Block (ell, ell) of an operator acting on p stacked systems."""
    k = dense.shape[0] // P
    blocks = dense.reshape(P, k, P, k)
    return blocks[ell, :, ell, :]


def test_backward_errors_match_dense(solved):
    chain, b, iterates, a = solved
    bd = tt_to_dense(b).ravel()
    opnorm = np.linalg.norm(a, 2)
    for x in iterates:
        xd = tt_to_dense(x).ravel()
        r = np.linalg.norm(a @ xd - bd)
        be = backward_errors(chain, x, b, opnorm)
        assert_close(be.residual_norm, r)
        assert_close(be.eta_b, r / np.linalg.norm(bd))
        assert_close(
            be.eta_Ab, r / (opnorm * np.linalg.norm(xd)
                            + np.linalg.norm(bd)))



def test_backward_errors_take_a_given_rhs_norm(solved):
    chain, b, iterates, a = solved
    opnorm = np.linalg.norm(a, 2)
    for x in iterates:
        assert backward_errors(chain, x, b, opnorm, tt_norm(b)) == \
            backward_errors(chain, x, b, opnorm)


@pytest.mark.parametrize("opnorm", [-1.0, np.nan])
def test_backward_errors_reject_a_bad_opnorm(solved, opnorm):
    chain, b, iterates, a = solved
    with pytest.raises(ValueError, match="^opnorm must be >= 0$"):
        backward_errors(chain, iterates[-1], b, opnorm)


def test_verify_bounds_norms_the_rhs_once(solved, monkeypatch):
    # The solve norms b once, and its judgements carry |b| into the report.
    chain, b, iterates, a = solved
    calls = []

    def spy(x):
        calls.append(x is b)
        return tt_norm(x)

    monkeypatch.setattr(solver, "tt_norm", spy)
    cfg = GmresConfig(m=40, maxit=40, epsilon=1e-9, delta=1e-12)
    verify_bounds(chain, b, tt_right_gmres(chain, None, b, cfg).judgements)
    assert sum(calls) == 1

def test_backward_errors_on_a_slice(solved):
    chain, b, iterates, a = solved
    x = iterates[-1]
    for ell in range(P):
        sub = OperatorChain([tt_op_diag_slice(f, ell + 1)
                             for f in chain.factors])
        al = _dense_slice(a, ell)
        xl = tt_to_dense(x).reshape(P, -1)[ell]
        bl = tt_to_dense(b).reshape(P, -1)[ell]
        opnorm = np.linalg.norm(al, 2)
        r = np.linalg.norm(al @ xl - bl)
        be = backward_errors(sub, tt_slice_first_mode(x, ell + 1),
                             tt_slice_first_mode(b, ell + 1), opnorm)
        assert_close(be.eta_b, r / np.linalg.norm(bl))
        assert_close(
            be.eta_Ab, r / (opnorm * np.linalg.norm(xl)
                            + np.linalg.norm(bl)))


def test_verify_bounds_matches_dense(solved):
    chain, b, iterates, a = solved
    bd = tt_to_dense(b).ravel()
    norm_a = np.linalg.norm(a, 2)
    norm_ainv = np.linalg.norm(np.linalg.inv(a), 2)
    report = verify_bounds(chain, b, judged(chain, b, iterates, norm_a),
                           opnorm_Ainv=norm_ainv)
    assert report.violations == []
    assert report.p == P and report.iterations == len(iterates)

    xs = [tt_to_dense(x).ravel() for x in iterates]
    for k, xd in enumerate(xs):
        r = np.linalg.norm(a @ xd - bd)
        assert_close(report.eta_b[k], r / np.linalg.norm(bd))
        assert_close(
            report.eta_Ab[k],
            r / (norm_a * np.linalg.norm(xd) + np.linalg.norm(bd)))

    for ell in range(P):
        al = _dense_slice(a, ell)
        bl = bd.reshape(P, -1)[ell]
        xls = [xd.reshape(P, -1)[ell] for xd in xs]
        res = [np.linalg.norm(al @ xl - bl) for xl in xls]
        assert_close(
            [report.eta_b_slice[k][ell] for k in range(len(xs))],
            np.array(res) / np.linalg.norm(bl))
        # eta_Ab_slice uses one sampled slice norm for every iterate; it
        # must lie between the iterates' Rayleigh quotients and |A_l|_2.
        bn = np.linalg.norm(bl)
        est = [(report.eta_b_slice[k][ell] * bn / report.eta_Ab_slice[k][ell]
                - bn) / np.linalg.norm(xls[k]) for k in range(len(xs))]
        np.testing.assert_allclose(est, est[0], rtol=1e-9)
        rayleigh = max(np.linalg.norm(al @ xl) / np.linalg.norm(xl)
                       for xl in xls)
        assert rayleigh * (1 - 1e-9) <= est[0]
        assert est[0] <= np.linalg.norm(al, 2) * (1 + 1e-9)

    kappa = np.linalg.cond(a, 2)
    assert report.nu < 2.0
    assert_close(
        BoundParams(p=P, nu=report.nu, opnorm_A=norm_a, opnorm_A0=norm_a,
                    opnorm_Ainv=norm_ainv).kappa2, kappa)
    assert_close(report.rho_dagger,
                 np.sqrt(P) * (1 + kappa) / (2 - report.nu))


def test_slice_residuals_add_up_to_the_joint_residual(solved):
    # The slice residuals are exact slices of the one joint residual, so
    # their norms add up to its norm to the accuracy of the norms alone.
    chain, b, iterates, a = solved
    report = verify_bounds(chain, b, judged(chain, b, iterates,
                                            np.linalg.norm(a, 2)))
    bnorm = tt_norm(b)
    b_slice_norms = np.array([tt_norm(tt_slice_first_mode(b, ell + 1))
                              for ell in range(P)])
    for k in range(len(iterates)):
        slices = np.array(report.eta_b_slice[k]) * b_slice_norms
        gap = abs(np.sqrt(np.sum(slices ** 2)) - report.eta_b[k] * bnorm)
        assert gap <= 1e-15 * bnorm


def test_verify_bounds_applies_no_slice_chain(solved, monkeypatch):
    # The judgements hold every product; only the sampled slice-norm
    # estimates apply a chain.
    chain, b, iterates, a = solved
    judgements = judged(chain, b, iterates, np.linalg.norm(a, 2))
    calls = []
    apply = OperatorChain.apply

    def counted(self, x, delta=None):
        calls.append(self)
        return apply(self, x, delta)

    monkeypatch.setattr(OperatorChain, "apply", counted)
    verify_bounds(chain, b, judgements)
    assert len(calls) == P * NORM_SAMPLES


@pytest.mark.parametrize("preconditioned", [False, True],
                         ids=["plain", "preconditioned"])
def test_report_judges_as_the_trace_did(preconditioned):
    # At the solver's tau, the report's joint eta is the trace's eta.
    g = Grid1D(N, -1.0, 1.0)
    prob = parametric_convection_diffusion_problem(g, ParamSet.log_spaced(P))
    precond = kron_leading_identity(
        P, inv_laplacian_preconditioner(3, g, 2, 1e-2)) \
        if preconditioned else None
    cfg = GmresConfig(m=40, maxit=40, epsilon=1e-6, delta=1e-8,
                      judge_every_step=True)
    out = tt_right_gmres(prob.operator, precond, prob.rhs, cfg)
    assert out.converged
    chain = OperatorChain([prob.operator] + ([precond] if precond else []))
    report = verify_bounds(chain, prob.rhs, out.judgements)
    eta = [r.eta_AMb if preconditioned else r.eta_Ab for r in out.trace]
    assert report.eta_Ab == eta
    assert report.eta_b == [r.eta_b for r in out.trace]
    assert report.violations == []


def test_verify_bounds_sweeps_each_vector_once(solved, monkeypatch):
    # The judgements hold every norm of the iterates; b is swept once, for
    # its slices, and the sampled estimates norm each sample and its image.
    chain, b, iterates, a = solved
    judgements = judged(chain, b, iterates, np.linalg.norm(a, 2))
    callers = []
    sweep = tt_module._right_r_sweep

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return sweep(*args)

    monkeypatch.setattr(tt_module, "_right_r_sweep", spy)
    verify_bounds(chain, b, judgements)
    assert callers.count("tt_first_mode_norms") == 1
    assert callers.count("tt_norm") == 2 * P * NORM_SAMPLES


@pytest.mark.parametrize("preconditioned", [False, True],
                         ids=["plain", "preconditioned"])
def test_selector_follows_the_slice_operators(preconditioned):
    g = Grid1D(N, -1.0, 1.0)
    precond = inv_laplacian_preconditioner(3, g, 2, 1e-2)
    base = convection_diffusion_problem(g)
    shared = [kron_leading_identity(P, base.operator)]
    param = parametric_convection_diffusion_problem(
        g, ParamSet.log_spaced(P))
    varied = [param.operator]
    if preconditioned:
        shared.append(kron_leading_identity(P, precond))
        varied.append(kron_leading_identity(P, precond))
    rhs = all_in_one_rhs([base.rhs, tt_scale(base.rhs, 2.0)])
    report = verify_bounds(OperatorChain(shared), rhs,
                           judged(OperatorChain(shared), rhs, [rhs], 1.0))
    assert report.selector == "gamma"
    report = verify_bounds(
        OperatorChain(varied), param.rhs,
        judged(OperatorChain(varied), param.rhs, [param.rhs], 1.0))
    assert report.selector == "upsilon"


def test_psi_check_uses_the_joint_norm_on_both_sides(monkeypatch):
    # Equal slices (b and 3b under I_2 x A): the psi bound is proved with one
    # operator norm on both sides, so it must hold at the solver's estimate
    # of |A| and at the dense 2-norm alike.
    g = Grid1D(N, -1.0, 1.0)
    base = convection_diffusion_problem(g)
    op = kron_leading_identity(2, base.operator)
    rhs = all_in_one_rhs([base.rhs, tt_scale(base.rhs, 3.0)])
    iterates = spy_judged_iterates(monkeypatch)
    cfg = GmresConfig(m=40, maxit=40, epsilon=1e-9, delta=1e-12)
    out = tt_right_gmres(op, None, rhs, cfg)
    assert out.converged
    for opnorm in (out.estimated_opnorm,
                   np.linalg.norm(tt_op_to_dense(op), 2)):
        report = verify_bounds(op, rhs, judged(op, rhs, iterates, opnorm))
        assert report.selector == "gamma"
        assert report.violations == []
