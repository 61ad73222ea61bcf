"""Workloads of the ttkrylov benchmark and what each per-layer metric should move.

Every workload is a shipped preset run through ``cli.run_experiment``, the
path ``ttkrylov run`` takes, with a few keys overridden.  The benchmark's
``--seed`` becomes the config's ``seed`` of every solve, hashed with the
solve's index (``run.config_seed``): it drives the samples of the solver's
operator-norm estimate and, through them, the stopping point.
"""

WORKLOADS = {
    # MGS- and rounding-bound with restarts: 70 iterations in 3 cycles,
    # tt_round takes most of the self time.  No preconditioner, a trivial
    # operator build and no diagnostics.
    "poisson-n31": {
        "preset": "poisson_n63",
        "set": {"n": "31"},
    },
    # The paper's all-in-one stacking (p = 5, preconditioned) with the
    # per-slice bound report; also rounding-bound, and the only workload
    # that runs diagnostics.
    "param-convdiff-bounds": {
        "preset": "param_convdiff_n15_p5",
        "set": {},
    },
    # Large modes: 3 iterations, time goes to the preconditioner build and
    # to tt_apply.  MGS and iterate assembly are almost absent, so an MGS
    # or sum-rounding change should leave it unchanged.
    "convdiff-prec-n127": {
        "preset": "convdiff_n63",
        "set": {"n": "127"},
    },
}

_ROUNDING = "solve_s on poisson-n31, and on param-convdiff-bounds"

#: Per-layer metric -> (unit, better, what it should move: end-to-end
#: metric and workload).  The traced run reports all of them on every
#: workload.  ``tt.*`` and ``solver.*`` count only work done inside the
#: ``tt_right_gmres`` call; the ``operators``, ``diagnostics`` and ``cli``
#: times are the consecutive phases of ``run_experiment`` around it.
LAYER_METRICS = {
    "tt.round.calls": ("count", "lower", _ROUNDING),
    "tt.round.self_s": ("s", "lower", _ROUNDING + "; on convdiff-prec-n127 "
                        "it rounds mat-vec outputs at n=127"),
    "tt.round.in_rank_max": ("rank", "lower", _ROUNDING),
    "tt.round.entries_out_in": ("ratio", "lower", _ROUNDING + " (entries "
                                "out over entries in, summed over calls)"),
    "tt.round.flops_est": ("flop", "lower", _ROUNDING + " (computed from "
                           "core shapes, not measured)"),
    "tt.apply.calls": ("count", "lower", "solve_s on convdiff-prec-n127"),
    "tt.apply.self_s": ("s", "lower", "solve_s on convdiff-prec-n127"),
    "tt.apply.out_rank_max": ("rank", "lower",
                              "solve_s on convdiff-prec-n127"),
    "tt.apply.flops_est": ("flop", "lower", "solve_s on convdiff-prec-n127 "
                           "(computed from core shapes, not measured)"),
    "tt.inner.calls": ("count", "lower", _ROUNDING + " (MGS)"),
    "tt.inner.self_s": ("s", "lower", _ROUNDING + "; guards 'round less', "
                        "which made tt_inner blow up"),
    "tt.norm.calls": ("count", "lower", _ROUNDING),
    "tt.norm.self_s": ("s", "lower", _ROUNDING),
    "tt.add.calls": ("count", "lower", _ROUNDING),
    "tt.add.self_s": ("s", "lower", _ROUNDING),
    "tt.other.self_s": ("s", "lower", "solve_s on every workload (all "
                        "other tt functions called by the solver)"),
    "solver.cycles": ("count", "lower", "solve_s on poisson-n31 (1 on the "
                      "other workloads)"),
    "solver.round_per_iter": ("calls/iter", "lower", _ROUNDING),
    "solver.chain_apply.calls": ("count", "lower", _ROUNDING),
    "solver.chain_apply.s": ("s", "lower", "solve_s on every workload "
                             "(inclusive of the kernels it calls)"),
    "solver.engine.self_s": ("s", "lower", "solve_s and peak_rss_mb on "
                             "poisson-n31 (solver code outside tt kernels)"),
    "solver.peak_rank_v": ("rank", "lower",
                           "solve_s and peak_rss_mb on poisson-n31"),
    "solver.opnorm_est.s": ("s", "lower", "solve_s on convdiff-prec-n127; "
                            "with iterations and eta_Ab it shows a new "
                            "norm estimate"),
    "operators.build.s": ("s", "lower", "setup_s and peak_rss_mb on "
                          "convdiff-prec-n127 (run_experiment entry to the "
                          "problem builder's return)"),
    "operators.precond.s": ("s", "lower", "setup_s on convdiff-prec-n127 "
                            "(problem builder's return to the solver call; "
                            "microseconds without a preconditioner)"),
    "operators.precond_rank": ("rank", "lower", "setup_s and peak_rss_mb on "
                               "convdiff-prec-n127 (0 without one)"),
    "diagnostics.bounds.s": ("s", "lower", "total_s on param-convdiff-bounds "
                             "(solver return to trace writing; "
                             "microseconds elsewhere)"),
    "diagnostics.bounds.violations": ("count", "lower",
                                      "pass_share on param-convdiff-bounds"),
    "cli.write.s": ("s", "lower", "total_s on every workload (trace and "
                    "manifest writing)"),
    "trace.solve_s": ("s", "lower", "the traced solve_s that the tt.* and "
                      "solver.* self times add up to"),
    "trace.self_cover": ("ratio", "higher", "1 when the tt.* and solver.* "
                         "self times account for all of trace.solve_s"),
    "trace.overhead_share": ("ratio", "lower", "traced over untraced "
                             "total_s, minus 1, in the same run"),
}

#: Left out on purpose.
NOT_MEASURED = (
    "tt_round's QR-sweep vs SVD-sweep split and the time in the solver's "
    "_accumulate: both are private and wait for in-library counters",
    "a `ttkrylov bench` subcommand: the benchmark touches no program code",
    "a d=6 Poisson workload: every layer is already covered",
)
