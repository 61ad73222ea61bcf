"""Spans around the public functions of each ttkrylov module, for the traced run.

Spans are kept in memory and turned into per-layer metrics after the run.
A span's self time is its duration minus the durations of the wrapped calls
made directly inside it.  Calls between ``tt`` kernels are not wrapped: a
kernel's self time includes building its output.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

#: Kernels reported one by one; every other tt function is "tt.other".
KERNELS = ("round", "apply", "inner", "norm", "add")
PRECOND_BUILDERS = ("operators.inv_laplacian_preconditioner",
                    "operators.kron_leading_identity",
                    "operators.default_addend_count")
SOLVE = "solver.tt_right_gmres"


class Span:
    __slots__ = ("name", "parent", "phase", "t0", "t1", "child_s", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        # The phase is the outermost wrapped call below the root
        # (run_experiment): a builder, the solve, the bounds or the writer.
        if parent is None:
            self.phase = None
        else:
            self.phase = parent.phase or name
        self.child_s = 0.0
        self.info = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.t1 - self.t0 - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name, fn, info=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.t1 - span.t0
                spans.append(span)
            if info is not None:
                span.info = info(args, out)
            return out
        return traced

    def install(self, package) -> None:
        """Rebind every public function of the package's modules, in every
        module namespace that holds it (the tt module's own excepted), and
        wrap ``OperatorChain.apply``."""
        layers = {name: getattr(package, name) for name in
                  ("tt", "operators", "solver", "diagnostics", "cli")}
        for layer, module in layers.items():
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{name}", fn, _INFO.get(name))
                for holder, namespace in layers.items():
                    if holder == "tt" and layer == "tt":
                        continue
                    if getattr(namespace, name, None) is fn:
                        setattr(namespace, name, wrapped)
        chain = layers["solver"].OperatorChain
        chain.apply = self.wrap("solver.OperatorChain.apply", chain.apply)


def _shapes(x):
    """Core shapes with the mode axes fused, so operators read as vectors."""
    return [(c.shape[0], int(np.prod(c.shape[1:-1])), c.shape[-1])
            for c in x.cores]


def _qr_flops(m, n):
    big, k = max(m, n), min(m, n)
    return 4 * big * k * k - 4 * k ** 3 / 3          # factor and form Q


def _svd_flops(m, n):
    big, k = max(m, n), min(m, n)
    return 6 * big * k * k + 20 * k ** 3             # R-SVD with U and V


def round_flops(shapes_in, ranks_out) -> float:
    """Computed flop count of tt_round: right-to-left QR sweep, then
    left-to-right truncated SVD sweep, from core shapes alone."""
    d = len(shapes_in)
    modes = [s[1] for s in shapes_in]
    r = [s[0] for s in shapes_in] + [1]
    rho = list(r)                                    # ranks after the QR sweep
    flops = 0.0
    for k in range(d - 1, 0, -1):
        rho[k] = min(r[k], modes[k] * rho[k + 1])
        flops += _qr_flops(modes[k] * rho[k + 1], r[k])
        flops += 2 * r[k - 1] * modes[k - 1] * r[k] * rho[k]
    for k in range(d - 1):
        flops += _svd_flops(ranks_out[k] * modes[k], rho[k + 1])
        flops += 2 * ranks_out[k + 1] * rho[k + 1] * modes[k + 1] * rho[k + 2]
    return flops


def _round_info(args, out):
    shapes_in = _shapes(args[0])
    return {"in_rank": max(s[-1] for s in shapes_in),
            "in_entries": sum(int(np.prod(s)) for s in shapes_in),
            "out_entries": sum(c.size for c in out.cores),
            "flops": round_flops(shapes_in, out.ranks)}


def _apply_info(args, out):
    flops = sum(2 * ca.shape[0] * ca.shape[1] * ca.shape[2] * ca.shape[3]
                * cx.shape[0] * cx.shape[2]
                for ca, cx in zip(args[0].cores, args[1].cores))
    return {"out_rank": out.max_rank, "flops": float(flops)}


_INFO = {"tt_round": _round_info, "tt_apply": _apply_info}


def layer_metrics(spans, outcome, precond, report) -> dict:
    """Per-layer metrics of one traced run_experiment call."""
    run = next(s for s in spans if s.name == "cli.run_experiment")
    solve = next(s for s in spans if s.name == SOLVE and s.phase == SOLVE)
    write = next(s for s in spans if s.name == "cli.emit_trace")
    builders = [s.t1 for s in spans if s.parent is run
                and s.name.startswith("operators.")
                and s.name not in PRECOND_BUILDERS]
    build_end = max(builders, default=run.t0)
    in_solve = [s for s in spans if s.phase == SOLVE]

    m = {}
    for k in KERNELS + ("other",):
        m[f"tt.{k}.calls"] = 0
        m[f"tt.{k}.self_s"] = 0.0
    for s in in_solve:
        if not s.name.startswith("tt."):
            continue
        k = s.name[len("tt.tt_"):] if s.name.startswith("tt.tt_") else ""
        k = k if k in KERNELS else "other"
        m[f"tt.{k}.calls"] += 1
        m[f"tt.{k}.self_s"] += s.self_s
    del m["tt.other.calls"]
    rounds = [s.info for s in in_solve if s.name == "tt.tt_round"]
    applies = [s.info for s in in_solve if s.name == "tt.tt_apply"]
    m["tt.round.in_rank_max"] = max((i["in_rank"] for i in rounds), default=0)
    m["tt.round.entries_out_in"] = (
        sum(i["out_entries"] for i in rounds)
        / max(1, sum(i["in_entries"] for i in rounds)))
    m["tt.round.flops_est"] = sum(i["flops"] for i in rounds)
    m["tt.apply.out_rank_max"] = max((i["out_rank"] for i in applies),
                                     default=0)
    m["tt.apply.flops_est"] = sum(i["flops"] for i in applies)

    chain = [s for s in in_solve if s.name == "solver.OperatorChain.apply"]
    m["solver.cycles"] = outcome.meta.get("cycles", 1)
    m["solver.round_per_iter"] = m["tt.round.calls"] / max(
        1, outcome.iterations)
    m["solver.chain_apply.calls"] = len(chain)
    m["solver.chain_apply.s"] = sum(s.seconds for s in chain)
    m["solver.engine.self_s"] = sum(s.self_s for s in in_solve
                                    if s.name.startswith("solver."))
    m["solver.peak_rank_v"] = max((r.max_rank_v for r in outcome.trace),
                                  default=0)
    m["solver.opnorm_est.s"] = sum(s.seconds for s in in_solve
                                   if s.name == "solver.estimate_l2_norm")
    m["operators.build.s"] = build_end - run.t0
    m["operators.precond.s"] = solve.t0 - build_end
    m["operators.precond_rank"] = 0 if precond is None else precond.max_rank
    m["diagnostics.bounds.s"] = write.t0 - solve.t1
    m["diagnostics.bounds.violations"] = (
        0 if report is None else len(report.violations))
    m["cli.write.s"] = run.t1 - write.t0
    m["trace.solve_s"] = solve.seconds
    covered = sum(s.self_s for s in in_solve
                  if s.name.startswith(("tt.", "solver.")))
    m["trace.self_cover"] = covered / solve.seconds
    return m
