"""Batch experiment harness: declarative configs in, CSV/JSON histories out.

Config files are flat ``key = value`` text (# comments allowed); every value
can be overridden from the command line with ``--set key=value``.  The
experiments are the rows of one table, ``EXPERIMENTS``.  A row's builder
returns the systems it solves; run_experiment solves each one with the
restarted driver and writes its convergence trace and optional bound
report, then one manifest for the run.  A key that is set but that the
experiment does not read draws a warning.  The process exits nonzero when
a judged experiment has a solve that did not converge; relaxed-compare is
not judged, since both of its solves run to a rounding floor below any
reachable backward error and succeed once they ran.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .diagnostics import verify_bounds
from .operators import (
    Grid1D,
    ParamSet,
    all_in_one_rhs,
    convection_diffusion_problem,
    default_addend_count,
    heat_parametrized_problem,
    inv_laplacian_preconditioner,
    kron_leading_identity,
    laplacian_eigen_rhs,
    multi_rhs_problem,
    parametric_convection_diffusion_problem,
    poisson_problem,
    tt_laplacian,
)
from .solver import (
    GmresConfig,
    OperatorChain,
    estimate_l2_norm,
    tt_right_gmres,
)
from .tt import TTError

TRACE_COLUMNS = ("iter", "eta_b", "eta_Ab", "eta_AMb", "eta_tilde_b",
                 "lsq_residual", "true_residual", "max_rank_v", "max_rank_x",
                 "cr_last_vec", "cr_basis", "delta_used")
BOUND_COLUMNS = ("iter", "ell", "eta_b_slice", "eta_Ab_slice", "rho_ell",
                 "rho_star", "psi_ell")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclasses.dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    n: int = 15
    d: int = 3
    p: int = 0
    m: int = 25
    epsilon: float = 1e-5
    delta: float = 1e-5
    maxit: int = 100
    q: int = 0                 # 0: default round(n / 4) when preconditioned
    tau: float = 1e-2
    precondition: bool = False
    seed: int = 0
    output: str = "run"
    format: str = "csv"
    j: int = 10                # eigen-rhs: eigenvector count of the slow rhs
    rank_cap: int = 8          # multi-rhs perturbation rank cap
    bounds: bool = False       # evaluate the per-slice bound report
    assembly_every: int = 1
    plateau_window: int = 0

    def validate(self) -> list[str]:
        """Raise ConfigError on invalid fields, return warnings."""
        warnings = []
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: unknown value {self.experiment!r}; pick one of "
                + ", ".join(EXPERIMENTS))
        spec = EXPERIMENTS[self.experiment]
        if self.n < 2:
            raise ConfigError("n: must be >= 2")
        if self.d != 3 and self.experiment != "poisson":
            raise ConfigError("d: only d=3 problem builders are available")
        if spec.stacked and self.p < 1:
            raise ConfigError(
                f"p: required (>= 1) for experiment {self.experiment}")
        # The bound report needs stacked slices; failing here saves the
        # whole solve that would precede the error.
        if self.bounds and not spec.stacked:
            raise ConfigError(
                f"bounds: experiment {self.experiment} stacks no systems")
        if self.experiment == "eigen-rhs" and self.j < 1:
            raise ConfigError("j: must be >= 1 for eigen-rhs")
        if self.format not in ("csv", "json"):
            raise ConfigError("format: must be csv or json")
        # Solver fields are checked here, before any operator is built.
        self.gmres_config()
        if self.delta > self.epsilon:
            warnings.append(
                "delta > epsilon: the rounding accuracy should be chosen "
                "lower or equal than the GMRES target accuracy")
        unread = self._unread_keys(spec)
        for f in dataclasses.fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                warnings.append(f"{f.name}: not read by experiment "
                                f"{self.experiment}; the value is ignored")
        return warnings

    def _unread_keys(self, spec) -> set[str]:
        """Keys that the run of this experiment never reads."""
        # No builder reads d yet: every problem is 3-d.
        unread = {"d", "j", "rank_cap"} - set(spec.reads)
        if not spec.stacked:
            unread.add("p")
        if spec.full:
            unread.add("m")
        if not self.precondition:
            unread |= {"q", "tau"}
        if spec.run is not None:              # solves nothing
            unread |= {"m", "epsilon", "delta", "maxit", "assembly_every",
                       "plateau_window", "precondition", "q", "tau"}
        return unread

    def gmres_config(self, **overrides) -> GmresConfig:
        """Solver settings of the run; a full-GMRES experiment restarts
        only after maxit iterations (m = maxit)."""
        m = self.maxit if EXPERIMENTS[self.experiment].full else self.m
        base = dict(m=m, epsilon=self.epsilon, delta=self.delta,
                    maxit=self.maxit, seed=self.seed,
                    assembly_every=self.assembly_every,
                    plateau_window=self.plateau_window)
        base.update(overrides)
        try:
            return GmresConfig(**base)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_BOOL_FIELDS = {"precondition", "bounds"}
_INT_FIELDS = {"n", "d", "p", "m", "maxit", "q", "seed", "j", "rank_cap",
               "assembly_every", "plateau_window"}
_FLOAT_FIELDS = {"epsilon", "delta", "tau"}


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value format into a dict of strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = val
    return out


def build_config(pairs: dict) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {}
    for key, val in pairs.items():
        if key not in fields:
            raise ConfigError(f"{key}: unknown configuration key")
        if key in _BOOL_FIELDS:
            if val not in ("0", "1", "true", "false"):
                raise ConfigError(f"{key}: expected 0/1/true/false")
            kwargs[key] = val in ("1", "true")
        elif key in _INT_FIELDS:
            try:
                kwargs[key] = int(val)
            except ValueError:
                raise ConfigError(f"{key}: expected an integer, got {val!r}")
        elif key in _FLOAT_FIELDS:
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise ConfigError(f"{key}: expected a number, got {val!r}")
        else:
            kwargs[key] = val
    if "experiment" not in kwargs:
        raise ConfigError("experiment: required key is missing")
    return ExperimentConfig(**kwargs)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _trace_rows(trace):
    for r in trace:
        yield (r.k, r.eta_b, r.eta_Ab, r.eta_AMb, r.eta_tilde_b,
               r.lsq_residual, r.true_residual, r.max_rank_v, r.max_rank_x,
               r.cr_last_vec, r.cr_basis, r.delta_used)


def _write_table(prefix: Path, name: str, columns, rows, fmt: str,
                 head: dict, rows_key: str = "rows") -> Path:
    """Write `rows` to ``<prefix>_<name>.csv`` under a header of `columns`,
    or to ``<prefix>_<name>.json``: the `head` entries, then the rows as
    dicts keyed by column under `rows_key`."""
    path = prefix.with_name(f"{prefix.name}_{name}.{fmt}")
    with open(path, "w") as f:
        if fmt == "csv":
            f.write(",".join(columns) + "\n")
            for row in rows:
                f.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            payload = {**head,
                       rows_key: [dict(zip(columns, row)) for row in rows]}
            json.dump(payload, f, indent=1, default=_json_float)
    return path


def emit_trace(outcome, report, prefix: Path, fmt: str) -> list[Path]:
    """Write the convergence trace (and bound report) next to `prefix`."""
    written = [_write_table(
        prefix, "trace", TRACE_COLUMNS, _trace_rows(outcome.trace), fmt,
        {"converged": outcome.converged, "iterations": outcome.iterations,
         "estimated_opnorm": outcome.estimated_opnorm}, rows_key="trace")]
    if report is not None:
        rows = []
        for k in range(report.iterations):
            for ell in range(report.p):
                rows.append((k + 1, ell + 1,
                             report.eta_b_slice[k][ell],
                             report.eta_Ab_slice[k][ell],
                             report.rho_ell[k][ell],
                             report.rho_star[k],
                             report.psi_ell[k][ell]))
        written.append(_write_table(
            prefix, "bounds", BOUND_COLUMNS, rows, fmt,
            {"ell_min": report.ell_min, "ell_max": report.ell_max,
             "nu": report.nu, "k_star": report.k_star,
             "selector": report.selector,
             "violations": report.violations}))
    return written


def _json_float(x):
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


@contextlib.contextmanager
def _phase(phases: dict, name: str):
    """Add the wall time of the block to phases[name]."""
    t0 = time.time()
    yield
    phases[name] = phases.get(name, 0.0) + time.time() - t0


def _preconditioner(cfg: ExperimentConfig, g: Grid1D):
    """The 3-d inverse-Laplacian preconditioner, or None."""
    if not cfg.precondition:
        return None
    q = cfg.q if cfg.q > 0 else default_addend_count(cfg.n)
    return inv_laplacian_preconditioner(3, g, q, cfg.tau)


def run_experiment(cfg: ExperimentConfig, out_dir: Path | None = None):
    """Build, solve, diagnose and write one experiment; returns the manifest.

    The manifest's "solves" maps each system's output suffix to whether
    that solve converged.
    """
    warnings = cfg.validate()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    t_start = time.time()
    stamp_start = time.strftime("%Y-%m-%dT%H:%M:%S")
    out_dir = Path(out_dir) if out_dir is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = out_dir / cfg.output
    phases = {}
    files: list[Path] = []
    solves = {}
    spec = EXPERIMENTS[cfg.experiment]
    g = Grid1D(cfg.n, *spec.interval)

    if spec.run is not None:
        files.extend(spec.run(cfg, g, prefix, phases))
    else:
        with _phase(phases, "build"):
            systems = spec.build(cfg, g)
            precond = _preconditioner(cfg, g)
        for suffix, operator, rhs, overrides in systems:
            # A stacked system holds its copies along the leading mode; the
            # 3-d preconditioner acts on each of them.
            m = precond
            if precond is not None and rhs.d > 3:
                with _phase(phases, "build"):
                    m = kron_leading_identity(rhs.modes[0], precond)

            with _phase(phases, "solve"):
                gcfg = cfg.gmres_config(keep_iterates=cfg.bounds,
                                        **overrides)
                outcome = tt_right_gmres(operator, m, rhs, None, gcfg)
            solves[suffix] = outcome.converged

            report = None
            if cfg.bounds:
                with _phase(phases, "diagnose"):
                    chain = [operator] if m is None else [operator, m]
                    report = verify_bounds(OperatorChain(chain), rhs,
                                           outcome.iterates,
                                           outcome.estimated_opnorm,
                                           seed=cfg.seed)

            with _phase(phases, "write"):
                files.extend(emit_trace(outcome, report,
                                        prefix.with_name(prefix.name + suffix),
                                        cfg.format))

    manifest = {
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "started": stamp_start,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "wall_clock": phases,
        "total_seconds": time.time() - t_start,
        "converged": all(solves.values()) or not spec.judged,
        "solves": solves,
        "files": [str(f) for f in files],
    }
    mpath = prefix.with_name(prefix.name + "_manifest.json")
    with open(mpath, "w") as f:
        json.dump(manifest, f, indent=1, default=_json_float)
    manifest["manifest_path"] = str(mpath)
    return manifest


def _run_prec_sweep(cfg: ExperimentConfig, g: Grid1D, prefix: Path, phases):
    """Preconditioner q/tau sweep: max TT-rank and sampled |A M|_2."""
    qs = (2, 8, 16, 32, 64)
    taus = (1e-2, 1e-8)
    with _phase(phases, "build"):
        a = tt_laplacian(3, g, negate=True)
        rows = []
        for tau in taus:
            for q in qs:
                m = inv_laplacian_preconditioner(3, g, q, tau)
                est = estimate_l2_norm(OperatorChain([a, m]), seed=cfg.seed)
                rows.append((q, tau, m.max_rank, est))
    with _phase(phases, "write"):
        path = _write_table(prefix, "sweep",
                            ("q", "tau", "max_rank", "opnorm_AM"), rows,
                            cfg.format, {})
    return [path]


def _single(instance):
    return [("", instance.operator, instance.rhs, {})]


def _eigen_rhs_systems(cfg: ExperimentConfig, g: Grid1D):
    """A single eigenvector rhs stacked with a sum of j of them, and the
    slow (sum) system alone so the traces can be compared."""
    a = tt_laplacian(3, g, negate=True)
    fast = laplacian_eigen_rhs(g, [(1, 1, 1)])
    slow = laplacian_eigen_rhs(g, [(l, l, l) for l in range(2, cfg.j + 2)])
    return [("", kron_leading_identity(2, a), all_in_one_rhs([fast, slow]),
             {}),
            ("_slow", a, slow, {})]


def _relaxed_compare_systems(cfg: ExperimentConfig, g: Grid1D):
    """Constant-delta control versus the relaxed policy on the same system,
    both aimed below the rounding floor; a plateau stops the control."""
    instance = convection_diffusion_problem(g)
    return [("_constant", instance.operator, instance.rhs,
             {"epsilon": 1e-15, "plateau_window": cfg.plateau_window or 4}),
            ("_relaxed", instance.operator, instance.rhs,
             {"epsilon": 1e-15, "rounding_policy": "relaxed"})]


class _Experiment(NamedTuple):
    """One row of the experiment table.

    ``build(cfg, grid)`` returns the systems of the row, a list of
    (output suffix, operator, rhs, solver overrides); run_experiment solves
    each with the restarted driver, right-preconditioned when the config
    asks for it, and writes its trace under the output name plus the
    suffix.  ``run(cfg, grid, prefix, phases)`` serves a row that solves
    nothing and returns the files it wrote.  A judged row succeeds when
    every solve converged, an unjudged one once its solves ran.
    """

    interval: tuple[float, float]      # grid end points
    stacked: bool = False              # p systems along the leading mode
    build: Callable | None = None
    run: Callable | None = None
    full: bool = False                 # solves with full GMRES: m = maxit
    judged: bool = True                # the exit code reports convergence
    reads: tuple[str, ...] = ()        # row-specific keys: j, rank_cap


_UNIT = (0.0, 1.0)
_CENTRED = (-1.0, 1.0)

# Public builders are called through lambdas or helpers so that they are
# looked up by their module-global names at call time, as run_experiment's
# own calls are.
EXPERIMENTS = {
    "poisson": _Experiment(
        _UNIT, build=lambda cfg, g: _single(poisson_problem(g))),
    "convdiff": _Experiment(
        _CENTRED,
        build=lambda cfg, g: _single(convection_diffusion_problem(g))),
    "param-convdiff": _Experiment(
        _CENTRED, stacked=True,
        build=lambda cfg, g: _single(parametric_convection_diffusion_problem(
            g, ParamSet.log_spaced(cfg.p)))),
    "heat-param": _Experiment(
        _CENTRED, stacked=True,
        build=lambda cfg, g: _single(heat_parametrized_problem(
            g, ParamSet.uniform(cfg.p)))),
    "multi-rhs-poisson": _Experiment(
        _UNIT, stacked=True, reads=("rank_cap",),
        build=lambda cfg, g: _single(multi_rhs_problem(
            poisson_problem(g), cfg.p, cfg.rank_cap, cfg.seed))),
    "multi-rhs-convdiff": _Experiment(
        _CENTRED, stacked=True, reads=("rank_cap",),
        build=lambda cfg, g: _single(multi_rhs_problem(
            convection_diffusion_problem(g), cfg.p, cfg.rank_cap, cfg.seed))),
    "eigen-rhs": _Experiment(
        _UNIT, build=_eigen_rhs_systems, full=True, reads=("j",)),
    "prec-sweep": _Experiment(_UNIT, run=_run_prec_sweep),
    "relaxed-compare": _Experiment(
        _CENTRED, build=_relaxed_compare_systems, full=True, judged=False),
}


def presets_dir() -> Path:
    return Path(__file__).parent / "presets"


def _resolve_config(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    candidate = presets_dir() / f"{arg}.cfg"
    if candidate.exists():
        return candidate
    raise ConfigError(f"config {arg!r}: no such file or preset")


def _run_one(args_tuple):
    path_str, overrides, out_dir, fmt = args_tuple
    pairs = parse_config_text(Path(path_str).read_text())
    pairs.update(overrides)
    if fmt:
        pairs["format"] = fmt
    cfg = build_config(pairs)
    manifest = run_experiment(cfg, out_dir)
    return cfg.experiment, manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ttkrylov",
        description="Tensor-train GMRES experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one or more experiment configs")
    runp.add_argument("config", nargs="+",
                      help="config file path or preset name")
    runp.add_argument("--set", action="append", default=[], metavar="K=V",
                      help="override a config key")
    runp.add_argument("--output", default=".", help="output directory")
    runp.add_argument("--format", choices=("csv", "json"), default=None)
    runp.add_argument("--jobs", type=int, default=1,
                      help="run independent configs concurrently")

    sub.add_parser("presets", help="list built-in experiment presets")

    args = parser.parse_args(argv)

    if args.command == "presets":
        for path in sorted(presets_dir().glob("*.cfg")):
            head = ""
            for line in path.read_text().splitlines():
                if line.startswith("#"):
                    head = line.lstrip("# ").strip()
                    break
            print(f"{path.stem:28s} {head}")
        return 0

    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"error: --set expects key=value, got {item!r}",
                  file=sys.stderr)
            return 2
        key, val = item.split("=", 1)
        overrides[key.strip()] = val.strip()

    try:
        paths = [_resolve_config(c) for c in args.config]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = [(str(p), overrides, args.output, args.format) for p in paths]
    failures = 0
    try:
        if args.jobs > 1 and len(jobs) > 1:
            with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
                results = list(pool.map(_run_one, jobs))
        else:
            results = [_run_one(j) for j in jobs]
    except (ConfigError, TTError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for experiment, manifest in results:
        status = "converged" if manifest["converged"] else "NOT CONVERGED"
        print(f"{experiment}: {status} "
              f"({manifest['total_seconds']:.1f}s, "
              f"files: {', '.join(manifest['files'])})")
        if not manifest["converged"]:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
