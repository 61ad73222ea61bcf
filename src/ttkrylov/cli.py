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
import ctypes
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from . import __version__
from .diagnostics import verify_bounds
from .operators import (
    Grid1D,
    ParamSet,
    all_in_one_rhs,
    convection_diffusion_problem,
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
    IterationRecord,
    OperatorChain,
    estimate_l2_norm,
    tt_right_gmres,
)
from .tt import TTError

#: IterationRecord's fields in order, with k written as iter
TRACE_COLUMNS = tuple("iter" if f.name == "k" else f.name
                      for f in dataclasses.fields(IterationRecord))
BOUND_COLUMNS = ("iter", "ell", "eta_b_slice", "eta_Ab_slice", "rho_ell",
                 "rho_star", "psi_ell")


# glibc's mallopt parameters (malloc.h) and the values set at import.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20


def _raise_malloc_thresholds() -> None:
    """Keep freed TT cores of a few MB in the heap instead of unmapping them.

    glibc serves blocks above its mmap threshold (128 KiB until a larger
    mmapped block is freed) by mmap and unmaps them on free, so each
    rounding of a large iterate faults its temporaries in afresh: the
    preconditioned conv-diff solve at n = 127 took 92,800 minor page faults
    instead of 48,000.  Fixed thresholds stop that; where the C library has
    no mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_raise_malloc_thresholds()


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclasses.dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    n: int = 15
    p: int = 0
    m: int = 25
    epsilon: float = 1e-5
    delta: float = 1e-5
    maxit: int = 100
    q: int = 0                 # preconditioner addends; 0: no preconditioner
    seed: int = 0
    output: str = "run"
    format: str = "csv"
    j: int = 10                # eigen-rhs: eigenvector count of the slow rhs
    bounds: bool = False       # per-slice bound report; judges every step

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
        if spec.stacked and self.p < 1:
            raise ConfigError(
                f"p: required (>= 1) for experiment {self.experiment}")
        # The bound report needs stacked slices; failing here saves the
        # whole solve that would precede the error.
        if self.bounds and not spec.stacked:
            raise ConfigError(
                f"bounds: experiment {self.experiment} stacks no systems")
        if self.experiment == "eigen-rhs" and not 1 <= self.j <= self.n - 1:
            raise ConfigError("j: must lie in 1..n-1 for eigen-rhs")
        if self.q < 0:
            raise ConfigError("q: must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.format not in ("csv", "json"):
            raise ConfigError("format: must be csv or json")
        # the output name prefixes files inside the output directory
        if self.output in ("", ".", "..") or any(
                sep and sep in self.output for sep in (os.sep, os.altsep)):
            raise ConfigError(
                f"output: must be a file name, got {self.output!r}")
        # Solver fields are checked here, before any operator is built; a
        # row that solves nothing reads none of them.
        if spec.run is None:
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
        unread = {"j"} - set(spec.reads)
        if not spec.stacked:
            unread.add("p")
        if spec.full:
            unread.add("m")
        if spec.run is not None:              # solves nothing
            unread |= {"m", "epsilon", "delta", "maxit", "q"}
        return unread

    def gmres_config(self, **overrides) -> GmresConfig:
        """Solver settings of the run; a full-GMRES experiment restarts
        only after maxit iterations (m = maxit) and the bound report has
        every step judged."""
        spec = EXPERIMENTS[self.experiment]
        m = self.maxit if spec.full else self.m
        base = dict(m=m, epsilon=self.epsilon, delta=self.delta,
                    maxit=self.maxit, seed=self.seed,
                    judge_every_step=self.bounds)
        base.update(overrides)
        try:
            return GmresConfig(**base)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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
    """ExperimentConfig from string values, each parsed to the type its
    field declares."""
    types = get_type_hints(ExperimentConfig)
    kwargs = {}
    for key, val in pairs.items():
        if key not in types:
            raise ConfigError(f"{key}: unknown configuration key")
        if types[key] is bool:
            if val not in ("0", "1", "true", "false"):
                raise ConfigError(f"{key}: expected 0/1/true/false")
            kwargs[key] = val in ("1", "true")
        elif types[key] is int:
            try:
                kwargs[key] = int(val)
            except ValueError:
                raise ConfigError(f"{key}: expected an integer, got {val!r}")
        elif types[key] is float:
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise ConfigError(f"{key}: expected a number, got {val!r}")
            if not np.isfinite(kwargs[key]):
                raise ConfigError(f"{key}: must be finite, got {val!r}")
        else:
            kwargs[key] = val
    if "experiment" not in kwargs:
        raise ConfigError("experiment: required key is missing")
    return ExperimentConfig(**kwargs)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_table(prefix: Path, name: str, columns, rows, fmt: str,
                 head: dict, rows_key: str = "rows") -> Path:
    """Write `rows` to ``<prefix>_<name>.csv`` under a header of `columns`,
    or to ``<prefix>_<name>.json``: the `head` entries, then the rows as
    dicts keyed by column under `rows_key`, NaN and infinities as null."""
    path = prefix.with_name(f"{prefix.name}_{name}.{fmt}")
    with open(path, "w") as f:
        if fmt == "csv":
            f.write(",".join(columns) + "\n")
            for row in rows:
                f.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            payload = {**head,
                       rows_key: [dict(zip(columns, row)) for row in rows]}
            json.dump(_jsonable(payload), f, indent=1, allow_nan=False)
    return path


def emit_trace(outcome, report, prefix: Path, fmt: str) -> list[Path]:
    """Write the convergence trace (and bound report) next to `prefix`; the
    report's rows and k_star name the trace iteration of each judgement."""
    written = [_write_table(
        prefix, "trace", TRACE_COLUMNS,
        map(dataclasses.astuple, outcome.trace), fmt,
        {"converged": outcome.converged, "iterations": outcome.iterations,
         "estimated_opnorm": outcome.estimated_opnorm}, rows_key="trace")]
    if report is not None:
        judged = [rec.k for rec in outcome.trace if not math.isnan(rec.eta_b)]
        rows = []
        for k in range(report.iterations):
            for ell in range(report.p):
                rows.append((judged[k], ell + 1,
                             report.eta_b_slice[k][ell],
                             report.eta_Ab_slice[k][ell],
                             report.rho_ell[k][ell],
                             report.rho_star[k],
                             report.psi_ell[k][ell]))
        written.append(_write_table(
            prefix, "bounds", BOUND_COLUMNS, rows, fmt,
            {"ell_min": report.ell_min, "ell_max": report.ell_max,
             "nu": report.nu, "k_star": judged[report.k_star],
             "selector": report.selector,
             "violations": report.violations}))
    return written


def _jsonable(x):
    """x with numpy scalars and arrays made Python numbers and lists, and
    NaN and infinities made None: JSON (RFC 8259) has no token for them."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (float, np.floating, np.integer)):
        return float(x) if math.isfinite(x) else None
    return x


@contextlib.contextmanager
def _phase(phases: dict, name: str):
    """Add the wall time of the block to phases[name]."""
    t0 = time.time()
    yield
    phases[name] = phases.get(name, 0.0) + time.time() - t0


PRECOND_TAU = 1e-2      # rounding accuracy of the preconditioner's sum
RANK_CAP = 8            # rank cap of the multi-rhs perturbations


def _preconditioner(cfg: ExperimentConfig, g: Grid1D):
    """The 3-d inverse-Laplacian preconditioner of q addends; None if q = 0."""
    if cfg.q == 0:
        return None
    return inv_laplacian_preconditioner(3, g, cfg.q, PRECOND_TAU)


#: environment variables that set the BLAS thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _git_commit() -> str | None:
    """HEAD of the code's git checkout; None outside one or without git."""
    import subprocess        # here, so that a run's start-up never pays it
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             cwd=Path(__file__).parent, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment() -> dict:
    """The numpy version, the BLAS numpy was built against, the BLAS
    thread variables (None where unset) and the git commit."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"),
                     "version": blas.get("version")},
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_commit": _git_commit()}


def run_experiment(cfg: ExperimentConfig, out_dir: Path | None = None):
    """Build, solve, diagnose and write one experiment; returns the manifest.

    The manifest's "solves" maps each system's output suffix to whether
    that solve converged, "bound_violations" the suffix of each solve with
    a bound report to the number of violations in it, and "environment"
    records the numpy version, the BLAS name and version, the BLAS thread
    variables and the git commit of the code (None outside a checkout).
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
    bound_violations = {}
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
            if precond is not None and precond.row_modes != rhs.modes:
                with _phase(phases, "build"):
                    m = kron_leading_identity(rhs.modes[0], precond)

            with _phase(phases, "solve"):
                outcome = tt_right_gmres(operator, m, rhs,
                                         cfg.gmres_config(**overrides))
            solves[suffix] = outcome.converged

            report = None
            if cfg.bounds:
                with _phase(phases, "diagnose"):
                    chain = [operator] if m is None else [operator, m]
                    report = verify_bounds(OperatorChain(chain), rhs,
                                           outcome.judgements, seed=cfg.seed)
                bound_violations[suffix] = len(report.violations)

            with _phase(phases, "write"):
                files.extend(emit_trace(outcome, report,
                                        prefix.with_name(prefix.name + suffix),
                                        cfg.format))

    manifest = {
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "environment": _environment(),
        "started": stamp_start,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "wall_clock": phases,
        "total_seconds": time.time() - t_start,
        "converged": all(solves.values()) or not spec.judged,
        "solves": solves,
        "bound_violations": bound_violations,
        "files": [str(f) for f in files],
    }
    mpath = prefix.with_name(prefix.name + "_manifest.json")
    with open(mpath, "w") as f:
        json.dump(_jsonable(manifest), f, indent=1, allow_nan=False)
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
    """Constant-delta control versus the relaxed policy on one system, aimed
    below the rounding floor and stopped at it by a plateau window of 4."""
    instance = convection_diffusion_problem(g)
    floor = {"epsilon": 1e-15, "plateau_window": 4}
    return [("_constant", instance.operator, instance.rhs, floor),
            ("_relaxed", instance.operator, instance.rhs,
             {**floor, "rounding_policy": "relaxed"})]


class _Experiment(NamedTuple):
    """One row of the experiment table.

    ``build(cfg, grid)`` returns the systems of the row, a list of
    (output suffix, operator, rhs, solver overrides); run_experiment solves
    each with the restarted driver, right-preconditioned when the config
    sets q >= 1, and writes its trace under the output name plus the
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
    reads: tuple[str, ...] = ()        # row-specific keys: j


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
        _UNIT, stacked=True,
        build=lambda cfg, g: _single(multi_rhs_problem(
            poisson_problem(g), cfg.p, RANK_CAP, cfg.seed))),
    "multi-rhs-convdiff": _Experiment(
        _CENTRED, stacked=True,
        build=lambda cfg, g: _single(multi_rhs_problem(
            convection_diffusion_problem(g), cfg.p, RANK_CAP, cfg.seed))),
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
                      help="run independent configs concurrently, in at "
                      "most one process per config")

    sub.add_parser("presets", help="list built-in experiment presets")

    args = parser.parse_args(argv)

    if args.command == "presets":
        try:
            for path in sorted(presets_dir().glob("*.cfg")):
                head = ""
                for line in path.read_text().splitlines():
                    if line.startswith("#"):
                        head = line.lstrip("# ").strip()
                        break
                print(f"{path.stem:28s} {head}")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has closed the pipe (``ttkrylov presets | head -1``);
            # stdout goes to devnull, so the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
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
        workers = min(args.jobs, len(jobs))
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
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
