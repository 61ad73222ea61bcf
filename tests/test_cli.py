import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from ttkrylov import TTVector, cli, tt_round
from ttkrylov.cli import (EXPERIMENTS, TRACE_COLUMNS, ConfigError,
                          ExperimentConfig, build_config, emit_trace, main,
                          parse_config_text, presets_dir)
from ttkrylov.operators import (Grid1D, all_in_one_rhs,
                                convection_diffusion_problem,
                                inv_laplacian_preconditioner,
                                kron_leading_identity, laplacian_eigen_rhs,
                                tt_laplacian)
from ttkrylov.solver import (IterationRecord, OperatorChain,
                             relaxed_tt_gmres, tt_gmres)


def test_gmres_config_error_is_config_error():
    cfg = ExperimentConfig(experiment="poisson", m=25, maxit=10)
    with pytest.raises(ConfigError, match="maxit"):
        cfg.gmres_config()


# A string form of each declared key type and the value it parses to.
PARSED = {bool: ("true", True), int: ("3", 3), float: ("0.25", 0.25),
          str: ("x", "x")}


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_every_key_parses_to_its_declared_type(field):
    declared = get_type_hints(ExperimentConfig)[field]
    text, value = PARSED[declared]
    cfg = build_config({"experiment": "poisson", field: text})
    assert type(getattr(cfg, field)) is declared
    assert getattr(cfg, field) == value
    if declared is not str:
        message = {bool: "expected 0/1/true/false", int: "expected an integer",
                   float: "expected a number"}[declared]
        with pytest.raises(ConfigError, match=f"^{field}: {message}"):
            build_config({"experiment": "poisson", field: "1.5x"})


def test_trace_columns_follow_iteration_record():
    # trace rows are written as dataclasses.astuple of each record
    fields = tuple(f.name for f in dataclasses.fields(IterationRecord))
    assert fields[0] == "k"
    assert TRACE_COLUMNS == ("iter",) + fields[1:]


def test_malloc_thresholds_skipped_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli._raise_malloc_thresholds()


def test_invalid_solver_settings_exit_2(tmp_path, capsys):
    code = main(["run", "param_convdiff_n15_p5", "--set", "maxit=10",
                 "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == "error: maxit must be >= m"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [
    f for f, t in get_type_hints(ExperimentConfig).items() if t is float])
def test_non_finite_floats_rejected(field, value):
    with pytest.raises(ConfigError,
                       match=f"^{field}: must be finite, got '{value}'$"):
        build_config({"experiment": "poisson", field: value})


@pytest.mark.parametrize("setting", [
    "epsilon=nan", "delta=nan", "epsilon=inf"])
def test_non_finite_values_exit_2(setting, tmp_path, capsys):
    # Each of these used to run: to maxit (epsilon=nan, exit 1), with a NaN
    # cutoff and every rank 1 (delta=nan), or without an end (epsilon=inf).
    key, value = setting.split("=")
    code = main(["run", "convdiff_n63", "--set", "n=7", "--set", "m=10",
                 "--set", "maxit=10", "--set", setting,
                 "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().splitlines() == [
        f"error: {key}: must be finite, got '{value}'"]
    assert list(tmp_path.iterdir()) == []


def test_unknown_key_exits_2(tmp_path, capsys):
    code = main(["run", "poisson_n63", "--set", "d=3",
                 "--output", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: d: unknown configuration key"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("setting", [
    "assembly_every=1", "plateau_window=4", "precondition=1", "tau=1e-8",
    "rank_cap=4"])
def test_deleted_schedule_keys_exit_2(setting, tmp_path, capsys):
    # The judging schedule follows from bounds and the experiment's row, the
    # preconditioner from q >= 1; tau and the multi-rhs rank cap are
    # constants, as no experiment varies them.
    code = main(["run", "poisson_n63", "--set", setting,
                 "--output", str(tmp_path)])
    assert code == 2
    key = setting.split("=")[0]
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {key}: unknown configuration key"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("preset,setting,message", [
    ("convdiff_n63", "q=-3", "q: must be >= 0"),
    ("poisson_n63", "seed=-1", "seed: must be >= 0"),
    ("eigen_rhs_n31_j10", "j=40", "j: must lie in 1..n-1 for eigen-rhs"),
    ("poisson_n63", "output=", "output: must be a file name, got ''"),
    ("poisson_n63", "output=.", "output: must be a file name, got '.'"),
    ("poisson_n63", "output=..", "output: must be a file name, got '..'"),
    ("poisson_n63", "output=sub/x",
     "output: must be a file name, got 'sub/x'"),
])
def test_invalid_config_values_exit_2(preset, setting, message, tmp_path,
                                      capsys):
    # an output name that is not a file name would write next to the
    # output directory, or into a directory that does not exist
    beside = set(tmp_path.parent.iterdir())
    code = main(["run", preset, "--set", "n=7", "--set", setting,
                 "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == f"error: {message}"
    assert set(tmp_path.parent.iterdir()) == beside
    assert list(tmp_path.iterdir()) == []


PRESETS = sorted(p.stem for p in presets_dir().glob("*.cfg"))
SMALL = ["--set", "n=7", "--set", "p=2", "--set", "maxit=10", "--set", "m=10",
         "--set", "j=3"]
BUILDERS = ("poisson_problem", "convection_diffusion_problem",
            "parametric_convection_diffusion_problem",
            "heat_parametrized_problem", "multi_rhs_problem",
            "inv_laplacian_preconditioner", "tt_laplacian",
            "laplacian_eigen_rhs")


def load_preset(name):
    return build_config(parse_config_text(
        (presets_dir() / f"{name}.cfg").read_text()))


def test_every_experiment_key_is_set_by_a_preset():
    # A key that no shipped preset names is a knob nothing exercises; the
    # run's seed and its output name and format are per-run settings.
    named = set()
    for preset in PRESETS:
        named |= set(parse_config_text(
            (presets_dir() / f"{preset}.cfg").read_text()))
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert keys - {"seed", "output", "format"} - named == set()


def test_every_experiment_key_takes_two_values_across_presets():
    # A key that every shipped preset leaves at one value (its default
    # where the preset omits it) carries no choice and becomes a constant;
    # a row-specific key is read by its own row only.
    reads = {key for spec in EXPERIMENTS.values() for key in spec.reads}
    values = {}
    for preset in PRESETS:
        for key, value in dataclasses.asdict(load_preset(preset)).items():
            values.setdefault(key, set()).add(value)
    single = {key for key, seen in values.items() if len(seen) < 2}
    assert single - {"seed", "output", "format"} - reads == set()


@pytest.mark.parametrize("preset", PRESETS)
def test_presets_validate(preset):
    cfg = load_preset(preset)
    assert cfg.experiment in EXPERIMENTS
    assert cfg.validate() == []


def test_presets_exit_quietly_on_a_closed_pipe():
    # ``ttkrylov presets | head -1`` closes the pipe after the first line,
    # and every line after it meets a reader that has gone.  Closing the
    # read end before the listing starts makes that happen on the first
    # write, every time, where head's timing decides it.
    src = str(Path(cli.__file__).parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ttkrylov.cli", "presets"], stdout=write,
            stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("preset", [
    p for p in PRESETS if EXPERIMENTS[load_preset(p).experiment].build])
def test_preset_operators_are_at_exact_ranks(preset):
    # The operator's ranks multiply those of every product A x and the cost
    # of the roundings and norms after it, so a rank that rounding at
    # working precision drops is waste in every step of the solve.
    cfg = dataclasses.replace(load_preset(preset), n=5, p=3, j=2)
    spec = EXPERIMENTS[cfg.experiment]
    g = Grid1D(cfg.n, *spec.interval)
    ops = [op for _, op, _, _ in spec.build(cfg, g)]
    m = cli._preconditioner(cfg, g)
    if m is not None:
        ops.append(m)
    for op in ops:
        assert tt_round(op, 1e-14).ranks == op.ranks


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_smoke_every_experiment(experiment, tmp_path, capsys):
    # the first shipped preset of the experiment, shrunk
    preset = next(p for p in PRESETS
                  if load_preset(p).experiment == experiment)
    # a preconditioned preset keeps its preconditioner, with fewer addends
    q = ["--set", "q=2"] if load_preset(preset).q else []
    code = main(["run", preset, *SMALL, *q, "--set", "output=smoke",
                 "--output", str(tmp_path)])
    manifest = json.loads((tmp_path / "smoke_manifest.json").read_text())
    assert code == (0 if manifest["converged"] else 1)
    assert manifest["config"]["n"] == 7
    assert manifest["files"]
    traces = [f for f in manifest["files"] if f.endswith("_trace.csv")]
    assert traces or experiment == "prec-sweep"
    for f in manifest["files"]:
        assert Path(f).is_file()
    for f in traces:
        header = Path(f).read_text().splitlines()[0]
        assert tuple(header.split(",")) == TRACE_COLUMNS


def test_manifest_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    main(["run", "poisson_n63", *SMALL, "--set", "output=env",
          "--output", str(tmp_path)])
    manifest = json.loads((tmp_path / "env_manifest.json").read_text())
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert all(isinstance(v, str) and v for v in env["blas"].values())
    assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                   "OMP_NUM_THREADS": "2",
                                   "MKL_NUM_THREADS": None}
    commit = env["git_commit"]
    assert commit is None or re.fullmatch("[0-9a-f]{40}", commit)


def test_git_commit_is_none_outside_a_checkout_or_without_git(
        tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
    assert cli._git_commit() is None

    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")
    monkeypatch.setattr(subprocess, "run", no_git)
    assert cli._git_commit() is None


@pytest.fixture
def builder_calls(monkeypatch):
    """Replace every problem builder by a stub; returns the names called."""
    called = []
    for name in BUILDERS:
        monkeypatch.setattr(cli, name,
                            lambda *a, _name=name, **k: called.append(_name))
    return called


def test_solver_fields_checked_before_build(tmp_path, builder_calls, capsys):
    code = main(["run", "convdiff_n63", "--set", "n=127", "--set", "maxit=10",
                 "--output", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.strip() == "error: maxit must be >= m"
    assert builder_calls == []


@pytest.mark.parametrize("preset", ["poisson_n63", "eigen_rhs_n31_j10",
                                    "relaxed_compare_n63", "prec_sweep_n63"])
def test_bounds_rejected_before_build_unless_stacked(preset, tmp_path,
                                                      builder_calls, capsys):
    code = main(["run", preset, "--set", "bounds=1",
                 "--output", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.strip().startswith("error: bounds:")
    assert builder_calls == []


@pytest.mark.parametrize("preset,key,value", [
    ("poisson_n63", "p", 2),
    ("param_convdiff_n15_p5", "j", 3),
    ("eigen_rhs_n31_j10", "m", 10),
    ("relaxed_compare_n63", "m", 10),
    ("prec_sweep_n63", "delta", 1e-6),
    ("prec_sweep_n63", "maxit", 50),
    ("prec_sweep_n63", "q", 4),
])
def test_unread_key_warns(preset, key, value):
    cfg = dataclasses.replace(load_preset(preset), **{key: value})
    assert [w.split(":")[0] for w in cfg.validate()] == [key]


@pytest.mark.parametrize("preset,key,value", [
    ("param_convdiff_n15_p5", "p", 3),
    ("eigen_rhs_n31_j10", "j", 3),
    ("convdiff_n63", "q", 4),
    ("poisson_n63", "q", 4),
    ("poisson_n63", "m", 10),
    ("prec_sweep_n63", "seed", 3),
])
def test_read_key_does_not_warn(preset, key, value):
    cfg = dataclasses.replace(load_preset(preset), **{key: value})
    assert cfg.validate() == []


def test_run_row_warns_on_solver_keys_instead_of_failing(tmp_path, capsys):
    # maxit=10 < m would fail GmresConfig, but prec-sweep never builds one.
    code = main(["run", "prec_sweep_n63", "--set", "n=7", "--set", "maxit=10",
                 "--output", str(tmp_path)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 0
    assert err == ["warning: maxit: not read by experiment prec-sweep; "
                   "the value is ignored"]


def test_eigen_rhs_preconditioned_smoke(tmp_path):
    # q >= 1 preconditions a preset that sets no q.  One preconditioner
    # serves the stacked system (stacked to its modes) and the unstacked
    # slow one (as built).
    code = main(["run", "eigen_rhs_n31_j10", "--set", "n=7", "--set", "j=3",
                 "--set", "q=2", "--output", str(tmp_path)])
    manifest = json.loads(
        (tmp_path / "eigen_rhs_n31_j10_manifest.json").read_text())
    assert code == 0
    assert manifest["solves"] == {"": True, "_slow": True}
    for suffix in manifest["solves"]:
        trace = tmp_path / f"eigen_rhs_n31_j10{suffix}_trace.csv"
        last = dict(zip(TRACE_COLUMNS,
                        trace.read_text().splitlines()[-1].split(",")))
        # the judged eta is that of the preconditioned system A M x = b
        assert last["eta_Ab"] == "nan" and last["eta_AMb"] != "nan"


def _direct_traces(out_dir, outcomes):
    out_dir.mkdir()
    for name, outcome in outcomes.items():
        emit_trace(outcome, None, out_dir / name, "csv")
    return {name: (out_dir / f"{name}_trace.csv").read_bytes()
            for name in outcomes}


def test_eigen_rhs_traces_match_direct_solves(tmp_path):
    code = main(["run", "eigen_rhs_n31_j10", "--set", "n=7", "--set", "j=3",
                 "--output", str(tmp_path)])
    assert code == 0
    cfg = dataclasses.replace(load_preset("eigen_rhs_n31_j10"), n=7, j=3)
    g = Grid1D(7, 0.0, 1.0)
    a = tt_laplacian(3, g, negate=True)
    fast = laplacian_eigen_rhs(g, [(1, 1, 1)])
    slow = laplacian_eigen_rhs(g, [(2, 2, 2), (3, 3, 3), (4, 4, 4)])
    direct = _direct_traces(tmp_path / "direct", {
        "eigen_rhs_n31_j10": tt_gmres(kron_leading_identity(2, a),
                                      all_in_one_rhs([fast, slow]),
                                      cfg.gmres_config()),
        "eigen_rhs_n31_j10_slow": tt_gmres(a, slow, cfg.gmres_config())})
    for name, trace in direct.items():
        assert (tmp_path / f"{name}_trace.csv").read_bytes() == trace


def test_relaxed_compare_traces_match_direct_solves(tmp_path):
    code = main(["run", "relaxed_compare_n63", "--set", "n=7",
                 "--set", "q=2", "--output", str(tmp_path)])
    manifest = json.loads(
        (tmp_path / "relaxed_compare_n63_manifest.json").read_text())
    # Neither solve reaches epsilon = 1e-15, and the row is not judged.
    assert manifest["solves"] == {"_constant": False, "_relaxed": False}
    assert code == 0
    cfg = dataclasses.replace(load_preset("relaxed_compare_n63"), n=7, q=2)
    g = Grid1D(7, -1.0, 1.0)
    problem = convection_diffusion_problem(g)
    chain = OperatorChain([problem.operator, inv_laplacian_preconditioner(
        3, g, 2, cli.PRECOND_TAU)])
    solver_cfg = cfg.gmres_config(epsilon=1e-15, plateau_window=4)
    outcomes = {
        "relaxed_compare_n63_constant": tt_gmres(
            chain, problem.rhs, solver_cfg),
        "relaxed_compare_n63_relaxed": relaxed_tt_gmres(
            chain, problem.rhs, solver_cfg)}
    # Both solves stop on the plateau window, before maxit.
    assert all(out.iterations < cfg.maxit for out in outcomes.values())
    direct = _direct_traces(tmp_path / "direct", outcomes)
    for name, trace in direct.items():
        assert (tmp_path / f"{name}_trace.csv").read_bytes() == trace


def test_prec_sweep_honours_json_format(tmp_path):
    code = main(["run", "prec_sweep_n63", "--set", "n=7", "--format", "json",
                 "--output", str(tmp_path)])
    assert code == 0
    path = tmp_path / "prec_sweep_n63_sweep.json"
    manifest = json.loads(
        (tmp_path / "prec_sweep_n63_manifest.json").read_text())
    assert manifest["files"] == [str(path)]
    rows = json.loads(path.read_text())["rows"]
    assert len(rows) == 10
    assert set(rows[0]) == {"q", "tau", "max_rank", "opnorm_AM"}


def _reject_constant(token):
    raise ValueError(f"not JSON: {token}")


def test_json_trace_writes_nan_as_null(tmp_path):
    # A preconditioned trace's eta_Ab column is NaN; JSON (RFC 8259) has
    # no NaN token, so it is written null where the CSV writes nan.
    args = ["run", "convdiff_n63", "--set", "n=7", "--set", "q=2",
            "--set", "m=10", "--set", "maxit=10"]
    for fmt in ("csv", "json"):
        assert main(args + ["--format", fmt,
                            "--output", str(tmp_path / fmt)]) == 0
    rows = (tmp_path / "csv" / "convdiff_n63_trace.csv").read_text()
    header, *lines = rows.splitlines()
    text = (tmp_path / "json" / "convdiff_n63_trace.json").read_text()
    trace = json.loads(text, parse_constant=_reject_constant)["trace"]
    json.loads((tmp_path / "json" / "convdiff_n63_manifest.json")
               .read_text(), parse_constant=_reject_constant)
    assert len(trace) == len(lines) > 0
    nulls = 0
    for line, row in zip(lines, trace):
        for name, value in zip(header.split(","), line.split(",")):
            if value == "nan":
                assert row[name] is None
                nulls += 1
            else:
                assert row[name] == float(value)
    assert nulls >= len(trace)


@pytest.mark.parametrize("experiment", ["eigen-rhs", "relaxed-compare"])
def test_full_gmres_experiments_take_m_from_maxit(experiment):
    cfg = ExperimentConfig(experiment=experiment, m=50, maxit=10)
    cfg.validate()
    assert cfg.gmres_config().m == 10


def test_bounds_run_keeps_no_iterate(tmp_path, monkeypatch):
    # The bound report reads the solver's judgements, so no iterate vector
    # outlives its judgement.
    outcomes = []
    solve = cli.tt_right_gmres

    def spy(*args):
        outcomes.append(solve(*args))
        return outcomes[-1]

    monkeypatch.setattr(cli, "tt_right_gmres", spy)
    code = main(["run", "param_convdiff_n15_p5", "--set", "n=7",
                 "--output", str(tmp_path)])
    assert code == 0
    [outcome] = outcomes
    assert [f.name for f in dataclasses.fields(outcome)
             if "TTVector" in str(f.type)] == ["solution"]
    assert not any(isinstance(v, TTVector) for j in outcome.judgements
                   for v in vars(j).values())
    assert len(outcome.judgements) == outcome.iterations
    rows = (tmp_path / "param_convdiff_n15_p5_bounds.csv").read_text()
    assert len(rows.splitlines()) == 1 + 5 * outcome.iterations
    manifest = json.loads(
        (tmp_path / "param_convdiff_n15_p5_manifest.json").read_text())
    assert manifest["bound_violations"] == {"": 0}


@pytest.mark.parametrize("jobs, started", [("500", [2]), ("1", [])])
def test_jobs_start_at_most_one_worker_per_config(jobs, started, tmp_path,
                                                  monkeypatch):
    # The pool runs its jobs in this process and records the worker count
    # it was asked for, so no process is started.
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    main(["run", "poisson_n63", "convdiff_n63", *SMALL, "--jobs", jobs,
          "--output", str(tmp_path)])
    assert workers == started
    assert (tmp_path / "poisson_n63_manifest.json").is_file()
    assert (tmp_path / "convdiff_n63_manifest.json").is_file()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(jobs, tmp_path, capsys):
    code = main(["run", "poisson_n63", *SMALL, "--jobs", jobs,
                 "--output", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: --jobs must be >= 1"]
    assert not any(tmp_path.iterdir())
