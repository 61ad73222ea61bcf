import dataclasses
import json
from pathlib import Path

import pytest

from ttkrylov import cli
from ttkrylov.cli import (EXPERIMENTS, TRACE_COLUMNS, ConfigError,
                          ExperimentConfig, build_config, emit_trace, main,
                          parse_config_text, presets_dir)
from ttkrylov.operators import (Grid1D, all_in_one_rhs,
                                convection_diffusion_problem,
                                inv_laplacian_preconditioner,
                                kron_leading_identity, laplacian_eigen_rhs,
                                tt_laplacian)
from ttkrylov.solver import OperatorChain, relaxed_tt_gmres, tt_gmres


def test_gmres_config_error_is_config_error():
    cfg = ExperimentConfig(experiment="poisson", m=25, maxit=10)
    with pytest.raises(ConfigError, match="maxit"):
        cfg.gmres_config()


def test_invalid_solver_settings_exit_2(tmp_path, capsys):
    code = main(["run", "param_convdiff_n15_p5", "--set", "maxit=10",
                 "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == "error: maxit must be >= m"


PRESETS = sorted(p.stem for p in presets_dir().glob("*.cfg"))
SMALL = ["--set", "n=7", "--set", "p=2", "--set", "maxit=10", "--set", "m=10",
         "--set", "q=2", "--set", "j=3"]
BUILDERS = ("poisson_problem", "convection_diffusion_problem",
            "parametric_convection_diffusion_problem",
            "heat_parametrized_problem", "multi_rhs_problem",
            "inv_laplacian_preconditioner", "tt_laplacian",
            "laplacian_eigen_rhs")


def load_preset(name):
    return build_config(parse_config_text(
        (presets_dir() / f"{name}.cfg").read_text()))


@pytest.mark.parametrize("preset", PRESETS)
def test_presets_validate(preset):
    cfg = load_preset(preset)
    assert cfg.experiment in EXPERIMENTS
    assert cfg.validate() == []


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_smoke_every_experiment(experiment, tmp_path, capsys):
    # the first shipped preset of the experiment, shrunk
    preset = next(p for p in PRESETS
                  if load_preset(p).experiment == experiment)
    code = main(["run", preset, *SMALL, "--set", "output=smoke",
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
    ("poisson_n63", "d", 4),
    ("poisson_n63", "q", 4),
    ("poisson_n63", "tau", 0.1),
    ("param_convdiff_n15_p5", "j", 3),
    ("eigen_rhs_n31_j10", "rank_cap", 4),
    ("eigen_rhs_n31_j10", "m", 10),
    ("relaxed_compare_n63", "m", 10),
    ("prec_sweep_n63", "delta", 1e-6),
    ("prec_sweep_n63", "maxit", 50),
    ("prec_sweep_n63", "precondition", True),
    ("prec_sweep_n63", "q", 4),
])
def test_unread_key_warns(preset, key, value):
    cfg = dataclasses.replace(load_preset(preset), **{key: value})
    assert [w.split(":")[0] for w in cfg.validate()] == [key]


@pytest.mark.parametrize("preset,key,value", [
    ("param_convdiff_n15_p5", "p", 3),
    ("eigen_rhs_n31_j10", "j", 3),
    ("multi_rhs_poisson_n63_p20", "rank_cap", 4),
    ("convdiff_n63", "q", 4),
    ("poisson_n63", "m", 10),
    ("relaxed_compare_n63", "plateau_window", 6),
    ("prec_sweep_n63", "seed", 3),
])
def test_read_key_does_not_warn(preset, key, value):
    cfg = dataclasses.replace(load_preset(preset), **{key: value})
    assert cfg.validate() == []


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
    chain = OperatorChain([problem.operator,
                           inv_laplacian_preconditioner(3, g, 2, cfg.tau)])
    direct = _direct_traces(tmp_path / "direct", {
        "relaxed_compare_n63_constant": tt_gmres(
            chain, problem.rhs,
            cfg.gmres_config(epsilon=1e-15, plateau_window=4)),
        "relaxed_compare_n63_relaxed": relaxed_tt_gmres(
            chain, problem.rhs, cfg.gmres_config(epsilon=1e-15))})
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


@pytest.mark.parametrize("experiment", ["eigen-rhs", "relaxed-compare"])
def test_full_gmres_experiments_take_m_from_maxit(experiment):
    cfg = ExperimentConfig(experiment=experiment, m=50, maxit=10)
    cfg.validate()
    assert cfg.gmres_config().m == 10
