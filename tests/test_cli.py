import json
from pathlib import Path

import pytest

from ttkrylov import cli
from ttkrylov.cli import (EXPERIMENTS, TRACE_COLUMNS, ConfigError,
                          ExperimentConfig, build_config, main,
                          parse_config_text, presets_dir)


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
    cfg.validate()


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


def test_solver_fields_checked_before_build(tmp_path, monkeypatch, capsys):
    called = []
    for name in BUILDERS:
        monkeypatch.setattr(cli, name,
                            lambda *a, _name=name, **k: called.append(_name))
    code = main(["run", "convdiff_n63", "--set", "n=127", "--set", "maxit=10",
                 "--output", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.strip() == "error: maxit must be >= m"
    assert called == []


@pytest.mark.parametrize("experiment", ["eigen-rhs", "relaxed-compare"])
def test_full_gmres_experiments_take_m_from_maxit(experiment):
    cfg = ExperimentConfig(experiment=experiment, m=50, maxit=10)
    cfg.validate()
    assert cfg.gmres_config().m == 10
