import pytest

from ttkrylov.cli import ConfigError, ExperimentConfig, main


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
