import importlib.metadata
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whitenoise_transport import MomentSeries, cli
from whitenoise_transport.cli import (DEFAULT_CONFIG, emit_plot_data, load_config, main, run,
                                      save_config)
from whitenoise_transport.errors import ConfigError, InputError


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = overrides
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_config_round_trip(tmp_path):
    path = write_cfg(tmp_path, model={"v0": 2.0}, seed=7)
    cfg = load_config(path)
    saved = tmp_path / "resolved.json"
    save_config(cfg, saved)
    assert load_config(saved) == cfg


def test_unknown_keys_are_hard_errors(tmp_path):
    path = write_cfg(tmp_path, model={"v0": 1.0, "hbarr": 1.0})
    with pytest.raises(ConfigError, match="config.model.hbarr: unknown key"):
        load_config(path)
    path2 = write_cfg(tmp_path, "cfg2.json", modle={})
    with pytest.raises(ConfigError, match="config.modle: unknown key"):
        load_config(path2)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError, match=r"bad\.json:2:"):
        load_config(path)


def test_analytic_route_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, time={"t_max": 20.0, "n_points": 101},
                    fit={"window": [5.0, 20.0]}, out_dir=str(tmp_path / "out"))
    assert run(cfg, route="analytic-msd") == 0
    out = tmp_path / "out"
    series = MomentSeries.from_csv(out / "msd_closed_form.csv")
    assert series.times.size == 101
    fit = json.loads((out / "fit.json").read_text())
    assert 2.8 < fit["exponent"] < 3.1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["route"] == "analytic-msd"
    assert manifest["seed"] == DEFAULT_CONFIG["seed"]
    assert manifest["python_version"] == platform.python_version()
    assert manifest["numpy_version"] == np.__version__
    assert manifest["scipy_version"] == importlib.metadata.version("scipy")
    assert manifest["rng_stream_version"] == 3
    assert (out / "config.json").exists()


def test_validate_route_exit_codes(tmp_path, capsys):
    good = write_cfg(tmp_path, out_dir=str(tmp_path / "v1"))
    assert run(good, route="validate") == 0
    assert "PASS" in capsys.readouterr().out

    # a W-shaped table has a positive-curvature origin: hypotheses fail
    xs = np.linspace(-4, 4, 161)
    table_path = tmp_path / "bad.csv"
    with open(table_path, "w") as fh:
        for x in xs:
            fh.write(f"{x},{x * x * np.exp(-x * x)}\n")
    bad = write_cfg(tmp_path, "bad_cfg.json",
                    correlation={"kind": "table", "path": str(table_path)},
                    out_dir=str(tmp_path / "v2"))
    assert run(bad, route="validate") == 2


def test_lattice_law_route(tmp_path):
    cfg = write_cfg(tmp_path, model={"space": "lattice"},
                    correlation={"kind": "gaussian", "matrix": [[40.0]]},
                    initial={"kind": "point"},
                    time={"t_max": 50.0, "n_points": 120},
                    out_dir=str(tmp_path / "law"))
    assert run(cfg, route="lattice-law") == 0
    text = (tmp_path / "law" / "law.json").read_text()
    law = json.loads(text)
    assert law["Cd"] == pytest.approx(4.0)
    assert law["D"] == pytest.approx(4.0)
    assert text == json.dumps(law, indent=2, sort_keys=True) + "\n"


def test_evolve_and_compare_lattice(tmp_path):
    base = dict(model={"space": "lattice"},
                correlation={"kind": "gaussian", "matrix": [[40.0]]},
                initial={"kind": "point"},
                evolve={"t_max": 50.0, "dt": 0.01, "record_every": 50, "y_box": 9},
                fit={"window": [10.0, 50.0]})
    cfg = write_cfg(tmp_path, out_dir=str(tmp_path / "ev"), **base)
    assert run(cfg, route="evolve-lattice") == 0
    diag = json.loads((tmp_path / "ev" / "evolve_diagnostics.json").read_text())
    assert diag["trace_drift"] < 1e-10

    cfg2 = write_cfg(tmp_path, "cmp.json", out_dir=str(tmp_path / "cmp"), **base)
    assert run(cfg2, route="compare") == 0
    report = json.loads((tmp_path / "cmp" / "compare_report.json").read_text())
    assert report["lattice"]["calibration_constant"] == pytest.approx(0.25, rel=1e-5)
    assert report["lattice"]["max_rel_deviation"] < 1e-4
    assert (tmp_path / "cmp" / "compare_report.txt").exists()


def test_mc_route_byte_identical_outputs(tmp_path):
    base = dict(grid={"points": 256, "length": 60.0},
                time={"t_max": 0.5, "dt": 0.01, "record_every": 2},
                mc={"n_traj": 16, "batch_size": 4, "boundary_tol": 1e-3},
                fit={"window": [0.1, 0.5]})
    cfg1 = write_cfg(tmp_path, "a.json", out_dir=str(tmp_path / "o1"), **base)
    cfg2 = write_cfg(tmp_path, "b.json", out_dir=str(tmp_path / "o2"), **base)
    assert run(cfg1, route="mc-continuum", threads=1) == 0
    assert run(cfg2, route="mc-continuum", threads=2) == 0
    b1 = (tmp_path / "o1" / "ensemble.csv").read_bytes()
    b2 = (tmp_path / "o2" / "ensemble.csv").read_bytes()
    assert b1 == b2


def test_classical_route_batches_by_config(tmp_path, monkeypatch):
    batch_sizes = []

    def recording(*args, **kwargs):
        batch_sizes.append(kwargs["batch_size"])
        return run_classical(*args, **kwargs)

    run_classical = cli.run_classical
    monkeypatch.setattr(cli, "run_classical", recording)
    base = dict(classical={"v0_init": [0.0]}, time={"t_max": 0.1, "dt": 0.01, "record_every": 1},
                fit={"window": [0.01, 0.1]})
    for name, batch in (("a", 3), ("b", 500)):
        cfg = write_cfg(tmp_path, f"{name}.json", out_dir=str(tmp_path / name),
                        mc={"n_traj": 7, "batch_size": batch}, **base)
        assert run(cfg, route="classical", threads=2) == 0
    assert batch_sizes == [3, 500]
    for data in ("msd_classical.csv", "velocity_variance.csv", "fit.json"):
        assert (tmp_path / "a" / data).read_bytes() == (tmp_path / "b" / data).read_bytes()


def test_numeric_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, model={"space": "lattice"},
                    correlation={"kind": "gaussian", "matrix": [[40.0]]},
                    initial={"kind": "point"},
                    evolve={"t_max": 1.8, "dt": 0.9, "record_every": 1, "y_box": 9},
                    out_dir=str(tmp_path / "bad"))
    code = main(["evolve-lattice", "--config", str(cfg)])
    assert code == 3


def test_main_config_error_exit_code(tmp_path):
    path = write_cfg(tmp_path, nonsense=1)
    assert main(["analytic-msd", "--config", str(path)]) == 2


@pytest.mark.parametrize("section, key", [("mc", "batch_size"), ("time", "record_every"),
                                          ("mc", "n_traj")])
def test_zero_counts_are_config_errors(tmp_path, capsys, section, key):
    path = write_cfg(tmp_path, **{section: {key: 0}}, out_dir=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match=f"config.{section}.{key}"):
        load_config(path)
    assert main(["mc-continuum", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config.{section}.{key}" in err and "Traceback" not in err


@pytest.mark.parametrize("section, key, value", [
    ("grid", "points", "abc"), ("lattice_box", "sites", 0), ("evolve", "y_box", 2.5),
    ("evolve", "dt", 0), ("evolve", "dt", -0.01), ("evolve", "t_max", 0.001),
    ("evolve", "t_max", 0.015)])
def test_bad_sizes_and_evolve_times_are_config_errors(tmp_path, capsys, section, key, value):
    path = write_cfg(tmp_path, **{section: {key: value}}, out_dir=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match=f"config.{section}.{key}"):
        load_config(path)
    assert main(["evolve-lattice", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config.{section}.{key}" in err and "Traceback" not in err


@pytest.mark.parametrize("time, key", [
    ({"dt": 1.0, "t_max": 0.4}, "t_max"), ({"dt": 0}, "dt"), ({"dt": -0.01}, "dt"),
    ({"dt": "fast"}, "dt"), ({"t_max": None}, "t_max"), ({"t_max": 0.105}, "t_max")])
def test_time_step_longer_than_run_is_config_error(tmp_path, capsys, time, key):
    path = write_cfg(tmp_path, time=time, out_dir=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match=f"config.time.{key}"):
        load_config(path)
    assert main(["mc-continuum", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config.time.{key}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_are_rejected(tmp_path, capsys, threads):
    path = write_cfg(tmp_path, out_dir=str(tmp_path / "o"))
    assert main(["analytic-msd", "--config", str(path), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert "--threads" in err and "Traceback" not in err
    with pytest.raises(ConfigError, match="--threads"):
        run(path, route="analytic-msd", threads=int(threads))


def test_fit_subcommand(tmp_path, capsys):
    t = np.linspace(1, 30, 50)
    series = MomentSeries(times=t, msd=2.5 * t**3)
    csv = tmp_path / "s.csv"
    series.to_csv(csv)
    assert main(["fit", str(csv), "--t-lo", "1", "--t-hi", "30"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exponent"] == pytest.approx(3.0, abs=1e-10)
    assert out["coefficient"] == pytest.approx(2.5, rel=1e-10)


def test_plot_outputs(tmp_path):
    t1 = np.linspace(1, 10, 10)
    t2 = np.linspace(1, 10, 8)
    s1 = MomentSeries(times=t1, msd=t1**3)
    s2 = MomentSeries(times=t2, msd=2 * t2**2)
    from whitenoise_transport import fit_power_law

    fits = [fit_power_law(s1), fit_power_law(s2)]
    dat, svg = emit_plot_data([s1, s2], ["cubic", "square"], tmp_path / "demo", fits=fits)
    lines = Path(dat).read_text().splitlines()
    assert len(lines) == 1 + 10
    assert lines[-1].split()[2:] == ["NA", "NA"]  # shorter series padded
    svg_text = Path(svg).read_text()
    assert svg_text.startswith("<svg")
    assert f"slope {fits[0].exponent:.3f}" in svg_text
    assert f"slope {fits[1].exponent:.3f}" in svg_text


def test_plot_requires_series():
    with pytest.raises(InputError, match="needs at least one series"):
        emit_plot_data([], [], "x")


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, time={"t_max": 5.0, "n_points": 50},
                    fit={"window": [1.0, 5.0]}, out_dir=str(tmp_path / "cli"))
    proc = subprocess.run([sys.executable, "-m", "whitenoise_transport",
                           "analytic-msd", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "exponent" in proc.stdout
