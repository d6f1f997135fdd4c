import contextlib
import importlib.metadata
import io
import json
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whitenoise_transport import MomentSeries, cli, fit_power_law
from whitenoise_transport.cli import DEFAULT_CONFIG, load_config, main, run
from whitenoise_transport.errors import ConfigError


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
    cli._write_json(saved, cfg)
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
    assert manifest["rng_stream_version"] == 4
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


@pytest.mark.parametrize("dim", [1, 2])
def test_validate_samples_a_lattice_table_only_within_its_range(tmp_path, capsys, dim):
    # exp(-40 x^2) tabulated to r = 8, beyond any Y-box it serves; validate
    # once evaluated it at r = 32 (r = 45.25 in d = 2) and refused it
    xs = np.linspace(-8.0, 8.0, 321)
    table = tmp_path / "sharp.csv"
    table.write_text("".join(f"{x:.17g},{np.exp(-40.0 * x * x):.17g}\n" for x in xs))
    cfg = write_cfg(tmp_path, model={"space": "lattice", "dim": dim},
                    correlation={"kind": "table", "path": str(table)}, out_dir=str(tmp_path / "v"))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "[PASS] sampled spectrum nonnegative" in capsys.readouterr().out


def test_validate_passes_the_3d_gaussian(tmp_path, capsys):
    # the 32^3 cube once spanned +-3.46 correlation lengths and read -5.9e-7
    cfg = write_cfg(tmp_path, model={"dim": 3}, correlation={"matrix": np.eye(3).tolist()},
                    out_dir=str(tmp_path / "v"))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "[PASS] sampled spectrum nonnegative" in capsys.readouterr().out


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


def test_mc_psi0_carries_the_initial_trace(tmp_path):
    # the closed form scales with initial.trace; the Monte Carlo estimator is
    # the unnormalised second moment, so |psi0|^2 must integrate to the trace
    base = dict(grid={"points": 256, "length": 60.0},
                time={"t_max": 0.5, "dt": 0.01, "record_every": 5},
                mc={"n_traj": 8, "batch_size": 4, "boundary_tol": 1e-3},
                fit={"window": [0.1, 0.5]}, seed=3)
    msd = {}
    for trace in (1.0, 2.0):
        out = tmp_path / f"t{trace}"
        cfg = write_cfg(tmp_path, f"t{trace}.json", out_dir=str(out), initial={"trace": trace}, **base)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(cfg, route="mc-continuum", threads=1) == 0
        msd[trace] = np.loadtxt(out / "ensemble.csv", delimiter=",", skiprows=1)[:, 1]
    np.testing.assert_allclose(msd[2.0], 2.0 * msd[1.0], rtol=1e-12, atol=0.0)


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


def test_velocity_variance_csv_names_its_column_and_fits(tmp_path, capsys):
    cfg = write_cfg(tmp_path, classical={"v0_init": [0.0]}, mc={"n_traj": 40},
                    time={"t_max": 0.1, "dt": 0.01, "record_every": 1},
                    fit={"window": [0.01, 0.1]}, out_dir=str(tmp_path / "o"))
    assert run(cfg, route="classical", threads=1) == 0
    path = tmp_path / "o" / "velocity_variance.csv"
    assert path.read_text().startswith("t,vvar\n")
    capsys.readouterr()
    assert main(["fit", str(path), "--t-lo", "0.01", "--t-hi", "0.1"]) == 0
    t, vvar = np.loadtxt(path, delimiter=",", skiprows=1).T
    want = fit_power_law(t, vvar, window=(0.01, 0.1))
    assert json.loads(capsys.readouterr().out)["exponent"] == want.exponent


def test_numeric_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, model={"space": "lattice"},
                    correlation={"kind": "gaussian", "matrix": [[40.0]]},
                    initial={"kind": "point"},
                    evolve={"t_max": 9.0, "dt": 0.9, "record_every": 1, "y_box": 9},
                    fit={"window": [0.9, 9.0]}, out_dir=str(tmp_path / "bad"))
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("route, overrides, key", [
    ("classical", lambda v: {"classical": {"v0_init": [0.5, v]}}, r"classical\.v0_init\[1\]"),
    ("mc-continuum", lambda v: {"initial": {"sigma": [v]}}, r"initial\.sigma\[0\]"),
    ("analytic-msd", lambda v: {"correlation": {"matrix": [[v]]}}, r"correlation\.matrix\[0\]\[0\]"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, route, overrides, key, value):
    # json writes and reads NaN, Infinity and -Infinity
    path = write_cfg(tmp_path, **overrides(value), out_dir=str(tmp_path / "o"))
    assert any(word in path.read_text() for word in ("NaN", "Infinity"))
    message = rf"config\.{key}: must be finite, got {value!r}"
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert main([route, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err) and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_are_rejected(tmp_path, capsys, threads):
    path = write_cfg(tmp_path, out_dir=str(tmp_path / "o"))
    assert main(["analytic-msd", "--config", str(path), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert "--threads" in err and "Traceback" not in err
    with pytest.raises(ConfigError, match="--threads"):
        run(path, route="analytic-msd", threads=int(threads))


def _leaves(tree, path=()):
    for key, val in tree.items():
        if isinstance(val, dict):
            yield from _leaves(val, path + (key,))
        else:
            yield path + (key,), val


def _wrong_type(default):
    """A JSON value that a key with this default must refuse."""
    if isinstance(default, bool):
        return "yes"
    if isinstance(default, int):
        return 1.5
    if isinstance(default, (float, list)):
        return "x"
    return 5  # strings and null


def _nest(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


# every key of DEFAULT_CONFIG (and every list's items, and every section)
# with a value of the wrong type; a key added later is covered too
SCHEMA_CASES = (
    [((key,), 5) for key, val in DEFAULT_CONFIG.items() if isinstance(val, dict)]
    + [(path, _wrong_type(default)) for path, default in _leaves(DEFAULT_CONFIG)]
    + [(path, [_wrong_type(default[0])]) for path, default in _leaves(DEFAULT_CONFIG)
       if isinstance(default, list)])


@pytest.mark.parametrize("path, value", SCHEMA_CASES,
                         ids=[".".join(p) + "=" + json.dumps(v) for p, v in SCHEMA_CASES])
def test_every_config_key_refuses_a_wrong_type(tmp_path, capsys, path, value):
    cfg = dict({"out_dir": str(tmp_path / "o")}, **_nest(path, value))
    cfg_path = write_cfg(tmp_path, **cfg)
    key = "config." + ".".join(path)
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(cfg_path)
    assert main(["analytic-msd", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


LATTICE = dict(model={"space": "lattice"}, correlation={"kind": "gaussian", "matrix": [[40.0]]},
               initial={"kind": "point"})

# inputs that once gave a traceback or ran silently as something else
MISUSE = {
    "hbar-string": ("analytic-msd", {"model": {"hbar": "abc"}}, "config.model.hbar"),
    "seed-string": ("mc-continuum", {"seed": "x"}, "config.seed"),
    "boundary-tol-string": ("mc-continuum", {"mc": {"boundary_tol": "x"}}, "config.mc.boundary_tol"),
    "sigma-string": ("analytic-msd", {"initial": {"sigma": "a"}}, "config.initial.sigma"),
    "v0-init-string": ("classical", {"classical": {"v0_init": "a"}}, "config.classical.v0_init"),
    "matrix-string": ("validate", {"correlation": {"matrix": "a"}}, "config.correlation.matrix"),
    "window-number": ("analytic-msd", {"fit": {"window": 5}}, "config.fit.window"),
    "nu-list-number": ("colored-study", {"colored": {"nu_list": 0.4}}, "config.colored.nu_list"),
    "v0-init-too-long": ("classical", {"classical": {"v0_init": [0.5, 0.2]}}, "config.classical.v0_init"),
    "no-time-points": ("analytic-msd", {"time": {"n_points": 0}}, "config.time.n_points"),
    "path-number": ("validate", {"correlation": {"kind": "table", "path": 5}}, "config.correlation.path"),
    "compare-point-continuum": ("compare", {"initial": {"kind": "point"}}, "config.initial.kind"),
    "fractional-dim": ("analytic-msd", {"model": {"dim": 1.5}}, "config.model.dim"),
    "fractional-time-points": ("analytic-msd", {"time": {"n_points": 10.5}}, "config.time.n_points"),
    "include-ito-string": ("colored-study", {"colored": {"include_ito": "no"}}, "config.colored.include_ito"),
    "unknown-kind-continuum": ("mc-continuum", {"initial": {"kind": "foo"}}, "config.initial.kind"),
    "unknown-kind-lattice": ("mc-lattice", dict(LATTICE, initial={"kind": "foo"}), "config.initial.kind"),
    "sigma-too-long": ("mc-continuum", {"initial": {"sigma": [1.0, 1.0]}}, "config.initial.sigma"),
    "window-three-entries": ("analytic-msd", {"fit": {"window": [1.0, 5.0, 10.0]}}, "config.fit.window"),
    # ranges beyond the type
    "window-reversed": ("analytic-msd", {"fit": {"window": [10.0, 2.0]}}, "config.fit.window"),
    "window-empty": ("analytic-msd", {"fit": {"window": [5.0, 5.0]}}, "config.fit.window"),
    "t-min-above-t-max": ("analytic-msd", {"time": {"t_min": 12.0}}, "config.time.t_min"),
    "t-min-at-t-max": ("analytic-msd", {"time": {"t_min": 10.0}}, "config.time.t_min"),
    "hbar-negative": ("analytic-msd", {"model": {"hbar": -1.0}}, "config.model.hbar"),
    "mass-zero": ("analytic-msd", {"model": {"mass": 0}}, "config.model.mass"),
    "v0-negative": ("analytic-msd", {"model": {"v0": -0.5}}, "config.model.v0"),
    "sigma-zero": ("analytic-msd", {"initial": {"sigma": [0.0]}}, "config.initial.sigma[0]"),
    "trace-negative": ("analytic-msd", {"initial": {"trace": -1.0}}, "config.initial.trace"),
    "length-zero": ("mc-continuum", {"grid": {"length": 0.0}}, "config.grid.length"),
    "boundary-tol-negative": ("mc-continuum", {"mc": {"boundary_tol": -1e-6}}, "config.mc.boundary_tol"),
    "nu-zero": ("colored-study", {"colored": {"nu_list": [0.4, 0.0]}}, "config.colored.nu_list[1]"),
    "points-not-power-of-two": ("mc-continuum", {"grid": {"points": 100}}, "config.grid.points"),
    "sites-not-power-of-two": ("mc-lattice", dict(LATTICE, lattice_box={"sites": 96}),
                               "config.lattice_box.sites"),
    "y-box-even": ("evolve-lattice", dict(LATTICE, evolve={"y_box": 8}), "config.evolve.y_box"),
    "y-box-below-5": ("evolve-lattice", dict(LATTICE, evolve={"y_box": 3}), "config.evolve.y_box"),
    # a negative t_min gave "msd must be nonnegative", or its times were dropped
    "t-min-negative": ("analytic-msd", {"time": {"t_min": -5.0}}, "config.time.t_min"),
    "t-min-negative-lattice-law": ("lattice-law", dict(LATTICE, time={"t_min": -5.0}), "config.time.t_min"),
    # a fit window with fewer than 8 of the route's times failed only after the run
    "fit-window-short-mc-continuum": ("mc-continuum", {"mc": {"n_traj": 1}, "time": {"t_max": 0.1},
                                                       "grid": {"points": 128, "length": 40.0},
                                                       "fit": {"window": [0.01, 0.1]}}, "config.fit.window"),
    "fit-window-short-evolve-lattice": ("evolve-lattice", dict(LATTICE, evolve={"t_max": 1.0},
                                                               fit={"window": [0.5, 1.0]}), "config.fit.window"),
    # the route and the config disagree
    "mc-continuum-on-lattice": ("mc-continuum", LATTICE, "config.model.space"),
    "mc-lattice-on-continuum": ("mc-lattice", {"initial": {"kind": "point"}}, "config.model.space"),
    "colored-study-on-lattice": ("colored-study", dict(LATTICE, initial={}), "config.model.space"),
    "analytic-msd-on-lattice": ("analytic-msd", dict(LATTICE, initial={}), "config.model.space"),
    "lattice-law-on-continuum": ("lattice-law", {"initial": {"kind": "point"}}, "config.model.space"),
    "evolve-lattice-on-continuum": ("evolve-lattice", {"initial": {"kind": "point"}}, "config.model.space"),
    "evolve-lattice-gaussian-state": ("evolve-lattice", dict(LATTICE, initial={"kind": "gaussian"}),
                                      "config.initial.kind"),
    "missing-table": ("validate", {"correlation": {"kind": "table", "path": "absent.csv"}},
                      "config.correlation.path"),
    # the point state is one unit-norm site: a trace other than 1 was ignored
    "point-trace-lattice-law": ("lattice-law", dict(LATTICE, initial={"kind": "point", "trace": 2.0}),
                                "config.initial.trace"),
    "point-trace-evolve-lattice": ("evolve-lattice", dict(LATTICE, initial={"kind": "point", "trace": 2.0}),
                                   "config.initial.trace"),
    "point-trace-mc-lattice": ("mc-lattice", dict(LATTICE, initial={"kind": "point", "trace": 0.5}),
                               "config.initial.trace"),
    "point-trace-compare-lattice": ("compare", dict(LATTICE, initial={"kind": "point", "trace": 2.0}),
                                    "config.initial.trace"),
    # the correlation: a ragged matrix, a matrix of another dimension than
    # the model (every route must refuse it, lattice-law included) and
    # non-finite table cells
    "matrix-ragged": ("validate", {"correlation": {"matrix": [[1.0], [0.0, 1.0]]}}, "config.correlation.matrix"),
    "matrix-2x2-dim-1-lattice-law": ("lattice-law",
                                     dict(LATTICE, correlation={"matrix": [[1.0, 0.0], [0.0, 1.0]]}),
                                     "config.correlation.matrix"),
    "matrix-1x1-dim-2-lattice-law": ("lattice-law", dict(LATTICE, model={"space": "lattice", "dim": 2}),
                                     "config.correlation.matrix"),
    "table-nan": ("validate", {"correlation": {"kind": "table", "path": "nan.csv"}}, "config.correlation.path"),
    "table-inf": ("validate", {"correlation": {"kind": "table", "path": "inf.csv"}}, "config.correlation.path"),
}
# the tables the MISUSE rows name, written to the working directory
TABLES = {"nan.csv": "-2,0\n-1,0.5\n0,1\n1,nan\n2,0\n",
          "inf.csv": "-2,0\n-1,0.5\n0,inf\n1,0.5\n2,0\n"}


@pytest.mark.parametrize("route, overrides, key", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_is_a_named_config_error(tmp_path, monkeypatch, capsys, route, overrides, key):
    monkeypatch.chdir(tmp_path)
    for name, text in TABLES.items():
        (tmp_path / name).write_text(text)
    cfg_path = write_cfg(tmp_path, out_dir=str(tmp_path / "o"), **overrides)
    with pytest.raises(ConfigError, match=re.escape(key)):
        run(cfg_path, route=route)
    assert main([route, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", [3.7, "x", True])
def test_seed_override_is_checked_like_the_config_seed(tmp_path, seed):
    cfg_path = write_cfg(tmp_path, out_dir=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match=r"config\.seed: must be an integer"):
        run(cfg_path, route="analytic-msd", seed=seed)
    assert not (tmp_path / "o").exists()


TINY_MC = dict(time={"t_max": 0.2, "dt": 0.01, "record_every": 2},
               mc={"n_traj": 8, "batch_size": 3, "boundary_tol": 1e-3},
               fit={"window": [0.02, 0.2]}, grid={"points": 128, "length": 40.0})
COMMON_FILES = {"manifest.json", "config.json"}


@pytest.mark.parametrize("route, cfg, files", [
    ("mc-lattice", dict(TINY_MC, lattice_box={"sites": 64}, **LATTICE), {"ensemble.csv", "fit.json"}),
    ("colored-study", dict(TINY_MC, colored={"nu_list": [0.04, 0.02]}),
     {"colored_study.json", "ensemble_white.csv", "ensemble_nu_0.04.csv", "ensemble_nu_0.02.csv",
      "ensemble_ito-control.csv"}),
    ("compare", TINY_MC, {"ensemble.csv", "msd_closed_form.csv", "pointwise_ratio.csv",
                          "compare_report.json", "compare_report.txt"}),
])
def test_route_gives_the_same_bytes_on_one_and_two_threads(tmp_path, route, cfg, files):
    cfg_path = write_cfg(tmp_path, out_dir=str(tmp_path / "o"), **cfg)
    outputs = []
    for threads in (1, 2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(cfg_path, route=route, threads=threads) == 0
        outputs.append({f.name: f.read_bytes() for f in (tmp_path / "o").iterdir()})
        shutil.rmtree(tmp_path / "o")
    assert set(outputs[0]) == files | COMMON_FILES
    assert outputs[0] == outputs[1]


def test_fit_subcommand(tmp_path, capsys):
    t = np.linspace(1, 30, 50)
    series = MomentSeries(times=t, msd=2.5 * t**3)
    csv = tmp_path / "s.csv"
    series.to_csv(csv)
    assert main(["fit", str(csv), "--t-lo", "1", "--t-hi", "30"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exponent"] == pytest.approx(3.0, abs=1e-10)
    assert out["coefficient"] == pytest.approx(2.5, rel=1e-10)


@pytest.mark.parametrize("text", [None, "t,msd\n0,1\n1,x\n", "t,msd\n"],
                         ids=["missing", "non-numeric", "header-only"])
def test_fit_of_a_bad_csv_exits_2_without_a_traceback(tmp_path, capsys, text):
    csv = tmp_path / "s.csv"
    if text is not None:
        csv.write_text(text)
    assert main(["fit", str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(csv) in err
    assert "Traceback" not in err


def test_readme_lists_every_subcommand(capsys):
    # the `wnt ...` lines of the README's "Command line" block against the
    # subcommands that `wnt --help` offers
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("wnt ")]
    with pytest.raises(SystemExit):
        main(["--help"])
    offered = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1).split(",")
    assert sorted(listed) == sorted(offered)


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, time={"t_max": 5.0, "n_points": 50},
                    fit={"window": [1.0, 5.0]}, out_dir=str(tmp_path / "cli"))
    proc = subprocess.run([sys.executable, "-m", "whitenoise_transport",
                           "analytic-msd", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "exponent" in proc.stdout
