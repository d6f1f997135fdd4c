"""Configuration-driven command line front end.

One JSON config file describes the model, correlation, grids, time
stepping, Monte Carlo settings and fit windows; subcommands select the
route.  ``load_config`` checks every key against the type of its default
in ``DEFAULT_CONFIG`` (unknown keys are hard errors: silent
misconfiguration of physics parameters is worse than noise), and
``_build`` turns the checked config into a route's objects before any
output is written.  Every output directory receives ``manifest.json``
with the full resolved config, seed, the package, Python, numpy and
scipy versions and the random-stream version, sufficient to re-run the
experiment exactly; outputs carry no timestamps so identical config +
seed produce byte-identical files.

Exit codes: 0 ok, 2 configuration or input error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analytic_continuum import GaussianPureState, MomentSeries, cubic_coefficient, msd_closed_form
from .analytic_lattice import (LatticeMSDLaw, LatticeMomentInputs, law_payload,
                               msd_inverse_laplace_closed_form)
from .core_model import (GaussianCorrelation, ModelParams, Space, _record_steps, _write_csv,
                         laplacian_g_at_zero, load_correlation_csv, step_count, validate_hypotheses)
from .errors import ConfigError, InputError, NumericalError
from .evolve_lattice import LatticeInitialData, evolve_hierarchy
from .mc_simulator import (DEFAULT_THREADS, SCHEME_ITO_EULER, SCHEME_STRATONOVICH,
                           colored_noise_convergence_study, point_state, run_classical,
                           run_continuum, run_lattice)
from .noise_field import FieldGrid
from .rng import STREAM_VERSION
from .transforms_fit import MIN_FIT_POINTS, _in_window, fit_power_law

__all__ = ["DEFAULT_CONFIG", "load_config", "run", "main"]


DEFAULT_CONFIG = {
    "model": {"hbar": 1.0, "mass": 1.0, "v0": 1.0, "dim": 1, "space": "continuum"},
    "correlation": {"kind": "gaussian", "matrix": [[1.0]], "path": None},
    "initial": {"kind": "gaussian", "sigma": [1.0], "trace": 1.0},
    "grid": {"points": 1024, "length": 280.0},
    "lattice_box": {"sites": 256},
    "evolve": {"y_box": 9, "dt": 0.01, "record_every": 10, "t_max": 50.0},
    "time": {"t_min": 0.0, "t_max": 10.0, "dt": 0.01, "record_every": 10, "n_points": 181},
    "mc": {"n_traj": 2000, "batch_size": 250, "boundary_tol": 1e-6, "scheme": "stratonovich"},
    "fit": {"window": [2.0, 10.0]},
    "colored": {"nu_list": [0.4, 0.2, 0.1], "include_ito": True, "window_frac": 0.5},
    "classical": {"v0_init": [0.0]},
    "seed": 12345,
    "out_dir": "out",
    "route": None,
}

# the strings an enumerated key takes
_CHOICES = {"config.model.space": tuple(s.value for s in Space),
            "config.correlation.kind": ("gaussian", "table"),
            "config.initial.kind": ("gaussian", "point"),
            "config.mc.scheme": (SCHEME_STRATONOVICH, SCHEME_ITO_EULER)}

_POSITIVE = ("positive", lambda v: v > 0)
_NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
# counts that loops step or divide by, and array sizes
_COUNT = ("a positive integer", lambda v: v >= 1)
_POWER_OF_TWO = ("a power of two", lambda v: v >= 1 and v & (v - 1) == 0)

# ranges beyond the type, checked after it: (what a value must be, its
# test); a list's rule holds for each entry
_RANGES = {"config.model.hbar": _POSITIVE,
           "config.model.mass": _POSITIVE,
           "config.model.v0": _NONNEGATIVE,
           "config.model.dim": _COUNT,
           "config.initial.sigma": _POSITIVE,
           "config.initial.trace": _POSITIVE,
           "config.grid.points": _POWER_OF_TWO,
           "config.grid.length": _POSITIVE,
           "config.lattice_box.sites": _POWER_OF_TWO,
           "config.evolve.y_box": ("odd and at least 5", lambda v: v % 2 == 1 and v >= 5),
           "config.evolve.dt": _POSITIVE,
           "config.evolve.record_every": _COUNT,
           "config.time.t_min": _NONNEGATIVE,
           "config.time.dt": _POSITIVE,
           "config.time.record_every": _COUNT,
           "config.time.n_points": _COUNT,
           "config.mc.n_traj": _COUNT,
           "config.mc.batch_size": _COUNT,
           "config.mc.boundary_tol": _NONNEGATIVE,
           "config.colored.nu_list": _POSITIVE}


def _checked(val, default, path):
    """``val`` merged into its default and checked against it: an object takes
    only its default's keys, a float default a finite number, an int default
    an integer, a bool default a bool, a list default a list of items of its
    first item's type, a string default a string and a null default either."""
    if isinstance(default, dict):
        if not isinstance(val, dict):
            raise ConfigError(f"{path}: expected an object, got {type(val).__name__}")
        out = copy.deepcopy(default)
        for key, sub in val.items():
            if key not in default:
                raise ConfigError(f"{path}.{key}: unknown key")
            out[key] = _checked(sub, default[key], f"{path}.{key}")
        return out
    if isinstance(default, list):
        if not isinstance(val, list):
            raise ConfigError(f"{path}: must be a list, got {val!r}")
        for i, sub in enumerate(val):
            _checked(sub, default[0], f"{path}[{i}]")
    elif isinstance(default, bool):
        if not isinstance(val, bool):
            raise ConfigError(f"{path}: must be true or false, got {val!r}")
    elif isinstance(default, int):
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}: must be an integer, got {val!r}")
    elif isinstance(default, float):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{path}: must be a number, got {val!r}")
        if not math.isfinite(val):
            raise ConfigError(f"{path}: must be finite, got {val!r}")
    elif not isinstance(val, str) and (default is not None or val is not None):
        raise ConfigError(f"{path}: must be a string{'' if default is not None else ' or null'}, "
                          f"got {val!r}")
    elif path in _CHOICES and val not in _CHOICES[path]:
        raise ConfigError(f"{path}: must be one of {', '.join(_CHOICES[path])}, got {val!r}")
    rule = _RANGES.get(path.split("[")[0])
    if rule and not isinstance(val, list) and not rule[1](val):
        raise ConfigError(f"{path}: must be {rule[0]}, got {val!r}")
    return val


def _check_step_times(cfg, section):
    """``section.t_max`` a whole number of at least one step ``section.dt``."""
    try:
        step_count(cfg[section]["t_max"], cfg[section]["dt"])
    except InputError as exc:
        raise ConfigError(f"config.{section}.t_max: {exc}") from None


def load_config(path) -> dict:
    """The config file merged into ``DEFAULT_CONFIG`` and checked, no value converted."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    cfg = _checked(raw, DEFAULT_CONFIG, "config")
    dim = cfg["model"]["dim"]
    for section, key in (("initial", "sigma"), ("classical", "v0_init")):
        if len(cfg[section][key]) not in (1, dim):
            raise ConfigError(f"config.{section}.{key}: must have 1 or model.dim = {dim} entries, "
                              f"got {len(cfg[section][key])}")
    rows = [len(row) for row in cfg["correlation"]["matrix"]]
    if cfg["correlation"]["kind"] == "gaussian" and rows != [dim] * dim:
        raise ConfigError(f"config.correlation.matrix: must be model.dim x model.dim = {dim} x {dim}, "
                          f"got rows of lengths {rows}")
    window, t = cfg["fit"]["window"], cfg["time"]
    if len(window) != 2:
        raise ConfigError(f"config.fit.window: must have 2 entries, got {len(window)}")
    if not window[0] < window[1]:
        raise ConfigError(f"config.fit.window: the first entry must be below the second, got {window!r}")
    if not t["t_min"] < t["t_max"]:
        raise ConfigError(f"config.time.t_min: must be below time.t_max = {t['t_max']!r}, got {t['t_min']!r}")
    _check_step_times(cfg, "evolve")
    _check_step_times(cfg, "time")
    return cfg


def _write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------- objects


@dataclass
class _Setup:
    """The objects a route runs on, built once from a checked config."""

    params: ModelParams
    corr: object
    times: np.ndarray                      # time.n_points times from time.t_min to time.t_max
    window: tuple                          # fit.window
    state: GaussianPureState = None        # the Gaussian initial state (None for a point state)
    grid: FieldGrid = None                 # Monte Carlo grid and initial wavefunction
    psi0: np.ndarray = None
    ensemble: dict = None                  # keyword arguments of the route's ensemble driver
    lattice: LatticeInitialData = None     # evolve_hierarchy's point state and keyword arguments
    evolve: dict = None


# the model space a route runs on, where it cannot run on either
_ROUTE_SPACE = {"analytic-msd": Space.CONTINUUM, "lattice-law": Space.LATTICE,
                "evolve-lattice": Space.LATTICE, "mc-continuum": Space.CONTINUUM,
                "mc-lattice": Space.LATTICE, "colored-study": Space.CONTINUUM}
# the initial state a route needs; compare needs the one of its model space
_ROUTE_STATE = {"analytic-msd": "gaussian", "lattice-law": "point", "evolve-lattice": "point",
                "colored-study": "gaussian", "compare-continuum": "gaussian", "compare-lattice": "point"}


def _build(cfg, route, threads) -> _Setup:
    """Build the objects ``route`` runs on from a config checked by ``load_config``."""
    m, c, ini, t, mc = (cfg[key] for key in ("model", "correlation", "initial", "time", "mc"))
    params = ModelParams(hbar=float(m["hbar"]), mass=float(m["mass"]), v0=float(m["v0"]),
                         dim=m["dim"], space=Space(m["space"]))
    space = _ROUTE_SPACE.get(route, params.space)
    if space is not params.space:
        raise ConfigError(f"config.model.space: {route} runs on a {space.value} model, got {m['space']!r}")
    plan = f"compare-{space.value}" if route == "compare" else route
    state = _ROUTE_STATE.get(plan, ini["kind"])
    if state != ini["kind"]:
        raise ConfigError(f"config.initial.kind: {route} needs the {state} initial state, got {ini['kind']!r}")
    if state == "point" and ini["trace"] != 1.0:
        # the lattice law, evolution and point_state all start from one unit-norm site
        raise ConfigError(f"config.initial.trace: the point initial state has trace 1, got {ini['trace']!r}")
    if c["kind"] == "gaussian":
        corr = GaussianCorrelation(c["matrix"])
    elif not c["path"]:
        raise ConfigError("config.correlation.path: required for kind 'table'")
    else:
        try:
            corr = load_correlation_csv(c["path"], dim=params.dim)
        except InputError as exc:
            raise ConfigError(f"config.correlation.path: {exc}") from None

    times = np.linspace(t["t_min"], t["t_max"], t["n_points"])
    s = _Setup(params, corr, times, tuple(cfg["fit"]["window"]))
    if state == "gaussian":
        s.state = GaussianPureState(ini["sigma"], dim=params.dim, trace=float(ini["trace"]))
    if plan in ("evolve-lattice", "compare-lattice"):
        ev = cfg["evolve"]
        s.lattice = LatticeInitialData.point(params.dim, ev["y_box"])
        s.evolve = dict(t_max=float(ev["t_max"]), dt=float(ev["dt"]), record_every=ev["record_every"])
    if plan in ("mc-continuum", "mc-lattice", "colored-study", "compare-continuum"):
        if space is Space.CONTINUUM:
            s.grid = FieldGrid.continuum(params.dim, cfg["grid"]["points"], cfg["grid"]["length"])
        else:
            s.grid = FieldGrid.lattice(params.dim, cfg["lattice_box"]["sites"])
    # the colored study builds its psi0 from s.state
    if plan in ("mc-continuum", "mc-lattice", "compare-continuum"):
        s.psi0 = point_state(s.grid) if state == "point" else s.state.wavefunction(s.grid)
    if plan in ("mc-continuum", "mc-lattice", "classical", "colored-study", "compare-continuum"):
        s.ensemble = dict(t_max=float(t["t_max"]), dt=float(t["dt"]), n_traj=mc["n_traj"],
                          seed=cfg["seed"], record_every=t["record_every"], threads=threads,
                          batch_size=mc["batch_size"])
        # the keys of these two sections are their drivers' keyword names
        if plan == "classical":
            s.ensemble.update(cfg["classical"])
        elif plan == "colored-study":
            s.ensemble.update(cfg["colored"], boundary_tol=mc["boundary_tol"])
        else:
            s.ensemble.update(boundary_tol=mc["boundary_tol"], scheme=mc["scheme"])
    if plan not in ("validate", "lattice-law", "colored-study"):
        # the times the route will fit, counted with the fit's own mask before it runs
        drive = s.evolve or s.ensemble
        fit_times = times if drive is None else (
            _record_steps(step_count(drive["t_max"], drive["dt"]), drive["record_every"]) * drive["dt"])
        n_fit = int(np.count_nonzero(_in_window(fit_times, *s.window)))
        if n_fit < MIN_FIT_POINTS:
            raise ConfigError(f"config.fit.window: {route} would fit {n_fit} of its times in "
                              f"{list(s.window)}, fewer than the {MIN_FIT_POINTS} a fit needs")
    return s


@functools.cache
def _scipy_version() -> str:
    # read from the installed metadata, without importing scipy; cached,
    # because the lookup scans sys.path (a few ms) on every call
    from importlib.metadata import version

    return version("scipy")


def _write_manifest(out_dir: Path, cfg, route):
    _write_json(out_dir / "manifest.json", {
        "config": cfg,
        "route": route,
        "seed": cfg["seed"],
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": _scipy_version(),
        "rng_stream_version": STREAM_VERSION,
        "rerun": f"wnt {route} --config config.json --seed {cfg['seed']}",
    })
    _write_json(out_dir / "config.json", cfg)


def _write_ratio(path, names, times, a, b) -> np.ndarray:
    """Write the CSV ``t,<names>,ratio`` of series a, b and a / b; returns a / b."""
    ratio = a / b
    _write_csv(path, ("t", *names, "ratio"), (times, a, b, ratio))
    return ratio


def _evolve(s: _Setup, out_dir):
    series, info = evolve_hierarchy(s.lattice, s.corr, s.params, **s.evolve)
    series.to_csv(out_dir / "msd_evolve.csv")
    return series, info


# ---------------------------------------------------------------- routes


def _route_validate(s: _Setup, out_dir):
    report = validate_hypotheses(s.corr, s.params)
    print(report.summary())
    (out_dir / "validation.txt").write_text(report.summary() + "\n")
    return 0 if report.passed else 2


def _route_analytic_msd(s: _Setup, out_dir):
    series = msd_closed_form(s.times, s.state, s.corr, s.params)
    series.to_csv(out_dir / "msd_closed_form.csv")
    fit = fit_power_law(series, window=s.window)
    _write_json(out_dir / "fit.json", fit.to_dict())
    coeff = cubic_coefficient(s.state, s.corr, s.params)
    _write_json(out_dir / "cubic_coefficient.json", {"cubic_coefficient": coeff})
    print(f"exponent {fit.exponent:.4f} (window {fit.window}), cubic coefficient {coeff:.6g}")
    return 0


def _route_lattice_law(s: _Setup, out_dir):
    inputs = LatticeMomentInputs.point_localized(s.corr, s.params)
    law = LatticeMSDLaw.from_inputs(inputs)
    payload = law_payload(law)
    _write_json(out_dir / "law.json", payload)
    series = MomentSeries(times=s.times, msd=msd_inverse_laplace_closed_form(s.times, law))
    series.to_csv(out_dir / "msd_lattice_law.csv")
    print(f"Cd {law.cd:.6g}, gamma {payload['gamma']}, D {payload['D']}")
    return 0


def _route_evolve_lattice(s: _Setup, out_dir):
    series, info = _evolve(s, out_dir)
    diag = {key: info[key] for key in ("trace_drift", "max_imag_residue", "max_boundary_mass")}
    _write_json(out_dir / "evolve_diagnostics.json", diag)
    fit = fit_power_law(series, window=s.window)
    _write_json(out_dir / "fit.json", fit.to_dict())
    print(f"exponent {fit.exponent:.4f} on window {fit.window}; trace drift {diag['trace_drift']:.2e}")
    return 0


def _route_mc(s: _Setup, out_dir):
    drive = run_continuum if s.params.space is Space.CONTINUUM else run_lattice
    result = drive(s.grid, s.psi0, s.corr, s.params, **s.ensemble)
    result.to_csv(out_dir / "ensemble.csv")
    fit = fit_power_law(result.times, result.msd_mean, window=s.window)
    _write_json(out_dir / "fit.json", fit.to_dict())
    kedge = "" if result.kspace_edge_max is None else f", k-space edge {result.kspace_edge_max:.2e}"
    print(f"exponent {fit.exponent:.4f} +- {fit.stderr_exponent:.4f} on {fit.window}; "
          f"norm drift {result.norm_drift_max:.2e}, boundary {result.boundary_mass_max:.2e}{kedge}")
    return 0


def _route_classical(s: _Setup, out_dir):
    params = s.params
    result = run_classical(s.corr, params, **s.ensemble)
    MomentSeries(times=result.times, msd=result.msd_mean).to_csv(out_dir / "msd_classical.csv")
    _write_csv(out_dir / "velocity_variance.csv", ("t", "vvar"), (result.times, result.vvar_mean))
    fit = fit_power_law(result.times, result.msd_mean, window=s.window)
    _write_json(out_dir / "fit.json", fit.to_dict())

    # velocity-variance slope against the two reference expressions
    x = result.times
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, result.vvar_mean, rcond=None)
    slope = float(coef[0])
    pred = A @ coef
    sst = float(np.sum((result.vvar_mean - result.vvar_mean.mean()) ** 2))
    r2 = 1.0 - float(np.sum((result.vvar_mean - pred) ** 2)) / sst if sst > 0 else 1.0
    lap_g = laplacian_g_at_zero(s.corr)
    report = {
        "vvar_slope": slope,
        "vvar_r2": r2,
        "slope_reference_full": -params.v0**2 * lap_g / params.mass**2,
        "slope_reference_printed_half": 0.5 * params.v0**2 * lap_g,
        "msd_exponent": fit.exponent,
    }
    _write_json(out_dir / "classical_report.json", report)
    print(f"msd exponent {fit.exponent:.3f}; vvar slope {slope:.4f} "
          f"(reference {report['slope_reference_full']:.4f}, printed form {report['slope_reference_printed_half']:.4f})")
    return 0


def _route_colored_study(s: _Setup, out_dir):
    rows = colored_noise_convergence_study(grid=s.grid, init=s.state, corr=s.corr, params=s.params,
                                           **s.ensemble)
    table = [{"label": r.label, "nu": r.nu, "deviation": r.deviation, "stderr": r.stderr,
              "z": r.z_score} for r in rows]
    _write_json(out_dir / "colored_study.json", table)
    for r in rows:
        r.result.to_csv(out_dir / f"ensemble_{r.label.replace('=', '_')}.csv")
        print(f"{r.label:>12}: deviation {r.deviation:+.4f} +- {r.stderr:.4f} (z = {r.z_score:+.1f})")
    return 0


def cubic_adjudication(mc_result, init, corr, params, window) -> dict:
    """Measured cubic coefficients (both routes) against the two reference
    normalizations; see docs/conventions.md.

    The Monte Carlo estimator averages (msd - free)/t^3 per trajectory over
    the window (the ratio has roughly flat variance once the cubic term
    dominates), giving an honest 95% interval from trajectory scatter.
    """
    times = mc_result.times
    mask = (times >= window[0]) & (times <= window[1])
    free = init.free_msd(times, params)
    ratios = (mc_result.per_traj_msd[:, mask] - free[mask]) / times[mask] ** 3
    b_traj = ratios.mean(axis=1)
    b_mc = float(np.mean(b_traj))
    b_mc_se = float(np.std(b_traj, ddof=1) / math.sqrt(mc_result.n_traj))
    b_cf = cubic_coefficient(init, corr, params)
    lap_g = laplacian_g_at_zero(corr)
    cand_full = -(1.0 / 3.0) * (params.v0 / params.mass) ** 2 * lap_g * init.trace
    cand_halved = cand_full / 2.0**params.dim

    def match(value):
        for name, cand in (("full", cand_full), ("dimension-halved", cand_halved)):
            if abs(value - cand) <= 0.1 * abs(cand):
                return name
        return "neither"

    return {
        "cubic_closed_form": b_cf,
        "cubic_monte_carlo": b_mc,
        "cubic_monte_carlo_ci95": [b_mc - 1.96 * b_mc_se, b_mc + 1.96 * b_mc_se],
        "reference_full_third": cand_full,
        "reference_dimension_halved": cand_halved,
        "internal_agreement_rel": abs(b_mc - b_cf) / abs(b_cf),
        "closed_form_matches": match(b_cf),
        "monte_carlo_matches": match(b_mc),
    }


def _route_compare(s: _Setup, out_dir):
    params, corr, window = s.params, s.corr, s.window
    if params.space is Space.CONTINUUM:
        mc = run_continuum(s.grid, s.psi0, corr, params, **s.ensemble)
        times = mc.times
        cf = msd_closed_form(times, s.state, corr, params)
        cf.to_csv(out_dir / "msd_closed_form.csv")
        mc.to_csv(out_dir / "ensemble.csv")

        adj = cubic_adjudication(mc, s.state, corr, params, window)
        mask = (times >= window[0]) & (times <= window[1])
        ratio = _write_ratio(out_dir / "pointwise_ratio.csv", ("msd_mc", "msd_closed_form"),
                             times[mask], mc.msd_mean[mask], cf.msd[mask])
        adj["pointwise_ratio_minmax"] = [float(ratio.min()), float(ratio.max())]
        adj["exponent_closed_form"] = fit_power_law(cf, window=window).exponent
        adj["exponent_monte_carlo"] = fit_power_law(times, mc.msd_mean, window=window).exponent
        report = {"continuum": adj}
        ci_half = adj["cubic_monte_carlo"] - adj["cubic_monte_carlo_ci95"][0]
        lines = [
            "continuum cubic-coefficient adjudication",
            f"  closed form      : {adj['cubic_closed_form']:.6g}  (matches: {adj['closed_form_matches']})",
            f"  monte carlo      : {adj['cubic_monte_carlo']:.6g} +- {ci_half:.2g} (95%)  "
            f"(matches: {adj['monte_carlo_matches']})",
            f"  reference 1/3    : {adj['reference_full_third']:.6g}",
            f"  reference 1/(3*2^d): {adj['reference_dimension_halved']:.6g}",
            f"  internal agreement: {100 * adj['internal_agreement_rel']:.2f}%",
        ]
    else:
        law = LatticeMSDLaw.from_inputs(LatticeMomentInputs.point_localized(corr, params))
        series, _ = _evolve(s, out_dir)
        mask = series.times > 0
        lawvals = msd_inverse_laplace_closed_form(series.times[mask], law)
        calib = float(series.msd[mask][-1] / lawvals[-1])
        table = MomentSeries(times=series.times[mask], msd=calib * lawvals)
        table.to_csv(out_dir / "msd_lattice_law_calibrated.csv")
        ratio = _write_ratio(out_dir / "pointwise_ratio.csv", ("msd_evolve", "law_calibrated"),
                             series.times[mask], series.msd[mask], calib * lawvals)
        report = {"lattice": {
            "calibration_constant": calib,
            "max_rel_deviation": float(np.max(np.abs(ratio - 1.0))),
            "exponent_evolve": fit_power_law(series, window=window).exponent,
        }}
        lines = [
            "lattice evolve vs closed-form law",
            f"  calibration constant: {calib:.8f}",
            f"  max rel deviation   : {report['lattice']['max_rel_deviation']:.3e}",
            f"  evolve exponent     : {report['lattice']['exponent_evolve']:.4f}",
        ]

    _write_json(out_dir / "compare_report.json", report)
    text = "\n".join(lines) + "\n"
    (out_dir / "compare_report.txt").write_text(text)
    print(text, end="")
    return 0


_ROUTES = {
    "validate": _route_validate,
    "analytic-msd": _route_analytic_msd,
    "lattice-law": _route_lattice_law,
    "evolve-lattice": _route_evolve_lattice,
    "mc-continuum": _route_mc,
    "mc-lattice": _route_mc,
    "classical": _route_classical,
    "colored-study": _route_colored_study,
    "compare": _route_compare,
}


def run(config_path, route=None, seed=None, out_dir=None, threads=DEFAULT_THREADS) -> int:
    """Execute a route from a config file; returns the process exit code."""
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"--threads: must be a positive integer, got {threads!r}")
    cfg = load_config(config_path)
    route = route or cfg["route"]
    if route not in _ROUTES:
        raise ConfigError(f"unknown route {route!r}; pick one of {sorted(_ROUTES)}")
    if seed is not None:
        cfg["seed"] = _checked(seed, DEFAULT_CONFIG["seed"], "config.seed")
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)
    cfg["route"] = route
    setup = _build(cfg, route, threads)
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    code = _ROUTES[route](setup, out)
    _write_manifest(out, cfg, route)
    return code


# ------------------------------------------------------------------ main


def _route_fit(args) -> int:
    series = MomentSeries.from_csv(args.csv)
    if (args.t_lo is None) != (args.t_hi is None):
        raise ConfigError("--t-lo and --t-hi must be given together")
    window = (args.t_lo, args.t_hi) if args.t_lo is not None else None
    fit = fit_power_law(series, window=window)
    print(fit.to_json(indent=2, sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "fit.json", fit.to_dict())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wnt",
        description="Transport of a quantum particle in a rapidly fluctuating random potential: "
                    "analytic, deterministic and Monte Carlo routes.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument("--out", default=None, help="override output directory")
    common.add_argument("--threads", type=int, default=DEFAULT_THREADS,
                        help="worker threads for ensembles (default: the cores this process may use)")

    for name in _ROUTES:
        sub.add_parser(name, parents=[common], help=f"run the {name} route")

    p_fit = sub.add_parser("fit", help="power-law fit of an existing series CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--t-lo", type=float, default=None)
    p_fit.add_argument("--t-hi", type=float, default=None)
    p_fit.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _route_fit(args)
        return run(args.config, route=args.command, seed=args.seed, out_dir=args.out,
                   threads=args.threads)
    except InputError as exc:
        print(f"{'config' if isinstance(exc, ConfigError) else 'input'} error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
