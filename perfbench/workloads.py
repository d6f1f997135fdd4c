"""The benchmark workloads: seeded configs, the calls that run them, their
reference values and their correctness checks.

Every workload is a fixed list of operations.  An operation is either one
``wnt`` route, run in-process through ``whitenoise_transport.cli.run`` from
a generated config file, or one call of a public library function.  The
problem shapes are fixed; ``scale`` only shortens runs ("tiny" is for the
benchmark's own tests).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The package is imported from this checkout's src/ and nowhere else: a
# copy installed in site-packages must not stand in for missing sources.
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "whitenoise_transport"
if not (PACKAGE / "__init__.py").is_file():
    raise SystemExit(f"perfbench: package source not found at {PACKAGE}")
sys.path.insert(0, str(ROOT / "src"))

from whitenoise_transport import (analytic_continuum, analytic_lattice, cli,  # noqa: E402
                                  core_model, errors, evolve_lattice, mc_simulator,
                                  transforms_fit)

if Path(cli.__file__).resolve().parent != PACKAGE:
    raise SystemExit(f"perfbench: imported {cli.__file__}, expected the package in {PACKAGE}")

THREADS = min(2, len(os.sched_getaffinity(0)))
NAMES = ("continuum", "small-grid", "colored", "deterministic")
MC_ROUTES = {"mc-continuum", "mc-lattice", "classical", "colored-study"}

GAUSS_1D = {"kind": "gaussian", "matrix": [[1.0]]}
SHARP_1D = {"kind": "gaussian", "matrix": [[40.0]]}  # unit lattice dephasing rate
LATTICE = {"dim": 1, "space": "lattice"}
CONTINUUM = {"dim": 1, "space": "continuum"}

# Run lengths per scale.  Full-scale trajectory counts are multiples of
# batch x threads so both ensemble threads get work; run_classical ignores
# mc.batch_size and always batches 500 trajectories, so its count is a
# multiple of 2 x 500.  The ensembles are large enough that the final-time
# relative standard error, which time_to_1pct_s squares, varies little
# from seed to seed.
SIZES = {
    "full": {"continuum": {"n_traj": 1000, "t_max": 0.8},
             "lattice": {"n_traj": 1000, "t_max": 2.5},
             "classical": {"n_traj": 6000, "t_max": 0.08},
             "colored": {"n_traj": 500, "t_max": 0.15},
             "evolve_t_max": (50.0, 10.0)},
    "tiny": {"continuum": {"n_traj": 40, "t_max": 0.8},
             "lattice": {"n_traj": 40, "t_max": 1.6},
             "classical": {"n_traj": 40, "t_max": 0.08},
             "colored": {"n_traj": 40, "t_max": 0.2},
             "evolve_t_max": (5.0, 1.0)},
}


@dataclass
class Op:
    """One timed call of a workload."""

    label: str
    route: str | None          # wnt route, or None for ``call``
    config: dict = field(default_factory=dict)
    warmup: dict = field(default_factory=dict)   # overrides for the minimal warm-up call
    call: object = None        # library call: (warmup: bool) -> np.ndarray
    steps: int = 0             # trajectory-steps (MC) or RK4 steps (deterministic)


@dataclass
class OpResult:
    label: str
    wall: float
    digest: str
    error: str | None
    ensembles: list            # (wall, result) of each ensemble the call ran
    captured: dict             # library results the call produced, by function name
    out_dir: Path | None
    value: object = None


def _merge(base, over):
    out = json.loads(json.dumps(base))
    for k, v in over.items():
        out[k] = _merge(out[k], v) if isinstance(v, dict) and isinstance(out.get(k), dict) else v
    return out


def _steps(t_max, dt):
    return int(round(t_max / dt))


# ------------------------------------------------------------ workloads


def _continuum(seed, s):
    c = s["continuum"]
    cfg = {"model": CONTINUUM, "correlation": GAUSS_1D,
           "initial": {"kind": "gaussian", "sigma": [1.0]},
           "grid": {"points": 1024, "length": 192.0},
           "time": {"t_max": c["t_max"], "dt": 0.01, "record_every": 10},
           "mc": {"n_traj": c["n_traj"], "batch_size": 250, "boundary_tol": 1e-6},
           "fit": {"window": [0.1, c["t_max"]]}, "seed": seed}
    warm = {"time": {"t_max": 0.08, "record_every": 1}, "mc": {"n_traj": 2, "batch_size": 2},
            "fit": {"window": [0.01, 0.08]}}
    return [Op("mc-continuum", "mc-continuum", cfg, warm, steps=c["n_traj"] * _steps(c["t_max"], 0.01))]


def _small_grid(seed, s):
    lat, cl = s["lattice"], s["classical"]
    lattice = {"model": LATTICE, "correlation": SHARP_1D, "initial": {"kind": "point"},
               "lattice_box": {"sites": 256},
               "time": {"t_max": lat["t_max"], "dt": 0.05, "record_every": 4},
               "mc": {"n_traj": lat["n_traj"], "batch_size": 250, "boundary_tol": 1e-6},
               "fit": {"window": [0.2, lat["t_max"]]}, "seed": seed}
    classical = {"model": CONTINUUM, "correlation": GAUSS_1D, "classical": {"v0_init": [0.0]},
                 "time": {"t_max": cl["t_max"], "dt": 0.01, "record_every": 1},
                 "mc": {"n_traj": cl["n_traj"]},
                 "fit": {"window": [0.01, cl["t_max"]]}, "seed": seed}
    return [
        Op("mc-lattice", "mc-lattice", lattice,
           {"time": {"t_max": 0.4, "record_every": 1}, "mc": {"n_traj": 2, "batch_size": 2},
            "fit": {"window": [0.05, 0.4]}},
           steps=lat["n_traj"] * _steps(lat["t_max"], 0.05)),
        Op("classical", "classical", classical,
           {"time": {"t_max": 0.08, "record_every": 1}, "mc": {"n_traj": 2},
            "fit": {"window": [0.01, 0.08]}},
           steps=cl["n_traj"] * _steps(cl["t_max"], 0.01)),
    ]


def _colored(seed, s):
    c = s["colored"]
    cfg = {"model": CONTINUUM, "correlation": GAUSS_1D,
           "initial": {"kind": "gaussian", "sigma": [1.0]},
           "grid": {"points": 512, "length": 120.0},
           "time": {"t_max": c["t_max"], "dt": 0.0125, "record_every": 4},
           "mc": {"n_traj": c["n_traj"], "batch_size": 250, "boundary_tol": 1e-6},
           "colored": {"nu_list": [0.4, 0.2, 0.1], "include_ito": True, "window_frac": 0.5},
           "seed": seed}
    warm = {"time": {"t_max": 0.1, "record_every": 1}, "mc": {"n_traj": 2, "batch_size": 2}}
    # white endpoint, three colored widths, Ito control: five ensembles
    return [Op("colored-study", "colored-study", cfg, warm,
               steps=5 * c["n_traj"] * _steps(c["t_max"], 0.0125))]


def _talbot(warmup):
    """Talbot inversion of the lattice Laplace-domain MSD chain."""
    params = core_model.ModelParams(space=core_model.Space.LATTICE)
    inputs = analytic_lattice.LatticeMomentInputs.point_localized(
        core_model.GaussianCorrelation(SHARP_1D["matrix"]), params)
    times = np.linspace(0.1, 50.0, 2 if warmup else 160)
    return transforms_fit.inverse_laplace_numeric(lambda s: analytic_lattice.laplace_msd(s, inputs), times)


def _deterministic(seed, s):
    t1, t2 = s["evolve_t_max"]
    times = {"t_min": 30.0, "t_max": 300.0, "n_points": 181}
    few = {"time": {"n_points": 9}}
    msd_1d = {"model": CONTINUUM, "correlation": GAUSS_1D,
              "initial": {"kind": "gaussian", "sigma": [1.0]}, "time": times,
              "fit": {"window": [30.0, 300.0]}, "seed": seed}
    msd_2d = _merge(msd_1d, {"model": {"dim": 2}, "initial": {"sigma": [1.0, 1.0]}})
    msd_2d["correlation"] = {"kind": "gaussian", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
    law = {"model": LATTICE, "correlation": SHARP_1D, "initial": {"kind": "point"},
           "time": {"t_min": 0.0, "t_max": 50.0, "n_points": 181}, "seed": seed}
    cmp_1d = {"model": LATTICE, "correlation": SHARP_1D, "initial": {"kind": "point"},
              "evolve": {"y_box": 9, "dt": 0.01, "record_every": 10, "t_max": t1},
              "fit": {"window": [t1 / 5, t1]}, "seed": seed}
    cmp_2d = _merge(cmp_1d, {"model": {"dim": 2}, "evolve": {"y_box": 15, "t_max": t2},
                             "fit": {"window": [t2 / 5, t2]}})
    cmp_2d["correlation"] = {"kind": "gaussian", "matrix": [[40.0, 0.0], [0.0, 40.0]]}
    warm_cmp = {"evolve": {"t_max": 0.2, "record_every": 1}, "fit": {"window": [0.02, 0.2]}}
    return [
        Op("analytic-msd-1d", "analytic-msd", msd_1d, few),
        Op("analytic-msd-2d", "analytic-msd", msd_2d, few),
        Op("lattice-law", "lattice-law", law, few),
        Op("compare-1d", "compare", cmp_1d, warm_cmp, steps=_steps(t1, 0.01)),
        Op("compare-2d", "compare", cmp_2d, warm_cmp, steps=_steps(t2, 0.01)),
        Op("talbot", None, call=_talbot),
    ]


BUILDERS = {"continuum": _continuum, "small-grid": _small_grid, "colored": _colored,
            "deterministic": _deterministic}


# -------------------------------------------------------------- capture


class Capture:
    """Keeps what the library functions called by a route returned.

    Installed for a whole run.  The tracer wraps these wrappers in turn, so
    a traced pass captures the same results.
    """

    TARGETS = [(cli, "run_continuum"), (cli, "run_lattice"), (cli, "run_classical"),
               (cli, "colored_noise_convergence_study"), (cli, "evolve_hierarchy"),
               # the ensembles of the colored study
               (mc_simulator, "run_continuum")]
    ENSEMBLES = {"run_continuum", "run_lattice", "run_classical"}

    def __init__(self):
        self.ensembles = []
        self.results = {}
        self._saved = []

    def install(self):
        for owner, name in self.TARGETS:
            orig = getattr(owner, name)
            self._saved.append((owner, name, orig))
            setattr(owner, name, self._wrap(name, orig))
        return self

    def restore(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def _wrap(self, name, func):
        capture = self

        def captured(*args, **kwargs):
            t0 = time.perf_counter()
            out = func(*args, **kwargs)
            wall = time.perf_counter() - t0
            capture.results[name] = out
            if name in capture.ENSEMBLES:
                capture.ensembles.append((wall, out))
            return out

        captured.__wrapped__ = func
        return captured

    def reset(self):
        self.ensembles, self.results = [], {}


# ------------------------------------------------------------- running


def digest_dir(path: Path) -> str:
    """SHA-256 over a route's data files; manifest.json is excluded."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        if f.is_file() and f.name != "manifest.json":
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Workload:
    def __init__(self, name, seed, work_dir: Path, scale="full"):
        self.dir = work_dir / name
        self.ops = BUILDERS[name](seed, SIZES[scale])
        self.is_mc = any(op.route in MC_ROUTES for op in self.ops)
        self._refs = {}

    def colored_window_bytes(self, threads) -> int:
        """Box-filter windows held by ColoredStream: q x batch x sites x 8 B per thread."""
        total = 0
        for op in self.ops:
            if op.route == "colored-study":
                q = max(round(nu / op.config["time"]["dt"]) for nu in op.config["colored"]["nu_list"])
                batch = min(op.config["mc"]["batch_size"], op.config["mc"]["n_traj"])
                total += q * batch * op.config["grid"]["points"] * 8 * threads
        return total

    def write_configs(self):
        """Generate each route's config file and validate it with load_config."""
        self.dir.mkdir(parents=True, exist_ok=True)
        for op in self.ops:
            if op.route is None:
                continue
            for suffix, cfg in (("", op.config), ("-warmup", _merge(op.config, op.warmup))):
                path = self.dir / f"{op.label}{suffix}.json"
                path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
                cli.load_config(path)

    def warm_up(self, threads):
        """One minimal call per route, so FFT plans and lazy imports are ready."""
        for op in self.ops:
            if op.route is None:
                op.call(True)
            else:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.run(self.dir / f"{op.label}-warmup.json", route=op.route,
                            out_dir=self.dir / f"{op.label}-warmup", threads=threads)

    def run_op(self, op, threads, capture: Capture) -> OpResult:
        capture.reset()
        out = self.dir / op.label
        value, error = None, None
        t0 = time.perf_counter()
        try:
            if op.route is None:
                value = op.call(False)
            else:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(self.dir / f"{op.label}.json", route=op.route, out_dir=out,
                                   threads=threads)
                if code != 0:
                    error = f"exit code {code}"
        except errors.Error as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if error is not None:
            digest = ""
        elif op.route is None:
            digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        else:
            digest = digest_dir(out)
        return OpResult(op.label, wall, digest, error, list(capture.ensembles),
                        dict(capture.results), None if op.route is None else out, value)

    # -------------------------------------------------------- checks

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def checks(self, res: OpResult):
        """(name, passed, detail) for every correctness check of one call."""
        return getattr(self, "_check_" + res.label.replace("-", "_"), lambda r: [])(res)

    def _check_mc_continuum(self, res):
        ens = res.captured["run_continuum"]
        params = core_model.ModelParams()
        corr = core_model.GaussianCorrelation(GAUSS_1D["matrix"])
        init = analytic_continuum.GaussianPureState(1.0, dim=1)
        ref = self._ref("continuum", lambda: analytic_continuum.msd_closed_form(
            ens.times, init, corr, params).msd)
        tol = self.ops[0].config["mc"]["boundary_tol"]
        return [msd_agreement("continuum MSD vs msd_closed_form", ens, ref),
                ("continuum norm drift", ens.norm_drift_max <= 1e-10, f"{ens.norm_drift_max:.2e} <= 1e-10"),
                ("continuum boundary mass", ens.boundary_mass_max <= tol,
                 f"{ens.boundary_mass_max:.2e} <= {tol:.0e}")]

    def _check_mc_lattice(self, res):
        ens = res.captured["run_lattice"]
        t_max = float(ens.times[-1])

        def reference():
            params = core_model.ModelParams(space=core_model.Space.LATTICE)
            corr = core_model.GaussianCorrelation(SHARP_1D["matrix"])
            series, _ = evolve_lattice.evolve_hierarchy(
                evolve_lattice.LatticeInitialData.point(1, 9), corr, params,
                t_max=t_max, dt=0.01, record_every=20)
            return np.interp(ens.times, series.times, series.msd)

        return [msd_agreement("lattice MC MSD vs evolve_hierarchy", ens, self._ref("lattice", reference))]

    def _check_classical(self, res):
        ens = res.captured["run_classical"]
        corr = core_model.GaussianCorrelation(GAUSS_1D["matrix"])
        params = core_model.ModelParams()
        rate = -params.v0**2 * core_model.laplacian_g_at_zero(corr) / params.mass**2
        mask = ens.times > 0
        dev = np.abs(ens.vvar_mean[mask] - rate * ens.times[mask]) / ens.vvar_stderr[mask]
        return [("classical velocity variance vs -v0^2 lap g(0) t / m^2", bool(np.all(dev <= 4.0)),
                 f"max |dev|/stderr {float(dev.max()):.2f} <= 4 (rate {rate:g})")]

    def _check_colored_study(self, res):
        rows = {r.label: r for r in res.captured["colored_noise_convergence_study"]}
        white, ito = rows["white"], rows["ito-control"]
        return [("colored white-endpoint |z|", abs(white.z_score) <= 4.0, f"z = {white.z_score:+.2f}"),
                ("colored Ito-control z", ito.z_score > 3.0, f"z = {ito.z_score:+.1f} > 3")]

    def _check_analytic_msd_1d(self, res):
        exponent = json.loads((res.out_dir / "fit.json").read_text())["exponent"]
        return [("1a' exponent on [30, 300]", 2.99 <= exponent <= 3.01, f"{exponent:.5f} in [2.99, 3.01]")]

    def _check_compare_1d(self, res):
        rep = json.loads((res.out_dir / "compare_report.json").read_text())["lattice"]
        drift = res.captured["evolve_hierarchy"][1]["trace_drift"]
        tag = res.label
        return [(f"{tag} calibration constant", abs(rep["calibration_constant"] - 0.25) <= 1e-6,
                 f"{rep['calibration_constant']:.9f} = 0.25 +- 1e-6"),
                (f"{tag} evolve vs law", rep["max_rel_deviation"] <= 1e-4,
                 f"max rel dev {rep['max_rel_deviation']:.2e} <= 1e-4"),
                (f"{tag} trace drift", drift <= 1e-12, f"{drift:.1e} <= 1e-12")]

    _check_compare_2d = _check_compare_1d

    def _check_talbot(self, res):
        params = core_model.ModelParams(space=core_model.Space.LATTICE)
        inputs = analytic_lattice.LatticeMomentInputs.point_localized(
            core_model.GaussianCorrelation(SHARP_1D["matrix"]), params)
        law = analytic_lattice.LatticeMSDLaw.from_inputs(inputs)
        exact = analytic_lattice.msd_inverse_laplace_closed_form(np.linspace(0.1, 50.0, res.value.size), law)
        worst = float(np.max(np.abs(res.value - exact) / np.abs(exact)))
        return [("Talbot vs closed-form inverse", worst <= 1e-9, f"max rel err {worst:.1e} <= 1e-9")]


def msd_agreement(name, ens, ref):
    """MC mean within 4 stderr + 1e-3 reference at every recorded t > 0."""
    mask = ens.times > 0
    gap = np.abs(ens.msd_mean[mask] - ref[mask])
    allowed = 4.0 * ens.msd_stderr[mask] + 1e-3 * np.abs(ref[mask])
    worst = float(np.max(gap / allowed))
    return (name, bool(np.all(gap <= allowed)), f"worst gap / allowance {worst:.2f} <= 1")


def final_rel_stderr(result) -> float:
    """Relative standard error of an ensemble's final-time MSD."""
    return float(result.msd_stderr[-1] / result.msd_mean[-1])


def time_to_1pct(ensembles) -> float:
    """Sum of ensemble wall x (final-time MSD relative stderr / 0.01)^2."""
    return math.fsum(wall * (final_rel_stderr(res) / 0.01) ** 2 for wall, res in ensembles)
