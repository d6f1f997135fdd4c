"""Acceptance gate: one test per headline criterion, stated tolerances.

Every test prints a PASS/FAIL line (visible with ``pytest -s``) and the
collected table is written to ``acceptance_report.txt`` next to this file.
The Monte Carlo ensembles are shared through module-scoped fixtures; the
full module runs in a few minutes on one core.

Known red: criterion 1a pins the window t in [10, 100] together with
sigma = 1, which leaves ~4% ballistic contamination at the window's low
edge; the exact closed-form law then fits to slope 2.9884 < 2.99 for any
uniform or log-uniform sampling, so the stated band [2.99, 3.01] is not
attainable.  The test asserts the stated band anyway; the same law fitted
on [30, 300] (clean window, same tolerance) passes and is checked below.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from whitenoise_transport import (BALLISTIC, FieldGrid, GaussianCorrelation,
                                  GaussianPureState, LatticeInitialData, LatticeMSDLaw,
                                  LatticeMomentInputs, ModelParams, Space, TabulatedCorrelation,
                                  cubic_coefficient, diffusion_constant, evolve_hierarchy,
                                  fit_power_law, inverse_laplace_numeric,
                                  kernel_hat, laplace_msd, msd_closed_form,
                                  msd_inverse_laplace_closed_form, phase, point_state,
                                  run_classical, run_continuum, run_lattice,
                                  validate_hypotheses)
from whitenoise_transport.mc_simulator import colored_noise_convergence_study

from conftest import ols_line

SEED = 12345
P = ModelParams()                                  # hbar = m = v0 = 1, d = 1
P_FREE = ModelParams(v0=0.0)
P_LAT = ModelParams(space=Space.LATTICE)
CORR = GaussianCorrelation([[1.0]])                # g(x) = exp(-x^2)
SHARP = GaussianCorrelation([[40.0]])              # unit lattice dephasing rate
INIT = GaussianPureState(1.0, dim=1)

_REPORT_LINES = []


def report(criterion, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}"
    _REPORT_LINES.append(line)
    print(line)


@pytest.fixture(scope="session", autouse=True)
def write_report():
    yield
    path = Path(__file__).parent / "acceptance_report.txt"
    path.write_text("\n".join(_REPORT_LINES) + "\n")
    print("\n".join(["", "acceptance summary:"] + _REPORT_LINES))


@pytest.fixture(scope="module")
def continuum_mc():
    """Criterion 1b ensemble: 2000 trajectories on a 1024-point grid.

    The box length balances momentum aliasing against boundary mass; with
    1024 points at t = 10 the two tails meet near 3.7 sigma each, so the
    boundary monitor threshold is opened to 1e-2 for this run (the clean
    <1e-6 configuration needs 2048 points and is exercised separately).
    """
    grid = FieldGrid.continuum(1, 1024, 192.0)
    psi = INIT.wavefunction(grid)
    return run_continuum(grid, psi, CORR, P, t_max=10.0, dt=0.01, n_traj=2000, seed=SEED,
                         record_every=10, boundary_tol=1e-2)


@pytest.fixture(scope="module")
def lattice_mc():
    grid = FieldGrid.lattice(1, 256)
    return run_lattice(grid, point_state(grid), SHARP, P_LAT, t_max=50.0, dt=0.05,
                       n_traj=2000, seed=SEED, record_every=4)


@pytest.fixture(scope="module")
def evolve_series():
    series, info = evolve_hierarchy(LatticeInitialData.point(1, 9), SHARP, P_LAT,
                                    t_max=50.0, dt=0.01, record_every=10)
    return series, info


class TestCriterion1Superballistic:
    def test_1a_closed_form_exponent(self):
        times = np.linspace(10.0, 100.0, 181)
        series = msd_closed_form(times, INIT, CORR, P)
        fit = fit_power_law(series, window=(10.0, 100.0))
        ok = 2.99 <= fit.exponent <= 3.01
        report("1a", ok, f"closed-form exponent on [10,100] = {fit.exponent:.5f} "
                         f"(band [2.99, 3.01]; ballistic t^2/4 contamination makes the exact "
                         f"law fit to 2.9884 on this pinned window)")
        assert ok, (
            f"fitted exponent {fit.exponent:.5f} outside [2.99, 3.01]: the pinned window "
            f"[10,100] with sigma=1 retains ~3.8% ballistic contamination at t=10; the exact "
            f"composed law (free + (2/3) t^3) cannot fit above 2.9886 under uniform sampling. "
            f"See the clean-window check below and docs/conventions.md."
        )

    def test_1a_exponent_clean_window(self):
        # same law, same tolerance, contamination-free window
        times = np.linspace(30.0, 300.0, 271)
        fit = fit_power_law(msd_closed_form(times, INIT, CORR, P), window=(30.0, 300.0))
        ok = 2.99 <= fit.exponent <= 3.01
        report("1a'", ok, f"closed-form exponent on [30,300] = {fit.exponent:.5f}")
        assert ok

    def test_1b_monte_carlo_exponent_and_coefficient(self, continuum_mc):
        res = continuum_mc
        fit = fit_power_law(res.times, res.msd_mean, window=(2.0, 10.0))
        ok_exp = 2.8 <= fit.exponent <= 3.2

        free = INIT.free_msd(res.times, P)
        mask = (res.times >= 3.0) & (res.times <= 10.0)
        ratios = (res.per_traj_msd[:, mask] - free[mask]) / res.times[mask] ** 3
        b_i = ratios.mean(axis=1)
        b_mc = float(b_i.mean())
        ci = 1.96 * float(b_i.std(ddof=1)) / math.sqrt(res.n_traj)
        b_cf = cubic_coefficient(INIT, CORR, P)
        ok_coef = abs(b_mc - b_cf) <= ci
        report("1b", ok_exp and ok_coef,
               f"MC exponent [2,10] = {fit.exponent:.3f} in [2.8,3.2]: {ok_exp}; "
               f"t^3 coefficient {b_mc:.4f} +- {ci:.4f} vs closed form {b_cf:.4f}: {ok_coef}")
        assert ok_exp
        assert ok_coef


class TestCriterion2PrefactorAdjudication:
    def test_compare_report_flags(self, continuum_mc):
        from whitenoise_transport.cli import cubic_adjudication

        adj = cubic_adjudication(continuum_mc, INIT, CORR, P, window=(3.0, 10.0))
        ok = adj["internal_agreement_rel"] <= 0.10
        report("2", ok,
               f"measured pair: closed form {adj['cubic_closed_form']:.4f} "
               f"(matches {adj['closed_form_matches']}), MC {adj['cubic_monte_carlo']:.4f} "
               f"(matches {adj['monte_carlo_matches']}); references "
               f"full={adj['reference_full_third']:.4f}, "
               f"halved={adj['reference_dimension_halved']:.4f}; "
               f"internal agreement {100 * adj['internal_agreement_rel']:.2f}% <= 10%")
        assert ok
        # the pass condition is internal agreement; record which reference
        # the measured pair matched (the full 1/3-without-halving form)
        assert adj["closed_form_matches"] == "full"


class TestCriterion3LatticeDiffusive:
    def test_3a_evolve_matches_law_after_one_constant(self, evolve_series):
        series, info = evolve_series
        law = LatticeMSDLaw.from_inputs(LatticeMomentInputs.point_localized(SHARP, P_LAT))
        mask = (series.times >= 0.1) & (series.times <= 50.0)
        vals = msd_inverse_laplace_closed_form(series.times[mask], law)
        constant = float(series.msd[mask][-1] / vals[-1])
        max_rel = float(np.max(np.abs(series.msd[mask] / (constant * vals) - 1.0)))
        ok = max_rel <= 1e-4
        report("3a", ok, f"calibration constant {constant:.8f} (k-Laplacian normalization 1/4); "
                         f"max pointwise rel dev {max_rel:.2e} <= 1e-4")
        assert ok

    def test_3b_late_window_diffusive_exponent(self):
        series, _ = evolve_hierarchy(LatticeInitialData.point(1, 9), SHARP, P_LAT,
                                     t_max=500.0, dt=0.02, record_every=50)
        fit = fit_power_law(series, window=(100.0, 500.0))
        ok = 0.97 <= fit.exponent <= 1.03
        report("3b", ok, f"evolve exponent on [100,500]/Gamma = {fit.exponent:.4f} in [0.97,1.03]")
        assert ok

    def test_3c_short_window_ballistic_exponent(self):
        series, _ = evolve_hierarchy(LatticeInitialData.point(1, 9), SHARP, P_LAT,
                                     t_max=0.05, dt=0.002, record_every=1)
        mask = series.times > 0
        fit = fit_power_law(series.times[mask], series.msd[mask])
        ok = 1.95 <= fit.exponent <= 2.05
        report("3c", ok, f"evolve exponent on (0,0.05]/Gamma = {fit.exponent:.4f} in [1.95,2.05]")
        assert ok

    def test_3d_monte_carlo_exponent(self, lattice_mc):
        fit = fit_power_law(lattice_mc.times, lattice_mc.msd_mean, window=(10.0, 50.0))
        ok = 0.85 <= fit.exponent <= 1.15
        report("3d", ok, f"lattice MC exponent on [10,50] = {fit.exponent:.3f} in [0.85,1.15] "
                         f"(n_traj=2000)")
        assert ok


class TestCriterion4BallisticLimits:
    def test_continuum_analytic_disorder_off(self):
        times = np.linspace(100.0, 1000.0, 91)
        fit = fit_power_law(msd_closed_form(times, INIT, CORR, P_FREE), window=(100.0, 1000.0))
        ok = 1.99 <= fit.exponent <= 2.01
        report("4 (continuum v0=0)", ok, f"closed-form exponent = {fit.exponent:.4f}")
        assert ok

    def test_lattice_evolve_disorder_off(self):
        series, _ = evolve_hierarchy(LatticeInitialData.point(1, 9), SHARP,
                                     ModelParams(v0=0.0, space=Space.LATTICE),
                                     t_max=20.0, dt=0.01, record_every=20)
        mask = series.times > 0
        fit = fit_power_law(series.times[mask], series.msd[mask])
        ok = 1.99 <= fit.exponent <= 2.01
        report("4 (lattice v0=0)", ok, f"evolve exponent = {fit.exponent:.6f}")
        assert ok

    def test_degenerate_channel_ballistic(self):
        # fully correlated noise at unit spacing: g(0) = g(e1), Gamma = 0
        xs = np.arange(-64, 65) / 16.0
        flat = TabulatedCorrelation(xs, np.cos(np.pi * xs) ** 2)
        inputs = LatticeMomentInputs.point_localized(flat, P_LAT)
        d = diffusion_constant(LatticeMSDLaw.from_inputs(inputs))
        ok_flag = d == BALLISTIC

        series, _ = evolve_hierarchy(LatticeInitialData.point(1, 9), flat, P_LAT,
                                     t_max=20.0, dt=0.01, record_every=20)
        mask = series.times > 0
        fit = fit_power_law(series.times[mask], series.msd[mask])
        ok_exp = 1.95 <= fit.exponent <= 2.05
        report("4 (degenerate channel)", ok_flag and ok_exp,
               f"diffusion_constant -> {d!r}; evolve exponent = {fit.exponent:.4f}")
        assert ok_flag
        assert ok_exp


class TestCriterion5LaplaceMachinery:
    def test_talbot_against_closed_form(self):
        ts = np.linspace(0.1, 50.0, 160)
        worst = 0.0
        for g in (0.5, 1.0, 2.0):
            got = inverse_laplace_numeric(lambda s: 1.0 / (s**2 * (s + g)), ts)
            exact = np.exp(-g * ts) / g**2 + ts / g - 1.0 / g**2
            worst = max(worst, float(np.max(np.abs(got - exact) / np.abs(exact))))
        ok = worst <= 1e-8
        report("5 (inversion)", ok, f"max rel err over Gamma in {{0.5,1,2}}, t in [0.1,50]: {worst:.2e}")
        assert ok

    def test_laplace_msd_real(self):
        inputs = LatticeMomentInputs.point_localized(SHARP, P_LAT)
        worst = 0.0
        for s in np.geomspace(1e-3, 1e3, 25):
            val = laplace_msd(float(s), inputs)
            worst = max(worst, abs(val.imag) / abs(val))
        ok = worst <= 1e-12
        report("5 (reality)", ok, f"max |Im|/|value| at real s: {worst:.2e}")
        assert ok


@pytest.fixture(scope="module")
def study():
    grid = FieldGrid.continuum(1, 512, 120.0)
    return colored_noise_convergence_study(
        [0.4, 0.2, 0.1], grid, INIT, CORR, P, t_max=4.0, dt=0.0125,
        n_traj=800, seed=SEED, record_every=16, include_ito=True, boundary_tol=1e-3)


class TestCriterion6StratonovichContract:
    def test_deviations_nonincreasing_and_endpoints(self, study):
        white = study[0]
        colored = [r for r in study if r.label.startswith("nu=")]
        ito = study[-1]
        ok_mono = all(
            abs(colored[i].deviation) >= abs(colored[i + 1].deviation)
            - 2.0 * (colored[i].stderr + colored[i + 1].stderr)
            for i in range(len(colored) - 1))
        ok_power = abs(colored[0].z_score) > 2.0
        ok_white = abs(white.z_score) <= 3.0
        ok_ito = ito.z_score > 3.0
        detail = "; ".join(f"{r.label}: {r.deviation:+.4f}+-{r.stderr:.4f}" for r in study)
        report("6", ok_mono and ok_power and ok_white and ok_ito,
               f"{detail}; monotone {ok_mono}, largest-nu power {ok_power}, "
               f"white z {white.z_score:+.1f} <= 3, ito z {ito.z_score:.0f} > 3")
        assert ok_mono
        assert ok_power
        assert ok_white
        assert ok_ito


class TestCriterion7PropertySuites:
    def test_trace_conservation_all_routes(self, continuum_mc):
        vals = [kernel_hat([0.0], [0.0], t, INIT, CORR, P) for t in (0.0, 1.0, 10.0, 100.0)]
        ok_analytic = max(abs(v - vals[0]) for v in vals) <= 1e-12 * abs(vals[0])
        _, info = evolve_hierarchy(LatticeInitialData.point(1, 9), SHARP, P_LAT,
                                   t_max=100.0, dt=0.01, record_every=1000)
        ok_evolve = info["trace_drift"] < 1e-10
        ok_mc = continuum_mc.norm_drift_max < 1e-10
        report("7 (trace)", ok_analytic and ok_evolve and ok_mc,
               f"analytic exact, evolve drift {info['trace_drift']:.1e}, "
               f"MC norm drift {continuum_mc.norm_drift_max:.1e}")
        assert ok_analytic and ok_evolve and ok_mc

    def test_phase_stationarity_at_k_zero(self):
        h = 1e-5
        ok = True
        for t in (1.0, 10.0, 100.0):
            ok &= phase([0.0], t, CORR, P) == 0.0
            fd = (phase([h], t, CORR, P)
                  - phase([-h], t, CORR, P)) / (2 * h)
            ok &= abs(fd) < 1e-9
        report("7 (phase)", ok, "phase(0,t) = 0 and grad_k phase(0,t) = 0 (step 1e-5, bound 1e-9)")
        assert ok

    def test_hypothesis_validation(self):
        ok = validate_hypotheses(CORR, P).passed and validate_hypotheses(SHARP, P_LAT).passed
        report("7 (hypotheses)", ok, "correlation admissibility checks pass for both test kernels")
        assert ok

    def test_rng_reproducibility_across_threads(self):
        grid = FieldGrid.continuum(1, 256, 60.0)
        psi = INIT.wavefunction(grid)
        kw = dict(t_max=0.5, dt=0.01, n_traj=16, seed=SEED, record_every=10, boundary_tol=1e-3)
        a = run_continuum(grid, psi, CORR, P, threads=1, batch_size=16, **kw)
        b = run_continuum(grid, psi, CORR, P, threads=4, batch_size=4, **kw)
        ok = bool(np.array_equal(a.per_traj_msd, b.per_traj_msd))
        report("7 (rng)", ok, "per-trajectory observables bit-identical for 1 vs 4 threads")
        assert ok

    def test_stderr_scaling(self):
        grid = FieldGrid.continuum(1, 256, 60.0)
        psi = INIT.wavefunction(grid)
        kw = dict(t_max=1.0, dt=0.02, record_every=25, boundary_tol=1e-3)
        small = run_continuum(grid, psi, CORR, P, n_traj=60, seed=SEED, **kw)
        big = run_continuum(grid, psi, CORR, P, n_traj=240, seed=SEED, **kw)
        ratio = float(small.msd_stderr[-1] / big.msd_stderr[-1])
        ok = 1.6 <= ratio <= 2.4
        report("7 (stderr)", ok, f"stderr ratio at 4x trajectories: {ratio:.2f} (expect 2 +- 20%)")
        assert ok


class TestCriterion8EnergyGrowth:
    def test_late_window_linear_growth(self, continuum_mc):
        res = continuum_mc
        mask = res.times >= 5.0
        slope, _, r2 = ols_line(res.times[mask], res.energy_mean[mask])
        ok = slope > 0 and r2 >= 0.98
        report("8", ok, f"kinetic-energy late-window slope {slope:.4f} > 0, r^2 = {r2:.4f} >= 0.98")
        assert ok


@pytest.fixture(scope="module")
def classical():
    return run_classical(CORR, P, [0.0], t_max=10.0, dt=0.01, n_traj=2000, seed=SEED,
                         record_every=20)


class TestCriterion9ClassicalAnalog:
    def test_displacement_exponent(self, classical):
        mask = classical.times >= 2.0
        fit = fit_power_law(classical.times[mask], classical.msd_mean[mask])
        ok = 2.8 <= fit.exponent <= 3.2
        report("9 (msd)", ok, f"classical MSD exponent = {fit.exponent:.3f} in [2.8,3.2]")
        assert ok

    def test_velocity_variance_slope(self, classical):
        slope, _, r2 = ols_line(classical.times, classical.vvar_mean)
        reference = 2.0        # -v0^2 (lap g)(0) / m^2
        printed_half = -1.0    # (1/2) v0^2 (lap g)(0): negative, cannot be a growth rate
        ok = slope > 0 and r2 >= 0.98
        report("9 (vvar)", ok,
               f"velocity-variance slope {slope:.4f} (r^2 = {r2:.4f}); reference "
               f"-v0^2 lap g(0) = {reference}; printed half-form = {printed_half} "
               f"(wrong sign under the admissibility conditions)")
        assert ok
        assert abs(slope - reference) / reference < 0.2
