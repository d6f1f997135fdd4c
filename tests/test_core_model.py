import re

import numpy as np
import pytest

from whitenoise_transport import (BALLISTIC, GaussianCorrelation, InputError, LatticeMSDLaw,
                                  LatticeMomentInputs, ModelParams, Space, TabulatedCorrelation,
                                  dephasing_rate, diffusion_constant, laplacian_g_at_zero,
                                  load_correlation_csv, msd_inverse_laplace_closed_form,
                                  validate_hypotheses)
from whitenoise_transport.analytic_lattice import _ZERO_GAMMA
from whitenoise_transport.core_model import _record_steps, step_count
from whitenoise_transport.evolve_lattice import gamma_on_box


class OddContamination:
    """g(x) = exp(-x^2) + 0.1 x: violates evenness (test double)."""

    dim = 1

    def g(self, x):
        x = np.asarray(x, dtype=float)
        v = x[..., 0] if x.ndim and x.shape[-1] == 1 else x
        return np.exp(-(v**2)) + 0.1 * v

    def grad0(self):
        return np.array([0.1])

    def hess0(self):
        return np.array([[-2.0]])

    def correlation_length(self):
        return 1.0

    def table_extent(self):
        return 6.0


def central_hessian(corr, dim, h=1e-4):
    """Finite-difference Hessian at the origin (oracle for the analytic one)."""
    out = np.empty((dim, dim))
    z = np.zeros(dim)
    g0 = float(corr.g(z))
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = h
        out[i, i] = (float(corr.g(ei)) - 2 * g0 + float(corr.g(-ei))) / h**2
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = h
            v = (float(corr.g(ei + ej)) - float(corr.g(ei - ej))
                 - float(corr.g(-ei + ej)) + float(corr.g(-ei - ej))) / (4 * h**2)
            out[i, j] = out[j, i] = v
    return out


def test_model_params_invariants():
    ModelParams(v0=0.0)  # ballistic limit allowed
    with pytest.raises(InputError, match="hbar must be positive, got 0.0"):
        ModelParams(hbar=0.0)
    with pytest.raises(InputError, match="mass must be positive, got -1.0"):
        ModelParams(mass=-1.0)
    with pytest.raises(InputError, match="v0 must be nonnegative, got -0.1"):
        ModelParams(v0=-0.1)
    with pytest.raises(InputError, match="dim must be a positive integer, got 0"):
        ModelParams(dim=0)


def test_gaussian_validate_passes(gaussian_corr, params):
    report = validate_hypotheses(gaussian_corr, params)
    assert report.passed
    assert report.diagnostics["hessian_eigenvalues"][0] == pytest.approx(-2.0, abs=1e-12)


def test_odd_contamination_fails_evenness():
    report = validate_hypotheses(OddContamination(), ModelParams())
    assert not report.even
    assert not report.passed
    assert "FAIL" in report.summary()


def test_anisotropic_hessian_matches_fd_oracle():
    corr = GaussianCorrelation([[1.0, 0.0], [0.0, 2.0]])
    report = validate_hypotheses(corr, ModelParams(dim=2))
    assert report.passed
    eig = np.sort(report.diagnostics["hessian_eigenvalues"])
    oracle = np.sort(np.linalg.eigvalsh(central_hessian(corr, 2)))
    assert eig == pytest.approx([-4.0, -2.0], abs=1e-9)
    assert eig == pytest.approx(oracle, rel=1e-6)


def test_laplacian_at_zero_examples():
    assert laplacian_g_at_zero(GaussianCorrelation([[1.0]])) == pytest.approx(-2.0, abs=1e-12)
    assert laplacian_g_at_zero(GaussianCorrelation(np.eye(2))) == pytest.approx(-4.0, abs=1e-12)
    aniso = GaussianCorrelation([[1.0, 0.0], [0.0, 2.0]])
    fd = float(np.trace(central_hessian(aniso, 2)))
    assert laplacian_g_at_zero(aniso) == pytest.approx(-6.0, abs=1e-10)
    assert laplacian_g_at_zero(aniso) == pytest.approx(fd, rel=1e-6)


def _gaussian_formulas_at_zero(corr):
    """GaussianCorrelation's gradient and Hessian at a general point x, evaluated at x = 0."""
    x = np.zeros(corr.dim)
    ax = x @ corr.matrix.T
    g = corr.g(x)
    outer = ax[..., :, None] * ax[..., None, :]
    return -2.0 * ax * g[..., None], (-2.0 * corr.matrix + 4.0 * outer) * g[..., None, None]


def _table_differences_at_zero(corr):
    """TabulatedCorrelation's central-difference gradient and Hessian at a general point x,
    mixed derivatives included, evaluated at x = 0."""
    d, h = corr.dim, corr._fd_step
    x = np.zeros(d)
    grad, hess = np.empty(d), np.empty((d, d))
    g0 = corr.g(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        grad[i] = (corr.g(x + ei) - corr.g(x - ei)) / (2 * h)
        hess[i, i] = (corr.g(x + ei) - 2 * g0 + corr.g(x - ei)) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            hess[i, j] = hess[j, i] = (corr.g(x + ei + ej) - corr.g(x + ei - ej) - corr.g(x - ei + ej)
                                       + corr.g(x - ei - ej)) / (4 * h**2)
    return grad, hess


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_origin_derivatives_are_the_general_formulas_at_zero(dim):
    # the origin methods give exactly what the general-point formulas give
    # at x = 0 (signed zeros aside), for both classes
    rng = np.random.default_rng(dim)
    root = rng.normal(size=(dim, dim))
    xs = np.linspace(-6, 6, 241)
    cases = [(GaussianCorrelation(root @ root.T + dim * np.eye(dim)), _gaussian_formulas_at_zero),
             (TabulatedCorrelation(xs, np.exp(-(xs**2)), dim=dim), _table_differences_at_zero),
             (TabulatedCorrelation(xs, np.exp(-(xs**2)) + 0.05 * xs, dim=dim), _table_differences_at_zero)]
    for corr, formulas in cases:
        grad, hess = formulas(corr)
        assert corr.grad0().shape == (dim,) and corr.hess0().shape == (dim, dim)
        np.testing.assert_array_equal(corr.grad0(), grad)
        np.testing.assert_array_equal(corr.hess0(), hess)


def test_validation_is_deterministic(gaussian_corr, params):
    r1 = validate_hypotheses(gaussian_corr, params)
    r2 = validate_hypotheses(gaussian_corr, params)
    assert r1.summary() == r2.summary()
    assert r1.diagnostics["max_asymmetry"] == r2.diagnostics["max_asymmetry"]


def test_tabulated_symmetrization_records_delta():
    xs = np.linspace(-6, 6, 241)
    table = TabulatedCorrelation(xs, np.exp(-(xs**2)) + 0.05 * xs)
    assert table.symmetrization_delta > 1e-10
    # after symmetrization the evaluator is exactly even
    assert float(table.g(np.array(1.3))) == float(table.g(np.array(-1.3)))
    clean = TabulatedCorrelation(xs, np.exp(-(xs**2)))
    assert clean.symmetrization_delta <= 1e-12


def test_tabulated_out_of_range_is_input_error():
    xs = np.linspace(-3, 3, 121)
    table = TabulatedCorrelation(xs, np.exp(-(xs**2)))
    with pytest.raises(InputError, match=r"r=5 outside table range \[0, 3\]"):
        table.g(np.array(5.0))


def test_load_correlation_csv(tmp_path):
    xs = np.linspace(-6, 6, 201)
    path = tmp_path / "corr.csv"
    with open(path, "w") as fh:
        fh.write("# x, g\n")
        for x in xs:
            fh.write(f"{x},{np.exp(-x*x)}\n")
    corr = load_correlation_csv(path)
    assert float(corr.g(np.array(0.0))) == pytest.approx(1.0, abs=1e-12)
    assert float(corr.g(np.array(1.0))) == pytest.approx(np.exp(-1.0), rel=1e-6)
    report = validate_hypotheses(corr, ModelParams())
    assert report.passed


@pytest.mark.parametrize("text, message", [
    (None, "cannot read correlation table {path}"),
    ("0,1\n1,x\n", "correlation table {path}: could not convert string to float: 'x'"),
    ("# x, g\n", "correlation table {path}: no data rows"),
    ("0,1\n1\n", "correlation table {path}: every row needs two columns, x and g"),
    ("0,1\n1,nan\n", "correlation table {path}: a x or g cell is not finite"),
    ("-inf,1\n1,0\n", "correlation table {path}: a x or g cell is not finite"),
], ids=["missing", "non-numeric", "comment-only", "one-column", "nan", "infinite"])
def test_bad_correlation_csv_is_an_input_error_naming_the_file(tmp_path, text, message):
    # tables and series share one reader: the same refusals, no header row
    path = tmp_path / "g.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(InputError, match=re.escape(message.format(path=path))):
        load_correlation_csv(path)


def test_lattice_correlation_data(sharp_corr):
    params = ModelParams(space=Space.LATTICE)
    inputs = LatticeMomentInputs.point_localized(sharp_corr, params)
    assert inputs.gamma[0] == pytest.approx(1.0, abs=1e-15)
    assert dephasing_rate(sharp_corr, params, 2 * np.eye(1))[0] == pytest.approx(1.0, abs=1e-15)
    assert diffusion_constant(LatticeMSDLaw.from_inputs(inputs)) is not BALLISTIC


def test_lattice_ballistic_channel_flagged():
    # fully correlated noise at integer spacing: g(0) = g(1) = 1
    xs = np.arange(-64, 65) / 16.0
    table = TabulatedCorrelation(xs, np.cos(np.pi * xs) ** 2)
    params = ModelParams(space=Space.LATTICE)
    inputs = LatticeMomentInputs.point_localized(table, params)
    assert inputs.gamma[0] == pytest.approx(0.0, abs=1e-12)
    assert diffusion_constant(LatticeMSDLaw.from_inputs(inputs)) is BALLISTIC


@pytest.mark.parametrize("v0", [1e-8, 1e-7])
def test_weak_disorder_axis_is_ballistic_on_every_route(sharp_corr, v0):
    # a rate (v0/hbar)^2 [g(0) - g(e_1)] ~ v0^2 at or below _ZERO_GAMMA: the
    # rates, the diffusion constant and the closed-form law all call it ballistic
    inputs = LatticeMomentInputs.point_localized(sharp_corr, ModelParams(v0=v0, space=Space.LATTICE))
    assert 0.0 < inputs.gamma[0] <= _ZERO_GAMMA
    assert diffusion_constant(LatticeMSDLaw.from_inputs(inputs)) is BALLISTIC
    law = LatticeMSDLaw.from_inputs(inputs)
    t = np.array([0.0, 1.0, 10.0, 1e4])
    np.testing.assert_array_equal(msd_inverse_laplace_closed_form(t, law), law.cd * 0.5 * t**2)
    assert law.t_diffusive_above == np.inf


def test_dephasing_rate_is_the_rate_of_both_lattice_routes():
    params = ModelParams(v0=0.7, dim=2, space=Space.LATTICE)
    corr = GaussianCorrelation([[40.0, 3.0], [3.0, 2.0]])
    eye = np.eye(2)
    inputs = LatticeMomentInputs.point_localized(corr, params)
    g0 = float(corr.g(np.zeros(2)))
    expected = params.coupling * (g0 - np.array([corr.g(e) for e in eye]))
    np.testing.assert_array_equal(dephasing_rate(corr, params, eye), expected)
    np.testing.assert_array_equal(inputs.gamma, expected)
    gamma2 = dephasing_rate(corr, params, 2 * eye)
    box = gamma_on_box(corr, params, 5)
    assert box[0, 0] == 0.0
    assert box[1, 0] == inputs.gamma[0] and box[0, 1] == inputs.gamma[1]
    assert box[2, 0] == gamma2[0] and box[0, 2] == gamma2[1]


def test_point_localized_refuses_a_correlation_rising_away_from_the_origin():
    xs = np.arange(-64, 65) / 16.0
    rising = TabulatedCorrelation(xs, 1.0 + 0.01 * xs**2)
    with pytest.raises(InputError, match=r"g\(0\) < g\(Y\)"):
        LatticeMomentInputs.point_localized(rising, ModelParams(space=Space.LATTICE))


def test_dephasing_rate_refuses_a_correlation_of_another_dim(sharp_corr):
    with pytest.raises(InputError, match="model has dim 2, correlation has dim 1"):
        dephasing_rate(sharp_corr, ModelParams(dim=2, space=Space.LATTICE), np.eye(2))
    # the lattice law reads its rates at e_m through dephasing_rate
    with pytest.raises(InputError, match="model has dim 1, correlation has dim 2"):
        LatticeMomentInputs.point_localized(GaussianCorrelation(np.eye(2)), ModelParams(space=Space.LATTICE))


def test_dephasing_rate_refuses_g_above_g0_anywhere_on_the_box():
    # g(1) < g(0) but g(2) = 1.54 > g(0) = 1: the law's rates at e_m pass,
    # the evolution's Y-box does not
    xs = np.arange(-64, 65) / 8.0
    bowl = TabulatedCorrelation(xs, np.exp(-(xs**2)) + 0.38 * xs**2)
    params = ModelParams(space=Space.LATTICE)
    assert LatticeMomentInputs.point_localized(bowl, params).gamma[0] > 0
    with pytest.raises(InputError, match=r"g\(0\) < g\(Y\)"):
        dephasing_rate(bowl, params, np.array([[2.0]]))
    with pytest.raises(InputError, match=r"g\(0\) < g\(Y\)"):
        gamma_on_box(bowl, params, 9)


@pytest.mark.parametrize("matrix, message", [([[1.0], [0.0, 1.0]], "a rectangular array of numbers"),
                                             ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
                                             ([[np.inf]], "finite")], ids=["ragged", "nan", "inf"])
def test_gaussian_correlation_refuses_a_ragged_or_non_finite_matrix(matrix, message):
    with pytest.raises(InputError, match=f"correlation matrix must be {message}"):
        GaussianCorrelation(matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tabulated_correlation_refuses_non_finite_samples(bad):
    xs = np.linspace(-4, 4, 33)
    values = np.exp(-(xs**2))
    values[5] = bad
    with pytest.raises(InputError, match="samples must be finite"):
        TabulatedCorrelation(xs, values)
    xs[3] = bad
    with pytest.raises(InputError, match="samples must be finite"):
        TabulatedCorrelation(xs, np.exp(-(np.linspace(-4, 4, 33)**2)))


@pytest.mark.parametrize("n_steps, every, steps", [(10, 5, [0, 5, 10]), (10, 4, [0, 4, 8, 10]),
                                                   (3, 7, [0, 3]), (1, 1, [0, 1])])
def test_record_steps(n_steps, every, steps):
    assert _record_steps(n_steps, every).tolist() == steps


@pytest.mark.parametrize("t_max, dt, n", [(0.08, 0.01, 8), (1.03, 0.001, 1030), (0.15, 0.0125, 12),
                                          (0.3, 0.1, 3), (5.0, 5.0, 1)])
def test_step_count_absorbs_roundoff(t_max, dt, n):
    # 0.15 / 0.0125 and 0.3 / 0.1 are a roundoff below the integer
    assert step_count(t_max, dt) == n


@pytest.mark.parametrize("t_max, dt, match", [
    (0.105, 0.01, "whole number"), (1.0 + 1e-8, 0.5, "whole number"), (float("inf"), 0.1, "finite"),
    (0.05, 0.1, "at least dt"), (1.0, 0.0, "positive"), (float("nan"), 0.1, "at least dt")])
def test_step_count_rejects(t_max, dt, match):
    with pytest.raises(InputError, match=match):
        step_count(t_max, dt)
