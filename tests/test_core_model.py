import numpy as np
import pytest

from whitenoise_transport import (GaussianCorrelation, InputError, LatticeCorrelationData,
                                  ModelParams, Space, TabulatedCorrelation, laplacian_g_at_zero,
                                  load_correlation_csv, validate_hypotheses)
from whitenoise_transport.core_model import step_count


class OddContamination:
    """g(x) = exp(-x^2) + 0.1 x: violates evenness (test double)."""

    dim = 1
    kind = "test-odd"

    def g(self, x):
        x = np.asarray(x, dtype=float)
        v = x[..., 0] if x.ndim and x.shape[-1] == 1 else x
        return np.exp(-(v**2)) + 0.1 * v

    def grad(self, x):
        v = np.asarray(x, dtype=float)
        return -2 * v * np.exp(-(v**2)) + 0.1

    def hess(self, x):
        v = np.asarray(x, dtype=float)
        return np.atleast_2d((4 * v**2 - 2) * np.exp(-(v**2)))

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


def test_gaussian_derivatives_match_fd_at_random_points():
    rng = np.random.default_rng(7)
    A = np.array([[1.3, 0.2], [0.2, 0.9]])
    corr = GaussianCorrelation(A)
    h = 1e-4
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=2)
        grad = corr.grad(x)
        hess = corr.hess(x)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (float(corr.g(x + e)) - float(corr.g(x - e))) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        fd_hess = np.empty((2, 2))
        for i in range(2):
            ei = np.zeros(2)
            ei[i] = h
            fd_hess[i, i] = (float(corr.g(x + ei)) - 2 * float(corr.g(x)) + float(corr.g(x - ei))) / h**2
        np.testing.assert_allclose(np.diag(hess), np.diag(fd_hess), rtol=1e-6, atol=1e-7)


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


def test_lattice_correlation_data(sharp_corr):
    params = ModelParams(space=Space.LATTICE)
    data = LatticeCorrelationData.from_correlation(sharp_corr, params)
    assert data.gamma[0] == pytest.approx(1.0, abs=1e-15)
    assert data.gamma2[0] == pytest.approx(1.0, abs=1e-15)
    assert data.ballistic_channels == ()


def test_lattice_ballistic_channel_flagged():
    # fully correlated noise at integer spacing: g(0) = g(1) = 1
    xs = np.arange(-64, 65) / 16.0
    table = TabulatedCorrelation(xs, np.cos(np.pi * xs) ** 2)
    params = ModelParams(space=Space.LATTICE)
    data = LatticeCorrelationData.from_correlation(table, params)
    assert data.gamma[0] == pytest.approx(0.0, abs=1e-12)
    assert data.ballistic_channels == (0,)


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
