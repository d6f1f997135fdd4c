import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitenoise_transport import (GaussianCorrelation, GaussianPureState, InputError, ModelParams,
                                  MomentSeries, PhaseQuery, cubic_coefficient, fit_power_law,
                                  kernel_hat, laplace_kernel_1d, laplace_transform_numeric,
                                  msd_by_kernel_differences, msd_closed_form, phase)
from whitenoise_transport.analytic_continuum import Provenance, _fd_base_step, _laplacian_k
from whitenoise_transport.core_model import laplacian_g_at_zero


@pytest.fixture
def init():
    return GaussianPureState(1.0, dim=1)


def gauss_legendre_integral(f, a, b, order=64):
    """Independent fixed-order quadrature oracle."""
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (b - a) * x + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.sum(w * f(u)))


class TestPhase:
    def test_zero_at_k_zero(self, gaussian_corr, params):
        for t in (0.5, 2.0, 50.0):
            assert phase(PhaseQuery(k=[0.0], t=t), gaussian_corr, params) == 0.0

    def test_zero_disorder(self, gaussian_corr):
        p0 = ModelParams(v0=0.0)
        assert phase(PhaseQuery(k=[0.3], t=2.0), gaussian_corr, p0) == 0.0

    def test_against_gauss_quadrature_oracle(self, gaussian_corr, params):
        # d=1, g=exp(-x^2), hbar=m=V0=1, k=0.3, t=2
        got = phase(PhaseQuery(k=[0.3], t=2.0), gaussian_corr, params)
        integral = gauss_legendre_integral(lambda s: np.exp(-((2 * s * 0.3) ** 2)), 0.0, 2.0)
        oracle = -(1.0 * 2.0 - integral)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_nonpositive_everywhere(self, gaussian_corr, params):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = PhaseQuery(k=[rng.uniform(-2, 2)], t=rng.uniform(0, 20))
            assert phase(q, gaussian_corr, params) <= 1e-14

    def test_gradient_vanishes_at_k_zero(self, gaussian_corr, params):
        # evenness of g makes the phase stationary at k = 0
        h = 1e-5
        for t in (1.0, 10.0, 100.0):
            fd = (phase(PhaseQuery(k=[h], t=t), gaussian_corr, params)
                  - phase(PhaseQuery(k=[-h], t=t), gaussian_corr, params)) / (2 * h)
            assert abs(fd) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(InputError, match="t must be nonnegative, got -1.0"):
            PhaseQuery(k=[0.1], t=-1.0)


class TestKernelHat:
    def test_trace_conservation(self, gaussian_corr, params, init):
        vals = [kernel_hat([0.0], [0.0], t, init, gaussian_corr, params) for t in (0.0, 1.0, 10.0)]
        for v in vals[1:]:
            assert abs(v - vals[0]) < 1e-12 * abs(vals[0])

    def test_free_evolution_identity(self, gaussian_corr, init):
        p0 = ModelParams(v0=0.0)
        for k, t in ((0.2, 0.7), (0.5, 3.0)):
            lhs = kernel_hat([k], [0.0], t, init, gaussian_corr, p0)
            rhs = init.kernel_at(np.array([k]), np.array([-2.0 * t * k]))
            assert lhs == rhs

    def test_kernel_at_origin_counts_doubled_volume(self, init):
        # K(0,0,0) = 2^d * trace under the X = x + x' convention
        assert init.kernel_at(np.zeros(1), np.zeros(1)) == pytest.approx(2.0)
        init2 = GaussianPureState([1.0, 2.0], trace=0.5)
        assert init2.kernel_at(np.zeros(2), np.zeros(2)) == pytest.approx(4.0 * 0.5)

    def test_gaussian_state_trace_by_quadrature(self):
        # diagonal density integrates to the declared trace
        sigma = 0.7
        state = GaussianPureState(sigma, dim=1, trace=1.0)
        density = lambda x: np.exp(-x**2 / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)
        val = gauss_legendre_integral(density, -12, 12, order=128)
        assert val == pytest.approx(state.trace, abs=1e-10)


class TestMsdClosedForm:
    def test_ballistic_when_disorder_off(self, gaussian_corr, init):
        p0 = ModelParams(v0=0.0)
        ts = np.linspace(0, 50, 40)
        series = msd_closed_form(ts, init, gaussian_corr, p0)
        A = np.vstack([np.ones_like(ts), ts**2]).T
        coef, residual, *_ = np.linalg.lstsq(A, series.msd, rcond=None)
        assert coef == pytest.approx([1.0, 0.25], rel=1e-7)
        assert float(residual[0]) < 1e-8 if residual.size else True

    def test_initial_value_is_second_moment(self, gaussian_corr, params, init):
        series = msd_closed_form(np.array([0.0, 1.0, 10.0]), init, gaussian_corr, params)
        assert abs(series.msd[0] - init.second_moment()) < 1e-8

    def test_cubic_coefficient_composed_value(self, gaussian_corr, params, init):
        # -(1/(3*2^d)) (2 v0/m)^2 (lap g)(0) K(0,0,0): for these parameters
        # = (1/3)*4*2*2/(8*...)... = 2/3 with K(0,0,0) = 2
        assert cubic_coefficient(init, gaussian_corr, params) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_matches_pure_finite_differences(self, gaussian_corr, params, init):
        ts = np.linspace(1.0, 50.0, 9)
        a = msd_closed_form(ts, init, gaussian_corr, params).msd
        b = msd_by_kernel_differences(ts, init, gaussian_corr, params).msd
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_exponent_windows(self, gaussian_corr, params, init):
        ts = np.linspace(10, 100, 91)
        fit = fit_power_law(msd_closed_form(ts, init, gaussian_corr, params), window=(10, 100))
        assert 2.9 <= fit.exponent <= 3.1
        p0 = ModelParams(v0=0.0)
        fit0 = fit_power_law(msd_closed_form(ts, init, gaussian_corr, p0), window=(10, 100))
        assert 1.99 <= fit0.exponent <= 2.01

    def test_anisotropic_two_dimensional(self):
        corr = GaussianCorrelation([[1.0, 0.0], [0.0, 2.0]])
        p2 = ModelParams(dim=2)
        init2 = GaussianPureState([1.0, 1.0])
        ts = np.linspace(0, 20, 11)
        series = msd_closed_form(ts, init2, corr, p2)
        exact = 2 * (1 + ts**2 / 4) + 2.0 * ts**3  # B = (1/3) * 6 = 2
        np.testing.assert_allclose(series.msd, exact, rtol=1e-9)


def _msd_per_time(times, init, corr, params, fd_base_step=None):
    """Per-time reference for msd_closed_form: one _laplacian_k stencil per time."""
    d = params.dim
    k000 = init.kernel_at(np.zeros(d), np.zeros(d)).real
    rate = params.coupling * (2.0 * params.hbar / params.mass) ** 2 * laplacian_g_at_zero(corr) / 3.0
    c = 2.0 * params.hbar / params.mass
    out = []
    for t in times:
        base = fd_base_step if fd_base_step is not None else _fd_base_step(params, t, times.max())
        lap_w = _laplacian_k(lambda k: init.kernel_at(k, -(c * t) * k), d, base).real
        out.append(-(rate * t**3 * k000 + lap_w) / 2.0 ** (d + 2))
    return np.array(out)


class TestMsdClosedFormArrays:
    @pytest.mark.parametrize("dim, fd_base_step", [(1, None), (2, None), (3, None), (1, 0.01), (2, 0.003)])
    def test_matches_per_time_stencil(self, dim, fd_base_step):
        params = ModelParams(v0=0.8, mass=1.3, dim=dim)
        corr = GaussianCorrelation(np.diag([1.0, 0.6, 1.7][:dim]))
        init = GaussianPureState([0.7, 1.0, 1.4][:dim], trace=0.9)
        ts = np.linspace(0.0, 120.0, 37)
        got = msd_closed_form(ts, init, corr, params, fd_base_step=fd_base_step).msd
        ref = _msd_per_time(ts, init, corr, params, fd_base_step)
        # same operations per element; only the last bit of t**3 and h**2
        # may differ between array and scalar powers
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)

    def test_kernel_at_stacked_points(self):
        init = GaussianPureState([0.7, 1.3], trace=0.5)
        k = np.array([[[0.1, -0.2], [0.0, 0.3]], [[1.0, 0.5], [-0.4, 0.0]]])
        Y = np.array([[0.5, 0.0], [-1.0, 2.0]])  # broadcast over the leading axis
        got = init.kernel_at(k, Y)
        assert got.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                assert got[i, j] == init.kernel_at(k[i, j], Y[j])


class TestLaplaceKernel1d:
    def test_trace_column(self, gaussian_corr, params, init):
        got = laplace_kernel_1d(0.0, 2.0, init, gaussian_corr, params)
        assert got == pytest.approx(init.kernel_at([0.0], [0.0]) / 2.0, rel=1e-10)

    def test_free_case_against_quadrature(self, gaussian_corr, init):
        p0 = ModelParams(v0=0.0)
        k, s = 0.2, 1.0
        got = laplace_kernel_1d(k, s, init, gaussian_corr, p0)
        oracle = gauss_legendre_integral(
            lambda z: np.exp(-s * z) * np.array(
                [init.kernel_at([k], [-2 * k * zi]).real for zi in np.atleast_1d(z)]),
            0.0, 60.0, order=256)
        assert got.real == pytest.approx(oracle, rel=1e-8)
        assert abs(got.imag) < 1e-12

    def test_matches_numeric_laplace_transform(self, gaussian_corr, params, init):
        k, s = 0.3, 2.0
        got = laplace_kernel_1d(k, s, init, gaussian_corr, params)

        def kernel_t(t):
            if np.ndim(t) == 0:
                return kernel_hat([k], [0.0], float(t), init, gaussian_corr, params).real
            return np.array([kernel_hat([k], [0.0], ti, init, gaussian_corr, params).real
                             for ti in np.asarray(t)])

        num = laplace_transform_numeric(kernel_t, s)
        assert got.real == pytest.approx(num.real, rel=1e-6)

    def test_requires_positive_real_part(self, gaussian_corr, params, init):
        with pytest.raises(InputError, match=r"need Re s > 0, got \(-1\+0j\)"):
            laplace_kernel_1d(0.1, -1.0, init, gaussian_corr, params)

    def test_dimension_guard(self, gaussian_corr, init):
        with pytest.raises(InputError, match="one-dimensional special case"):
            laplace_kernel_1d(0.1, 1.0, init, GaussianCorrelation(np.eye(2)), ModelParams(dim=2))


class TestMomentSeries:
    def test_csv_round_trip(self, tmp_path):
        s = MomentSeries(times=np.array([0.0, 0.5, 1.0]), msd=np.array([1.0, 1.5, 3.0]),
                         energy=np.array([0.1, 0.2, 0.3]), provenance=Provenance.MONTE_CARLO)
        path = tmp_path / "series.csv"
        s.to_csv(path)
        text = path.read_text()
        assert text.startswith("t,msd,energy\n")
        assert "\r" not in text
        back = MomentSeries.from_csv(path)
        np.testing.assert_array_equal(back.times, s.times)
        np.testing.assert_array_equal(back.msd, s.msd)
        np.testing.assert_array_equal(back.energy, s.energy)

    def test_seventeen_digit_precision(self):
        val = 1.2345678901234567
        s = MomentSeries(times=np.array([val]), msd=np.array([val]))
        buf = io.StringIO()
        s.to_csv(buf)
        assert f"{val:.17g}" in buf.getvalue()

    def test_invariants(self):
        with pytest.raises(InputError, match="times must be strictly increasing"):
            MomentSeries(times=np.array([1.0, 0.5]), msd=np.array([1.0, 1.0]))
        with pytest.raises(InputError, match="msd must be nonnegative"):
            MomentSeries(times=np.array([0.0, 1.0]), msd=np.array([1.0, -2.0]))


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=0.1, max_value=30.0))
def test_phase_nonpositive_property(k, t):
    corr = GaussianCorrelation([[1.0]])
    p = ModelParams(v0=1.3)
    assert phase(PhaseQuery(k=[k], t=t), corr, p) <= 1e-12


def test_units_stay_symbolic():
    # hbar and mass are never hard-coded to 1: the free-spreading and cubic
    # parts must carry them correctly
    p = ModelParams(hbar=2.0, mass=0.5, v0=1.3)
    corr = GaussianCorrelation([[0.7]])
    init = GaussianPureState(1.4, dim=1)
    ts = np.linspace(0.0, 8.0, 9)
    series = msd_closed_form(ts, init, corr, p)
    sigma = 1.4
    free = sigma**2 + (p.hbar * ts / (2 * p.mass * sigma)) ** 2
    lap_g = -2 * 0.7
    cubic = -(1.0 / 3.0) * (p.v0 / p.mass) ** 2 * lap_g * ts**3
    np.testing.assert_allclose(series.msd, free + cubic, rtol=1e-8)
    assert cubic_coefficient(init, corr, p) == pytest.approx(-(1 / 3) * (1.3 / 0.5) ** 2 * lap_g)
