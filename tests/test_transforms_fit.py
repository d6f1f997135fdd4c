import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitenoise_transport import (InputError, NumericalError, TruncationError, fit_power_law,
                                  inverse_laplace_numeric, laplace_transform_numeric)


class TestFitPowerLaw:
    def test_pure_cubic(self):
        t = np.linspace(1, 100, 200)
        fit = fit_power_law(t, t**3)
        assert fit.exponent == pytest.approx(3.0, abs=1e-10)
        assert fit.coefficient == pytest.approx(1.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_affine_dominated_by_linear(self):
        t = np.geomspace(1e3, 1e5, 60)
        fit = fit_power_law(t, 5 * t + 3)
        assert 0.99 <= fit.exponent <= 1.01

    def test_noisy_cubic_within_stderr(self):
        rng = np.random.default_rng(42)
        t = np.geomspace(1, 100, 120)
        y = t**3 * (1 + 0.01 * rng.standard_normal(t.size))
        fit = fit_power_law(t, y)
        assert abs(fit.exponent - 3.0) < 3 * fit.stderr_exponent

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_equivariance(self, a):
        t = np.linspace(2, 50, 40)
        y = 0.7 * t**2.3
        base = fit_power_law(t, y)
        scaled = fit_power_law(t, a * y)
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
        assert scaled.coefficient == pytest.approx(a * base.coefficient, rel=1e-9)

    def test_nonpositive_values_rejected(self):
        t = np.linspace(1, 10, 20)
        y = t.copy()
        y[5] = -1.0
        with pytest.raises(InputError, match="nonpositive values inside the fit window"):
            fit_power_law(t, y)

    def test_tiny_values_excluded_not_fatal(self):
        t = np.linspace(1, 10, 20)
        y = t**3
        y[0] = 1e-15  # below the fit floor: dropped, not a log singularity
        fit = fit_power_law(t, y)
        assert fit.n_points == 19

    def test_too_few_points(self):
        t = np.linspace(1, 10, 5)
        with pytest.raises(InputError, match="need at least 8 points in the fit window, got 5"):
            fit_power_law(t, t**2)

    def test_accepts_series_object(self):
        from whitenoise_transport import MomentSeries

        t = np.linspace(1, 20, 30)
        fit = fit_power_law(MomentSeries(times=t, msd=2 * t**2), window=(1, 20))
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)


class TestLaplaceTransform:
    def test_constant(self):
        val = laplace_transform_numeric(lambda t: np.ones_like(np.asarray(t, float)), 2.0)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_ramp(self):
        val = laplace_transform_numeric(lambda t: np.asarray(t, float), 1.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_partial_fraction_identity(self):
        # L[e^{-G t}/G^2 + t/G - 1/G^2](s) = 1/(s^2 (s+G)); G=1, s=0.5 -> 8/3
        G = 1.0

        def f(t):
            t = np.asarray(t, float)
            return np.exp(-G * t) / G**2 + t / G - 1 / G**2

        val = laplace_transform_numeric(f, 0.5)
        assert val == pytest.approx(8.0 / 3.0, abs=1e-8)

    def test_requires_positive_real_part(self):
        with pytest.raises(InputError, match=r"needs Re s > 0, got \(-1\+0j\)"):
            laplace_transform_numeric(lambda t: t, -1.0)

    def test_series_tail_bound_reported(self):
        t = np.linspace(0, 5, 100)
        with pytest.raises(TruncationError, match=r"series ends at t=5; tail bound .* > 1\.0e-10") as err:
            laplace_transform_numeric((t, t), 0.2, tail_tol=1e-10)
        assert err.value.achieved > 1e-10


class TestInverseLaplace:
    def test_one_over_s_squared(self):
        ts = np.linspace(0.1, 50, 40)
        got = inverse_laplace_numeric(lambda s: 1 / s**2, ts)
        np.testing.assert_allclose(got, ts, rtol=1e-10)

    def test_rational_matches_closed_form(self):
        # the lattice law transform: poles at 0 and -G
        ts = np.linspace(0.1, 50, 120)
        for G in (0.5, 1.0, 2.0):
            got = inverse_laplace_numeric(lambda s: 1 / (s**2 * (s + G)), ts)
            exact = np.exp(-G * ts) / G**2 + ts / G - 1 / G**2
            np.testing.assert_allclose(got, exact, rtol=1e-8)

    def test_ballistic_branch(self):
        ts = np.linspace(0.1, 50, 40)
        got = inverse_laplace_numeric(lambda s: 1 / s**3, ts)
        np.testing.assert_allclose(got, ts**2 / 2, rtol=1e-8)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(InputError, match="requires t > 0"):
            inverse_laplace_numeric(lambda s: 1 / s, [0.0])

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.2, max_value=2.0), st.floats(min_value=0.2, max_value=8.0))
    @example(a=2.0, t=8.0)
    def test_exponential_pairs(self, a, t):
        # a*t kept moderate: double-precision Talbot cannot resolve values
        # below its exp(2M/5)*eps roundoff floor
        got = inverse_laplace_numeric(lambda s: 1 / (s + a), t)
        assert got == pytest.approx(np.exp(-a * t), rel=1e-7, abs=1e-12)

    def test_round_trip_through_forward_transform(self):
        # invert a rational transform, then push the samples back through
        # the forward quadrature; contour methods cannot run the other
        # composition (the forward integral diverges left of Re s = 0)
        F = lambda s: 1 / (s**2 * (s + 1.0))
        tg = np.linspace(1e-3, 150, 3000)
        fv = inverse_laplace_numeric(F, tg)
        for s in (0.3, 0.7, 1.5, 3.0):
            got = laplace_transform_numeric((tg, fv), s, tail_tol=1e-8)
            assert abs(got - F(s)) / abs(F(s)) < 1e-6


def _talbot_at(F, t, M):
    """Fixed Talbot rule at one time, one node per call of ``F``."""
    r = 2.0 * M / (5.0 * t)
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    Fs = np.array([F(np.array([si]))[0] for si in s])
    terms = np.exp(t * s) * Fs * (1.0 + 1j * sigma)
    head = 0.5 * np.exp(r * t) * F(np.array([complex(r)]))[0].real
    return (r / M) * math.fsum([head] + list(terms.real))


def _talbot_per_time(F, ts, rtol, atol, n_nodes=24, max_doublings=2):
    """Per-time reference for inverse_laplace_numeric: per time the best
    value, its gap, the doublings used and whether the gap is in tolerance."""
    out = []
    for t in ts:
        M = n_nodes
        val = _talbot_at(F, t, M)
        gap = abs(val - _talbot_at(F, t, M - 4))
        used = 0
        while gap > rtol * abs(val) + atol and used < max_doublings:
            M *= 2
            used += 1
            new = _talbot_at(F, t, M)
            if not abs(new - val) < gap:
                break
            val, gap = new, abs(new - val)
        out.append((val, gap, used, gap <= rtol * abs(val) + atol))
    return out


class TestInverseLaplaceArrays:
    # 4 (1 - cos(t/2)): 20 and 24 nodes agree to 1e-6 up to t = 15, while
    # t = 20 needs one doubling to 48 nodes
    F = staticmethod(lambda s: 1 / (s * (s * s + 0.25)))
    TS = np.array([0.5, 2.0, 5.0, 10.0, 15.0, 20.0])

    @staticmethod
    def _counted(F, sizes):
        def counted(s):
            sizes.append(s.shape)
            return F(s)
        return counted

    def test_mixed_doublings_match_per_time_reference(self):
        ref = _talbot_per_time(self.F, self.TS, rtol=1e-6, atol=0.0)
        assert [r[2] for r in ref] == [0, 0, 0, 0, 0, 1]
        assert all(r[3] for r in ref)
        sizes = []
        got = inverse_laplace_numeric(self._counted(self.F, sizes), self.TS, rtol=1e-6, atol=0.0)
        np.testing.assert_allclose(got, [r[0] for r in ref], rtol=1e-14, atol=0.0)
        # one call per node count; only the unconverged time is doubled
        assert sizes == [(6 * 20,), (6 * 24,), (1 * 48,)]
        np.testing.assert_allclose(got, 4 * (1 - np.cos(self.TS / 2)), rtol=1e-8)

    def test_scalar_time_gives_float(self):
        got = inverse_laplace_numeric(self.F, 5.0, rtol=1e-6, atol=0.0)
        assert isinstance(got, float)
        assert got == pytest.approx(_talbot_per_time(self.F, [5.0], 1e-6, 0.0)[0][0], rel=1e-14)

    def test_doubling_stops_when_the_gap_grows(self):
        # t = 20 at rtol 1e-9: the gap shrinks from 5.8e-3 (20/24 nodes) to
        # 2.1e-6 (24/48) and grows to 0.24 (48/96): the best gap is the 24/48 one
        ref = _talbot_per_time(self.F, [2.0, 20.0], rtol=1e-9, atol=0.0)
        assert [r[2] for r in ref] == [0, 2] and [r[3] for r in ref] == [True, False]
        sizes = []
        with pytest.raises(NumericalError, match=r"t=20 ") as err:
            inverse_laplace_numeric(self._counted(self.F, sizes), [2.0, 20.0], rtol=1e-9, atol=0.0)
        assert err.value.achieved == pytest.approx(ref[1][1], rel=1e-12)
        assert 1e-6 < err.value.achieved < 1e-5
        assert sizes == [(2 * 20,), (2 * 24,), (1 * 48,), (1 * 96,)]

    def test_first_failing_time_is_named(self):
        # exp(-t) at t = 30 and 40 sits below the contour's roundoff floor:
        # their 20/24-node gaps (~1e-13) exceed atol = 0 and the one doubling
        # to 48 nodes only widens the gap, so neither goes on to 96 nodes
        F = lambda s: 1 / (s + 1.0)
        ts = [1.0, 40.0, 30.0]
        ref = _talbot_per_time(F, ts, rtol=1e-9, atol=0.0)
        assert [r[2:] for r in ref] == [(0, True), (1, False), (1, False)]
        sizes = []
        with pytest.raises(NumericalError, match=r"t=40 ") as err:
            inverse_laplace_numeric(self._counted(F, sizes), ts, atol=0.0)
        assert err.value.achieved == pytest.approx(ref[1][1], rel=1e-12)
        assert sizes == [(3 * 20,), (3 * 24,), (2 * 48,)]

    def test_too_few_nodes_is_input_error(self):
        with pytest.raises(InputError, match="n_nodes"):
            inverse_laplace_numeric(self.F, [1.0], n_nodes=6)

    @pytest.mark.parametrize("F", [lambda s: 1.0, lambda s: (1 / s)[:-1], lambda s: (1 / s).reshape(-1, 1)],
                             ids=["scalar", "short", "column"])
    def test_wrong_result_shape_is_input_error(self, F):
        with pytest.raises(InputError, match="one value per node"):
            inverse_laplace_numeric(F, [1.0, 2.0])
