import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitenoise_transport import (BALLISTIC, InputError, LatticeMSDLaw, LatticeMomentInputs,
                                  ModelParams, Space, diffusion_constant,
                                  inverse_laplace_numeric, laplace_msd,
                                  msd_inverse_laplace_closed_form)
from whitenoise_transport.analytic_lattice import law_payload
from whitenoise_transport.errors import PoleError


@pytest.fixture
def point_inputs(sharp_corr):
    params = ModelParams(space=Space.LATTICE)
    return LatticeMomentInputs.point_localized(sharp_corr, params)


class TestLaplaceMsd:
    def test_small_s_diffusive_limit(self, point_inputs):
        # s^2 * L(s) -> Cd * sum_m 1/Gamma_m = 4 for Gamma = 1, via
        # Richardson extrapolation in s (the O(1/s) remainder is linear)
        f = lambda s: (s * s * laplace_msd(s, point_inputs)).real
        s1, s2 = 1e-3, 1e-4
        limit = (f(s2) * s1 - f(s1) * s2) / (s1 - s2)
        assert limit == pytest.approx(4.0, abs=1e-5)

    def test_ballistic_when_disorder_off(self, sharp_corr):
        params = ModelParams(v0=0.0, space=Space.LATTICE)
        inputs = LatticeMomentInputs.point_localized(sharp_corr, params)
        # gamma = 0: leading term (2 hbar/m)^2 d / s^3
        s = 1e-3
        assert (s**3 * laplace_msd(s, inputs)).real == pytest.approx(4.0, rel=1e-6)

    def test_large_s_decay(self, point_inputs):
        s = 1e3
        val = (s**3 * laplace_msd(s, point_inputs)).real
        assert val == pytest.approx(4.0, rel=2e-3)  # h(e_m, s) ~ s dominates

    @pytest.mark.parametrize("gamma", [[1.0], [0.0], [0.7, 1.9], [0.0, 0.4, 2.5]])
    def test_is_the_transform_of_the_closed_form_law(self, gamma):
        # a point start leaves only the leading term: Cd sum_m 1/(s^2 (s + Gamma_m))
        inputs = LatticeMomentInputs(c1=0.8, gamma=gamma)
        cd = LatticeMSDLaw.from_inputs(inputs).cd
        s = np.array([1e-3, 0.1, 1.0 + 2.0j, 17.3, -0.2 + 0.5j, 3.0 - 1.0j, 1e3])
        exact = cd * np.sum(1.0 / (s[:, np.newaxis] ** 2 * (s[:, np.newaxis] + gamma)), axis=-1)
        np.testing.assert_allclose(laplace_msd(s, inputs), exact, rtol=1e-14, atol=0.0)

    def test_pole_errors(self, point_inputs):
        with pytest.raises(PoleError, match=re.escape("at a pole: s=0j, gamma=[1.]")):
            laplace_msd(0.0, point_inputs)
        with pytest.raises(PoleError, match=re.escape("at a pole: s=(-1+0j), gamma=[1.]")):
            laplace_msd(-1.0, point_inputs)  # s = -gamma

    @pytest.mark.parametrize("inputs", [
        LatticeMomentInputs(c1=1.3, gamma=[0.7]),
        LatticeMomentInputs(c1=0.8, gamma=[0.7, 1.9]),
    ], ids=["1d", "2d"])
    def test_array_equals_scalar_calls(self, inputs):
        s = np.array([[0.1, 1.0 + 2.0j, 17.3, -0.2 + 0.5j],
                      [3.0 - 1.0j, 0.05j, 2.5, 40.0 + 40.0j],
                      [-0.69, 1e-3, 1e3, 0.4 - 0.3j]])
        got = laplace_msd(s, inputs)
        assert got.shape == s.shape and got.dtype == complex
        ref = np.array([laplace_msd(complex(v), inputs) for v in s.ravel()]).reshape(s.shape)
        np.testing.assert_array_equal(got, ref)
        assert type(laplace_msd(0.1, inputs)) is complex

    def test_pole_anywhere_in_array(self):
        inputs = LatticeMomentInputs(c1=1.0, gamma=[0.7, 1.9])
        # s = 0, and one axis's h(e_m, s) vanishing
        for pole in (0.0, -1.9):
            s = np.array([0.5, 1.0 + 1.0j, pole, 2.0])
            with pytest.raises(PoleError, match=re.escape(f"s={complex(pole)},")):
                laplace_msd(s, inputs)


class TestClosedFormLaw:
    def test_zero_at_time_zero(self):
        law = LatticeMSDLaw(cd=4.0, gamma=[0.7, 2.0])
        assert msd_inverse_laplace_closed_form(0.0, law) == 0.0

    def test_ballistic_channel_branch(self):
        law = LatticeMSDLaw(cd=3.0, gamma=[0.0])
        t = np.array([0.5, 2.0])
        np.testing.assert_allclose(msd_inverse_laplace_closed_form(t, law), 3.0 * t**2 / 2)

    def test_short_time_expansion(self):
        # t = 0.01, Gamma = 1: value = t^2/2 within 1%
        law = LatticeMSDLaw(cd=1.0, gamma=[1.0])
        val = msd_inverse_laplace_closed_form(0.01, law)
        assert val == pytest.approx(5.0e-5, rel=0.01)

    def test_negative_time_rejected(self):
        with pytest.raises(InputError, match="t must be nonnegative"):
            msd_inverse_laplace_closed_form(-0.1, LatticeMSDLaw(cd=1.0, gamma=[1.0]))

    def test_matches_talbot_inversion_of_full_transform(self):
        # numerical inversion of the assembled transform reproduces the
        # closed form on t in [0.1, 50] for several decay rates
        ts = np.linspace(0.1, 50, 40)
        for g in (0.5, 1.0, 2.0):
            inputs = LatticeMomentInputs(c1=1.0, gamma=[g])
            law = LatticeMSDLaw.from_inputs(inputs)
            num = inverse_laplace_numeric(lambda s: laplace_msd(s, inputs), ts)
            exact = msd_inverse_laplace_closed_form(ts, law)
            np.testing.assert_allclose(num, exact, rtol=1e-6)

    def test_long_time_slope(self):
        gams = np.array([0.5, 1.0, 2.0])
        law = LatticeMSDLaw(cd=4.0, gamma=gams)
        t = 100.0 / gams.min()
        slope = (msd_inverse_laplace_closed_form(t + 1.0, law)
                 - msd_inverse_laplace_closed_form(t, law))
        assert slope == pytest.approx(4.0 * float(np.sum(1.0 / gams)), rel=1e-3)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=1, max_size=3))
    def test_nonnegative_and_nondecreasing(self, gammas):
        law = LatticeMSDLaw(cd=1.7, gamma=gammas)
        t = np.linspace(0, 30, 200)
        vals = msd_inverse_laplace_closed_form(t, law)
        assert np.all(vals >= -1e-12)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_regime_thresholds(self):
        law = LatticeMSDLaw(cd=1.0, gamma=[0.5, 2.0])
        assert law.t_ballistic_below == pytest.approx(0.05 / 2.0)
        assert law.t_diffusive_above == pytest.approx(10.0 / 0.5)


class TestDiffusionConstant:
    def test_worked_example(self):
        # hbar=m=1, v0=1, g(0)-g(e1)=0.5, trace=1: D = 4 / 0.5 = 8
        inputs = LatticeMomentInputs(c1=1.0, gamma=[0.5])
        assert diffusion_constant(LatticeMSDLaw.from_inputs(inputs)) == pytest.approx(8.0)

    def test_ballistic_flag(self):
        assert diffusion_constant(LatticeMSDLaw(cd=4.0, gamma=[0.0, 1.0])) == BALLISTIC

    def test_quartic_suppression_in_disorder_strength(self, sharp_corr):
        d1, d2 = (diffusion_constant(LatticeMSDLaw.from_inputs(LatticeMomentInputs.point_localized(
            sharp_corr, ModelParams(v0=v0, space=Space.LATTICE)))) for v0 in (1.0, 2.0))
        assert d2 == pytest.approx(d1 / 4.0, rel=1e-12)

    def test_positive_whenever_all_channels_decay(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gam = rng.uniform(0.01, 3.0, size=3)
            inputs = LatticeMomentInputs(c1=0.7, gamma=gam)
            assert diffusion_constant(LatticeMSDLaw.from_inputs(inputs)) > 0


def test_law_json_export(point_inputs):
    law = LatticeMSDLaw.from_inputs(point_inputs)
    payload = law_payload(law)
    assert payload["Cd"] == pytest.approx(4.0)
    assert payload["gamma"] == [pytest.approx(1.0)]
    assert payload["D"] == pytest.approx(4.0)
    flat = LatticeMomentInputs(c1=1.0, gamma=[0.0])
    payload2 = law_payload(LatticeMSDLaw.from_inputs(flat))
    assert payload2["D"] == "ballistic"
