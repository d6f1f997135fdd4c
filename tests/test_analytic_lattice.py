import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitenoise_transport import (BALLISTIC, InputError, LatticeMSDLaw, LatticeMomentInputs,
                                  ModelParams, Space, diffusion_constant,
                                  inverse_laplace_numeric, laplace_msd,
                                  msd_inverse_laplace_closed_form)
from whitenoise_transport.analytic_lattice import law_to_json
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

    def test_real_at_real_s_for_hermitian_inputs(self):
        # Hermitian initial kernel: K(0,-Y,0) = conj K(0,Y,0) and
        # d_m K(0,-Y,0) = -conj d_m K(0,Y,0)
        z1 = 0.3 + 0.7j
        z2 = -0.1 + 0.2j
        w = 0.05 + 0.4j
        inputs = LatticeMomentInputs(
            c1=1.0, r000=1.0, gamma=[1.0], gamma2=[0.8],
            r_e=[z1], r_minus_e=[np.conj(z1)], r_2e=[z2], r_minus_2e=[np.conj(z2)],
            d1_e=[w], d1_minus_e=[-np.conj(w)], d2_zero=[-0.3],
        )
        for s in (0.1, 1.0, 17.3):
            val = laplace_msd(s, inputs)
            assert abs(val.imag) <= 1e-12 * abs(val)

    def test_pole_errors(self, point_inputs):
        with pytest.raises(PoleError, match=re.escape("at a pole: s=0j, gamma=[1.]")):
            laplace_msd(0.0, point_inputs)
        with pytest.raises(PoleError, match=re.escape("at a pole: s=(-1+0j), gamma=[1.]")):
            laplace_msd(-1.0, point_inputs)  # s = -gamma

    @pytest.mark.parametrize("inputs", [
        LatticeMomentInputs(c1=1.3, r000=0.9, gamma=[0.7], gamma2=[1.1], r_e=[0.3 + 0.7j],
                            r_minus_e=[0.3 - 0.7j], r_2e=[-0.1 + 0.2j], r_minus_2e=[0.05 - 0.3j],
                            d1_e=[0.05 + 0.4j], d1_minus_e=[-0.2 + 0.1j], d2_zero=[-0.3 + 0.05j]),
        LatticeMomentInputs(c1=0.8, r000=1.2, gamma=[0.7, 1.9], gamma2=[1.1, 2.5],
                            r_e=[0.3 + 0.7j, -0.2j], r_minus_e=[0.3 - 0.7j, 0.4], r_2e=[-0.1 + 0.2j, 0.6],
                            r_minus_2e=[0.05 - 0.3j, 0.1 + 0.1j], d1_e=[0.05 + 0.4j, -0.3],
                            d1_minus_e=[-0.2 + 0.1j, 0.7j], d2_zero=[-0.3 + 0.05j, 0.2 - 0.1j]),
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
        inputs = LatticeMomentInputs(c1=1.0, r000=1.0, gamma=[0.7, 1.9], gamma2=[1.1, 2.5])
        # s = 0, and one axis's h(e_m, s) or h(2 e_m, s) vanishing
        for pole in (0.0, -1.9, -1.1):
            s = np.array([0.5, 1.0 + 1.0j, pole, 2.0])
            with pytest.raises(PoleError, match=re.escape(f"s={complex(pole)},")):
                laplace_msd(s, inputs)

    def test_r000_must_be_positive(self):
        with pytest.raises(InputError, match=re.escape("K(0,0,0) must be positive, got 0.0")):
            LatticeMomentInputs(c1=1.0, r000=0.0, gamma=[1.0], gamma2=[1.0])


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
            inputs = LatticeMomentInputs(c1=1.0, r000=1.0, gamma=[g], gamma2=[g])
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
        inputs = LatticeMomentInputs(c1=1.0, r000=1.0, gamma=[0.5], gamma2=[0.5])
        assert diffusion_constant(inputs, trace=1.0) == pytest.approx(8.0)

    def test_ballistic_flag(self):
        inputs = LatticeMomentInputs(c1=1.0, r000=1.0, gamma=[0.0, 1.0], gamma2=[0.0, 1.0])
        assert diffusion_constant(inputs, trace=1.0) == BALLISTIC

    def test_quartic_suppression_in_disorder_strength(self, sharp_corr):
        d1 = diffusion_constant(
            LatticeMomentInputs.point_localized(sharp_corr, ModelParams(v0=1.0, space=Space.LATTICE)), 1.0)
        d2 = diffusion_constant(
            LatticeMomentInputs.point_localized(sharp_corr, ModelParams(v0=2.0, space=Space.LATTICE)), 1.0)
        assert d2 == pytest.approx(d1 / 4.0, rel=1e-12)

    def test_positive_whenever_all_channels_decay(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gam = rng.uniform(0.01, 3.0, size=3)
            inputs = LatticeMomentInputs(c1=0.7, r000=2.0, gamma=gam, gamma2=gam)
            assert diffusion_constant(inputs, trace=1.0) > 0


def test_law_json_export(point_inputs):
    law = LatticeMSDLaw.from_inputs(point_inputs)
    payload = json.loads(law_to_json(law, point_inputs, trace=1.0))
    assert payload["Cd"] == pytest.approx(4.0)
    assert payload["gamma"] == [pytest.approx(1.0)]
    assert payload["D"] == pytest.approx(4.0)
    flat = LatticeMomentInputs(c1=1.0, r000=1.0, gamma=[0.0], gamma2=[0.0])
    payload2 = json.loads(law_to_json(LatticeMSDLaw.from_inputs(flat), flat, trace=1.0))
    assert payload2["D"] == "ballistic"
