import numpy as np
import pytest

from whitenoise_transport import (BoxSizeError, GaussianCorrelation, InputError, LatticeInitialData,
                                  LatticeMSDLaw, LatticeMomentInputs, ModelParams, Space,
                                  StabilityError, evolve_full_kernel, evolve_hierarchy,
                                  fit_power_law, msd_inverse_laplace_closed_form)
from whitenoise_transport.evolve_lattice import _StepOperator, _hierarchy_generator, gamma_on_box

LATTICE = ModelParams(space=Space.LATTICE)
FREE = ModelParams(v0=0.0, space=Space.LATTICE)


@pytest.fixture
def point_init():
    return LatticeInitialData.point(1, 9)


class TestHierarchy:
    def test_free_motion_exactly_ballistic(self, sharp_corr, point_init):
        series, info = evolve_hierarchy(point_init, sharp_corr, FREE, t_max=10.0, dt=0.01,
                                        record_every=20)
        mask = series.times > 0
        np.testing.assert_allclose(series.msd[mask], series.times[mask] ** 2 / 2, rtol=1e-12)
        fit = fit_power_law(series.times[mask], series.msd[mask])
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)

    def test_matches_closed_form_up_to_global_constant(self, sharp_corr, point_init):
        series, info = evolve_hierarchy(point_init, sharp_corr, LATTICE, t_max=50.0, dt=0.01,
                                        record_every=10)
        inputs = LatticeMomentInputs.point_localized(sharp_corr, LATTICE)
        law = LatticeMSDLaw.from_inputs(inputs)
        mask = series.times >= 0.1
        law_vals = msd_inverse_laplace_closed_form(series.times[mask], law)
        constant = series.msd[mask][-1] / law_vals[-1]
        # one calibrated constant: the k-Laplacian-to-MSD normalization
        assert constant == pytest.approx(0.25, rel=1e-6)
        np.testing.assert_allclose(series.msd[mask], constant * law_vals, rtol=1e-4)

    def test_trace_conserved_exactly(self, sharp_corr, point_init):
        series, info = evolve_hierarchy(point_init, sharp_corr, LATTICE, t_max=100.0, dt=0.01,
                                        record_every=100)
        assert info["trace_drift"] == 0.0
        assert info["max_imag_residue"] == 0.0  # real initial data stays real

    def test_fourth_order_convergence(self, sharp_corr, point_init):
        inputs = LatticeMomentInputs.point_localized(sharp_corr, LATTICE)
        law = LatticeMSDLaw.from_inputs(inputs)
        exact = 0.25 * msd_inverse_laplace_closed_form(5.0, law)
        errs = []
        for dt in (0.05, 0.025, 0.0125):
            series, _ = evolve_hierarchy(point_init, sharp_corr, LATTICE, t_max=5.0, dt=dt,
                                         record_every=10**9)
            errs.append(abs(series.msd[-1] - exact))
        # halving dt changes the answer by well under 1e-6 relative and the
        # error ratio sits near the 4th-order value of 16
        assert abs(errs[1] - errs[2]) / exact < 1e-6
        assert 10.0 < errs[0] / errs[1] < 24.0
        assert 10.0 < errs[1] / errs[2] < 24.0

    def test_exponent_windows(self, sharp_corr, point_init):
        late, _ = evolve_hierarchy(point_init, sharp_corr, LATTICE, t_max=500.0, dt=0.02,
                                   record_every=50)
        fit = fit_power_law(late, window=(100.0, 500.0))
        assert 0.97 <= fit.exponent <= 1.03
        short, _ = evolve_hierarchy(point_init, sharp_corr, LATTICE, t_max=0.05, dt=0.002,
                                    record_every=1)
        mask = short.times > 0
        fit2 = fit_power_law(short.times[mask], short.msd[mask])
        assert 1.95 <= fit2.exponent <= 2.05

    def test_hermiticity_preserved(self, sharp_corr):
        # complex Hermitian initial kernel: m0(-Y) = conj m0(Y)
        side = 9
        init = LatticeInitialData.point(1, side)
        y = (np.arange(side) + side // 2) % side - side // 2
        m0 = np.exp(1j * 0.4 * y) * np.exp(-(y**2) / 2.0)
        init.m0 = m0.astype(complex)
        _, info = evolve_hierarchy(init, sharp_corr, LATTICE, t_max=2.0, dt=0.01,
                                   record_every=50, boundary_tol=1.0)
        m0_out = info["state"].m0
        rev = np.roll(m0_out[::-1], 1)
        np.testing.assert_allclose(rev, np.conj(m0_out), atol=1e-12)

    def test_stability_guard(self, sharp_corr, point_init):
        with pytest.raises(StabilityError, match=r"dt=0.5 exceeds stability limit 0.1; reduce evolve\.dt"):
            evolve_hierarchy(point_init, sharp_corr, LATTICE, t_max=1.0, dt=0.5)

    def test_boundary_monitor(self, sharp_corr):
        side = 9
        init = LatticeInitialData.point(1, side)
        y = (np.arange(side) + side // 2) % side - side // 2
        init.m0 = np.exp(-(y**2) / 8.0).astype(complex)  # mass near the edge
        with pytest.raises(BoxSizeError, match=r"Y-box edge at t=0.01; enlarge the box \(evolve\.y_box, now 9\)"):
            evolve_hierarchy(init, sharp_corr, LATTICE, t_max=1.0, dt=0.01)

    def test_even_box_rejected(self, sharp_corr):
        with pytest.raises(InputError, match="Y-box side must be odd and >= 5, got 8"):
            LatticeInitialData.point(1, 8)


class TestFullKernel:
    def test_k_zero_matches_hierarchy_m0(self, sharp_corr):
        # at k = 0 the multipliers vanish and each Y site decays at its own
        # dephasing rate: m0(Y, t) = exp(-gamma(Y) t) m0(Y, 0)
        init = LatticeInitialData.point(1, 9)
        init.m0[1] = 0.5
        init.m0[-1] = 0.5
        _, snaps = evolve_full_kernel(np.array([[0.0]]), init.m0, sharp_corr, LATTICE,
                                      t_max=5.0, dt=0.01, record_times=[5.0])
        assert abs(snaps[0, -1][0] - 1.0) < 1e-10
        assert abs(snaps[0, -1][1] - 0.5 * np.exp(-5.0)) < 1e-8

    def test_free_evolution_unitary_in_lattice_norm(self, sharp_corr, point_init):
        _, snaps = evolve_full_kernel(np.array([[np.pi / 8]]), point_init.m0, sharp_corr, FREE,
                                      t_max=10.0, dt=0.01, record_times=[0.0, 10.0])
        n0 = np.linalg.norm(snaps[0, 0])
        n1 = np.linalg.norm(snaps[0, 1])
        assert abs(n1 - n0) < 1e-8

    def test_fd_laplacian_cross_check_against_hierarchy(self, sharp_corr):
        # central second difference at k = 0 (Richardson over pi/64, pi/128)
        # must reproduce the hierarchy's second moment
        t_eval = 5.0
        series, _ = evolve_hierarchy(LatticeInitialData.point(1, 9), sharp_corr, LATTICE,
                                     t_max=t_eval, dt=0.005, record_every=10**9)
        target = -4.0 * series.msd[-1]  # undo the recorded 1/4 convention

        def kernel_at(kval):
            init = LatticeInitialData.point(1, 33)
            _, s = evolve_full_kernel(np.array([[kval]]), init.m0, sharp_corr, LATTICE,
                                      t_max=t_eval, dt=0.005, record_times=[t_eval])
            return s[0, -1][0]

        center = kernel_at(0.0)
        d_vals = {}
        for h in (np.pi / 64, np.pi / 128):
            d_vals[h] = ((kernel_at(h) - 2 * center + kernel_at(-h)) / h**2).real
        fd = (4 * d_vals[np.pi / 128] - d_vals[np.pi / 64]) / 3
        assert fd == pytest.approx(target, rel=1e-3)

    def test_cfl_guard(self, sharp_corr, point_init):
        with pytest.raises(StabilityError, match=r"dt=1.0 too large for \|k\|=3.14"):
            evolve_full_kernel(np.array([[np.pi]]), point_init.m0, sharp_corr, LATTICE,
                               t_max=1.0, dt=1.0)


def test_snapshot_dump_round_trip(tmp_path, sharp_corr, point_init):
    # complex kernel snapshots on an odd Y-box go through the field-dump format
    from whitenoise_transport import read_field, write_field

    times, snaps = evolve_full_kernel(np.array([[0.1]]), point_init.m0, sharp_corr, LATTICE,
                                      t_max=1.0, dt=0.01, record_times=[0.5, 1.0])
    for j, t in enumerate(times):
        path = tmp_path / f"snap_{j}.qtnf"
        write_field(path, snaps[0, j], dim=1, points_per_side=9, dt=0.01)
        values, dim, side, dt = read_field(path)
        assert (dim, side, dt) == (1, 9, 0.01)
        restored = values[..., 0] + 1j * values[..., 1]
        np.testing.assert_array_equal(restored, snaps[0, j])


def _shift(arr, axis, direction):
    return np.roll(arr, -direction, axis=axis)


def _rk4_hierarchy_loop(init, gamma, c1, t_max, dt, record_every):
    """Plain per-step RK4 of the k = 0 hierarchy: the reference the step
    operator must reproduce.  Returns (times, msd, (m0, m1, m2))."""
    d = init.dim
    m0, m1, m2 = (a.astype(complex).copy() for a in (init.m0, init.m1, init.m2))

    def rhs(y0, y1, y2):
        d1 = np.empty_like(y1)
        d2 = np.empty_like(y2)
        for j in range(d):
            d1[j] = c1 * (_shift(y0, j, +1) - _shift(y0, j, -1)) - gamma * y1[j]
            d2[j] = 2.0 * c1 * (_shift(y1[j], j, +1) - _shift(y1[j], j, -1)) - gamma * y2[j]
        return -gamma * y0, d1, d2

    def msd_of(y2):
        return -0.25 * float(np.sum(y2[(slice(None),) + (0,) * d]).real)

    n_steps = int(round(t_max / dt))
    times, msd = [0.0], [msd_of(m2)]
    for n in range(1, n_steps + 1):
        y = (m0, m1, m2)
        k1 = rhs(*y)
        k2 = rhs(*(a + 0.5 * dt * b for a, b in zip(y, k1)))
        k3 = rhs(*(a + 0.5 * dt * b for a, b in zip(y, k2)))
        k4 = rhs(*(a + dt * b for a, b in zip(y, k3)))
        m0, m1, m2 = (a + (dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                      for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        if n % record_every == 0 or n == n_steps:
            times.append(n * dt)
            msd.append(msd_of(m2))
    return np.array(times), np.array(msd), (m0, m1, m2)


def _rk4_kernel_loop(k, R, gamma, c, dt, record_steps):
    """Plain per-step RK4 of the transformed kernel at one k (reference)."""
    mult_plus, mult_minus = np.exp(1j * k) - 1.0, np.exp(-1j * k) - 1.0
    diag = 2.0 * np.sum(1.0 - np.cos(k))

    def rhs(y):
        acc = -(gamma + 1j * c * diag) * y
        for j in range(len(k)):
            acc = acc - 1j * c * (mult_plus[j] * _shift(y, j, +1) + mult_minus[j] * _shift(y, j, -1))
        return acc

    out = [R] if record_steps[0] == 0 else []
    for n in range(1, record_steps[-1] + 1):
        k1 = rhs(R)
        k2 = rhs(R + 0.5 * dt * k1)
        k3 = rhs(R + 0.5 * dt * k2)
        k4 = rhs(R + dt * k3)
        R = R + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if n in record_steps:
            out.append(R)
    return np.array(out)


def _lattice(dim):
    return ModelParams(space=Space.LATTICE, dim=dim), GaussianCorrelation(40.0 * np.eye(dim))


class TestStepOperator:
    # the operator and the loop round differently, so compare to a bound
    # well above float64 roundoff accumulated over a few hundred steps
    RTOL = 1e-11

    @pytest.mark.parametrize("dim, side, t_max, dt, record_every", [
        (1, 9, 5.0, 0.01, 7),       # 500 steps: 7 does not divide them
        (2, 7, 1.0, 0.01, 30),      # 100 steps, remainder gap 10
        (3, 5, 0.3, 0.01, 4),       # 30 steps, remainder gap 2
        (1, 9, 2.0, 0.01, 1000),    # one gap longer than the run
    ])
    def test_hierarchy_matches_rk4_loop(self, dim, side, t_max, dt, record_every):
        params, corr = _lattice(dim)
        init = LatticeInitialData.point(dim, side)
        series, info = evolve_hierarchy(init, corr, params, t_max=t_max, dt=dt,
                                        record_every=record_every, boundary_tol=1.0)
        times, msd, state = _rk4_hierarchy_loop(init, gamma_on_box(corr, params, side),
                                                params.hbar / params.mass, t_max, dt, record_every)
        np.testing.assert_array_equal(series.times, times)
        np.testing.assert_allclose(series.msd, msd, rtol=self.RTOL, atol=0.0)
        got = (info["state"].m0, info["state"].m1, info["state"].m2)
        for a, b in zip(got, state):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=self.RTOL * np.max(np.abs(b)))

    def test_complex_initial_data_matches_rk4_loop(self, sharp_corr):
        # complex m0 exercises the imaginary half of the real operator
        side = 9
        init = LatticeInitialData.point(1, side)
        y = (np.arange(side) + side // 2) % side - side // 2
        init.m0 = (np.exp(1j * 0.4 * y) * np.exp(-(y**2) / 2.0)).astype(complex)
        _, info = evolve_hierarchy(init, sharp_corr, LATTICE, t_max=2.0, dt=0.01,
                                   record_every=30, boundary_tol=1.0)
        _, _, state = _rk4_hierarchy_loop(init, gamma_on_box(sharp_corr, LATTICE, side), 1.0,
                                          2.0, 0.01, 30)
        got = (info["state"].m0, info["state"].m1, info["state"].m2)
        for a, b in zip(got, state):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=self.RTOL * np.max(np.abs(b)))

    @pytest.mark.parametrize("k", [[0.0], [0.3], [-np.pi / 2], [0.2, -0.7]])
    def test_full_kernel_matches_rk4_loop(self, k):
        k = np.array(k)
        params, corr = _lattice(k.size)
        side = 9
        init = LatticeInitialData.point(k.size, side).m0
        init[(1,) * k.size] = 0.5 - 0.25j
        times, snaps = evolve_full_kernel(k[None, :], init, corr, params, t_max=1.0, dt=0.01,
                                          record_times=[0.0, 0.37, 1.0])
        np.testing.assert_allclose(times, [0.0, 0.37, 1.0])
        ref = _rk4_kernel_loop(k, init.astype(complex), gamma_on_box(corr, params, side),
                               params.hbar / params.mass, 0.01, [0, 37, 100])
        np.testing.assert_allclose(snaps[0], ref, rtol=0.0, atol=self.RTOL * np.max(np.abs(ref)))

    @pytest.mark.parametrize("dim, side, nnz", [(1, 9, 90), (2, 15, 4275), (3, 9, 20412)])
    def test_powers_keep_the_step_sparsity(self, dim, side, nnz):
        # gamma is diagonal and m0 -> m1 -> m2 is nilpotent: no fill-in
        params, corr = _lattice(dim)
        gamma = gamma_on_box(corr, params, side)
        step = _StepOperator(_hierarchy_generator(gamma, params.hbar / params.mass), 0.01)
        assert step.power(1).nnz == nnz
        for r in (2, 3, 10, 1000):
            assert step.power(r).nnz == nnz


# the messages of step_count and the record_every check
BAD_TIMES = ("dt must be positive|t_max must be at least dt|is not a whole number of steps"
             "|record_every must be a positive integer")


class TestTimeInputs:
    @pytest.mark.parametrize("t_max, dt, record_every", [
        (1.0, 0.0, 1), (1.0, -0.01, 1), (0.005, 0.01, 1), (0.015, 0.01, 1), (1.0, 0.01, 0),
        (1.0, 0.01, 2.5)])
    def test_hierarchy_rejects_bad_times(self, sharp_corr, point_init, t_max, dt, record_every):
        with pytest.raises(InputError, match=BAD_TIMES):
            evolve_hierarchy(point_init, sharp_corr, LATTICE, t_max=t_max, dt=dt,
                             record_every=record_every)

    @pytest.mark.parametrize("t_max, dt", [(1.0, 0.0), (1.0, -0.01), (0.005, 0.01), (0.015, 0.01)])
    def test_full_kernel_rejects_bad_times(self, sharp_corr, point_init, t_max, dt):
        with pytest.raises(InputError, match=BAD_TIMES):
            evolve_full_kernel(np.array([[0.1]]), point_init.m0, sharp_corr, LATTICE,
                               t_max=t_max, dt=dt)
