import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitenoise_transport import (BoxSizeError, GaussianCorrelation, InputError, LatticeInitialData,
                                  LatticeMSDLaw, LatticeMomentInputs, ModelParams, Space,
                                  StabilityError, evolve_full_kernel, evolve_hierarchy,
                                  fit_power_law, msd_inverse_laplace_closed_form)
from whitenoise_transport.core_model import _minimum_image
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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_restarts_from_its_final_state(self, dim):
        # info["state"] is the initial data evolve_hierarchy takes: a run to
        # t1 restarted for t2 is one run to t1 + t2
        params, corr = _lattice(dim)
        init = LatticeInitialData.point(dim, 9)
        _, first = evolve_hierarchy(init, corr, params, t_max=0.3, dt=0.01, record_every=10,
                                    boundary_tol=1.0)
        assert isinstance(first["state"], LatticeInitialData)
        second, end = evolve_hierarchy(first["state"], corr, params, t_max=0.2, dt=0.01,
                                       record_every=10, boundary_tol=1.0)
        whole, ref = evolve_hierarchy(init, corr, params, t_max=0.5, dt=0.01, record_every=10,
                                      boundary_tol=1.0)
        np.testing.assert_allclose(second.msd, whole.msd[3:], rtol=1e-12, atol=0.0)
        for name in ("m0", "m1", "m2"):
            b = getattr(ref["state"], name)
            np.testing.assert_allclose(getattr(end["state"], name), b, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(b)))

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
                                      t_max=5.0, dt=0.01, record_every=500)
        assert abs(snaps[0, -1][0] - 1.0) < 1e-10
        assert abs(snaps[0, -1][1] - 0.5 * np.exp(-5.0)) < 1e-8

    def test_free_evolution_unitary_in_lattice_norm(self, sharp_corr, point_init):
        _, snaps = evolve_full_kernel(np.array([[np.pi / 8]]), point_init.m0, sharp_corr, FREE,
                                      t_max=10.0, dt=0.01, record_every=1000)
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
                                      t_max=t_eval, dt=0.005, record_every=1000)
            return s[0, -1][0]

        center = kernel_at(0.0)
        d_vals = {}
        for h in (np.pi / 64, np.pi / 128):
            d_vals[h] = ((kernel_at(h) - 2 * center + kernel_at(-h)) / h**2).real
        fd = (4 * d_vals[np.pi / 128] - d_vals[np.pi / 64]) / 3
        assert fd == pytest.approx(target, rel=1e-3)

    def test_cfl_guard(self, sharp_corr, point_init):
        # sin(pi/2) = 1 maximises the hopping part of the bound (at k = pi it vanishes)
        with pytest.raises(StabilityError, match=r"dt=1.0 too large for \|k\|=1.57"):
            evolve_full_kernel(np.array([[np.pi / 2]]), point_init.m0, sharp_corr, LATTICE,
                               t_max=1.0, dt=1.0)

    @pytest.mark.parametrize("dim, side, n_x", [(1, 31, 48), (2, 25, 36)])
    def test_free_evolution_is_the_exact_density_matrix_evolution(self, dim, side, n_x):
        # rho(t) = U rho0 U^dagger with the lattice dispersion -(hbar^2/m) sum_j cos q_j
        # of the Monte Carlo route; no generator of the kernel enters the reference
        hbar, mass, t = 0.7, 1.3, 0.6
        params = ModelParams(hbar=hbar, mass=mass, v0=0.0, dim=dim, space=Space.LATTICE)
        k = np.array([0.7, -0.4][:dim])
        sites = np.indices((n_x,) * dim).reshape(dim, -1).T
        rng = np.random.default_rng(5)
        # a mixed state of three columns, each supported on the 3^d sites around the centre
        near = np.all(np.abs(sites - n_x // 2) <= 1, axis=1)
        cols = (rng.normal(size=(near.size, 3)) + 1j * rng.normal(size=(near.size, 3))) * near[:, None]
        rho0 = cols @ cols.conj().T
        q = np.stack(np.meshgrid(*[2 * np.pi * np.fft.fftfreq(n_x)] * dim, indexing="ij"))
        energy = -(hbar**2 / mass) * np.cos(q).sum(axis=0)
        fourier = np.exp(-1j * (2 * np.pi / n_x) * (sites @ sites.T))  # DFT over the d-D lattice
        u = fourier.conj().T @ (np.exp(-1j * energy.ravel() * t / hbar)[:, None] * fourier) / n_x**dim
        rho_t = u @ rho0 @ u.conj().T

        def kernel(rho):
            # K(k, Y) = sum_X exp(i k.X) <x'|rho|x>, X = x + x', Y = x - x'
            Y = sites[:, None, :] - sites[None, :, :]
            X = sites[:, None, :] + sites[None, :, :]
            keep = np.all(np.abs(Y) <= side // 2, axis=-1)
            out = np.zeros((side,) * dim, dtype=complex)
            np.add.at(out, tuple((Y[keep] % side).T), np.exp(1j * (X[keep] @ k)) * rho.T[keep])
            return out

        _, snaps = evolve_full_kernel(k[None], kernel(rho0), GaussianCorrelation(40.0 * np.eye(dim)),
                                      params, t_max=t, dt=0.002)
        ref = kernel(rho_t)
        assert np.max(np.abs(snaps[0, -1] - ref)) <= 1e-12 * np.max(np.abs(ref))


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
            d1[j] = c1 * (_shift(y0, j, -1) - _shift(y0, j, +1)) - gamma * y1[j]
            d2[j] = 2.0 * c1 * (_shift(y1[j], j, -1) - _shift(y1[j], j, +1)) - gamma * y2[j]
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
    def rhs(y):
        acc = -gamma * y
        for j in range(len(k)):
            acc = acc + c * np.sin(k[j]) * (_shift(y, j, -1) - _shift(y, j, +1))
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
                                          record_every=37)
        np.testing.assert_allclose(times, [0.0, 0.37, 0.74, 1.0])
        ref = _rk4_kernel_loop(k, init.astype(complex), gamma_on_box(corr, params, side),
                               params.hbar / params.mass, 0.01, [0, 37, 74, 100])
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


class TestStepOperatorProperties:
    @settings(max_examples=30, deadline=None)
    @given(side=st.sampled_from([5, 7, 9, 11]), dim=st.integers(1, 3), r=st.integers(1, 1000),
           real=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_power_is_repeated_step(self, side, dim, r, real, seed):
        params, corr = _lattice(dim)
        gamma = gamma_on_box(corr, params, side)
        step = _StepOperator(_hierarchy_generator(gamma, params.hbar / params.mass), 0.01)
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(2 * dim + 1) * side**dim)
        if not real:
            y = y + 1j * rng.normal(size=y.size)
        ref = y
        for _ in range(r):
            ref = step.power(1) @ ref
        np.testing.assert_allclose(step.power(r) @ y, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
        assert step.power(r).nnz == step.power(1).nnz

        # the evolution needs a physical kernel (its MSD is nonnegative): a
        # Gaussian in Y, complex when given a momentum
        init = LatticeInitialData.point(dim, side)
        y_axes = np.stack(np.meshgrid(*[_minimum_image(side)] * dim, indexing="ij"), axis=-1)
        q = np.zeros(dim) if real else rng.uniform(-1.0, 1.0, dim)
        init.m0 = np.exp(-np.sum(y_axes**2, axis=-1) / (2.0 * rng.uniform(0.5, 1.5) ** 2)
                         + 1j * (y_axes @ q))
        _, info = evolve_hierarchy(init, corr, params, t_max=0.01 * r, dt=0.01, record_every=r,
                                   boundary_tol=np.inf)
        assert info["trace_drift"] == 0.0
        if real:
            assert info["max_imag_residue"] == 0.0


class TestFullKernelProperties:
    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 2), k=st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_hermiticity(self, dim, k, seed):
        # rho = rho^dagger gives conj K(k, Y, t) = K(-k, -Y, t); the start at -k
        # is the mirrored conjugate of the start at k, so the two evolutions must
        # stay mirrored conjugates
        params = ModelParams(hbar=0.7, mass=1.3, v0=0.8, dim=dim, space=Space.LATTICE)
        corr = GaussianCorrelation(0.5 * np.eye(dim))
        k = np.array(k[:dim])
        rng = np.random.default_rng(seed)
        shape = (9,) * dim
        start = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        _, plus = evolve_full_kernel(k[None], start, corr, params, t_max=0.5, dt=0.01)
        _, minus = evolve_full_kernel(-k[None], np.conj(_mirror(start)), corr, params, t_max=0.5, dt=0.01)
        np.testing.assert_allclose(np.conj(_mirror(plus[0, -1])), minus[0, -1], rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(plus[0, -1])))


def _mirror(arr):
    """arr(-Y) on the minimum-image layout (index 0 is Y = 0)."""
    for ax in range(arr.ndim):
        arr = np.roll(np.flip(arr, axis=ax), 1, axis=ax)
    return arr


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


class TestModelInputs:
    def test_correlation_of_another_dim_rejected(self, point_init):
        corr_2d = GaussianCorrelation(40.0 * np.eye(2))
        with pytest.raises(InputError, match="model has dim 1, correlation has dim 2"):
            evolve_hierarchy(point_init, corr_2d, LATTICE, t_max=1.0, dt=0.01)
        # the kernel route shares the check through gamma_on_box
        with pytest.raises(InputError, match="model has dim 1, correlation has dim 2"):
            evolve_full_kernel(np.array([[0.1]]), point_init.m0, corr_2d, LATTICE, t_max=1.0, dt=0.01)

    def test_initial_data_of_another_dim_rejected(self, sharp_corr):
        with pytest.raises(InputError, match="model has dim 1, initial data has dim 2"):
            evolve_hierarchy(LatticeInitialData.point(2, 9), sharp_corr, LATTICE, t_max=1.0, dt=0.01)
        params_2d, corr_2d = _lattice(2)
        with pytest.raises(InputError, match="model has dim 2, initial data has dim 1"):
            evolve_hierarchy(LatticeInitialData.point(1, 9), corr_2d, params_2d, t_max=1.0, dt=0.01)
        with pytest.raises(InputError, match="model has dim 1, initial kernel has dim 2"):
            evolve_full_kernel(np.array([[0.1]]), LatticeInitialData.point(2, 9).m0, sharp_corr, LATTICE,
                               t_max=1.0, dt=0.01)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-8])
    def test_nan_or_negative_boundary_tol_rejected(self, sharp_corr, point_init, tol):
        # a NaN tolerance would silently turn the box monitor off
        with pytest.raises(InputError, match="boundary_tol must be nonnegative"):
            evolve_hierarchy(point_init, sharp_corr, LATTICE, t_max=1.0, dt=0.01, boundary_tol=tol)


def _shell_max(arr, dim):
    """Largest |value| of the per-axis blocks ``arr`` on the outermost
    minimum-image shell of the box, one axis at a time."""
    side = arr.shape[-1]
    on_edge = np.abs(_minimum_image(side)) >= side // 2
    worst = 0.0
    for ax in range(dim):
        sl = [slice(None)] * arr.ndim
        sl[arr.ndim - dim + ax] = on_edge
        worst = max(worst, float(np.max(np.abs(arr[tuple(sl)]))))
    return worst


def _diagnostics_oracle(init, corr, params, t_max, dt, record_every):
    """Record times, MSD and per-record (trace drift, |Im sum_j m2_j(0)|,
    shell mass of m1 and m2) of every recorded state, each state unpacked
    into its moment arrays and read by array indexing."""
    d, side = init.dim, init.side
    box, n = (side,) * d, side**d
    center = (0,) * d
    gamma = gamma_on_box(corr, params, side)
    step = _StepOperator(_hierarchy_generator(gamma, params.hbar / params.mass), dt)
    n_steps = int(round(t_max / dt))
    record_steps = sorted(set(range(0, n_steps, record_every)) | {n_steps})
    y0 = np.concatenate([init.m0.ravel(), init.m1.ravel(), init.m2.ravel()]).astype(complex)
    times, msd, drift, imag, shell = [], [], [], [], []
    for n_done, y in step.propagate(y0, record_steps):
        m0 = y[:n].reshape(box)
        m1 = y[n:(d + 1) * n].reshape((d,) + box)
        m2 = y[(d + 1) * n:].reshape((d,) + box)
        second = np.sum(m2[(slice(None),) + center])
        times.append(n_done * dt)
        msd.append(-0.25 * float(second.real))
        drift.append(abs(m0[center] - y0[0]))
        imag.append(abs(second.imag))
        shell.append(max(_shell_max(m1, d), _shell_max(m2, d)))
    return np.array(times), np.array(msd), np.array(drift), np.array(imag), np.array(shell)


def _random_init(dim, side, seed):
    """Complex, non-Hermitian moment data with mass on the box edge."""
    rng = np.random.default_rng(seed)
    init = LatticeInitialData.point(dim, side)
    shape = (side,) * dim
    init.m0 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    init.m1 = rng.normal(size=(dim,) + shape) + 1j * rng.normal(size=(dim,) + shape)
    init.m2 = rng.normal(size=(dim,) + shape) + 1j * rng.normal(size=(dim,) + shape)
    init.m2[(slice(None),) + (0,) * dim] -= 20.0  # keeps the MSD positive
    return init


class TestDiagnostics:
    @pytest.mark.parametrize("dim, side, t_max, record_every", [
        (1, 9, 0.5, 7),     # 50 steps, final gap 1
        (2, 7, 0.3, 8),     # 30 steps, final gap 6
        (3, 5, 0.1, 3),     # 10 steps, final gap 1
    ])
    def test_match_per_record_oracle(self, dim, side, t_max, record_every):
        params, corr = _lattice(dim)
        init = _random_init(dim, side, seed=dim)
        series, info = evolve_hierarchy(init, corr, params, t_max=t_max, dt=0.01,
                                        record_every=record_every, boundary_tol=np.inf)
        times, msd, drift, imag, shell = _diagnostics_oracle(init, corr, params, t_max, 0.01,
                                                             record_every)
        np.testing.assert_array_equal(series.times, times)
        np.testing.assert_array_equal(series.msd, msd)
        # the box monitor and the trace drift start at the first record after t = 0
        assert info["trace_drift"] == drift[1:].max()
        assert info["max_imag_residue"] == imag.max() > 0.0
        assert info["max_boundary_mass"] == shell[1:].max() > 0.0

    def test_box_error_names_the_first_breaching_record(self):
        params, corr = _lattice(2)
        init = LatticeInitialData.point(2, 9)
        y_axes = np.stack(np.meshgrid(*[_minimum_image(9)] * 2, indexing="ij"), axis=-1)
        init.m0 = np.exp(-np.sum(y_axes**2, axis=-1) / 3.0).astype(complex)
        times, _, _, _, shell = _diagnostics_oracle(init, corr, params, 0.3, 0.01, 2)
        tol = shell[5]
        first = int(np.argmax(shell[1:] > tol)) + 1
        assert first > 1  # a later record than the first breaches
        with pytest.raises(BoxSizeError, match=rf"moment mass {shell[first]:.3e} reached the Y-box "
                                               rf"edge at t={times[first]:.4g}; enlarge the box "
                                               rf"\(evolve\.y_box, now 9\)"):
            evolve_hierarchy(init, corr, params, t_max=0.3, dt=0.01, record_every=2, boundary_tol=tol)


def _hierarchy_record_by_record(init, corr, params, t_max, dt, record_every, boundary_tol):
    """``evolve_hierarchy`` read one record at a time in a Python loop, with
    the same step operator: times, MSD, (trace drift, imaginary residue,
    boundary mass), the final state vector, each record's shell mass, and
    the box error's message or None."""
    d, side = init.dim, init.side
    n = side**d
    gamma = gamma_on_box(corr, params, side)
    step = _StepOperator(_hierarchy_generator(gamma, params.hbar / params.mass), dt)
    n_steps = int(round(t_max / dt))
    record_steps = sorted(set(range(0, n_steps, record_every)) | {n_steps})
    second_idx = (d + 1 + np.arange(d)) * n
    on_edge = np.abs(_minimum_image(side)) == side // 2
    shell = np.flatnonzero(np.any(on_edge[np.indices((side,) * d).reshape(d, -1)], axis=0))
    shell_idx = np.concatenate([block * n + shell for block in range(1, 2 * d + 1)])
    y = np.concatenate([init.m0.ravel(), init.m1.ravel(), init.m2.ravel()]).astype(complex)
    trace0 = y[0]
    second = y[second_idx].sum()
    times, msd, shells = [0.0], [-0.25 * float(second.real)], []
    drift, imag, boundary = 0.0, abs(second.imag), 0.0
    for n_done, y in step.propagate(y, record_steps[1:]):
        second = y[second_idx].sum()
        times.append(n_done * dt)
        msd.append(-0.25 * float(second.real))
        drift = max(drift, abs(y[0] - trace0))
        imag = max(imag, abs(second.imag))
        shells.append(float(np.abs(y[shell_idx]).max()))
        boundary = max(boundary, shells[-1])
        if shells[-1] > boundary_tol:
            return None, None, None, None, shells, (
                f"moment mass {shells[-1]:.3e} reached the Y-box edge at t={n_done * dt:.4g}; "
                f"enlarge the box (evolve.y_box, now {side})")
    return np.array(times), np.array(msd), (drift, imag, boundary), y, shells, None


@pytest.mark.parametrize("dim, side, t_max, record_every", [
    (1, 9, 0.5, 7),     # 50 steps, final gap 1
    (2, 7, 0.3, 8),     # 30 steps, final gap 6
    (3, 5, 0.1, 3),     # 10 steps, final gap 1
])
def test_hierarchy_records_match_a_record_by_record_loop(dim, side, t_max, record_every):
    params, corr = _lattice(dim)
    init = _random_init(dim, side, seed=10 + dim)
    series, info = evolve_hierarchy(init, corr, params, t_max=t_max, dt=0.01,
                                    record_every=record_every, boundary_tol=np.inf)
    times, msd, maxima, y, shells, _ = _hierarchy_record_by_record(init, corr, params, t_max, 0.01,
                                                                   record_every, np.inf)
    np.testing.assert_array_equal(series.times, times)
    np.testing.assert_array_equal(series.msd, msd)
    np.testing.assert_array_equal(
        [info["trace_drift"], info["max_imag_residue"], info["max_boundary_mass"]], maxima)
    state = info["state"]
    np.testing.assert_array_equal(np.concatenate([state.m0.ravel(), state.m1.ravel(), state.m2.ravel()]), y)

    # a tolerance that a middle record breaches first names that record
    tol = sorted(shells)[len(shells) // 2]
    *_, message = _hierarchy_record_by_record(init, corr, params, t_max, 0.01, record_every, tol)
    with pytest.raises(BoxSizeError) as err:
        evolve_hierarchy(init, corr, params, t_max=t_max, dt=0.01, record_every=record_every,
                         boundary_tol=tol)
    assert str(err.value) == message
