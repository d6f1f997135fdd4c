import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitenoise_transport import (BoxSizeError, ColoredKernel, FieldGrid, GaussianCorrelation,
                                  GaussianPureState, InputError, ModelParams, Space, StabilityError,
                                  gaussian_wavepacket, kernel_hat, msd_closed_form, point_state,
                                  run_classical, run_continuum, run_lattice)
from whitenoise_transport import mc_simulator, noise_field
from whitenoise_transport.mc_simulator import (SCHEME_ITO_EULER, _corner_kick_factor,
                                               colored_noise_convergence_study)
from whitenoise_transport.noise_field import spectral_amplitude
from whitenoise_transport.rng import KIND_CLASSICAL, TRAJ_GROUP, stream

from conftest import ols_line

P = ModelParams()
P_FREE = ModelParams(v0=0.0)
P_LAT = ModelParams(space=Space.LATTICE)
CORR = GaussianCorrelation([[1.0]])
SHARP = GaussianCorrelation([[40.0]])


@pytest.fixture(scope="module")
def small_grid():
    return FieldGrid.continuum(1, 512, 120.0)


@pytest.fixture(scope="module")
def packet(small_grid):
    return gaussian_wavepacket(small_grid, 1.0)


class TestContinuum:
    def test_free_spreading_is_exact(self, small_grid, packet):
        res = run_continuum(small_grid, packet, CORR, P_FREE, t_max=5.0, dt=0.01, n_traj=2,
                            seed=1, record_every=50)
        exact = 1 + res.times**2 / 4  # d sigma^2 + d (hbar t / 2 m sigma)^2
        np.testing.assert_allclose(res.msd_mean, exact, rtol=1e-6)

    def test_norm_conserved_over_many_steps(self):
        grid = FieldGrid.continuum(1, 128, 40.0)
        psi = gaussian_wavepacket(grid, 1.0)
        res = run_continuum(grid, psi, CORR, P, t_max=2.0, dt=2e-4, n_traj=1, seed=3,
                            record_every=1000, boundary_tol=1e-3)
        assert res.norm_drift_max < 1e-10  # 10^4 unitary steps

    def test_matches_closed_form_within_errors(self, small_grid, packet):
        res = run_continuum(small_grid, packet, CORR, P, t_max=4.0, dt=0.01, n_traj=200,
                            seed=7, record_every=40, boundary_tol=1e-3)
        cf = msd_closed_form(res.times, GaussianPureState(1.0, dim=1), CORR, P).msd
        mask = res.times > 0
        z = (res.msd_mean[mask] - cf[mask]) / res.msd_stderr[mask]
        assert np.max(np.abs(z)) < 3.5

    def test_ensemble_kernel_probe_matches_closed_form(self, small_grid, packet):
        k, t = 0.2, 0.5
        res = run_continuum(small_grid, packet, CORR, P, t_max=t, dt=0.005, n_traj=400,
                            seed=11, record_every=100, probe_k=[[k]])
        pred = kernel_hat([k], [0.0], t, GaussianPureState(1.0, dim=1), CORR, P)
        est = res.kernel_probe_mean[0, -1]
        se = res.kernel_probe_stderr[0, -1]
        assert abs(est.real - pred.real) < 3 * max(se.real, 1e-12)
        assert abs(est.imag - pred.imag) < 3 * max(se.imag, 1e-12)

    def test_bit_reproducible_across_thread_counts_and_batches(self, small_grid, packet):
        kw = dict(t_max=0.5, dt=0.01, n_traj=24, seed=5, record_every=10)
        a = run_continuum(small_grid, packet, CORR, P, threads=1, batch_size=24, **kw)
        b = run_continuum(small_grid, packet, CORR, P, threads=2, batch_size=6, **kw)
        np.testing.assert_array_equal(a.per_traj_msd, b.per_traj_msd)
        np.testing.assert_array_equal(a.msd_mean, b.msd_mean)

    def test_colored_bit_reproducible_across_thread_counts_and_batches(self, small_grid, packet):
        kw = dict(t_max=0.3, dt=0.0125, n_traj=12, seed=5, record_every=4,
                  colored=ColoredKernel(0.05))
        a = run_continuum(small_grid, packet, CORR, P, threads=1, batch_size=12, **kw)
        b = run_continuum(small_grid, packet, CORR, P, threads=2, batch_size=5, **kw)
        np.testing.assert_array_equal(a.per_traj_msd, b.per_traj_msd)
        np.testing.assert_array_equal(a.msd_mean, b.msd_mean)

    def test_colored_batch_filters_once_per_sample(self, small_grid, packet, monkeypatch):
        # n steps sample the colored potential n + 1 times; the warm-up
        # window is summed raw and costs no filter
        calls = []

        def counted(xi, amplitude, _filter=noise_field._filter_white_batch):
            calls.append(xi.shape[0])
            return _filter(xi, amplitude)

        for module in (noise_field, mc_simulator):
            monkeypatch.setattr(module, "_filter_white_batch", counted)
        n_steps, batch_size, n_traj = 8, 4, 10
        run_continuum(small_grid, packet, CORR, P, t_max=n_steps * 0.0125, dt=0.0125,
                      n_traj=n_traj, seed=3, record_every=4, threads=1, batch_size=batch_size,
                      colored=ColoredKernel(0.05))
        n_batches = -(-n_traj // batch_size)
        assert len(calls) == n_batches * (n_steps + 1)

    @pytest.mark.parametrize("colored", [None, ColoredKernel(0.05)])
    def test_evolution_does_not_depend_on_record_steps(self, small_grid, packet, colored):
        kw = dict(t_max=0.25, dt=0.0125, n_traj=3, seed=8, colored=colored)
        every = run_continuum(small_grid, packet, CORR, P, record_every=1, **kw)
        ends = run_continuum(small_grid, packet, CORR, P, record_every=20, **kw)
        assert every.times.size == 21 and ends.times.size == 2
        np.testing.assert_array_equal(every.per_traj_msd[:, -1], ends.per_traj_msd[:, -1])
        np.testing.assert_array_equal(every.per_traj_msd[:, 0], ends.per_traj_msd[:, 0])

    def test_transforms_take_no_out_argument(self, small_grid, packet, monkeypatch):
        # NumPy's FFT functions accept `out` only from 2.0 on; the package
        # supports NumPy 1.24
        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            def strict(*args, _fft=getattr(np.fft, name), **kwargs):
                if "out" in kwargs:
                    raise TypeError("unexpected keyword argument 'out'")
                return _fft(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, strict)
        kw = dict(t_max=0.05, dt=0.01, n_traj=3, seed=1, record_every=2)
        run_continuum(small_grid, packet, CORR, P, **kw)
        run_continuum(small_grid, packet, CORR, P, colored=ColoredKernel(0.05), **kw)
        grid = FieldGrid.lattice(1, 16)
        run_lattice(grid, point_state(grid), SHARP, P_LAT, boundary_tol=1.0, **kw)

    def test_stderr_scaling_with_ensemble_size(self, small_grid, packet):
        kw = dict(t_max=1.0, dt=0.02, record_every=25)
        small = run_continuum(small_grid, packet, CORR, P, n_traj=60, seed=9, **kw)
        big = run_continuum(small_grid, packet, CORR, P, n_traj=240, seed=9, **kw)
        ratio = small.msd_stderr[-1] / big.msd_stderr[-1]
        assert 1.6 <= ratio <= 2.4  # quadrupling n halves the error (+-20%)

    def test_boundary_abort(self):
        grid = FieldGrid.continuum(1, 128, 12.0)  # box far too small
        psi = gaussian_wavepacket(grid, 1.0)
        with pytest.raises(BoxSizeError, match=r"of trajectory 1 at t=1 exceeds mc\.boundary_tol"
                                               r"=1\.0e-06; enlarge the box \(grid\.length\)"):
            run_continuum(grid, psi, CORR, P, t_max=6.0, dt=0.01, n_traj=2, seed=2,
                          record_every=25, boundary_tol=1e-6)

    def test_ito_control_violates_trace_and_msd(self, small_grid, packet):
        res = run_continuum(small_grid, packet, CORR, P, t_max=2.0, dt=0.01, n_traj=100,
                            seed=13, record_every=50, boundary_tol=1e-3,
                            scheme=SCHEME_ITO_EULER)
        assert res.norm_drift_max > 1.0  # trace blows up like exp((v0/hbar)^2 g0 t)
        cf = msd_closed_form(res.times, GaussianPureState(1.0, dim=1), CORR, P).msd
        mask = res.times >= 1.0
        dev = np.mean((res.per_traj_msd[:, mask] - cf[mask]) / cf[mask], axis=1)
        z = dev.mean() / (dev.std(ddof=1) / np.sqrt(res.n_traj))
        assert z > 3.0


class TestLattice:
    def test_free_point_state_ballistic(self):
        grid = FieldGrid.lattice(1, 128)
        res = run_lattice(grid, point_state(grid), SHARP, ModelParams(v0=0.0, space=Space.LATTICE),
                          t_max=10.0, dt=0.02, n_traj=2, seed=3, record_every=100)
        mask = res.times > 0
        np.testing.assert_allclose(res.msd_mean[mask], res.times[mask] ** 2 / 2, rtol=1e-10)
        assert res.norm_drift_max < 1e-10

    def test_matches_exact_averaged_law(self):
        # Gamma = 1: disorder-averaged MSD is exp(-t) + t - 1 exactly
        grid = FieldGrid.lattice(1, 256)
        res = run_lattice(grid, point_state(grid), SHARP, P_LAT, t_max=30.0, dt=0.05,
                          n_traj=160, seed=17, record_every=40)
        exact = np.exp(-res.times) + res.times - 1
        mask = res.times >= 1.0
        z = (res.msd_mean[mask] - exact[mask]) / res.msd_stderr[mask]
        assert np.max(np.abs(z)) < 3.5

    def test_bit_reproducible_across_thread_counts_and_batches(self):
        grid = FieldGrid.lattice(1, 128)
        kw = dict(t_max=2.0, dt=0.05, n_traj=20, seed=29, record_every=4)
        a = run_lattice(grid, point_state(grid), SHARP, P_LAT, threads=1, batch_size=20, **kw)
        b = run_lattice(grid, point_state(grid), SHARP, P_LAT, threads=2, batch_size=3, **kw)
        np.testing.assert_array_equal(a.per_traj_msd, b.per_traj_msd)
        np.testing.assert_array_equal(a.msd_mean, b.msd_mean)


@settings(max_examples=25, deadline=None)
@given(n_traj=st.integers(1, 23), batch_size=st.integers(1, 25), threads=st.sampled_from([1, 2]))
def test_lattice_any_batch_split_matches_one_batch(n_traj, batch_size, threads):
    grid = FieldGrid.lattice(1, 16)
    kw = dict(t_max=0.5, dt=0.05, seed=37, record_every=5, boundary_tol=1.0)
    a = run_lattice(grid, point_state(grid), SHARP, P_LAT, n_traj=n_traj, threads=threads,
                    batch_size=batch_size, **kw)
    b = run_lattice(grid, point_state(grid), SHARP, P_LAT, n_traj=n_traj, threads=1,
                    batch_size=n_traj, **kw)
    np.testing.assert_array_equal(a.per_traj_msd, b.per_traj_msd)


@settings(max_examples=15, deadline=None)
@given(n_traj=st.integers(1, 23), batch_size=st.integers(1, 25), threads=st.sampled_from([1, 2]))
def test_colored_any_batch_split_matches_one_batch(n_traj, batch_size, threads):
    grid = FieldGrid.continuum(1, 64, 32.0)
    psi = gaussian_wavepacket(grid, 1.0)
    kw = dict(t_max=0.1, dt=0.0125, seed=41, record_every=4, boundary_tol=1.0,
              colored=ColoredKernel(0.05))
    a = run_continuum(grid, psi, CORR, P, n_traj=n_traj, threads=threads, batch_size=batch_size, **kw)
    b = run_continuum(grid, psi, CORR, P, n_traj=n_traj, threads=1, batch_size=n_traj, **kw)
    np.testing.assert_array_equal(a.per_traj_msd, b.per_traj_msd)


def test_nan_errors_name_trajectory_time_and_key(small_grid, packet):
    bad = packet.copy()
    bad[0] = np.nan
    with pytest.raises(StabilityError, match=r"trajectory 0 at t=0; .* reduce time\.dt \(now 0\.01\)"):
        run_continuum(small_grid, bad, CORR, P, t_max=0.1, dt=0.01, n_traj=2, seed=1)
    with pytest.raises(StabilityError, match=r"classical trajectory 0 at t=0\.05; reduce time\.dt"):
        run_classical(1, CORR, P, [np.nan], t_max=0.1, dt=0.01, n_traj=2, seed=1, record_every=5)


def test_dimension_mismatch_raises_input_error(small_grid, packet):
    kw = dict(t_max=0.1, dt=0.01, n_traj=2, seed=1)
    with pytest.raises(InputError, match="correlation has dim 2, grid has dim 1"):
        run_continuum(small_grid, packet, GaussianCorrelation(np.eye(2)), P, **kw)
    with pytest.raises(InputError, match="correlation has dim 1, grid has dim 2"):
        run_classical(2, CORR, P, [0.0, 0.0], **kw)
    with pytest.raises(InputError, match="run_classical has dim 1, grid has dim 2"):
        run_classical(1, CORR, P, [0.0], grid=FieldGrid.continuum(2, 16, 8.0), **kw)


class TestClassical:
    def test_free_particle_exact(self):
        res = run_classical(1, CORR, P_FREE, [0.7], t_max=5.0, dt=0.05, n_traj=3, seed=1,
                            record_every=20)
        np.testing.assert_allclose(res.msd_mean, (0.7 * res.times) ** 2, atol=1e-24)
        np.testing.assert_allclose(res.vvar_mean, 0.49 * np.ones_like(res.times))

    def test_velocity_variance_grows_at_field_curvature_rate(self):
        # slope oracle: -v0^2 (lap g)(0) / m^2 = 2 for these parameters
        res = run_classical(1, CORR, P, [0.0], t_max=5.0, dt=0.01, n_traj=400, seed=21,
                            record_every=50)
        slope, _, r2 = ols_line(res.times, res.vvar_mean)
        assert slope == pytest.approx(2.0, rel=0.2)
        assert r2 > 0.98

    def test_superballistic_displacement(self):
        res = run_classical(1, CORR, P, [0.0], t_max=8.0, dt=0.01, n_traj=300, seed=23,
                            record_every=80)
        from whitenoise_transport import fit_power_law

        mask = res.times >= 2.0
        fit = fit_power_law(res.times[mask], res.msd_mean[mask])
        assert 2.8 <= fit.exponent <= 3.2

    def test_bit_reproducible_across_thread_counts_and_batches(self):
        kw = dict(t_max=0.2, dt=0.01, n_traj=30, seed=31, record_every=5)
        a = run_classical(1, CORR, P, [0.0], threads=1, batch_size=500, **kw)
        b = run_classical(1, CORR, P, [0.0], threads=2, batch_size=7, **kw)
        np.testing.assert_array_equal(a.per_traj_msd, b.per_traj_msd)
        np.testing.assert_array_equal(a.vvar_mean, b.vvar_mean)


def _field_corner_gradients(grid, corr, params, dt, cell):
    """Reference: the linear map from unit white noise to the d 2^d corner
    gradients of ``cell``, through the per-step field pipeline (real FFT,
    multiplier i k * amplitude * sqrt(dt), Nyquist wavenumber zeroed)."""
    d, n = grid.dim, grid.points_per_side
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    freqs[n // 2] = 0.0
    kaxes = np.meshgrid(*[freqs] * (d - 1), freqs[: n // 2 + 1], indexing="ij")
    half_amp = spectral_amplitude(grid, corr, params)[..., : n // 2 + 1]
    axes = tuple(range(1, d + 1))
    units = np.eye(grid.total_sites).reshape((grid.total_sites,) + grid.shape)
    spec = np.fft.rfftn(units, axes=axes)
    grads = [np.fft.irfftn(spec * (1j * k * half_amp * np.sqrt(dt)), s=grid.shape, axes=axes)
             for k in kaxes]
    rows = []
    for a in range(d):
        for c in range(2**d):
            site = tuple((cell[ax] + ((c >> ax) & 1)) % n for ax in range(d))
            rows.append(grads[a][(slice(None),) + site])
    return np.array(rows)


class TestClassicalKick:
    @pytest.mark.parametrize("grid, corr", [
        (FieldGrid.continuum(1, 256, 16.0), CORR),
        (FieldGrid.continuum(2, 32, 16.0), GaussianCorrelation([[2.0, 0.6], [0.6, 1.0]])),
        (FieldGrid.continuum(3, 8, 10.0), GaussianCorrelation(np.diag([1.0, 0.7, 1.3]))),
    ])
    def test_factor_reproduces_field_gradient_covariance(self, grid, corr):
        params = ModelParams(v0=1.3, mass=0.8, dim=grid.dim)
        factor = _corner_kick_factor(grid, corr, params, 0.7)
        for cell in [(0,) * grid.dim, tuple(range(3, 3 + grid.dim)), (grid.points_per_side - 1,) * grid.dim]:
            L = _field_corner_gradients(grid, corr, params, 0.7, cell)
            ref = L @ L.T
            np.testing.assert_allclose(factor @ factor.T, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())

    def test_zero_strength_gives_zero_kicks(self):
        grid = FieldGrid.continuum(2, 64, 16.0)
        corr, free = GaussianCorrelation(np.eye(2)), ModelParams(v0=0.0, dim=2)
        assert not np.any(_corner_kick_factor(grid, corr, free, 0.05))
        v = np.array([0.7, -0.2])
        res = run_classical(2, corr, free, v, t_max=1.0, dt=0.05, n_traj=3, seed=1, grid=grid,
                            record_every=1)
        q, expected = np.zeros(2), [0.0]
        for _ in range(20):
            q = q + v * 0.05
            expected.append(np.sum(q**2))
        for row in res.per_traj_msd:
            np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(res.vvar_mean, np.sum(v**2))

    def test_draws_cross_a_block_boundary(self):
        # 1030 steps: rows 0..1023 of block 0's draw, then rows 0..5 of block 1's,
        # each the trajectory's row of its group's stream
        grid = FieldGrid.continuum(1, 64, 16.0)
        dt, n_steps, seed = 0.001, 1030, 41
        res = run_classical(1, CORR, P, [0.3], t_max=n_steps * dt, dt=dt, n_traj=3, seed=seed,
                            grid=grid, record_every=n_steps, batch_size=2)
        factor = _corner_kick_factor(grid, CORR, P, dt)
        for traj in range(3):
            group, row = divmod(traj, TRAJ_GROUP)
            z = np.concatenate([
                stream(seed, KIND_CLASSICAL, group, 0).standard_normal((TRAJ_GROUP, 1024, 2))[row],
                stream(seed, KIND_CLASSICAL, group, 1).standard_normal((TRAJ_GROUP, 6, 2))[row]])
            q, v = 0.0, 0.3
            for zs in z:
                u = factor @ zs
                frac = q / grid.spacing - np.floor(q / grid.spacing)
                v -= ((1.0 - frac) * u[0] + frac * u[1]) / P.mass
                q += v * dt
            assert res.per_traj_msd[traj, -1] == pytest.approx(q**2, rel=1e-10)


@pytest.mark.parametrize("key", ["batch_size", "record_every", "n_traj"])
def test_zero_counts_raise_input_error(small_grid, packet, key):
    kw = dict(t_max=0.1, dt=0.01, n_traj=2, seed=1, record_every=5, batch_size=2)
    kw[key] = 0
    lattice = FieldGrid.lattice(1, 64)
    calls = [
        lambda: run_continuum(small_grid, packet, CORR, P, **kw),
        lambda: run_lattice(lattice, point_state(lattice), SHARP, P_LAT, **kw),
        lambda: run_classical(1, CORR, P, [0.0], **kw),
    ]
    for call in calls:
        with pytest.raises(InputError, match=key):
            call()


def test_time_step_longer_than_run_raises_input_error(small_grid, packet):
    kw = dict(t_max=0.4, dt=1.0, n_traj=2, seed=1, record_every=1, batch_size=2)
    lattice = FieldGrid.lattice(1, 64)
    calls = [
        lambda: run_continuum(small_grid, packet, CORR, P, **kw),
        lambda: run_lattice(lattice, point_state(lattice), SHARP, P_LAT, **kw),
        lambda: run_classical(1, CORR, P, [0.0], **kw),
    ]
    for call in calls:
        with pytest.raises(InputError, match="t_max must be at least dt"):
            call()


def test_fractional_step_count_raises_input_error(small_grid, packet):
    kw = dict(t_max=0.105, dt=0.01, n_traj=2, seed=1, record_every=1, batch_size=2)
    lattice = FieldGrid.lattice(1, 64)
    calls = [
        lambda: run_continuum(small_grid, packet, CORR, P, **kw),
        lambda: run_lattice(lattice, point_state(lattice), SHARP, P_LAT, **kw),
        lambda: run_classical(1, CORR, P, [0.0], **kw),
    ]
    for call in calls:
        with pytest.raises(InputError, match="not a whole number of steps"):
            call()


def test_colored_study_smoke(small_grid, packet):
    # per-trajectory deviations are skewed, so the smoke run needs a
    # moderate ensemble for the z-statistics to mean anything
    rows = colored_noise_convergence_study(
        [0.4, 0.2], small_grid, packet, GaussianPureState(1.0, dim=1), CORR, P,
        t_max=2.0, dt=0.0125, n_traj=150, seed=77, record_every=20, include_ito=True,
        boundary_tol=1e-3)
    labels = [r.label for r in rows]
    assert labels == ["white", "nu=0.4", "nu=0.2", "ito-control"]
    # strongest coloring deviates the most; the white run has no bias
    assert abs(rows[1].deviation) > abs(rows[2].deviation) - 2 * (rows[1].stderr + rows[2].stderr)
    assert abs(rows[0].z_score) < 3.5
    assert rows[3].z_score > 3.0


def test_free_spreading_with_nonunit_constants():
    p = ModelParams(hbar=2.0, mass=0.5, v0=0.0)
    grid = FieldGrid.continuum(1, 512, 160.0)
    psi = gaussian_wavepacket(grid, 1.0)
    res = run_continuum(grid, psi, CORR, p, t_max=3.0, dt=0.01, n_traj=2, seed=1,
                        record_every=50)
    exact = 1 + (2.0 * res.times / (2 * 0.5)) ** 2
    np.testing.assert_allclose(res.msd_mean, exact, rtol=1e-8)
