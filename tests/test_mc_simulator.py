import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitenoise_transport import (BoxSizeError, ColoredKernel, FieldGrid, GaussianCorrelation,
                                  GaussianPureState, InputError, ModelParams, Space, StabilityError,
                                  kernel_hat, msd_closed_form, point_state,
                                  run_classical, run_continuum, run_lattice)
from whitenoise_transport import mc_simulator, noise_field
from whitenoise_transport.core_model import _record_steps
from whitenoise_transport.mc_simulator import (SCHEME_ITO_EULER, SCHEME_STRATONOVICH,
                                               _corner_kick_factor, _Observables,
                                               _potential_phase, colored_noise_convergence_study)
from whitenoise_transport.noise_field import spectral_amplitude
from whitenoise_transport.rng import KIND_CLASSICAL, TRAJ_GROUP, stream

from conftest import ols_line

P = ModelParams()
P_FREE = ModelParams(v0=0.0)
P_LAT = ModelParams(space=Space.LATTICE)
CORR = GaussianCorrelation([[1.0]])
SHARP = GaussianCorrelation([[40.0]])


def _packet(grid, sigma=1.0):
    """The unit-norm Gaussian start on ``grid``."""
    return GaussianPureState(sigma, dim=grid.dim).wavefunction(grid)


@pytest.fixture(scope="module")
def small_grid():
    return FieldGrid.continuum(1, 512, 120.0)


@pytest.fixture(scope="module")
def packet(small_grid):
    return _packet(small_grid)


class TestContinuum:
    def test_free_spreading_is_exact(self, small_grid, packet):
        res = run_continuum(small_grid, packet, CORR, P_FREE, t_max=5.0, dt=0.01, n_traj=2,
                            seed=1, record_every=50)
        exact = 1 + res.times**2 / 4  # d sigma^2 + d (hbar t / 2 m sigma)^2
        np.testing.assert_allclose(res.msd_mean, exact, rtol=1e-6)

    def test_norm_conserved_over_many_steps(self):
        grid = FieldGrid.continuum(1, 128, 40.0)
        psi = _packet(grid)
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

        monkeypatch.setattr(noise_field, "_filter_white_batch", counted)
        n_steps, batch_size, n_traj = 8, 4, 10
        run_continuum(small_grid, packet, CORR, P, t_max=n_steps * 0.0125, dt=0.0125,
                      n_traj=n_traj, seed=3, record_every=4, threads=1, batch_size=batch_size,
                      colored=ColoredKernel(0.05))
        n_batches = -(-n_traj // batch_size)
        assert len(calls) == n_batches * (n_steps + 1)

    def test_white_batch_step_draws_two_normals_per_nonzero_half_mode(self, small_grid, packet,
                                                                       monkeypatch):
        drawn = []

        def counted(*args, _normals=noise_field.normals):
            out = _normals(*args)
            drawn.append(out.shape)
            return out

        monkeypatch.setattr(noise_field, "normals", counted)
        n = small_grid.points_per_side
        n_modes = np.count_nonzero(spectral_amplitude(small_grid, CORR, P)[: n // 2 + 1])
        assert n_modes < n // 2 + 1
        kw = dict(t_max=5 * 0.01, dt=0.01, n_traj=10, seed=3, record_every=5, threads=1, batch_size=4)
        run_continuum(small_grid, packet, CORR, P, **kw)
        assert drawn == [(4, 2 * n_modes)] * 10 + [(2, 2 * n_modes)] * 5   # batches 4, 4, 2; 5 steps
        # no disorder: nothing to draw
        drawn.clear()
        run_continuum(small_grid, packet, CORR, P_FREE, **kw)
        assert drawn == []

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
        psi = _packet(grid)
        with pytest.raises(BoxSizeError, match=r"of trajectory 0 at t=0\.75 exceeds mc\.boundary_tol"
                                               r"=1\.0e-06; enlarge the box \(grid\.length\)"):
            run_continuum(grid, psi, CORR, P, t_max=6.0, dt=0.01, n_traj=2, seed=2,
                          record_every=25, boundary_tol=1e-6)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-6])
    def test_nan_or_negative_boundary_tol_rejected(self, tol):
        # x > nan is always False: a NaN tolerance would turn the monitor off
        grid = FieldGrid.continuum(1, 64, 16.0)
        with pytest.raises(InputError, match="boundary_tol must be nonnegative"):
            run_continuum(grid, _packet(grid), CORR, P, t_max=3.0, dt=0.05,
                          n_traj=4, seed=1, boundary_tol=tol, threads=1, batch_size=4)

    def test_kspace_edge_mass_grows_on_a_coarse_grid(self):
        # momenta kicked towards the Nyquist wavenumber alias on a coarse grid
        kw = dict(t_max=2.0, dt=0.01, n_traj=4, seed=3, boundary_tol=1e-2, threads=1)
        edge = {}
        for n in (64, 128):
            grid = FieldGrid.continuum(1, n, 32.0)
            edge[n] = run_continuum(grid, _packet(grid), CORR, P, **kw).kspace_edge_max
        assert edge[64] > 10.0 * edge[128]

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

    def test_ito_control_bit_reproducible_across_batches(self, small_grid, packet):
        # a 40 x 512 batch is above NumPy's 256 KiB temporary-elision size and
        # an 8 x 512 one below it; complex products round by operand order
        kw = dict(t_max=0.2, dt=0.0125, n_traj=40, seed=7, record_every=4, boundary_tol=1.0,
                  threads=1, scheme=SCHEME_ITO_EULER)
        a = run_continuum(small_grid, packet, CORR, P, batch_size=40, **kw)
        b = run_continuum(small_grid, packet, CORR, P, batch_size=8, **kw)
        np.testing.assert_array_equal(a.per_traj_msd, b.per_traj_msd)


class TestKspaceEdge:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_plane_wave_near_nyquist_and_gaussian_at_rest(self, dim):
        grid = FieldGrid.continuum(dim, 32, 16.0)
        obs = _Observables(grid, P, 1, 1)
        axes = tuple(range(1, dim + 1))
        x = grid.axis_coords()
        # along the last axis, mode 15 of spacing 2 pi / L, one below the Nyquist mode 16
        wave = np.broadcast_to(np.exp(1j * 2 * np.pi * 15 / 16.0 * x), grid.shape)
        for psi, expected in ((wave, 1.0), (_packet(grid), 0.0)):
            psi = psi[None].astype(complex)
            obs.measure(slice(0, 1), 0, psi, np.fft.fftn(psi, axes=axes))
            assert obs.kedge[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_lattice_has_none(self):
        grid = FieldGrid.lattice(1, 64)
        assert _Observables(grid, P_LAT, 1, 1).kedge is None
        res = run_lattice(grid, point_state(grid), SHARP, P_LAT, t_max=0.1, dt=0.01, n_traj=2,
                          seed=1, threads=1)
        assert res.kspace_edge_max is None


class TestPotentialPhase:
    EDGES = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 1e-300, 1e3, -1e3]

    @pytest.mark.parametrize("hbar", [1.0, 0.37, 2.5])
    def test_matches_complex_exponential(self, hbar):
        dw = np.random.default_rng(5).normal(scale=4.0, size=(3, 257))
        dw[0, :len(self.EDGES)] = self.EDGES
        out = np.empty(dw.shape, dtype=complex)
        assert _potential_phase(dw.copy(), hbar, out) is out
        np.testing.assert_allclose(out, np.exp(-1j * dw / hbar), rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.abs(out), 1.0, rtol=0, atol=1e-15)

    def test_tiny_increment_keeps_its_first_order_term(self):
        out = np.empty(2, dtype=complex)
        _potential_phase(np.array([1e-300, -1e-300]), 1.0, out)
        assert out.real.tolist() == [1.0, 1.0]
        assert out.imag.tolist() == [-1e-300, 1e-300]

    def test_nan_gives_nan(self):
        out = np.empty(2, dtype=complex)
        _potential_phase(np.array([np.nan, 0.5]), 1.0, out)
        assert np.isnan(out.real[0]) and np.isnan(out.imag[0])
        assert np.isfinite(out[1])


def _measure_by_the_formulas(obs, psi, psi_k, axes, space):
    """``_Observables.measure`` written out with a temporary per product."""
    density = np.abs(psi) ** 2
    norm = np.sum(density, axis=axes) * obs.w
    msd = np.sum(density * obs.r2, axis=axes) * obs.w
    dens_k = np.abs(psi_k) ** 2
    total_k = np.sum(dens_k, axis=axes)
    energy = np.sum(dens_k * obs.h0, axis=axes) / total_k
    boundary = np.sum(density * obs.edge_mask, axis=axes) * obs.w / norm
    kedge = None
    if obs.kedge_idx is not None:
        kedge = dens_k.reshape(len(dens_k), -1)[:, obs.kedge_idx].sum(axis=1) / total_k
    probes = None
    if obs.probes is not None:
        # K(0, 0, 0) is 2^d Tr rho0 on the continuum and Tr rho0 on the lattice
        volume = 2.0**obs.grid.dim if space is Space.CONTINUUM else 1.0
        probes = np.stack([np.sum(density * wv, axis=axes) * obs.w for wv in obs.probe_waves],
                          axis=1) * volume
    return norm, msd, energy, boundary, kedge, probes


class TestObservables:
    @pytest.mark.parametrize("grid, params, probe_k", [
        (FieldGrid.continuum(1, 64, 16.0), P, [[0.2], [0.7]]),
        (FieldGrid.continuum(2, 16, 8.0), ModelParams(dim=2, mass=1.3), [[0.2, -0.1]]),
        (FieldGrid.lattice(1, 64), P_LAT, [[0.3]]),
    ])
    def test_in_place_measure_is_bit_identical_to_the_formulas(self, grid, params, probe_k):
        obs = _Observables(grid, params, 7, 3, probe_k=probe_k)
        axes = tuple(range(1, grid.dim + 1))
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(5,) + grid.shape) + 1j * rng.normal(size=(5,) + grid.shape)
        psi_k = np.fft.fftn(psi, axes=axes)
        obs.measure(slice(2, 7), 1, psi, psi_k)
        got = (obs.norm, obs.msd, obs.energy, obs.boundary, obs.kedge, obs.probes)
        want = _measure_by_the_formulas(obs, psi, psi_k, axes, params.space)
        assert (got[4] is None) == (params.space is Space.LATTICE)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                np.testing.assert_array_equal(g[2:7, ..., 1], w)   # rows 2..6 at record 1


def _batch_peak_in_wavefunctions(grid, psi0, corr, params, scheme, batch=32):
    """Traced peak of one ``_simulate_batch`` on this thread, in units of
    the batch's wavefunction array (batch * sites * 16 B)."""
    dt, n_steps = 0.01, 6
    record_steps = _record_steps(n_steps, 3)
    amplitude = spectral_amplitude(grid, corr, params)
    obs = _Observables(grid, params, batch, record_steps.size)
    half = np.exp(-1j * obs.h0 * dt / (2.0 * params.hbar))

    def run():
        mc_simulator._simulate_batch(list(range(batch)), obs, psi0, half, half * half, dt, n_steps,
                                     record_steps, seed=1, amplitude=amplitude, params=params,
                                     scheme=scheme, boundary_tol=1.0)

    run()   # NumPy's FFT plan cache fills on the first call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (batch * psi0.size * 16)


@pytest.mark.parametrize("space, scheme", [(Space.CONTINUUM, SCHEME_STRATONOVICH),
                                           (Space.CONTINUUM, SCHEME_ITO_EULER),
                                           (Space.LATTICE, SCHEME_STRATONOVICH)])
def test_batch_peaks_at_most_3_6_wavefunction_arrays(space, scheme):
    # psi, the step's potential factor and increment, or during a record
    # psi_hat, the half-step product and its inverse transform
    if space is Space.LATTICE:
        grid = FieldGrid.lattice(1, 1024)
        peak = _batch_peak_in_wavefunctions(grid, point_state(grid), SHARP, P_LAT, scheme)
    else:
        grid = FieldGrid.continuum(1, 1024, 192.0)
        peak = _batch_peak_in_wavefunctions(grid, _packet(grid), CORR, P, scheme)
    assert peak <= 3.6


def _block_split_case(case):
    """(ensemble call taking batch_size and threads, n_traj, sites) of a grid
    whose block rows are fewer than n_traj, so one batch runs as blocks."""
    if case == "lattice-4096":
        grid = FieldGrid.lattice(1, 4096)
        psi, n_traj = point_state(grid), 30

        def run(**kw):
            return run_lattice(grid, psi, SHARP, P_LAT, t_max=0.15, dt=0.05, n_traj=n_traj, seed=43,
                               record_every=2, boundary_tol=1.0, probe_k=[[0.3]], **kw)
        return run, n_traj, grid.points_per_side
    extra, params, corr, dt = {}, P, CORR, 0.01
    if case == "white-64x64":
        grid, n_traj = FieldGrid.continuum(2, 64, 32.0), 30
        params, corr = ModelParams(dim=2), GaussianCorrelation(np.eye(2))
    elif case == "colored-512":
        grid, n_traj, dt = FieldGrid.continuum(1, 512, 120.0), 130, 0.0125
        extra = {"colored": ColoredKernel(0.1)}     # q = 8
    else:
        grid, n_traj = FieldGrid.continuum(1, 1024, 192.0), 130
        extra = {"probe_k": [[0.2]]}
        if case == "ito-1024":
            extra["scheme"] = SCHEME_ITO_EULER
    psi = _packet(grid)

    def run(**kw):
        return run_continuum(grid, psi, corr, params, t_max=3 * dt, dt=dt, n_traj=n_traj, seed=47,
                             record_every=2, boundary_tol=1.0, **extra, **kw)
    return run, n_traj, psi.size


@pytest.mark.parametrize("case", ["white-1024", "ito-1024", "colored-512", "lattice-4096",
                                  "white-64x64"])
def test_blocks_that_split_a_batch_keep_every_bit(case, monkeypatch):
    run, n_traj, sites = _block_split_case(case)
    rows = mc_simulator._block_rows(sites)
    assert rows < n_traj
    blocks = []

    def caught(trajs, obs, *args, _simulate=mc_simulator._simulate_batch, **kwargs):
        _simulate(trajs, obs, *args, **kwargs)
        blocks.append((trajs[0], len(trajs), obs))

    monkeypatch.setattr(mc_simulator, "_simulate_batch", caught)

    def arrays(batch_size, threads):
        blocks.clear()
        res = run(batch_size=batch_size, threads=threads)
        blocks.sort(key=lambda b: b[0])
        lengths = [size for _, size, _ in blocks]
        assert sum(lengths) == n_traj and max(lengths) <= rows
        # every block filled its own rows of the ensemble's one set of tables
        obs = blocks[0][2]
        assert all(b[2] is obs for b in blocks)
        assert [b[0] for b in blocks] == list(np.cumsum([0] + lengths[:-1]))
        per_traj = [obs.msd, obs.energy]
        if res.kernel_probe_mean is not None:
            per_traj.append(obs.probes)
        return per_traj + [res.per_traj_msd, res.msd_mean, res.msd_stderr, res.energy_mean,
                           res.kernel_probe_mean, res.kernel_probe_stderr, res.norm_drift_max,
                           res.boundary_mass_max, res.kspace_edge_max], len(blocks)

    want, n_blocks = arrays(n_traj, 1)
    assert n_blocks > 1   # the one batch ran as blocks
    for batch_size in (10, 250, n_traj):
        for threads in (1, 2):
            got, _ = arrays(batch_size, threads)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("grid, dt, colored", [
    (FieldGrid.continuum(1, 1024, 192.0), 0.01, None),
    (FieldGrid.continuum(1, 512, 120.0), 0.0125, ColoredKernel(0.2)),    # q = 16
])
def test_ensemble_peak_follows_the_block_not_the_batch(grid, dt, colored):
    psi = _packet(grid)
    rows = mc_simulator._block_rows(psi.size)

    def run(batch_size):
        run_continuum(grid, psi, CORR, P, t_max=3 * dt, dt=dt, n_traj=250, seed=53, record_every=2,
                      boundary_tol=1.0, threads=1, batch_size=batch_size, colored=colored)

    def peak(batch_size):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(batch_size)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    run(rows)   # NumPy's FFT plan cache fills on the first call
    assert rows < 250
    assert peak(250) <= 1.15 * peak(rows)


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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_kernel_probe_at_k0_is_the_trace(self, dim):
        # on the lattice K(0, 0, t) = Tr rho(t): the sum over X carries no 2^d
        grid = FieldGrid.lattice(dim, 32)
        params = ModelParams(dim=dim, space=Space.LATTICE)
        res = run_lattice(grid, point_state(grid), GaussianCorrelation(40.0 * np.eye(dim)), params,
                          t_max=1.0, dt=0.05, n_traj=3, seed=5, record_every=5, probe_k=[[0.0] * dim])
        np.testing.assert_allclose(res.kernel_probe_mean[0], 1.0, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), space=st.sampled_from(list(Space)), log2_n=st.integers(3, 6),
       spacing=st.floats(0.25, 1.0), width=st.floats(0.02, 0.1), sigma=st.floats(0.02, 0.2),
       dt=st.floats(1e-3, 0.1), n_steps=st.integers(1, 40), v0=st.floats(0.0, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_stratonovich_norm_is_conserved(dim, space, log2_n, spacing, width, sigma, dt, n_steps,
                                        v0, seed):
    # the split-step scheme is unitary: every potential phase and kinetic
    # multiplier has modulus one; width and sigma are fractions of the box,
    # and a correlation below a tenth of it keeps the sampled spectrum positive
    n = 2**log2_n
    if space is Space.LATTICE:
        grid, drive = FieldGrid.lattice(dim, n), run_lattice
        psi = point_state(grid)
    else:
        grid, drive = FieldGrid.continuum(dim, n, n * spacing), run_continuum
        psi = _packet(grid, sigma * grid.side_length)
    corr = GaussianCorrelation(np.eye(dim) / (width * grid.side_length) ** 2)
    res = drive(grid, psi, corr, ModelParams(v0=v0, dim=dim, space=space), t_max=n_steps * dt,
                dt=dt, n_traj=2, seed=seed, record_every=max(1, n_steps // 4), boundary_tol=1.0,
                threads=1)
    assert res.norm_drift_max <= 1e-10


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
    psi = _packet(grid)
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
        run_classical(CORR, P, [np.nan], t_max=0.1, dt=0.01, n_traj=2, seed=1, record_every=5)


def test_dimension_mismatch_raises_input_error(small_grid, packet):
    kw = dict(t_max=0.1, dt=0.01, n_traj=2, seed=1)
    with pytest.raises(InputError, match="correlation has dim 2, grid has dim 1"):
        run_continuum(small_grid, packet, GaussianCorrelation(np.eye(2)), P, **kw)
    with pytest.raises(InputError, match="correlation has dim 1, grid has dim 2"):
        run_classical(CORR, ModelParams(dim=2), [0.0, 0.0], **kw)
    # the quantum drivers used to run a 1-D grid under a 3-D or 2-D model
    with pytest.raises(InputError, match="model has dim 3, grid has dim 1"):
        run_continuum(FieldGrid.continuum(1, 64, 16.0), packet[::8], CORR, ModelParams(dim=3), **kw)
    lattice = FieldGrid.lattice(1, 64)
    with pytest.raises(InputError, match="model has dim 2, grid has dim 1"):
        run_lattice(lattice, point_state(lattice), CORR, ModelParams(space=Space.LATTICE, dim=2), **kw)
    with pytest.raises(InputError, match="model has dim 1, grid has dim 2"):
        run_classical(CORR, P, [0.0], grid=FieldGrid.continuum(2, 16, 8.0), **kw)
    with pytest.raises(InputError, match="model has dim 2, grid has dim 1"):
        run_classical(GaussianCorrelation(np.eye(2)), ModelParams(dim=2), [0.0, 0.0],
                      grid=FieldGrid.continuum(1, 16, 8.0), **kw)


def _no_batch(*args, **kwargs):
    raise AssertionError("a batch ran")


def test_psi0_of_another_shape_refused_before_any_batch(small_grid, packet, monkeypatch):
    monkeypatch.setattr(mc_simulator, "_simulate_batch", _no_batch)
    kw = dict(t_max=0.1, dt=0.01, n_traj=2, seed=1, threads=1)
    with pytest.raises(InputError, match=r"psi0 has shape \(256,\), grid has shape \(512,\)"):
        run_continuum(small_grid, packet[::2], CORR, P, **kw)
    lattice = FieldGrid.lattice(1, 64)
    with pytest.raises(InputError, match=r"psi0 has shape \(1, 64\), grid has shape \(64,\)"):
        run_lattice(lattice, point_state(lattice)[None], SHARP, P_LAT, **kw)


def test_unknown_scheme_refused_before_any_batch(small_grid, packet, monkeypatch):
    monkeypatch.setattr(mc_simulator, "_simulate_batch", _no_batch)
    with pytest.raises(InputError, match="unknown scheme 'milstein'"):
        run_continuum(small_grid, packet, CORR, P, t_max=0.1, dt=0.01, n_traj=2, seed=1, threads=1,
                      scheme="milstein")


def test_wavepacket_needs_one_sigma_or_one_per_axis():
    grid = FieldGrid.continuum(2, 16, 8.0)
    with pytest.raises(InputError, match="initial state has dim 3, grid has dim 2"):
        GaussianPureState([1.0, 1.0, 1.0]).wavefunction(grid)
    np.testing.assert_array_equal(GaussianPureState([0.8, 0.8]).wavefunction(grid),
                                  GaussianPureState(0.8, dim=2).wavefunction(grid))


@pytest.mark.parametrize("dim, points, length, sigma, trace", [
    (1, 256, 60.0, 1.0, 1.0), (1, 128, 40.0, 0.7, 2.0), (2, 32, 16.0, [0.8, 1.3], 0.9)])
def test_wavefunction_is_the_scaled_unit_gaussian_bit_for_bit(dim, points, length, sigma, trace):
    # the formula the Monte Carlo psi0 has always had, written out
    grid = FieldGrid.continuum(dim, points, length)
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (dim,))
    axes = np.meshgrid(*[grid.axis_coords()] * dim, indexing="ij")
    psi = np.exp(-sum(a**2 / (4.0 * s**2) for a, s in zip(axes, sig))).astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.spacing**dim))
    got = GaussianPureState(sigma, dim=dim, trace=trace).wavefunction(grid)
    np.testing.assert_array_equal(got, psi * math.sqrt(trace))
    assert np.sum(np.abs(got) ** 2) * grid.spacing**dim == pytest.approx(trace, rel=1e-14)
    with pytest.raises(InputError, match=f"initial state has dim {dim}, grid has dim {3 - dim}"):
        GaussianPureState(sigma, dim=dim).wavefunction(FieldGrid.continuum(3 - dim, 16, 8.0))


class TestClassical:
    def test_free_particle_exact(self):
        res = run_classical(CORR, P_FREE, [0.7], t_max=5.0, dt=0.05, n_traj=3, seed=1,
                            record_every=20)
        np.testing.assert_allclose(res.msd_mean, (0.7 * res.times) ** 2, atol=1e-24)
        np.testing.assert_allclose(res.vvar_mean, 0.49 * np.ones_like(res.times))

    def test_velocity_variance_grows_at_field_curvature_rate(self):
        # slope oracle: -v0^2 (lap g)(0) / m^2 = 2 for these parameters
        res = run_classical(CORR, P, [0.0], t_max=5.0, dt=0.01, n_traj=400, seed=21,
                            record_every=50)
        slope, _, r2 = ols_line(res.times, res.vvar_mean)
        assert slope == pytest.approx(2.0, rel=0.2)
        assert r2 > 0.98

    def test_superballistic_displacement(self):
        res = run_classical(CORR, P, [0.0], t_max=8.0, dt=0.01, n_traj=300, seed=23,
                            record_every=80)
        from whitenoise_transport import fit_power_law

        mask = res.times >= 2.0
        fit = fit_power_law(res.times[mask], res.msd_mean[mask])
        assert 2.8 <= fit.exponent <= 3.2

    def test_bit_reproducible_across_thread_counts_and_batches(self):
        kw = dict(t_max=0.2, dt=0.01, n_traj=30, seed=31, record_every=5)
        a = run_classical(CORR, P, [0.0], threads=1, batch_size=500, **kw)
        b = run_classical(CORR, P, [0.0], threads=2, batch_size=7, **kw)
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
    sites = grid.points_per_side**d
    units = np.eye(sites).reshape((sites,) + grid.shape)
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
        res = run_classical(corr, free, v, t_max=1.0, dt=0.05, n_traj=3, seed=1, grid=grid,
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
        res = run_classical(CORR, P, [0.3], t_max=n_steps * dt, dt=dt, n_traj=3, seed=seed,
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
        lambda: run_classical(CORR, P, [0.0], **kw),
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
        lambda: run_classical(CORR, P, [0.0], **kw),
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
        lambda: run_classical(CORR, P, [0.0], **kw),
    ]
    for call in calls:
        with pytest.raises(InputError, match="not a whole number of steps"):
            call()


def test_colored_study_smoke(small_grid, packet):
    # per-trajectory deviations are skewed, so the smoke run needs a
    # moderate ensemble for the z-statistics to mean anything
    rows = colored_noise_convergence_study(
        [0.4, 0.2], small_grid, GaussianPureState(1.0, dim=1), CORR, P,
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
    psi = _packet(grid)
    res = run_continuum(grid, psi, CORR, p, t_max=3.0, dt=0.01, n_traj=2, seed=1,
                        record_every=50)
    exact = 1 + (2.0 * res.times / (2 * 0.5)) ** 2
    np.testing.assert_allclose(res.msd_mean, exact, rtol=1e-8)
