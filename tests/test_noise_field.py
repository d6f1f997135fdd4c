import time

import numpy as np
import pytest

from whitenoise_transport import (ColoredKernel, CovarianceError, FieldGrid, GaussianCorrelation,
                                  InputError, ModelParams, ResolutionError, SeedInfo,
                                  TabulatedCorrelation, read_field, rng, sample_colored_path,
                                  sample_white_increment, spectral_amplitude, write_field)
from whitenoise_transport.noise_field import _COLORED_STEP_OFFSET, ColoredStream, _filter_white_batch


@pytest.fixture
def grid():
    return FieldGrid.continuum(1, 256, 25.6)


@pytest.fixture
def amp(grid, gaussian_corr, params):
    return spectral_amplitude(grid, gaussian_corr, params)


def test_grid_invariants():
    g = FieldGrid.continuum(2, 64, 32.0)
    assert g.total_sites == 64**2
    assert g.spacing == 0.5
    assert FieldGrid.lattice(1, 128).spacing == 1.0
    with pytest.raises(InputError, match="points_per_side must be a power of two, got 100"):
        FieldGrid.continuum(1, 100, 10.0)


def test_same_seed_info_is_bit_identical(grid, gaussian_corr, params):
    a = sample_white_increment(grid, gaussian_corr, params, 0.05, SeedInfo(7, 3, 11))
    b = sample_white_increment(grid, gaussian_corr, params, 0.05, SeedInfo(7, 3, 11))
    assert np.array_equal(a.values, b.values)
    c = sample_white_increment(grid, gaussian_corr, params, 0.05, SeedInfo(7, 3, 12))
    assert not np.array_equal(a.values, c.values)


def test_white_increment_mean_and_covariance(grid, gaussian_corr, amp):
    # statistical oracle, seeded: N=10^4 fields
    params = ModelParams(v0=1.3)
    amp13 = spectral_amplitude(grid, gaussian_corr, params)
    dt = 0.05
    N = 10_000
    fields = np.empty((N, 256))
    for i in range(N):
        fields[i] = sample_white_increment(grid, gaussian_corr, params, dt,
                                           SeedInfo(42, 0, i), amplitude=amp13).values
    g0 = float(gaussian_corr.g(np.array(0.0)))
    bound = 4.0 * params.v0 * np.sqrt(g0 * dt / (N * 256))
    assert abs(fields.mean()) < bound

    for lag in (2, 5, 10):
        r = lag * grid.spacing
        emp = float((fields * np.roll(fields, -lag, axis=1)).mean()) / dt
        exact = params.v0**2 * float(gaussian_corr.g(np.array(r)))
        assert abs(emp - exact) / exact < 0.05


def test_field_is_real_up_to_roundoff(grid, gaussian_corr, params, amp):
    xi = rng.stream(1).standard_normal(grid.shape)
    complex_field = np.fft.ifftn(np.fft.fftn(xi) * amp)
    resid = np.linalg.norm(complex_field.imag)
    assert resid < 1e-12 * np.linalg.norm(complex_field.real)


def test_negative_spectrum_raises_covariance_error(params):
    # a hard spatial cutoff is not positive definite on the grid
    xs = np.linspace(-8, 8, 129)
    vals = np.where(np.abs(xs) <= 1.0, 1.0, 0.0)
    table = TabulatedCorrelation(xs, vals)
    grid = FieldGrid.continuum(1, 256, 16.0)
    with pytest.raises(CovarianceError, match=r"negative spectral density .* at mode \("):
        spectral_amplitude(grid, table, params)


def test_dimension_mismatch_raises_input_error(params):
    grid = FieldGrid.continuum(1, 64, 16.0)
    with pytest.raises(InputError, match="correlation has dim 2, grid has dim 1"):
        spectral_amplitude(grid, GaussianCorrelation(np.eye(2)), params)


def test_zero_disorder_gives_zero_field(grid, gaussian_corr):
    params = ModelParams(v0=0.0)
    inc = sample_white_increment(grid, gaussian_corr, params, 0.1, SeedInfo(5))
    assert np.all(inc.values == 0.0)


class TestColoredKernel:
    def test_normalization_and_symmetry(self):
        kern = ColoredKernel(0.4)
        dt = 0.05
        samples = kern.discrete_samples(dt)
        assert abs(float(samples.sum()) * dt - 1.0) < 1e-10
        np.testing.assert_allclose(samples, samples[::-1])

    def test_resolution_errors(self):
        with pytest.raises(ResolutionError, match="nu=0.01 is below the step dt=0.05"):
            ColoredKernel(0.01).width_steps(0.05)
        with pytest.raises(ResolutionError, match="nu=0.07 must be an integer multiple of dt=0.05"):
            ColoredKernel(0.07).width_steps(0.05)


def test_colored_path_covariance(grid, gaussian_corr, amp):
    params = ModelParams()
    dt, nu = 0.05, 0.4
    kern = ColoredKernel(nu)
    M, n_steps = 10_000, 24
    site = 128
    snaps = np.empty((M, n_steps))
    # trajectories 0..M-1 in batches of 250: each row is that trajectory's
    # sample_colored_path (see test_colored_stream_matches_path)
    for lo in range(0, M, 250):
        batch = ColoredStream(grid, gaussian_corr, params, kern, dt, 9, range(lo, lo + 250),
                              amplitude=amp)
        for n in range(n_steps):
            snaps[lo:lo + 250, n] = batch.current()[:, site]
            if n < n_steps - 1:
                batch.advance()
    # variance at coinciding times: v0^2 g(0) h(0) = 1/nu
    v_emp = float(snaps.var(axis=0).mean())
    assert abs(v_emp - 1.0 / nu) / (1.0 / nu) < 0.10
    # support: autocovariance vanishes beyond nu (lag 10 steps > q = 8)
    prod = snaps[:, 0] * snaps[:, 10]
    assert abs(prod.mean()) <= 3.0 * prod.std(ddof=1) / np.sqrt(M)
    # stationary from t = 0
    assert abs(snaps[:, 0].var() - snaps[:, 20].var()) < 0.12 / nu


def test_colored_paths_cauchy_toward_white(grid, gaussian_corr, params, amp):
    # same white-noise source, nu halved: mean-square distance to the
    # white increments (scaled 1/sqrt(dt)-rate) shrinks like 1/dt - 1/nu
    dt = 0.05
    n_steps = 16
    M = 400
    dists = {}
    for nu in (8 * dt, 4 * dt, 2 * dt):
        kern = ColoredKernel(nu)
        total = 0.0
        for i in range(M):
            path = sample_colored_path(grid, gaussian_corr, params, kern, n_steps, dt,
                                       SeedInfo(77, i, 0), amplitude=amp)
            # matching white rate from the same stream: increments at the
            # same absolute indexing used inside the colored construction
            rate = np.empty_like(path)
            for nstep in range(n_steps):
                xi = rng.normals(77, rng.KIND_FIELD_COLORED, [i], nstep - 1 + _COLORED_STEP_OFFSET,
                                 grid.shape)[0]
                rate[nstep] = _filter_white_batch(xi[None], amp)[0] * np.sqrt(dt) / dt
            total += float(np.mean((path - rate) ** 2))
        dists[nu] = total / M
    theory = {nu: (1.0 / dt - 1.0 / nu) for nu in dists}
    assert dists[0.4] > dists[0.2] > dists[0.1]
    for nu, d in dists.items():
        assert abs(d - theory[nu]) / theory[nu] < 0.15


def test_colored_stream_matches_path(grid, gaussian_corr, params, amp):
    dt, nu, n_steps = 0.05, 0.2, 12
    kern = ColoredKernel(nu)
    for trajs in ([0, 1], [248, 249, 250, 251], [17, 3]):
        paths = [sample_colored_path(grid, gaussian_corr, params, kern, n_steps, dt,
                                     SeedInfo(5, traj, 0), amplitude=amp) for traj in trajs]
        stream = ColoredStream(grid, gaussian_corr, params, kern, dt, 5, trajs, amplitude=amp)
        for n in range(n_steps):
            cur = stream.current()
            for b in range(len(trajs)):
                np.testing.assert_array_equal(cur[b], paths[b][n])
            stream.advance()


@pytest.mark.parametrize("q", [1, 8])
@pytest.mark.parametrize("trajs", [[0, 1], [17, 3], [248, 249, 250, 251]])
def test_colored_stream_is_the_window_sum_of_filtered_increments(grid, gaussian_corr, params, amp,
                                                                 q, trajs):
    # V_n = sum_{j=n-q}^{n-1} filter(xi_j) sqrt(dt) / nu, past the first full window
    dt = 0.05
    nu = q * dt
    stream = ColoredStream(grid, gaussian_corr, params, ColoredKernel(nu), dt, 5, trajs,
                           amplitude=amp)
    for n in range(2 * q + 3):
        if n > q:
            expected = sum(
                _filter_white_batch(rng.normals(5, rng.KIND_FIELD_COLORED, trajs,
                                                j + _COLORED_STEP_OFFSET, grid.shape), amp)
                for j in range(n - q, n)
            ) * np.sqrt(dt) / nu
            cur = stream.current()
            assert np.max(np.abs(cur - expected)) <= 1e-12 * np.max(np.abs(expected))
        stream.advance()


def test_colored_stream_current_is_cached_and_read_only(grid, gaussian_corr, params, amp):
    stream = ColoredStream(grid, gaussian_corr, params, ColoredKernel(0.2), 0.05, 5, [0, 1],
                           amplitude=amp)
    cur = stream.current()
    assert stream.current() is cur
    with pytest.raises(ValueError, match="read-only"):
        cur[0, 0] = 1.0
    stream.advance()
    assert stream.current() is not cur


@pytest.mark.parametrize("grid2, matrix", [
    (FieldGrid.continuum(1, 256, 25.6), [[1.0]]),
    (FieldGrid.continuum(1, 1024, 192.0), [[1.0]]),
    (FieldGrid.lattice(1, 256), [[40.0]]),
    (FieldGrid.continuum(2, 64, 16.0), [[1.0, 0.3], [0.3, 2.0]]),
])
def test_real_fft_filter_matches_complex_filter(grid2, matrix, params):
    amp2 = spectral_amplitude(grid2, GaussianCorrelation(matrix), params)
    xi = np.random.default_rng(3).standard_normal((5,) + grid2.shape)
    axes = tuple(range(1, xi.ndim))
    reference = np.fft.ifftn(np.fft.fftn(xi, axes=axes) * amp2, axes=axes).real
    filtered = _filter_white_batch(xi, amp2)
    assert filtered.shape == xi.shape
    assert np.max(np.abs(filtered - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_sampling_cost_scales_like_n_log_n(gaussian_corr, params):
    # O(N log N) regression: 16x more sites must cost far less than 256x
    def cost(n, length, reps):
        grid = FieldGrid.continuum(1, n, length)
        amp = spectral_amplitude(grid, gaussian_corr, params)
        sample_white_increment(grid, gaussian_corr, params, 0.01, SeedInfo(1, 0, 0), amplitude=amp)
        t0 = time.perf_counter()
        for r in range(reps):
            sample_white_increment(grid, gaussian_corr, params, 0.01, SeedInfo(1, 0, r), amplitude=amp)
        return (time.perf_counter() - t0) / reps

    small = cost(2**12, 409.6, 40)
    big = cost(2**16, 6553.6, 10)
    assert big / small < 60.0


def test_field_dump_roundtrip(tmp_path, grid, gaussian_corr, params):
    inc = sample_white_increment(grid, gaussian_corr, params, 0.05, SeedInfo(3, 1, 4))
    path = tmp_path / "field.qtnf"
    write_field(path, inc.values, grid, inc.dt)
    raw = path.read_bytes()
    assert raw[:4] == b"QTNF"
    assert len(raw) == 32 + 8 * grid.total_sites
    values, dim, n, dt = read_field(path)
    assert (dim, n) == (1, 256)
    assert dt == 0.05
    np.testing.assert_array_equal(values, inc.values)


def test_field_dump_complex(tmp_path):
    grid = FieldGrid.lattice(1, 8)
    z = np.arange(8) + 1j * np.arange(8)[::-1]
    path = tmp_path / "k.qtnf"
    write_field(path, z, grid, 0.1)
    values, dim, n, dt = read_field(path)
    np.testing.assert_array_equal(values[..., 0] + 1j * values[..., 1], z)
