import itertools
import time

import numpy as np
import pytest

from whitenoise_transport import (ColoredKernel, CovarianceError, FieldGrid, GaussianCorrelation,
                                  InputError, ModelParams, ResolutionError, TabulatedCorrelation,
                                  field_increments, rng, spectral_amplitude, validate_hypotheses)
from whitenoise_transport import noise_field
from whitenoise_transport.noise_field import (_COLORED_STEP_OFFSET, ColoredStream, HalfSpectrum,
                                              _filter_white_batch)


@pytest.fixture
def grid():
    return FieldGrid.continuum(1, 256, 25.6)


@pytest.fixture
def amp(grid, gaussian_corr, params):
    return spectral_amplitude(grid, gaussian_corr, params)


def white_at(amp, dt, seed, traj, step):
    """Trajectory ``traj``'s white increment at ``step``, as the ensembles draw it."""
    return next(itertools.islice(field_increments(amp, dt, seed, [traj]), step, None))[0]


def colored_path(amp, kern, n_steps, dt, seed, traj):
    """Snapshots V(x, t_n), n = 0..n_steps-1, of one trajectory's colored potential."""
    stream = ColoredStream(amp, kern, dt, seed, [traj])
    out = np.empty((n_steps,) + amp.shape)
    for n in range(n_steps):
        out[n] = stream.current()[0]
        if n < n_steps - 1:
            stream.advance()
    return out


def test_grid_invariants():
    g = FieldGrid.continuum(2, 64, 32.0)
    assert g.shape == (64, 64)
    assert g.spacing == 0.5
    assert FieldGrid.lattice(1, 128).spacing == 1.0
    with pytest.raises(InputError, match="points_per_side must be a power of two, got 100"):
        FieldGrid.continuum(1, 100, 10.0)


def test_same_coordinates_are_bit_identical(amp):
    a = white_at(amp, 0.05, 7, 3, 11)
    b = white_at(amp, 0.05, 7, 3, 11)
    assert np.array_equal(a, b)
    c = white_at(amp, 0.05, 7, 3, 12)
    assert not np.array_equal(a, c)


def test_white_increment_mean_and_covariance(grid, gaussian_corr, amp):
    # statistical oracle, seeded: N=10^4 fields
    params = ModelParams(v0=1.3)
    amp13 = spectral_amplitude(grid, gaussian_corr, params)
    dt = 0.05
    N = 10_000
    fields = np.empty((N, 256))
    increments = field_increments(amp13, dt, 42, [0])
    for i in range(N):
        fields[i] = next(increments)[0]
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


@pytest.mark.parametrize("scale", [1.0, 1e-10])
def test_spectrum_sign_test_is_relative(params, scale):
    # g's scale is arbitrary (v0 carries it): the hard cutoff is refused at
    # any scale, by validate and by the Monte Carlo spectrum alike
    xs = np.linspace(-8, 8, 129)
    table = TabulatedCorrelation(xs, scale * np.where(np.abs(xs) <= 1.0, 1.0, 0.0))
    assert not validate_hypotheses(table, params).spectrum_nonnegative
    with pytest.raises(CovarianceError, match="negative spectral density"):
        spectral_amplitude(FieldGrid.continuum(1, 256, 16.0), table, params)


def test_validate_checks_g_extent_not_the_run_box(params):
    # validate samples g on a grid of g's own extent; a box too short for g
    # is refused only when a Monte Carlo route builds its spectrum there
    corr = GaussianCorrelation([[1.0]])
    assert validate_hypotheses(corr, params).spectrum_nonnegative
    with pytest.raises(CovarianceError, match=r"min/max = -1.57\de-03"):
        spectral_amplitude(FieldGrid.continuum(1, 64, 4.0), corr, params)


def test_dimension_mismatch_raises_input_error(params):
    grid = FieldGrid.continuum(1, 64, 16.0)
    with pytest.raises(InputError, match="correlation has dim 2, grid has dim 1"):
        spectral_amplitude(grid, GaussianCorrelation(np.eye(2)), params)


def test_zero_disorder_gives_zero_field(grid, gaussian_corr, monkeypatch):
    # an empty spectrum draws nothing
    def refuse(*args):
        raise AssertionError("a field with an empty spectrum drew normals")

    monkeypatch.setattr(noise_field, "normals", refuse)
    params = ModelParams(v0=0.0)
    assert HalfSpectrum(spectral_amplitude(grid, gaussian_corr, params), 1.0).n_normals == 0
    amp0 = spectral_amplitude(grid, gaussian_corr, params)
    inc = next(field_increments(amp0, 0.1, 5, [0]))[0]
    assert inc.shape == grid.shape and np.all(inc == 0.0)
    stream = ColoredStream(amp0, ColoredKernel(0.1), 0.05, 5, [0, 1])
    stream.advance()
    assert stream.current().shape == (2,) + grid.shape and np.all(stream.current() == 0.0)


class TestColoredKernel:
    def test_resolution_errors(self):
        with pytest.raises(ResolutionError, match="nu=0.01 is below the step dt=0.05"):
            ColoredKernel(0.01).width_steps(0.05)
        with pytest.raises(ResolutionError, match="nu=0.07 must be an integer multiple of dt=0.05"):
            ColoredKernel(0.07).width_steps(0.05)


def test_colored_path_covariance(amp):
    params = ModelParams()
    dt, nu = 0.05, 0.4
    kern = ColoredKernel(nu)
    M, n_steps = 10_000, 24
    site = 128
    snaps = np.empty((M, n_steps))
    # trajectories 0..M-1 in batches of 250: each row is that trajectory's
    # colored_path (see test_colored_stream_matches_path)
    for lo in range(0, M, 250):
        batch = ColoredStream(amp, kern, dt, 9, range(lo, lo + 250))
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


def test_colored_paths_cauchy_toward_white(amp):
    # same white-noise source, nu halved: mean-square distance to the
    # white increments (scaled 1/sqrt(dt)-rate) shrinks like 1/dt - 1/nu
    dt = 0.05
    n_steps = 16
    M = 400
    white = HalfSpectrum(amp, np.sqrt(dt))
    dists = {}
    for nu in (8 * dt, 4 * dt, 2 * dt):
        kern = ColoredKernel(nu)
        total = 0.0
        for i in range(M):
            path = colored_path(amp, kern, n_steps, dt, 77, i)
            # matching white rate from the same stream: increments at the
            # same absolute indexing used inside the colored construction
            rate = np.empty_like(path)
            for nstep in range(n_steps):
                z = white.normals(77, rng.KIND_FIELD_COLORED, [i], nstep - 1 + _COLORED_STEP_OFFSET)
                rate[nstep] = _filter_white_batch(z, white)[0] / dt
            total += float(np.mean((path - rate) ** 2))
        dists[nu] = total / M
    theory = {nu: (1.0 / dt - 1.0 / nu) for nu in dists}
    assert dists[0.4] > dists[0.2] > dists[0.1]
    for nu, d in dists.items():
        assert abs(d - theory[nu]) / theory[nu] < 0.15


def test_colored_stream_matches_path(amp):
    dt, nu, n_steps = 0.05, 0.2, 12
    kern = ColoredKernel(nu)
    for trajs in ([0, 1], [248, 249, 250, 251], [17, 3]):
        paths = [colored_path(amp, kern, n_steps, dt, 5, traj) for traj in trajs]
        stream = ColoredStream(amp, kern, dt, 5, trajs)
        for n in range(n_steps):
            cur = stream.current()
            for b in range(len(trajs)):
                np.testing.assert_array_equal(cur[b], paths[b][n])
            stream.advance()


@pytest.mark.parametrize("q", [1, 8])
@pytest.mark.parametrize("trajs", [[0, 1], [17, 3], [248, 249, 250, 251]])
def test_colored_stream_is_the_window_sum_of_filtered_increments(amp, q, trajs):
    # V_n = sum_{j=n-q}^{n-1} W_j / nu, past the first full window, where W_j
    # is the white increment synthesised from the colored lane's step-j draws
    dt = 0.05
    nu = q * dt
    white = HalfSpectrum(amp, np.sqrt(dt))
    stream = ColoredStream(amp, ColoredKernel(nu), dt, 5, trajs)
    for n in range(2 * q + 3):
        if n > q:
            expected = sum(
                _filter_white_batch(white.normals(5, rng.KIND_FIELD_COLORED, trajs,
                                                  j + _COLORED_STEP_OFFSET), white)
                for j in range(n - q, n)
            ) / nu
            cur = stream.current()
            assert np.max(np.abs(cur - expected)) <= 1e-12 * np.max(np.abs(expected))
        stream.advance()


@pytest.mark.parametrize("colored", [None, ColoredKernel(0.1)], ids=["white", "colored"])
def test_field_increments_are_the_lane_draws(amp, colored):
    # white: the KIND_FIELD increments of step n; colored: the midpoint rule
    # on the stream's samples; either way a trajectory's rows do not depend
    # on its batch
    dt, trajs, n_steps = 0.05, [17, 3, 4], 4
    got = list(itertools.islice(field_increments(amp, dt, 5, trajs, colored), n_steps))
    if colored is None:
        white = HalfSpectrum(amp, np.sqrt(dt))
        expected = [_filter_white_batch(white.normals(5, rng.KIND_FIELD, trajs, n), white)
                    for n in range(n_steps)]
    else:
        stream = ColoredStream(amp, colored, dt, 5, trajs)
        v = [stream.current()]
        for _ in range(n_steps):
            stream.advance()
            v.append(stream.current())
        expected = [0.5 * (v[n] + v[n + 1]) * dt for n in range(n_steps)]
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g, e)
    for b, traj in enumerate(trajs):
        alone = itertools.islice(field_increments(amp, dt, 5, [traj], colored), n_steps)
        for g, a in zip(got, alone):
            np.testing.assert_array_equal(g[b], a[0])


def test_field_increments_build_their_source_when_called(amp, monkeypatch):
    drawn = []

    def counted(*args, _normals=noise_field.normals):
        drawn.append(args[3])
        return _normals(*args)

    monkeypatch.setattr(noise_field, "normals", counted)
    field_increments(amp, 0.05, 5, [0, 1])
    assert drawn == []
    field_increments(amp, 0.05, 5, [0, 1], ColoredKernel(0.1))   # the warm-up window, q = 2
    assert drawn == [_COLORED_STEP_OFFSET - 2, _COLORED_STEP_OFFSET - 1]
    with pytest.raises(InputError, match="dt must be positive, got 0.0"):
        field_increments(amp, 0.0, 5, [0])


def test_colored_stream_current_is_cached_and_read_only(amp):
    stream = ColoredStream(amp, ColoredKernel(0.2), 0.05, 5, [0, 1])
    cur = stream.current()
    assert stream.current() is cur
    with pytest.raises(ValueError, match="read-only"):
        cur[0, 0] = 1.0
    stream.advance()
    assert stream.current() is not cur


def _disc_amplitude(n, radius):
    """An even 2-D amplitude whose support is a disc of modes, so the drawn
    modes are not contiguous in the half spectrum."""
    k = np.abs(np.fft.fftfreq(n, 1.0 / n))
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return np.where(kx**2 + ky**2 <= radius**2, np.exp(-0.1 * (kx**2 + 2 * ky**2)), 0.0)


@pytest.mark.parametrize("grid2, matrix, zero_modes", [
    (FieldGrid.lattice(1, 16), [[0.3]], False),                # nonzero Nyquist mode
    (FieldGrid.continuum(1, 1024, 192.0), [[1.0]], True),      # band-limited: 178 zero modes
    (FieldGrid.continuum(2, 16, 16.0), [[1.0, 0.3], [0.3, 2.0]], False),
    (FieldGrid.continuum(3, 8, 10.0), [[1.0, 0, 0], [0, 0.7, 0], [0, 0, 1.3]], False),
    (FieldGrid.lattice(2, 16), None, True),                    # scattered support
], ids=["1d-nyquist", "1d-band-limited", "2d", "3d", "2d-disc"])
def test_half_spectrum_law_is_the_circulant_covariance(grid2, matrix, zero_modes, params):
    # the synthesis is linear: column j of L is the field of unit normal j,
    # and the field's covariance L L^T must be the circulant with eigenvalues
    # (amplitude * gain)^2
    if matrix is None:
        amp2 = _disc_amplitude(grid2.points_per_side, 5.0)
    else:
        amp2 = spectral_amplitude(grid2, GaussianCorrelation(matrix), params)
    gain = 0.7
    spectrum = HalfSpectrum(amp2, gain)
    half = amp2[..., : grid2.points_per_side // 2 + 1]
    assert (np.count_nonzero(half) < half.size) == zero_modes
    assert spectrum.n_normals == 2 * np.count_nonzero(half)
    # the layout: normals 2j and 2j + 1 are the (re, im) pair of mode support[j]
    z = np.random.default_rng(3).standard_normal((2, spectrum.n_normals))
    coeffs = np.zeros((2, half.size), dtype=complex)
    coeffs[:, spectrum.support] = (z[:, 0::2] + 1j * z[:, 1::2]) * spectrum.scale
    axes = tuple(range(1, grid2.dim + 1))
    manual = np.fft.irfftn(coeffs.reshape((2,) + half.shape), s=grid2.shape, axes=axes)
    np.testing.assert_array_equal(_filter_white_batch(z, spectrum), manual)
    L = _filter_white_batch(np.eye(spectrum.n_normals), spectrum).reshape(spectrum.n_normals, -1).T
    lag_cov = np.fft.ifftn(amp2**2 * gain**2).real
    sites = np.indices(grid2.shape).reshape(grid2.dim, -1).T
    lags = (sites[:, None, :] - sites[None, :, :]) % grid2.points_per_side
    circulant = lag_cov[tuple(np.moveaxis(lags, -1, 0))]
    assert np.max(np.abs(L @ L.T - circulant)) <= 1e-13 * np.max(np.abs(circulant))


def test_batch_step_draws_two_normals_per_nonzero_half_mode(grid, amp, monkeypatch):
    drawn = []

    def counted(*args, _normals=noise_field.normals):
        out = _normals(*args)
        drawn.append(out.shape)
        return out

    monkeypatch.setattr(noise_field, "normals", counted)
    n_modes = np.count_nonzero(amp[: grid.points_per_side // 2 + 1])
    assert n_modes < grid.points_per_side // 2 + 1
    next(field_increments(amp, 0.05, 7, [3]))
    stream = ColoredStream(amp, ColoredKernel(0.1), 0.05, 5, [4, 9, 2])
    stream.advance()
    assert drawn == [(1, 2 * n_modes)] + [(3, 2 * n_modes)] * 3


def test_sampling_cost_scales_like_n_log_n(gaussian_corr, params):
    # O(N log N) regression: 16x more sites must cost far less than 256x
    def cost(n, length, reps):
        grid = FieldGrid.continuum(1, n, length)
        increments = field_increments(spectral_amplitude(grid, gaussian_corr, params), 0.01, 1, [0])
        next(increments)
        t0 = time.perf_counter()
        for _ in range(reps):
            next(increments)
        return (time.perf_counter() - t0) / reps

    small = cost(2**12, 409.6, 40)
    big = cost(2**16, 6553.6, 10)
    assert big / small < 60.0

