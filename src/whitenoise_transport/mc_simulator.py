"""Monte Carlo integration of the stochastic Schrodinger equation.

Trajectories evolve by unitary split-stepping: exact kinetic half-steps in
Fourier space around a potential factor exp(-i dW(x)/hbar), where dW is the
integrated potential over the step.  Multiplying by the exponential of the
Brownian increment realises the smooth-noise (Stratonovich) limit while
conserving the norm exactly; the Euler-Maruyama factor (1 - i dW/hbar) is
available as a negative control that violates norm conservation and biases
per-trajectory observables.

Randomness is counter-based: every draw is keyed by (global seed,
trajectory group, step) - for the classical kicks, by 1024-step block - so
ensembles are bit-reproducible for any thread count or batch split.
Cross-trajectory reductions run in fixed index order with compensated
summation.  Ensembles run on ``DEFAULT_THREADS`` worker threads unless
told otherwise.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic_continuum import MomentSeries, Provenance, msd_closed_form
from .core_model import ModelParams, Space, step_count
from .errors import BoxSizeError, InputError, StabilityError
from .noise_field import ColoredKernel, ColoredStream, FieldGrid, spectral_amplitude, _filter_white_batch
from .rng import KIND_CLASSICAL, KIND_FIELD, normals

__all__ = [
    "EnsembleResult",
    "ClassicalResult",
    "StudyRow",
    "gaussian_wavepacket",
    "point_state",
    "run_continuum",
    "run_lattice",
    "run_classical",
    "colored_noise_convergence_study",
    "SCHEME_STRATONOVICH",
    "SCHEME_ITO_EULER",
    "DEFAULT_THREADS",
]

SCHEME_STRATONOVICH = "stratonovich"
SCHEME_ITO_EULER = "ito-euler"


def _cores() -> int:
    """Cores this process may run on (all cores where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: worker threads of an ensemble unless told otherwise; the results do not
#: depend on it
DEFAULT_THREADS = _cores()


@dataclass
class EnsembleResult:
    """Ensemble-averaged observables with per-trajectory statistics."""

    times: np.ndarray
    msd_mean: np.ndarray
    msd_stderr: np.ndarray
    energy_mean: np.ndarray
    energy_stderr: np.ndarray
    n_traj: int
    per_traj_msd: np.ndarray
    norm_drift_max: float
    boundary_mass_max: float
    kernel_probe_k: np.ndarray = None
    kernel_probe_mean: np.ndarray = None
    kernel_probe_stderr: np.ndarray = None
    provenance: Provenance = Provenance.MONTE_CARLO

    def to_series(self) -> MomentSeries:
        return MomentSeries(times=self.times, msd=self.msd_mean, energy=self.energy_mean,
                            provenance=Provenance.MONTE_CARLO)

    def to_csv(self, path_or_buf):
        """CSV ``t,msd,stderr,energy`` with 17-significant-digit decimals."""
        own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
        fh = open(path_or_buf, "w", newline="\n") if own else path_or_buf
        try:
            fh.write("t,msd,stderr,energy\n")
            for i in range(self.times.size):
                fh.write(
                    f"{self.times[i]:.17g},{self.msd_mean[i]:.17g},"
                    f"{self.msd_stderr[i]:.17g},{self.energy_mean[i]:.17g}\n"
                )
        finally:
            if own:
                fh.close()


@dataclass
class ClassicalResult:
    """Stochastic-acceleration ensemble: position MSD and velocity variance."""

    times: np.ndarray
    msd_mean: np.ndarray
    msd_stderr: np.ndarray
    vvar_mean: np.ndarray
    vvar_stderr: np.ndarray
    n_traj: int
    per_traj_msd: np.ndarray

    def to_series(self) -> MomentSeries:
        return MomentSeries(times=self.times, msd=self.msd_mean, provenance=Provenance.MONTE_CARLO)


def gaussian_wavepacket(grid: FieldGrid, sigma) -> np.ndarray:
    """Zero-momentum product Gaussian, unit norm in the grid measure."""
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if sigma.size == 1:
        sigma = np.full(grid.dim, sigma[0])
    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij")
    expo = sum(a**2 / (4.0 * s**2) for a, s in zip(axes, sigma))
    psi = np.exp(-expo).astype(complex)
    w = grid.spacing**grid.dim
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * w))
    return psi


def point_state(grid: FieldGrid) -> np.ndarray:
    """Particle at the origin site (lattice initial state)."""
    psi = np.zeros(grid.shape, dtype=complex)
    psi[(0,) * grid.dim] = 1.0 / math.sqrt(grid.spacing**grid.dim)
    return psi


def _h0_multiplier(grid: FieldGrid, params: ModelParams) -> np.ndarray:
    """Kinetic energy H0 per Fourier mode of ``grid`` (``fftn`` ordering)."""
    n = grid.points_per_side
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    axes = np.meshgrid(*[freqs] * grid.dim, indexing="ij")
    if params.space is Space.CONTINUUM:
        return params.hbar**2 * sum(a**2 for a in axes) / (2.0 * params.mass)
    # neighbour-sum Laplacian: H0 multiplier -(hbar^2/m) sum_j cos(theta_j)
    return -(params.hbar**2 / params.mass) * sum(np.cos(a * grid.spacing) for a in axes)


def _kinetic_multipliers(grid: FieldGrid, params: ModelParams, dt: float):
    """exp(-i H0 dt / (2 hbar)) per Fourier mode (half step), and its square."""
    h0 = _h0_multiplier(grid, params)
    half = np.exp(-1j * h0 * dt / (2.0 * params.hbar))
    return half, half * half


def _check_counts(**counts):
    """Reject trajectory, batch and record counts that are not positive integers."""
    for name, val in counts.items():
        if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < 1:
            raise InputError(f"{name} must be a positive integer, got {val!r}")


def _record_steps(n_steps: int, record_every: int) -> np.ndarray:
    steps = np.arange(0, n_steps + 1, record_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps


class _Observables:
    """Per-batch observable extraction on the x-space wavefunction."""

    def __init__(self, grid: FieldGrid, params: ModelParams, probe_k=None, edge_cells=None):
        self.grid = grid
        self.w = grid.spacing**grid.dim
        axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij")
        self.r2 = sum(a**2 for a in axes)
        self.h0 = _h0_multiplier(grid, params)
        n = grid.points_per_side
        edge = max(1, n // 128) if edge_cells is None else edge_cells
        coords1 = grid.axis_coords()
        lim = (n // 2 - edge + 1) * grid.spacing
        self.edge_mask = np.zeros(grid.shape, dtype=bool)
        for ax in range(grid.dim):
            sl = [slice(None)] * grid.dim
            sl[ax] = np.abs(coords1) >= lim
            self.edge_mask[tuple(sl)] = True
        self.probe_k = probe_k
        if probe_k is not None:
            pk = np.atleast_2d(np.asarray(probe_k, dtype=float))
            coords = np.stack(axes, axis=-1)
            # estimator of the transformed kernel: 2^d * E int e^{2ik.x} rho(x,x) dx
            self.probe_waves = np.stack(
                [np.exp(2j * np.einsum("...i,i->...", coords, k)) for k in pk]
            )

    def measure(self, psi, psi_k, fft_axes):
        # |psi_k|^2 are psi's mode populations (psi_k = fftn(psi) up to a
        # phase per mode), which give the energy.
        # msd is the raw second moment of |psi|^2, not divided by the norm:
        # the transport law concerns the disorder average of the
        # unnormalized density, and unitary schemes keep the norm at 1
        # anyway.  A norm-violating scheme (Ito control) therefore shows up
        # directly in this estimator.
        density = np.abs(psi) ** 2
        norm = np.sum(density, axis=fft_axes) * self.w
        msd = np.sum(density * self.r2, axis=fft_axes) * self.w
        dens_k = np.abs(psi_k) ** 2
        energy = np.sum(dens_k * self.h0, axis=fft_axes) / np.sum(dens_k, axis=fft_axes)
        boundary = np.sum(density * self.edge_mask, axis=fft_axes) * self.w / norm
        probes = None
        if self.probe_k is not None:
            probes = (
                np.stack([np.sum(density * wv, axis=fft_axes) * self.w for wv in self.probe_waves], axis=1)
                * 2.0**self.grid.dim
            )
        return norm, msd, energy, boundary, probes


def _simulate_batch(traj_indices, grid, psi0, corr, params, dt, n_steps, record_steps, seed,
                    amplitude, scheme, boundary_tol, obs, colored: ColoredKernel = None):
    """Propagate one batch; returns per-trajectory observable arrays."""
    B = len(traj_indices)
    d = grid.dim
    fft_axes = tuple(range(1, d + 1))
    psi = np.broadcast_to(psi0, (B,) + grid.shape).astype(complex).copy()
    half, full = _kinetic_multipliers(grid, params, dt)
    inv_hbar = 1.0 / params.hbar
    root_dt = math.sqrt(dt)

    n_rec = record_steps.size
    msd = np.empty((B, n_rec))
    energy = np.empty((B, n_rec))
    norms = np.empty((B, n_rec))
    boundary_max = 0.0
    probes = None

    # potential phase exp(-i dW / hbar), written in place once per step
    phase = np.empty_like(psi) if scheme == SCHEME_STRATONOVICH else None

    stream = None
    if colored is not None:
        stream = ColoredStream(grid, corr, params, colored, dt, seed, traj_indices, amplitude=amplitude)

    def draw_white(step):
        xi = normals(seed, KIND_FIELD, traj_indices, step, grid.shape)
        return _filter_white_batch(xi, amplitude) * root_dt

    def record(pos, psi_rec, psi_k):
        nonlocal boundary_max, probes
        nrm, m, e, bd, pr = obs.measure(psi_rec, psi_k, fft_axes)
        norms[:, pos] = nrm
        msd[:, pos] = m
        energy[:, pos] = e
        boundary_max = max(boundary_max, float(bd.max()))
        if pr is not None:
            if probes is None:
                probes = np.empty((B, pr.shape[1], n_rec), dtype=complex)
            probes[:, :, pos] = pr
        t = record_steps[pos] * dt
        nan = np.isnan(m)
        if nan.any():
            traj = traj_indices[int(np.argmax(nan))]
            raise StabilityError(
                f"NaN in the mean-square displacement of trajectory {traj} at t={t:.6g}; "
                f"evolution unstable, reduce time.dt (now {dt:g})"
            )
        if boundary_max > boundary_tol:
            worst = int(np.argmax(bd > boundary_tol))
            box_key = "grid.length" if params.space is Space.CONTINUUM else "lattice_box.sites"
            raise BoxSizeError(
                f"boundary mass {bd[worst]:.3e} of trajectory {traj_indices[worst]} at t={t:.6g} "
                f"exceeds mc.boundary_tol={boundary_tol:.1e}; enlarge the box ({box_key}) "
                f"or raise mc.boundary_tol"
            )

    # record_steps starts at 0 and ends at n_steps.  A record step shares
    # the forward transform of the kinetic step: the recorded state is the
    # half step ifftn(psi_hat * half), the evolved one ifftn(psi_hat * full).
    # A half step only turns the phase of each mode, so psi_hat's mode
    # populations give the recorded state's energy.  Each transform drops
    # its input, so a batch holds two wavefunction arrays, three during a
    # record.
    psi_hat = np.fft.fftn(psi, axes=fft_axes)
    record(0, psi, psi_hat)
    rec_pos = 1
    if n_steps > 0:
        psi_hat *= half
        psi = np.fft.ifftn(psi_hat, axes=fft_axes)
        del psi_hat

    for n in range(n_steps):
        if colored is None:
            w_field = draw_white(n)
        else:
            # midpoint sample of the smooth colored potential, integrated over dt
            v_now = stream.current()
            stream.advance()
            w_field = 0.5 * (v_now + stream.current()) * dt
        if scheme == SCHEME_STRATONOVICH:
            w_field *= -inv_hbar
            np.cos(w_field, out=phase.real)
            np.sin(w_field, out=phase.imag)
            psi *= phase
        elif scheme == SCHEME_ITO_EULER:
            psi = psi * (1.0 - 1j * inv_hbar * w_field)
        else:
            raise InputError(f"unknown scheme {scheme!r}")

        psi_hat = np.fft.fftn(psi, axes=fft_axes)
        del psi
        if record_steps[rec_pos] == n + 1:
            record(rec_pos, np.fft.ifftn(psi_hat * half, axes=fft_axes), psi_hat)
            rec_pos += 1
        if n + 1 < n_steps:
            psi_hat *= full
            psi = np.fft.ifftn(psi_hat, axes=fft_axes)
            del psi_hat

    norm_drift = float(np.max(np.abs(norms - norms[:, :1]))) if n_rec else 0.0
    return msd, energy, probes, norm_drift, boundary_max


def _run_quantum(grid, psi0, corr, params, t_max, dt, n_traj, seed, record_every, boundary_tol,
                 scheme, threads, batch_size, probe_k, colored):
    n_steps = step_count(t_max, dt)
    _check_counts(n_traj=n_traj, batch_size=batch_size, record_every=record_every)
    record_steps = _record_steps(n_steps, record_every)
    amplitude = spectral_amplitude(grid, corr, params)
    obs = _Observables(grid, params, probe_k=probe_k)

    batches = [list(range(b, min(b + batch_size, n_traj))) for b in range(0, n_traj, batch_size)]
    results = [None] * len(batches)

    def work(i):
        results[i] = _simulate_batch(batches[i], grid, psi0, corr, params, dt, n_steps,
                                     record_steps, seed, amplitude, scheme, boundary_tol, obs,
                                     colored=colored)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(batches))))
    else:
        for i in range(len(batches)):
            work(i)

    msd = np.concatenate([r[0] for r in results], axis=0)
    energy = np.concatenate([r[1] for r in results], axis=0)
    norm_drift = max(r[3] for r in results)
    boundary = max(r[4] for r in results)

    times = record_steps * dt
    n_rec = times.size
    msd_mean = np.array([math.fsum(msd[:, j]) / n_traj for j in range(n_rec)])
    msd_std = msd.std(axis=0, ddof=1) if n_traj > 1 else np.zeros(n_rec)
    energy_mean = np.array([math.fsum(energy[:, j]) / n_traj for j in range(n_rec)])
    energy_std = energy.std(axis=0, ddof=1) if n_traj > 1 else np.zeros(n_rec)

    kp_mean = kp_err = kp = None
    if probe_k is not None:
        probe_arr = np.concatenate([r[2] for r in results], axis=0)  # (n_traj, n_k, n_rec)
        kp = np.atleast_2d(np.asarray(probe_k, dtype=float))
        kp_mean = probe_arr.mean(axis=0)
        kp_err = (probe_arr.real.std(axis=0, ddof=1) + 1j * probe_arr.imag.std(axis=0, ddof=1)) / math.sqrt(n_traj)

    return EnsembleResult(
        times=times,
        msd_mean=msd_mean,
        msd_stderr=msd_std / math.sqrt(n_traj),
        energy_mean=energy_mean,
        energy_stderr=energy_std / math.sqrt(n_traj),
        n_traj=n_traj,
        per_traj_msd=msd,
        norm_drift_max=norm_drift,
        boundary_mass_max=boundary,
        kernel_probe_k=kp,
        kernel_probe_mean=kp_mean,
        kernel_probe_stderr=kp_err,
    )


def run_continuum(grid: FieldGrid, psi0, corr, params: ModelParams, t_max, dt, n_traj, seed,
                  record_every=10, boundary_tol=1e-6, scheme=SCHEME_STRATONOVICH,
                  threads=DEFAULT_THREADS, batch_size=250, probe_k=None,
                  colored: ColoredKernel = None) -> EnsembleResult:
    """Ensemble of continuum trajectories under white (or colored) noise.

    ``psi0`` is an x-space array on the grid (see
    :func:`gaussian_wavepacket`).  The run aborts with
    :class:`BoxSizeError` when any trajectory's mass within the outermost
    grid shell exceeds ``boundary_tol`` (minimum-image distances stop
    being meaningful), and with :class:`StabilityError` on NaN.
    """
    if params.space is not Space.CONTINUUM:
        raise InputError("run_continuum requires continuum params")
    return _run_quantum(grid, psi0, corr, params, t_max, dt, n_traj, seed, record_every,
                        boundary_tol, scheme, threads, batch_size, probe_k, colored)


def run_lattice(grid: FieldGrid, psi0, corr, params: ModelParams, t_max, dt, n_traj, seed,
                record_every=10, boundary_tol=1e-6, scheme=SCHEME_STRATONOVICH,
                threads=DEFAULT_THREADS, batch_size=250, probe_k=None) -> EnsembleResult:
    """Ensemble of lattice trajectories (neighbour-sum kinetic dispersion)."""
    if params.space is not Space.LATTICE:
        raise InputError("run_lattice requires lattice params")
    if abs(grid.spacing - 1.0) > 1e-12:
        raise InputError("lattice grid must have unit spacing")
    return _run_quantum(grid, psi0, corr, params, t_max, dt, n_traj, seed, record_every,
                        boundary_tol, scheme, threads, batch_size, probe_k, None)


# steps of kicks drawn per Philox stream: the draws of step n are keyed
# (seed, KIND_CLASSICAL, trajectory group, n // _KICK_BLOCK), at row
# n % _KICK_BLOCK of the trajectory's rows of that stream.  Part of the
# stream definition (rng.STREAM_VERSION 3).
_KICK_BLOCK = 1024


def _corner_kick_factor(grid: FieldGrid, corr, params: ModelParams, dt: float) -> np.ndarray:
    """Factor S, with S S^T = R, of the covariance R of a cell's corner gradients.

    The gradient of one step's field increment is the circular convolution
    of unit white noise with the impulse response m_a of the spectral
    gradient filter i k_a * amplitude * sqrt(dt) (Nyquist wavenumber zeroed:
    that mode has no partner of opposite wavenumber, so carries no real
    gradient).  The d 2^d values at a cell's corners, row ``a * 2**d + c``
    for component a at corner c (bit ax of c set: the upper neighbour along
    axis ax), therefore have covariance
    ``R[(a,c),(b,c')] = sum_u m_a[u + c - c'] m_b[u]``, the inverse DFT of
    ``k_a k_b amplitude^2 dt`` at the lag c - c'.  It does not depend on the
    cell.  S comes from an eigendecomposition, not a Cholesky, because R can
    be singular (it is zero at v0 = 0).
    """
    d = grid.dim
    n = grid.points_per_side
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    freqs[n // 2] = 0.0
    kaxes = np.meshgrid(*[freqs] * (d - 1), freqs[: n // 2 + 1], indexing="ij")
    power = spectral_amplitude(grid, corr, params)[..., : n // 2 + 1] ** 2 * dt
    axes = tuple(range(d))
    cov = [[np.fft.irfftn(ka * kb * power, s=grid.shape, axes=axes) for kb in kaxes] for ka in kaxes]
    corners = [[(c >> ax) & 1 for ax in range(d)] for c in range(2**d)]
    rows = [(a, c) for a in range(d) for c in corners]
    R = np.array([[cov[a][b][tuple((ca - cb) % n for ca, cb in zip(c, c2))] for b, c2 in rows]
                  for a, c in rows])
    lam, V = np.linalg.eigh(R)
    return V * np.sqrt(np.clip(lam, 0.0, None))


def run_classical(dim, corr, params: ModelParams, v0_init, t_max, dt, n_traj, seed,
                  grid: FieldGrid = None, record_every=10, threads=DEFAULT_THREADS,
                  batch_size=500) -> ClassicalResult:
    """Classical particle kicked by the white-noise force field.

    Symplectic Euler: per step the velocity receives -grad dW(q)/m, the
    gradient of a fresh field increment on the periodic ``grid`` (spectral
    gradient, Nyquist wavenumber zeroed) interpolated multilinearly at the
    particle position; the recorded position is unwrapped.  The field is
    never formed: given q, the kick is Gaussian with covariance
    ``W R W^T``, where R is the covariance of the d 2^d corner gradients of
    q's cell (see :func:`_corner_kick_factor`) and W the d x d 2^d matrix of
    multilinear weights at q's fractional cell position.  Each step draws
    d 2^d normals per trajectory and applies the exact factor of R, so the
    law of every trajectory is the one of the interpolated field gradient.
    At grid points the kick covariance equals the discrete field's gradient
    covariance, v0^2 (-Hess g)(0) dt up to the grid's resolution.
    """
    n_steps = step_count(t_max, dt)
    _check_counts(n_traj=n_traj, batch_size=batch_size, record_every=record_every)
    if grid is None:
        length = 16.0 * corr.correlation_length()
        n = 256 if dim == 1 else 64
        grid = FieldGrid.continuum(dim, n, length)
    elif grid.dim != dim:
        raise InputError(f"run_classical has dim {dim}, grid has dim {grid.dim}")
    v0_init = np.broadcast_to(np.asarray(v0_init, dtype=float), (dim,))
    record_steps = _record_steps(n_steps, record_every)
    factor = _corner_kick_factor(grid, corr, params, dt)
    n_corners = 2**dim
    n_normals = factor.shape[0]

    batches = [list(range(b, min(b + batch_size, n_traj))) for b in range(0, n_traj, batch_size)]
    results = [None] * len(batches)

    def work(bi):
        trajs = batches[bi]
        B = len(trajs)
        q = np.zeros((B, dim))
        v = np.tile(v0_init, (B, 1))
        n_rec = record_steps.size
        msd = np.empty((B, n_rec))
        vvar = np.empty((B, n_rec))
        pos = 0
        if record_steps[0] == 0:
            msd[:, 0] = np.sum(q**2, axis=1)
            vvar[:, 0] = np.sum(v**2, axis=1)
            pos = 1
        for step in range(n_steps):
            row = step % _KICK_BLOCK
            if row == 0:
                z = normals(seed, KIND_CLASSICAL, trajs, step // _KICK_BLOCK,
                            (min(_KICK_BLOCK, n_steps - step), n_normals))
                # corner values u = S z of the block's steps, summed in a
                # fixed order element by element so that no row depends on
                # the batch it is in
                u = z[..., :1] * factor[:, 0]
                for j in range(1, n_normals):
                    u += z[..., j:j + 1] * factor[:, j]
                u = u.reshape(B, -1, dim, n_corners)
            cell = q / grid.spacing
            frac = cell - np.floor(cell)
            sides = (1.0 - frac, frac)
            kick = 0.0
            for c in range(n_corners):
                w = sides[c & 1][:, 0]
                for ax in range(1, dim):
                    w = w * sides[(c >> ax) & 1][:, ax]
                kick = kick + w[:, None] * u[:, row, :, c]
            v = v - kick / params.mass
            q = q + v * dt
            if pos < n_rec and record_steps[pos] == step + 1:
                msd[:, pos] = np.sum(q**2, axis=1)
                vvar[:, pos] = np.sum(v**2, axis=1)
                pos += 1
        nan = np.isnan(msd)
        if nan.any():
            row = int(np.argmax(nan.any(axis=1)))
            t = record_steps[int(np.argmax(nan[row]))] * dt
            raise StabilityError(
                f"NaN in classical trajectory {trajs[row]} at t={t:.6g}; reduce time.dt (now {dt:g})"
            )
        results[bi] = (msd, vvar)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(batches))))
    else:
        for i in range(len(batches)):
            work(i)

    msd = np.concatenate([r[0] for r in results], axis=0)
    vvar = np.concatenate([r[1] for r in results], axis=0)
    times = record_steps * dt
    n_rec = times.size
    return ClassicalResult(
        times=times,
        msd_mean=np.array([math.fsum(msd[:, j]) / n_traj for j in range(n_rec)]),
        msd_stderr=msd.std(axis=0, ddof=1) / math.sqrt(n_traj) if n_traj > 1 else np.zeros(n_rec),
        vvar_mean=np.array([math.fsum(vvar[:, j]) / n_traj for j in range(n_rec)]),
        vvar_stderr=vvar.std(axis=0, ddof=1) / math.sqrt(n_traj) if n_traj > 1 else np.zeros(n_rec),
        n_traj=n_traj,
        per_traj_msd=msd,
    )


@dataclass
class StudyRow:
    """One row of the colored-noise convergence table."""

    label: str
    nu: float
    deviation: float
    stderr: float
    result: EnsembleResult

    @property
    def z_score(self) -> float:
        return self.deviation / self.stderr if self.stderr > 0 else float("inf")


def colored_noise_convergence_study(nu_list, grid, psi0, init_kernel, corr, params, t_max, dt,
                                    n_traj, seed, record_every=10, window_frac=0.5,
                                    include_white=True, include_ito=False, boundary_tol=1e-4,
                                    threads=DEFAULT_THREADS, batch_size=250):
    """Deviation of colored-noise ensembles from the closed-form law.

    For each correlation half-width nu, runs the continuum ensemble with
    the triangular-kernel colored potential built from the *same* white
    increments (common random numbers across nu), and measures the
    per-trajectory mean relative deviation of the MSD from
    ``msd_closed_form`` over the trailing ``window_frac`` of the time
    range.  Rows are ordered: white endpoint first (nu = 0), then
    decreasing nu, then optionally the Euler-Maruyama negative control.
    """
    rows = []

    def deviation_row(label, nu, result):
        mask = result.times >= (1.0 - window_frac) * t_max
        ref = msd_closed_form(result.times[mask], init_kernel, corr, params).msd
        rel = (result.per_traj_msd[:, mask] - ref) / ref
        dev_per_traj = rel.mean(axis=1)
        dev = float(dev_per_traj.mean())
        se = float(dev_per_traj.std(ddof=1) / math.sqrt(result.n_traj))
        return StudyRow(label=label, nu=nu, deviation=dev, stderr=se, result=result)

    if include_white:
        res = run_continuum(grid, psi0, corr, params, t_max, dt, n_traj, seed,
                            record_every=record_every, boundary_tol=boundary_tol,
                            threads=threads, batch_size=batch_size)
        rows.append(deviation_row("white", 0.0, res))

    for nu in sorted(nu_list, reverse=True):
        kern = ColoredKernel(float(nu))
        res = run_continuum(grid, psi0, corr, params, t_max, dt, n_traj, seed,
                            record_every=record_every, boundary_tol=boundary_tol,
                            threads=threads, batch_size=batch_size, colored=kern)
        rows.append(deviation_row(f"nu={nu:g}", float(nu), res))

    if include_ito:
        res = run_continuum(grid, psi0, corr, params, t_max, dt, n_traj, seed,
                            record_every=record_every, boundary_tol=boundary_tol,
                            threads=threads, batch_size=batch_size, scheme=SCHEME_ITO_EULER)
        rows.append(deviation_row("ito-control", 0.0, res))

    return rows
