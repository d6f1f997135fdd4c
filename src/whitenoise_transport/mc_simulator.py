"""Monte Carlo integration of the stochastic Schrodinger equation.

Trajectories evolve by unitary split-stepping: exact kinetic half-steps in
Fourier space around a potential factor exp(-i dW(x)/hbar), where dW is the
integrated potential over the step (``noise_field.field_increments``).
Multiplying by the exponential of the Brownian increment realises the
smooth-noise (Stratonovich) limit while conserving the norm exactly; the
factor is formed from t = tan(-dW/(2 hbar)) as (1 - t^2 + 2 i t)/(1 + t^2),
which is unitary to rounding (``_potential_phase``); the
Euler-Maruyama factor (1 - i dW/hbar) is available as a negative control
that violates norm conservation and biases per-trajectory observables.

Randomness is counter-based: every draw is keyed by (global seed,
trajectory group, step) - for the classical kicks, by 1024-step block - so
ensembles are bit-reproducible for any thread count or batch split.
Cross-trajectory reductions run in fixed index order with compensated
summation.  Ensembles run on ``DEFAULT_THREADS`` worker threads unless
told otherwise.  Every driver records on the schedule of
``core_model._record_steps`` and takes its dimension from ``params.dim``; a
grid of another dimension is an :class:`InputError`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic_continuum import msd_closed_form
from .core_model import (ModelParams, Space, _check_counts, _on_some_axis, _record_steps, _write_csv,
                         step_count)
from .errors import BoxSizeError, InputError, StabilityError
from .noise_field import ColoredKernel, FieldGrid, field_increments, spectral_amplitude
from .rng import KIND_CLASSICAL, TRAJ_GROUP, normals

__all__ = [
    "EnsembleResult",
    "ClassicalResult",
    "StudyRow",
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
    n_traj: int
    per_traj_msd: np.ndarray
    norm_drift_max: float
    boundary_mass_max: float
    #: largest fraction of |psi_k|^2 at |k_axis| >= 7/8 k_max on some axis
    #: (momentum aliasing); None on the lattice, where the wrap is physical
    kspace_edge_max: float = None
    kernel_probe_mean: np.ndarray = None
    kernel_probe_stderr: np.ndarray = None

    def to_csv(self, path_or_buf):
        """CSV ``t,msd,stderr,energy`` (see ``core_model._write_csv``)."""
        _write_csv(path_or_buf, ("t", "msd", "stderr", "energy"),
                   (self.times, self.msd_mean, self.msd_stderr, self.energy_mean))


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


def point_state(grid: FieldGrid) -> np.ndarray:
    """Particle at the origin site (lattice initial state)."""
    psi = np.zeros(grid.shape, dtype=complex)
    psi[(0,) * grid.dim] = 1.0 / math.sqrt(grid.spacing**grid.dim)
    return psi


def _run_batches(work, n_traj, batch_size, threads) -> list:
    """``work(trajs)`` of each batch of at most ``batch_size`` consecutive
    trajectories, in batch order, on ``threads`` worker threads, or one per
    batch if there are fewer batches."""
    batches = [list(range(b, min(b + batch_size, n_traj))) for b in range(0, n_traj, batch_size)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(batches))) as pool:
            return list(pool.map(work, batches))
    return [work(trajs) for trajs in batches]


#: bytes of one wavefunction array (rows x sites x 16 B) that a block of a
#: quantum batch stays within, so a step's arrays stay near the core's L2
#: cache and a worker's memory is set by the grid, not by the batch
_BLOCK_BYTES = 1 << 20


def _block_rows(sites: int) -> int:
    """Most rows of a block on ``sites`` sites: the largest multiple of
    ``TRAJ_GROUP`` whose wavefunction array fits ``_BLOCK_BYTES``, and
    ``TRAJ_GROUP`` at least."""
    return max(TRAJ_GROUP, _BLOCK_BYTES // (16 * sites) // TRAJ_GROUP * TRAJ_GROUP)


def _blocks(trajs: list, rows: int) -> list:
    """``trajs`` split into ceil(len / rows) consecutive near-equal blocks,
    each a multiple of ``TRAJ_GROUP`` long except the last."""
    n_blocks = -(-len(trajs) // rows)
    size = -(-len(trajs) // n_blocks)
    size = -(-size // TRAJ_GROUP) * TRAJ_GROUP
    return [trajs[i:i + size] for i in range(0, len(trajs), size)]


def _mean(samples: np.ndarray):
    """Mean over the trajectories (rows) of ``samples``, compensated and per
    column, so independent of the batch split."""
    n, n_rec = samples.shape
    return np.array([math.fsum(samples[:, j]) / n for j in range(n_rec)])


def _mean_stderr(samples: np.ndarray):
    """:func:`_mean` and the ddof-1 standard error over the rows of ``samples``."""
    n, n_rec = samples.shape
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(n_rec)
    return _mean(samples), stderr


class _Observables:
    """An ensemble's per-trajectory tables, filled record by record from
    the x-space wavefunction: ``norm``, ``msd``, ``energy``, ``boundary``
    and ``kedge`` (None on the lattice) of shape (n_traj, n_rec), and
    ``probes`` (n_traj, n_k, n_rec), None without ``probe_k``."""

    def __init__(self, grid: FieldGrid, params: ModelParams, n_traj, n_rec, probe_k=None):
        self.grid = grid
        self.axes = tuple(range(1, grid.dim + 1))
        self.w = grid.spacing**grid.dim
        coords1 = grid.axis_coords()
        axes = np.meshgrid(*[coords1] * grid.dim, indexing="ij")
        self.r2 = sum(a**2 for a in axes)
        n = grid.points_per_side
        edge = max(1, n // 128)
        lim = (n // 2 - edge + 1) * grid.spacing
        self.edge_mask = _on_some_axis(np.abs(coords1) >= lim, grid.dim)
        self.norm, self.msd, self.energy, self.boundary = (np.empty((n_traj, n_rec)) for _ in range(4))
        # kinetic energy H0 per Fourier mode (fftn ordering)
        k_axes = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)] * grid.dim, indexing="ij")
        if params.space is Space.CONTINUUM:
            self.h0 = params.hbar**2 * sum(k**2 for k in k_axes) / (2.0 * params.mass)
            # flat fftn-order indices of the modes with |k_axis| >= 7/8 k_max on
            # some axis; k_axis = 2 pi m / (n a) and k_max = pi / a, so |m| >= 7n/16
            on_edge = 16 * np.abs(np.fft.fftfreq(n, 1.0 / n)) >= 7 * n
            self.kedge_idx = np.flatnonzero(_on_some_axis(on_edge, grid.dim))
            self.kedge = np.empty((n_traj, n_rec))
        else:  # neighbour-sum Laplacian: H0 multiplier -(hbar^2/m) sum_j cos(theta_j)
            self.h0 = -(params.hbar**2 / params.mass) * sum(np.cos(k * grid.spacing) for k in k_axes)
            self.kedge_idx = self.kedge = None
        self.probes = None
        if probe_k is not None:
            pk = np.atleast_2d(np.asarray(probe_k, dtype=float))
            coords = np.stack(axes, axis=-1)
            # estimator of the transformed kernel K(k, 0, t): E int e^{2ik.x} rho(x,x) dx
            # times the continuum's volume factor 2^d (dX = 2^d dx); the lattice
            # sum over X = 2x has none (docs/conventions.md)
            self.probe_factor = 2.0**grid.dim if params.space is Space.CONTINUUM else 1.0
            self.probe_waves = np.stack(
                [np.exp(2j * np.einsum("...i,i->...", coords, k)) for k in pk]
            )
            self.probes = np.empty((n_traj, len(pk), n_rec), dtype=complex)

    def measure(self, rows, pos, psi, psi_k):
        """Observables of the states ``psi`` (x space) into the tables' ``rows``
        (a slice) at record ``pos``; ``psi_k`` are their transforms."""
        # |psi_k|^2 are psi's mode populations (psi_k = fftn(psi) up to a
        # phase per mode), which give the energy.
        # msd is the raw second moment of |psi|^2, not divided by the norm:
        # the transport law concerns the disorder average of the
        # unnormalized density, whose norm is the initial trace, which
        # unitary schemes keep.  A norm-violating scheme (Ito control)
        # therefore shows up directly in this estimator.
        # One real array per space: squared in place, then weighted in place
        # once the unweighted sums are taken.
        axes = self.axes
        density = np.abs(psi)
        np.square(density, out=density)
        norm = np.sum(density, axis=axes) * self.w
        self.norm[rows, pos] = norm
        self.boundary[rows, pos] = np.sum(density * self.edge_mask, axis=axes) * self.w / norm
        if self.probes is not None:
            self.probes[rows, :, pos] = (
                np.stack([np.sum(density * wv, axis=axes) * self.w for wv in self.probe_waves], axis=1)
                * self.probe_factor
            )
        density *= self.r2
        self.msd[rows, pos] = np.sum(density, axis=axes) * self.w
        del density
        dens_k = np.abs(psi_k)
        np.square(dens_k, out=dens_k)
        total_k = np.sum(dens_k, axis=axes)
        if self.kedge is not None:
            self.kedge[rows, pos] = dens_k.reshape(len(dens_k), -1)[:, self.kedge_idx].sum(axis=1) / total_k
        dens_k *= self.h0
        self.energy[rows, pos] = np.sum(dens_k, axis=axes) / total_k


def _potential_phase(w, hbar, out):
    """exp(-i w / hbar) into the complex array ``out``; ``w`` is overwritten.

    With t = tan(-w / (2 hbar)), cos = 2/(1 + t^2) - 1 and sin = t 2/(1 + t^2):
    unitary to rounding for any t, and one vectorised tan is cheaper than
    libm cos and sin.
    """
    w *= -0.5 / hbar
    np.tan(w, out=w)
    re = out.real
    np.multiply(w, w, out=re)
    re += 1.0
    np.divide(2.0, re, out=re)
    np.multiply(w, re, out=out.imag)
    re -= 1.0
    return out


def _simulate_batch(traj_indices, obs, psi0, half, full, dt, n_steps, record_steps, seed,
                    amplitude, params, scheme, boundary_tol, colored: ColoredKernel = None):
    """Propagate the consecutive trajectories ``traj_indices``, one block of a
    batch (see :func:`_blocks`), and fill their rows of ``obs``'s tables at
    every record step.  ``half`` is the kinetic multiplier
    exp(-i H0 dt / (2 hbar)) per Fourier mode and ``full`` its square."""
    rows = slice(traj_indices[0], traj_indices[-1] + 1)
    fft_axes = obs.axes
    psi = np.broadcast_to(psi0, (len(traj_indices),) + obs.grid.shape).astype(complex).copy()
    box_key = "grid.length" if params.space is Space.CONTINUUM else "lattice_box.sites"
    increments = field_increments(amplitude, dt, seed, traj_indices, colored)

    def record(pos, psi_rec, psi_k):
        obs.measure(rows, pos, psi_rec, psi_k)
        t = record_steps[pos] * dt
        nan = np.isnan(obs.msd[rows, pos])
        if nan.any():
            traj = traj_indices[int(np.argmax(nan))]
            raise StabilityError(
                f"NaN in the mean-square displacement of trajectory {traj} at t={t:.6g}; "
                f"evolution unstable, reduce time.dt (now {dt:g})"
            )
        bd = obs.boundary[rows, pos]
        if bd.max() > boundary_tol:
            worst = int(np.argmax(bd > boundary_tol))
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
    # its input.  A step holds psi, its potential factor and the real
    # increment: 2.5 wavefunction arrays (B x sites x 16 B, B the block's
    # rows, so one array is at most _BLOCK_BYTES wherever TRAJ_GROUP rows
    # fit in it).  A record holds three, psi_hat, the half-step product and
    # its inverse transform, and then psi_hat, the recorded state and two
    # real arrays in the observables (see ``_Observables.measure``).  In
    # d >= 2 a transform also holds one intermediate array between its axis
    # passes.
    psi_hat = np.fft.fftn(psi, axes=fft_axes)
    record(0, psi, psi_hat)
    rec_pos = 1
    psi_hat *= half
    psi = np.fft.ifftn(psi_hat, axes=fft_axes)
    del psi_hat

    for n in range(n_steps):
        # the potential factor dies with the multiply and the increment
        # right after it, so neither lives through the FFT pair or a record
        w_field = next(increments)
        if scheme == SCHEME_STRATONOVICH:
            psi *= _potential_phase(w_field, params.hbar, np.empty_like(psi))
        else:  # SCHEME_ITO_EULER; _run_quantum refuses any other scheme
            # psi = (1 - i dW/hbar) psi, into the factor's array.  A complex
            # product's rounding depends on its operand order, so the order
            # is fixed here, not left to NumPy's temporary elision, which
            # picks it by array size.
            factor = np.multiply(1j / params.hbar, w_field)
            np.subtract(1.0, factor, out=factor)
            psi = np.multiply(factor, psi, out=factor)
            del factor  # psi is then the array's only name, which the FFT drops
        del w_field

        psi_hat = np.fft.fftn(psi, axes=fft_axes)
        del psi
        if record_steps[rec_pos] == n + 1:
            record(rec_pos, np.fft.ifftn(psi_hat * half, axes=fft_axes), psi_hat)
            rec_pos += 1
        if n + 1 < n_steps:
            psi_hat *= full
            psi = np.fft.ifftn(psi_hat, axes=fft_axes)
            del psi_hat


def _run_quantum(grid, psi0, corr, params, t_max, dt, n_traj, seed, record_every, boundary_tol,
                 scheme, threads, batch_size, probe_k, colored):
    """The ensemble of :func:`run_continuum` and :func:`run_lattice`: its blocks
    fill one :class:`_Observables`, whose tables give every result field."""
    if grid.dim != params.dim:
        raise InputError(f"model has dim {params.dim}, grid has dim {grid.dim}")
    if np.shape(psi0) != grid.shape:
        raise InputError(f"psi0 has shape {np.shape(psi0)}, grid has shape {grid.shape}")
    if scheme not in (SCHEME_STRATONOVICH, SCHEME_ITO_EULER):
        raise InputError(f"unknown scheme {scheme!r}")
    if not boundary_tol >= 0:
        raise InputError(f"boundary_tol must be nonnegative (inf turns the monitor off), got {boundary_tol}")
    n_steps = step_count(t_max, dt)
    _check_counts(n_traj=n_traj, batch_size=batch_size)
    record_steps = _record_steps(n_steps, record_every)
    amplitude = spectral_amplitude(grid, corr, params)
    obs = _Observables(grid, params, n_traj, record_steps.size, probe_k)
    half = np.exp(-1j * obs.h0 * dt / (2.0 * params.hbar))
    full = half * half
    rows = _block_rows(math.prod(grid.shape))

    def work(trajs):
        # a block's trajectories draw, transform and measure as they would
        # in any batch, so the blocks fill the batch's rows as the batch would
        for block in _blocks(trajs, rows):
            _simulate_batch(block, obs, psi0, half, full, dt, n_steps, record_steps, seed, amplitude,
                            params, scheme, boundary_tol, colored)

    _run_batches(work, n_traj, batch_size, threads)
    msd_mean, msd_stderr = _mean_stderr(obs.msd)
    kp_mean = kp_err = None
    if obs.probes is not None:
        kp_mean = obs.probes.mean(axis=0)
        kp_err = (obs.probes.real.std(axis=0, ddof=1) + 1j * obs.probes.imag.std(axis=0, ddof=1)) / math.sqrt(n_traj)

    return EnsembleResult(
        times=record_steps * dt,
        msd_mean=msd_mean,
        msd_stderr=msd_stderr,
        energy_mean=_mean(obs.energy),
        n_traj=n_traj,
        per_traj_msd=obs.msd,
        norm_drift_max=float(np.max(np.abs(obs.norm - obs.norm[:, :1]))),
        boundary_mass_max=float(obs.boundary.max()),
        kspace_edge_max=None if obs.kedge is None else float(obs.kedge.max()),
        kernel_probe_mean=kp_mean,
        kernel_probe_stderr=kp_err,
    )


def run_continuum(grid: FieldGrid, psi0, corr, params: ModelParams, t_max, dt, n_traj, seed,
                  record_every=10, boundary_tol=1e-6, scheme=SCHEME_STRATONOVICH,
                  threads=DEFAULT_THREADS, batch_size=250, probe_k=None,
                  colored: ColoredKernel = None) -> EnsembleResult:
    """Ensemble of continuum trajectories under white (or colored) noise.

    ``psi0`` is an x-space array on the grid (see
    ``GaussianPureState.wavefunction``).  Each of at most ``threads`` workers
    takes a batch of ``batch_size`` trajectories at a time and steps it in
    blocks whose wavefunction array stays within 1 MiB (``TRAJ_GROUP``
    rows at least), so a worker's memory follows the grid, not
    ``batch_size``.  Each block writes its own rows of the ensemble's
    per-trajectory tables, so the results depend on neither.  The run
    aborts with :class:`BoxSizeError` when any trajectory's mass within
    the outermost grid shell exceeds ``boundary_tol`` (minimum-image
    distances stop being meaningful), and with :class:`StabilityError` on
    NaN.
    """
    if params.space is not Space.CONTINUUM:
        raise InputError("run_continuum requires continuum params")
    return _run_quantum(grid, psi0, corr, params, t_max, dt, n_traj, seed, record_every,
                        boundary_tol, scheme, threads, batch_size, probe_k, colored)


def run_lattice(grid: FieldGrid, psi0, corr, params: ModelParams, t_max, dt, n_traj, seed,
                record_every=10, boundary_tol=1e-6, scheme=SCHEME_STRATONOVICH,
                threads=DEFAULT_THREADS, batch_size=250, probe_k=None) -> EnsembleResult:
    """Ensemble of lattice trajectories (neighbour-sum kinetic dispersion),
    batched and stepped in blocks as in :func:`run_continuum`."""
    if params.space is not Space.LATTICE:
        raise InputError("run_lattice requires lattice params")
    if abs(grid.spacing - 1.0) > 1e-12:
        raise InputError("lattice grid must have unit spacing")
    return _run_quantum(grid, psi0, corr, params, t_max, dt, n_traj, seed, record_every,
                        boundary_tol, scheme, threads, batch_size, probe_k, None)


# steps of kicks drawn per Philox stream: the draws of step n are keyed
# (seed, KIND_CLASSICAL, trajectory group, n // _KICK_BLOCK), at row
# n % _KICK_BLOCK of the trajectory's rows of that stream.  Part of the
# stream definition (since rng.STREAM_VERSION 3).
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


def run_classical(corr, params: ModelParams, v0_init, t_max, dt, n_traj, seed,
                  grid: FieldGrid = None, record_every=10, threads=DEFAULT_THREADS,
                  batch_size=500) -> ClassicalResult:
    """Classical particle kicked by the white-noise force field, in ``params.dim`` dimensions.

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
    covariance, v0^2 (-Hess g)(0) dt up to the grid's resolution.  Each
    batch writes its own rows of the ensemble's (n_traj, records) MSD and
    velocity-variance tables.
    """
    n_steps = step_count(t_max, dt)
    _check_counts(n_traj=n_traj, batch_size=batch_size)
    record_steps = _record_steps(n_steps, record_every)
    dim = params.dim
    if grid is None:
        length = 16.0 * corr.correlation_length()
        n = 256 if dim == 1 else 64
        grid = FieldGrid.continuum(dim, n, length)
    elif grid.dim != dim:
        raise InputError(f"model has dim {dim}, grid has dim {grid.dim}")
    v0_init = np.broadcast_to(np.asarray(v0_init, dtype=float), (dim,))
    factor = _corner_kick_factor(grid, corr, params, dt)
    n_corners = 2**dim
    n_normals = factor.shape[0]

    msd = np.empty((n_traj, record_steps.size))
    vvar = np.empty((n_traj, record_steps.size))

    def work(trajs):
        B = len(trajs)
        rows = slice(trajs[0], trajs[-1] + 1)
        q = np.zeros((B, dim))
        v = np.tile(v0_init, (B, 1))
        msd[rows, 0] = np.sum(q**2, axis=1)
        vvar[rows, 0] = np.sum(v**2, axis=1)
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
            if record_steps[pos] == step + 1:
                msd[rows, pos] = np.sum(q**2, axis=1)
                vvar[rows, pos] = np.sum(v**2, axis=1)
                pos += 1
        nan = np.isnan(msd[rows])
        if nan.any():
            row = int(np.argmax(nan.any(axis=1)))
            t = record_steps[int(np.argmax(nan[row]))] * dt
            raise StabilityError(
                f"NaN in classical trajectory {trajs[row]} at t={t:.6g}; reduce time.dt (now {dt:g})"
            )

    _run_batches(work, n_traj, batch_size, threads)
    msd_mean, msd_stderr = _mean_stderr(msd)
    vvar_mean, vvar_stderr = _mean_stderr(vvar)
    return ClassicalResult(times=record_steps * dt, msd_mean=msd_mean, msd_stderr=msd_stderr,
                           vvar_mean=vvar_mean, vvar_stderr=vvar_stderr, n_traj=n_traj,
                           per_traj_msd=msd)


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


def colored_noise_convergence_study(nu_list, grid, init, corr, params, t_max, dt,
                                    n_traj, seed, record_every=10, window_frac=0.5,
                                    include_ito=False, boundary_tol=1e-4,
                                    threads=DEFAULT_THREADS, batch_size=250):
    """Deviation of colored-noise ensembles from the closed-form law.

    For each correlation half-width nu, runs the continuum ensemble from
    ``init.wavefunction(grid)`` with the triangular-kernel colored potential
    built from the *same* white
    increments (common random numbers across nu), and measures the
    per-trajectory mean relative deviation of the MSD from
    ``msd_closed_form`` over the trailing ``window_frac`` of the time
    range.  Rows are ordered: white endpoint first (nu = 0), then
    decreasing nu, then optionally the Euler-Maruyama negative control.
    """
    rows = []
    psi0 = init.wavefunction(grid)

    def deviation_row(label, nu, result):
        mask = result.times >= (1.0 - window_frac) * t_max
        ref = msd_closed_form(result.times[mask], init, corr, params).msd
        rel = (result.per_traj_msd[:, mask] - ref) / ref
        dev_per_traj = rel.mean(axis=1)
        dev = float(dev_per_traj.mean())
        se = float(dev_per_traj.std(ddof=1) / math.sqrt(result.n_traj))
        return StudyRow(label=label, nu=nu, deviation=dev, stderr=se, result=result)

    runs = [("white", 0.0, {})]
    runs += [(f"nu={nu:g}", float(nu), {"colored": ColoredKernel(float(nu))})
             for nu in sorted(nu_list, reverse=True)]
    if include_ito:
        runs.append(("ito-control", 0.0, {"scheme": SCHEME_ITO_EULER}))
    for label, nu, kw in runs:
        res = run_continuum(grid, psi0, corr, params, t_max, dt, n_traj, seed,
                            record_every=record_every, boundary_tol=boundary_tol,
                            threads=threads, batch_size=batch_size, **kw)
        rows.append(deviation_row(label, nu, res))

    return rows
