"""Gaussian random fields with prescribed spatial covariance.

White-in-time noise is handled through its increments: the integral of the
potential over one step ``[t, t + dt)`` is a Gaussian field with spatial
covariance ``v0^2 g(x - x') dt``.  The instantaneous potential is never
formed (it has infinite variance); split-step propagators consume the
increments directly.

Sampling is spectral: a field with exact stationary covariance on the
periodic grid is obtained by filtering white noise with the square root of
the covariance's discrete Fourier transform, at O(N log N) per increment.

Colored noise with a triangular temporal kernel of half-width ``nu`` is the
box-filter moving average of white increments over the last ``q = nu / dt``
steps.  The filter is linear, so :class:`ColoredStream` keeps the running
sum of the raw unit normals over that window and filters the sum once per
sample.  White and colored paths draw from separate purpose lanes
(``KIND_FIELD`` and ``KIND_FIELD_COLORED``), so one seed gives them
independent randomness; colored paths of different ``nu`` share their
increments.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core_model import ModelParams
from .errors import CovarianceError, InputError, ResolutionError
from .rng import KIND_FIELD_COLORED, SeedInfo, normals

__all__ = [
    "FieldGrid",
    "NoiseIncrement",
    "ColoredKernel",
    "spectral_amplitude",
    "sample_white_increment",
    "sample_colored_path",
    "write_field",
    "read_field",
]


@dataclass(frozen=True)
class FieldGrid:
    """Periodic sampling grid: ``points_per_side**dim`` sites.

    Continuum grids carry a physical side length; lattice grids have unit
    spacing.  points_per_side must be a power of two (spectral sampling).
    """

    dim: int
    points_per_side: int
    side_length: float

    def __post_init__(self):
        n = self.points_per_side
        if n < 2 or (n & (n - 1)) != 0:
            raise InputError(f"points_per_side must be a power of two, got {n}")
        if self.dim < 1:
            raise InputError(f"dim must be >= 1, got {self.dim}")
        if not (self.side_length > 0):
            raise InputError(f"side_length must be positive, got {self.side_length}")

    @classmethod
    def continuum(cls, dim, points_per_side, side_length):
        return cls(dim=dim, points_per_side=points_per_side, side_length=float(side_length))

    @classmethod
    def lattice(cls, dim, points_per_side):
        return cls(dim=dim, points_per_side=points_per_side, side_length=float(points_per_side))

    @property
    def spacing(self) -> float:
        return self.side_length / self.points_per_side

    @property
    def shape(self) -> tuple:
        return (self.points_per_side,) * self.dim

    @property
    def total_sites(self) -> int:
        return self.points_per_side**self.dim

    def axis_coords(self) -> np.ndarray:
        """Minimum-image site coordinates along one axis, centred on 0."""
        n = self.points_per_side
        idx = np.arange(n)
        return ((idx + n // 2) % n - n // 2) * self.spacing

    def separations(self) -> np.ndarray:
        """Array of minimum-image separation vectors, shape ``shape + (dim,)``."""
        axes = np.meshgrid(*[self.axis_coords() for _ in range(self.dim)], indexing="ij")
        return np.stack(axes, axis=-1)


@dataclass(frozen=True)
class NoiseIncrement:
    """Integrated potential over one step; covariance v0^2 g(x-x') dt."""

    values: np.ndarray
    dt: float
    seed_info: SeedInfo


def spectral_amplitude(grid: FieldGrid, corr, params: ModelParams, neg_tol=1e-8) -> np.ndarray:
    """Square root of the DFT of the covariance sequence on the grid.

    The covariance sequence is ``v0^2 g`` sampled at minimum-image
    separations (for correlations short compared to the box this equals the
    periodised covariance).  A spectral value below ``-neg_tol * max`` is a
    hard error naming the offending mode; small negative roundoff is
    clipped to zero.  A correlation of another dimension than the grid's
    is an :class:`InputError`.
    """
    if corr.dim != grid.dim:
        raise InputError(f"correlation has dim {corr.dim}, grid has dim {grid.dim}")
    cov = params.v0**2 * np.asarray(corr.g(grid.separations()), dtype=float)
    spec = np.fft.fftn(cov).real
    smax = float(spec.max())
    smin = float(spec.min())
    if smin < -neg_tol * max(smax, 1e-300):
        mode = np.unravel_index(int(np.argmin(spec)), spec.shape)
        raise CovarianceError(
            f"negative spectral density {smin:.3e} at mode {mode} "
            f"(min/max = {smin / smax:.3e}); correlation is not positive definite on this grid"
        )
    # enforce exact evenness and kill roundoff-level entries: sqrt of
    # asymmetric near-zero values would break the Hermitian symmetry that
    # keeps sampled fields real
    flipped = spec
    for ax in range(spec.ndim):
        flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
    spec = 0.5 * (spec + flipped)
    spec[spec < 1e-13 * smax] = 0.0
    return np.sqrt(spec)


def sample_white_increment(grid: FieldGrid, corr, params: ModelParams, dt: float, seed_info: SeedInfo,
                           amplitude=None) -> NoiseIncrement:
    """Draw one white-in-time increment with covariance v0^2 g(.) dt.

    Reproducible: the draw is a pure function of ``seed_info``.  Passing a
    precomputed ``amplitude`` (from :func:`spectral_amplitude`) skips the
    covariance transform, which matters inside propagation loops.
    """
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    if amplitude is None:
        amplitude = spectral_amplitude(grid, corr, params)
    xi = normals(seed_info.seed, seed_info.kind, [seed_info.traj], seed_info.step, grid.shape)
    values = _filter_white_batch(xi, amplitude)[0] * math.sqrt(dt)
    return NoiseIncrement(values=values, dt=dt, seed_info=seed_info)


@dataclass(frozen=True)
class ColoredKernel:
    """Triangular temporal correlation kernel, support [-nu, nu], unit mass.

    Realised by box-filtering white increments: the moving average
    ``(W(t) - W(t - nu)) / nu`` has temporal autocovariance exactly
    ``(nu - |u|)+ / nu^2``, i.e. the triangular bump.
    """

    nu: float

    def __post_init__(self):
        if not self.nu > 0:
            raise InputError(f"nu must be positive, got {self.nu}")

    def h(self, u):
        u = np.asarray(u, dtype=float)
        return np.clip(self.nu - np.abs(u), 0.0, None) / self.nu**2

    def width_steps(self, dt: float) -> int:
        if self.nu < dt - 1e-12 * dt:
            raise ResolutionError(f"kernel width nu={self.nu} is below the step dt={dt}")
        q = int(round(self.nu / dt))
        if abs(q * dt - self.nu) > 1e-9 * self.nu:
            raise ResolutionError(f"nu={self.nu} must be an integer multiple of dt={dt}")
        return q

    def discrete_samples(self, dt: float) -> np.ndarray:
        """h at multiples of dt; sums to 1/dt exactly (unit mass * dt)."""
        q = self.width_steps(dt)
        return self.h(np.arange(-q, q + 1) * dt)


# step-counter offset for colored paths: lets warm-up increments (negative
# step indices) share absolute indexing across different nu
_COLORED_STEP_OFFSET = 1 << 31


def sample_colored_path(grid: FieldGrid, corr, params: ModelParams, kernel: ColoredKernel,
                        n_steps: int, dt: float, seed_info: SeedInfo, amplitude=None):
    """Snapshots V(x, t_n), n = 0..n_steps-1, of the colored potential.

    Covariance: ``v0^2 g(x - x') h_nu(t - t')``.  The path is stationary
    from t = 0 (warm-up increments are drawn at negative step indices).
    The underlying white increments depend only on (seed, traj, absolute
    step), so paths with different ``nu`` share their noise source.  The
    path is the one-trajectory :class:`ColoredStream`.
    """
    stream = ColoredStream(grid, corr, params, kernel, dt, seed_info.seed, [seed_info.traj],
                           amplitude=amplitude)
    out = np.empty((n_steps,) + grid.shape)
    for n in range(n_steps):
        out[n] = stream.current()[0]
        if n < n_steps - 1:
            stream.advance()
    return out


class ColoredStream:
    """Streaming colored potential for a batch of trajectories.

    Keeps the box-filter window of raw unit normals in memory (q arrays of
    shape ``(batch,) + grid.shape``, as :func:`~.rng.normals` returns them)
    and their running sum S_n in an array of its own.  The filter is
    linear, so the potential ``V_n = filter(S_n) sqrt(dt) / nu`` is the
    moving average of the filtered white increments; it costs one spectral
    filter per sample, made by the first :meth:`current` after each
    :meth:`advance` and none in the warm-up.  The normals come from their
    own purpose lane at absolute step indices, so each trajectory's path
    does not depend on the batch it is streamed in, and streams with
    different ``nu`` share their noise source.
    """

    def __init__(self, grid, corr, params, kernel: ColoredKernel, dt, seed, traj_indices,
                 amplitude=None, kind=None):
        self._grid = grid
        self._seed = int(seed)
        self._trajs = list(traj_indices)
        self._kind = KIND_FIELD_COLORED if kind is None else kind
        self._amp = spectral_amplitude(grid, corr, params) if amplitude is None else amplitude
        self._scale = math.sqrt(float(dt)) / kernel.nu
        q = kernel.width_steps(dt)
        self._window = [self._normals(j) for j in range(-q, 0)]
        # the sum is an array of its own: it must not alias a window entry
        self._sum = self._window[0].copy()
        for xi in self._window[1:]:
            self._sum += xi
        self._next_step = 0
        self._current = None

    def _normals(self, step_index):
        xi = normals(self._seed, self._kind, self._trajs, step_index + _COLORED_STEP_OFFSET,
                     self._grid.shape)
        # a view of whole drawn groups would keep the rows outside the batch alive
        return xi if xi.base is None or xi.base.size == xi.size else xi.copy()

    def current(self) -> np.ndarray:
        """Potential V(x, t_n) for the step about to be taken (read-only)."""
        if self._current is None:
            self._current = _filter_white_batch(self._sum, self._amp) * self._scale
            self._current.flags.writeable = False
        return self._current

    def advance(self):
        new = self._normals(self._next_step)
        self._sum += new
        self._sum -= self._window.pop(0)
        self._window.append(new)
        self._next_step += 1
        self._current = None


def _filter_white_batch(xi: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
    """Filter a batch of unit white fields (leading axis: the batch) so each
    field's covariance DFT equals ``amplitude**2``.

    ``amplitude`` is even (see :func:`spectral_amplitude`), so the filtered
    spectrum of a real field is Hermitian and the real-FFT pair over the
    last-axis half of the modes gives the real field directly.
    """
    axes = tuple(range(1, xi.ndim))
    half = amplitude[..., : amplitude.shape[-1] // 2 + 1]
    return np.fft.irfftn(np.fft.rfftn(xi, axes=axes) * half, s=xi.shape[1:], axes=axes)


_MAGIC = b"QTNF"
_HEADER = struct.Struct("<4sIId12x")  # magic, dim, points_per_side, dt; 32 bytes total


def write_field(path, values: np.ndarray, grid=None, dt: float = 0.0, dim=None, points_per_side=None):
    """Dump a sampled field: 32-byte header then little-endian float64.

    Complex arrays are stored as interleaved (real, imag) pairs in the
    trailing axis; the header layout is ``<4s I I d`` plus 12 padding
    bytes.  Pass either a grid-like object (``dim`` / ``points_per_side``
    attributes) or the two values directly - the format itself puts no
    power-of-two constraint on the side, so kernel snapshots on odd boxes
    use the same files.
    """
    if grid is not None:
        dim, points_per_side = grid.dim, grid.points_per_side
    if dim is None or points_per_side is None:
        raise InputError("write_field needs a grid or explicit dim/points_per_side")
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        arr = np.stack([arr.real, arr.imag], axis=-1)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, dim, points_per_side, float(dt)))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_field(path):
    """Read a field dump; returns (values, dim, points_per_side, dt)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        magic, dim, n, dt = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise InputError(f"{path}: bad magic {magic!r}")
        flat = np.frombuffer(fh.read(), dtype="<f8")
    per_field = n**dim
    if flat.size == per_field:
        return flat.reshape((n,) * dim).copy(), dim, n, dt
    return flat.reshape((n,) * dim + (-1,)).copy(), dim, n, dt
