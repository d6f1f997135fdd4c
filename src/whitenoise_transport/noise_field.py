"""Gaussian random fields with prescribed spatial covariance.

White-in-time noise is handled through its increments: the integral of the
potential over one step ``[t, t + dt)`` is a Gaussian field with spatial
covariance ``v0^2 g(x - x') dt``.  The instantaneous potential is never
formed (it has infinite variance); split-step propagators consume the
increments directly.  :func:`field_increments` is the one place where a
step's integrated potential is formed, for white and colored noise alike.

Sampling is spectral and draws the spectrum itself (circulant embedding,
Dietrich & Newsam 1997): each nonzero mode of the last-axis half of the
covariance's square-root spectrum takes one complex unit normal, scaled by
that amplitude, and one inverse real FFT gives a field with the exact
stationary covariance on the periodic grid, at O(N log N) per increment.
Modes where a smooth correlation's spectrum has died off are not drawn
(see :class:`HalfSpectrum`).

Colored noise with a triangular temporal kernel of half-width ``nu`` is the
box-filter moving average of white increments over the last ``q = nu / dt``
steps.  The synthesis is linear, so :class:`ColoredStream` keeps the running
sum of the drawn k-space normals over that window and synthesises the sum
once per sample.  White and colored fields draw from separate purpose lanes
(``KIND_FIELD`` and ``KIND_FIELD_COLORED``), so one seed gives them
independent randomness; colored fields of different ``nu`` share their
increments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core_model import ModelParams, _minimum_image, _spectrum_has_negative_mode
from .errors import CovarianceError, InputError, ResolutionError
from .rng import KIND_FIELD, KIND_FIELD_COLORED, normals

__all__ = [
    "FieldGrid",
    "ColoredKernel",
    "spectral_amplitude",
    "HalfSpectrum",
    "field_increments",
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

    def axis_coords(self) -> np.ndarray:
        """Minimum-image site coordinates along one axis, centred on 0."""
        return _minimum_image(self.points_per_side) * self.spacing

    def separations(self) -> np.ndarray:
        """Array of minimum-image separation vectors, shape ``shape + (dim,)``."""
        axes = np.meshgrid(*[self.axis_coords() for _ in range(self.dim)], indexing="ij")
        return np.stack(axes, axis=-1)


def spectral_amplitude(grid: FieldGrid, corr, params: ModelParams) -> np.ndarray:
    """Square root of the DFT of the covariance sequence on the grid.

    The covariance sequence is ``v0^2 g`` sampled at minimum-image
    separations (for correlations short compared to the box this equals the
    periodised covariance).  A spectral value below ``-1e-8 * max``
    (``core_model._spectrum_has_negative_mode``) is a hard error naming the
    offending mode; small negative roundoff is clipped to zero.  A
    correlation of another dimension than the grid's is an :class:`InputError`.
    """
    if corr.dim != grid.dim:
        raise InputError(f"correlation has dim {corr.dim}, grid has dim {grid.dim}")
    cov = params.v0**2 * np.asarray(corr.g(grid.separations()), dtype=float)
    spec = np.fft.fftn(cov).real
    smax = float(spec.max())
    smin = float(spec.min())
    if _spectrum_has_negative_mode(smin, smax):
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


class HalfSpectrum:
    """The drawn modes of a field: the nonzero modes of the last-axis half of
    an amplitude from :func:`spectral_amplitude`, and their scales.

    ``support`` holds the flat C-order indices of those modes in the half
    spectrum, ``scale`` the factor of each: ``amplitude * sqrt(N^d / 2) *
    gain``, times a further sqrt(2) on the planes k_last in {0, N/2}, of
    which ``irfftn`` keeps only the Hermitian part, which halves their
    variance.  A field takes ``n_normals = 2 * support.size`` unit normals,
    the (re, im) pair of each mode in support order; the field then has
    covariance DFT ``(amplitude * gain)**2`` exactly.  Zero modes are not
    drawn, so an empty support (v0 = 0) draws nothing and gives zeros.
    """

    def __init__(self, amplitude: np.ndarray, gain: float):
        n = amplitude.shape[-1]
        half = amplitude[..., : n // 2 + 1]
        self.shape = amplitude.shape
        self.half_shape = half.shape
        self.support = np.flatnonzero(half)
        k_last = self.support % half.shape[-1]
        self.scale = half.ravel()[self.support] * (math.sqrt(amplitude.size / 2.0) * gain)
        self.scale[(k_last == 0) | (k_last == n // 2)] *= math.sqrt(2.0)
        self.n_normals = 2 * self.support.size
        # each normal's factor and its slot in the float view of the half spectrum
        self._floats = 2 * half.size
        self._normal_scale = np.repeat(self.scale, 2)
        first = 2 * self.support
        self._slots = np.stack([first, first + 1], axis=-1).ravel()

    def normals(self, seed, kind, trajs, step) -> np.ndarray:
        """The unit normals of the fields of ``trajs`` at one step, shape
        ``(len(trajs), n_normals)``; nothing is drawn for an empty support."""
        if not self.n_normals:
            return np.zeros((len(trajs), 0))
        return normals(seed, kind, trajs, step, (self.n_normals,))


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

    def width_steps(self, dt: float) -> int:
        if self.nu < dt - 1e-12 * dt:
            raise ResolutionError(f"kernel width nu={self.nu} is below the step dt={dt}")
        q = int(round(self.nu / dt))
        if abs(q * dt - self.nu) > 1e-9 * self.nu:
            raise ResolutionError(f"nu={self.nu} must be an integer multiple of dt={dt}")
        return q


# step-counter offset for colored paths: lets warm-up increments (negative
# step indices) share absolute indexing across different nu
_COLORED_STEP_OFFSET = 1 << 31


class ColoredStream:
    """Streaming colored potential for a batch of trajectories, on the
    spectrum ``amplitude`` of :func:`spectral_amplitude`.

    Keeps the box-filter window of drawn k-space normals in memory (q
    arrays of shape ``(batch, n_normals)``, as :meth:`HalfSpectrum.normals`
    returns them) and their running sum S_n in an array of its own.  The
    synthesis is linear, so the potential ``V_n = synthesis(S_n) sqrt(dt) /
    nu`` is the moving average of the white increments; it costs one
    synthesis per sample, made by the first :meth:`current` after each
    :meth:`advance` and none in the warm-up.  The normals come from their
    own purpose lane at absolute step indices, so each trajectory's path
    does not depend on the batch it is streamed in, and streams with
    different ``nu`` share their noise source.
    """

    def __init__(self, amplitude: np.ndarray, kernel: ColoredKernel, dt, seed, traj_indices):
        self._seed = int(seed)
        self._trajs = list(traj_indices)
        self._spectrum = HalfSpectrum(amplitude, math.sqrt(float(dt)) / kernel.nu)
        q = kernel.width_steps(dt)
        self._window = [self._normals(j) for j in range(-q, 0)]
        # the sum is an array of its own: it must not alias a window entry
        self._sum = self._window[0].copy()
        for z in self._window[1:]:
            self._sum += z
        self._next_step = 0
        self._current = None

    def _normals(self, step_index):
        z = self._spectrum.normals(self._seed, KIND_FIELD_COLORED, self._trajs,
                                   step_index + _COLORED_STEP_OFFSET)
        # a view of whole drawn groups would keep the rows outside the batch alive
        return z if z.base is None or z.base.size == z.size else z.copy()

    def current(self) -> np.ndarray:
        """Potential V(x, t_n) for the step about to be taken (read-only)."""
        if self._current is None:
            self._current = _filter_white_batch(self._sum, self._spectrum)
            self._current.flags.writeable = False
        return self._current

    def advance(self):
        new = self._normals(self._next_step)
        self._sum += new
        self._sum -= self._window.pop(0)
        self._window.append(new)
        self._next_step += 1
        self._current = None


def field_increments(amplitude: np.ndarray, dt: float, seed, trajs, colored: ColoredKernel = None):
    """Generator whose n-th ``next()`` is step n's integrated potential of
    the fields of ``trajs`` on the spectrum ``amplitude``, a new array of
    shape ``(len(trajs),) + amplitude.shape``: the ``KIND_FIELD`` white
    increment, or under ``colored`` the midpoint rule ``0.5 (V_n + V_{n+1})
    dt`` of a :class:`ColoredStream`.  The spectrum or stream is built by
    this call, not at the first ``next()``.
    """
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt!r}")
    trajs = list(trajs)
    if colored is None:
        white = HalfSpectrum(amplitude, math.sqrt(dt))
        return (_filter_white_batch(white.normals(seed, KIND_FIELD, trajs, n), white)
                for n in itertools.count())
    return _midpoints(ColoredStream(amplitude, colored, dt, seed, trajs), dt)


def _midpoints(stream: ColoredStream, dt):
    while True:
        v_now = stream.current()
        stream.advance()
        yield 0.5 * (v_now + stream.current()) * dt


def _filter_white_batch(z: np.ndarray, spectrum: HalfSpectrum) -> np.ndarray:
    """Fields from unit normals drawn as ``spectrum``'s modes (leading axis:
    the batch): scale the (re, im) pairs, scatter them into a zero half
    spectrum and take one ``irfftn``.  Each field's covariance DFT is
    ``(amplitude * gain)**2`` (see :class:`HalfSpectrum`)."""
    batch = z.shape[0]
    coeffs = np.zeros((batch, spectrum._floats))
    coeffs[:, spectrum._slots] = z * spectrum._normal_scale
    half = coeffs.view(complex).reshape((batch,) + spectrum.half_shape)
    return np.fft.irfftn(half, s=spectrum.shape, axes=tuple(range(1, half.ndim)))

