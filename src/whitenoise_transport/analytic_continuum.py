"""Closed-form disorder-averaged kernel and moments on the continuum.

Change variables to X = x + x', Y = x - x' and Fourier transform the
averaged density kernel in X with the convention

    K(k, Y, t) = integral exp(i k . X) <rho(x', x, t)> dX.

The averaged evolution is then a first-order transport equation in Y whose
characteristics are straight lines, giving the exact solution

    K(k, Y, t) = K(k, Y - (2 hbar t / m) k, 0) * exp(phase(k, t; k0=Y))

with the nonpositive phase

    phase(k, t) = -(v0/hbar)^2 [ g(0) t - integral_0^t g(k0 - (2 hbar s/m) k) ds ].

Moments of position follow from k-derivatives at k = 0:

    <|x|^2>(t) = -(1/2**(d+2)) Laplacian_k K(k, 0, t) | k=0.

Note K(0, 0, 0) = 2**d * Tr(rho_0) under this convention (X = 2x on the
diagonal); every 2**d factor in this module follows from that bookkeeping,
see docs/conventions.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import ModelParams, _read_csv, _write_csv, laplacian_g_at_zero
from .errors import InputError, NumericalError

#: absolute tolerance of the quadratures in :func:`phase` and :func:`laplace_kernel_1d`
_QUAD_TOL = 1e-10
__all__ = [
    "GaussianPureState",
    "MomentSeries",
    "phase",
    "kernel_hat",
    "msd_closed_form",
    "msd_by_kernel_differences",
    "cubic_coefficient",
    "laplace_kernel_1d",
]


@dataclass(frozen=True)
class MomentSeries:
    """Mean-square displacement vs time."""

    times: np.ndarray
    msd: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.msd, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "msd", m)
        if t.shape != m.shape:
            raise InputError("times and msd must have matching shapes")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise InputError("times must be strictly increasing")
        if m.size and np.min(m) < -1e-12 * max(float(np.max(np.abs(m))), 1.0):
            raise InputError("msd must be nonnegative")

    def to_csv(self, path_or_buf):
        """CSV ``t,msd`` (see ``core_model._write_csv``)."""
        _write_csv(path_or_buf, ("t", "msd"), (self.times, self.msd))

    @classmethod
    def from_csv(cls, path_or_buf):
        """Read ``t,msd,...`` back: columns 0 and 1, whatever their names (see ``core_model._read_csv``)."""
        data = _read_csv(path_or_buf, "series", ("t", "msd"), header=True)
        return cls(times=data[:, 0], msd=data[:, 1])


class GaussianPureState:
    """Product Gaussian wavepacket, one width per axis, zero momentum.

    psi(x) ~ prod_j exp(-x_j^2 / (4 sigma_j^2)); the initial kernel in the
    module's transform convention is

        K(k, Y, 0) = trace * 2**d * prod_j exp(-Y_j^2/(8 sigma_j^2) - 2 sigma_j^2 k_j^2).
    """

    def __init__(self, sigma, dim=None, trace=1.0):
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        if dim is not None and sigma.size == 1:
            sigma = np.full(dim, sigma[0])
        if dim is not None and sigma.size != dim:
            raise InputError(f"sigma must have 1 or dim = {dim} entries, got {sigma.size}")
        if np.any(sigma <= 0):
            raise InputError(f"sigma must be positive, got {sigma}")
        if not trace > 0:
            raise InputError(f"trace must be positive, got {trace}")
        self.sigma = sigma
        self.dim = sigma.size
        self.trace = float(trace)

    def kernel_at(self, k, Y):
        """Initial kernel K(k, Y, 0) at one point or at a stack of points.

        ``k`` and ``Y`` have a trailing axis of length d (broadcast against
        each other); the result has their leading shape, a scalar for one
        point.  The kernel is real for this state.
        """
        k = np.atleast_1d(np.asarray(k, dtype=float))
        Y = np.atleast_1d(np.asarray(Y, dtype=float))
        expo = -np.sum(Y**2 / (8 * self.sigma**2) + 2 * self.sigma**2 * k**2, axis=-1)
        return self.trace * (2.0**self.dim) * np.exp(expo)

    def wavefunction(self, grid):
        """The Monte Carlo psi0 on ``grid``: the product Gaussian at unit norm in
        the grid measure times sqrt(trace), so norm^2 is the closed form's trace."""
        if grid.dim != self.dim:
            raise InputError(f"initial state has dim {self.dim}, grid has dim {grid.dim}")
        axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij")
        expo = sum(a**2 / (4.0 * s**2) for a, s in zip(axes, self.sigma))
        psi = np.exp(-expo).astype(complex)
        w = grid.spacing**grid.dim
        psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * w))
        return psi * math.sqrt(self.trace)

    def free_msd(self, t, params: ModelParams):
        """Free-spreading law sum_j [sigma_j^2 + (hbar t / (2 m sigma_j))^2]."""
        t = np.asarray(t, dtype=float)
        c = (params.hbar / (2 * params.mass * self.sigma)) ** 2
        return self.trace * (np.sum(self.sigma**2) + np.sum(c) * t**2)


def phase(k, t, corr, params: ModelParams, k0=None) -> float:
    """Nonpositive phase controlling decay of the averaged kernel.

    phase(k, t) = -(v0/hbar)^2 [g(0) t - integral_0^t g(k0 - (2 hbar s/m) k) ds],
    with the line integral done by adaptive quadrature (abs tol ``_QUAD_TOL``)
    and k0 = 0 unless given.  phase(0, t) = 0 when k0 = 0; phase <= 0 (g peaks at 0).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    k0 = np.zeros_like(k) if k0 is None else np.atleast_1d(np.asarray(k0, dtype=float))
    if k0.shape != k.shape:
        raise InputError(f"k and k0 must have the same shape, got {k.shape} vs {k0.shape}")
    if t < 0:
        raise InputError(f"t must be nonnegative, got {t}")
    if params.v0 == 0.0 or t == 0.0:
        return 0.0
    c = 2.0 * params.hbar / params.mass
    g0 = float(corr.g(np.zeros_like(k)))

    if np.all(k == 0.0) and np.all(k0 == 0.0):
        return 0.0

    def integrand(s):
        return float(corr.g(k0 - (c * s) * k))

    from scipy.integrate import quad

    val, err = quad(integrand, 0.0, t, epsabs=_QUAD_TOL, epsrel=1e-12, limit=400)
    if err > max(_QUAD_TOL * 10, 1e-8 * abs(val)):
        raise NumericalError(f"phase quadrature reached only abs error {err:.3e}", achieved=err)
    return -params.coupling * (g0 * t - val)


def kernel_hat(k, Y0, t, init, corr, params: ModelParams) -> complex:
    """Averaged kernel K(k, Y0, t) via the characteristic solution."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    Y0 = np.atleast_1d(np.asarray(Y0, dtype=float))
    shift = Y0 - (2.0 * params.hbar * t / params.mass) * k
    ph = phase(k, t, corr, params, k0=Y0)
    return init.kernel_at(k, shift) * np.exp(ph)


def _laplacian_k(func, dim, step: float):
    """Richardson-extrapolated central second differences summed over axes.

    Steps ``step``, step/2 and step/4 per axis; two extrapolation levels give
    an O(h^6) estimate of sum_j d^2 f / dk_j^2 at k = 0, where ``func`` maps
    one k-point of shape ``(dim,)`` to a value.
    """
    f0 = func(np.zeros(dim))
    total = 0.0
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        d_vals = [(func(h * e) - 2.0 * f0 + func(-h * e)) / (h * h) for h in (step, step / 2, step / 4)]
        r1a = (4.0 * d_vals[1] - d_vals[0]) / 3.0
        r1b = (4.0 * d_vals[2] - d_vals[1]) / 3.0
        total = total + (16.0 * r1b - r1a) / 15.0
    return total


def _fd_base_step(params: ModelParams, t: float, t_max: float) -> float:
    # keeps the characteristic shift (2 hbar t/m) k below 1e-2 at time t;
    # the floor at t_max/50 stops roundoff from dominating the second
    # differences at small t
    t_eff = max(t, 0.02 * t_max, 1e-12)
    return 1e-2 * params.mass / (2.0 * params.hbar * t_eff)


def cubic_coefficient(init, corr, params: ModelParams) -> float:
    """Coefficient of t^3 in the closed-form mean-square displacement.

    Exact for zero-momentum initial states: the phase Hessian at k = 0 is
    (v0/hbar)^2 (2 hbar/m)^2 Hess g(0) t^3/3, so the cubic term is
    -(1/(3 * 2**(d+2))) (2 v0/m)^2 (Lap g)(0) K(0,0,0).
    """
    d = params.dim
    lap_g = laplacian_g_at_zero(corr)
    k000 = init.kernel_at(np.zeros(d), np.zeros(d)).real
    return -(1.0 / (3.0 * 2.0 ** (d + 2))) * (2.0 * params.v0 / params.mass) ** 2 * lap_g * k000


def _check_dims(init, corr, params: ModelParams):
    for name, obj in (("initial state", init), ("correlation", corr)):
        if getattr(obj, "dim", params.dim) != params.dim:
            raise InputError(f"{name} has dim {obj.dim}, model has dim {params.dim}")


def msd_closed_form(times, init, corr, params: ModelParams) -> MomentSeries:
    """Mean-square displacement from the closed-form kernel, an exact law.

    The initial kernel's part of the k-Laplacian is the free spreading of
    the initial state (``init.free_msd``), and the phase's part is exactly
    cubic in t (:func:`cubic_coefficient`).  The two add because
    grad_k phase(0, t) = 0 (evenness of g).
    """
    times = np.asarray(times, dtype=float)
    _check_dims(init, corr, params)
    msd = init.free_msd(times, params) + cubic_coefficient(init, corr, params) * times**3
    return MomentSeries(times=times, msd=msd)


def msd_by_kernel_differences(times, init, corr, params: ModelParams) -> MomentSeries:
    """Mean-square displacement by pure finite differences of kernel_hat.

    Independent of the analytic phase differentiation in
    :func:`msd_closed_form`; used as a consistency oracle.
    """
    times = np.asarray(times, dtype=float)
    _check_dims(init, corr, params)
    d = params.dim
    norm = 1.0 / 2.0 ** (d + 2)
    t_max = float(times.max())
    msd = np.empty_like(times)
    for i, t in enumerate(times):
        base = _fd_base_step(params, t, t_max)
        lap = _laplacian_k(lambda k: kernel_hat(k, np.zeros(d), t, init, corr, params), d, base).real
        msd[i] = -norm * lap
    return MomentSeries(times=times, msd=msd)


def laplace_kernel_1d(k, s, init, corr, params: ModelParams) -> complex:
    """Laplace transform (in t) of kernel_hat(k, 0, .) in one dimension.

    Evaluates the integral representation
    integral_0^inf exp(-s z + phase(k, z)) K(k, -2 hbar k z/m, 0) dz
    by adaptive quadrature; requires Re s > 0.
    """
    if params.dim != 1:
        raise InputError("laplace_kernel_1d is the one-dimensional special case")
    s = complex(s)
    if s.real <= 0:
        raise InputError(f"need Re s > 0, got {s}")
    k = float(np.atleast_1d(k)[0])
    c = 2.0 * params.hbar / params.mass

    def f(z):
        ph = phase(k, z, corr, params)
        return np.exp(-s * z + ph) * init.kernel_at(np.array([k]), np.array([-c * k * z]))

    from scipy.integrate import quad

    upper = min(60.0 / s.real, np.inf)
    re, re_err = quad(lambda z: f(z).real, 0.0, upper, epsabs=_QUAD_TOL, epsrel=1e-11, limit=400)
    im, im_err = quad(lambda z: f(z).imag, 0.0, upper, epsabs=_QUAD_TOL, epsrel=1e-11, limit=400)
    if re_err + im_err > 1e-7 * max(abs(re + 1j * im), _QUAD_TOL):
        raise NumericalError(f"Laplace-kernel quadrature error {re_err + im_err:.3e}",
                             achieved=re_err + im_err)
    return re + 1j * im
