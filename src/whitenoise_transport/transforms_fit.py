"""Shared numerics: power-law fits, numerical Laplace transform and inversion.

The Laplace inversion is the fixed-parameter Talbot contour (Abate & Valko
variant); it is accurate to ~1e-10 relative for rational-like transforms in
double precision.  The transform direction uses adaptive quadrature on a
truncated domain with an explicit exponential tail bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, TruncationError

__all__ = [
    "FitResult",
    "fit_power_law",
    "laplace_transform_numeric",
    "inverse_laplace_numeric",
]

#: power-law fits drop values below this floor to avoid log singularities
FIT_FLOOR = 1e-12
#: the fewest points a power-law fit takes
MIN_FIT_POINTS = 8
#: how often a disagreeing Talbot time may double its node count (24 -> 48 -> 96 by default)
_MAX_DOUBLINGS = 2


@dataclass(frozen=True)
class FitResult:
    exponent: float
    coefficient: float
    window: tuple
    r_squared: float
    stderr_exponent: float
    n_points: int = 0

    def to_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "coefficient": self.coefficient,
            "window": list(self.window),
            "r2": self.r_squared,
            "stderr": self.stderr_exponent,
            "n_points": self.n_points,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _in_window(times, t_lo, t_hi):
    """The times a fit on the window [t_lo, t_hi] uses: the positive ones in it."""
    return (times >= t_lo) & (times <= t_hi) & (times > 0)


def fit_power_law(times, values=None, window=None) -> FitResult:
    """Least-squares fit of values ~ coefficient * t**exponent on a window.

    Accepts either two arrays ``(times, values)`` or any object with
    ``times`` and ``msd`` attributes.  The fit is ordinary least squares on
    (log t, log value); the exponent standard error comes from the residual
    variance.  Values <= 0 inside the window raise :class:`InputError`;
    positive values below ``FIT_FLOOR`` are excluded.
    """
    if values is None:
        series = times
        times, values = np.asarray(series.times, float), np.asarray(series.msd, float)
    else:
        times, values = np.asarray(times, float), np.asarray(values, float)
    if window is None:
        window = (float(times.min()), float(times.max()))
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise InputError(f"fit window must have t_lo < t_hi, got {window}")
    mask = _in_window(times, t_lo, t_hi)
    t, y = times[mask], values[mask]
    if np.any(y <= 0):
        raise InputError("nonpositive values inside the fit window")
    keep = y >= FIT_FLOOR
    t, y = t[keep], y[keep]
    n = t.size
    if n < MIN_FIT_POINTS:
        raise InputError(f"need at least {MIN_FIT_POINTS} points in the fit window, got {n}")

    x, z = np.log(t), np.log(y)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (z - z.mean())) / sxx)
    intercept = float(z.mean() - slope * xbar)
    resid = z - (slope * x + intercept)
    ssr = float(np.sum(resid**2))
    sst = float(np.sum((z - z.mean()) ** 2))
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    stderr = float(np.sqrt(ssr / (n - 2) / sxx)) if n > 2 else float("nan")
    return FitResult(
        exponent=slope,
        coefficient=float(np.exp(intercept)),
        window=(t_lo, t_hi),
        r_squared=r2,
        stderr_exponent=stderr,
        n_points=n,
    )


def _quad_complex(f, a, b, **kwargs):
    from scipy.integrate import quad

    re, re_err = quad(lambda t: f(t).real, a, b, **kwargs)
    im, im_err = quad(lambda t: f(t).imag, a, b, **kwargs)
    return re + 1j * im, re_err + im_err


def laplace_transform_numeric(f, s, t_max=None, tail_tol=1e-10, quad_tol=1e-12):
    """Evaluate integral_0^inf exp(-s t) f(t) dt for Re s > 0.

    ``f`` may be a callable or a ``(times, values)`` pair; series input is
    interpolated with a cubic spline on its sampled range.  The domain is
    truncated at ``t_max`` (chosen automatically for callables) and the
    remainder is bounded by ``sup |f| * exp(-Re s * T) / Re s``; if that
    bound cannot be pushed below ``tail_tol`` a :class:`TruncationError`
    is raised carrying the achieved bound.
    """
    s = complex(s)
    if s.real <= 0:
        raise InputError(f"Laplace transform needs Re s > 0, got {s}")

    if callable(f):
        func = f
        hard_limit = None
    else:
        times, values = f
        times = np.asarray(times, float)
        values = np.asarray(values, float)
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(times, values)
        func = spline
        hard_limit = float(times[-1])

    def tail_bound(T):
        probe = np.linspace(T, T + 5.0 / s.real, 32)
        if hard_limit is not None:
            probe = np.clip(probe, None, hard_limit)
        sup = float(np.max(np.abs(func(probe))))
        return sup * np.exp(-s.real * T) / s.real

    T = t_max if t_max is not None else min(40.0 / s.real, hard_limit or np.inf)
    if hard_limit is not None:
        T = min(T, hard_limit)
    for _ in range(60):
        bound = tail_bound(T)
        if bound <= tail_tol:
            break
        if hard_limit is not None and T >= hard_limit:
            raise TruncationError(
                f"series ends at t={hard_limit:.6g}; tail bound {bound:.3e} > {tail_tol:.1e}",
                achieved=bound,
            )
        T *= 2.0
    else:
        raise TruncationError(f"tail bound did not reach {tail_tol:.1e}", achieved=bound)

    # piecewise quadrature keeps the oscillatory exp(-st) factor resolved
    n_panels = int(np.clip(np.ceil(T * max(abs(s.imag), s.real) / 20.0), 1, 4096))
    edges = np.linspace(0.0, T, n_panels + 1)
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = _quad_complex(lambda t: np.exp(-s * t) * func(t), a, b, epsabs=quad_tol, epsrel=1e-11, limit=200)
        total += val
    return total


def _talbot(F, t, n_nodes):
    """Fixed Talbot rule with ``n_nodes`` nodes at each positive time in ``t``:
    its values, and their rounding bounds (M eps times the terms' sizes).

    The nodes of all times go to ``F`` in one flat complex array: per time
    the real node r, which carries the rule's half-weight head term, then
    the M - 1 contour nodes.
    """
    M = n_nodes
    r = 2.0 * M / (5.0 * t)
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    s = r[:, np.newaxis] * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    nodes = np.concatenate([r[:, np.newaxis].astype(complex), s], axis=1)
    Fs = np.asarray(F(nodes.ravel()))
    if Fs.shape != (nodes.size,):
        raise InputError(f"F must return one value per node: called on shape {(nodes.size,)}, "
                         f"returned shape {Fs.shape}")
    Fs = Fs.reshape(nodes.shape)
    terms = np.exp(t[:, np.newaxis] * s) * Fs[:, 1:] * (1.0 + 1j * sigma)
    head = 0.5 * np.exp(r * t) * Fs[:, 0].real
    parts = np.column_stack([head, terms.real])
    roundoff = np.finfo(float).eps * r * np.abs(parts).sum(axis=1)  # M eps (r / M) sum |part|
    return (r / M) * np.array([math.fsum(row) for row in parts.tolist()]), roundoff


def inverse_laplace_numeric(F, t_list, n_nodes=24, rtol=1e-9, atol=1e-11):
    """Invert a Laplace transform on positive times via the Talbot contour.

    ``F`` must be analytic to the right of (and on) the contour; rational
    transforms with poles on the nonpositive real axis are the intended use.
    ``F`` is called on a 1-D complex array of nodes and must return an
    array of the same shape (one value per node); a result of another
    shape raises :class:`InputError`.  It is called once per node count,
    on the nodes of all the times that still need that count.
    The default node count of 24 sits at the double-precision optimum: the
    contour's exp(2M/5) factor amplifies roundoff, so more nodes eventually
    hurt (for values of order one the error is ~1e-12 at 20-24 nodes and
    ~1e-8 at 48).
    Each time is cross-checked against an evaluation with 4 fewer nodes,
    which sits at the same optimum; a 16-node cross-check can carry
    ~1e-11 of truncation error of its own.  On disagreement the count is
    doubled, for the disagreeing times only, up to ``_MAX_DOUBLINGS`` times,
    each doubled value cross-checked against the previous one.  A time
    whose gap does not shrink on doubling is past the roundoff optimum and
    stops there, keeping its best (smallest-gap) value; a time that ends
    with its best gap outside tolerance raises :class:`NumericalError` for
    the first such time, with that gap as the achieved estimate.
    Rules whose contours all pass left of a singularity of ``F`` agree on
    a wrong value.  A contour scales as M / t, so the first doubling pass
    also takes the latest time if it is not doubled anyway; if the doubled
    value differs from the kept one by more than the tolerance plus the
    doubled rule's rounding bound, that time fails (its value is kept).
    """
    t_arr = np.atleast_1d(np.asarray(t_list, dtype=float))
    if np.any(t_arr <= 0):
        raise InputError("Talbot inversion requires t > 0")
    if n_nodes < 8:
        raise InputError(f"Talbot inversion needs n_nodes >= 8, got {n_nodes}")
    M = n_nodes
    coarse, _ = _talbot(F, t_arr, M - 4)
    val, _ = _talbot(F, t_arr, M)
    gap = np.abs(val - coarse)

    def _outside(value, gap):
        # a NaN gap counts as outside
        return ~(gap - rtol * np.abs(value) - atol <= 0)

    todo = np.flatnonzero(_outside(val, gap))
    last = int(np.argmax(t_arr))
    check = None if last in todo else last
    for _ in range(_MAX_DOUBLINGS):
        if todo.size == 0 and check is None:
            break
        M *= 2
        new, roundoff = _talbot(F, t_arr[todo if check is None else np.append(todo, check)], M)
        if check is not None:
            miss = abs(new[-1] - val[check])
            if _outside(val[check], miss - roundoff[-1]):
                gap[check] = miss
            new, check = new[:-1], None
        new_gap = np.abs(new - val[todo])
        shrunk = new_gap < gap[todo]
        todo = todo[shrunk]
        val[todo], gap[todo] = new[shrunk], new_gap[shrunk]
        todo = todo[_outside(val[todo], gap[todo])]
    failed = np.flatnonzero(_outside(val, gap))
    if failed.size:
        i = failed[0]
        raise NumericalError(
            f"Talbot inversion did not converge at t={t_arr[i]:.6g} (gap {gap[i]:.3e})",
            achieved=float(gap[i]),
        )
    return val if np.ndim(t_list) else float(val[0])
