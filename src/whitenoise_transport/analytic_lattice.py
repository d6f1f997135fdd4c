"""Laplace-domain moment algebra on the lattice.

The transformed averaged kernel obeys, axis by axis, a closed recursion at
k = 0 in which each k-derivative couples to nearest Y-shifts of the one
below.  Writing h(Y, s) = s + gamma(Y) with the dephasing rate
gamma(Y) = (v0/hbar)^2 [g(0) - g(Y)] (h(0, s) = s exactly), the chain

    h(Y, s) M0 = K(0, Y, 0)
    h(Y, s) M1_m = c1 [M0(Y - e_m) - M0(Y + e_m)] + d_m K(0, Y, 0)
    s       M2_m(0) = 2 c1 [M1_m(-e_m) - M1_m(e_m)] + d_m^2 K(0, 0, 0)

closes after two steps (c1 = hbar/m).  Every route starts the particle on
one unit-norm site, K(0, Y, 0) = delta(Y): the chain's other initial
probes vanish, and the transform of the second-moment sum is exactly
(2 c1)^2 sum_m 1/(s^2 (s + Gamma_m)), Gamma_m = gamma(e_m).
It inverts in closed form; its long-time slope defines the diffusion
constant, and a vanishing Gamma_m short-circuits to the ballistic branch.
The rates come from ``core_model.dephasing_rate``, and a rate at or below
``_ZERO_GAMMA`` is the one test of a vanishing rate (:data:`BALLISTIC`).

Normalization caveat: these expressions are the raw k-Laplacian of the
transformed kernel.  The physical mean-square displacement on the lattice
is -(1/4) of it (diagonal sites have X = 2x and the sum has no volume
Jacobian); the deterministic evolution route measures that constant, see
docs/conventions.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import ModelParams, dephasing_rate
from .errors import InputError, PoleError

__all__ = [
    "BALLISTIC",
    "LatticeMomentInputs",
    "LatticeMSDLaw",
    "laplace_msd",
    "msd_inverse_laplace_closed_form",
    "diffusion_constant",
    "law_payload",
]


class _Ballistic:
    def __repr__(self):
        return "BALLISTIC"


#: returned where a vanishing dephasing rate makes the motion ballistic
BALLISTIC = _Ballistic()


@dataclass(frozen=True)
class LatticeMomentInputs:
    """Everything the point-start moment chain needs at k = 0: ``c1`` =
    hbar/m and the per-axis dephasing rates ``gamma`` = Gamma_m, one per
    lattice axis.  The start is one unit-norm site, K(0, 0, 0) = 1."""

    c1: float
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, dtype=float)))

    @classmethod
    def point_localized(cls, corr, params: ModelParams):
        """Particle initially at one site: K(0, Y, 0) = delta(Y), trace 1."""
        gamma = dephasing_rate(corr, params, np.eye(params.dim))
        return cls(c1=params.hbar / params.mass, gamma=np.maximum(gamma, 0.0))


def laplace_msd(s, inputs: LatticeMomentInputs):
    """-sum_m d^2/dk_m^2 of the transformed kernel at (k, Y) = (0, 0).

    The point-start chain: M1_m(-e_m) - M1_m(e_m) = -2 c1 / (s h(e_m, s))
    and s M2_m(0) is 2 c1 times that.  Real at real s.  Poles:
    s = 0 and s = -Gamma_m.

    ``s`` may be a scalar, which gives a ``complex``, or an array of any
    shape, which gives a complex array of that shape: each point is
    broadcast against the per-axis rates and summed over the axes.  A pole
    at any point raises :class:`PoleError`.
    """
    s = np.asarray(s, dtype=complex)
    s_col = s[..., np.newaxis]  # trailing axis runs over the lattice axes m
    c1 = inputs.c1
    h1 = s_col + inputs.gamma
    pole = (s == 0) | np.any(h1 == 0, axis=-1)
    if np.any(pole):
        raise PoleError(f"laplace_msd evaluated at a pole: s={s[pole][0]}, gamma={inputs.gamma}")

    m1_diff = c1 * -(2.0 / s_col) / h1
    s_m2 = 2.0 * c1 * m1_diff
    total = -(np.sum(s_m2, axis=-1) / s)
    return complex(total) if total.ndim == 0 else total


# a dephasing rate at or below this is zero: that axis is ballistic
_ZERO_GAMMA = 1e-14


@dataclass(frozen=True)
class LatticeMSDLaw:
    """Closed-form inverse transform of the leading Laplace-domain term.

    law(t) = cd * sum_m [exp(-Gamma_m t)/Gamma_m^2 + t/Gamma_m - 1/Gamma_m^2],
    with a t^2/2 branch for axes with Gamma_m = 0.  Short times
    (t << 1/Gamma) look ballistic, long times (t >> 1/Gamma) diffusive.
    """

    cd: float
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, dtype=float)))

    @classmethod
    def from_inputs(cls, inputs: LatticeMomentInputs):
        return cls(cd=(2.0 * inputs.c1) ** 2, gamma=inputs.gamma)

    @property
    def t_ballistic_below(self) -> float:
        gmax = float(np.max(self.gamma, initial=0.0))
        return 0.05 / gmax if gmax > 0 else np.inf

    @property
    def t_diffusive_above(self) -> float:
        g_pos = self.gamma[self.gamma > _ZERO_GAMMA]
        return 10.0 / float(np.min(g_pos)) if g_pos.size else np.inf


def msd_inverse_laplace_closed_form(t, law: LatticeMSDLaw):
    """Evaluate the lattice law at nonnegative times (vectorised)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InputError("t must be nonnegative")
    out = np.zeros(np.shape(t))
    for g in law.gamma:
        if g <= _ZERO_GAMMA:
            out = out + 0.5 * t**2  # ballistic channel
        else:
            out = out + np.exp(-g * t) / g**2 + t / g - 1.0 / g**2
    result = law.cd * out
    return result if np.ndim(t) else float(result)


def diffusion_constant(law: LatticeMSDLaw):
    """Cd * sum_m 1/Gamma_m = (2 hbar/m)^2 * sum_m 1/Gamma_m, or BALLISTIC if any Gamma_m = 0.

    Strictly positive whenever the disorder is on and every axis dephases.
    """
    gamma = law.gamma
    if np.any(gamma <= _ZERO_GAMMA):
        return BALLISTIC
    return float(law.cd * np.sum(1.0 / gamma))


def law_payload(law: LatticeMSDLaw) -> dict:
    """{Cd, gamma[], D or "ballistic"}, ready for a JSON writer."""
    d = diffusion_constant(law)
    return {
        "Cd": law.cd,
        "gamma": [float(g) for g in law.gamma],
        "D": "ballistic" if d is BALLISTIC else d,
    }
