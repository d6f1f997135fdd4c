"""Physical parameters and spatial correlation functions.

The disorder is a mean-zero Gaussian potential, uncorrelated in time and
correlated in space through an even correlation function ``g``.  Everything
downstream (closed-form kernels, deterministic evolution, Monte Carlo)
consumes the two objects defined here: :class:`ModelParams` and a
correlation object (:class:`GaussianCorrelation` or
:class:`TabulatedCorrelation`).  The lattice law and evolution take their
dephasing rate from :func:`dephasing_rate`, and every time-stepping driver
its steps and record schedule from :func:`step_count` and ``_record_steps``.
Every data CSV the package writes goes through ``_write_csv``.

The admissibility conditions on ``g`` are checked numerically by
:func:`validate_hypotheses`: evenness, vanishing gradient at the origin,
negative-definite Hessian at the origin, and a nonnegative sampled spectrum
(so the field can actually be realised as a stationary Gaussian process).
"""

from __future__ import annotations

import contextlib
import csv
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError

__all__ = [
    "Space",
    "ModelParams",
    "GaussianCorrelation",
    "TabulatedCorrelation",
    "HypothesisReport",
    "validate_hypotheses",
    "laplacian_g_at_zero",
    "load_correlation_csv",
    "step_count",
    "dephasing_rate",
]


def step_count(t_max, dt) -> int:
    """Number of steps dt in t_max: at least one, and a whole number.

    ``t_max / dt`` more than 1e-9 relative from an integer is an
    :class:`InputError`, not a run of a rounded length.
    """
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt!r}")
    if not t_max >= dt:
        raise InputError(f"t_max must be at least dt = {dt!r}, got {t_max!r}")
    if not math.isfinite(t_max):
        raise InputError(f"t_max must be finite, got {t_max!r}")
    ratio = t_max / dt
    n = round(ratio)
    if abs(ratio - n) > 1e-9 * ratio:
        raise InputError(f"t_max = {t_max!r} is not a whole number of steps dt = {dt!r} "
                         f"(t_max / dt = {ratio!r})")
    return n


def _check_counts(**counts):
    """Reject counts (trajectories, batch size, record gap) that are not positive integers."""
    for name, val in counts.items():
        if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < 1:
            raise InputError(f"{name} must be a positive integer, got {val!r}")


def _record_steps(n_steps: int, record_every) -> np.ndarray:
    """The record schedule [0, r, 2r, ..., n_steps] of a run of ``n_steps`` steps.

    ``record_every`` = r must be a positive integer (an :class:`InputError`
    otherwise); the last step is recorded whether or not r divides it.
    """
    _check_counts(record_every=record_every)
    steps = np.arange(0, n_steps + 1, record_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps


def _minimum_image(n: int) -> np.ndarray:
    """Integer offsets of the n sites of a periodic axis from site 0, each
    taken as its nearest periodic image: 0, 1, ..., then -(n // 2), ..., -1."""
    return (np.arange(n) + n // 2) % n - n // 2


def _on_some_axis(flags, dim: int) -> np.ndarray:
    """Boolean mask over a ``dim``-D cube of side ``len(flags)``: the sites
    whose index along some axis is flagged in the 1-D ``flags``."""
    return np.logical_or.reduce(np.meshgrid(*[flags] * dim, indexing="ij"))


def _open_text(path_or_buf, mode):
    """A path opened as text in ``mode`` ("r" or "w", LF line ends), or an
    open buffer as is, left open after the ``with``."""
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        return open(path_or_buf, mode, newline="\n" if mode == "w" else "")
    return contextlib.nullcontext(path_or_buf)


def _read_csv(path_or_buf, what, names, header):
    """Columns 0 and 1 of a numeric CSV, whatever the columns after them, as
    an (n, 2) array, from a path or an open text buffer.

    ``header`` skips the first row; blank rows and rows whose first cell
    starts with ``#`` are skipped.  An unreadable file, a non-numeric or
    non-finite cell, a row of fewer than two columns or no data row is an
    :class:`InputError` naming the ``what`` read and its two column ``names``.
    """
    try:
        with _open_text(path_or_buf, "r") as fh:
            reader = csv.reader(fh)
            if header:
                next(reader, None)
            rows = [[float(v) for v in row] for row in reader if row and not row[0].strip().startswith("#")]
    except OSError as exc:
        raise InputError(f"cannot read {what} {path_or_buf}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"{what} {path_or_buf}: {exc}") from None
    if not rows:
        raise InputError(f"{what} {path_or_buf}: no data rows")
    if min(len(row) for row in rows) < 2:
        raise InputError(f"{what} {path_or_buf}: every row needs two columns, {names[0]} and {names[1]}")
    data = np.asarray([row[:2] for row in rows], dtype=float)
    if not np.all(np.isfinite(data)):
        raise InputError(f"{what} {path_or_buf}: a {names[0]} or {names[1]} cell is not finite")
    return data


def _write_csv(path_or_buf, header, columns):
    """The CSV of ``columns`` under the names ``header``: 17-significant-digit
    decimals and LF line ends, to a path or an open text buffer."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    table = np.column_stack(columns)
    with _open_text(path_or_buf, "w") as fh:
        fh.write(",".join(header) + "\n")
        # one format operation over the whole table, row-major
        fh.write((line * len(table)) % tuple(table.ravel().tolist()))


class Space(Enum):
    CONTINUUM = "continuum"
    LATTICE = "lattice"


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model.

    hbar, mass > 0; v0 >= 0 is the disorder strength (v0 = 0 exercises the
    ballistic limit); dim >= 1; space selects continuum or lattice kinetics.
    """

    hbar: float = 1.0
    mass: float = 1.0
    v0: float = 1.0
    dim: int = 1
    space: Space = Space.CONTINUUM

    def __post_init__(self):
        if not (self.hbar > 0):
            raise InputError(f"hbar must be positive, got {self.hbar}")
        if not (self.mass > 0):
            raise InputError(f"mass must be positive, got {self.mass}")
        if not (self.v0 >= 0):
            raise InputError(f"v0 must be nonnegative, got {self.v0}")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise InputError(f"dim must be a positive integer, got {self.dim}")
        if not isinstance(self.space, Space):
            raise InputError(f"space must be a Space enum, got {self.space!r}")

    @property
    def coupling(self) -> float:
        """(v0 / hbar)**2, the rate scale of disorder-induced decay."""
        return (self.v0 / self.hbar) ** 2


class GaussianCorrelation:
    """g(x) = exp(-x^T A x) for a symmetric positive-definite matrix A.

    Gradient and Hessian at the origin are analytic.  The Fourier transform
    is a Gaussian, hence positive, so this family always defines a valid
    correlation.
    """

    def __init__(self, matrix):
        try:
            A = np.atleast_2d(np.asarray(matrix, dtype=float))
        except (TypeError, ValueError) as exc:
            raise InputError(f"correlation matrix must be a rectangular array of numbers: {exc}") from None
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError(f"correlation matrix must be square, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise InputError("correlation matrix must be finite")
        if not np.allclose(A, A.T, atol=1e-12):
            raise InputError("correlation matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(A)
        if eigvals.min() <= 0:
            raise InputError(f"correlation matrix must be positive definite, eigenvalues {eigvals}")
        self.matrix = A
        self.dim = A.shape[0]
        self._eigvals = eigvals

    def g(self, x):
        x = np.asarray(x, dtype=float)
        if self.dim == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            x = x[..., None]  # scalars / flat batches in one dimension
        quad = np.einsum("...i,ij,...j->...", x, self.matrix, x)
        return np.exp(-quad)

    def grad0(self):
        """The gradient of g at the origin: zero, as g is even."""
        return np.zeros(self.dim)

    def hess0(self):
        """The Hessian of g at the origin, -2 A."""
        return -2.0 * self.matrix

    def correlation_length(self) -> float:
        return 1.0 / np.sqrt(self._eigvals.min())

    def table_extent(self) -> float:
        # distance at which g has decayed to ~1e-14
        return 6.0 * self.correlation_length()


class TabulatedCorrelation:
    """Correlation given by samples on a uniform 1-d grid, used radially.

    The table is symmetrised (g <- (g(x) + g(-x)) / 2) before interpolation;
    the largest change this makes is recorded in ``symmetrization_delta``.
    Evaluation uses a cubic spline in ``r = |x|`` with an even extension, so
    g(-x) = g(x) holds exactly.  The Hessian at the origin comes from a
    central second difference on the interpolant.
    """

    def __init__(self, x, values, dim=1):
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape or x.size < 4:
            raise InputError("tabulated correlation needs matching 1-d arrays with >= 4 samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(values))):
            raise InputError("tabulated correlation samples must be finite")
        order = np.argsort(x)
        x, values = x[order], values[order]
        dx = np.diff(x)
        if not np.allclose(dx, dx[0], rtol=1e-8, atol=1e-12):
            raise InputError("tabulated correlation requires a uniform grid")

        # even symmetrisation on the sampled values
        sym = 0.5 * (values + np.interp(-x, x, values, left=np.nan, right=np.nan))
        inside = ~np.isnan(sym)
        self.symmetrization_delta = float(np.max(np.abs(sym[inside] - values[inside]), initial=0.0))
        values = np.where(inside, sym, values)

        # fit over the full symmetric domain (a half-grid spline would put a
        # boundary right at the origin and kink the radial evaluation);
        # evaluation then uses |x|, which makes evenness exact
        from scipy.interpolate import CubicSpline

        self._spline = CubicSpline(x, values, bc_type="natural")
        pos = x >= 0
        self._r = x[pos]
        self._v = values[pos]
        self.dim = int(dim)
        self._rmax = float(min(x[-1], -x[0]))
        self._fd_step = max(1e-4, float(dx[0]) / 8.0)

    def _radial(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r > self._rmax * (1 + 1e-12)):
            raise InputError(
                f"tabulated correlation evaluated at r={float(np.max(r)):.6g} "
                f"outside table range [0, {self._rmax:.6g}]"
            )
        return self._spline(np.minimum(r, self._rmax))

    def g(self, x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.sum(x * x, axis=-1)) if x.ndim and x.shape[-1] == self.dim else np.abs(x)
        return self._radial(r)

    def grad0(self):
        """The gradient of g at the origin: zero, as the evaluation is radial."""
        return np.zeros(self.dim)

    def hess0(self):
        """The Hessian of g at the origin: g is radial, so every axis has the
        same central second difference and the mixed ones vanish."""
        h = self._fd_step
        second = (self._radial(h) - 2 * self._radial(0.0) + self._radial(h)) / h**2
        return np.diag(np.full(self.dim, second))

    def correlation_length(self) -> float:
        # scale over which the table drops by 1/e, fallback to table extent
        v0 = self._radial(0.0)
        below = np.nonzero(self._v <= v0 / np.e)[0]
        return float(self._r[below[0]]) if below.size else float(self._rmax)

    def table_extent(self) -> float:
        return float(self._rmax)


def load_correlation_csv(path_or_buf, dim=1) -> TabulatedCorrelation:
    """Load a two-column (x, g) CSV with no header (see ``_read_csv``) into a tabulated correlation."""
    table = _read_csv(path_or_buf, "correlation table", ("x", "g"), header=False)
    return TabulatedCorrelation(table[:, 0], table[:, 1], dim=dim)


def dephasing_rate(corr, params: ModelParams, Y):
    """Dephasing rate (v0/hbar)^2 [g(0) - g(Y)] at the points ``Y`` (trailing axis of length d).

    An axis m whose rate at Y = e_m vanishes is ballistic on the lattice.  A
    correlation of another dimension than the model's, or a rate below
    -1e-13 max(|g(0)|, 1) (g rising away from the origin), is an
    :class:`InputError`.
    """
    if corr.dim != params.dim:
        raise InputError(f"model has dim {params.dim}, correlation has dim {corr.dim}")
    g0 = float(corr.g(np.zeros(params.dim)))
    rate = params.coupling * (g0 - np.asarray(corr.g(Y), dtype=float))
    if np.any(rate < -1e-13 * max(abs(g0), 1.0)):
        raise InputError("g(0) < g(Y) at some Y: correlation increases away from the origin")
    return rate


@dataclass(frozen=True)
class HypothesisReport:
    """Per-hypothesis pass/fail with diagnostics."""

    even: bool
    gradient_at_zero: bool
    hessian_negative_definite: bool
    spectrum_nonnegative: bool
    diagnostics: dict

    @property
    def passed(self) -> bool:
        return self.even and self.gradient_at_zero and self.hessian_negative_definite and self.spectrum_nonnegative

    def summary(self) -> str:
        rows = [
            ("evenness g(x) = g(-x)", self.even, f"max asymmetry {self.diagnostics['max_asymmetry']:.3e}"),
            ("gradient vanishes at 0", self.gradient_at_zero, f"|grad g(0)| = {self.diagnostics['grad_norm']:.3e}"),
            (
                "Hessian at 0 negative definite",
                self.hessian_negative_definite,
                f"eigenvalues {np.array2string(self.diagnostics['hessian_eigenvalues'], precision=6)}",
            ),
            (
                "sampled spectrum nonnegative",
                self.spectrum_nonnegative,
                f"min(spectrum)/max(spectrum) = {self.diagnostics['spectrum_min_ratio']:.3e}",
            ),
        ]
        lines = [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in rows]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _spectrum_has_negative_mode(smin: float, smax: float) -> bool:
    """The one sign test of a sampled spectrum (validate and the Monte Carlo
    spectrum): min below -1e-8 max, or NaN; relative, as v0 carries g's scale."""
    return not smin >= -1e-8 * max(smax, 1e-300)


def _spectrum_samples(corr, params: ModelParams):
    """g on a periodic cube holding the ball |x| <= table_extent() (of that
    half-side on the continuum, of unit spacing and >= 64 sites on the lattice),
    zero outside the ball, where g is negligible or, for a table, unknown."""
    d, extent = params.dim, corr.table_extent()
    if params.space is Space.LATTICE:
        n = max(64, 2 * int(extent) + 2)
        spacing = 1.0
    else:
        n = {1: 512, 2: 128}.get(d, 32)
        spacing = 2.0 * extent / n
    coords = np.stack(np.meshgrid(*[_minimum_image(n) * spacing] * d, indexing="ij"), axis=-1)
    inside = np.sum(coords**2, axis=-1) <= extent**2
    samples = np.zeros((n,) * d)
    samples[inside] = corr.g(coords[inside])
    return samples


def validate_hypotheses(corr, params: ModelParams) -> HypothesisReport:
    """Numerically check the admissibility of a correlation function.

    Checks, in order: evenness on a random probe set around the origin,
    vanishing gradient at 0, negative-definite Hessian at 0, and
    nonnegativity of the sampled Fourier transform of g on the ball of g's
    own extent, not a run's box (a Monte Carlo route checks its own box when
    it builds its spectrum).  Deterministic: the probes use a fixed seed.
    """
    d = params.dim
    if corr.dim != d:
        raise InputError(f"correlation has dim {corr.dim}, model has dim {d}")
    rng = np.random.default_rng(20240117)
    scale = min(corr.correlation_length(), corr.table_extent() / 2.0)
    probes = rng.uniform(-scale, scale, size=(64, d))

    g_plus = np.asarray(corr.g(probes), dtype=float)
    g_minus = np.asarray(corr.g(-probes), dtype=float)
    max_asym = float(np.max(np.abs(g_plus - g_minus)))
    g0 = float(corr.g(np.zeros(d)))
    even_ok = max_asym <= 1e-10 * max(abs(g0), 1.0)

    grad_norm = float(np.linalg.norm(corr.grad0()))
    grad_ok = grad_norm <= 1e-10

    hess0 = corr.hess0()
    eigvals = np.linalg.eigvalsh(0.5 * (hess0 + hess0.T))
    hess_ok = bool(np.all(eigvals < -1e-12))

    spectrum = np.fft.fftn(_spectrum_samples(corr, params)).real
    smax = float(spectrum.max())
    smin = float(spectrum.min())
    ratio = smin / smax if smax > 0 else smin
    spectrum_ok = not _spectrum_has_negative_mode(smin, smax)

    return HypothesisReport(
        even=even_ok,
        gradient_at_zero=grad_ok,
        hessian_negative_definite=hess_ok,
        spectrum_nonnegative=spectrum_ok,
        diagnostics={
            "max_asymmetry": max_asym,
            "grad_norm": grad_norm,
            "hessian_eigenvalues": eigvals,
            "spectrum_min": smin,
            "spectrum_max": smax,
            "spectrum_min_ratio": ratio,
            "probe_scale": scale,
        },
    )


def laplacian_g_at_zero(corr) -> float:
    """Trace of the Hessian of g at the origin (negative for admissible g)."""
    return float(np.trace(corr.hess0()))
