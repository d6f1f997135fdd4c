"""Deterministic time-domain evolution of the averaged lattice kernel.

Two routes share the Y-box machinery (odd side, periodic, minimum-image):

* :func:`evolve_hierarchy` integrates the closed moment hierarchy at k = 0
  (kernel, first and second k-derivatives per axis).  The hierarchy is the
  time-domain form of the Laplace moment chain - multiplication by
  h(Y, s) becomes d/dt + gamma(Y) - and is exact in k: no truncation error
  enters the mean-square displacement.

* :func:`evolve_full_kernel` evolves the transformed kernel at fixed k
  under the averaged Liouvillian -gamma(Y) + (hbar/m) sum_j sin(k_j) D_j,
  with D_j = S_j(-1) - S_j(+1) the symmetric Y-difference; the hierarchy's
  generator is its k-derivatives at k = 0.  D_j is antisymmetric, so the
  free evolution (v0 = 0) is exactly unitary in the Y lattice norm.

Both read K(k, Y) = sum_X exp(i k.X) <x'|rho|x> with Y = x - x', the
orientation of docs/conventions.md and ``kernel_hat``; D_j alone fixes it.

Both use classical RK4 with a fixed step.  Both systems are linear with
constant coefficients, y' = A y, so one RK4 step is exactly the linear map

    P = I + hA (I + hA/2 (I + hA/3 (I + hA/4))),

the degree-4 Taylor polynomial of exp(hA).  A is built once as a sparse
matrix over the flattened state (:class:`_Sparse`, coalesced COO triplets
in plain numpy); :class:`_StepOperator` forms P.  The hierarchy raises P to
the step gap between records by binary squaring, so each record costs one
sparse product; its powers keep P's sparsity, because gamma is diagonal and
the m0 -> m1 -> m2 chain is nilpotent.  The kernel's powers fill the box,
so that route applies P once per step.

Mean-square displacement is extracted as -(1/4) Re sum_m m2_m(Y=0, t): on
the diagonal X = 2x, so the k-Laplacian counts |2x|^2 (the recorded
convention; see docs/conventions.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic_continuum import MomentSeries
from .core_model import ModelParams, _minimum_image, _on_some_axis, _record_steps, dephasing_rate, step_count
from .errors import BoxSizeError, InputError, StabilityError

__all__ = [
    "LatticeInitialData",
    "gamma_on_box",
    "evolve_hierarchy",
    "evolve_full_kernel",
    "MSD_KLAPLACIAN_FACTOR",
]

#: physical MSD = MSD_KLAPLACIAN_FACTOR * (-sum_m m2_m(0, t))
MSD_KLAPLACIAN_FACTOR = 0.25


def gamma_on_box(corr, params: ModelParams, side: int) -> np.ndarray:
    """Dephasing rate (v0/hbar)^2 [g(0) - g(Y)] over the Y-box."""
    axes = np.meshgrid(*[_minimum_image(side)] * params.dim, indexing="ij")
    return dephasing_rate(corr, params, np.stack(axes, axis=-1).astype(float))


@dataclass
class LatticeInitialData:
    """Initial moment data over the Y-box: m0 = K(0, Y, 0) and per-axis
    first/second k-derivative arrays."""

    m0: np.ndarray
    m1: np.ndarray  # shape (d,) + box
    m2: np.ndarray  # shape (d,) + box
    side: int
    dim: int

    @classmethod
    def point(cls, dim: int, side: int):
        """Particle localized at one site: m0 = delta(Y), derivatives 0."""
        if side % 2 == 0 or side < 5:
            raise InputError(f"Y-box side must be odd and >= 5, got {side}")
        shape = (side,) * dim
        m0 = np.zeros(shape, dtype=complex)
        m0[(0,) * dim] = 1.0  # index 0 is Y = 0 in minimum-image layout
        return cls(m0=m0, m1=np.zeros((dim,) + shape, dtype=complex),
                   m2=np.zeros((dim,) + shape, dtype=complex), side=side, dim=dim)


class _Sparse:
    """Square sparse matrix over the flattened state, as COO triplets.

    The triplets are kept coalesced: one entry per (row, col), sorted by the
    key ``row * n + col``, duplicates summed in that fixed order.  Entries
    that sum to zero stay, so ``nnz`` counts the structure, not the values.
    """

    def __init__(self, n: int, rows, cols, vals):
        key = np.asarray(rows, dtype=np.int64) * n + np.asarray(cols, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        key, vals = key[order], np.asarray(vals)[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        self.n = n
        self.rows, self.cols = np.divmod(key[starts], n)
        self.vals = np.add.reduceat(vals, starts)
        self._layout = None

    @classmethod
    def diag(cls, values):
        values = np.ravel(values)
        idx = np.arange(values.size)
        return cls(values.size, idx, idx, values)

    @classmethod
    def blocks(cls, n_blocks: int, entries):
        """Block matrix from ``{(block_row, block_col): square block}``."""
        m = next(iter(entries.values())).n
        return cls(n_blocks * m,
                   np.concatenate([b.rows + i * m for (i, _), b in entries.items()]),
                   np.concatenate([b.cols + j * m for (_, j), b in entries.items()]),
                   np.concatenate([b.vals for b in entries.values()]))

    @property
    def nnz(self) -> int:
        return self.vals.size

    def __add__(self, other):
        return _Sparse(self.n, np.r_[self.rows, other.rows], np.r_[self.cols, other.cols],
                       np.r_[self.vals, other.vals])

    def _with_vals(self, vals):
        """The same coalesced structure with other values, not sorted again."""
        out = object.__new__(_Sparse)
        out.n, out.rows, out.cols, out.vals, out._layout = self.n, self.rows, self.cols, vals, None
        return out

    def __rmul__(self, scalar):
        return self._with_vals(scalar * self.vals)

    def __truediv__(self, scalar):
        return self._with_vals(self.vals / scalar)

    def __matmul__(self, other):
        if not isinstance(other, _Sparse):
            coef, idx = self._fixed_width()
            return (coef * other[idx]).sum(axis=0)
        # each entry (i, k, a) of self meets row k of other: (i, j, a * b)
        start = np.searchsorted(other.rows, np.arange(self.n + 1))
        counts = (start[1:] - start[:-1])[self.cols]
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1]) + np.repeat(start[self.cols] - ends + counts, counts)
        return _Sparse(self.n, np.repeat(self.rows, counts), other.cols[pos],
                       np.repeat(self.vals, counts) * other.vals[pos])

    def _fixed_width(self):
        """(coef, idx) of shape (K, n), K the longest row: row i of the
        product with y is ``sum_k coef[k, i] * y[idx[k, i]]``; short rows are
        padded with zero coefficients on their own index."""
        if self._layout is None:
            counts = np.bincount(self.rows, minlength=self.n)
            slot = np.arange(self.nnz) - np.repeat(np.cumsum(counts) - counts, counts)
            coef = np.zeros((counts.max(), self.n), dtype=self.vals.dtype)
            idx = np.tile(np.arange(self.n), (coef.shape[0], 1))
            coef[slot, self.rows] = self.vals
            idx[slot, self.rows] = self.cols
            self._layout = coef, idx
        return self._layout


def _difference(side: int, dim: int, axis: int) -> _Sparse:
    """D_j on the C-order flattened periodic box: (D_j y)[Y] = y[Y - e_axis] - y[Y + e_axis]."""
    n = side**dim
    sites = np.arange(n).reshape((side,) * dim)
    cols = np.r_[np.roll(sites, 1, axis=axis).ravel(), np.roll(sites, -1, axis=axis).ravel()]
    return _Sparse(n, np.tile(np.arange(n), 2), cols, np.r_[np.ones(n), -np.ones(n)])


def _hierarchy_generator(gamma: np.ndarray, c1: float) -> _Sparse:
    """Real generator of the k = 0 hierarchy over [m0, m1_1..m1_d, m2_1..m2_d]:

    m0' = -gamma m0,  m1_j' = c1 D_j m0 - gamma m1_j,  m2_j' = 2 c1 D_j m1_j - gamma m2_j,

    the k-derivatives at k = 0 of :func:`_kernel_generator`'s equation.
    """
    d, side = gamma.ndim, gamma.shape[0]
    decay = _Sparse.diag(-gamma)
    blocks = {(0, 0): decay}
    for j in range(d):
        diff = _difference(side, d, j)
        blocks[1 + j, 0] = c1 * diff
        blocks[1 + j, 1 + j] = decay
        blocks[1 + d + j, 1 + j] = 2.0 * c1 * diff
        blocks[1 + d + j, 1 + d + j] = decay
    return _Sparse.blocks(2 * d + 1, blocks)


def _kernel_generator(gamma: np.ndarray, c: float, k) -> _Sparse:
    """Real generator of the transformed kernel at fixed k: -gamma + c sum_j sin(k_j) D_j."""
    d, side = gamma.ndim, gamma.shape[0]
    A = _Sparse.diag(-gamma)
    for j in range(d):
        A = A + (c * np.sin(k[j])) * _difference(side, d, j)
    return A


class _StepOperator:
    """Classical RK4 for y' = A y as one sparse linear map P, with its
    powers P^r (binary squaring) cached per step gap r."""

    def __init__(self, A: _Sparse, dt: float):
        eye = _Sparse.diag(np.ones(A.n, dtype=A.vals.dtype))
        hA = dt * A
        P = eye + hA / 4.0
        for j in (3.0, 2.0, 1.0):
            P = eye + (hA @ P) / j
        self._squares = [P]  # P^(2^i)
        self._powers = {}

    def power(self, r: int) -> _Sparse:
        """P^r for r >= 1."""
        if r not in self._powers:
            result, bit = None, 0
            while r >> bit:
                if bit == len(self._squares):
                    self._squares.append(self._squares[-1] @ self._squares[-1])
                if (r >> bit) & 1:
                    sq = self._squares[bit]
                    result = sq if result is None else result @ sq
                bit += 1
            self._powers[r] = result
        return self._powers[r]

    def propagate(self, y, record_steps):
        """Yield (n, state after n steps) for each n of the increasing ``record_steps``."""
        done = 0
        for n in record_steps:
            if n > done:
                y = self.power(n - done) @ y
                done = n
            yield n, y


def _check_dt(params: ModelParams, gamma_max: float, dt: float):
    limit = 0.1 * min(params.mass / params.hbar, 1.0 / gamma_max if gamma_max > 0 else np.inf)
    if dt > limit * (1 + 1e-12):
        raise StabilityError(f"dt={dt} exceeds stability limit {limit:.4g}; reduce evolve.dt")


def evolve_hierarchy(init: LatticeInitialData, corr, params: ModelParams, t_max: float, dt: float,
                     record_every: int = 1, boundary_tol: float = 1e-8):
    """Integrate the k = 0 moment hierarchy; returns (MomentSeries, info).

    RK4 with fixed step dt (must satisfy dt <= 0.1 min(m/hbar, 1/max gamma)),
    applied as the precomputed step operator raised to ``record_every``.
    Each record costs one product with that cached power plus one gather
    from the state vector, at indices computed once, into its row of one
    array: m0(Y=0) for the trace, the m2_j(Y=0) for the MSD, and the
    outermost Y-shell of every m1 and m2 block for the box monitor.  The
    diagnostics are computed from those rows after the last record.  The
    monitor watches only that shell of m1 and m2 and raises
    :class:`BoxSizeError` naming the first record where its largest
    |value| exceeds ``boundary_tol`` (``inf`` turns it off).
    The trace m0(Y=0) is conserved exactly (gamma(0) = 0 identically);
    ``info`` carries the drift actually observed, the largest imaginary
    residue of the extracted MSD, the boundary mass seen, and the final
    moments as a ``LatticeInitialData`` "state" that a run can restart from.
    """
    record_steps = _record_steps(step_count(t_max, dt), record_every)
    d, side = init.dim, init.side
    if d != params.dim:
        raise InputError(f"model has dim {params.dim}, initial data has dim {d}")
    if side % 2 == 0:
        raise InputError("Y-box side must be odd")
    if not boundary_tol >= 0:
        raise InputError(f"boundary_tol must be nonnegative (inf turns the monitor off), got {boundary_tol}")
    gamma = gamma_on_box(corr, params, side)
    _check_dt(params, float(gamma.max()), dt)
    step = _StepOperator(_hierarchy_generator(gamma, params.hbar / params.mass), dt)

    box = (side,) * d
    n = side**d
    # y = [m0, m1_1..m1_d, m2_1..m2_d], each block a C-order box whose flat
    # index 0 is Y = 0; the shell is the sites with |Y_j| = side // 2 on some axis j
    second_idx = (d + 1 + np.arange(d)) * n
    on_edge = np.abs(_minimum_image(side)) == side // 2
    shell = np.flatnonzero(_on_some_axis(on_edge, d))
    shell_idx = (np.arange(1, 2 * d + 1)[:, None] * n + shell).ravel()

    watch = np.concatenate([[0], second_idx, shell_idx])
    y = np.concatenate([init.m0.ravel(), init.m1.ravel(), init.m2.ravel()]).astype(complex)
    records = np.empty((record_steps.size, watch.size), dtype=complex)
    for pos, (_, y) in enumerate(step.propagate(y, record_steps.tolist())):
        records[pos] = y[watch]

    times = record_steps * dt
    second = records[:, 1:d + 1].sum(axis=1)
    # the trace and the box monitor start at the first record after t = 0
    drift = np.abs(records[1:, 0] - records[0, 0])
    shell_mass = np.abs(records[1:, d + 1:]).max(axis=1)
    over = np.flatnonzero(shell_mass > boundary_tol)
    if over.size:
        first = over[0]
        raise BoxSizeError(
            f"moment mass {shell_mass[first]:.3e} reached the Y-box edge at t={times[first + 1]:.4g}; "
            f"enlarge the box (evolve.y_box, now {side})"
        )

    m0, (m1, m2) = y[:n].reshape(box), y[n:].reshape((2, d) + box)
    series = MomentSeries(times=times, msd=-MSD_KLAPLACIAN_FACTOR * second.real)
    info = {
        "trace_drift": float(drift.max(initial=0.0)),
        "max_imag_residue": float(np.abs(second.imag).max()),
        "max_boundary_mass": float(shell_mass.max(initial=0.0)),
        "state": LatticeInitialData(m0=m0, m1=m1, m2=m2, side=side, dim=d),
    }
    return series, info


def evolve_full_kernel(k_batch, init_kernel, corr, params: ModelParams, t_max: float, dt: float,
                       record_every: int = 1):
    """Evolve the transformed kernel at each k in ``k_batch`` independently.

    ``init_kernel`` is a complex array over the Y-box, shared by all k.
    Records every ``record_every`` steps and at t_max, as the other
    drivers do.  Returns (record times, snapshots) with snapshots of shape
    (len(k_batch), number of records) + box.
    """
    record_steps = _record_steps(step_count(t_max, dt), record_every)
    k_batch = np.atleast_2d(np.asarray(k_batch, dtype=float))
    d = params.dim
    if k_batch.shape[1] != d:
        raise InputError(f"k vectors must have dim {d}")

    init = np.asarray(init_kernel)
    if init.ndim != d:
        raise InputError(f"model has dim {d}, initial kernel has dim {init.ndim}")
    side = init.shape[0]
    gamma = gamma_on_box(corr, params, side)
    gmax = float(gamma.max())

    out = np.empty((k_batch.shape[0], record_steps.size) + init.shape, dtype=complex)
    c = params.hbar / params.mass

    for ik, k in enumerate(k_batch):
        # RK4 imaginary-axis limit ~ 2.8; sin(k_j) D_j has spectrum in i [-2|sin k_j|, 2|sin k_j|]
        lam = gmax + 2.0 * c * np.sum(np.abs(np.sin(k)))
        if lam * dt > 2.5:
            raise StabilityError(f"dt={dt} too large for |k|={np.linalg.norm(k):.3g} (lambda dt = {lam * dt:.3g})")

        P = _StepOperator(_kernel_generator(gamma, c, k), dt).power(1)
        y = init.astype(complex).ravel()
        # powers of this P fill the box, so it is applied once per step
        for pos, gap in enumerate(np.diff(record_steps, prepend=0)):
            for _ in range(gap):
                y = P @ y
            out[ik, pos] = y.reshape(init.shape)

    return record_steps * dt, out

