"""Deterministic time-domain evolution of the averaged lattice kernel.

Two routes share the Y-box machinery (odd side, periodic, minimum-image):

* :func:`evolve_hierarchy` integrates the closed moment hierarchy at k = 0
  (kernel, first and second k-derivatives per axis).  The hierarchy is the
  time-domain form of the Laplace moment chain - multiplication by
  h(Y, s) becomes d/dt + gamma(Y) - and is exact in k: no truncation error
  enters the mean-square displacement.

* :func:`evolve_full_kernel` evolves the transformed kernel at fixed k
  under the Y-stencil operator with multipliers (exp(+-i k_j) - 1) on the
  shifted terms and 2(1 - cos k_j) on the diagonal, plus the dephasing
  decay gamma(Y).  The operator is anti-Hermitian at v0 = 0, so the free
  evolution is exactly unitary in the Y lattice norm.

Both use classical RK4 with a fixed step.  Both systems are linear with
constant coefficients, y' = A y, so one RK4 step is exactly the linear map

    P = I + hA (I + hA/2 (I + hA/3 (I + hA/4))),

the degree-4 Taylor polynomial of exp(hA).  A is built once as a sparse
matrix over the flattened state; :class:`_StepOperator` forms P and raises
it to the step gap between records by binary squaring, so each record
costs one sparse product.  Powers of P keep P's sparsity: gamma is diagonal and the
m0 -> m1 -> m2 chain is nilpotent.

Mean-square displacement is extracted as -(1/4) Re sum_m m2_m(Y=0, t): on
the diagonal X = 2x, so the k-Laplacian counts |2x|^2 (the recorded
convention; see docs/conventions.md).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .analytic_continuum import MomentSeries, Provenance
from .core_model import ModelParams, step_count
from .errors import BoxSizeError, InputError, StabilityError

__all__ = [
    "LatticeState",
    "LatticeInitialData",
    "gamma_on_box",
    "evolve_hierarchy",
    "evolve_full_kernel",
    "MSD_KLAPLACIAN_FACTOR",
]

#: physical MSD = MSD_KLAPLACIAN_FACTOR * (-sum_m m2_m(0, t))
MSD_KLAPLACIAN_FACTOR = 0.25


def _box_axes(side: int) -> np.ndarray:
    """Minimum-image integer coordinates along one axis of an odd box."""
    idx = np.arange(side)
    return (idx + side // 2) % side - side // 2


def gamma_on_box(corr, params: ModelParams, side: int) -> np.ndarray:
    """Dephasing rate (v0/hbar)^2 [g(0) - g(Y)] over the Y-box."""
    d = params.dim
    axes = np.meshgrid(*[_box_axes(side)] * d, indexing="ij")
    coords = np.stack(axes, axis=-1).astype(float)
    g0 = float(corr.g(np.zeros(d)))
    return params.coupling * (g0 - np.asarray(corr.g(coords), dtype=float))


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


@dataclass
class LatticeState:
    """Moment hierarchy snapshot during evolution."""

    side: int
    dim: int
    m0: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    t: float
    dt: float


def _shift_operator(side: int, dim: int, axis: int, direction: int):
    """Sparse S with (S y)[Y] = y[Y + direction e_axis] on the C-order
    flattened periodic box."""
    import scipy.sparse as sp

    n = side**dim
    cols = np.roll(np.arange(n).reshape((side,) * dim), -direction, axis=axis).ravel()
    return sp.csr_matrix((np.ones(n), (np.arange(n), cols)), shape=(n, n))


def _hierarchy_generator(gamma: np.ndarray, c1: float):
    """Real generator of the k = 0 hierarchy over [m0, m1_1..m1_d, m2_1..m2_d]:

    m0' = -gamma m0,  m1_j' = c1 D_j m0 - gamma m1_j,  m2_j' = 2 c1 D_j m1_j - gamma m2_j,

    with D_j = S_j(+1) - S_j(-1) the symmetric Y-difference along axis j.
    """
    import scipy.sparse as sp

    d, side = gamma.ndim, gamma.shape[0]
    decay = sp.diags(-gamma.ravel())
    blocks = [[None] * (2 * d + 1) for _ in range(2 * d + 1)]
    blocks[0][0] = decay
    for j in range(d):
        diff = _shift_operator(side, d, j, +1) - _shift_operator(side, d, j, -1)
        blocks[1 + j][0] = c1 * diff
        blocks[1 + j][1 + j] = decay
        blocks[1 + d + j][1 + j] = 2.0 * c1 * diff
        blocks[1 + d + j][1 + d + j] = decay
    return sp.bmat(blocks, format="csr")


def _kernel_generator(gamma: np.ndarray, c: float, mult_plus, mult_minus, diag: float):
    """Complex generator of the transformed kernel at fixed k over the flattened box:
    -(gamma + i c diag) - i c sum_j [mult_plus_j S_j(+1) + mult_minus_j S_j(-1)]."""
    import scipy.sparse as sp

    d, side = gamma.ndim, gamma.shape[0]
    A = sp.diags(-(gamma.ravel() + 1j * c * diag))
    for j in range(d):
        A = A - 1j * c * (mult_plus[j] * _shift_operator(side, d, j, +1)
                          + mult_minus[j] * _shift_operator(side, d, j, -1))
    return A.tocsr()


class _StepOperator:
    """Classical RK4 for y' = A y as one sparse linear map P, with its
    powers P^r (binary squaring) cached per step gap r."""

    def __init__(self, A, dt: float):
        import scipy.sparse as sp

        eye = sp.identity(A.shape[0], dtype=A.dtype, format="csr")
        hA = dt * A
        P = eye + hA / 4.0
        for j in (3.0, 2.0, 1.0):
            P = eye + (hA @ P) / j
        self._squares = [P.tocsr()]  # P^(2^i)
        self._powers = {}

    def power(self, r: int):
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


def _check_times(t_max: float, dt: float, record_every=1) -> int:
    """Validate the time inputs; returns the number of steps."""
    n_steps = step_count(t_max, dt)
    if isinstance(record_every, bool) or not isinstance(record_every, numbers.Integral) or record_every < 1:
        raise InputError(f"record_every must be a positive integer, got {record_every!r}")
    return n_steps


def _check_dt(params: ModelParams, gamma_max: float, dt: float):
    limit = 0.1 * min(params.mass / params.hbar, 1.0 / gamma_max if gamma_max > 0 else np.inf)
    if dt > limit * (1 + 1e-12):
        raise StabilityError(f"dt={dt} exceeds stability limit {limit:.4g}; reduce evolve.dt")


def _boundary_mass(arr, dim):
    """Largest |value| on the outermost minimum-image shell."""
    side = arr.shape[-1]
    edge = side // 2
    worst = 0.0
    axes_coords = _box_axes(side)
    mask = np.abs(axes_coords) >= edge
    for ax in range(dim):
        sl = [slice(None)] * arr.ndim
        sl[arr.ndim - dim + ax] = mask
        worst = max(worst, float(np.max(np.abs(arr[tuple(sl)]), initial=0.0)))
    return worst


def evolve_hierarchy(init: LatticeInitialData, corr, params: ModelParams, t_max: float, dt: float,
                     record_every: int = 1, boundary_tol: float = 1e-8):
    """Integrate the k = 0 moment hierarchy; returns (MomentSeries, info).

    RK4 with fixed step dt (must satisfy dt <= 0.1 min(m/hbar, 1/max gamma)),
    applied as the precomputed step operator raised to ``record_every``.
    The trace m0(Y=0) is conserved exactly (gamma(0) = 0 identically);
    ``info`` carries the drift actually observed, the largest imaginary
    residue of the extracted MSD, and the boundary mass seen.
    """
    n_steps = _check_times(t_max, dt, record_every)
    d, side = init.dim, init.side
    if side % 2 == 0:
        raise InputError("Y-box side must be odd")
    gamma = gamma_on_box(corr, params, side)
    _check_dt(params, float(gamma.max()), dt)
    step = _StepOperator(_hierarchy_generator(gamma, params.hbar / params.mass), dt)

    box = (side,) * d
    n = side**d

    def unpack(y):
        # y: the complex state viewed as real (unknowns, 2) pairs, so the
        # real operator acts on real and imaginary parts in one product
        z = y.view(complex).ravel()
        return z[:n].reshape(box), z[n:(d + 1) * n].reshape((d,) + box), z[(d + 1) * n:].reshape((d,) + box)

    z0 = np.concatenate([init.m0.ravel(), init.m1.ravel(), init.m2.ravel()]).astype(complex)
    y0 = z0.view(float).reshape(-1, 2)
    m0, m1, m2 = unpack(y0)

    center = (0,) * d
    trace0 = m0[center]
    times, msd = [0.0], [-MSD_KLAPLACIAN_FACTOR * float(np.sum(m2[(slice(None),) + center]).real)]
    max_imag = abs(np.sum(m2[(slice(None),) + center]).imag)
    max_drift = 0.0
    max_boundary = 0.0

    record_steps = list(range(record_every, n_steps, record_every)) + [n_steps]
    for n_done, y in step.propagate(y0, record_steps):
        m0, m1, m2 = unpack(y)
        second = np.sum(m2[(slice(None),) + center])
        times.append(n_done * dt)
        msd.append(-MSD_KLAPLACIAN_FACTOR * float(second.real))
        max_imag = max(max_imag, abs(second.imag))
        max_drift = max(max_drift, abs(m0[center] - trace0))
        bm = max(_boundary_mass(np.abs(m1), d), _boundary_mass(np.abs(m2), d))
        max_boundary = max(max_boundary, bm)
        if bm > boundary_tol:
            raise BoxSizeError(
                f"moment mass {bm:.3e} reached the Y-box edge at t={n_done * dt:.4g}; "
                f"enlarge the box (evolve.y_box, now {side})"
            )

    series = MomentSeries(times=np.array(times), msd=np.array(msd),
                          provenance=Provenance.DETERMINISTIC_EVOLUTION)
    info = {
        "trace_drift": float(max_drift),
        "max_imag_residue": float(max_imag),
        "max_boundary_mass": float(max_boundary),
        "state": LatticeState(side=side, dim=d, m0=m0, m1=m1, m2=m2, t=n_steps * dt, dt=dt),
    }
    return series, info


def evolve_full_kernel(k_batch, init_kernel, corr, params: ModelParams, t_max: float, dt: float,
                       record_times=None):
    """Evolve the transformed kernel at each k in ``k_batch`` independently.

    ``init_kernel`` is a complex array over the Y-box (shared by all k) or
    a callable k -> array.  Returns (record_times, snapshots) with
    snapshots of shape (len(k_batch), len(record_times)) + box.
    """
    n_steps = _check_times(t_max, dt)
    k_batch = np.atleast_2d(np.asarray(k_batch, dtype=float))
    d = params.dim
    if k_batch.shape[1] != d:
        raise InputError(f"k vectors must have dim {d}")

    probe = init_kernel(k_batch[0]) if callable(init_kernel) else np.asarray(init_kernel)
    side = probe.shape[0]
    gamma = gamma_on_box(corr, params, side)
    gmax = float(gamma.max())

    if record_times is None:
        record_times = np.array([t_max])
    record_times = np.asarray(record_times, dtype=float)
    record_steps = np.unique(np.clip(np.round(record_times / dt).astype(int), 0, n_steps))

    out = np.empty((k_batch.shape[0], record_steps.size) + probe.shape, dtype=complex)
    c = params.hbar / params.mass

    for ik, k in enumerate(k_batch):
        mult_plus = (np.exp(1j * k) - 1.0)
        mult_minus = (np.exp(-1j * k) - 1.0)
        diag = 2.0 * np.sum(1.0 - np.cos(k))
        # explicit scheme stability: RK4 imaginary-axis limit ~ 2.8
        lam = c * (np.sum(np.abs(mult_plus) + np.abs(mult_minus)) + diag) + gmax
        if lam * dt > 2.5:
            raise StabilityError(f"dt={dt} too large for |k|={np.linalg.norm(k):.3g} (lambda dt = {lam * dt:.3g})")

        R = (init_kernel(k) if callable(init_kernel) else np.asarray(init_kernel)).astype(complex).ravel()
        step = _StepOperator(_kernel_generator(gamma, c, mult_plus, mult_minus, diag), dt)
        for pos, (_, y) in enumerate(step.propagate(R, record_steps)):
            out[ik, pos] = y.reshape(probe.shape)

    return record_steps * dt, out

