"""Monte Carlo cross-check of both transport laws.

Split-step trajectories of the stochastic Schrodinger equation, with the
potential applied as the exponential of the integrated noise increment
(the smooth-noise limit; norm is conserved exactly).  Scaled down from
the acceptance configuration to run in under a minute; crank n_traj and
the grids back up to reproduce the full numbers.
"""

import numpy as np

from whitenoise_transport import (FieldGrid, GaussianCorrelation, GaussianPureState, ModelParams,
                                  Space, cubic_coefficient, fit_power_law, msd_closed_form,
                                  point_state, run_continuum, run_lattice)

params = ModelParams()
corr = GaussianCorrelation([[1.0]])
init = GaussianPureState(1.0, dim=1)

print("== continuum: superballistic growth ==")
grid = FieldGrid.continuum(1, 512, 120.0)
res = run_continuum(grid, init.wavefunction(grid), corr, params,
                    t_max=6.0, dt=0.01, n_traj=300, seed=2718, record_every=25,
                    boundary_tol=1e-3)
cf = msd_closed_form(res.times, init, corr, params)
print(" t      MC msd    closed    z")
for i in range(1, res.times.size):
    z = (res.msd_mean[i] - cf.msd[i]) / res.msd_stderr[i]
    print(f"{res.times[i]:5.2f}  {res.msd_mean[i]:9.3f}  {cf.msd[i]:9.3f}  {z:+5.2f}")
fit = fit_power_law(res.times, res.msd_mean, window=(2.0, 6.0))
print(f"fitted exponent on [2,6]: {fit.exponent:.3f}")

free = init.free_msd(res.times, params)
mask = res.times >= 2.0
b_i = ((res.per_traj_msd[:, mask] - free[mask]) / res.times[mask] ** 3).mean(axis=1)
print(f"measured t^3 coefficient: {b_i.mean():.4f} +- {1.96 * b_i.std(ddof=1) / np.sqrt(res.n_traj):.4f}")
print(f"closed-form coefficient : {cubic_coefficient(init, corr, params):.4f}")
print(f"norm drift {res.norm_drift_max:.1e}, boundary mass {res.boundary_mass_max:.1e}\n")

print("== lattice: the same disorder only diffuses ==")
lat = ModelParams(space=Space.LATTICE)
sharp = GaussianCorrelation([[40.0]])
lgrid = FieldGrid.lattice(1, 256)
lres = run_lattice(lgrid, point_state(lgrid), sharp, lat, t_max=40.0, dt=0.05,
                   n_traj=300, seed=2718, record_every=20)
exact = np.exp(-lres.times) + lres.times - 1  # disorder-averaged law, gamma = 1
print(" t      MC msd    averaged law")
for i in range(2, lres.times.size, 4):
    print(f"{lres.times[i]:5.1f}  {lres.msd_mean[i]:9.3f}  {exact[i]:9.3f}")
lfit = fit_power_law(lres.times, lres.msd_mean, window=(10.0, 40.0))
print(f"fitted exponent on [10,40]: {lfit.exponent:.3f}")
