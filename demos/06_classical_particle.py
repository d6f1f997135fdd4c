"""Classical analog: a kicked particle matches the quantum exponent.

Newtonian motion in the same white-noise force field: per step the
velocity receives the gradient of a sampled field increment at the
particle's position.  Velocity variance grows linearly at the field
curvature rate and the displacement picks up the same t^3 growth as the
quantum mean-square displacement.
"""

import numpy as np

from whitenoise_transport import (GaussianCorrelation, ModelParams, fit_power_law,
                                  laplacian_g_at_zero, run_classical)

params = ModelParams()
corr = GaussianCorrelation([[1.0]])

res = run_classical(corr, params, v0_init=[0.0], t_max=10.0, dt=0.01, n_traj=500,
                    seed=4242, record_every=50)

A = np.vstack([res.times, np.ones_like(res.times)]).T
coef, *_ = np.linalg.lstsq(A, res.vvar_mean, rcond=None)
slope = float(coef[0])
lap_g = laplacian_g_at_zero(corr)
print(f"velocity variance slope : {slope:.4f}")
print(f"field-curvature rate    : {-params.v0**2 * lap_g / params.mass**2:.4f}"
      "   (-v0^2 lap g(0) / m^2)")
print(f"half-rate printed form  : {0.5 * params.v0**2 * lap_g:.4f}"
      "   (note the sign: not a growth rate)\n")

mask = res.times >= 2.0
fit = fit_power_law(res.times[mask], res.msd_mean[mask])
print(f"displacement exponent on [2,10]: {fit.exponent:.3f}  (q(t) ~ t^(3/2) scaling)")
print(f"msd(10) = {res.msd_mean[-1]:.1f} +- {res.msd_stderr[-1]:.1f}; "
      f"kicked-random-walk value (2/3) t^3 = {2 / 3 * 10**3:.1f}")

# with the force off the motion is exactly inertial
free = run_classical(corr, ModelParams(v0=0.0), v0_init=[0.5], t_max=10.0, dt=0.05,
                     n_traj=2, seed=1, record_every=20)
print("\nv0 = 0, launch speed 0.5: msd(t) == (0.5 t)^2 exactly:",
      bool(np.allclose(free.msd_mean, (0.5 * free.times) ** 2)))
