"""Lattice transport: dephasing turns ballistic motion diffusive.

Three views of the same law:
  * the Laplace-domain moment chain with its closed-form inverse,
  * deterministic evolution of the exact moment hierarchy,
  * the numerical Talbot inversion as a cross-check.

The bounded lattice dispersion is what suppresses the continuum's t^3:
each axis dephases at gamma = (v0/hbar)^2 [g(0) - g(e_1)], and a
vanishing gamma (fully correlated noise) restores ballistic motion.
"""

import numpy as np

from whitenoise_transport import (BALLISTIC, GaussianCorrelation, LatticeInitialData,
                                  LatticeMSDLaw, LatticeMomentInputs, ModelParams, Space,
                                  TabulatedCorrelation, diffusion_constant, evolve_hierarchy,
                                  fit_power_law, inverse_laplace_numeric, laplace_msd,
                                  msd_inverse_laplace_closed_form)

params = ModelParams(space=Space.LATTICE)
corr = GaussianCorrelation([[40.0]])  # g(1) ~ 4e-18: gamma = 1 to machine precision

inputs = LatticeMomentInputs.point_localized(corr, params)
law = LatticeMSDLaw.from_inputs(inputs)
print(f"gamma = {inputs.gamma}, Cd = {law.cd}, D = {diffusion_constant(law)}")
print(f"ballistic below t ~ {law.t_ballistic_below:.3f}, diffusive above t ~ {law.t_diffusive_above:.1f}\n")

# closed form vs numerical inversion of the assembled transform
ts = np.linspace(0.5, 50, 12)
closed = msd_inverse_laplace_closed_form(ts, law)
numeric = inverse_laplace_numeric(lambda s: laplace_msd(s, inputs), ts)
print("closed-form law vs Talbot inversion (max rel dev):",
      f"{np.max(np.abs(numeric - closed) / closed):.2e}\n")

# deterministic hierarchy: exact in k, matches the law up to one constant
series, info = evolve_hierarchy(LatticeInitialData.point(1, 9), corr, params,
                                t_max=50.0, dt=0.01, record_every=25)
mask = series.times >= 0.5
constant = series.msd[mask][-1] / msd_inverse_laplace_closed_form(series.times[mask][-1], law)
print(f"hierarchy/law calibration constant: {constant:.8f} (the 1/4 k-Laplacian normalization)")
print(f"trace drift over the run: {info['trace_drift']:.1e}")
late = fit_power_law(series, window=(10.0, 50.0))
print(f"fitted exponent on [10,50]: {late.exponent:.3f} (drifting toward 1 from above)\n")

# a degenerate channel: g(0) = g(1) keeps the motion ballistic
xs = np.arange(-64, 65) / 16.0
flat = TabulatedCorrelation(xs, np.cos(np.pi * xs) ** 2)
flat_law = LatticeMSDLaw.from_inputs(LatticeMomentInputs.point_localized(flat, params))
print("fully correlated noise on the lattice:",
      "D ->", diffusion_constant(flat_law),
      "(is ballistic:", diffusion_constant(flat_law) == BALLISTIC, ")")
deg, _ = evolve_hierarchy(LatticeInitialData.point(1, 9), flat, params,
                          t_max=20.0, dt=0.01, record_every=50)
m = deg.times > 0
print(f"degenerate-channel evolve exponent: "
      f"{fit_power_law(deg.times[m], deg.msd[m]).exponent:.4f} (exactly ballistic)")
