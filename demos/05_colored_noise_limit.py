"""Smooth noise converging to the white-noise (Stratonovich) dynamics.

Colored potentials with triangular temporal correlation of half-width nu
are built from the same underlying white increments, so shrinking nu is a
genuine limit (common random numbers).  The ensemble-averaged MSD drifts
toward the closed-form law as nu -> 0; an Euler-Maruyama run shows what
happens when the multiplicative noise is interpreted the other way: the
trace blows up and the deviation is enormous.
"""

from whitenoise_transport import FieldGrid, GaussianCorrelation, GaussianPureState, ModelParams
from whitenoise_transport.mc_simulator import colored_noise_convergence_study

params = ModelParams()
corr = GaussianCorrelation([[1.0]])
grid = FieldGrid.continuum(1, 512, 120.0)

rows = colored_noise_convergence_study(
    nu_list=[0.4, 0.2, 0.1],
    grid=grid, init=GaussianPureState(1.0, dim=1),
    corr=corr, params=params,
    t_max=3.0, dt=0.0125, n_traj=250, seed=1618, record_every=16,
    include_ito=True, boundary_tol=1e-3)

print(f"{'run':>12}  {'msd deviation':>14}  {'stderr':>8}  {'z':>7}")
for r in rows:
    print(f"{r.label:>12}  {r.deviation:+14.4f}  {r.stderr:8.4f}  {r.z_score:+7.1f}")
print()
print("reading: colored runs approach the closed form monotonically as nu")
print("shrinks; the white endpoint is statistically indistinguishable from")
print("it; the Euler-Maruyama control is catastrophically off because its")
print("trajectory norms grow like exp((v0/hbar)^2 g(0) t).")
ito = rows[-1]
print(f"ito-control norm drift: {ito.result.norm_drift_max:.2f} (unitary runs: ~1e-14)")
