"""Transport of a quantum particle in a rapidly fluctuating random potential.

Numerical laboratory with three mutually validating routes:

* closed-form disorder-averaged kernels on the continuum
  (:mod:`.analytic_continuum`) and Laplace-domain moment algebra on the
  lattice (:mod:`.analytic_lattice`);
* deterministic evolution of the averaged lattice equation
  (:mod:`.evolve_lattice`);
* Monte Carlo split-step integration of the stochastic Schrodinger
  equation, plus the classical kicked-particle analog
  (:mod:`.mc_simulator`).

The headline laws: spatially correlated, temporally white Gaussian
disorder makes the mean-square displacement grow like t^3 on the
continuum, like t on the lattice, and like t^2 when the disorder is off
or a lattice dephasing channel vanishes.
"""

__version__ = "0.1.0"

from .analytic_continuum import (GaussianPureState, MomentSeries, cubic_coefficient, kernel_hat,
                                 laplace_kernel_1d, msd_by_kernel_differences, msd_closed_form,
                                 phase)
from .analytic_lattice import (BALLISTIC, LatticeMSDLaw, LatticeMomentInputs, diffusion_constant,
                               laplace_msd, msd_inverse_laplace_closed_form)
from .core_model import (GaussianCorrelation, ModelParams, Space, TabulatedCorrelation,
                         dephasing_rate, laplacian_g_at_zero, load_correlation_csv,
                         validate_hypotheses)
from .errors import (BoxSizeError, ConfigError, CovarianceError, Error, InputError,
                     NumericalError, PoleError, ResolutionError, StabilityError,
                     TruncationError)
from .evolve_lattice import LatticeInitialData, evolve_full_kernel, evolve_hierarchy
from .mc_simulator import (ClassicalResult, EnsembleResult, colored_noise_convergence_study,
                           point_state, run_classical, run_continuum, run_lattice)
from .noise_field import ColoredKernel, FieldGrid, field_increments, spectral_amplitude
from .transforms_fit import (FitResult, fit_power_law, inverse_laplace_numeric,
                             laplace_transform_numeric)
