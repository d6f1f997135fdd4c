"""Admissibility of spatial correlation functions.

The disorder model needs an even correlation g with a strict maximum at
the origin and a nonnegative spectrum.  This script walks through a
passing Gaussian kernel, a deliberately contaminated one, and a tabulated
kernel loaded from CSV.
"""

import io

import numpy as np

from whitenoise_transport import (GaussianCorrelation, ModelParams, TabulatedCorrelation,
                                  laplacian_g_at_zero, load_correlation_csv, validate_hypotheses)

params = ModelParams(dim=2)

print("== anisotropic Gaussian kernel, d = 2 ==")
corr = GaussianCorrelation([[1.0, 0.0], [0.0, 2.0]])
print(validate_hypotheses(corr, params).summary())
print(f"(lap g)(0) = {laplacian_g_at_zero(corr):+.3f}   (sets the t^3 coefficient)\n")

print("== tabulated kernel with a small odd contamination ==")
xs = np.linspace(-6, 6, 241)
table = TabulatedCorrelation(xs, np.exp(-(xs**2)) + 0.02 * xs)
print(f"symmetrization changed the table by up to {table.symmetrization_delta:.3e}")
print("after symmetrization the evaluator is exactly even:",
      float(table.g(np.array(1.3))) == float(table.g(np.array(-1.3))))
print(validate_hypotheses(table, ModelParams()).summary())

print("\n== the same machinery consumes two-column CSV tables ==")
buf = io.StringIO()
for x in xs:
    buf.write(f"{x},{np.exp(-x * x)}\n")
buf.seek(0)
table2 = load_correlation_csv(buf)
report = validate_hypotheses(table2, ModelParams())
print("CSV-loaded Gaussian kernel passes:", report.passed)
