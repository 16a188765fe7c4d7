"""
Rederiving invariance from raw metric matrices
==============================================

The wrapper in `riemscale.scaling` forwards geodesic operations to the
base manifold, so their invariance under constant scaling is true by
construction.  Is that legitimate?  This script answers numerically:
it computes connection coefficients by finite differences and
integrates the geodesic equation with RK4, once from a base chart and
once from the rescaled chart, with no delegation anywhere.

It also shows the one-line caveat: make the factor position-dependent
and the connection moves immediately.
"""

import math

import numpy as np

from riemscale import (
    christoffel_at,
    geodesic_integrate_many,
    polar_chart,
    scale_chart_constant,
    scale_chart_pointwise,
    sphere_chart,
    volume_density,
)

# 1. Connection coefficients before and after constant scaling --------------

chart = sphere_chart()
x = np.array([math.pi / 3, 0.2])
base = christoffel_at(chart, x).symbols

for lam in (0.25, 10.0):
    scaled = christoffel_at(scale_chart_constant(chart, lam), x).symbols
    print(f"lambda = {lam:5g}: max |change in connection| = "
          f"{np.max(np.abs(scaled - base)):.2e}")

# 2. Geodesics from identical initial conditions ----------------------------

# One lockstep run integrates the base chart and both rescaled charts.
x0, v0 = (1.2, 0.3), (0.2, 0.5)
lams = (0.25, 10.0)
arms = (chart, *(scale_chart_constant(chart, lam) for lam in lams))
path, *scaled_paths = geodesic_integrate_many(arms, x0, v0)
for lam, scaled_path in zip(lams, scaled_paths):
    dev = np.max(np.abs(scaled_path.positions - path.positions))
    print(f"lambda = {lam:5g}: max geodesic deviation over 1000 RK4 steps = {dev:.2e}")

# 3. The volume density is NOT invariant: it scales by lambda^(n/2) ---------

polar = polar_chart()
point = np.array([3.0, 0.0])
print(f"\npolar volume density at r=3:      {volume_density(polar, point):g}")
print(f"same point, metric scaled by 4:   "
      f"{volume_density(scale_chart_constant(polar, 4.0), point):g}   (factor 4^(2/2))")

# 4. A position-dependent factor breaks the invariance ----------------------

from riemscale import euclidean_chart

flat = euclidean_chart(2)
conformal = scale_chart_pointwise(flat, lambda x: math.exp(2.0 * x[0]))
origin = np.zeros(2)
delta = christoffel_at(conformal, origin).symbols - christoffel_at(flat, origin).symbols
print(f"\npointwise factor exp(2*x0) on the flat plane:")
print(f"max |change in connection| at the origin = {np.max(np.abs(delta)):.3f}"
      "  (no longer zero!)")
