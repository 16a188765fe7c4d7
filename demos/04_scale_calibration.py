"""
Fitting the metric scale to target distances
============================================

If the scale is a free parameter, it can be learned.  Because rescaling
multiplies every distance by the same square root, the least-squares
fit of a scale to a table of target distances has a closed form; and
because the scale never touches the geometry, the fitted value can be
plugged into an optimizer run without changing anything except the
effective step size.
"""

import numpy as np

from riemscale import (
    OptimizerConfig,
    Sphere,
    calibrate_scale,
    equivalence_check,
    frechet_objective,
    joint_descent,
    pairwise_distances,
    random_point,
)

rng = np.random.default_rng(21)
sphere = Sphere(2)
points = [random_point(sphere, rng) for _ in range(5)]
base = pairwise_distances(points)

# 1. Targets that are an exact multiple of the base distances are
#    recovered exactly: c * d  ->  lambda* = c^2, zero residual.
for c in (0.5, 1.0, 3.0):
    scale, residual = calibrate_scale(points, c * base)
    print(f"targets = {c:3g} * base distances ->  lambda* = {scale.value:6g}, "
          f"residual = {residual:.2e}")

# 2. Noisy targets still have a unique closed-form optimum.
noise = rng.standard_normal(base.shape)
targets = np.abs(1.8 * base + 0.1 * (noise + noise.T))
np.fill_diagonal(targets, 0.0)
scale, residual = calibrate_scale(points, targets)
print(f"\nnoisy targets                  ->  lambda* = {scale.value:.4f}, "
      f"residual = {residual:.4f}")

# 3. Joint descent: calibrate the scale, then optimize the point under it.
#    The path is the base-metric path with step eta / lambda*.
objective = frechet_objective(points)
config = OptimizerConfig(step_size=0.2, max_iters=150)
trace, fitted, _ = joint_descent(points, 2.0 * base, objective, points[0], config)
deviation = equivalence_check(
    sphere, objective, points[0], eta=0.2, lam=fitted.value, iters=150
)
print(f"\njoint descent with targets = 2 * base:")
print(f"  fitted lambda* = {fitted.value:g} (expected 4)")
print(f"  final objective value = {trace.values[-1]:.6f} after {len(trace) - 1} steps")
print(f"  deviation from the eta/lambda* base-metric path: {deviation:.2e}")
