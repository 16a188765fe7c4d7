"""
What a constant metric scale changes, and what it leaves alone
==============================================================

Multiplying a Riemannian metric by a constant factor looks like it
should change the geometry.  It does not: it changes the *ruler*.  This
script measures both halves of that statement on the unit sphere and on
SPD matrices.
"""

import numpy as np

from riemscale import (
    ManifoldPoint,
    ScaledManifold,
    Sphere,
    SymmetricPositiveDefinite,
    TangentVector,
    distance,
    exp_map,
    log_map,
    norm,
    random_point,
    random_tangent,
    volume_scale_factor,
)

rng = np.random.default_rng(0)
lam = 4.0

print(f"scale factor lambda = {lam}\n")

for manifold in (Sphere(2), SymmetricPositiveDefinite(2)):
    sm = ScaledManifold(manifold, lam)
    p = random_point(manifold, rng)
    q = random_point(manifold, rng)
    v = random_tangent(p, rng)
    # The same points measured with the scaled ruler: the typed operations
    # read the metric from the manifold the point is built over.
    sp, sq = ManifoldPoint(sm, p.coordinates), ManifoldPoint(sm, q.coordinates)
    sv = TangentVector(sp, v.components)

    print(f"--- {manifold} ---")

    # Measured quantities pick up fixed powers of lambda.
    print(f"distance:        base {distance(p, q):.6f}")
    print(f"                 scaled {distance(sp, sq):.6f}"
          f"  (= sqrt({lam:g}) * base)")
    print(f"norm of log:     base {np.linalg.norm(log_map(p, q).components):.6f}"
          f" -> scaled metric norm {norm(log_map(sp, sq)):.6f}")
    n = manifold.intrinsic_dim
    print(f"volume factor:   lambda^(n/2) = {volume_scale_factor(lam, n):g}"
          f"  (n = {n})")

    # The geodesic machinery is forwarded untouched: same bits, not just
    # close values.
    same_exp = exp_map(sv).coordinates.tobytes() == exp_map(v).coordinates.tobytes()
    same_log = (
        log_map(sp, sq).components.tobytes() == log_map(p, q).components.tobytes()
    )
    print(f"exp map identical bit-for-bit: {same_exp}")
    print(f"log map identical bit-for-bit: {same_log}\n")

print("Rescaling the metric moved every measurement by a predictable factor")
print("and did not move a single geodesic.")
