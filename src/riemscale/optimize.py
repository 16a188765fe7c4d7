"""Gradient descent on manifolds with exponential-map updates.

The update is the plain first-order rule: move from the current point
along the geodesic generated by the negative metric gradient, with a
fixed step size.  Running it under a rescaled metric divides the
gradient by the scale factor while leaving the exponential map alone,
so a scaled run with step ``eta`` and an unscaled run with step
``eta / lam`` walk the same path; :func:`equivalence_check` measures
exactly that.

:func:`calibrate_scale` treats the scale as a learnable quantity: given
target distances, the best constant factor has a closed least-squares
form because rescaling multiplies every distance by the same root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ._render import render_csv
from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DomainError,
    PartialEquivalenceError,
)
from .manifolds import (
    Manifold, ManifoldPoint, TangentVector, _floats, _require, _require_count, _require_real,
)
from .scaling import ScaledManifold, ScaleFactor

STOP_CONVERGED = "converged"
STOP_MAX_ITERS = "max_iters"
STOP_ERROR = "error"


@dataclass(frozen=True)
class Objective:
    """A smooth function on a manifold.

    ``value_fn`` evaluates the function; ``gradient_fn`` returns its
    gradient in the unscaled base metric as a tangent vector at the
    query point.
    """

    value_fn: Callable[[ManifoldPoint], float]
    gradient_fn: Callable[[ManifoldPoint], TangentVector]


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float
    max_iters: int = 1000
    grad_tol: float = 1e-10

    def __post_init__(self):
        _require_real("step_size", self.step_size)
        _require_count("max_iters", self.max_iters)
        _require_real("grad_tol", self.grad_tol, positive=False)


@dataclass(frozen=True, eq=False)
class OptimizerTrace:
    """Everything a run recorded: iterates, objective values,
    gradient norms (measured in the metric the run used), and why it
    stopped."""

    iterates: tuple[ManifoldPoint, ...]
    values: tuple[float, ...]
    grad_norms: tuple[float, ...]
    stop_reason: str

    def __post_init__(self):
        n = len(self.iterates)
        if len(self.values) != n or len(self.grad_norms) != n:
            raise ContractViolationError("trace columns have different lengths")
        object.__setattr__(self, "iterates", tuple(self.iterates))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "grad_norms", tuple(float(g) for g in self.grad_norms))

    def __len__(self) -> int:
        return len(self.iterates)

    def table(self) -> tuple[list[str], Iterator[list]]:
        """Columns ``iter, f_value, grad_norm, coord_0..`` and a lazy row per iterate."""
        d = int(np.prod(self.iterates[0].manifold.ambient_shape))
        columns = ["iter", "f_value", "grad_norm"] + [f"coord_{i}" for i in range(d)]
        rows = (
            [k, val, gn, *pt.coordinates.ravel()]
            for k, (pt, val, gn) in enumerate(
                zip(self.iterates, self.values, self.grad_norms)
            )
        )
        return columns, rows

    def to_csv(self) -> str:
        """Render :meth:`table` as CSV."""
        return render_csv(*self.table())


def riemannian_gd(
    manifold: Manifold,
    objective: Objective,
    x0: ManifoldPoint,
    config: OptimizerConfig,
) -> OptimizerTrace:
    """Fixed-step gradient descent with exponential-map updates.

    ``manifold`` selects the metric of the run.  For a scaled wrapper
    the update uses the rescaled gradient and the stopping norm is
    measured in the scaled metric; the exponential map is shared with
    the base manifold either way.  A domain error mid-run (for example
    a step past the sphere's antipode while evaluating the gradient)
    truncates the trace with ``stop_reason == "error"``.
    """
    base = manifold.root if isinstance(manifold, ScaledManifold) else manifold
    _require(ManifoldPoint, x0)
    if x0.manifold != base:
        raise ContractViolationError(f"x0 lives on {x0.manifold}, expected {base}")

    iterates: list[ManifoldPoint] = []
    values: list[float] = []
    grad_norms: list[float] = []
    x = x0
    stop_reason = STOP_MAX_ITERS
    for k in range(config.max_iters + 1):
        try:
            value = float(objective.value_fn(x))
            gradient = objective.gradient_fn(x)
            used = manifold.rescale_gradient(gradient.components)
            grad_norm = manifold.norm(x.coordinates, used)
        except DomainError:
            stop_reason = STOP_ERROR
            break
        iterates.append(x)
        values.append(value)
        grad_norms.append(grad_norm)
        if grad_norm <= config.grad_tol:
            stop_reason = STOP_CONVERGED
            break
        if k == config.max_iters:
            stop_reason = STOP_MAX_ITERS
            break
        try:
            x = ManifoldPoint(base, manifold.exp(x.coordinates, -config.step_size * used))
        except DomainError:
            stop_reason = STOP_ERROR
            break
    return OptimizerTrace(tuple(iterates), tuple(values), tuple(grad_norms), stop_reason)


def _on_one_manifold(points: tuple[ManifoldPoint, ...]) -> tuple[Manifold, np.ndarray]:
    """The manifold shared by a non-empty point set, and the points'
    coordinates stacked along a leading batch axis."""
    _require(ManifoldPoint, *points)
    manifold = points[0].manifold
    if any(pt.manifold != manifold for pt in points[1:]):
        raise ContractViolationError("points live on different manifolds")
    return manifold, np.stack([pt.coordinates for pt in points])


def frechet_objective(points: Sequence[ManifoldPoint]) -> Objective:
    """Mean squared distance to a point set, halved.

    The gradient at ``x`` is the negated average of the logarithm maps
    toward the data points, which vanishes exactly at the barycenter.
    Each evaluation makes one batched ``dist`` or ``log`` call over all
    data points.
    """
    points = tuple(points)
    if not points:
        raise ContractViolationError("at least one point is required")
    manifold, coords = _on_one_manifold(points)
    n = len(coords)

    def value_fn(x: ManifoldPoint) -> float:
        # Python-float squares summed left to right: numpy's vectorised
        # square and pairwise sum would round differently
        return sum(float(d) ** 2 for d in manifold.dist(x.coordinates, coords)) / (2.0 * n)

    def gradient_fn(x: ManifoldPoint) -> TangentVector:
        # a running sum adds the rows strictly left to right (np.sum may
        # pair them up); + 0.0 gives the +0.0 a sum started at zero gives
        total = np.cumsum(manifold.log(x.coordinates, coords), axis=0)[-1] + 0.0
        return TangentVector(x, -total / n)

    return Objective(value_fn, gradient_fn)


def equivalence_check(
    manifold: Manifold,
    objective: Objective,
    x0: ManifoldPoint,
    eta: float,
    lam: float,
    iters: int,
) -> float:
    """Largest gap between a scaled run and its step-rescaled twin.

    Runs ``iters`` update steps once on the manifold scaled by ``lam``
    with step ``eta`` and once on the base manifold with step
    ``eta / lam``, from the same start, and returns the maximum
    base-metric distance between matching iterates.  Both arms run for
    the full iteration count (no early convergence stop) so the
    comparison is step-by-step.  If either arm stops on a domain error,
    :class:`PartialEquivalenceError` carries the deviation over the
    common prefix.
    """
    scaled = ScaledManifold(manifold, ScaleFactor(lam))
    cfg_scaled = OptimizerConfig(step_size=eta, max_iters=iters, grad_tol=0.0)
    cfg_base = OptimizerConfig(step_size=eta / lam, max_iters=iters, grad_tol=0.0)
    run_scaled = riemannian_gd(scaled, objective, x0, cfg_scaled)
    run_base = riemannian_gd(manifold, objective, x0, cfg_base)
    common = min(len(run_scaled), len(run_base))
    deviation = 0.0
    if common:
        a = np.stack([pt.coordinates for pt in run_scaled.iterates[:common]])
        b = np.stack([pt.coordinates for pt in run_base.iterates[:common]])
        # Python's max from 0.0, row by row, as one max call per pair takes it
        deviation = max(deviation, *manifold.dist(a, b).tolist())
    if STOP_ERROR in (run_scaled.stop_reason, run_base.stop_reason):
        raise PartialEquivalenceError(
            "an arm of the equivalence run failed; deviation over the "
            f"common prefix of {min(len(run_scaled), len(run_base))} iterates "
            f"was {deviation:.3e}",
            deviation,
        )
    return deviation


def pairwise_distances(points: Sequence[ManifoldPoint]) -> np.ndarray:
    """Symmetric matrix of base-metric distances between points on one
    manifold, one batched ``dist`` call per row."""
    points = tuple(points)
    n = len(points)
    out = np.zeros((n, n))
    if n:
        manifold, coords = _on_one_manifold(points)
        for i in range(n - 1):
            out[i, i + 1 :] = out[i + 1 :, i] = manifold.dist(coords[i], coords[i + 1 :])
    return out


def calibrate_scale(
    base_points: Sequence[ManifoldPoint], target_distances: np.ndarray
) -> tuple[ScaleFactor, float]:
    """Least-squares fit of a constant metric scale to target distances.

    Minimizes ``sum_{i<j} (sqrt(lam) * d_ij - t_ij)^2`` over ``lam > 0``.
    Because rescaling multiplies every distance by the same root, the
    minimizer is closed form: ``sqrt(lam*) = sum(t d) / sum(d^2)``.
    Returns the fitted scale and the residual at the optimum.
    """
    points = tuple(base_points)
    if len(points) < 2:
        raise ContractViolationError("at least two points are required")
    targets = _floats(target_distances, "target distances")
    n = len(points)
    if targets.shape != (n, n):
        raise ContractViolationError(
            f"target matrix is {targets.shape}, expected ({n}, {n})"
        )
    if float(np.max(np.abs(targets - targets.T))) > 1e-12:
        raise ContractViolationError("target matrix must be symmetric")
    if np.any(targets < 0.0):
        raise ContractViolationError("target distances must be nonnegative")

    base = pairwise_distances(points)
    iu = np.triu_indices(n, k=1)
    d = base[iu]
    t = targets[iu]
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DegenerateInputError(
            "all base distances are zero; the scale is unidentifiable"
        )
    sqrt_lam = float(np.dot(t, d)) / denom
    if sqrt_lam <= 0.0:
        raise DegenerateInputError(
            "target distances are identically zero; no positive scale fits"
        )
    residual = float(np.sum((sqrt_lam * d - t) ** 2))
    return ScaleFactor(sqrt_lam**2), residual


def joint_descent(
    base_points: Sequence[ManifoldPoint],
    target_distances: np.ndarray,
    x_objective: Objective,
    x0: ManifoldPoint,
    config: OptimizerConfig,
) -> tuple[OptimizerTrace, ScaleFactor, float]:
    """Calibrate the scale from distances, then descend under it.

    The two halves decouple: the fitted scale only changes the
    effective step size of the descent, never the path geometry, so
    the returned trace matches a base-metric run with step
    ``step_size / lam*`` (see :func:`equivalence_check`).  Returns the
    trace, the fitted scale and the calibration residual.
    """
    scale, residual = calibrate_scale(base_points, target_distances)
    manifold = tuple(base_points)[0].manifold
    trace = riemannian_gd(ScaledManifold(manifold, scale), x_objective, x0, config)
    return trace, scale, residual


def random_frechet_problem(
    manifold: Manifold, n_points: int, rng: np.random.Generator
) -> tuple[tuple[ManifoldPoint, ...], Objective, ManifoldPoint]:
    """Seeded barycenter problem: random points, their objective, and the
    first point as the start."""
    _require_count("n_points", n_points)
    points = tuple(
        ManifoldPoint(manifold, manifold.random_point(rng)) for _ in range(n_points)
    )
    return points, frechet_objective(points), points[0]
