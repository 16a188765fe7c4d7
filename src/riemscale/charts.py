"""Coordinate-chart numerics: metric matrices, Christoffel symbols,
geodesic integration, and volume densities.

This module rederives geometry from raw metric matrices instead of
closed forms, which is what makes it a genuine cross-check for the
scaling behaviour implemented elsewhere: connections and geodesics are
computed here by finite differences and Runge-Kutta integration, once
from a base chart and once from its rescaled version, and compared.

Charts are immutable; their metric functions must be pure, so every
operation here can run concurrently.  Integration is fixed-step classic
RK4 with no adaptivity: base and scaled runs then share identical step
grids and comparisons are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._render import render_csv
from .errors import (
    ContractViolationError,
    DomainError,
    InternalConsistencyError,
    InvalidChartError,
    PartialPathError,
)
from .scaling import ScaleFactor

MetricFunction = Callable[[np.ndarray], np.ndarray]

# Central differences with this step bottom out around 1e-10 for smooth
# metrics in double precision, comfortably inside the 1e-6 tolerances
# used by the invariance checks.
DEFAULT_FD_STEP = 1e-5
DEFAULT_STEPS_PER_UNIT_TIME = 1000

METRIC_SYMMETRY_TOL = 1e-12
CHRISTOFFEL_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Chart:
    """A coordinate box together with a metric-matrix function.

    ``metric_fn`` maps a coordinate vector to the n x n matrix of
    metric components at that point; it must return a symmetric
    positive-definite matrix everywhere in the box.
    """

    name: str
    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    metric_fn: MetricFunction

    def __post_init__(self):
        if self.dimension < 1:
            raise ContractViolationError("chart dimension must be >= 1")
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.shape != (self.dimension,) or upper.shape != (self.dimension,):
            raise ContractViolationError("domain bounds must match the dimension")
        if np.any(lower >= upper):
            raise ContractViolationError("domain box must have positive extent")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def contains(self, x: np.ndarray, margin: float = 0.0) -> bool:
        return bool(
            np.all(x >= self.lower + margin) and np.all(x <= self.upper - margin)
        )

    def __repr__(self):
        return f"Chart({self.name!r}, dim={self.dimension})"


@dataclass(frozen=True, eq=False)
class ChristoffelField:
    """Connection coefficients ``symbols[k, i, j]`` at one point.

    Symmetry in the lower index pair is a structural property of the
    connection; a violation beyond tolerance means the finite
    differencing broke down.
    """

    point: np.ndarray
    symbols: np.ndarray

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=float)
        asym = float(np.max(np.abs(symbols - symbols.transpose(0, 2, 1))))
        if asym > CHRISTOFFEL_SYMMETRY_TOL:
            raise InternalConsistencyError(
                f"connection coefficients asymmetric by {asym:.3e}"
            )
        pt = np.array(self.point, dtype=float)
        pt.setflags(write=False)
        symbols = symbols.copy()
        symbols.setflags(write=False)
        object.__setattr__(self, "point", pt)
        object.__setattr__(self, "symbols", symbols)


@dataclass(frozen=True, eq=False)
class GeodesicPath:
    """A fixed-grid geodesic trajectory: times, positions, velocities."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        pos = np.array(self.positions, dtype=float)
        vel = np.array(self.velocities, dtype=float)
        if pos.shape != vel.shape or pos.shape[0] != times.shape[0]:
            raise ContractViolationError("path arrays have inconsistent shapes")
        for arr in (times, pos, vel):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def to_csv(self) -> str:
        """Render as CSV with columns ``t, x0.., xdot0..``."""
        n = self.dimension
        columns = ["t"] + [f"x{i}" for i in range(n)] + [f"xdot{i}" for i in range(n)]
        rows = (
            [t, *x, *v] for t, x, v in zip(self.times, self.positions, self.velocities)
        )
        return render_csv(columns, rows)


def _as_coords(chart: Chart, x) -> np.ndarray:
    out = np.asarray(x, dtype=float)
    if out.shape != (chart.dimension,):
        raise ContractViolationError(
            f"coordinates have shape {out.shape}, expected ({chart.dimension},)"
        )
    return out


def metric_at(chart: Chart, x) -> np.ndarray:
    """Evaluate and validate the metric matrix at ``x``.

    Raises ``DomainError`` outside the box and ``InvalidChartError``
    when the metric function does not produce a symmetric
    positive-definite matrix.
    """
    x = _as_coords(chart, x)
    if not chart.contains(x):
        raise DomainError(f"{x} is outside the domain of {chart.name}")
    g = np.asarray(chart.metric_fn(x), dtype=float)
    n = chart.dimension
    if g.shape != (n, n):
        raise InvalidChartError(f"metric at {x} has shape {g.shape}, expected ({n},{n})")
    if not np.all(np.isfinite(g)):
        raise InvalidChartError(f"metric at {x} has non-finite entries")
    if float(np.max(np.abs(g - g.T))) > METRIC_SYMMETRY_TOL:
        raise InvalidChartError(f"metric at {x} is not symmetric")
    if float(np.linalg.eigvalsh(g).min()) <= 0.0:
        raise InvalidChartError(f"metric at {x} is not positive definite")
    return g


def volume_density(chart: Chart, x) -> float:
    """Volume density sqrt(det g) at ``x``."""
    return float(np.sqrt(np.linalg.det(metric_at(chart, x))))


def christoffel_at(chart: Chart, x, fd_step: float = DEFAULT_FD_STEP) -> ChristoffelField:
    """Connection coefficients at ``x`` by central finite differences.

    ``x`` must sit inside the domain by at least ``fd_step`` so the
    difference stencil stays inside the box.  The center evaluation is
    fully validated; the stencil evaluations trust the chart within
    that neighborhood.
    """
    x = _as_coords(chart, x)
    if fd_step <= 0.0:
        raise ContractViolationError("fd_step must be positive")
    if not chart.contains(x, margin=fd_step):
        raise DomainError(
            f"{x} is within {fd_step} of the boundary of {chart.name}; "
            "the difference stencil would leave the domain"
        )
    g = metric_at(chart, x)
    ginv = np.linalg.inv(g)
    n = chart.dimension
    dg = np.empty((n, n, n))  # dg[l] = d_l g
    for l in range(n):
        step = np.zeros(n)
        step[l] = fd_step
        dg[l] = (
            np.asarray(chart.metric_fn(x + step), dtype=float)
            - np.asarray(chart.metric_fn(x - step), dtype=float)
        ) / (2.0 * fd_step)
    # bracket[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    bracket = dg + dg.transpose(1, 0, 2) - np.moveaxis(dg, 0, 2)
    symbols = 0.5 * np.einsum("kl,ijl->kij", ginv, bracket)
    return ChristoffelField(x, symbols)


def geodesic_integrate(
    chart: Chart,
    x0,
    v0,
    t_end: float = 1.0,
    steps: int | None = None,
    fd_step: float = DEFAULT_FD_STEP,
) -> GeodesicPath:
    """Integrate the geodesic equation with fixed-step classical RK4.

    The state is (position, velocity) with the velocity forced by the
    quadratic connection term.  If the trajectory reaches the boundary
    the valid prefix is attached to the raised ``PartialPathError``.
    ``steps`` defaults to 1000 per unit time.
    """
    x = _as_coords(chart, x0)
    v = _as_coords(chart, v0)
    if t_end <= 0.0:
        raise ContractViolationError("t_end must be positive")
    if steps is None:
        steps = max(1, round(DEFAULT_STEPS_PER_UNIT_TIME * t_end))
    if steps < 1:
        raise ContractViolationError("steps must be >= 1")
    dt = t_end / steps

    def acceleration(xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
        gamma = christoffel_at(chart, xs, fd_step=fd_step).symbols
        return -np.einsum("kij,i,j->k", gamma, vs, vs)

    times = [0.0]
    positions = [x.copy()]
    velocities = [v.copy()]
    for k in range(steps):
        try:
            k1x, k1v = v, acceleration(x, v)
            k2x = v + 0.5 * dt * k1v
            k2v = acceleration(x + 0.5 * dt * k1x, k2x)
            k3x = v + 0.5 * dt * k2v
            k3v = acceleration(x + 0.5 * dt * k2x, k3x)
            k4x = v + dt * k3v
            k4v = acceleration(x + dt * k3x, k4x)
        except DomainError as exc:
            partial = GeodesicPath(
                np.array(times), np.array(positions), np.array(velocities)
            )
            raise PartialPathError(
                f"geodesic left the domain of {chart.name} near t={k * dt:.6g}: {exc}",
                partial,
            ) from exc
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not chart.contains(x, margin=fd_step):
            partial = GeodesicPath(
                np.array(times), np.array(positions), np.array(velocities)
            )
            raise PartialPathError(
                f"geodesic left the domain of {chart.name} at t={(k + 1) * dt:.6g}",
                partial,
            )
        times.append((k + 1) * dt)
        positions.append(x.copy())
        velocities.append(v.copy())
    return GeodesicPath(np.array(times), np.array(positions), np.array(velocities))


def geodesic_residual(chart: Chart, path: GeodesicPath, fd_step: float = DEFAULT_FD_STEP) -> float:
    """Largest violation of the discretized geodesic equation at interior nodes.

    The acceleration is estimated by central differences of the stored
    velocities and compared against the connection forcing term.
    """
    times, pos, vel = path.times, path.positions, path.velocities
    if len(times) < 3:
        return 0.0
    worst = 0.0
    for k in range(1, len(times) - 1):
        dt = times[k + 1] - times[k - 1]
        accel = (vel[k + 1] - vel[k - 1]) / dt
        gamma = christoffel_at(chart, pos[k], fd_step=fd_step).symbols
        forcing = -np.einsum("kij,i,j->k", gamma, vel[k], vel[k])
        worst = max(worst, float(np.max(np.abs(accel - forcing))))
    return worst


def coordinate_speed(chart: Chart, x, v) -> float:
    """Metric speed sqrt(v^T g(x) v) of a coordinate velocity."""
    g = metric_at(chart, x)
    v = _as_coords(chart, v)
    return float(np.sqrt(max(v @ g @ v, 0.0)))


def chart_curve_length(chart: Chart, times, points) -> float:
    """Length of a sampled coordinate curve by trapezoidal quadrature.

    Velocities come from finite differences of the samples
    (second-order interior and edges), speeds from the metric at each
    sample.
    """
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != chart.dimension:
        raise ContractViolationError("points must be an (m, n) coordinate array")
    if times.shape != (points.shape[0],):
        raise ContractViolationError("one time per sample is required")
    if points.shape[0] < 2:
        raise ContractViolationError("a sampled curve needs at least 2 points")
    if np.any(np.diff(times) <= 0.0):
        raise ContractViolationError("times must be strictly increasing")
    edge_order = 2 if points.shape[0] >= 3 else 1
    velocities = np.gradient(points, times, axis=0, edge_order=edge_order)
    speeds = np.empty(points.shape[0])
    for i, (x, v) in enumerate(zip(points, velocities)):
        g = metric_at(chart, x)
        speeds[i] = np.sqrt(max(v @ g @ v, 0.0))
    return float(np.trapezoid(speeds, times))


def scale_chart_constant(chart: Chart, scale: ScaleFactor | float) -> Chart:
    """Chart with the metric multiplied by a constant factor.

    The scaling wraps the metric function lazily, so the product is
    exact at every evaluation point.
    """
    lam = scale.value if isinstance(scale, ScaleFactor) else float(ScaleFactor(scale))
    base_fn = chart.metric_fn

    def scaled_fn(x: np.ndarray) -> np.ndarray:
        return lam * np.asarray(base_fn(x), dtype=float)

    return Chart(
        name=f"{chart.name}|scale={lam:g}",
        dimension=chart.dimension,
        lower=chart.lower,
        upper=chart.upper,
        metric_fn=scaled_fn,
    )


def scale_chart_pointwise(chart: Chart, factor_fn: Callable[[np.ndarray], float]) -> Chart:
    """Chart with a position-dependent factor multiplying the metric.

    Unlike the constant case this genuinely changes the geometry; it
    exists so that the breakdown of connection invariance under
    non-constant factors can be demonstrated numerically.
    """
    base_fn = chart.metric_fn

    def scaled_fn(x: np.ndarray) -> np.ndarray:
        f = float(factor_fn(x))
        if not np.isfinite(f) or f <= 0.0:
            raise InvalidChartError(f"pointwise factor is {f!r} at {x}, must be > 0")
        return f * np.asarray(base_fn(x), dtype=float)

    return Chart(
        name=f"{chart.name}|pointwise",
        dimension=chart.dimension,
        lower=chart.lower,
        upper=chart.upper,
        metric_fn=scaled_fn,
    )


# ---------------------------------------------------------------------------
# Built-in chart library: one flat chart, one curvilinear chart of a flat
# space, and one chart of a genuinely curved surface.  Domains exclude the
# coordinate singularities (r = 0, sin(theta) = 0).
# ---------------------------------------------------------------------------


def euclidean_chart(dim: int, half_width: float = 10.0) -> Chart:
    """Cartesian coordinates on flat space: the metric is the identity."""
    eye = np.eye(dim)

    def metric(x: np.ndarray) -> np.ndarray:
        return eye.copy()

    return Chart(
        name=f"euclidean:{dim}",
        dimension=dim,
        lower=-half_width * np.ones(dim),
        upper=half_width * np.ones(dim),
        metric_fn=metric,
    )


def polar_chart() -> Chart:
    """Polar coordinates (r, theta) on the flat plane: g = diag(1, r^2)."""

    def metric(x: np.ndarray) -> np.ndarray:
        return np.diag([1.0, x[0] ** 2])

    return Chart(
        name="polar",
        dimension=2,
        lower=np.array([0.1, -np.pi]),
        upper=np.array([10.0, np.pi]),
        metric_fn=metric,
    )


def sphere_chart() -> Chart:
    """Colatitude/longitude (theta, phi) on the unit 2-sphere:
    g = diag(1, sin^2 theta)."""

    def metric(x: np.ndarray) -> np.ndarray:
        return np.diag([1.0, np.sin(x[0]) ** 2])

    return Chart(
        name="sphere-chart",
        dimension=2,
        lower=np.array([0.1, -np.pi]),
        upper=np.array([np.pi - 0.1, np.pi]),
        metric_fn=metric,
    )


CHART_NAMES = ("euclidean:<n>", "polar", "sphere-chart")


def chart_from_string(name: str) -> Chart:
    """Look up a built-in chart by name ("euclidean:2", "polar", "sphere-chart")."""
    if name == "polar":
        return polar_chart()
    if name == "sphere-chart":
        return sphere_chart()
    if name.startswith("euclidean:"):
        try:
            dim = int(name.partition(":")[2])
        except ValueError:
            raise ContractViolationError(f"malformed chart name {name!r}") from None
        if dim < 1:
            raise ContractViolationError("chart dimension must be >= 1")
        return euclidean_chart(dim)
    raise ContractViolationError(
        f"unknown chart {name!r}; available: {', '.join(CHART_NAMES)}"
    )


def builtin_charts() -> tuple[Chart, ...]:
    """The charts every chart-level verification sweeps over."""
    return (euclidean_chart(2), polar_chart(), sphere_chart())


def spherical_to_ambient(x) -> np.ndarray:
    """Map sphere-chart coordinates (theta, phi) to a unit vector in R^3."""
    theta, phi = np.asarray(x, dtype=float)
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
