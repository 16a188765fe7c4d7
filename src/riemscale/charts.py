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

Metric functions are batched: ``(B, n) -> (B, n, n)``, the metric at
each row of a batch of points.  A single point is the batch of one.

Geodesics of several charts, typically base charts and their rescaled
versions, each arm from a shared or its own start state, are integrated
in lockstep by ``geodesic_integrate_many``.  Each RK4 stage makes one
metric call per distinct base metric function, covering the center
point and the 2n difference stencil points of every arm on that base; a
constant-scaled arm (``scale_chart_constant``) reuses its base's values
times its factors.  The connection of every arm is computed in one
stacked pass (one matrix inverse, bracket and contraction for all
arms), with every check of a single-point call kept per arm.  A single
chart is the one-arm case of the same engine, and every path is
bit-identical to a run of its chart on its own.

The checks run a block of steps at a time.  Every stage tests its
stencil points against the box before any metric call, but the checks
that feed no later stage (the metric, its inverse, the symmetry of the
connection, the box after each step) run once per block over the
stacked stages.  A block that fails one of them, raises, or meets a
floating-point condition the caller's ``np.geterr()`` does not ignore
is redone stage by stage, so its error, message and warnings are those
of a run that checks every stage as it goes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._render import render_csv
from .errors import (
    ContractViolationError,
    DomainError,
    GeometryError,
    InternalConsistencyError,
    InvalidChartError,
    PartialPathError,
)
from .manifolds import _floats, _require_count
from .scaling import ScaleFactor, _unwrap

# Maps a (B, n) batch of coordinate rows to the (B, n, n) stack of
# metric matrices at those rows, one row at a time in effect: row b of
# the result depends only on row b of the input.
MetricFunction = Callable[[np.ndarray], np.ndarray]

# Central differences with this step bottom out around 1e-10 for smooth
# metrics in double precision, comfortably inside the 1e-6 tolerances
# used by the invariance checks.
FD_STEP = 1e-5
DEFAULT_STEPS = 1000

METRIC_SYMMETRY_TOL = 1e-12
CHRISTOFFEL_SYMMETRY_TOL = 1e-8

# Half the side of the box of every built-in Euclidean chart.
_EUCLIDEAN_HALF_WIDTH = 10.0


@dataclass(frozen=True, eq=False)
class Chart:
    """A coordinate box together with a batched metric-matrix function.

    ``metric_fn`` maps a ``(B, n)`` batch of coordinate rows to the
    ``(B, n, n)`` stack of metric components at those points; each
    matrix must be symmetric positive-definite everywhere in the box.
    A single point is evaluated as a batch of one.
    """

    name: str
    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    metric_fn: MetricFunction

    def __post_init__(self):
        _require_count("chart dimension", self.dimension)
        lower = _floats(self.lower, "lower bound")
        upper = _floats(self.upper, "upper bound")
        if lower.shape != (self.dimension,) or upper.shape != (self.dimension,):
            raise ContractViolationError("domain bounds must match the dimension")
        if not np.all(lower < upper):
            raise ContractViolationError("domain box must have positive extent")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

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
        pt = _floats(self.point, "point")
        symbols = _floats(self.symbols, "connection coefficients")
        if pt.ndim != 1 or symbols.shape != pt.shape * 3:
            raise ContractViolationError(
                f"coefficients of shape {symbols.shape} do not match point shape {pt.shape}"
            )
        asym = float(np.max(np.abs(symbols - symbols.transpose(0, 2, 1))))
        if not asym <= CHRISTOFFEL_SYMMETRY_TOL:
            raise InternalConsistencyError(
                f"connection coefficients asymmetric by {asym:.3e}"
            )
        pt.setflags(write=False)
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
        times = _floats(self.times, "times")
        pos = _floats(self.positions, "positions")
        vel = _floats(self.velocities, "velocities")
        if times.ndim != 1 or pos.ndim != 2 or pos.shape != vel.shape or len(pos) != len(times):
            raise ContractViolationError("path arrays have inconsistent shapes")
        for arr in (times, pos, vel):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def table(self) -> tuple[list[str], np.ndarray]:
        """Columns ``t, x0.., xdot0..`` and one row per node."""
        n = self.dimension
        columns = ["t"] + [f"x{i}" for i in range(n)] + [f"xdot{i}" for i in range(n)]
        return columns, np.hstack((self.times[:, None], self.positions, self.velocities))

    def to_csv(self) -> str:
        """Render :meth:`table` as CSV."""
        return render_csv(*self.table())


def _as_coords(x, n: int, name: str = "coordinates") -> np.ndarray:
    """``x`` as one finite ``(n,)`` float row."""
    out = _floats(x, name)
    if out.shape != (n,):
        raise ContractViolationError(f"{name} have shape {out.shape}, expected ({n},)")
    if not np.all(np.isfinite(out)):
        raise ContractViolationError(f"{name} have non-finite entries: {out}")
    return out


class _ConstantScale:
    """The metric function of a constant-scaled chart: ``lam`` times the
    values of ``base``.  ``_plan`` looks through it, so arms on one base
    share that base's call."""

    __slots__ = ("base", "lam")

    def __init__(self, base: MetricFunction, lam: float):
        self.base = base
        self.lam = lam

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.lam * np.asarray(self.base(X), dtype=float)


def _plan(charts) -> tuple:
    """The metric calls for arms ``charts``: one ``(chart, fn, arms,
    layers)`` group per distinct innermost metric function ``fn`` under
    the constant factors of ``_ConstantScale``, in order of first use.

    ``chart`` is the group's first arm, which names its errors; ``arms``
    selects the group's arms (a slice when they are adjacent, and every
    arm when there is one group, so one chart's plan serves any number
    of arms of it); ``layers`` are the factors that multiply the base
    values, innermost first: scalars when every arm of the group has
    the same factors, else one ``(k, 1, 1, 1)`` column per layer, padded
    with the exact factor 1.
    """
    groups: dict[int, tuple] = {}
    for a, chart in enumerate(charts):
        fn, chain = _unwrap(chart.metric_fn, _ConstantScale)
        _, _, arms, chains = groups.setdefault(id(fn), (chart, fn, [], []))
        arms.append(a)
        chains.append(chain)
    plan = []
    for chart, fn, arms, chains in groups.values():
        if len(groups) == 1:
            index = slice(None)
        elif arms[-1] - arms[0] == len(arms) - 1:
            index = slice(arms[0], arms[-1] + 1)
        else:
            index = np.array(arms)
        if len(set(chains)) == 1:
            layers = chains[0]
        else:
            depth = max(map(len, chains))
            padded = np.array([c + (1.0,) * (depth - len(c)) for c in chains])
            layers = tuple(padded[:, d, None, None, None] for d in range(depth))
        plan.append((chart, fn, index, layers))
    return tuple(plan)


def _evaluate(plan, P: np.ndarray) -> np.ndarray:
    """Metric matrices of each arm at every point of its row of ``P``,
    stacked ``(K, m, n, n)`` from ``(K, m, n)`` points.

    Each group of ``plan`` (from ``_plan``) makes one call of its base
    metric function over the rows of all its arms and multiplies each
    arm's block by its factors, innermost first.  Row ``b`` of a metric
    function's result depends only on row ``b`` of its input, so every
    arm gets the bits a call on its own rows gives.  A result of the
    wrong shape raises ``InvalidChartError`` naming the group's chart.
    """
    K, m, n = P.shape
    out = np.empty((K, m, n, n)) if len(plan) > 1 else None
    for chart, fn, arms, layers in plan:
        rows = P[arms].reshape(-1, n)
        g = np.asarray(fn(rows), dtype=float)
        if g.shape != (len(rows), n, n):
            raise InvalidChartError(
                f"metric of {chart.name} on {len(rows)} points has shape {g.shape}, "
                f"expected {(len(rows), n, n)}"
            )
        g = g.reshape(-1, m, n, n)
        for factor in layers:
            g = factor * g
        if out is None:
            return g  # the one group covers every arm
        out[arms] = g
    return out


def _validated(charts, X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``G``, the stacked metrics of ``charts[a]`` at ``X[a]``, once each
    check (finiteness, symmetry, positive definiteness) has run over all
    rows in turn; the first row that fails one raises
    ``InvalidChartError`` naming its chart and point.

    Positive definiteness is one stacked Cholesky factorization; only
    when it fails are the eigenvalues computed, to name the first row
    with one ``<= 0``."""

    def reject(ok: np.ndarray, what: str) -> None:
        a = _first_failed(ok)
        if a is not None:
            raise InvalidChartError(f"metric of {charts[a].name} at {X[a]} {what}")

    reject(np.isfinite(G).all(axis=(1, 2)), "has non-finite entries")
    asym = np.abs(G - G.transpose(0, 2, 1)).max(axis=(1, 2))
    reject(asym <= METRIC_SYMMETRY_TOL, "is not symmetric")
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        reject(np.linalg.eigvalsh(G)[:, 0] > 0.0, "is not positive definite")
    return G


def _first_failed(ok: np.ndarray) -> int | None:
    """The index of the first false entry of ``ok``, or ``None``."""
    a = int(ok.argmin())
    return None if ok[a] else a


def _first_outside(box, X: np.ndarray) -> int | None:
    """The index of the first row of ``X`` that does not lie in its row
    of ``box``, a pair of lower and upper bounds that broadcast against
    ``X``, or ``None`` when every row does (one ``all`` over the stack)."""
    lower, upper = box
    inside = (X >= lower) & (X <= upper)
    return None if inside.all() else _first_failed(inside.all(axis=1))


def _metrics_inside(chart: Chart, X: np.ndarray) -> np.ndarray:
    """Validated metrics of ``chart`` at each row of ``X``, from one call
    of its metric function; every row must lie in the chart's box."""
    a = _first_outside((chart.lower, chart.upper), X)
    if a is not None:
        raise DomainError(f"{X[a]} is outside the domain of {chart.name}")
    return _validated((chart,) * len(X), X, _evaluate(_plan((chart,)), X[None])[0])


def metric_at(chart: Chart, x) -> np.ndarray:
    """Evaluate and validate the metric matrix at ``x``.

    Raises ``ContractViolationError`` unless ``x`` is one finite row,
    ``DomainError`` outside the box and ``InvalidChartError``
    when the metric function does not produce a symmetric
    positive-definite matrix.
    """
    return _metrics_inside(chart, _as_coords(x, chart.dimension)[None])[0]


def _finite(value, what: str, *args) -> float:
    """``value`` as a float; ``DomainError`` if it is not finite, as when
    the arithmetic that gave it overflowed.  The message is ``what``
    formatted with ``args``, only when it is raised."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{what.format(*args)} is {value}, not finite")
    return value


def volume_density(chart: Chart, x) -> float:
    """Volume density sqrt(det g) at ``x``; ``DomainError`` if it
    overflows."""
    return float(_densities(chart, _as_coords(x, chart.dimension)[None])[0])


def _densities(chart: Chart, X: np.ndarray) -> np.ndarray:
    """Volume densities of ``chart`` at the rows of an ``(m, n)`` stack of
    finite points, each what ``volume_density`` gives at that row, from
    one metric call and one stacked determinant.  Every row gets the
    checks of a single call: the first row outside the box, with an
    invalid metric, or whose density overflows raises its own error."""
    g = _metrics_inside(chart, X)
    with np.errstate(over="ignore", invalid="ignore"):
        densities = np.sqrt(np.linalg.det(g))
    a = _first_failed(np.isfinite(densities))
    if a is not None:
        _finite(densities[a], "volume density of {} at {}", chart.name, X[a])
    return densities


def _stencil_box(charts) -> tuple[np.ndarray, np.ndarray]:
    """Each chart's box shrunk by ``FD_STEP``, as stacked ``(K, n)``
    lower and upper bounds: the points whose difference stencil stays
    inside their box.  One chart's ``(1, n)`` bounds broadcast over any
    number of points."""
    return (
        np.array([c.lower for c in charts]) + FD_STEP,
        np.array([c.upper for c in charts]) - FD_STEP,
    )


@functools.cache
def _stencil_offsets(n: int) -> np.ndarray:
    """The ``(2n + 1, n)`` offsets of a point's center and its 2n
    difference stencil points: ``-0.0`` (adding it leaves every
    coordinate's bits, a zero's sign included), then ``+h e_l``, then
    ``-h e_l``."""
    step = FD_STEP * np.eye(n)
    offsets = np.concatenate((np.full((1, n), -0.0), step, -step))
    offsets.setflags(write=False)
    return offsets


class _StencilExit(DomainError):
    """A difference stencil that would leave its chart's box: where a
    geodesic meets it, the geodesic has left the domain."""


def _connection(charts, plan, box, X: np.ndarray, block=None) -> np.ndarray:
    """Connection coefficients ``gamma[a, k, i, j]`` of ``charts[a]`` at
    ``X[a]`` by central finite differences, stacked ``(K, n, n, n)``.

    Each row's center and its 2n stencil points are evaluated together
    by ``_evaluate``: one call per distinct base metric function of
    ``plan`` (from ``_plan``) over the rows of every arm on it, with a
    constant-scaled arm's block multiplied by its factors.  Every
    row gets the checks of a single-point call: its stencil must stay
    inside its row of ``box`` (from ``_stencil_box``; a ``DomainError``
    names the first row that does not), its center metric is validated
    by ``_validated``, the inverse of that metric must be finite (a
    ``DomainError``: a tiny scale can overflow it), and its coefficients
    must be symmetric in the lower index pair.  The stencil evaluations
    trust the chart within that neighborhood.

    With ``block``, a ``_Block``, only the stencil test runs here: the
    center metrics and the coefficients are stored in ``block``, whose
    ``passes`` runs the other checks once over all the stages of a block.
    A non-finite inverse needs no test there: it makes every coefficient
    of its row non-finite, which fails the symmetry test.
    """
    a = _first_outside(box, X)
    if a is not None:
        raise _StencilExit(
            f"{X[a]} is within {FD_STEP} of the boundary of {charts[a].name}; "
            "the difference stencil would leave the domain"
        )
    n = X.shape[1]
    # G[a] holds the metric at X[a], then at X[a] + h e_l, then at X[a] - h e_l
    G = _evaluate(plan, X[:, None, :] + _stencil_offsets(n))
    center = G[:, 0] if block is not None else _validated(charts, X, G[:, 0])
    ginv = np.linalg.inv(center)
    if block is None:
        a = _first_failed(np.isfinite(ginv).all(axis=(1, 2)))
        if a is not None:
            raise DomainError(
                f"inverse metric of {charts[a].name} at {X[a]} has non-finite entries"
            )
    g_plus, g_minus = G[:, 1 : n + 1], G[:, n + 1 :]
    dg = (g_plus - g_minus) / (2.0 * FD_STEP)  # dg[a, l] = d_l g at X[a]
    # bracket[a, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    bracket = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    gamma = 0.5 * np.einsum("akl,aijl->akij", ginv, bracket)
    if block is not None:
        block.store(center, gamma)
        return gamma
    asym = np.abs(gamma - gamma.transpose(0, 1, 3, 2)).max(axis=(1, 2, 3))
    a = _first_failed(asym <= CHRISTOFFEL_SYMMETRY_TOL)
    if a is not None:
        raise InternalConsistencyError(
            f"connection coefficients of {charts[a].name} at {X[a]} "
            f"asymmetric by {asym[a]:.3e}"
        )
    return gamma


def _forcing(charts, plan, box, X: np.ndarray, V: np.ndarray, block=None) -> np.ndarray:
    """The geodesic equation's acceleration -Gamma^k_ij v^i v^j, row by row."""
    return -np.einsum("akij,ai,aj->ak", _connection(charts, plan, box, X, block), V, V)


def christoffel_at(chart: Chart, x) -> ChristoffelField:
    """Connection coefficients at ``x`` by central finite differences.

    ``x`` must sit inside the domain by at least ``FD_STEP`` so the
    difference stencil stays inside the box.  The center evaluation is
    fully validated, and its inverse must be finite; the stencil
    evaluations trust the chart within that neighborhood.
    """
    x = _as_coords(x, chart.dimension)
    return ChristoffelField(x, _connections(chart, x[None])[0])


def _connections(chart: Chart, X: np.ndarray) -> np.ndarray:
    """Connection coefficients of ``chart`` at the rows of an ``(m, n)``
    stack of finite points, stacked ``(m, n, n, n)``, each what
    ``christoffel_at`` gives at that row, from one ``_connection`` call:
    one metric call over every row's center and stencil points, one
    inverse and one contraction.  Every row gets the checks of a single
    call (the stencil inside the box, a valid center metric, a finite
    inverse, symmetric coefficients), and the first row that fails one
    raises its own error."""
    charts = (chart,)
    return _connection(charts * len(X), _plan(charts), _stencil_box(charts), X)


# Steps per block of a lockstep run.  The checks whose results feed no
# later stage run once per block over its stored stages, not once per
# stage; a block that fails any of them is redone stage by stage.
_BLOCK_STEPS = 64


class _Block:
    """The center metrics and connection coefficients of up to ``steps``
    RK4 steps of ``K`` arms, four stages a step, stored by
    ``_connection`` in stage order for the checks of ``passes``."""

    def __init__(self, steps: int, K: int, n: int):
        self.metrics = np.empty((4 * steps, K, n, n))
        self.coefficients = np.empty((4 * steps, K, n, n, n))
        self.stages = 0

    def store(self, metrics, coefficients) -> None:
        s = self.stages
        self.metrics[s], self.coefficients[s] = metrics, coefficients
        self.stages = s + 1

    def passes(self, box, positions: np.ndarray) -> bool:
        """Whether every check a stage-by-stage run makes besides its
        stencil tests holds on the ``stages`` stored: the center metrics
        are finite, symmetric and positive definite (one stacked Cholesky
        factorization), the coefficients are symmetric in the lower index
        pair (a non-finite inverse metric fails this, see ``_connection``),
        and the ``positions`` after each step lie in ``box``."""
        s = self.stages
        G = self.metrics[:s]
        if not (np.isfinite(G).all() and _symmetric(G, METRIC_SYMMETRY_TOL)):
            return False
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return False
        lower, upper = box
        return bool(
            _symmetric(self.coefficients[:s], CHRISTOFFEL_SYMMETRY_TOL)
            and ((positions >= lower) & (positions <= upper)).all()
        )


def _symmetric(A: np.ndarray, tol: float) -> bool:
    """Whether every matrix of the stack ``A`` is symmetric to within
    ``tol`` in each entry, with one temporary the size of ``A``."""
    gap = A - A.swapaxes(-1, -2)
    return bool((np.abs(gap, out=gap) <= tol).all())


def _rk4_step(charts, plan, box, X: np.ndarray, V: np.ndarray, dt: float, block=None):
    """One classical RK4 step of size ``dt`` from ``(X, V)``, with one
    stacked connection call per stage (see ``_connection`` for
    ``block``); returns the new positions and velocities."""
    k1x, k1v = V, _forcing(charts, plan, box, X, V, block)
    k2x = V + 0.5 * dt * k1v
    k2v = _forcing(charts, plan, box, X + 0.5 * dt * k1x, k2x, block)
    k3x = V + 0.5 * dt * k2v
    k3v = _forcing(charts, plan, box, X + 0.5 * dt * k2x, k3x, block)
    k4x = V + dt * k3v
    k4v = _forcing(charts, plan, box, X + dt * k3x, k4x, block)
    return (
        X + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
        V + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _rk4_lockstep(charts, X: np.ndarray, V: np.ndarray, steps: int):
    """Advance arm ``a`` from ``(X[a], V[a])`` by up to ``steps`` classical
    RK4 steps of size ``1 / steps``, with one stacked connection call per
    stage; the metric-call plan, the stencil box, the arrays of the path
    and the block store are built once.

    The steps run in blocks of ``_BLOCK_STEPS``.  Each stage of a block
    tests its stencils against the box at once, so no metric function
    sees a point outside its box; the other checks are deferred to the
    block's end (``_Block.passes``).  The block runs under an
    ``np.errstate`` that raises every floating-point condition the
    caller's settings do not ignore.  If a check fails or anything
    raises, the block is redone from its start with every check made on
    its own stage, under the caller's settings, so that the errors,
    messages and warnings are those of a stage-by-stage run; a block that
    passes gives the same bits.

    Returns the times, the stacked ``(k + 1, K, n)`` positions and
    velocities of the ``k`` steps made, and why the run stopped early,
    or ``None`` if it did not: a stage met a ``DomainError``, or a step
    ended within ``FD_STEP`` of an arm's boundary.  The reason is worded
    for the first arm, the only one of a run whose reason is reported: a
    stencil past the box or a step's end past the stencil box "left the
    domain", and any other ``DomainError`` (a metric function's own, an
    overflowing inverse metric) "stopped" the run.  Other errors
    propagate.
    """
    plan, box = _plan(charts), _stencil_box(charts)
    dt = 1.0 / steps
    positions, velocities = np.empty((2, steps + 1, *X.shape))
    positions[0], velocities[0] = X, V
    block = _Block(min(_BLOCK_STEPS, steps), *X.shape)
    raising = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
    made, stop = 0, None
    while made < steps and stop is None:
        end = min(made + _BLOCK_STEPS, steps)
        X, V = positions[made], velocities[made]
        block.stages = 0
        try:
            with np.errstate(**raising):
                for k in range(made, end):
                    X, V = _rk4_step(charts, plan, box, X, V, dt, block)
                    positions[k + 1], velocities[k + 1] = X, V
                done = block.passes(box, positions[made + 1 : end + 1])
        except Exception:  # the redo below raises it where a stage-by-stage run does
            done = False
        if done:
            made = end
            continue
        X, V = positions[made], velocities[made]
        for k in range(made, end):
            try:
                X, V = _rk4_step(charts, plan, box, X, V, dt)
            except _StencilExit as exc:
                stop = f"left the domain of {charts[0].name} near t={k * dt:.6g}: {exc}"
                break
            except DomainError as exc:  # a metric function's own, or an overflowing inverse
                stop = f"on {charts[0].name} stopped near t={k * dt:.6g}: {exc}"
                break
            if _first_outside(box, X) is not None:
                stop = f"left the domain of {charts[0].name} at t={(k + 1) * dt:.6g}"
                break
            made = k + 1
            positions[made], velocities[made] = X, V
    times = np.arange(made + 1) * dt  # node k at k * dt, as a float product
    return times, positions[: made + 1], velocities[: made + 1], stop


def _start_rows(charts, x, name: str) -> np.ndarray:
    """``x0`` or ``v0`` as one finite row per arm, ``(K, n)``: either a
    shared ``(n,)`` row or a ``(K, n)`` array of one row per arm."""
    K, n = len(charts), charts[0].dimension
    rows = _floats(x, name)
    if rows.shape == (n,):
        rows = np.tile(rows, (K, 1))
    elif rows.shape != (K, n):
        raise ContractViolationError(
            f"{name} has shape {rows.shape}, expected ({n},) or ({K}, {n}) for {K} charts"
        )
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        a = int(np.argmax(bad))
        raise ContractViolationError(f"{name} of arm {a} has non-finite entries: {rows[a]}")
    return rows


def geodesic_integrate_many(
    charts, x0, v0, steps: int = DEFAULT_STEPS
) -> tuple[GeodesicPath, ...]:
    """Integrate the geodesic equations of several charts in lockstep
    over unit time, with ``steps`` fixed steps of classical RK4.

    Arm ``a`` follows ``charts[a]``; the charts must share a dimension.
    ``x0`` and ``v0`` are each either one ``(n,)`` start shared by every
    arm or a ``(K, n)`` array with one row per arm.  Each RK4 stage
    makes one metric call per distinct base metric function, over the
    stencil rows of every arm on it: arms of one chart object share it,
    and so do the charts ``scale_chart_constant`` makes of it, which
    multiply its values by their factors.  The connection of every arm
    is evaluated in one stacked pass, with the checks and the arithmetic
    of a run on its own, so path ``a`` is bit-identical to
    ``geodesic_integrate(charts[a], x0[a], v0[a], steps)``.  The checks
    other than the stencil's box test run once per block of steps over
    its stored stages; a block that fails one, raises or meets a
    floating-point condition the caller does not ignore is redone stage
    by stage, which gives the errors and warnings of a stage-by-stage run.

    If any arm fails (leaves its domain, or meets an invalid metric or
    another ``GeometryError``), the arms are run again one at a time
    from their own starts, so the error raised, its message and the
    partial path of a ``PartialPathError`` included, is the one that
    running the arms in sequence gives.  An exception from outside the
    ``GeometryError`` family, raised by a metric function itself,
    propagates at once.
    """
    charts = tuple(charts)
    if not charts:
        raise ContractViolationError("at least one chart is required")
    if any(c.dimension != charts[0].dimension for c in charts):
        raise ContractViolationError("charts integrated together must share a dimension")
    X = _start_rows(charts, x0, "x0")
    V = _start_rows(charts, v0, "v0")
    _require_count("steps", steps)

    try:
        times, P, W, stop = _rk4_lockstep(charts, X, V, steps)
    except GeometryError:
        if len(charts) == 1:
            raise
        stop = "an arm failed"
    if stop is None:
        return tuple(GeodesicPath(times, P[:, a], W[:, a]) for a in range(len(charts)))
    if len(charts) > 1:
        # Some arm failed: rerun the arms one at a time, as a sequence would.
        return tuple(
            geodesic_integrate_many((c,), x, v, steps)[0]
            for c, x, v in zip(charts, X, V)
        )
    raise PartialPathError(f"geodesic {stop}", GeodesicPath(times, P[:, 0], W[:, 0]))


def geodesic_integrate(chart: Chart, x0, v0, steps: int = DEFAULT_STEPS) -> GeodesicPath:
    """Integrate the geodesic equation over unit time with ``steps``
    fixed steps of classical RK4.

    The state is (position, velocity) with the velocity forced by the
    quadratic connection term.  For a horizon ``T``, integrate from
    ``T * v0``: node ``s`` of that path is the geodesic at time ``T * s``,
    with ``T`` times its velocity.  If the trajectory reaches the
    boundary, or a stage meets another ``DomainError`` (such as an
    inverse metric that overflows), the valid prefix is attached to the
    raised ``PartialPathError``, whose message says which: "geodesic
    left the domain of ..." or "geodesic on ... stopped near t=...".
    This is the one-chart case of ``geodesic_integrate_many``.
    """
    return geodesic_integrate_many((chart,), x0, v0, steps)[0]


def geodesic_residual(chart: Chart, path: GeodesicPath) -> float:
    """Largest violation of the discretized geodesic equation at interior nodes.

    The acceleration is estimated by central differences of the stored
    velocities and compared against the connection forcing term, which
    is evaluated at all interior nodes in one stacked call.
    """
    times, pos, vel = path.times, path.positions, path.velocities
    if path.dimension != chart.dimension:
        raise ContractViolationError(
            f"path has dimension {path.dimension}, chart {chart.name} has {chart.dimension}"
        )
    if not (np.isfinite(times).all() and np.isfinite(pos).all() and np.isfinite(vel).all()):
        raise ContractViolationError("path has non-finite times, positions or velocities")
    if len(times) < 3:
        return 0.0
    interior = pos[1:-1]
    forcing = _forcing(
        (chart,) * len(interior), _plan((chart,)), _stencil_box((chart,)), interior, vel[1:-1]
    )
    accel = (vel[2:] - vel[:-2]) / (times[2:] - times[:-2])[:, None]
    return float(np.max(np.abs(accel - forcing)))


def coordinate_speed(chart: Chart, x, v) -> float:
    """Metric speed sqrt(v^T g(x) v) of a coordinate velocity;
    ``DomainError`` if it overflows."""
    v = _as_coords(v, chart.dimension, "velocity coordinates")
    g = metric_at(chart, x)
    with np.errstate(over="ignore", invalid="ignore"):
        speed = np.sqrt(max(v @ g @ v, 0.0))
    return _finite(speed, "speed of {} at {} on {}", v, x, chart.name)


def chart_curve_length(chart: Chart, times, points) -> float:
    """Length of a sampled coordinate curve by trapezoidal quadrature.

    Velocities come from finite differences of the samples
    (second-order interior and edges), speeds from the metric at each
    sample.  ``DomainError`` if the length overflows.
    """
    times = _floats(times, "times")
    points = _floats(points, "points")
    if points.ndim != 2 or points.shape[1] != chart.dimension:
        raise ContractViolationError("points must be an (m, n) coordinate array")
    if times.shape != (points.shape[0],):
        raise ContractViolationError("one time per sample is required")
    if points.shape[0] < 2:
        raise ContractViolationError("a sampled curve needs at least 2 points")
    if not (np.isfinite(times).all() and np.isfinite(points).all()):
        raise ContractViolationError("times and points must be finite")
    if not np.all(np.diff(times) > 0.0):
        raise ContractViolationError("times must be strictly increasing")
    edge_order = 2 if points.shape[0] >= 3 else 1
    velocities = np.gradient(points, times, axis=0, edge_order=edge_order)
    metrics = _metrics_inside(chart, points)
    rows = velocities[:, np.newaxis, :]
    with np.errstate(over="ignore", invalid="ignore"):
        squares = (rows @ metrics @ velocities[..., np.newaxis])[:, 0, 0]
        length = np.trapezoid(np.sqrt(np.maximum(squares, 0.0)), times)
    return _finite(length, "length of the curve on {}", chart.name)


def scale_chart_constant(chart: Chart, scale: ScaleFactor | float) -> Chart:
    """Chart with the metric multiplied by a constant factor.

    The scaling wraps the batched metric function lazily, so the product
    is exact at every evaluation point; lockstep runs evaluate the base
    once for every chart scaled from it.
    """
    lam = scale.value if isinstance(scale, ScaleFactor) else float(ScaleFactor(scale))
    return Chart(
        name=f"{chart.name}|scale={lam:g}",
        dimension=chart.dimension,
        lower=chart.lower,
        upper=chart.upper,
        metric_fn=_ConstantScale(chart.metric_fn, lam),
    )


def scale_chart_pointwise(chart: Chart, factor_fn: Callable[[np.ndarray], float]) -> Chart:
    """Chart with a position-dependent factor multiplying the metric.

    ``factor_fn`` maps one coordinate point ``(n,)`` to a scalar; the
    batched metric applies it to each row of its batch in turn.  Unlike
    the constant case this genuinely changes the geometry; it exists so
    that the breakdown of connection invariance under non-constant
    factors can be demonstrated numerically.
    """
    base_fn = chart.metric_fn

    def scaled_fn(X: np.ndarray) -> np.ndarray:
        factors = np.empty(len(X))
        for b, x in enumerate(X):
            f = float(factor_fn(x))
            if not np.isfinite(f) or f <= 0.0:
                raise InvalidChartError(f"pointwise factor is {f!r} at {x}, must be > 0")
            factors[b] = f
        return factors[:, None, None] * np.asarray(base_fn(X), dtype=float)

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


def _diag_one_and(second: np.ndarray) -> np.ndarray:
    """The stack of matrices ``diag(1, second[b])``."""
    G = np.zeros((len(second), 2, 2))
    G[:, 0, 0] = 1.0
    G[:, 1, 1] = second
    return G


def euclidean_chart(dim: int) -> Chart:
    """Cartesian coordinates on flat space: the metric is the identity."""
    _require_count("chart dimension", dim)
    eye = np.eye(dim)[None]

    def metric(X: np.ndarray) -> np.ndarray:
        return eye.repeat(len(X), axis=0)

    return Chart(
        name=f"euclidean:{dim}",
        dimension=dim,
        lower=np.full(dim, -_EUCLIDEAN_HALF_WIDTH),
        upper=np.full(dim, _EUCLIDEAN_HALF_WIDTH),
        metric_fn=metric,
    )


def polar_chart() -> Chart:
    """Polar coordinates (r, theta) on the flat plane: g = diag(1, r^2)."""

    def metric(X: np.ndarray) -> np.ndarray:
        return _diag_one_and(X[:, 0] ** 2)

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

    def metric(X: np.ndarray) -> np.ndarray:
        return _diag_one_and(np.sin(X[:, 0]) ** 2)

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
        return euclidean_chart(dim)
    raise ContractViolationError(
        f"unknown chart {name!r}; available: {', '.join(CHART_NAMES)}"
    )


def builtin_charts() -> tuple[Chart, ...]:
    """The charts every chart-level verification sweeps over."""
    return (euclidean_chart(2), polar_chart(), sphere_chart())


def spherical_to_ambient(x) -> np.ndarray:
    """Map sphere-chart coordinates (theta, phi) to a unit vector in R^3."""
    return _spherical_rows(_as_coords(x, 2, "sphere-chart coordinates")[None])[0]


def _spherical_rows(X: np.ndarray) -> np.ndarray:
    """``spherical_to_ambient`` of each row of an ``(m, 2)`` stack of
    finite sphere-chart coordinates, as an ``(m, 3)`` stack, with one
    ``sin`` and one ``cos`` per coordinate column."""
    theta, phi = X.T
    sin_theta = np.sin(theta)
    return np.stack(
        (sin_theta * np.cos(phi), sin_theta * np.sin(phi), np.cos(theta)), axis=1
    )
