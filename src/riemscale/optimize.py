"""Gradient descent on manifolds with exponential-map updates.

The update is the plain first-order rule: move from the current point
along the geodesic generated by the negative metric gradient, with a
fixed step size.  Running it under a rescaled metric divides the
gradient by the scale factor while leaving the exponential map alone,
so a scaled run with step ``eta`` and an unscaled run with step
``eta / lam`` walk the same path; :func:`equivalence_check` measures
exactly that.

:func:`riemannian_gd_many` runs several descents of one objective in
lockstep, each on its own scale of one root manifold with its own step
size, start and stopping rule.  While several arms are live, each
iterate measures the objective at all of them in one stacked pass,
rescales each gradient through its arm's own wrappers, and takes every
gradient norm and every step in one stacked call on the root.  Each
arm's trace is bit-identical to its own :func:`riemannian_gd` run, which
is the one-arm case of the same loop and passes single arrays to the
manifold.  The property suite descends the twins of all its scales on a
manifold as one such run.

A Fréchet objective (one with the private stacked pass) is descended in
blocks of ``_BLOCK_STEPS`` iterates on raw arrays, as the chart RK4
engine runs its steps: within a block only the checks that decide the
run's course are made, and every gradient and every new iterate of the
block is checked at its end, by one stacked check of the root family
each; the trace's points are read-only rows of the checked stack.  A
block that fails a check or raises is redone by the checked path, which
validates each gradient and each iterate as it is made (several arms as
one stack, arm by arm if that fails), so that each arm meets its own
error, warning or result.  Any other objective takes the checked path.

:func:`calibrate_scale` treats the scale as a learnable quantity: given
target distances, the best constant factor has a closed least-squares
form because rescaling multiplies every distance by the same root.

:func:`pairwise_distances` remembers the last matrix it computed, so a
caller that builds its targets from the base distances and then
calibrates measures the point set once.  The memo holds one entry, keyed
on the manifold (the same object, or one equal to it under ``==``) and
the exact bytes of the points' stacked coordinates, not on the points'
identity.  A call that hits
returns a fresh copy of the stored read-only matrix; a call that misses
computes the matrix and replaces the entry; a call that raises leaves it
as it was.  The memo is one tuple, replaced whole and never changed in
place, so concurrent callers stay safe: each gets the matrix of its own
points.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from ._render import render_csv
from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DomainError,
    GeometryError,
    PartialEquivalenceError,
)
from .manifolds import (
    Manifold, ManifoldPoint, TangentVector, _floats, _points, _require, _require_count,
    _require_real,
)
from .scaling import ScaledManifold, ScaleFactor, _unwrap

STOP_CONVERGED = "converged"
STOP_MAX_ITERS = "max_iters"
STOP_ERROR = "error"
STOP_DIVERGED = "diverged"

# Iterates of a descent with a stacked objective pass that run unchecked
# between two stacked checks (riemannian_gd_many), as charts._BLOCK_STEPS
# RK4 steps do.
_BLOCK_STEPS = 64

# Bytes of coordinates on each side of one batched pair pass (``_pair_dist``) in
# pairwise_distances: 128 pairs on spd:8, 2048 on spd:2, 2730 on sphere:2.
# It bounds a block's temporaries: four times this raised pairs peak RSS by 1.4 MB.
_PAIR_BLOCK_BYTES = 1 << 16

# The last matrix pairwise_distances computed: (its manifold, the bytes of
# its stacked coordinates, the matrix).  Replaced whole, never changed in place.
_last_distances: tuple = (None, None, None)


@dataclass(frozen=True)
class Objective:
    """A smooth function on a manifold.

    ``value_fn`` evaluates the function; ``gradient_fn`` returns its
    gradient in the unscaled base metric as a tangent vector at the
    query point.

    ``_measure_many`` is private to the library: when set, it takes the
    coordinates of one point, or a ``(K, *ambient_shape)`` stack of K
    points, and gives the gradient components in the same shape and a
    list of the K values, bit for bit what ``gradient_fn`` and then
    ``value_fn`` give, or raises a ``GeometryError``.  It checks nothing:
    the components are not validated as tangent vectors.  One point takes
    ``gradient_fn``'s single-input arithmetic, a stack one stacked pass.
    :func:`riemannian_gd_many` measures its live arms with it, and runs
    its checked-once-per-block path only for an objective that has it.
    """

    value_fn: Callable[[ManifoldPoint], float]
    gradient_fn: Callable[[ManifoldPoint], TangentVector]
    _measure_many: Callable[[np.ndarray], tuple[np.ndarray, list[float]]] | None = (
        field(default=None, repr=False)
    )


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
        """Columns ``iter, f_value, grad_norm, coord_0..`` and a lazy row per
        iterate; ``DomainError`` for a run that stopped before its first."""
        if not self.iterates:
            raise DomainError(f"the run stopped ({self.stop_reason}) before its first iterate")
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
    the base manifold either way.  Each iterate evaluates the gradient,
    then the value (so an objective may reuse work of the gradient for
    the value, as :func:`frechet_objective` does), then the norm of the
    rescaled gradient, and then steps.  A domain error mid-run (for
    example a step past the sphere's antipode while evaluating the
    gradient) truncates the trace with ``stop_reason == "error"``.  An
    iterate whose value or gradient norm is not finite (the rescaled
    gradient or the norm raises ``DomainError`` when it overflows) ends
    the run with ``stop_reason == "diverged"``; the trace keeps the
    finite iterates before it.  This is the one-arm case of
    :func:`riemannian_gd_many`: a Fréchet objective's gradients and
    iterates are checked once per block of iterates, and the trace is
    that of a run that checks each one as it is made.
    """
    return riemannian_gd_many((manifold,), objective, (x0,), (config,))[0]


def riemannian_gd_many(
    manifolds: Sequence[Manifold],
    objective: Objective,
    starts: Sequence[ManifoldPoint],
    configs: Sequence[OptimizerConfig],
) -> tuple[OptimizerTrace, ...]:
    """Run several descents of one objective in lockstep.

    Arm ``a`` descends on ``manifolds[a]`` from ``starts[a]`` with
    ``configs[a]``.  The manifolds must share one root: each is that
    manifold or a :class:`ScaledManifold` of it.  Every arm stops on its
    own, and trace ``a`` is bit-identical to ``riemannian_gd(manifolds[a],
    objective, starts[a], configs[a])``.

    While several arms are live, each iterate measures the objective at
    all of them in one stacked pass when the objective has one
    (:func:`frechet_objective` does; any other is evaluated arm by arm).
    Each arm rescales its gradient through its own manifold; every norm
    is one stacked inner product on the root, scaled by each arm's
    factors as its wrappers scale it, and every step one stacked
    exponential map on the root.  With one live arm, every stage takes
    that arm's single inputs and the single-input bodies.

    An objective with the stacked pass runs in blocks of
    ``_BLOCK_STEPS`` iterates on raw coordinate arrays.  Within a block
    no point or vector is built, and only the checks that decide control
    flow run per iterate: a finite value and norm, ``grad_tol``,
    ``max_iters``, and the overflow of a rescaled gradient or its norm.
    At the block's end one stacked check of the root family tests every
    gradient the block measured (``_tangents_pass``), and one every point
    it stepped to (``_points_pass``); the trace's iterates are read-only
    rows of the checked stack.  The block runs under an ``np.errstate``
    that raises every floating-point condition the caller's settings do
    not ignore.  If a check fails or anything raises, the block is redone
    from its start by the checked path, so that the errors, messages,
    warnings, stop reasons and traces are those of a run that checks
    each iterate as it is made.

    The checked path builds each gradient as a validated
    :class:`TangentVector` and each iterate as a validated
    :class:`ManifoldPoint`; any other objective takes it throughout, so
    its callbacks only ever see validated points.  Several arms are
    validated as one stack there: one stacked check tests every arm's
    gradient, or every arm's new iterate.  A stage whose stacked pass
    raises a ``GeometryError``, or whose stacked check fails, is redone
    or validated arm by arm, so each arm meets its own error or its own
    result.
    """
    manifolds, starts, configs = tuple(manifolds), tuple(starts), tuple(configs)
    if not manifolds:
        raise ContractViolationError("at least one manifold is required")
    if not len(manifolds) == len(starts) == len(configs):
        raise ContractViolationError(
            f"{len(manifolds)} manifolds, {len(starts)} starts and {len(configs)} configs"
        )
    arms = [_Arm(m, x, c) for m, x, c in zip(manifolds, starts, configs)]
    root = arms[0].root
    if any(arm.root is not root and arm.root != root for arm in arms[1:]):
        raise ContractViolationError("arms run in lockstep must share a root manifold")

    live, k = arms, 0
    while live:
        stop = k + _BLOCK_STEPS
        kept = None if objective._measure_many is None else _block(objective, live, k, stop)
        if kept is not None:
            live, k = kept, stop
        while live and k < stop:  # the checked path: a plain objective, or a block's redo
            live = _iterate(objective, live, k)
            k += 1
    return tuple(
        OptimizerTrace(tuple(arm.iterates), tuple(arm.values), tuple(arm.grad_norms),
                       arm.stop_reason)
        for arm in arms
    )


class _Arm:
    """One descent of :func:`riemannian_gd_many`: its metric, its
    settings, what it recorded, and the quantities of its current
    iterate: ``point``, its last checked point, and ``x``, the
    coordinates of the current iterate (``point``'s, or in a block an
    unchecked step's end, which ``ends`` keeps)."""

    __slots__ = ("manifold", "root", "factors", "config", "point", "x", "ends", "iterates",
                 "values", "grad_norms", "stop_reason", "gradient", "value", "used",
                 "grad_norm")

    def __init__(self, manifold: Manifold, x0: ManifoldPoint, config: OptimizerConfig):
        _require(Manifold, manifold)
        _require(ManifoldPoint, x0)
        _require(OptimizerConfig, config)
        root, self.factors = _unwrap(manifold)
        if x0.manifold is not root and x0.manifold != root:
            raise ContractViolationError(f"x0 lives on {x0.manifold}, expected {root}")
        self.manifold, self.root, self.config = manifold, root, config
        self.point, self.x = x0, x0.coordinates
        self.iterates, self.values, self.grad_norms = [], [], []
        self.stop_reason = STOP_MAX_ITERS


def _iterate(
    objective: Objective, arms: list[_Arm], k: int, block: _Block | None = None
) -> list[_Arm]:
    """Iterate ``k`` of the live arms: measure, record, step; the arms
    still live are returned.  In a ``block`` nothing is checked and the
    block keeps what it needs for its check."""
    arms = _evaluate(objective, arms, block)
    _measure_gradients(arms)
    stepping = []
    for arm in arms:
        if not (math.isfinite(arm.value) and math.isfinite(arm.grad_norm)):
            arm.stop_reason = STOP_DIVERGED
            continue
        arm.iterates.append(arm.point if block is None else arm.x)
        arm.values.append(arm.value)
        arm.grad_norms.append(arm.grad_norm)
        if arm.grad_norm <= arm.config.grad_tol:
            arm.stop_reason = STOP_CONVERGED
        elif k < arm.config.max_iters:
            stepping.append(arm)
    return _step(stepping) if block is None else block.step(stepping)


def _block(objective: Objective, arms: list[_Arm], k: int, stop: int) -> list[_Arm] | None:
    """Run iterates ``k`` to ``stop - 1`` of the live arms unchecked, then
    check them as one stack (see :func:`riemannian_gd_many`).  The arms
    still live; or ``None`` when a check fails or anything raises, with
    every arm put back as it was at the block's start, for the checked
    path to redo."""
    block = _Block(arms)
    raising = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
    try:
        with np.errstate(**raising):
            while arms and k < stop:
                arms = _iterate(objective, arms, k, block)
                k += 1
            passed = block.close()
    except Exception:  # the redo raises it where a checked run does
        passed = False
    if not passed:
        block.undo()
        return None
    return arms


class _Block:
    """The unchecked iterates of a block: every gradient it measured with
    the coordinates it was measured at, and each arm's step ends, for one
    stacked check each at the block's end."""

    def __init__(self, arms: list[_Arm]):
        self.started = [(arm, len(arm.iterates)) for arm in arms]
        self.at, self.gradients = [], []
        for arm in arms:
            arm.ends = []

    def step(self, arms: list[_Arm]) -> list[_Arm]:
        """Move each arm along the exponential map by its step, unchecked;
        an error raises."""
        if len(arms) > 1:
            ends = _stacked_ends(arms)
        else:
            ends = [arm.manifold.exp(arm.x, -arm.config.step_size * arm.used) for arm in arms]
        for arm, end in zip(arms, ends):
            arm.x = end
            arm.ends.append(end)
        return arms

    def close(self) -> bool:
        """Whether every gradient and every step end passes the root's
        stacked check.  If they do, each arm's iterates in the block, and
        its point, become rows of the checked stack of its ends."""
        root = self.started[0][0].root
        if not root._tangents_pass(np.array(self.at), np.array(self.gradients)):
            return False
        ends = [end for arm, _ in self.started for end in arm.ends]
        points = _points(root, np.array(ends)) if ends else []
        if points is None:
            return False
        rows = iter(points)
        for arm, n in self.started:
            # the iterates recorded in the block are its start point, then its ends in order
            trail = [arm.point, *(next(rows) for _ in arm.ends)]
            arm.iterates[n:] = trail[: len(arm.iterates) - n]
            arm.point = trail[-1]
            arm.x = arm.point.coordinates
        return True

    def undo(self) -> None:
        """Put every arm back as it was at the block's start."""
        for arm, n in self.started:
            del arm.iterates[n:], arm.values[n:], arm.grad_norms[n:]
            arm.x, arm.stop_reason = arm.point.coordinates, STOP_MAX_ITERS


def _evaluate(
    objective: Objective, arms: list[_Arm], block: _Block | None = None
) -> list[_Arm]:
    """Set the gradient components and the value at each arm's iterate;
    the arms whose objective met a domain error stop, and the others are
    returned.  Several arms, or the arms of a ``block``, are measured by
    the objective's stacked pass when it has one; in a block its error
    raises, and its gradients are kept for the block's check."""
    measure = objective._measure_many
    if measure is not None and (len(arms) > 1 or block is not None):
        stacked = len(arms) > 1
        at = np.array([arm.x for arm in arms]) if stacked else arms[0].x
        try:
            components, values = measure(at)
        except GeometryError:
            if block is not None:
                raise
        else:
            gradients = components if stacked else (components,)
            if block is not None:
                block.at.extend(at if stacked else (at,))
                block.gradients.extend(gradients)
            elif not arms[0].root._tangents_pass(at, components):
                gradients = None  # each arm is measured on its own, and meets its own error
            if gradients is not None:
                for arm, gradient, value in zip(arms, gradients, values):
                    arm.gradient, arm.value = gradient, value
                return arms
    kept = []
    for arm in arms:
        try:
            arm.gradient = objective.gradient_fn(arm.point).components
            arm.value = float(objective.value_fn(arm.point))
        except DomainError:
            arm.stop_reason = STOP_ERROR
            continue
        kept.append(arm)
    return kept


def _measure_gradients(arms: list[_Arm]) -> None:
    """Set each arm's gradient in its own metric and that gradient's norm
    there, ``inf`` where the rescaled gradient or its inner product
    overflows."""
    rescaled = []
    for arm in arms:
        try:
            arm.used = arm.manifold.rescale_gradient(arm.gradient)
        except DomainError:  # the gradient over the scale left the double range
            arm.grad_norm = math.inf
            continue
        rescaled.append(arm)
    arms = rescaled
    if len(arms) > 1:
        used = np.array([arm.used for arm in arms])
        try:
            ips = arms[0].root.inner(np.array([arm.x for arm in arms]), used, used)
        except GeometryError:
            pass
        else:
            for arm, ip in zip(arms, ips.tolist()):
                for factor in arm.factors:  # as each wrapper's inner scales, innermost first
                    ip = factor * ip
                # Manifold.norm's arithmetic; a product past the range is inf, as is
                # the norm whose inner product overflowed
                arm.grad_norm = math.sqrt(max(ip, 0.0))
            return
    for arm in arms:
        try:
            arm.grad_norm = arm.manifold.norm(arm.x, arm.used)
        except DomainError:  # the inner product of the gradient overflowed
            arm.grad_norm = math.inf


def _stacked_ends(arms: list[_Arm]) -> np.ndarray:
    """The end of each arm's step, from one stacked exponential map on the root."""
    used = np.array([arm.used for arm in arms])
    steps = np.array([-arm.config.step_size for arm in arms])
    return arms[0].root.exp(
        np.array([arm.x for arm in arms]), steps.reshape(-1, *(1,) * (used.ndim - 1)) * used
    )


def _step(arms: list[_Arm]) -> list[_Arm]:
    """Move each arm along the exponential map by its step; the arms
    whose step met a domain error stop, and the others are returned.
    Several arms step in one stacked call, and their new iterates are
    validated by one stacked check, or row by row if it fails."""
    ends = None
    if len(arms) > 1:
        with contextlib.suppress(GeometryError):
            ends = _stacked_ends(arms)
        points = None if ends is None else _points(arms[0].root, ends)
        if points is not None:
            for arm, x in zip(arms, points):
                arm.point, arm.x = x, x.coordinates
            return arms
    moved = []
    for i, arm in enumerate(arms):
        try:
            if ends is None:
                end = arm.manifold.exp(arm.x, -arm.config.step_size * arm.used)
            else:
                end = ends[i]
            arm.point = ManifoldPoint(arm.root, end)
        except DomainError:
            arm.stop_reason = STOP_ERROR
            continue
        arm.x = arm.point.coordinates
        moved.append(arm)
    return moved


def _on_one_manifold(points: tuple[ManifoldPoint, ...]) -> tuple[Manifold, np.ndarray]:
    """The manifold shared by a non-empty point set, and the points'
    coordinates stacked along a leading batch axis."""
    _require(ManifoldPoint, *points)
    manifold = points[0].manifold
    # identity first: a frozen dataclass's == compares field by field
    if any(pt.manifold is not manifold and pt.manifold != manifold for pt in points[1:]):
        raise ContractViolationError("points live on different manifolds")
    # np.array makes np.stack's copy, byte for byte, without its per-array Python loop
    return manifold, np.array([pt.coordinates for pt in points])


def frechet_objective(points: Sequence[ManifoldPoint]) -> Objective:
    """Mean squared distance to a point set, halved.

    The gradient at ``x`` is the negated average of the logarithm maps
    toward the data points, which vanishes exactly at the barycenter.
    ``gradient_fn`` measures the distances and the logarithms to all
    data points in one batched pass and keeps the distances of its last
    point; ``value_fn`` reuses them when called with that same point
    object, as :func:`riemannian_gd` does, and otherwise makes one
    batched ``dist`` call, so it is defined wherever the distance is.
    On the SPD cone that pass reads the distances from the logarithms'
    ``eigh`` where ``dist`` reads ``eigvalsh``, so the value after the
    gradient may differ from the value alone in its last bits.
    The objective's stacked pass takes one point's coordinates through
    ``gradient_fn``'s arithmetic, or measures a stack of K points in one
    batched pass: the K points, as a ``(K, 1, ...)`` base stack, are
    broadcast against the N data rows, so the K·N (point, data point)
    pairs need no copy of either and the SPD cone factors K bases, not
    K·N.  It then sums each point's logarithms and squared distances as a
    single point's are summed.  It checks nothing (see :class:`Objective`).
    """
    points = tuple(points)
    if not points:
        raise ContractViolationError("at least one point is required")
    manifold, coords = _on_one_manifold(points)
    n = len(coords)
    # (point, its distances) from the last gradient; one tuple, replaced whole
    measured = (None, None)

    def halved_mean_square(d: list[float]) -> float:
        # Python-float squares summed left to right: numpy's vectorised
        # square and pairwise sum would round differently
        return sum(map(pow, d, repeat(2))) / (2.0 * n)

    def measured_at(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gradient components at one point, and its distances."""
        d, logs = manifold._dist_log(x, coords)
        # a running sum adds the rows strictly left to right (np.sum may
        # pair them up); + 0.0 gives the +0.0 a sum started at zero gives
        total = np.add.accumulate(logs)[-1] + 0.0
        return -total / n, d

    def value_fn(x: ManifoldPoint) -> float:
        point, d = measured
        if point is not x:
            d = manifold.dist(x.coordinates, coords)
        return halved_mean_square(d.tolist())

    def gradient_fn(x: ManifoldPoint) -> TangentVector:
        nonlocal measured
        components, d = measured_at(x.coordinates)
        measured = (x, d)
        try:
            return TangentVector(x, components)
        except ContractViolationError:
            if np.isfinite(components).all():
                raise
            # a sum past the double range is the objective's domain, not a misuse
            raise DomainError("the sum of the logarithms overflowed") from None

    def measure_many(at: np.ndarray) -> tuple[np.ndarray, list[float]]:
        if at.ndim < coords.ndim:  # one point
            components, d = measured_at(at)
            return components, [halved_mean_square(d.tolist())]
        # a (K, 1, ...) base stack against the n data rows: (K, n) pairs, no copies
        d, logs = manifold._dist_log(at[:, np.newaxis], coords)
        totals = np.add.accumulate(logs, axis=1)[:, -1] + 0.0
        return -totals / n, [halved_mean_square(row) for row in d.tolist()]

    return Objective(value_fn, gradient_fn, measure_many)


def _twin_arms(
    manifold: Manifold, eta: float, lams: Sequence[float], iters: int
) -> tuple[list[Manifold], list[OptimizerConfig]]:
    """The arms of step-size equivalence runs, two per scale in ``lams``:
    the manifold scaled by ``lam`` with step ``eta``, then the base
    manifold with step ``eta / lam``, both without an early stop."""
    manifolds, configs = [], []
    for lam in lams:
        manifolds += [ScaledManifold(manifold, ScaleFactor(lam)), manifold]
        configs += [
            OptimizerConfig(step_size=eta, max_iters=iters, grad_tol=0.0),
            OptimizerConfig(step_size=eta / lam, max_iters=iters, grad_tol=0.0),
        ]
    return manifolds, configs


def _twin_deviations(manifold: Manifold, traces: Sequence[OptimizerTrace]) -> Iterator[float]:
    """For the traces of :func:`_twin_arms`, each scale's largest
    base-metric distance between matching iterates, in order; at the
    first scale with an arm that failed, :class:`PartialEquivalenceError`
    with the deviation over the common prefix."""
    for run_scaled, run_base in zip(traces[::2], traces[1::2]):
        common = min(len(run_scaled), len(run_base))
        deviation = 0.0
        if common:
            a = np.array([pt.coordinates for pt in run_scaled.iterates[:common]])
            b = np.array([pt.coordinates for pt in run_base.iterates[:common]])
            # Python's max from 0.0, row by row, as one max call per pair takes it
            deviation = max(deviation, *manifold.dist(a, b).tolist())
        if {run_scaled.stop_reason, run_base.stop_reason} & {STOP_ERROR, STOP_DIVERGED}:
            raise PartialEquivalenceError(
                "an arm of the equivalence run failed; deviation over the "
                f"common prefix of {common} iterates was {deviation:.3e}",
                deviation,
            )
        yield deviation


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
    comparison is step-by-step.  If either arm stops on a domain error
    or diverges, :class:`PartialEquivalenceError` carries the deviation
    over the common prefix.  The two arms are two one-arm runs.  As one
    lockstep run of :func:`riemannian_gd_many` the pair would cost about
    1.25 times two one-arm runs on euclidean:3 and 1.1 times on sphere:2
    (8 data points), but 0.65-0.7 times on spd:2 and 0.8 times on spd:8
    at 4 data points, and 0.85-0.95 times on spd:8 at 32 (40 iterations,
    both checked once per block, best of 15, one core of a 2-vCPU Xeon).
    They stay two runs because the benchmark's tracing counts descent
    iterations in :func:`riemannian_gd` only, so a traced lockstep pair
    would read none (ROADMAP item 1).
    """
    manifolds, configs = _twin_arms(manifold, eta, (lam,), iters)
    traces = [riemannian_gd(m, objective, x0, c) for m, c in zip(manifolds, configs)]
    return next(_twin_deviations(manifold, traces))


@functools.lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, the pairs ``i < j`` in row-major order,
    as read-only arrays shared by every caller with ``n`` points."""
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def pairwise_distances(points: Sequence[ManifoldPoint]) -> np.ndarray:
    """Symmetric matrix of base-metric distances between points on one
    manifold.

    The pairs ``i < j`` are taken in row-major order and cut into blocks
    of at most ``_PAIR_BLOCK_BYTES`` of coordinates per side.  Each block
    is one call of the manifold's ``_pair_dist`` on the point stack and
    the block's indices, whose rows are the single ``dist`` calls bit for
    bit: ``dist`` batched on both sides, except on the SPD cone, which
    factors each of the block's points once.

    The last matrix computed is remembered (see the module docstring):
    a call on an equal manifold with the same coordinate bytes returns a
    fresh copy of it and measures nothing.
    """
    global _last_distances
    points = tuple(points)
    n = len(points)
    if not n:
        return np.zeros((0, 0))
    manifold, coords = _on_one_manifold(points)
    key = coords.tobytes()
    memo = _last_distances
    if memo[1] == key and (memo[0] is manifold or memo[0] == manifold):
        return memo[2].copy()
    out = np.zeros((n, n))
    rows, cols = _pair_indices(n)
    block = max(1, _PAIR_BLOCK_BYTES // coords[0].nbytes)
    for start in range(0, len(rows), block):
        i, j = rows[start : start + block], cols[start : start + block]
        out[i, j] = out[j, i] = manifold._pair_dist(coords, i, j)
    stored = out.copy()
    stored.setflags(write=False)
    _last_distances = (manifold, key, stored)
    return out


def calibrate_scale(
    base_points: Sequence[ManifoldPoint], target_distances: np.ndarray
) -> tuple[ScaleFactor, float]:
    """Least-squares fit of a constant metric scale to target distances.

    Minimizes ``sum_{i<j} (sqrt(lam) * d_ij - t_ij)^2`` over ``lam > 0``.
    Because rescaling multiplies every distance by the same root, the
    minimizer is closed form: ``sqrt(lam*) = sum(t d) / sum(d^2)``.
    Returns the fitted scale and the residual at the optimum; either one
    past the double range (or ``lam*`` rounded to 0) is a ``DomainError``.
    The base distances ``d`` come from :func:`pairwise_distances`, so
    targets just built from ``pairwise_distances(base_points)`` cost no
    second measurement (its one-entry memo).
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
    if not (targets.min() >= 0.0 and targets.max() < math.inf):  # a NaN min fails too
        raise ContractViolationError("target distances must be finite and nonnegative")
    if float(np.max(np.abs(targets - targets.T))) > 1e-12:
        raise ContractViolationError("target matrix must be symmetric")

    base = pairwise_distances(points)
    iu = _pair_indices(n)
    d = base[iu]
    t = targets[iu]
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DegenerateInputError(
            "all base distances are zero; the scale is unidentifiable"
        )
    # past the double range both may be inf, or nan where an inf sqrt_lam meets d = 0
    with np.errstate(over="ignore", invalid="ignore"):
        sqrt_lam = float(np.dot(t, d)) / denom
        residual = float(np.sum((sqrt_lam * d - t) ** 2))
    if sqrt_lam <= 0.0:
        raise DegenerateInputError(
            "target distances are identically zero; no positive scale fits"
        )
    try:
        scale = ScaleFactor(sqrt_lam**2)
    except (OverflowError, ContractViolationError):  # lam* past or under the double range
        message = f"fitted scale {sqrt_lam!r}**2 is not a finite positive double"
        raise DomainError(message) from None
    if not math.isfinite(residual):
        raise DomainError(f"calibration residual {residual!r} is not finite")
    return scale, residual


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
    trace, the fitted scale and the calibration residual.  The fit is
    :func:`calibrate_scale`'s, so it reuses the base distance matrix
    when the caller has just computed it for the same points.
    """
    scale, residual = calibrate_scale(base_points, target_distances)
    manifold = tuple(base_points)[0].manifold
    trace = riemannian_gd(ScaledManifold(manifold, scale), x_objective, x0, config)
    return trace, scale, residual


def random_frechet_problem(
    manifold: Manifold, n_points: int, rng: np.random.Generator
) -> tuple[tuple[ManifoldPoint, ...], Objective, ManifoldPoint]:
    """Seeded barycenter problem: random points, their objective, and the
    first point as the start.

    The points are drawn in one stacked call and checked in one stacked
    call, and each is what ``ManifoldPoint(manifold,
    manifold.random_point(rng))`` gives, drawn one after another.  When the
    stacked check fails, each point is validated on its own, so each meets
    its own error."""
    _require_count("n_points", n_points)
    _require(Manifold, manifold)
    drawn = manifold._random_points(rng, n_points)
    points = tuple(_points(manifold, drawn) or (ManifoldPoint(manifold, x) for x in drawn))
    return points, frechet_objective(points), points[0]
