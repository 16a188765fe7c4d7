"""Constant rescaling of a manifold's metric.

A :class:`ScaledManifold` wraps any base manifold with a fixed factor
``lam > 0`` and realizes the two sides of the rescaling story:

* measured quantities change by fixed powers of ``lam`` -- inner
  products by ``lam``, norms / distances / curve lengths by
  ``sqrt(lam)``, volume densities by ``lam**(n/2)``, metric gradients
  by ``1/lam``;
* the geodesic structure does not change at all -- exponential and
  logarithm maps, parallel transport and tangent projection are
  forwarded to the base manifold untouched, so their outputs are
  representation-identical to the unscaled ones by construction.

Every operation takes the base manifold's batch axis: the factors apply
elementwise, innermost first, as they do to a single value.

A scaled manifold is an ordinary :class:`~riemscale.manifolds.Manifold`,
so the typed operations of :mod:`riemscale.manifolds` measure in the
scaled metric once the points are built over the wrapper::

    sm = ScaledManifold(Sphere(2), 4.0)
    distance(ManifoldPoint(sm, p), ManifoldPoint(sm, q))  # 2 * base distance

The numerical evidence that this delegation is legitimate (rather than
an implementation shortcut) lives in :mod:`riemscale.charts`, which
rederives connections and geodesics from scaled metric matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, GeometryError
from .manifolds import Manifold, _require, _require_count, _require_real

# np.max's reduction, without its Python-level dispatch
_largest = np.maximum.reduce


@dataclass(frozen=True)
class ScaleFactor:
    """A validated metric scale: finite and strictly positive."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _require_real("scale factor", self.value))

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ScaledManifold(Manifold):
    """A base manifold whose metric is multiplied by a constant factor.

    Wrappers compose: scaling by ``a`` and then ``b`` behaves exactly
    like scaling by ``a * b``.  The factor is immutable; choosing a new
    one means constructing a new wrapper.
    """

    base: Manifold
    scale: ScaleFactor

    def __post_init__(self):
        _require(Manifold, self.base)
        if not isinstance(self.scale, ScaleFactor):
            object.__setattr__(self, "scale", ScaleFactor(self.scale))

    @property
    def family(self) -> str:
        return self.base.family

    @property
    def lam(self) -> float:
        return self.scale.value

    @property
    def root(self) -> Manifold:
        """The underlying unscaled manifold, through any nesting."""
        return _unwrap(self)[0]

    @property
    def total_scale(self) -> float:
        """Product of the factors of every wrapper layer, outermost first."""
        return math.prod(reversed(_unwrap(self)[1]))

    @property
    def intrinsic_dim(self) -> int:
        return self.base.intrinsic_dim

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return self.base.ambient_shape

    # -- quantities that change -------------------------------------------

    def inner(self, p, u, v):
        try:
            ip = self.base.inner(p, u, v)
        except GeometryError:
            self._replay(self.inner, p, u, v)  # a later row's base error must not win
            raise
        if isinstance(ip, float):
            out = self.lam * ip
            if not math.isfinite(out):
                raise DomainError(f"scaled inner product {out} is not finite")
            return out
        with np.errstate(over="ignore"):
            out = self.lam * ip
        bad = ~np.isfinite(out)
        if bad.any():  # the base passed every row: the first one scaled past the range fails
            raise DomainError(f"scaled inner product {float(out[bad][0])} is not finite")
        return out

    def dist(self, p, q) -> float | np.ndarray:
        return math.sqrt(self.lam) * self.base.dist(p, q)

    def _dist_log(self, p, rows):
        d, logs = self.base._dist_log(p, rows)
        return math.sqrt(self.lam) * d, logs

    def curve_length(self, points: Sequence[np.ndarray]) -> float:
        return math.sqrt(self.lam) * self.base.curve_length(points)

    def euclidean_to_riemannian_gradient(self, p, ambient_gradient):
        return self._over_scale(
            self.euclidean_to_riemannian_gradient,
            self.base.euclidean_to_riemannian_gradient, p, ambient_gradient,
        )

    def rescale_gradient(self, gradient):
        return self._over_scale(self.rescale_gradient, self.base.rescale_gradient, gradient)

    def _over_scale(self, op, base_op, *args):
        """``base_op(*args) / lam`` for the gradient map ``op``: the one
        division by the scale, raising ``DomainError``, with no warning,
        when a quotient is not finite (for a batch, the error of its first
        failing row)."""
        try:
            gradient = base_op(*args)
        except GeometryError:
            self._replay(op, *args)  # a later row's base error must not win
            raise
        # Only a scale below 1 can take a finite entry past the range.  Then
        # the largest entry over the scale, as a Python float, neither warns
        # nor raises, and when it is finite no entry's quotient overflows.
        if self.lam < 1.0 and gradient.size:
            if not math.isfinite(float(_largest(np.abs(gradient), None)) / self.lam):
                raise DomainError(f"gradient divided by the scale {self.lam!r} is not finite")
        return gradient / self.lam

    # -- structure that does not ------------------------------------------

    def exp(self, p, v):
        return self.base.exp(p, v)

    def log(self, p, q):
        return self.base.log(p, q)

    def transport(self, p, q, v):
        return self.base.transport(p, q, v)

    def to_tangent(self, p, w):
        return self.base.to_tangent(p, w)

    def validate_point(self, coordinates):
        return self.base.validate_point(coordinates)

    def validate_tangent(self, p, components):
        return self.base.validate_tangent(p, components)

    def random_point(self, rng):
        return self.base.random_point(rng)


def _unwrap(x, kind=ScaledManifold):
    """``x`` under its ``kind`` layers, and their ``lam`` factors, innermost first."""
    factors = []
    while isinstance(x, kind):
        factors.append(x.lam)
        x = x.base
    return x, tuple(reversed(factors))


def volume_scale_factor(scale: ScaleFactor | float, n: int) -> float:
    """Factor by which an n-dimensional volume density is multiplied when
    the metric is multiplied by ``scale``.

    Raises :class:`DomainError` when the factor overflows or underflows
    double precision.
    """
    _require_count("dimension", n)
    lam = scale.value if isinstance(scale, ScaleFactor) else float(ScaleFactor(scale))
    try:
        factor = lam ** (n / 2)
    except OverflowError:
        factor = math.inf
    if not 0.0 < factor < math.inf:
        raise DomainError(
            f"volume factor {lam!r}**({n}/2) is not a finite positive double"
        )
    return factor
