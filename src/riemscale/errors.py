"""Exception taxonomy shared across the library."""


class GeometryError(Exception):
    """Base class for all library-specific errors."""


class ContractViolationError(GeometryError):
    """An input broke a structural precondition: wrong shape, mismatched
    base points, or data that is not on the declared manifold."""


class DomainError(GeometryError):
    """Structurally valid inputs outside the mathematical domain of the
    operation (antipodal logarithm, point outside a chart, ...)."""


class InvalidChartError(GeometryError):
    """A chart's metric function returned something that is not a
    symmetric positive-definite matrix."""


class InternalConsistencyError(GeometryError):
    """A computed result drifted further from the manifold than the
    renormalization budget allows; indicates a numerical breakdown."""


class DegenerateInputError(GeometryError):
    """The data does not determine the requested quantity (for example,
    a scale fit where every base distance is zero)."""


class PartialPathError(DomainError):
    """Geodesic integration left the chart domain.

    Carries the valid portion of the trajectory in ``partial_path``.
    """

    def __init__(self, message, partial_path):
        super().__init__(message)
        self.partial_path = partial_path


class PartialEquivalenceError(DomainError):
    """An arm of a step-size equivalence run stopped on a domain error.

    Carries the deviation measured over the common prefix of both arms
    in ``partial_deviation``.
    """

    def __init__(self, message, partial_deviation):
        super().__init__(message)
        self.partial_deviation = partial_deviation
