"""Exception types shared across the package."""


class MapnetsError(Exception):
    """Base class for package errors."""


class NoOverlap(MapnetsError):
    """No transition is stored for the requested chart pair."""


class OutOfDomain(MapnetsError):
    """A coordinate lies outside the domain of a chart or local map."""


class OutputShapeMismatch(MapnetsError):
    """A local map returned a value whose size does not match its out_shape."""


class DerivativeUndefined(MapnetsError):
    """A local map is defined at a point but its Taylor jet is not (e.g. sqrt(t*t) at 0)."""


class ChartEscape(MapnetsError):
    """An image point lies in no chart of the target atlas."""


class MarginTooSmall(MapnetsError):
    """No compact neighborhood with positive margin fits in the domain."""


class MissingFiberMetric(MapnetsError):
    """Chart-independent fiber norms require a fiber metric."""


class TooFewSamples(MapnetsError):
    """Not enough positive samples to fit an asymptotic order."""


class ChartMismatch(MapnetsError):
    """No destination/source chart pair links at a requested evaluation."""


class SupportEscape(MapnetsError):
    """Evaluated point values exit every destination chart region."""


class NoSharedChart(MapnetsError):
    """Two base nets never co-locate in a single vector-bundle chart."""


class BaseMismatch(MapnetsError):
    """Fiberwise combination requires representatives over the same base."""


class SingleChartMissing(MapnetsError):
    """The base net fails the single-target-chart condition."""


class TypeMismatch(MapnetsError):
    """Tensor type does not match the supplied argument counts."""


class SpecError(MapnetsError):
    """A JSON description is malformed; carries a location string."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
