"""Exception hierarchy for qcvx.

Analysis code raises subclasses of :class:`QcvxError` so callers (and the
CLI) can map failure classes to exit codes without string matching.
"""


class QcvxError(Exception):
    """Base class for all qcvx errors."""


class ParameterRangeError(QcvxError, ValueError):
    """A numeric parameter is outside its allowed range."""


class DimensionMismatchError(QcvxError, ValueError):
    """Two points of different dimension were combined."""


class DegenerateSegmentError(QcvxError, ValueError):
    """A segment with identical endpoints was passed to an analysis
    that requires distinct endpoints."""


class DomainError(QcvxError, ValueError):
    """An evaluation point lies outside the function domain."""


class NoSampleError(QcvxError, ValueError):
    """A tabulated function was evaluated off its sample positions."""


class InexactModelError(QcvxError, TypeError):
    """An exact analysis was requested for a sampled or black-box model."""


class MalformedIntervalError(QcvxError, ValueError):
    """An open interval with left endpoint >= right endpoint."""


class OrderingError(QcvxError, ValueError):
    """A pair (x, y) with x >= y where x < y is required."""


class UnsupportedChordError(QcvxError, ValueError):
    """Chord analysis requested with an infinite endpoint value."""


class ConsistencyError(QcvxError, ValueError):
    """A decomposition does not match the function it claims to describe."""


class PreconditionError(QcvxError, RuntimeError):
    """A documented analysis precondition failed an audit."""


class SemicontinuityError(PreconditionError):
    """A semicontinuity audit failed; carries the offending points."""

    def __init__(self, message, offending=()):
        super().__init__(message)
        self.offending = tuple(offending)


class InteriorRequiredError(PreconditionError):
    """A point that must be interior to the domain lies on its boundary."""


class SupremumNotAttainedError(QcvxError, RuntimeError):
    """No point of the queried interval attains the supremum."""


class ValidationError(QcvxError, ValueError):
    """A function document failed validation; names the offending field."""

    def __init__(self, field, message):
        # Both arguments go to ``args``, which pickling passes back.
        super().__init__(field, message)
        self.field = field

    def __str__(self):
        return f"{self.field}: {self.args[1]}"
