"""Exception types shared across the package, and the one way a point-list
evaluator records an error in place of a value."""


class FreeholoError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(FreeholoError, ValueError):
    """Operands have incompatible dimensions."""


class SingularMatrix(FreeholoError, ArithmeticError):
    """Inversion refused: smallest singular value is under the relative floor."""

    def __init__(self, message="matrix is singular to working precision", condition=None):
        super().__init__(message)
        self.condition = condition


class DimensionTooSmall(FreeholoError, ValueError):
    """The requested codomain cannot host an isometry of the requested size."""


class NotPolynomial(FreeholoError, ValueError):
    """The expression contains an inversion, so it has no polynomial form."""


class ExprSyntaxError(FreeholoError, ValueError):
    """Source text could not be parsed. Carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ExprSyntaxError):
    """Variable index is outside 1..d for the declared variable count."""

    def __init__(self, index, d, offset):
        super().__init__(f"variable x{index} not in x1..x{d}", offset)
        self.index = index
        self.d = d


class SingularityHit(FreeholoError, ArithmeticError):
    """Evaluation needed the inverse of a matrix that has none.

    ``path`` locates the failing inversion node: a tuple of child indices
    walked from the root of the expression tree.
    """

    def __init__(self, path, message=None):
        self.path = tuple(path)
        super().__init__(message or f"singular inversion at node path {self.path}")


class OutsideDomain(FreeholoError, ValueError):
    """The point is not strictly inside the domain the operation requires."""


class GramMismatch(FreeholoError, ArithmeticError):
    """Sample data violates the Gram identity, so no isometry can match it."""

    def __init__(self, deviation, message=None):
        self.deviation = float(deviation)
        super().__init__(message or f"gram deviation {self.deviation:.3e} exceeds tolerance")


class RankOverflow(FreeholoError, RuntimeError):
    """Fitting would need more padding than the configured cap allows."""


class NoCover(FreeholoError, ValueError):
    """No candidate domain keeps every sample point strictly inside."""


class TermBlowup(FreeholoError, RuntimeError):
    """Symbolic expansion exceeded the configured term cap."""


class BelowFloor(FreeholoError, ValueError):
    """Column data drops below the requested coercivity floor."""


class NotInvertible(FreeholoError, ArithmeticError):
    """The function value at the base point is not invertible."""


class NonFiniteValue(FreeholoError, ArithmeticError):
    """A function value is not finite where a bound is taken from it.

    ``candidate`` is the position of the candidate grid whose values were
    not finite, when a choice among grids failed.
    """

    def __init__(self, message, candidate=None):
        super().__init__(message)
        self.candidate = candidate


class RootFindingFailure(FreeholoError, ArithmeticError):
    """Polynomial root extraction produced non-finite values."""


class SchemaError(FreeholoError, ValueError):
    """JSON payload does not match the documented schema."""


def outcome(fn, *args):
    """``fn(*args)``, or the :class:`FreeholoError` it raises: one entry of a
    point-list form, which holds per point the value or the error there."""
    try:
        return fn(*args)
    except FreeholoError as exc:
        return exc
