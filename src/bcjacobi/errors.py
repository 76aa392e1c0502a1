"""Exception types shared across the package.

Every deliberate error is a `BCError`, which `bcjacobi run` reports as exit 2
with `error: ...`.  A malformed argument raises `InvalidInputError`, both a
`BCError` and a `ValueError`; any other exception (numpy's own) is a bug.
"""


class BCError(Exception):
    """Base class for all package errors."""


class InvalidInputError(BCError, ValueError):
    """An argument is malformed: wrong type, size, length or vocabulary."""


class SpecTooShortError(BCError):
    """A Jacobi coefficient block is too short for the requested horizon."""


class SingularBlockError(BCError):
    """A connecting-operator block is singular; inversion formulas do not apply."""


class NotRealizableError(BCError):
    """Input data cannot be produced by any admissible system or measure."""


class NumericalFailureError(BCError):
    """A numerically degenerate state that is impossible in exact arithmetic."""


class PoleError(BCError):
    """Evaluation requested at (or too close to) a pole."""
