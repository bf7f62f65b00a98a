"""Exception types shared across the package, and the count check they share."""

import numbers


class AtsegError(Exception):
    """Base class for all package errors."""


class InvalidInputError(AtsegError, ValueError):
    """An argument violates a documented precondition."""


class GridMismatchError(InvalidInputError):
    """Fields passed to one operation live on different grids."""


class DegenerateInputError(InvalidInputError):
    """Input is formally valid but makes the requested quantity undefined."""


class DegenerateSystemError(AtsegError):
    """A linear system would be singular or only semidefinite."""


class LinearSolveError(AtsegError):
    """An iterative solve failed to reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class PgmParseError(AtsegError, ValueError):
    """Malformed PGM stream; carries the byte offset of the defect."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def require_count(name: str, value, minimum: int) -> None:
    """InvalidInputError unless value is an integer, not a bool, of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidInputError(f"{name} must be an integer of at least {minimum}, got {value!r}")
