"""Exception hierarchy shared across the package, and the rules for the
numbers that set a run: each setting's value is checked by these helpers,
wherever it enters (a dataclass field, a library argument or a CLI flag)."""

import math
import numbers


class CfmcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CfmcError, ValueError):
    """An argument violates a documented precondition."""


class SingularMatrixError(CfmcError):
    """A kernel system could not be factorised; a larger regularisation
    parameter is usually the fix."""


class NumericalError(CfmcError):
    """A computation produced a result outside its numerical tolerance."""


class DataFormatError(CfmcError):
    """A data file could not be parsed or failed validation."""


def _bad(key: str, what: str, value) -> InvalidInputError:
    """The error for the setting ``key`` holding ``value``, not ``what``; it
    opens with ``key``, which callers may prefix with a path or name a flag
    by."""
    return InvalidInputError(f"{key} must be {what}, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(key: str, value, accept, what: str) -> float:
    """``value`` as a float: a number, not a boolean, that is finite as a
    float and that ``accept`` holds for."""
    if _is_number(value):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number) and accept(number):
            return number
    raise _bad(key, what, value)


def _fraction(key: str, value) -> float:
    return _real(key, value, lambda x: 0.0 < x < 1.0, "a number strictly between 0 and 1")


def _count(key: str, value, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``: an integral number, not a
    boolean (an integral float such as ``20.0`` is taken as ``20``)."""
    if _is_number(value) and (isinstance(value, numbers.Integral) or float(value).is_integer()):
        if value >= minimum:
            return int(value)
    raise _bad(key, f"an integer >= {minimum}", value)
