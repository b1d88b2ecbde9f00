"""Exception types shared across the package, and the number rules that
every public constructor checks with, each stated once: a real number is an
int, a float or a numpy integer or floating scalar, but never a bool.

The CLI maps these onto exit codes: validation problems exit 1, runtime
failures exit 2, I/O errors exit 3.
"""

import math
import numbers


class ProcureKitError(Exception):
    """Base class for package-specific failures."""


class ValidationError(ProcureKitError, ValueError):
    """A parameter, configuration entry, or input file is invalid."""


class InvalidDistributionError(ValidationError):
    """Distribution parameters do not define a usable distribution."""


class NegativeUnitCostError(ValidationError):
    """Effective unit cost dropped to zero or below."""


class DegenerateEconomicsError(ValidationError):
    """Parameters make expected profit unbounded or the trade-off vacuous."""


class DegenerateDataError(ValidationError):
    """Input data cannot support the requested fit."""


class RankDeficientDesignError(ValidationError):
    """Regression design matrix is rank deficient."""


class FitConvergenceError(ProcureKitError, RuntimeError):
    """A likelihood optimization failed to converge."""


class ThresholdNotFoundError(ProcureKitError, RuntimeError):
    """No adoption threshold exists inside the given range."""


class SolverCheckError(ProcureKitError, RuntimeError):
    """A solved decision failed the solver's KKT postcondition."""


def is_real(value: object) -> bool:
    """True for a real number other than a bool."""
    # The exact float test spares the common case the ABC check, which costs
    # about ten times as much; every solve makes dozens of these checks.
    return type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def is_int(value: object) -> bool:
    """True for an int or a numpy integer scalar, but not a bool."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def is_finite(value: object) -> bool:
    """True for a real number that converts to a finite float."""
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def check_finite(name: str, value, error: type[ValidationError] = ValidationError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a real number that
    converts to a finite float: a non-number is refused first, then NaN, inf
    and an integer beyond float range."""
    if not is_finite(value):
        if not is_real(value):
            raise error(f"{name} must be a real number, got {value!r}")
        shown = "an integer beyond float range" if isinstance(value, int) else repr(value)
        raise error(f"{name} must be finite, got {shown}")


def store_floats(record, names) -> None:
    """Store the named fields of a frozen dataclass as Python floats, once
    their number checks have passed, so that a numpy scalar given as a field
    takes no numpy arithmetic into the model."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not float:
            object.__setattr__(record, name, float(value))


def check_unit_interval(name: str, value) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is a real number in [0, 1]."""
    # NaN, inf and an integer beyond float range all fail the comparison.
    if not (is_real(value) and 0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
