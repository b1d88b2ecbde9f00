"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems exit 1, runtime
failures exit 2, I/O errors exit 3.
"""

import math


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


def check_finite(name: str, value, error: type[ValidationError] = ValidationError) -> None:
    """Raise ``error`` naming ``name`` unless the number ``value`` is finite as a float.

    NaN and inf are refused, and so is an integer beyond float range, on
    which math.isfinite would raise a bare OverflowError.
    """
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise error(f"{name} must be finite, got an integer beyond float range") from None
    if not finite:
        raise error(f"{name} must be finite, got {value!r}")
