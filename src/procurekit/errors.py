"""Exception types shared across the package, and the number rules that
every public constructor checks with, each stated once: a real number is an
int, a float or a numpy integer or floating scalar, but never a bool. An
array of real numbers is rectangular, of integer or floating dtype, no bool.
A number rule returns the Python float it accepts, and callers store and
compute with that float, so no numpy scalar promotion reaches the model.

The CLI maps these onto exit codes: validation problems exit 1, runtime
failures exit 2, I/O errors exit 3.
"""

import math
import numbers

import numpy as np


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
    """A solved decision failed the solver's KKT postcondition; ``alpha`` is its adoption level."""

    def __init__(self, message: str, alpha: float = math.nan) -> None:
        super().__init__(message)
        self.alpha = alpha


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


def check_finite(name: str, value, error: type[ValidationError] = ValidationError) -> float:
    """``value`` as a float, once it is a real number that converts to a
    finite float; else raise ``error`` naming ``name``: a non-number is
    refused first, then NaN, inf and an integer beyond float range."""
    if not is_finite(value):
        if not is_real(value):
            raise error(f"{name} must be a real number, got {value!r}")
        shown = "an integer beyond float range" if isinstance(value, int) else repr(value)
        raise error(f"{name} must be finite, got {shown}")
    return float(value)


def check_unit_interval(name: str, value) -> float:
    """``value`` as a float, once it is a real number in [0, 1]; else raise ValidationError naming ``name``."""
    # NaN, inf and an integer beyond float range all fail the comparison.
    if not (is_real(value) and 0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def real_array(name: str, values, ndims: tuple[int, ...] | None = None) -> np.ndarray:
    """``values`` as a float array. Raises ValidationError naming ``name``
    for ragged nesting, for a bool anywhere, for elements that numpy does not
    store with an integer or floating dtype (strings, None, ints beyond 64
    bits) and, when ``ndims`` is given, for a number of dimensions not in it."""
    try:
        array = np.asarray(values)
    except ValueError as exc:
        # Nested sequences whose rows differ in length.
        raise ValidationError(_array_rule(name, ndims)) from exc
    if array.dtype.kind not in "iuf" or (ndims and array.ndim not in ndims):
        raise ValidationError(f"{_array_rule(name, ndims)}, got {array.dtype} of shape {array.shape}")
    # numpy stores [True, 2.0] as floats: a sequence's bools show only in its elements, an ndarray's in its dtype.
    elements = () if isinstance(values, np.ndarray) else np.asarray(values, object).flat
    if any(isinstance(v, (bool, np.bool_)) for v in elements):
        raise ValidationError(f"{_array_rule(name, ndims)}, got a bool in {array.dtype} of shape {array.shape}")
    return array.astype(float, copy=False)


def _array_rule(name: str, ndims: tuple[int, ...] | None) -> str:
    # Built only on failure: Monte Carlo cells pass their draws through real_array.
    shape = " or ".join(f"{n}-D" for n in ndims) + " array" if ndims else "real number or array"
    return f"{name} must be a {shape} of real numbers"
