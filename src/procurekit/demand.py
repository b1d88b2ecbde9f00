"""Truncated normal demand model.

Demand is a normal variable restricted to a closed interval [lower, upper].
All quantities used elsewhere in the package (moments, quantiles, partial
expectations) have closed forms in terms of the standard normal pdf/cdf, so
nothing here is estimated by simulation; an interval right of mu uses upper
tail probabilities, so both tails are accurate. Phi is 0.5 * math.erfc(-z /
sqrt 2) and its inverse statistics.NormalDist().inv_cdf (Wichura 1988, AS241),
both from the standard library. Sampling uses the inverse CDF, one uniform
draw per sample, so draws depend only on the seed and count; its thousands of
draws per call go through _norm_ppf_array, the same AS241 in numpy array
arithmetic. So importing the package, solving and drawing load no scipy;
only the fitters do.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .errors import InvalidDistributionError, ValidationError, check_finite, is_int, real_array

__all__ = ["TruncatedNormal", "TruncatedNormalParams"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_CDF = NormalDist().inv_cdf

# Intervals with less parent mass than this are refused: the mass is accurate
# in both tails, but the pdf and moments divide by it and lose their digits.
_MIN_MASS = 1e-12


def _norm_pdf(z):
    # A float z gives a Python float, here and in _norm_cdf, so float paths stay in Python arithmetic.
    density = np.exp(-0.5 * (z * z)) / _SQRT_2PI
    return float(density) if isinstance(z, float) else density


def _each(kernel, z):
    """kernel(z) on a float, else kernel on each element of the array z in turn,
    so a float has the bits of its value inside an array."""
    if isinstance(z, float):
        return kernel(z)
    return np.fromiter(map(kernel, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _norm_cdf(z):
    # Complementary error function keeps the lower tail accurate.
    return 0.5 * _each(math.erfc, -z / math.sqrt(2.0))


def _norm_ppf(p):
    """Phi^-1(p) for p in (0, 1), element by element."""
    return _each(_INV_CDF, p)


# AS241's three rationals, numerator then denominator, each highest power
# first: the coefficients and Horner order of CPython's
# statistics._normal_dist_inv_cdf, which NormalDist().inv_cdf runs.
_AS241_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_AS241_NEAR = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_AS241_FAR = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)


def _horner(coefficients, r):
    """The polynomial of these coefficients, highest power first, at the array
    r by Horner's rule, stepped in place in one fresh array: a fresh array per
    step made _norm_ppf_array about a third slower on 5,000 draws (measured)."""
    total = coefficients[0] * r
    total += coefficients[1]
    for c in coefficients[2:]:
        total *= r
        total += c
    return total


def _norm_ppf_array(p: np.ndarray) -> np.ndarray:
    """Phi^-1(p) for an array p in (0, 1): AS241 (Wichura 1988, Applied
    Statistics 37(3)) in numpy arithmetic, for draws.

    The central rational runs on the whole array and each tail rational only
    on its elements, so an array of thousands costs about 35 array passes:
    on 5,000 draws about a seventh of the time of _norm_ppf's element loop,
    but on the solver's 101-point grid nearly three times it (measured). It
    is NormalDist().inv_cdf's arithmetic, in its order, except numpy's log
    in the tails, and stays within 2 ulps of it (TestKernels).
    """
    q = p - 0.5
    r = 0.180625 - q * q
    x = _horner(_AS241_CENTRAL[0], r)
    x *= q
    # The denominator has no zero for |q| <= 0.5, so the tail elements get a finite value here too.
    x /= _horner(_AS241_CENTRAL[1], r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        p = p[tail]
        # min(p, 1 - p) is p for q <= 0, else 1 - p, as in the float kernel.
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        near = r - 1.6
        size = _horner(_AS241_NEAR[0], near) / _horner(_AS241_NEAR[1], near)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            r = r[far] - 5.0
            size[far] = _horner(_AS241_FAR[0], r) / _horner(_AS241_FAR[1], r)
        # Both tail rationals give |x|, which takes q's sign.
        x[tail] = np.copysign(size, q[tail])
    return x


def _maximum(a: float, b: float) -> float:
    """np.maximum(a, b) on Python floats: the first NaN wins, and a tie returns b."""
    return a if a > b or a != a else b


def _minimum(a: float, b: float) -> float:
    """np.minimum(a, b) on Python floats: the first NaN wins, and a tie returns b."""
    return a if a < b or a != a else b


def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 200-point Gauss-Legendre rule on [-1, 1].

    They are the bits of numpy.polynomial.legendre.leggauss(200), stored as
    package data, so importing the package runs no LAPACK eigensolve.
    """
    with open(os.path.join(os.path.dirname(__file__), "gauss_legendre_200.txt"), encoding="ascii") as table:
        rows = [line.split() for line in table if not line.startswith("#")]
    nodes, weights = ([float.fromhex(value) for value in column] for column in zip(*rows))
    return np.array(nodes), np.array(weights)


# Gauss-Legendre nodes and weights for smooth integrals over the demand
# interval (the variance here, the fill-rate integrals in profit); 200 points
# is far beyond the accuracy anything downstream consumes.
_GL_NODES, _GL_WEIGHTS = _gauss_legendre()


class TruncatedNormalParams(NamedTuple):
    """Derived parameters of one truncated normal, or of many at once, and
    the one statement of its density, CDF, quantile and expected excess.

    Each field is a float for one distribution, or a (cells, 1) column for
    many side by side. The methods take an array of at least one dimension,
    which broadcasts against the fields, or, with float fields, a float,
    which gives a float with the bits of that value in an array. These are
    the unchecked cores of the TruncatedNormal methods of the same names,
    which check arguments. Every operation is elementwise, so a cell's values
    do not depend on its batch. Phi is math.erfc and its inverse
    NormalDist().inv_cdf, called on a float or on each element of an array,
    and quantile takes another inverse as ppf: draws pass _norm_ppf_array,
    AS241 on the whole array at once.

    sign is -1 for an interval right of mu, else 1; cdf_lower and cdf_upper
    are Phi(sign * a) and Phi(sign * b) at the standardized bounds, i.e. upper
    tails on the right, and mass is Phi(b) - Phi(a) in either frame.
    """

    mu: object
    sigma: object
    lower: object
    upper: object
    cdf_lower: object
    cdf_upper: object
    pdf_upper: object
    mass: object
    mean: object
    sign: object

    def density(self, x):
        """The density at x inside [lower, upper]; x outside is the caller's to mask."""
        return _norm_pdf((x - self.mu) / self.sigma) / (self.sigma * self.mass)

    def cdf(self, x):
        """P(D <= x)."""
        scalar = isinstance(x, float)
        if scalar and (x <= self.lower or x >= self.upper):
            return 0.0 if x <= self.lower else 1.0
        maximum, minimum = (_maximum, _minimum) if scalar else (np.maximum, np.minimum)
        raw = self.sign * (_norm_cdf(self.sign * ((x - self.mu) / self.sigma)) - self.cdf_lower) / self.mass
        # np.clip(raw, 0.0, 1.0); with the zero first, maximum keeps a -0.0 as np.clip does.
        clipped = minimum(maximum(0.0, raw), 1.0)
        return clipped if scalar else np.where(x <= self.lower, 0.0, np.where(x >= self.upper, 1.0, clipped))

    def quantile(self, u, ppf=_norm_ppf):
        """Inverse CDF at u, assumed to lie in [0, 1], through ppf, the
        standard normal's inverse CDF on (0, 1): by default NormalDist().inv_cdf
        element by element, which gives a float the bits of its value in an
        array; an array kernel such as _norm_ppf_array for many draws."""
        scalar = isinstance(u, float)
        if scalar and (u == 0.0 or u == 1.0):
            return self.lower if u == 0.0 else self.upper
        maximum, minimum = (_maximum, _minimum) if scalar else (np.maximum, np.minimum)
        p = self.cdf_lower + u * (self.sign * self.mass)
        x = self.mu + (self.sign * self.sigma) * ppf(minimum(maximum(p, 1e-300), 1.0 - 1e-16))
        x = minimum(maximum(x, self.lower), self.upper)
        if scalar:
            return float(x)
        # The clamped x is a fresh array of the broadcast shape, so the bounds are pinned in place.
        np.copyto(x, self.lower, where=u == 0.0)
        np.copyto(x, self.upper, where=u == 1.0)
        return x

    def expected_excess(self, q):
        """E[(D - q)^+] at supply level q."""
        scalar = isinstance(q, float)
        if scalar and (q >= self.upper or q <= self.lower):
            return 0.0 if q >= self.upper else self.mean - q
        t = (q - self.mu) / self.sigma
        tail = self.sign * (self.cdf_upper - _norm_cdf(self.sign * t))
        inside = ((self.mu - q) * tail + self.sigma * (_norm_pdf(t) - self.pdf_upper)) / self.mass
        return inside if scalar else np.where(q >= self.upper, 0.0, np.where(q <= self.lower, self.mean - q, inside))


def _argument(lo: float = -math.inf, hi: float = math.inf):
    """Decorator of a TruncatedNormal method of one argument x, which reaches
    the method as a Python float or a float array of at least one dimension.

    Raises ValidationError naming the method unless x holds real numbers
    (errors.real_array) in [lo, hi]; NaN lies in no interval, and infinities
    pass to their limits. A float, optimize's path, costs one comparison. An
    array runs where numpy ignores over and invalid, which beyond sigma
    ((x - mu) / sigma, z * z, inf * 0) arise only where the masks put the limit.
    """

    def decorate(method):
        @functools.wraps(method)
        def checked(self, x):
            if type(x) is not float:
                x = real_array(f"{method.__name__} argument", x)
                x = float(x) if x.ndim == 0 else x
            if not (lo <= x <= hi if type(x) is float else np.all((x >= lo) & (x <= hi))):
                raise ValidationError(f"{method.__name__} argument must lie in [{lo:g}, {hi:g}]")
            if type(x) is float:
                return method(self, x)
            with np.errstate(over="ignore", invalid="ignore"):
                return method(self, x)

        return checked

    return decorate


@dataclass(frozen=True)
class TruncatedNormal:
    """Normal distribution conditioned on lying within [lower, upper].

    Parameters
    ----------
    mu : float
        Location of the parent normal.
    sigma : float
        Scale of the parent normal, strictly positive.
    lower, upper : float
        Truncation bounds, finite with lower < upper.

    Raises
    ------
    InvalidDistributionError
        If sigma <= 0, the bounds are not ordered, or the parent normal
        places less than 1e-12 probability mass inside the bounds.
    """

    mu: float
    sigma: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "lower", "upper"):
            object.__setattr__(self, name, check_finite(name, getattr(self, name), InvalidDistributionError))
        if self.sigma <= 0.0:
            raise InvalidDistributionError(f"sigma must be positive, got {self.sigma}")
        if not self.lower < self.upper:
            raise InvalidDistributionError(
                f"bounds must satisfy lower < upper, got [{self.lower}, {self.upper}]"
            )
        a = (self.lower - self.mu) / self.sigma
        b = (self.upper - self.mu) / self.sigma
        sign = -1.0 if self.lower > self.mu else 1.0
        cdf_lower, cdf_upper = _norm_cdf(sign * a), _norm_cdf(sign * b)
        mass = sign * (cdf_upper - cdf_lower)
        if mass < _MIN_MASS:
            raise InvalidDistributionError(
                f"truncation interval [{self.lower}, {self.upper}] captures "
                f"{mass:.3e} of the parent normal; refusing to normalize"
            )
        pdf_lower, pdf_upper = _norm_pdf(a), _norm_pdf(b)
        mean = self.mu + self.sigma * (pdf_lower - pdf_upper) / mass
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(
            self,
            "params",
            TruncatedNormalParams(
                self.mu, self.sigma, self.lower, self.upper, cdf_lower, cdf_upper, pdf_upper, mass, mean, sign
            ),
        )

    # -- densities -----------------------------------------------------------

    @_argument()
    def pdf(self, x):
        """Density at x (scalar or array). Zero outside the bounds."""
        if isinstance(x, float):
            return self.params.density(x) if self.lower <= x <= self.upper else 0.0
        return np.where((x >= self.lower) & (x <= self.upper), self.params.density(x), 0.0)

    @_argument()
    def cdf(self, x):
        """P(D <= x) for scalar or array x; a float for a scalar."""
        return self.params.cdf(x)

    @_argument(0.0, 1.0)
    def quantile(self, u):
        """Inverse CDF at u in [0, 1] (scalar or array); a float for a scalar.
        Raises ValidationError if any u falls outside [0, 1]."""
        return self.params.quantile(u)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n samples by inverse-CDF transform of rng.random(n), through
        _norm_ppf_array: AS241 on the whole array, within 2 ulps of
        quantile's element loop and about 7 times faster on 5,000 draws."""
        if not is_int(n) or n < 0:
            raise ValidationError(f"sample size must be nonnegative, got {n!r}")
        check_finite("sample size", n)
        try:
            uniforms = rng.random(n)
        except (ValueError, MemoryError) as exc:
            raise ValidationError(f"sample size {n} is too large to allocate") from exc
        # rng.random lies in [0, 1) by contract, so quantile's range check is skipped
        return self.params.quantile(uniforms, _norm_ppf_array)

    # -- moments and partial expectations -------------------------------------

    @property
    def mean(self) -> float:
        return self.params.mean

    @property
    def variance(self) -> float:
        """Var(D), by quadrature of the central second moment.

        The closed form sigma**2 * (1 + tilt - shift**2) cancels when the
        interval is narrow against sigma or far in a tail. Instead, in
        standard units z, the density is integrated over the part of [a, b]
        where it is within e**-40 of its largest value, at distances u from
        the end of that part nearer the mode: exp(-z**2 / 2) is then
        proportional to exp(-d*origin*u - u**2 / 2) and u carries full
        relative precision however narrow the interval (its width is taken
        from upper - lower, not from a and b). The central moment is a sum
        of positive terms. Gauss-Legendre quadrature on that part agrees with
        50-digit mpmath to about 2e-14 relative, in both tails.
        """
        a, b = self._a, self._b
        mode = min(max(0.0, a), b)
        reach = math.sqrt(mode * mode + 80.0)
        start, stop = max(a, -reach), min(b, reach)
        length = (self.upper - self.lower) / self.sigma if (start, stop) == (a, b) else stop - start
        origin, d = (stop, -1.0) if mode == b else (start, 1.0)
        u = 0.5 * length * (_GL_NODES + 1.0)
        density = _GL_WEIGHTS * np.exp(-d * origin * u - 0.5 * u * u)
        mass = density.sum()
        mean = density @ u / mass
        return self.sigma**2 * float(density @ np.square(u - mean) / mass)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @_argument()
    def expected_excess(self, q):
        """E[(D - q)^+], the expected demand above a supply level q (scalar or
        array); a float for a scalar."""
        return self.params.expected_excess(q)

    @_argument()
    def expected_min(self, q: float) -> float:
        """E[min(q, D)], the expected quantity served when q units are on hand."""
        return self.mean - self.params.expected_excess(q)
