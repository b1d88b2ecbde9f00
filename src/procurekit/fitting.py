"""Maximum-likelihood fitting of candidate demand families.

Three families are supported. ``truncated-normal`` is a normal core
restricted to a known interval; the interval is treated as part of the model,
not as an estimated quantity. ``pareto`` anchors a heavy right tail at a
scale equal to the sample minimum. ``negative-binomial`` models
overdispersed counts and rounds real-valued observations to the nearest
integer before fitting.

Every fit reports the log-likelihood, AIC, BIC, a histogram-density RMSE,
and the Kolmogorov-Smirnov statistic against the fitted distribution, so
families with different supports can be ranked on a common footing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import betainc, betaln, log_ndtr, ndtr

from .errors import (
    DegenerateDataError,
    FitConvergenceError,
    ProcureKitError,
    ValidationError,
    is_finite,
    real_array,
)

FAMILIES = ("truncated-normal", "pareto", "negative-binomial")

_HISTOGRAM_BINS = 40
_FREE_PARAMS = 2  # every family estimates exactly two free parameters


@dataclass(frozen=True)
class FitReport:
    """One fitted family with its model-selection metrics.

    Attributes
    ----------
    family : str
        One of ``FAMILIES``.
    params : tuple of float
        Fitted parameter vector; see ``param_names`` for the layout.
    param_names : tuple of str
        Name of each entry in ``params``.
    n_free_params : int
        Number of estimated parameters (fixed support bounds do not count).
    log_likelihood : float
        Log-likelihood of the data at the fitted parameters.
    aic, bic : float
        Information criteria; smaller is better.
    rmse : float
        Root-mean-square gap between the fitted density and a 40-bin
        normalized histogram of the data, evaluated at bin centers.
    ks_statistic : float
        Largest absolute gap between the empirical and fitted CDFs.
    sample_size : int
        Number of observations the fit used.
    notes : tuple of str
        Caveats about how the fit was performed.
    """

    family: str
    params: tuple[float, ...]
    param_names: tuple[str, ...]
    n_free_params: int
    log_likelihood: float
    aic: float
    bic: float
    rmse: float
    ks_statistic: float
    sample_size: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Comparison:
    """Ranked fits plus a record of any families that failed."""

    reports: tuple[FitReport, ...]
    warnings: tuple[str, ...]

    @property
    def best(self) -> FitReport:
        if not self.reports:
            raise FitConvergenceError("no family produced a usable fit")
        return self.reports[0]


def fit(
    family: str,
    data: Iterable[float],
    fixed_bounds: tuple[float, float] | None = None,
) -> FitReport:
    """Fit one family to a demand series by maximum likelihood.

    Parameters
    ----------
    family : str
        One of ``FAMILIES``.
    data : iterable of float
        Observed demand values; must be nonempty and finite.
    fixed_bounds : (float, float), optional
        Known support interval for the truncated-normal family. When
        omitted, the observed data range is used and a note is recorded.
        Not accepted for the other families.

    Returns
    -------
    FitReport

    Raises
    ------
    ValidationError
        Empty or non-finite data, data outside the declared support, or
        ``fixed_bounds`` passed to a family that has no bounds.
    DegenerateDataError
        The sample cannot identify the family's parameters (for example a
        constant series).
    FitConvergenceError
        The likelihood maximization failed to settle on an interior optimum.
    """
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}; expected one of {FAMILIES}")
    x = real_array("data", data).ravel()
    if x.size == 0:
        raise ValidationError("data must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValidationError("data must be finite")
    # sorting makes every downstream sum and scan order-independent
    x = np.sort(x)
    if family == "truncated-normal":
        fitted = _fit_truncated_normal(x, fixed_bounds)
    elif fixed_bounds is not None:
        raise ValidationError("fixed_bounds applies only to the truncated-normal family")
    elif family == "pareto":
        fitted = _fit_pareto(x)
    else:
        fitted = _fit_negative_binomial(x)
    n = fitted.sample.size
    return FitReport(
        family=family,
        params=fitted.params,
        param_names=fitted.param_names,
        n_free_params=_FREE_PARAMS,
        log_likelihood=fitted.log_likelihood,
        aic=2.0 * _FREE_PARAMS - 2.0 * fitted.log_likelihood,
        bic=_FREE_PARAMS * math.log(n) - 2.0 * fitted.log_likelihood,
        rmse=_histogram_rmse(fitted.sample, fitted.density),
        ks_statistic=fitted.ks(fitted.sample, fitted.cdf),
        sample_size=n,
        notes=fitted.notes,
    )


def compare(
    data: Iterable[float],
    families: Sequence[str] = FAMILIES,
    fixed_bounds: tuple[float, float] | None = None,
) -> Comparison:
    """Fit several families and rank them by information criteria.

    Reports are sorted ascending by AIC, with ties broken by BIC and then by
    family name. Families whose fit raises are excluded from the ranking and
    recorded in ``warnings`` instead.
    """
    fams = tuple(families)
    if not fams:
        raise ValidationError("at least one family is required")
    for fam in fams:
        if fam not in FAMILIES:
            raise ValidationError(f"unknown family {fam!r}; expected one of {FAMILIES}")
    if len(set(fams)) != len(fams):
        raise ValidationError("families must be distinct")

    reports: list[FitReport] = []
    warnings: list[str] = []
    for fam in fams:
        bounds = fixed_bounds if fam == "truncated-normal" else None
        try:
            reports.append(fit(fam, data, fixed_bounds=bounds))
        except ProcureKitError as exc:
            warnings.append(f"{fam}: {exc}")
    reports.sort(key=lambda r: (r.aic, r.bic, r.family))
    return Comparison(reports=tuple(reports), warnings=tuple(warnings))


def read_demand_series(path: str) -> np.ndarray:
    """Read a demand series from a single-column CSV with header ``demand``
    (after an optional UTF-8 byte-order mark); every value must be finite."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows or [cell.strip() for cell in rows[0]] != ["demand"]:
        raise ValidationError(f"{path}: expected a single-column CSV with header 'demand'")
    values: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue
        if len(row) != 1:
            raise ValidationError(f"{path}:{lineno}: expected one value per row")
        try:
            value = float(row[0])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: not a number: {row[0]!r}") from exc
        if not math.isfinite(value):
            raise ValidationError(f"{path}:{lineno}: not a finite number: {row[0]!r}")
        values.append(value)
    if not values:
        raise ValidationError(f"{path}: no demand values found")
    return np.asarray(values, dtype=float)


@dataclass(frozen=True)
class _Fitted:
    """What a family's fitter hands back for ``fit`` to score.

    ``sample`` is the sorted data the family was fitted to; ``ks`` is the
    Kolmogorov-Smirnov convention (continuous or discrete) that suits it.
    """

    params: tuple[float, ...]
    param_names: tuple[str, ...]
    log_likelihood: float
    sample: np.ndarray
    density: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    ks: Callable[[np.ndarray, Callable[[np.ndarray], np.ndarray]], float]
    notes: tuple[str, ...] = ()


def _ks_continuous(sorted_x: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    # classic two-sided statistic: sup over jump points of the empirical CDF
    n = sorted_x.size
    f = np.asarray(cdf(sorted_x), dtype=float)
    upper_gap = np.max(np.arange(1, n + 1) / n - f)
    lower_gap = np.max(f - np.arange(0, n) / n)
    return float(max(upper_gap, lower_gap, 0.0))


def _ks_discrete(sorted_k: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    # both CDFs are step functions; the sup is attained at a support point
    support = np.unique(sorted_k)
    empirical = np.searchsorted(sorted_k, support, side="right") / sorted_k.size
    return float(np.max(np.abs(empirical - np.asarray(cdf(support), dtype=float))))


def _histogram_rmse(x: np.ndarray, density: Callable[[np.ndarray], np.ndarray]) -> float:
    # Data spanning only a few floats cannot hold _HISTOGRAM_BINS distinct
    # edges; they get as many bins as distinct edges exist.
    edges = np.unique(np.linspace(np.min(x), np.max(x), _HISTOGRAM_BINS + 1))
    heights, edges = np.histogram(x, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    gaps = heights - np.asarray(density(centers), dtype=float)
    return float(np.sqrt(np.mean(gaps**2)))


def _log_interval_mass(a_std, b_std):
    """Log of Phi(b_std) - Phi(a_std), stable when both lie in one far tail.

    Arrays broadcast; a scalar pair gives a float. Equal bounds hold zero
    mass and give -inf.
    """
    a_std, b_std = np.asarray(a_std, dtype=float), np.asarray(b_std, dtype=float)
    # right of zero, mirror so both tails read Phi(hi) * (1 - Phi(lo) / Phi(hi))
    right = a_std > 0.0
    log_hi = log_ndtr(np.where(right, -a_std, b_std))
    log_lo = log_ndtr(np.where(right, -b_std, a_std))
    with np.errstate(divide="ignore"):
        tail = log_hi + np.log1p(-np.exp(log_lo - log_hi))
        body = np.log(ndtr(b_std) - ndtr(a_std))
    out = np.where(right | (b_std < 0.0), tail, body)
    return float(out) if out.ndim == 0 else out


def _fit_truncated_normal(
    x: np.ndarray, fixed_bounds: tuple[float, float] | None
) -> _Fitted:
    # scipy.optimize costs more to import than the rest of the package; only
    # fitting needs it, so it loads here rather than with procurekit.
    from scipy.optimize import brentq, minimize_scalar

    notes: list[str] = []
    if fixed_bounds is None:
        lower, upper = float(x[0]), float(x[-1])
        notes.append("support bounds defaulted to the observed data range")
    else:
        try:
            lower, upper = fixed_bounds
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"fixed_bounds must be a (lower, upper) pair, got {fixed_bounds!r}") from exc
        if not (is_finite(lower) and is_finite(upper) and lower < upper):
            raise ValidationError("fixed_bounds must be finite with lower < upper")
        lower, upper = float(lower), float(upper)
        if x[0] < lower or x[-1] > upper:
            raise ValidationError("data fall outside the fixed support bounds")
    if x[0] == x[-1]:
        raise DegenerateDataError("constant data drive the scale estimate to zero")

    n = x.size
    mean = float(np.mean(x))
    half_log_two_pi = 0.5 * math.log(2.0 * math.pi)
    # compact search box: beyond ten support widths the shape over [lower,
    # upper] is indistinguishable from its limit, so the constrained MLE
    # always exists even for data no normal core can match
    width = upper - lower
    # With mu in the box every |x - mu| is at most 11 widths; n such squares must sum within float range.
    if not math.isfinite(n * (11.0 * width) * (11.0 * width)):
        raise ValidationError(f"the support is too wide: {n} squares of 11 times its width overflow a float")
    mu_lo, mu_hi = lower - 10.0 * width, upper + 10.0 * width
    log_sigma_lo, log_sigma_hi = math.log(1e-6 * width), math.log(10.0 * width)

    def standardized(mu: float, sigma: float) -> tuple[float, float, float]:
        # the support bounds in units of sigma from mu, and the log of their mass
        a_std, b_std = (lower - mu) / sigma, (upper - mu) / sigma
        return a_std, b_std, _log_interval_mass(a_std, b_std)

    def fitted_mean(mu: float, sigma: float) -> float:
        a_std, b_std, log_mass = standardized(mu, sigma)
        edge_a = math.exp(-0.5 * a_std * a_std - half_log_two_pi - log_mass)
        edge_b = math.exp(-0.5 * b_std * b_std - half_log_two_pi - log_mass)
        return mu + sigma * (edge_a - edge_b)

    def best_mu(sigma: float) -> float:
        # for fixed sigma the likelihood is concave in mu and stationary
        # exactly where the fitted mean matches the sample mean
        def gap(mu: float) -> float:
            return fitted_mean(mu, sigma) - mean

        if gap(mu_lo) >= 0.0:
            return mu_lo
        if gap(mu_hi) <= 0.0:
            return mu_hi
        return float(brentq(gap, mu_lo, mu_hi, xtol=1e-10 * width, maxiter=200))

    def profile_nll(log_sigma: float) -> float:
        sigma = math.exp(log_sigma)
        mu = best_mu(sigma)
        log_mass = standardized(mu, sigma)[2]
        quad = float(np.sum((x - mu) ** 2)) / (2.0 * sigma * sigma)
        return n * (log_sigma + log_mass + half_log_two_pi) + quad

    result = minimize_scalar(
        profile_nll,
        bounds=(log_sigma_lo, log_sigma_hi),
        method="bounded",
        options={"xatol": 1e-11},
    )
    if not result.success:
        raise FitConvergenceError("truncated-normal likelihood maximization did not converge")
    sigma_hat = math.exp(float(result.x))
    mu_hat = best_mu(sigma_hat)
    if float(result.x) >= log_sigma_hi - 1e-6:
        notes.append(
            "scale estimate capped at ten support widths; no normal core "
            "matches the sample dispersion"
        )
    if mu_hat <= mu_lo + 1e-6 * width or mu_hat >= mu_hi - 1e-6 * width:
        notes.append("location estimate hit the edge of the search box")

    # evaluate the fitted density and CDF in log space: extreme fits place
    # the core so far out that the raw interval mass underflows a double even
    # though the conditional distribution on [lower, upper] is well defined
    a_hat, b_hat, log_mass_hat = standardized(mu_hat, sigma_hat)

    def density(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        z = (v - mu_hat) / sigma_hat
        body = np.exp(-0.5 * z * z - half_log_two_pi - log_mass_hat) / sigma_hat
        return np.where((v >= lower) & (v <= upper), body, 0.0)

    def cdf(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        z = np.clip((v - mu_hat) / sigma_hat, a_hat, b_hat)
        return np.minimum(np.exp(_log_interval_mass(a_hat, z) - log_mass_hat), 1.0)

    return _Fitted(
        (mu_hat, sigma_hat, lower, upper), ("mu", "sigma", "lower", "upper"),
        -float(result.fun), x, density, cdf, _ks_continuous, tuple(notes),
    )


def _fit_pareto(x: np.ndarray) -> _Fitted:
    if x[0] <= 0.0:
        raise ValidationError("pareto requires strictly positive data")
    scale = float(x[0])
    # x / scale overflows to inf for a span beyond float range, which the check below refuses
    with np.errstate(over="ignore"):
        log_ratio_sum = float(np.sum(np.log(x / scale)))
    if not math.isfinite(log_ratio_sum):
        raise DegenerateDataError("the ratio of the largest to the smallest value overflows a float")
    if log_ratio_sum == 0.0:
        raise DegenerateDataError("constant data drive the tail index to infinity")
    n = x.size
    # closed-form MLE: scale at the sample minimum, shape from the log ratios
    shape = n / log_ratio_sum
    log_likelihood = (
        n * math.log(shape)
        + n * shape * math.log(scale)
        - (shape + 1.0) * float(np.sum(np.log(x)))
    )

    def cdf(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        tail = np.where(v >= scale, (scale / np.maximum(v, scale)) ** shape, 1.0)
        return 1.0 - tail

    def density(v: np.ndarray) -> np.ndarray:
        # log space: scale**shape overflows for tightly clustered data
        v = np.asarray(v, dtype=float)
        log_body = (
            math.log(shape)
            + shape * math.log(scale)
            - (shape + 1.0) * np.log(np.maximum(v, scale))
        )
        return np.where(v >= scale, np.exp(log_body), 0.0)

    return _Fitted(
        (shape, scale), ("shape", "scale"), log_likelihood, x, density, cdf, _ks_continuous
    )


def _log_nb_coefficient(k: np.ndarray, r: float) -> np.ndarray:
    """log C(k + r - 1, k) of each count k, 0 at k = 0, as -log k - log B(k, r):
    log Gamma(k + r) - log Gamma(r) - log Gamma(k + 1) cancels the digits
    that a large count's terms share."""
    positive = np.maximum(k, 1.0)
    return np.where(k > 0.0, -np.log(positive) - betaln(positive, r), 0.0)


def _fit_negative_binomial(x: np.ndarray) -> _Fitted:
    from scipy.optimize import minimize_scalar

    if x[-1] > 2.0**53:
        raise ValidationError("negative-binomial requires counts up to 2**53, where floats hold every integer")
    # refused before the cast, which cannot hold a count below -2**63
    if np.rint(x[0]) < 0.0:
        raise ValidationError("negative-binomial requires nonnegative counts after rounding")
    counts = np.rint(x).astype(np.int64)
    if counts[0] == counts[-1]:
        raise DegenerateDataError("constant counts leave the dispersion unidentified")
    n = counts.size
    mean = float(np.mean(counts))
    variance = float(np.var(counts))
    # the likelihood equation has an interior root only for overdispersed
    # counts; otherwise the supremum is the Poisson limit at infinite r
    if variance <= mean:
        raise FitConvergenceError(
            "negative-binomial dispersion has no interior maximizer: sample "
            f"variance ({variance:.6g}) does not exceed the mean ({mean:.6g})"
        )
    count_sum = float(np.sum(counts))
    distinct, multiplicity = np.unique(counts, return_counts=True)

    def negative_log_likelihood(log_r: float) -> float:
        r = math.exp(log_r)
        # for fixed r the success probability is profiled out analytically
        p = r / (r + mean)
        ll = float(np.dot(multiplicity, _log_nb_coefficient(distinct, r)))
        ll += n * r * math.log(p) + count_sum * math.log1p(-p)
        return -ll

    lo, hi = math.log(1e-6), math.log(1e9)
    result = minimize_scalar(
        negative_log_likelihood, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
    )
    if not result.success:
        raise FitConvergenceError("negative-binomial likelihood maximization did not converge")
    r_hat = math.exp(float(result.x))
    if result.x <= lo + 1e-6 or result.x >= hi - 1e-6:
        raise FitConvergenceError(
            "negative-binomial dispersion ran to a search bound instead of an "
            "interior maximum (sample variance must exceed the mean)"
        )
    p_hat = r_hat / (r_hat + mean)
    log_likelihood = -float(result.fun)

    def pmf(j: np.ndarray) -> np.ndarray:
        j = np.maximum(np.rint(np.asarray(j, dtype=float)), 0.0)
        return np.exp(_log_nb_coefficient(j, r_hat) + r_hat * math.log(p_hat) + j * math.log1p(-p_hat))

    def cdf(v: np.ndarray) -> np.ndarray:
        v = np.floor(np.asarray(v, dtype=float))
        inside = betainc(r_hat, np.maximum(v, 0.0) + 1.0, p_hat)
        return np.where(v < 0.0, 0.0, inside)

    return _Fitted(
        (r_hat, p_hat), ("r", "p"), log_likelihood, counts.astype(float), pmf, cdf, _ks_discrete,
        (
            "observations rounded to the nearest integer before fitting",
            "KS uses the discrete convention: supremum over observed support points",
        ),
    )
