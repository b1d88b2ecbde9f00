from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from procurekit.demand import TruncatedNormal
from procurekit.errors import (
    DegenerateDataError,
    FitConvergenceError,
    ValidationError,
)
from procurekit.fitting import (
    FAMILIES,
    Comparison,
    _log_interval_mass,
    compare,
    fit,
    read_demand_series,
)

from oracles import reference_negative_binomial_r

DIST = TruncatedNormal(mu=50.0, sigma=8.0, lower=30.0, upper=70.0)


@pytest.fixture(scope="module")
def tn_sample():
    rng = np.random.default_rng(7)
    return DIST.sample(rng, 10_000)


def ks_brute_force_continuous(data, cdf):
    xs = np.sort(np.asarray(data, dtype=float))
    n = xs.size
    best = 0.0
    for i in range(n):
        f = float(np.asarray(cdf(xs[i : i + 1]))[0])
        best = max(best, abs((i + 1) / n - f), abs(i / n - f))
    return best


def ks_brute_force_discrete(counts, cdf):
    counts = np.asarray(counts)
    best = 0.0
    for u in np.unique(counts):
        empirical = float(np.sum(counts <= u)) / counts.size
        best = max(best, abs(empirical - float(np.asarray(cdf(np.array([u])))[0])))
    return best


def tn_log_likelihood(data, mu, sigma, lower, upper):
    dist = TruncatedNormal(mu=mu, sigma=sigma, lower=lower, upper=upper)
    return float(np.sum(np.log(dist.pdf(data))))


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="unknown family"):
            fit("weibull", [1.0, 2.0])

    def test_empty_data(self):
        with pytest.raises(ValidationError, match="nonempty"):
            fit("pareto", [])

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1.0, math.nan], "data must be finite"),
            # an int beyond 64 bits leaves numpy an object array, which errors.real_array refuses
            ([1, 2**64], "data must be a real number or array of real numbers, got object"),
            # numpy stores [True, 2.0, 3.0] as floats; the rule still refuses the bool
            ([True, 2.0, 3.0], "data must be a real number or array of real numbers, got a bool"),
        ],
    )
    def test_non_finite_data(self, data, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            fit("pareto", data)

    def test_bounds_on_wrong_family(self):
        with pytest.raises(ValidationError, match="truncated-normal"):
            fit("pareto", [1.0, 2.0], fixed_bounds=(0.0, 5.0))

    @pytest.mark.parametrize("bounds", [5, (1.0,), (1.0, 2.0, 3.0)])
    def test_bounds_that_are_not_a_pair(self, bounds):
        message = "fixed_bounds must be a (lower, upper) pair, got "
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            fit("truncated-normal", [1.0, 2.0, 3.0, 2.5], fixed_bounds=bounds)
        assert compare([1.0, 2.0, 3.0], fixed_bounds=bounds).warnings[0].startswith(f"truncated-normal: {message}")

    def test_reversed_bounds(self):
        with pytest.raises(ValidationError, match="lower < upper"):
            fit("truncated-normal", [1.0, 2.0], fixed_bounds=(5.0, 0.0))

    def test_data_outside_bounds(self):
        with pytest.raises(ValidationError, match="outside"):
            fit("truncated-normal", [1.0, 99.0], fixed_bounds=(0.0, 10.0))

    def test_pareto_rejects_nonpositive(self):
        with pytest.raises(ValidationError, match="positive"):
            fit("pareto", [0.0, 1.0, 2.0])

    def test_negative_binomial_rejects_negative(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            fit("negative-binomial", [-1.0, 2.0, 3.0])


class TestDegenerateData:
    def test_constant_truncated_normal(self):
        with pytest.raises(DegenerateDataError, match="constant"):
            fit("truncated-normal", np.full(20, 5.0), fixed_bounds=(0.0, 10.0))

    def test_constant_pareto(self):
        with pytest.raises(DegenerateDataError, match="constant"):
            fit("pareto", np.full(20, 5.0))

    def test_constant_negative_binomial(self):
        with pytest.raises(DegenerateDataError, match="constant"):
            fit("negative-binomial", np.full(20, 5.0))

    def test_underdispersed_counts_have_no_interior_optimum(self):
        data = np.array([10.0] * 50 + [11.0] * 50)
        with pytest.raises(FitConvergenceError, match="variance"):
            fit("negative-binomial", data)


class TestTruncatedNormalFit:
    @pytest.mark.parametrize("data", [[0.0, 1.8961503816218355e154], [2.6815615859885126e154, 1.0], [0.0, 1e300]])
    def test_refuses_a_support_too_wide_to_square(self, data):
        # mu lies within ten widths of the support, so |x - mu| <= 11 widths,
        # and n such squares must sum within float range.
        with pytest.raises(ValidationError, match="^the support is too wide: 2 squares of 11 times its width"):
            fit("truncated-normal", data)

    def test_fits_a_support_just_inside_the_bound(self):
        # 2 * (11 * 8.6e152)**2 is about 1.79e308, just below the largest float.
        report = fit("truncated-normal", [0.0, 8.6e152])
        assert math.isfinite(report.log_likelihood) and math.isfinite(report.aic)

    def test_recovers_generating_parameters(self, tn_sample):
        report = fit("truncated-normal", tn_sample, fixed_bounds=(30.0, 70.0))
        mu_hat, sigma_hat = report.params[:2]
        assert abs(mu_hat - 50.0) / 50.0 < 0.02
        assert abs(sigma_hat - 8.0) / 8.0 < 0.02
        assert report.params[2:] == (30.0, 70.0)
        assert report.notes == ()

    def test_fit_is_a_likelihood_maximum(self, tn_sample):
        report = fit("truncated-normal", tn_sample, fixed_bounds=(30.0, 70.0))
        mu_hat, sigma_hat = report.params[:2]
        star = tn_log_likelihood(tn_sample, mu_hat, sigma_hat, 30.0, 70.0)
        assert star == pytest.approx(report.log_likelihood, rel=1e-12)
        for dmu, dsigma in ((0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01), (0.01, 0.01)):
            nearby = tn_log_likelihood(
                tn_sample, mu_hat + dmu, sigma_hat + dsigma, 30.0, 70.0
            )
            assert star >= nearby

    def test_missing_bounds_default_to_data_range_with_note(self, tn_sample):
        report = fit("truncated-normal", tn_sample)
        assert report.params[2] == float(np.min(tn_sample))
        assert report.params[3] == float(np.max(tn_sample))
        assert any("defaulted" in note for note in report.notes)

    def test_order_invariance_is_exact(self, tn_sample):
        shuffled = np.array(tn_sample)
        np.random.default_rng(3).shuffle(shuffled)
        a = fit("truncated-normal", tn_sample, fixed_bounds=(30.0, 70.0))
        b = fit("truncated-normal", shuffled, fixed_bounds=(30.0, 70.0))
        assert a == b

    def test_u_shaped_sample_caps_the_scale_with_a_note(self):
        # mass piled at both ends of the support: the likelihood keeps
        # rising with sigma, up to the ten-support-width cap
        rng = np.random.default_rng(0)
        data = np.concatenate([rng.uniform(0.0, 1.0, 200), rng.uniform(9.0, 10.0, 200)])
        report = fit("truncated-normal", data, fixed_bounds=(0.0, 10.0))
        assert any("scale estimate capped" in note for note in report.notes)
        assert report.params[1] == pytest.approx(100.0, rel=1e-6)

    def test_heavy_tail_data_yield_a_noted_boundary_fit(self):
        rng = np.random.default_rng(11)
        data = 30.0 * (1.0 + rng.pareto(1.5, size=4_000))
        report = fit("truncated-normal", data)
        assert any("search box" in note or "capped" in note for note in report.notes)
        assert math.isfinite(report.log_likelihood)


class TestParetoFit:
    def test_closed_form_mle(self):
        data = np.array([2.0, 3.0, 5.0, 9.0, 2.5])
        report = fit("pareto", data)
        scale = data.min()
        shape = data.size / np.sum(np.log(data / scale))
        assert report.params == pytest.approx((shape, scale), rel=1e-14)
        ll = data.size * math.log(shape) + data.size * shape * math.log(scale) - (
            shape + 1.0
        ) * float(np.sum(np.log(data)))
        assert report.log_likelihood == pytest.approx(ll, rel=1e-14)

    def test_shape_recovery(self):
        rng = np.random.default_rng(5)
        data = 30.0 * (1.0 + rng.pareto(1.5, size=50_000))
        report = fit("pareto", data)
        assert report.params[0] == pytest.approx(1.5, rel=0.03)
        assert report.params[1] == pytest.approx(30.0, rel=0.001)

    def test_data_spanning_two_floats(self):
        # Too narrow for 40 histogram bins; the fit must still report.
        report = fit("pareto", [0.5, 0.5, 0.5000000000000001])
        assert math.isfinite(report.rmse)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.5, max_value=1e6, allow_nan=False),
            min_size=3,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_order_invariance_property(self, values, seed):
        assume(len(set(values)) > 1)
        shuffled = list(values)
        np.random.default_rng(seed).shuffle(shuffled)
        assert fit("pareto", values) == fit("pareto", shuffled)


class TestNegativeBinomialFit:
    def test_recovers_generating_parameters(self):
        rng = np.random.default_rng(19)
        data = rng.negative_binomial(5, 0.4, size=20_000)
        report = fit("negative-binomial", data)
        r_hat, p_hat = report.params
        assert r_hat == pytest.approx(5.0, rel=0.08)
        assert p_hat == pytest.approx(0.4, rel=0.05)

    def test_real_values_round_to_integers(self):
        rng = np.random.default_rng(23)
        counts = rng.negative_binomial(4, 0.3, size=5_000)
        jittered = counts + rng.uniform(-0.4, 0.4, size=counts.size)
        assert fit("negative-binomial", jittered) == fit("negative-binomial", counts)

    def test_rounding_is_documented(self):
        rng = np.random.default_rng(29)
        report = fit("negative-binomial", rng.negative_binomial(4, 0.3, size=2_000))
        assert any("rounded" in note for note in report.notes)

    def test_log_likelihood_identity(self):
        rng = np.random.default_rng(31)
        counts = rng.negative_binomial(6, 0.5, size=3_000)
        report = fit("negative-binomial", counts)
        r_hat, p_hat = report.params
        ll = float(
            np.sum(
                gammaln(counts + r_hat)
                - gammaln(r_hat)
                - gammaln(counts + 1.0)
                + r_hat * math.log(p_hat)
                + counts * math.log1p(-p_hat)
            )
        )
        assert report.log_likelihood == pytest.approx(ll, rel=1e-10)

    @pytest.mark.parametrize(
        "zeros, count",
        [
            (10, 2**53), (16, 2**53), (22, 2**53), (24, 2**53), (30, 2**53), (46, 2**53), (16, 2**45),
            (5, 2**20), (5, 2**29), (5, 2**32), (40, 2**32),
        ],
    )
    def test_a_large_count_fits_the_dispersion_at_the_reference(self, zeros, count):
        # A log-gamma difference loses most digits of such a count's
        # coefficient; -log k - log B(k, r) keeps them.
        data = [0] * zeros + [count]
        r_hat = fit("negative-binomial", data).params[0]
        assert r_hat == pytest.approx(reference_negative_binomial_r(data), rel=1e-6)

    def test_a_resolvable_dispersion_is_not_refused(self):
        data = [0] * 16 + [2**8]
        assert fit("negative-binomial", data).params[0] == pytest.approx(
            reference_negative_binomial_r(data), rel=1e-6
        )


class TestMetrics:
    def test_information_criteria_identities(self, tn_sample):
        reports = [
            fit("truncated-normal", tn_sample, fixed_bounds=(30.0, 70.0)),
            fit("pareto", tn_sample),
            fit("negative-binomial", tn_sample),
        ]
        for report in reports:
            assert report.n_free_params == 2
            assert report.aic == 2.0 * 2 - 2.0 * report.log_likelihood
            assert report.bic == 2 * math.log(report.sample_size) - 2.0 * report.log_likelihood

    def test_ks_matches_brute_force_continuous(self, tn_sample):
        report = fit("truncated-normal", tn_sample, fixed_bounds=(30.0, 70.0))
        fitted = TruncatedNormal(
            mu=report.params[0], sigma=report.params[1], lower=30.0, upper=70.0
        )
        assert report.ks_statistic == pytest.approx(
            ks_brute_force_continuous(tn_sample, fitted.cdf), abs=1e-12
        )

    def test_ks_matches_scipy_on_heavy_tail_fit(self):
        # the fitted core sits far left of the data (interval mass ~1e-168),
        # which TruncatedNormal refuses, so scipy's truncnorm is the oracle
        from scipy.stats import truncnorm

        rng = np.random.default_rng(11)
        data = 30.0 * (1.0 + rng.pareto(1.5, size=4_000))
        report = fit("truncated-normal", data)
        mu, sigma, lower, upper = report.params
        oracle = truncnorm((lower - mu) / sigma, (upper - mu) / sigma, loc=mu, scale=sigma)
        f = oracle.cdf(np.sort(data))
        steps = np.arange(data.size + 1) / data.size
        brute = max(np.max(np.abs(steps[1:] - f)), np.max(np.abs(steps[:-1] - f)))
        assert report.ks_statistic == pytest.approx(brute, abs=1e-12)

    def test_ks_matches_brute_force_pareto(self, tn_sample):
        report = fit("pareto", tn_sample)
        shape, scale = report.params

        def cdf(v):
            v = np.asarray(v, dtype=float)
            return 1.0 - (scale / np.maximum(v, scale)) ** shape

        assert report.ks_statistic == pytest.approx(
            ks_brute_force_continuous(tn_sample, cdf), abs=1e-12
        )

    def test_ks_matches_brute_force_discrete(self):
        rng = np.random.default_rng(37)
        counts = rng.negative_binomial(5, 0.4, size=4_000)
        report = fit("negative-binomial", counts)
        r_hat, p_hat = report.params

        def cdf(v):
            from scipy.special import betainc

            v = np.floor(np.asarray(v, dtype=float))
            return np.where(v < 0.0, 0.0, betainc(r_hat, np.maximum(v, 0.0) + 1.0, p_hat))

        assert report.ks_statistic == pytest.approx(
            ks_brute_force_discrete(counts, cdf), abs=1e-14
        )

    def test_rmse_matches_histogram_recomputation(self, tn_sample):
        report = fit("truncated-normal", tn_sample, fixed_bounds=(30.0, 70.0))
        fitted = TruncatedNormal(
            mu=report.params[0], sigma=report.params[1], lower=30.0, upper=70.0
        )
        heights, edges = np.histogram(np.sort(tn_sample), bins=40, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        expected = math.sqrt(float(np.mean((heights - fitted.pdf(centers)) ** 2)))
        assert report.rmse == pytest.approx(expected, abs=1e-12)

    def test_model_selection_prefers_the_generating_family(self, tn_sample):
        tn = fit("truncated-normal", tn_sample, fixed_bounds=(30.0, 70.0))
        pareto = fit("pareto", tn_sample)
        assert tn.aic < pareto.aic


class TestCompare:
    def test_reports_sorted_by_aic(self, tn_sample):
        result = compare(tn_sample, fixed_bounds=(30.0, 70.0))
        aics = [r.aic for r in result.reports]
        assert aics == sorted(aics)
        assert result.warnings == ()
        assert result.best.family == "truncated-normal"

    def test_single_family_gives_singleton(self, tn_sample):
        result = compare(tn_sample, families=("pareto",))
        assert [r.family for r in result.reports] == ["pareto"]

    def test_generating_family_wins_repeatedly(self):
        wins = 0
        for k in range(100):
            rng = np.random.default_rng(1000 + k)
            data = DIST.sample(rng, 400)
            wins += compare(data, fixed_bounds=(30.0, 70.0)).best.family == "truncated-normal"
        assert wins >= 95

    def test_pareto_tail_ranks_pareto_above_truncated_normal(self):
        rng = np.random.default_rng(41)
        data = 30.0 * (1.0 + rng.pareto(1.5, size=4_000))
        result = compare(data)
        families = [r.family for r in result.reports]
        assert "pareto" in families and "truncated-normal" in families
        assert families.index("pareto") < families.index("truncated-normal")

    def test_failed_families_become_warnings(self):
        data = np.array([-2.0, -1.0, 0.5, 1.5, 2.5, 3.5, 4.0, 5.0])
        result = compare(data)
        assert [r.family for r in result.reports] == ["truncated-normal"]
        assert len(result.warnings) == 2
        assert any(w.startswith("pareto:") for w in result.warnings)
        assert any(w.startswith("negative-binomial:") for w in result.warnings)

    def test_empty_family_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            compare([1.0, 2.0], families=())

    def test_duplicate_families_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            compare([1.0, 2.0], families=("pareto", "pareto"))

    def test_best_of_empty_comparison_raises(self):
        empty = Comparison(reports=(), warnings=("pareto: boom",))
        with pytest.raises(FitConvergenceError, match="no family"):
            empty.best

    def test_families_constant_is_complete(self):
        assert FAMILIES == ("truncated-normal", "pareto", "negative-binomial")


class TestReadDemandSeries:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("demand\n42.5\n51.0\n\n60.25\n")
        values = read_demand_series(str(path))
        assert values.tolist() == [42.5, 51.0, 60.25]

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("quantity\n1.0\n")
        with pytest.raises(ValidationError, match="header 'demand'"):
            read_demand_series(str(path))

    def test_extra_column(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("demand\n1.0,2.0\n")
        with pytest.raises(ValidationError, match="one value per row"):
            read_demand_series(str(path))

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("demand\nabc\n")
        with pytest.raises(ValidationError, match="not a number"):
            read_demand_series(str(path))

    def test_byte_order_mark_before_header(self, tmp_path):
        # A spreadsheet's UTF-8 export starts with a byte-order mark.
        path = tmp_path / "exported.csv"
        path.write_bytes(b"\xef\xbb\xbfdemand\n50\n61.5\n")
        assert read_demand_series(str(path)).tolist() == [50.0, 61.5]

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e309"])
    def test_non_finite_value_names_its_line(self, tmp_path, text):
        path = tmp_path / "overflow.csv"
        path.write_text(f"demand\n50\n{text}\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: not a finite number: '{text}'$"):
            read_demand_series(str(path))

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("demand\n")
        with pytest.raises(ValidationError, match="no demand values"):
            read_demand_series(str(path))


class TestLogIntervalMass:
    @pytest.mark.parametrize("bound", [-40.0, -2.5, 0.0, 3.0, 40.0])
    def test_equal_bounds_hold_zero_mass(self, bound):
        assert _log_interval_mass(bound, bound) == -math.inf

    def test_array_matches_scalar_calls(self):
        a = np.array([-40.0, -3.0, -1.0, 0.0, 0.5, 2.0, 38.0, -2.5])
        b = np.array([-39.0, -2.0, 1.0, 0.0, 4.0, 2.5, 39.0, -2.5])
        expected = [_log_interval_mass(float(lo), float(hi)) for lo, hi in zip(a, b)]
        assert isinstance(expected[0], float)
        np.testing.assert_array_equal(_log_interval_mass(a, b), expected)

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-3.0, -2.0), (2.0, 2.5), (-0.5, 3.0)])
    def test_matches_plain_difference_away_from_the_tails(self, a, b):
        from scipy.special import ndtr

        assert _log_interval_mass(a, b) == pytest.approx(math.log(ndtr(b) - ndtr(a)), rel=1e-13)

    def test_far_tails_mirror(self):
        assert _log_interval_mass(-30.0, -29.0) == _log_interval_mass(29.0, 30.0) > -450.0
