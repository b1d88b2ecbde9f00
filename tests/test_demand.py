from __future__ import annotations

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from procurekit import demand
from procurekit.demand import TruncatedNormal, TruncatedNormalParams
from procurekit.errors import InvalidDistributionError, ValidationError

from oracles import excess_by_quadrature, moment, simpson

BASELINE = TruncatedNormal(mu=50.0, sigma=8.0, lower=30.0, upper=70.0)
SKEWED = TruncatedNormal(mu=55.0, sigma=12.0, lower=40.0, upper=90.0)
CASES = [
    BASELINE,
    SKEWED,
    TruncatedNormal(mu=0.0, sigma=1.0, lower=-1.0, upper=3.0),
    # Intervals far right of mu, where Phi(b) - Phi(a) cancels.
    TruncatedNormal(mu=0.0, sigma=1.0, lower=7.0, upper=8.0),
    TruncatedNormal(mu=50.0, sigma=2.0, lower=64.0, upper=66.0),
]


class TestValidation:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidDistributionError, match="sigma"):
            TruncatedNormal(mu=50.0, sigma=0.0, lower=30.0, upper=70.0)

    def test_rejects_unordered_bounds(self):
        with pytest.raises(InvalidDistributionError, match="lower < upper"):
            TruncatedNormal(mu=50.0, sigma=8.0, lower=70.0, upper=30.0)

    def test_rejects_vanishing_mass(self):
        # Interval sits 50 parent standard deviations away from mu.
        with pytest.raises(InvalidDistributionError, match="refusing to normalize"):
            TruncatedNormal(mu=0.0, sigma=1.0, lower=50.0, upper=60.0)

    def test_refusal_reports_right_tail_mass(self):
        # Phi(-9) - Phi(-10), which Phi(10) - Phi(9) would round to zero.
        with pytest.raises(InvalidDistributionError, match=r"captures 1\.129e-19 "):
            TruncatedNormal(mu=0.0, sigma=1.0, lower=9.0, upper=10.0)

    @pytest.mark.parametrize("field", ["mu", "sigma", "lower", "upper"])
    def test_rejects_integers_beyond_float_range(self, field):
        params = dict(mu=0.0, sigma=1.0, lower=0.0, upper=1.0)
        params[field] = 10**400
        with pytest.raises(InvalidDistributionError, match=f"{field} must be finite"):
            TruncatedNormal(**params)

    def test_rejects_nonfinite_parameters(self):
        with pytest.raises(InvalidDistributionError):
            TruncatedNormal(mu=math.nan, sigma=8.0, lower=30.0, upper=70.0)

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            BASELINE.quantile(1.5)
        with pytest.raises(ValidationError):
            BASELINE.quantile(-0.01)

    def test_rejects_a_bool_inside_a_sequence(self):
        # numpy stores [True, 40.0] as floats; the array rule still sees the bool.
        message = "cdf argument must be a real number or array of real numbers, got a bool"
        with pytest.raises(ValidationError, match=f"^{message}"):
            TruncatedNormal(50.0, 8.0, 30.0, 70.0).cdf([True, 40.0])
        with pytest.raises(ValidationError, match="^quantile argument .* got a bool"):
            BASELINE.quantile([[0.5], [np.bool_(False)]])


class TestDensity:
    @pytest.mark.parametrize("dist", CASES)
    def test_pdf_integrates_to_one(self, dist):
        assert simpson(dist.pdf, dist.lower, dist.upper) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("dist", CASES)
    def test_cdf_matches_quadrature(self, dist):
        for frac in (0.1, 0.35, 0.5, 0.82):
            x = dist.lower + frac * (dist.upper - dist.lower)
            assert dist.cdf(x) == pytest.approx(
                simpson(dist.pdf, dist.lower, x), abs=1e-10
            )

    def test_support_edges(self):
        d = BASELINE
        assert d.pdf(29.999) == 0.0
        assert d.pdf(70.001) == 0.0
        assert d.cdf(20.0) == 0.0
        assert d.cdf(80.0) == 1.0
        assert d.cdf(d.lower) == 0.0
        assert d.cdf(d.upper) == 1.0

    def test_far_arguments_have_zero_density(self):
        # z * z overflows to inf here, which the suite's filterwarnings setting would fail
        wide = TruncatedNormal(mu=0.0, sigma=1.0, lower=-1e308, upper=1e308)
        assert BASELINE.pdf(np.array([1e308, -1e308])).tolist() == [0.0, 0.0]
        assert wide.pdf(np.array([1e200, 0.0]))[0] == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([25.0, 30.0, 44.4, 50.0, 70.0, 71.0])
        assert np.allclose(BASELINE.pdf(xs), [BASELINE.pdf(float(x)) for x in xs])
        assert np.allclose(BASELINE.cdf(xs), [BASELINE.cdf(float(x)) for x in xs])


class TestMoments:
    @pytest.mark.parametrize("dist", CASES)
    def test_mean_matches_quadrature(self, dist):
        assert dist.mean == pytest.approx(moment(dist, 1), abs=1e-8)

    @pytest.mark.parametrize("dist", CASES)
    def test_variance_matches_quadrature(self, dist):
        assert dist.variance == pytest.approx(moment(dist, 2, about=dist.mean), abs=1e-8)

    def test_baseline_frozen_values(self):
        # Symmetric truncation at +/-2.5 parent sd: mean stays at mu and the
        # variance shrinks to about 91.1% of the parent's 64.
        assert BASELINE.mean == pytest.approx(50.0, abs=1e-12)
        assert BASELINE.variance == pytest.approx(58.3204070999, abs=1e-9)

    def test_truncation_shrinks_variance(self):
        for dist in CASES:
            assert dist.variance < dist.sigma**2


class TestQuantile:
    @pytest.mark.parametrize("dist", CASES)
    def test_round_trip_cdf_of_quantile(self, dist):
        u = np.linspace(0.0, 1.0, 1001)
        err = np.abs(dist.cdf(dist.quantile(u)) - u)
        assert float(err.max()) < 1e-9

    def test_round_trip_quantile_of_cdf(self):
        x = np.linspace(30.5, 69.5, 501)
        err = np.abs(BASELINE.quantile(BASELINE.cdf(x)) - x)
        assert float(err.max()) < 1e-8

    def test_endpoints_exact(self):
        assert BASELINE.quantile(0.0) == 30.0
        assert BASELINE.quantile(1.0) == 70.0

    def test_median_of_symmetric_case(self):
        assert BASELINE.quantile(0.5) == pytest.approx(50.0, abs=1e-12)

    @given(
        u1=st.floats(min_value=0.0, max_value=1.0),
        u2=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, u1, u2):
        lo, hi = sorted((u1, u2))
        assert SKEWED.quantile(lo) <= SKEWED.quantile(hi) + 1e-12


class TestQuantileEndpoints:
    # Unpinned, the inverse CDF at u = 0 lands 6e-15 above lower on the
    # second, and at u = 1 below upper on the first and third.
    DISTS = [BASELINE, TruncatedNormal(mu=39.2, sigma=17.9, lower=22.9, upper=74.7), CASES[-1]]
    U = np.array([[0.0, 0.3, 1.0, 0.0], [1.0, 0.0, 0.5, 1.0], [0.0, 1.0, 0.0, 0.9]])

    def test_draw_vectors_pin_both_bounds(self):
        for dist, u in zip(self.DISTS, self.U):
            x = dist.params.quantile(u)
            assert x[u == 0.0].tolist() == [dist.lower] * int((u == 0.0).sum())
            assert x[u == 1.0].tolist() == [dist.upper] * int((u == 1.0).sum())

    def test_cell_columns_pin_each_cells_bounds(self):
        columns = TruncatedNormalParams(*(np.array(field)[:, None] for field in zip(*(d.params for d in self.DISTS))))
        x = columns.quantile(self.U)
        assert x.shape == self.U.shape
        for row, (dist, u) in enumerate(zip(self.DISTS, self.U)):
            assert x[row].tolist() == dist.params.quantile(u).tolist()
            assert x[row][u == 0.0].tolist() == [dist.lower] * int((u == 0.0).sum())
            assert x[row][u == 1.0].tolist() == [dist.upper] * int((u == 1.0).sum())


class TestSampling:
    def test_deterministic_given_seed(self):
        a = BASELINE.sample(np.random.default_rng(7), 1000)
        b = BASELINE.sample(np.random.default_rng(7), 1000)
        assert np.array_equal(a, b)

    def test_one_draw_per_sample(self):
        # Inverse-CDF sampling must consume the uniform stream at a fixed rate,
        # otherwise parallel substreams drift.
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        BASELINE.sample(rng1, 500)
        rng2.random(500)
        assert rng1.random() == rng2.random()

    def test_samples_respect_bounds(self):
        s = SKEWED.sample(np.random.default_rng(11), 50_000)
        assert s.min() >= SKEWED.lower
        assert s.max() <= SKEWED.upper

    @pytest.mark.parametrize("dist", CASES)
    def test_sample_moments_match_closed_form(self, dist):
        n = 200_000
        s = dist.sample(np.random.default_rng(99), n)
        se_mean = dist.std / math.sqrt(n)
        assert abs(s.mean() - dist.mean) < 3.0 * se_mean
        # Variance of the sample variance for a bounded variable, rough bound.
        se_var = math.sqrt(moment(dist, 4, about=dist.mean)) / math.sqrt(n)
        assert abs(s.var(ddof=1) - dist.variance) < 3.0 * se_var

    def test_empty_sample(self):
        assert BASELINE.sample(np.random.default_rng(0), 0).shape == (0,)

    # numpy refuses these counts before anything is allocated: 2**62 doubles
    # exceed its largest array size (ValueError), and 2**57 doubles (1 EiB)
    # exceed any 64-bit address space (MemoryError).
    @pytest.mark.parametrize("n", [2**62, 2**57, np.int64(2**57)])
    def test_refuses_a_count_numpy_cannot_allocate(self, n):
        with pytest.raises(ValidationError, match=f"sample size {int(n)} is too large to allocate"):
            BASELINE.sample(np.random.default_rng(0), n)


class TestPartialExpectations:
    @pytest.mark.parametrize("dist", CASES)
    def test_excess_matches_quadrature(self, dist):
        for frac in (0.0, 0.2, 0.5, 0.77, 1.0):
            q = dist.lower + frac * (dist.upper - dist.lower)
            assert dist.expected_excess(q) == pytest.approx(
                excess_by_quadrature(dist, q), abs=1e-9
            )

    def test_excess_outside_support(self):
        assert BASELINE.expected_excess(75.0) == 0.0
        assert BASELINE.expected_excess(10.0) == pytest.approx(BASELINE.mean - 10.0, abs=1e-12)

    def test_excess_decreasing_in_q(self):
        qs = np.linspace(30.0, 70.0, 41)
        vals = [BASELINE.expected_excess(float(q)) for q in qs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_expected_min_identity(self):
        for q in (35.0, 50.0, 51.6, 66.0):
            served = simpson(lambda x: np.minimum(x, q) * BASELINE.pdf(x), 30.0, 70.0)
            assert BASELINE.expected_min(q) == pytest.approx(served, abs=1e-9)

    def test_frozen_baseline_excess(self):
        # Reference value computed by quadrature during development.
        assert BASELINE.expected_excess(51.6) == pytest.approx(2.3541025251, abs=1e-8)

    @pytest.mark.parametrize("dist", CASES)
    def test_excess_array_matches_scalar(self, dist):
        # Below the support, at each edge, inside, and above it.
        qs = np.array(
            [dist.lower - 5.0, dist.lower, 0.5 * (dist.lower + dist.upper), dist.mean, dist.upper, dist.upper + 5.0]
        )
        out = dist.expected_excess(qs)
        assert isinstance(out, np.ndarray) and out.shape == qs.shape
        for q, value in zip(qs, out):
            scalar = dist.expected_excess(float(q))
            assert type(scalar) is float
            assert value == scalar
        assert out[0] == pytest.approx(dist.mean - qs[0], abs=1e-12)
        assert out[1] == pytest.approx(dist.mean - dist.lower, abs=1e-12)
        assert out[2] == pytest.approx(excess_by_quadrature(dist, float(qs[2])), abs=1e-9)
        assert out[4] == 0.0 and out[5] == 0.0

    def test_arrays_far_beyond_sigma_take_their_limits(self):
        # (x - mu) / sigma or z * z overflows here, only where the masks put
        # the limit, and the suite turns any RuntimeWarning into an error.
        assert BASELINE.expected_excess(np.array([1e308])).tolist() == [0.0]
        assert BASELINE.expected_min(np.array([-1e308])).tolist() == [-1e308]
        assert TruncatedNormal(0.0, 0.5, -1.0, 1.0).cdf(np.array([1e308])).tolist() == [1.0]
        wide = TruncatedNormal(0.0, 1e300, -1e308, 1e308)
        assert wide.expected_excess(np.array([math.inf])).tolist() == [0.0]
        assert wide.pdf(np.array([-math.inf, 1e308])).tolist() == [0.0, wide.pdf(1e308)]



def variance_by_mpmath(dist: TruncatedNormal) -> float:
    """The closed-form variance at 50 digits, from the float bounds as given:
    its cancellation costs at most about 15 of them here."""
    with mpmath.workdps(50):
        mu, sigma = mpmath.mpf(dist.mu), mpmath.mpf(dist.sigma)
        a, b = (mpmath.mpf(dist.lower) - mu) / sigma, (mpmath.mpf(dist.upper) - mu) / sigma
        mass = mpmath.ncdf(b) - mpmath.ncdf(a)
        pa, pb = mpmath.npdf(a), mpmath.npdf(b)
        return float(sigma**2 * (1 + (a * pa - b * pb) / mass - ((pa - pb) / mass) ** 2))


class TestVarianceOracle:
    """Var(D) to 1e-12 relative for intervals from 1e-6 to 10 parent sigmas
    wide, at the mode, beside it and in both tails."""

    @pytest.mark.parametrize("width", [1e-6, 1e-4, 1e-3, 0.05, 1.0, 10.0])
    @pytest.mark.parametrize("where", ["centred", "beside", "left-tail", "right-tail"])
    def test_matches_mpmath(self, where, width):
        mu, sigma = 50.0, 3.7
        a = {"centred": -width / 2, "beside": 0.5, "left-tail": -4.5 - width, "right-tail": 4.5}[where]
        lower = mu + a * sigma
        dist = TruncatedNormal(mu=mu, sigma=sigma, lower=lower, upper=lower + width * sigma)
        expected = variance_by_mpmath(dist)
        assert abs(dist.variance - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("lower, upper", [(6.5, 16.5), (-16.5, -6.5), (7.0, 8.0), (-1000.0, 1000.0)])
    def test_far_tails_and_wide_intervals_match_mpmath(self, lower, upper):
        dist = TruncatedNormal(mu=0.0, sigma=1.0, lower=lower, upper=upper)
        expected = variance_by_mpmath(dist)
        assert abs(dist.variance - expected) <= 1e-12 * expected


class TestGaussLegendreTable:
    def test_table_is_leggauss_200(self):
        nodes, weights = np.polynomial.legendre.leggauss(200)
        assert np.array_equal(demand._GL_NODES, nodes) and np.array_equal(demand._GL_WEIGHTS, weights)

    def test_import_and_optimize_run_no_leggauss(self):
        src = str(Path(demand.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = (
            "import numpy.polynomial.legendre as legendre\n"
            "def refuse(*args):\n"
            "    raise AssertionError('leggauss called')\n"
            "legendre.leggauss = refuse\n"
            "import procurekit\n"
            "opt = procurekit.optimize(procurekit.BASELINE_MARKET, procurekit.BASELINE_SUPPLIERS, procurekit.BASELINE_DEMAND)\n"
            "print(opt.breakdown.fill_rate_mean > 0.0)\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout.strip()) == (0, "True"), out.stderr


class TestMirrorSymmetry:
    """D on [lower, upper] and -D, which is TN(-mu, sigma) on [-upper, -lower],
    agree in every tail: the right tail is as accurate as the left."""

    @given(
        mu=st.floats(min_value=-50.0, max_value=50.0),
        sigma=st.floats(min_value=0.5, max_value=20.0),
        a=st.floats(min_value=-7.5, max_value=7.5),
        width=st.floats(min_value=0.05, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_mirror_agrees(self, mu, sigma, a, width):
        lower, upper = mu + a * sigma, mu + (a + width) * sigma
        try:
            dist = TruncatedNormal(mu=mu, sigma=sigma, lower=lower, upper=upper)
        except InvalidDistributionError:
            assume(False)
        mirror = TruncatedNormal(mu=-mu, sigma=sigma, lower=-upper, upper=-lower)

        def close(x, y, scale):
            # 1e-12 relative to the value, or to the scale it is computed
            # from when the value is much smaller than that scale.
            assert abs(x - y) <= 1e-12 * max(abs(x), scale), (x, y)

        scale = abs(mu) + sigma
        close(dist.mean, -mirror.mean, scale)
        # sigma**2 * (1 + tilt - shift**2) cancels on narrow intervals.
        close(dist.variance, mirror.variance, sigma**2)
        for u in (0.125, 0.25, 0.5, 0.75, 0.875):
            x = dist.quantile(u)
            close(x, -mirror.quantile(1.0 - u), scale)
            # Probabilities are compared on their own [0, 1] scale.
            close(dist.cdf(x), 1.0 - mirror.cdf(-x), 1.0)
            # E[(D - x)^+] = E[(x' - M)^+] with x' = -x, M = -D, and
            # E[(x' - M)^+] = x' - E[M] + E[(M - x')^+].
            close(dist.expected_excess(x), -x - mirror.mean + mirror.expected_excess(-x), scale)


@st.composite
def truncated_normals(draw):
    """Intervals around mu, left of it and right of it (the mirror frame), some narrow."""
    mu = draw(st.floats(min_value=-100.0, max_value=100.0))
    sigma = draw(st.floats(min_value=0.1, max_value=50.0))
    # Distance in sigmas from mu to the bound nearer it; negative straddles mu.
    near = draw(st.floats(min_value=-3.0, max_value=6.0))
    width = sigma * draw(st.sampled_from([1e-6, 1e-3, 0.5, 2.0, 8.0])) * draw(st.floats(min_value=1.0, max_value=2.0))
    if draw(st.booleans()):
        lower = mu + near * sigma
        upper = lower + width
    else:
        upper = mu - near * sigma
        lower = upper - width
    try:
        return TruncatedNormal(mu=mu, sigma=sigma, lower=lower, upper=upper)
    except InvalidDistributionError:
        assume(False)


def bits(value) -> str:
    return float(value).hex()


class TestFloatBranch:
    """A float argument takes Python floats through the same ufuncs as an
    array and gives the same bits as that argument in an array, 0-d or not."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_cdf_and_expected_excess(self, data):
        dist = data.draw(truncated_normals())
        lo, hi = dist.lower, dist.upper
        edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
                 math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf),
                 lo - (hi - lo), hi + (hi - lo), dist.mu, 0.0, -0.0]
        x = data.draw(st.one_of(st.sampled_from(edges), st.floats(min_value=lo, max_value=hi),
                                st.floats(min_value=-1e6, max_value=1e6)))
        for method in (dist.cdf, dist.expected_excess, dist.pdf):
            value = method(x)
            assert type(value) is float
            assert bits(value) == bits(method(np.float64(x))) == bits(method(np.asarray(x)))
            assert bits(value) == bits(method(np.array([dist.mean, x]))[1])

    def test_cdf_keeps_the_negative_zero_of_the_array_clip(self):
        # Just above lower in the mirror frame Phi(-z) still equals Phi(-a),
        # so raw is -0.0, which np.maximum(0.0, raw) keeps.
        dist = TruncatedNormal(mu=0.0, sigma=50.0, lower=0.001, upper=100.0)
        x = math.nextafter(0.001, 1.0)
        assert bits(dist.cdf(x)) == bits(dist.cdf(np.asarray(x))) == "-0x0.0p+0"

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_quantile(self, data):
        dist = data.draw(truncated_normals())
        u = data.draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 0.9, math.nextafter(1.0, 0.0)]),
                                st.floats(min_value=0.0, max_value=1.0)))
        value = dist.quantile(u)
        assert type(value) is float
        assert bits(value) == bits(dist.quantile(np.float64(u))) == bits(dist.quantile(np.asarray(u)))
        assert bits(value) == bits(dist.quantile(np.array([0.5, u]))[1])

    @given(u=st.one_of(st.floats(max_value=-5e-324), st.floats(min_value=math.nextafter(1.0, 2.0)),
                       st.just(math.nan)))
    @settings(max_examples=100, deadline=None)
    def test_quantile_out_of_range_raises_alike(self, u):
        raised = []
        for argument in (u, np.asarray(u)):
            with pytest.raises(ValidationError) as info:
                BASELINE.quantile(argument)
            raised.append(str(info.value))
        assert raised == ["quantile argument must lie in [0, 1]"] * 2


def raw_bits(value: float) -> str:
    """The IEEE bits of a double, which tell NaN payloads and signs apart."""
    return struct.pack("<d", value).hex()


class TestFloatClamps:
    """_maximum and _minimum are np.maximum and np.minimum on Python floats, bit for bit."""

    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0]

    @given(a=st.one_of(st.sampled_from(EDGES), st.floats()), b=st.one_of(st.sampled_from(EDGES), st.floats()),
           tie=st.booleans())
    @example(a=0.0, b=-0.0, tie=False)
    @example(a=-0.0, b=0.0, tie=False)
    @example(a=math.nan, b=-math.nan, tie=False)
    @settings(max_examples=500, deadline=None)
    def test_match_numpy(self, a, b, tie):
        if tie:
            b = a
        for ours, theirs in ((demand._maximum, np.maximum), (demand._minimum, np.minimum)):
            value = ours(a, b)
            assert type(value) is float
            assert raw_bits(value) == raw_bits(float(theirs(a, b)))
