"""Gaussian types, natural-parameter arithmetic, and scalar special functions."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import special
from scipy.special import logsumexp

from epkit.bpm import BpmBinding, make_dataset
from epkit.gaussians import (
    DegenerateCovarianceError,
    FullGaussian,
    ImproperProductError,
    NaturalSpherical,
    RankOneSite,
    SphericalGaussian,
    combine_sites,
    divide_out,
    log_normal_pdf,
    log_probit,
    probit,
    probit_ratio,
    _logsumexp,
    spherical_as_site,
    vacuous_spherical,
)

# Extended-precision values for pdf(z)/cdf(z), computed with a 50-digit
# Mills-ratio oracle (mpmath: npdf(z)/ncdf(z)); frozen here.
MILLS_RATIO_TABLE = {
    -300.0: 300.00333325926337,
    -100.0: 100.00999800099926,
    -40.0: 40.024968847207264,
    -30.0: 30.033259667433677,
    -8.0: 8.121368112236113,
    0.0: 0.7978845608028654,
    1.0: 0.28759997093917836,
    5.0: 1.4867199409049057e-06,
}


class TestNormalPdf:
    def test_standard_normal_at_mode(self):
        assert log_normal_pdf([0.0], [0.0], 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_unit_offset_2d(self):
        got = log_normal_pdf([1.0, 0.0], [0.0, 0.0], 1.0)
        assert got == pytest.approx(-0.5 - math.log(2 * math.pi), rel=1e-12)
        got = log_normal_pdf([3.0, -1.0], [1.0, -2.0], 2.5)
        assert got == pytest.approx(-math.log(2 * math.pi * 2.5) - 0.5 * 5.0 / 2.5,
                                    rel=1e-12)

    def test_singular_covariance_rejected(self):
        for variance in (0.0, -1.0, math.inf):
            with pytest.raises(DegenerateCovarianceError):
                log_normal_pdf([0.0, 0.0], [0.0, 0.0], variance)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_normal_pdf([0.0, 1.0], [0.0], 1.0)

    def test_log_domain_reaches_deep_underflow(self):
        # exponent around -5000: linear domain is identically zero
        lp = log_normal_pdf([100.0], [0.0], 1.0)
        assert lp == pytest.approx(-0.5 * 100.0 ** 2 - 0.5 * math.log(2 * math.pi),
                                   rel=1e-13)


class TestProbit:
    def test_zero(self):
        assert probit(0.0) == 0.5

    def test_saturates(self):
        assert probit(38.0) == 1.0

    def test_unit(self):
        # high-precision numerical integration of the standard normal density
        assert probit(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)

    def test_symmetry_sweep(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(-10.0, 10.0, size=10_000)
        for zi in z:
            assert abs(probit(zi) + probit(-zi) - 1.0) <= 1e-15

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_symmetry(self, z):
        assert abs(probit(z) + probit(-z) - 1.0) <= 1e-15

    @given(st.floats(min_value=-37.0, max_value=37.0), st.floats(min_value=0.0, max_value=5.0))
    def test_monotone(self, z, dz):
        assert probit(z + dz) >= probit(z)


class TestProbitRatio:
    def test_at_zero(self):
        assert probit_ratio(0.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)

    @pytest.mark.parametrize("z,want", sorted(MILLS_RATIO_TABLE.items()))
    def test_against_extended_precision_oracle(self, z, want):
        assert probit_ratio(z) == pytest.approx(want, rel=1e-12)

    def test_matches_naive_quotient_in_safe_range(self):
        for z in np.linspace(-8.0, 8.0, 1601):
            naive = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) / probit(z)
            assert abs(probit_ratio(float(z)) - naive) <= 1e-10 * naive

    def test_asymptote_far_left(self):
        # ratio / (-z) -> 1
        for z in (-50.0, -150.0, -300.0):
            assert probit_ratio(z) / (-z) == pytest.approx(1.0, rel=1e-3)

    def test_finite_and_monotone_to_minus_300(self):
        zs = np.linspace(-300.0, 0.0, 1201)
        vals = [probit_ratio(float(z)) for z in zs]
        assert all(math.isfinite(v) for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing toward 0


def _assert_relative(kernel, z, want, tol=1e-12):
    """kernel(z) within tol of want, relative, wherever want is a normal
    float; where it is zero or subnormal, the kernel's value must be too."""
    got = np.array([kernel(float(v)) for v in z])
    normal = np.abs(want) >= np.finfo(float).tiny
    assert np.all(np.abs(got[~normal]) < np.finfo(float).tiny), z[~normal]
    err = np.abs(got - want)[normal] / np.abs(want[normal])
    assert err.max() <= tol, (z[normal][err.argmax()], err.max())


class TestKernelsVsScipy:
    """The math-module probit kernels against scipy.special."""

    Z = np.linspace(-37.0, 40.0, 15401)
    WIDE = np.concatenate((-np.logspace(3.0, -3.0, 6001), Z))

    def test_probit_vs_ndtr(self):
        _assert_relative(probit, self.Z, special.ndtr(self.Z))

    def test_log_probit_vs_log_ndtr(self):
        _assert_relative(log_probit, self.WIDE, special.log_ndtr(self.WIDE))

    def test_probit_ratio_vs_erfcx(self):
        with np.errstate(over="ignore"):  # erfcx(-x) overflows for z > 37.6
            want = math.sqrt(2.0 / math.pi) / special.erfcx(-self.WIDE / math.sqrt(2.0))
        _assert_relative(probit_ratio, self.WIDE, want)
        # for z < 0 the split x^2 keeps erfcx to a few ulp; exp(x * x) alone
        # is up to 6e-14 off near x = 26
        left = self.WIDE < 0.0
        _assert_relative(probit_ratio, self.WIDE[left], want[left], tol=1e-14)

    def test_infinite_and_nan_arguments(self):
        assert (probit(-math.inf), probit(math.inf)) == (0.0, 1.0)
        assert (log_probit(-math.inf), log_probit(math.inf)) == (-math.inf, 0.0)
        assert (probit_ratio(-math.inf), probit_ratio(math.inf)) == (math.inf, 0.0)
        for f in (probit, log_probit, probit_ratio):
            assert math.isnan(f(math.nan))


class TestCombineSites:
    def test_vacuous_site_plus_prior(self):
        prior = SphericalGaussian(mean=[0.0], variance=100.0)
        post, log_norm = combine_sites([spherical_as_site(prior),
                                        vacuous_spherical(1)], dim=1)
        assert post.mean[0] == 0.0
        assert post.variance == pytest.approx(100.0, rel=1e-14)
        assert log_norm == pytest.approx(0.0, abs=1e-12)  # vacuous contributes 0

    def test_two_half_precision_sites(self):
        half = spherical_as_site(SphericalGaussian(mean=[0.0], variance=2.0))
        post, _ = combine_sites([half, half], dim=1)
        assert post.variance == pytest.approx(1.0, rel=1e-14)

    def test_prior_with_rank_one_site(self):
        # hand-worked natural parameters: P = 1 + 1, b = 1 -> N(0.5, 0.5)
        prior = spherical_as_site(SphericalGaussian(mean=[0.0], variance=1.0))
        site = RankOneSite(direction=[1.0], precision=1.0, mean=1.0)
        post, _ = combine_sites([prior, site], dim=1)
        assert isinstance(post, FullGaussian)
        assert post.mean[0] == pytest.approx(0.5, rel=1e-12)
        assert post.covariance[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_improper_product_raises(self):
        neg = NaturalSpherical(precision=-1.0, shift=np.zeros(1))
        with pytest.raises(ImproperProductError):
            combine_sites([neg], dim=1)

    def test_normalizer_is_product_integral(self):
        # two normalized spherical densities multiply and integrate in closed form
        a = SphericalGaussian(mean=[1.0], variance=2.0)
        b = SphericalGaussian(mean=[-1.0], variance=3.0)
        _, log_norm = combine_sites([spherical_as_site(a),
                                     spherical_as_site(b)], dim=1)
        assert log_norm == pytest.approx(log_normal_pdf([1.0], [-1.0], 5.0),
                                         rel=1e-12)


class TestDivideOut:
    def test_vacuous_is_identity(self):
        post = SphericalGaussian(mean=[1.5], variance=1.0)
        cav = divide_out(post, vacuous_spherical(1))
        assert cav.mean[0] == post.mean[0]
        assert cav.variance == post.variance

    def test_half_precision(self):
        post = SphericalGaussian(mean=[0.0], variance=1.0)
        cav = divide_out(post, NaturalSpherical(precision=0.5, shift=np.zeros(1)))
        assert cav.variance == pytest.approx(2.0, rel=1e-14)

    def test_improper_flag(self):
        post = SphericalGaussian(mean=[0.0], variance=1.0)
        assert divide_out(post, NaturalSpherical(precision=1.5,
                                                 shift=np.zeros(1))) is None

    def test_rank_one_round_trip(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        post = FullGaussian(mean=rng.normal(size=3),
                            covariance=A @ A.T + np.eye(3))
        u = rng.normal(size=3)
        # site precision below the properness bound 1 / u.Vu
        tau = 0.5 / float(u @ post.covariance @ u)
        site = RankOneSite(direction=u, precision=tau, mean=0.4)
        # full-Gaussian cavities are the BPM binding's
        cav = BpmBinding(make_dataset([u], [1.0])).cavity(post, site)
        assert cav is not None
        # rebuild: cavity naturals + site naturals must reproduce post
        Pc = np.linalg.inv(cav.covariance)
        rebuilt_P = Pc + site.precision * np.outer(site.direction, site.direction)
        rebuilt_V = np.linalg.inv(rebuilt_P)
        rebuilt_m = rebuilt_V @ (Pc @ cav.mean
                                 + site.precision * site.mean * site.direction)
        assert np.allclose(rebuilt_V, post.covariance, rtol=1e-12, atol=1e-12)
        assert np.allclose(rebuilt_m, post.mean, rtol=1e-12, atol=1e-12)

    def test_rank_one_matches_dense_natural_arithmetic(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(2, 2))
        post = FullGaussian(mean=rng.normal(size=2), covariance=A @ A.T + np.eye(2))
        u = np.array([0.6, -0.8])
        tau = 0.5 / float(u @ post.covariance @ u)
        site = RankOneSite(direction=u, precision=tau, mean=-0.25)
        # full-Gaussian cavities are the BPM binding's
        cav = BpmBinding(make_dataset([u], [1.0])).cavity(post, site)
        assert cav is not None
        P = np.linalg.inv(post.covariance)
        P_dense = P - site.precision * np.outer(site.direction, site.direction)
        V_dense = np.linalg.inv(P_dense)
        m_dense = V_dense @ (P @ post.mean
                             - site.precision * site.mean * np.asarray(site.direction))
        assert np.allclose(cav.covariance, V_dense, rtol=1e-12, atol=1e-12)
        assert np.allclose(cav.mean, m_dense, rtol=1e-12, atol=1e-12)


@st.composite
def spherical_site_and_posterior(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    post_prec = draw(st.floats(min_value=0.05, max_value=20.0))
    mean = np.array([draw(st.floats(min_value=-5.0, max_value=5.0))
                     for _ in range(d)])
    site_prec = draw(st.floats(min_value=-5.0, max_value=post_prec * 0.95))
    site_mean = np.array([draw(st.floats(min_value=-5.0, max_value=5.0))
                          for _ in range(d)])
    post = SphericalGaussian(mean=mean, variance=1.0 / post_prec)
    site = NaturalSpherical(precision=site_prec, shift=site_prec * site_mean,
                            log_scale=draw(st.floats(min_value=-3.0, max_value=3.0)))
    return post, site


@settings(max_examples=200, deadline=None)
@given(spherical_site_and_posterior())
def test_divide_then_recombine_round_trip(case):
    post, site = case
    cav = divide_out(post, site)
    assert cav is not None
    rebuilt, _ = combine_sites([spherical_as_site(cav), site], dim=post.dim)
    assert np.allclose(rebuilt.mean, post.mean, rtol=1e-12, atol=1e-12)
    assert rebuilt.variance == pytest.approx(post.variance, rel=1e-12)


def test_spherical_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        SphericalGaussian(mean=[0.0], variance=0.0)


@pytest.mark.parametrize("variance", [math.inf, math.nan])
def test_spherical_rejects_non_finite_variance(variance):
    with pytest.raises(ValueError, match="variance must be finite"):
        SphericalGaussian(mean=[0.0], variance=variance)


def test_vacuous_site_requires_zero_shift():
    with pytest.raises(ValueError):
        NaturalSpherical(precision=0.0, shift=np.array([1.0]))


def test_full_gaussian_rejects_asymmetry():
    with pytest.raises(ValueError):
        FullGaussian(mean=[0.0, 0.0],
                     covariance=np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_rank_one_rejects_zero_direction():
    with pytest.raises(ValueError):
        RankOneSite(direction=[0.0, 0.0], precision=1.0)


_LSE_ENTRIES = st.one_of(st.floats(min_value=-1e4, max_value=1e4),
                         st.just(-math.inf))


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(arrays(float, array_shapes(min_dims=3, max_dims=3, max_side=3),
                  elements=_LSE_ENTRIES),
           st.sampled_from([None, 0, 2, (0, 2), (0, 1, 2)]))
    def test_matches_scipy(self, a, axis):
        got = _logsumexp(a, axis=axis)
        with np.errstate(divide="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = logsumexp(a, axis=axis)
        if axis is None:
            assert type(got) is float
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_non_finite_maxima_without_warnings(self):
        a = np.array([[0.0, -math.inf, 3.0],
                      [-math.inf, -math.inf, -math.inf],
                      [math.inf, 1.0, -math.inf],
                      [math.nan, 1.0, math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _logsumexp(a, axis=1)
            whole = [_logsumexp(row) for row in a]
            tuple_axis = _logsumexp(np.full((2, 3, 2), -math.inf), axis=(0, 2))
        for got in (rows, whole):
            assert got[0] == pytest.approx(math.log(1.0 + math.exp(3.0)), rel=1e-15)
            assert got[1] == -math.inf and got[2] == math.inf and math.isnan(got[3])
        assert tuple_axis.tolist() == [-math.inf] * 3

    @pytest.mark.parametrize("entries", [[-math.inf], [-math.inf] * 4,
                                         (-math.inf, -math.inf)])
    def test_all_minus_inf(self, entries):
        assert _logsumexp(entries) == -math.inf
