"""Brute-force oracle self-checks: the ground truth must agree with itself
(and with even dumber ground truth) before it is allowed to judge anything."""
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.special import erf, logsumexp

from epkit.bpm import make_dataset
from epkit.clutter import (PRIOR_VARIANCE, ClutterDataSpec, ClutterModel,
                           generate_clutter_data)
from epkit.experiments import builtin_bpm_dataset
from epkit.gaussians import SphericalGaussian, log_normal_pdf
from epkit.oracles import (
    DegenerateWeightsError,
    VanishingMassError,
    clutter_mixture_components,
    clutter_tilted_moments,
    conjugate_gaussian_posterior,
    directional_tilted_moments,
    enumerate_discrete,
    exact_bpm_step,
    exact_clutter,
    importance_sampler,
    nested_importance_sampler,
    probit_margin_term,
    quad_adaptive,
    tilted_moments_quadrature,
)
from epkit.factorgraph import DiscreteFactorGraph, Factor


def _assignment_loop(data, w, prior_variance=100.0, clutter_variance=10.0):
    """One conjugate component per itertools.product assignment, each built
    term by term; the reference for the enumerated components."""
    n, d = data.shape
    log_ws, means, variances = [], [], []
    for flags in product((0, 1), repeat=n):
        tau = 1.0 / prior_variance
        beta = np.zeros(d)
        log_w = log_normal_pdf(np.zeros(d), np.zeros(d), prior_variance)
        for y, inlier in zip(data, flags):
            if inlier:
                tau += 1.0
                beta = beta + y
                log_w += (math.log1p(-w) if w < 1.0 else -math.inf) \
                    + log_normal_pdf(y, np.zeros(d), 1.0)
            else:
                log_w += (math.log(w) if w > 0.0 else -math.inf) \
                    + log_normal_pdf(y, np.zeros(d), clutter_variance)
        # divide by the posterior density at x = 0 to leave the normalizer
        log_w -= log_normal_pdf(np.zeros(d), beta / tau, 1.0 / tau)
        log_ws.append(log_w)
        means.append(beta / tau)
        variances.append(1.0 / tau)
    return np.array(log_ws), np.array(means), np.array(variances)


class TestExactClutter:
    def test_no_data_returns_prior(self):
        res = exact_clutter(np.empty((0, 1)), w=0.5)
        assert res.log_evidence == pytest.approx(0.0, abs=1e-12)
        assert res.mean[0] == 0.0
        assert res.covariance[0, 0] == pytest.approx(100.0, rel=1e-14)
        assert res.component_count == 1

    def test_w_zero_single_component_conjugate(self):
        data = np.array([[1.0], [2.5], [-0.5]])
        res = exact_clutter(data, w=0.0)
        post, log_ml = conjugate_gaussian_posterior(data)
        assert res.log_evidence == pytest.approx(log_ml, rel=1e-12)
        assert res.mean[0] == pytest.approx(post.mean[0], rel=1e-12)
        assert res.variance == pytest.approx(post.variance, rel=1e-12)

    def test_against_dense_grid_integration(self):
        # independent check: trapezoid integration of the unnormalized
        # posterior on a wide dense grid
        data = np.array([[1.2], [-0.4]])
        w, pv, cv = 0.5, 100.0, 10.0
        xs = np.linspace(-150.0, 150.0, 1_000_001)
        log_post = -0.5 * xs ** 2 / pv - 0.5 * math.log(2 * math.pi * pv)
        for (y,) in data:
            inlier = (1 - w) * np.exp(-0.5 * (y - xs) ** 2) / math.sqrt(2 * math.pi)
            clutter = w * math.exp(-0.5 * y * y / cv) / math.sqrt(2 * math.pi * cv)
            log_post += np.log(inlier + clutter)
        dens = np.exp(log_post)
        z = np.trapezoid(dens, xs)
        mean = np.trapezoid(xs * dens, xs) / z
        var = np.trapezoid(xs * xs * dens, xs) / z - mean ** 2

        res = exact_clutter(data, w)
        assert res.log_evidence == pytest.approx(math.log(z), abs=1e-8)
        assert res.mean[0] == pytest.approx(mean, abs=1e-8)
        assert res.variance == pytest.approx(var, abs=1e-8)

    def test_refuses_large_n(self):
        with pytest.raises(ValueError, match="importance sampling"):
            exact_clutter(np.zeros((21, 1)), w=0.5)
        with pytest.raises(ValueError, match="importance sampling"):
            clutter_mixture_components(np.zeros((21, 1)), w=0.5)

    @pytest.mark.parametrize("w", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, 5, 9])
    def test_components_match_assignment_loop(self, n, d, w):
        data = np.random.default_rng(10 * n + d).normal(size=(n, d)) * 2.0
        log_ws, means, variances = clutter_mixture_components(data, w)
        assert log_ws.shape == (2 ** n,) and means.shape == (2 ** n, d)
        ref = _assignment_loop(data, w)
        for got, want in zip((log_ws, means, variances), ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("w", [0.0, 1.0])
    def test_edge_ratios_are_finite(self, w):
        res = exact_clutter(np.array([[1.0], [-2.0], [0.5]]), w)
        assert math.isfinite(res.log_evidence)
        assert np.all(np.isfinite(res.mean))
        assert np.all(np.isfinite(res.covariance))

    def test_components_reassemble_to_summary(self):
        data = np.random.default_rng(9).normal(size=(5, 2))
        log_ws, means, variances = clutter_mixture_components(data, 0.4)
        res = exact_clutter(data, 0.4)
        assert float(logsumexp(log_ws)) == pytest.approx(res.log_evidence,
                                                         rel=1e-12)
        p = np.exp(log_ws - res.log_evidence)
        mean = p @ means
        assert np.allclose(mean, res.mean, rtol=1e-12, atol=1e-12)
        cov = sum(p[k] * (variances[k] * np.eye(2)
                          + np.outer(means[k] - mean, means[k] - mean))
                  for k in range(p.shape[0]))
        assert np.allclose(cov, res.covariance, rtol=1e-12, atol=1e-12)


class TestTiltedQuadrature:
    def test_constant_term_returns_cavity(self):
        z, mean, var = tilted_moments_quadrature(1.5, 2.0, lambda x: np.ones_like(x))
        assert z == pytest.approx(1.0, rel=1e-12)
        assert mean == pytest.approx(1.5, abs=1e-12)
        assert var == pytest.approx(2.0, rel=1e-12)

    def test_gaussian_term_matches_product_identity(self):
        # N(y; x, s) against N(x; m, v): Z = N(y; m, v+s), conjugate moments
        y, s, m, v = 0.7, 0.5, -0.2, 1.3
        term = lambda x: np.exp(-0.5 * (y - x) ** 2 / s) / math.sqrt(2 * math.pi * s)
        z, mean, var = tilted_moments_quadrature(m, v, term, features=((y, math.sqrt(s)),))
        assert z == pytest.approx(math.exp(log_normal_pdf([y], [m], v + s)), rel=1e-10)
        assert mean == pytest.approx(m + v * (y - m) / (v + s), rel=1e-10)
        assert var == pytest.approx(v * s / (v + s), rel=1e-10)

    def test_probit_term_stein_values(self):
        # Z by symmetry; mean from E[x cdf(x)] = pdf-squared integral
        z, mean, _ = tilted_moments_quadrature(
            0.0, 1.0, probit_margin_term(1.0), features=((0.0, 1.0),))
        assert z == pytest.approx(0.5, rel=1e-10)
        assert mean == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)

    def test_step_term_with_breakpoint(self):
        # half-normal moments: Z = 1/2, E = sqrt(2/pi), Var = 1 - 2/pi
        z, mean, var = tilted_moments_quadrature(
            0.0, 1.0, probit_margin_term(0.0), breakpoints=(0.0,))
        assert z == pytest.approx(0.5, rel=1e-12)
        assert mean == pytest.approx(math.sqrt(2 / math.pi), rel=1e-10)
        assert var == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-10)

    def test_resolution_doubling_is_stable(self):
        term = probit_margin_term(1.0)
        base = tilted_moments_quadrature(0.3, 0.8, term, resolution=8)
        fine = tilted_moments_quadrature(0.3, 0.8, term, resolution=16)
        for b, f in zip(base, fine):
            assert abs(b - f) <= 1e-10 * max(abs(f), 1.0)

    def test_vanishing_mass(self):
        with pytest.raises(VanishingMassError):
            tilted_moments_quadrature(0.0, 1.0, lambda x: np.zeros_like(x))

    def test_directional_reduces_to_1d(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3))
        V = A @ A.T + 0.5 * np.eye(3)
        m = rng.normal(size=3)
        u = rng.normal(size=3)
        z, mean, cov = directional_tilted_moments(m, V, u, probit_margin_term(1.0))
        # margin moments embedded back must agree with the 1-D quadrature
        q = float(u @ V @ u)
        z1, e1, v1 = tilted_moments_quadrature(float(u @ m), q,
                                               probit_margin_term(1.0),
                                               features=((0.0, 1.0),))
        assert z == pytest.approx(z1, rel=1e-12)
        assert float(u @ mean) == pytest.approx(e1, rel=1e-10)
        assert float(u @ cov @ u) == pytest.approx(v1, rel=1e-10)


class TestClutterTiltedOracle:
    def test_matches_generic_1d_quadrature(self):
        cav = SphericalGaussian(mean=[0.3], variance=1.7)
        y, w, cv = np.array([1.1]), 0.4, 10.0

        def term(x):
            inlier = (1 - w) * np.exp(-0.5 * (y[0] - x) ** 2) / math.sqrt(2 * math.pi)
            cl = w * math.exp(-0.5 * y[0] ** 2 / cv) / math.sqrt(2 * math.pi * cv)
            return inlier + cl

        z1, m1, v1 = tilted_moments_quadrature(0.3, 1.7, term,
                                               features=((1.1, 1.0),))
        z2, m2, v2 = clutter_tilted_moments(cav, y, w)
        assert z2 == pytest.approx(z1, rel=1e-10)
        assert m2[0] == pytest.approx(m1, rel=1e-10)
        assert v2 == pytest.approx(v1, rel=1e-10)


class TestImportanceSampler:
    def test_unit_likelihood_exact_evidence(self):
        res = importance_sampler(lambda xs: np.zeros(xs.shape[0]),
                                 np.zeros(2), np.eye(2), 20_000, seed=5)
        assert res.evidence.value == pytest.approx(1.0, abs=1e-12)
        se = np.asarray(res.posterior_mean.standard_error)
        assert np.all(np.abs(res.posterior_mean.value) <= 3 * se + 1e-12)

    def test_deterministic_given_seed(self):
        def loglik(xs):
            return -0.5 * np.sum(xs * xs, axis=1)
        a = importance_sampler(loglik, np.zeros(2), np.eye(2), 5_000, seed=77)
        b = importance_sampler(loglik, np.zeros(2), np.eye(2), 5_000, seed=77)
        assert a.evidence.value == b.evidence.value
        assert np.array_equal(a.posterior_mean.value, b.posterior_mean.value)

    @pytest.mark.parametrize("d", [1, 3])
    def test_draws_equal_multivariate_normal_cholesky(self, d):
        rng = np.random.default_rng(d)
        A = rng.normal(size=(d, d))
        mean, cov = rng.normal(size=d), A @ A.T + 0.5 * np.eye(d)
        seen = []

        def loglik(xs):
            seen.append(xs)
            return np.zeros(xs.shape[0])

        importance_sampler(loglik, mean, cov, 1_000, seed=41)
        want = np.random.default_rng(41).multivariate_normal(
            mean, cov, size=1_000, method="cholesky")
        assert np.array_equal(seen[0], want)

    def test_matches_exact_clutter_within_3se(self):
        rng = np.random.default_rng(21)
        data = np.concatenate([rng.normal(2.0, 1.0, size=(4, 1)),
                               rng.normal(0.0, math.sqrt(10.0), size=(2, 1))])
        w, pv, cv = 0.5, 100.0, 10.0
        exact = exact_clutter(data, w)
        log_cl = np.array([math.log(w) + log_normal_pdf(y, [0.0], cv) for y in data])

        def loglik(xs):
            out = np.zeros(xs.shape[0])
            for i, (y,) in enumerate(data):
                log_in = math.log1p(-w) - 0.5 * (y - xs[:, 0]) ** 2 \
                    - 0.5 * math.log(2 * math.pi)
                out += np.logaddexp(log_in, log_cl[i])
            return out

        res = importance_sampler(loglik, np.zeros(1), pv * np.eye(1),
                                 10 ** 6, seed=3)
        assert abs(res.evidence.value - math.exp(exact.log_evidence)) \
            <= 3 * res.evidence.standard_error
        assert abs(res.posterior_mean.value[0] - exact.mean[0]) \
            <= 3 * float(res.posterior_mean.standard_error[0])

    def test_error_shrinks_with_samples(self):
        data = np.array([[2.2], [1.4], [0.3]])
        exact = exact_clutter(data, 0.5)

        def loglik(xs):
            out = np.zeros(xs.shape[0])
            for (y,) in data:
                log_in = math.log(0.5) - 0.5 * (y - xs[:, 0]) ** 2 \
                    - 0.5 * math.log(2 * math.pi)
                log_cl = math.log(0.5) - 0.5 * y * y / 10.0 \
                    - 0.5 * math.log(2 * math.pi * 10.0)
                out += np.logaddexp(log_in, log_cl)
            return out

        errs = []
        for s in (10 ** 3, 10 ** 5):
            res = importance_sampler(loglik, np.zeros(1), 100.0 * np.eye(1), s, seed=8)
            err = abs(res.evidence.value - math.exp(exact.log_evidence))
            assert err <= 4 * res.evidence.standard_error
            errs.append(err)
        assert errs[1] < errs[0]

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeightsError):
            importance_sampler(lambda xs: np.full(xs.shape[0], -math.inf),
                               np.zeros(1), np.eye(1), 100, seed=0)

    @staticmethod
    def _with_entry(value, index=37):
        def loglik(xs):
            out = -0.5 * xs[:, 0] ** 2
            out[index] = value
            out[index + 5] = value
            return out
        return loglik

    def test_nan_rejected_by_index(self):
        with pytest.raises(ValueError, match="index 37 is nan"):
            importance_sampler(self._with_entry(math.nan), np.zeros(1), np.eye(1),
                               100, seed=0)

    def test_plus_inf_rejected_by_index(self):
        with pytest.raises(ValueError, match="index 37 is inf"):
            importance_sampler(self._with_entry(math.inf), np.zeros(1), np.eye(1),
                               100, seed=0)

    def test_column_output_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(100,\), got \(100, 1\)"):
            importance_sampler(lambda xs: -0.5 * xs ** 2, np.zeros(1), np.eye(1),
                               100, seed=0)

    def test_short_output_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(100,\), got \(99,\)"):
            importance_sampler(lambda xs: -0.5 * xs[1:, 0] ** 2, np.zeros(1),
                               np.eye(1), 100, seed=0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_nested_prefixes_equal_separate_calls(self, d):
        rng = np.random.default_rng(30 + d)
        A = rng.normal(size=(d, d))
        mean, cov = rng.normal(size=d), A @ A.T + 0.5 * np.eye(d)
        model = ClutterModel(data=rng.normal(size=(6, d)) * 3.0, w=0.4)
        counts = (10_000, 300, 1_000, 300)
        nested = nested_importance_sampler(model.log_likelihood, mean, cov, counts,
                                           seed=12)
        assert len(nested) == len(counts)
        for count, got in zip(counts, nested):
            want = importance_sampler(model.log_likelihood, mean, cov, count, seed=12)
            for field in ("evidence", "posterior_mean"):
                a, b = getattr(got, field), getattr(want, field)
                assert (a.sample_count, a.seed) == (b.sample_count, b.seed) == (count, 12)
                assert np.array_equal(a.value, b.value)
                assert np.array_equal(a.standard_error, b.standard_error)
            assert got.log_evidence == want.log_evidence

    def test_degenerate_prefix_raises(self):
        # in the one-count form; the nested form gives None for that count
        def loglik(xs):
            out = np.zeros(xs.shape[0])
            out[:100] = -math.inf
            return out
        est = importance_sampler(loglik, np.zeros(1), np.eye(1), 1000, seed=0)
        assert est.evidence.value == pytest.approx(0.9)
        with pytest.raises(DegenerateWeightsError):
            importance_sampler(loglik, np.zeros(1), np.eye(1), 100, seed=0)

    def test_degenerate_prefix_allowed_gives_none(self):
        def loglik(xs):
            out = np.zeros(xs.shape[0])
            out[:100] = -math.inf
            return out
        est, = nested_importance_sampler(loglik, np.zeros(1), np.eye(1), (1000,), seed=0)
        got = nested_importance_sampler(loglik, np.zeros(1), np.eye(1), (100, 1000, 50),
                                        seed=0)
        assert got[0] is None and got[2] is None
        assert got[1].evidence.value == est.evidence.value
        assert np.array_equal(got[1].posterior_mean.value, est.posterior_mean.value)

    def test_log_evidence_below_float_range_is_finite(self):
        # every weight is exp(-800), which underflows to 0; its log does not
        res = importance_sampler(lambda xs: np.full(xs.shape[0], -800.0),
                                 np.zeros(2), np.eye(2), 1000, seed=3)
        assert res.evidence.value == 0.0
        assert res.log_evidence == -800.0
        assert np.array_equal(res.posterior_mean.value, importance_sampler(
            lambda xs: np.zeros(xs.shape[0]), np.zeros(2), np.eye(2), 1000,
            seed=3).posterior_mean.value)

    @pytest.mark.parametrize("counts", [(), (100, 0)])
    def test_nested_rejects_empty_or_zero_counts(self, counts):
        with pytest.raises(ValueError, match="at least one sample"):
            nested_importance_sampler(lambda xs: np.zeros(xs.shape[0]), np.zeros(1),
                                      np.eye(1), counts, seed=0)

    @pytest.mark.parametrize("cov, shape", [(2.0, "()"), (np.eye(3), r"\(3, 3\)")],
                             ids=["scalar", "3x3"])
    def test_covariance_shape_must_match_the_mean(self, cov, shape):
        # numpy alone fails on these with a LinAlgError or a matmul
        # core-dimension error, naming neither argument
        want = r"prior_cov must have shape \(2, 2\) to match prior_mean of " \
               rf"shape \(2,\), got {shape}"
        for sampler in (lambda: importance_sampler(
                            lambda xs: np.zeros(xs.shape[0]), np.zeros(2), cov, 10, seed=0),
                        lambda: nested_importance_sampler(
                            lambda xs: np.zeros(xs.shape[0]), np.zeros(2), cov, (10,),
                            seed=0)):
            with pytest.raises(ValueError, match=want):
                sampler()

    @pytest.mark.parametrize("mean, cov, want", [
        ([math.nan, 0.0], np.eye(2), "prior_mean must be finite; entry 0 is nan"),
        ([0.0, -math.inf], np.eye(2), "prior_mean must be finite; entry 1 is -inf"),
        ([0.0, 0.0], [[math.nan, 0.0], [0.0, 1.0]],
         r"prior_cov must be finite; entry \(0, 0\) is nan"),
        ([0.0, 0.0], [[1.0, 0.0], [math.inf, 1.0]],
         r"prior_cov must be finite; entry \(1, 0\) is inf"),
        ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], "prior_cov is not positive definite"),
        ([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], "prior_cov is not positive definite"),
        ([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]], "prior_cov is not positive definite"),
    ], ids=["nan-mean", "inf-mean", "nan-cov", "inf-cov", "indefinite", "singular",
            "negative-diagonal"])
    def test_bad_prior_is_named_before_any_draw(self, mean, cov, want):
        # numpy alone returns a NaN mean for the non-finite priors and raises
        # a bare LinAlgError for the others
        def loglik(xs):
            raise AssertionError("the likelihood must not be reached")
        for sampler in (lambda: importance_sampler(loglik, mean, cov, 10, seed=1),
                        lambda: nested_importance_sampler(loglik, mean, cov, (10,),
                                                          seed=1)):
            with pytest.raises(ValueError, match=want):
                sampler()

    def test_minus_inf_entries_are_zero_weights(self):
        res = importance_sampler(lambda xs: np.where(xs[:, 0] > 0, 0.0, -math.inf),
                                 np.zeros(1), np.eye(1), 20_000, seed=5)
        full = importance_sampler(lambda xs: np.zeros(xs.shape[0]),
                                  np.zeros(1), np.eye(1), 20_000, seed=5)
        assert 0.0 < res.evidence.value < full.evidence.value
        assert res.posterior_mean.value[0] > 0.0


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_same_results(got, want):
    """Every ImportanceResult field equal bit for bit (None for None)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        for field in ("evidence", "posterior_mean"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.sample_count, x.seed) == (y.sample_count, y.seed)
            assert _bits(x.value) == _bits(y.value)
            assert _bits(x.standard_error) == _bits(y.standard_error)
        assert _bits(a.log_evidence) == _bits(b.log_evidence)


class TestSamplerBuffers:
    # One buffers dict reused across calls must give each call's fresh-dict
    # result bit for bit, whatever the sizes and outcomes of earlier calls.
    @staticmethod
    def _prior(d, full):
        if not full:
            return np.zeros(d), np.diag(np.arange(1.0, d + 1.0))
        A = np.random.default_rng(d).normal(size=(d, d))
        return np.linspace(-1.0, 1.0, d), A @ A.T + 0.5 * np.eye(d)

    @pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_growing_and_shrinking_calls_equal_fresh_calls(self, d, full):
        mean, cov = self._prior(d, full)
        model = ClutterModel(data=np.random.default_rng(7).normal(size=(5, d)) * 3.0,
                             w=0.3)
        buffers = {}
        for seed, counts in enumerate([(300,), (20_000, 1_000), (50, 1), (1,),
                                       (100_000, 7), (4_000,)]):
            got = nested_importance_sampler(model.log_likelihood, mean, cov, counts,
                                            seed, buffers=buffers)
            _assert_same_results(got, nested_importance_sampler(
                model.log_likelihood, mean, cov, counts, seed))
        assert buffers["draws"].size == 100_000 * d

    def test_count_one_and_zero_likelihood_prefix(self):
        def loglik(xs):
            out = -0.5 * xs[:, 0] ** 2
            out[:100] = -math.inf
            return out
        buffers = {}
        for counts in [(1,), (5_000, 100, 1), (1, 101), (100,)]:
            got = nested_importance_sampler(loglik, np.zeros(1), np.eye(1), counts,
                                            seed=4, buffers=buffers)
            _assert_same_results(got, nested_importance_sampler(
                loglik, np.zeros(1), np.eye(1), counts, seed=4))
        assert got == (None,)
        one, = nested_importance_sampler(lambda xs: -xs[:, 0] ** 2, np.zeros(1),
                                         np.eye(1), (1,), seed=4, buffers=buffers)
        assert one.evidence.standard_error == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_calls_after_a_rejected_value_equal_fresh_calls(self, bad):
        def loglik(xs):
            out = -0.5 * xs[:, 0] ** 2
            out[37] = bad
            return out
        good = TestImportanceSampler._with_entry(-1.0)
        buffers = {}
        nested_importance_sampler(good, np.zeros(1), np.eye(1), (200,), seed=1,
                                  buffers=buffers)
        with pytest.raises(ValueError, match="index 37"):
            nested_importance_sampler(loglik, np.zeros(1), np.eye(1), (1_000,), seed=2,
                                      buffers=buffers)
        for counts in [(500, 50), (2_000,)]:
            _assert_same_results(
                nested_importance_sampler(good, np.zeros(1), np.eye(1), counts, seed=3,
                                          buffers=buffers),
                nested_importance_sampler(good, np.zeros(1), np.eye(1), counts, seed=3))

    @pytest.mark.parametrize("d", [1, 3])
    def test_callable_returning_a_view_of_its_draws(self, d):
        # the log weights then alias the draws buffer itself
        mean, cov = self._prior(d, full=False)
        buffers = {}
        for counts in [(3_000, 10), (200,), (3_000, 10)]:
            got = nested_importance_sampler(lambda xs: xs[:, 0], mean, cov, counts,
                                            seed=9, buffers=buffers)
            _assert_same_results(got, nested_importance_sampler(
                lambda xs: np.array(xs[:, 0]), mean, cov, counts, seed=9))

    def test_standard_error_is_numpy_std_bit_for_bit(self):
        # the evidence's standard error writes out np.std(w, ddof=1); every
        # third weight is exactly zero
        seen = []

        def loglik(xs):
            out = -0.5 * xs[:, 0] ** 2
            out[1::3] = -math.inf
            seen.append(out.copy())
            return out
        counts = tuple(range(2, 300)) + (511, 512, 513, 1_000, 4_097, 65_536,
                                         99_999, 100_000)
        got = nested_importance_sampler(loglik, np.zeros(1), np.eye(1), counts, seed=6)
        for count, est in zip(counts, got):
            log_w = seen[0][:count]
            max_lw = float(np.max(log_w))
            w = np.exp(log_w - max_lw)
            assert np.count_nonzero(w == 0.0) == count // 3 + (count % 3 == 2)
            want = float(np.std(w, ddof=1)) / math.sqrt(count) * math.exp(max_lw)
            assert _bits(est.evidence.standard_error) == _bits(want), count

    def test_warm_call_allocates_no_sample_sized_temporaries(self):
        # a warm 10^5-row call of the default clutter experiment allocates
        # only the likelihood's own (S,) result and its block temporaries
        # (about 1.2 MB); fresh draws, weights and products per call peak
        # near 4.0 MB
        samples = 100_000
        model = generate_clutter_data(ClutterDataSpec(x_true=[2.0], n=12, w=0.5, seed=1))
        args = (model.log_likelihood, np.zeros(1), PRIOR_VARIANCE * np.eye(1),
                (1_000, 10_000, samples), 1)
        buffers = {}
        nested_importance_sampler(*args, buffers=buffers)
        tracemalloc.start()
        try:
            nested_importance_sampler(*args, buffers=buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * samples * 8


HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


def _pooled_importance(dataset, draws: int, seed: int, chunk: int = 500_000):
    """Prior importance sampling over `draws` draws, run as independent
    chunks so that memory stays at one chunk's.  The evidence is the mean of
    the chunk estimates, and the mean their evidence-weighted mean, which is
    what one call over all the draws gives; standard errors add in
    quadrature.  Returns (evidence, its se, mean, its se)."""
    d = dataset.d
    ests = [importance_sampler(dataset.log_likelihood, np.zeros(d), np.eye(d),
                               chunk, seed + k) for k in range(draws // chunk)]
    ev = np.array([e.evidence.value for e in ests])
    share = ev / ev.sum()
    mean = sum(s * e.posterior_mean.value for s, e in zip(share, ests))
    mean_se = np.sqrt(sum((s * e.posterior_mean.standard_error) ** 2
                          for s, e in zip(share, ests)))
    ev_se = math.sqrt(sum(e.evidence.standard_error ** 2 for e in ests)) / len(ests)
    return float(ev.mean()), ev_se, mean, mean_se


class TestExactBpmStep:
    def test_builtin_set_pinned(self):
        log_z, mean = exact_bpm_step(builtin_bpm_dataset().directions)
        assert log_z == pytest.approx(-2.2166235138, abs=1e-6)
        assert mean == pytest.approx([-0.4530511608, 1.1841137359, -0.5948140966],
                                     abs=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_separable_3d_within_4se_of_importance(self, seed):
        rng = np.random.default_rng(seed)
        log_z = -math.inf
        while log_z < math.log(0.02):
            x = rng.normal(size=(int(rng.integers(3, 7)), 3))
            ds = make_dataset(x, np.where(x @ rng.normal(size=3) > 0.0, 1.0, -1.0))
            log_z, mean = exact_bpm_step(ds.directions)
        ev, ev_se, est_mean, mean_se = _pooled_importance(ds, 4_000_000, 100 * seed)
        assert abs(ev - math.exp(log_z)) <= 4.0 * ev_se
        assert np.all(np.abs(est_mean - mean) <= 4.0 * mean_se)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_dimension_is_a_half_line(self, sign):
        log_z, mean = exact_bpm_step([[sign * 0.5], [sign * 3.0]])
        assert log_z == pytest.approx(math.log(0.5), abs=1e-15)
        assert mean == pytest.approx([sign * HALF_NORMAL_MEAN], abs=1e-15)

    @pytest.mark.parametrize("turn", [0.0, 0.3, 2.0, -2.9])
    def test_two_dimensions_quadrant_is_two_half_normals(self, turn):
        # rotating the quadrant x > 0, y > 0 rotates its mean
        rot = np.array([[math.cos(turn), -math.sin(turn)],
                        [math.sin(turn), math.cos(turn)]])
        log_z, mean = exact_bpm_step(np.array([[2.0, 0.0], [0.0, 0.5]]) @ rot.T)
        assert log_z == pytest.approx(math.log(0.25), abs=1e-14)
        assert mean == pytest.approx(rot @ [HALF_NORMAL_MEAN, HALF_NORMAL_MEAN], abs=1e-14)

    def test_two_dimensions_redundant_rows(self):
        wedge = exact_bpm_step([[1.0, 0.0], [1.0, 1.0]])
        padded = exact_bpm_step([[1.0, 0.0], [1.0, 1.0], [2.0, 1.0], [1.0, 0.0],
                                 [3.0, 1.0]])
        assert wedge[0] == pytest.approx(math.log(3.0 / 8.0), abs=1e-14)
        assert padded[0] == pytest.approx(wedge[0], abs=1e-14)
        assert padded[1] == pytest.approx(wedge[1], abs=1e-14)

    def test_hemisphere(self):
        u = np.array([1.0, -2.0, 2.0])
        log_z, mean = exact_bpm_step([u, 2.0 * u])
        assert log_z == pytest.approx(math.log(0.5), abs=1e-14)
        assert mean == pytest.approx(HALF_NORMAL_MEAN * u / 3.0, abs=1e-14)

    def test_orthogonal_lune_and_octant(self):
        log_z, mean = exact_bpm_step([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert log_z == pytest.approx(math.log(0.25), abs=1e-14)
        assert mean == pytest.approx([HALF_NORMAL_MEAN, HALF_NORMAL_MEAN, 0.0],
                                     abs=1e-14)
        log_z, mean = exact_bpm_step(np.eye(3))
        assert log_z == pytest.approx(math.log(0.125), abs=1e-14)
        assert mean == pytest.approx([HALF_NORMAL_MEAN] * 3, abs=1e-14)

    def test_square_pyramid_is_a_sixth_of_space(self):
        # |x| < z and |y| < z, given with opposite faces next to each other:
        # z is the largest |coordinate|, so the evidence is 1/6 and z has the
        # law of the largest of three half-normals
        log_z, mean = exact_bpm_step([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                                      [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
        top = quad_adaptive(lambda t: 1.0 - erf(t / math.sqrt(2.0)) ** 3, 0.0, 40.0)
        assert log_z == pytest.approx(math.log(1.0 / 6.0), abs=1e-13)
        assert mean == pytest.approx([0.0, 0.0, top], abs=1e-12)

    def test_lune_is_the_two_dimensional_wedge(self):
        # w_3 is unconstrained, so the lune is the 2-d wedge times a line
        lune = exact_bpm_step([[1.0, 0.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 1.0, 0.0]])
        wedge = exact_bpm_step([[1.0, 0.0], [-1.0, 2.0]])
        assert lune[0] == pytest.approx(wedge[0], abs=1e-14)
        assert lune[1] == pytest.approx([*wedge[1], 0.0], abs=1e-14)

    def test_redundant_and_duplicate_constraints(self):
        octant = exact_bpm_step(np.eye(3))
        # through a vertex, through an edge, outside, and repeated
        padded = exact_bpm_step(np.vstack([np.eye(3), [[1.0, 1.0, 0.0],
                                                       [1.0, 1.0, 1.0],
                                                       [0.0, 0.0, 5.0]]]))
        assert padded[0] == pytest.approx(octant[0], abs=1e-14)
        assert padded[1] == pytest.approx(octant[1], abs=1e-14)
        a = builtin_bpm_dataset().directions
        base = exact_bpm_step(a)
        again = exact_bpm_step(np.vstack([a, 3.0 * a[::-1], a.sum(axis=0)]))
        assert again[0] == pytest.approx(base[0], abs=1e-13)
        assert again[1] == pytest.approx(base[1], abs=1e-13)

    @pytest.mark.parametrize("directions", [
        [[1.0], [-2.0]],
        [[1.0, 0.0], [-3.0, 0.0]],
        [[1.0, 0.0], [-0.5, math.sqrt(0.75)], [-0.5, -math.sqrt(0.75)]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]],
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, 0.0]],
    ], ids=["1d-opposite", "2d-opposite", "2d-spanning", "3d-empty", "3d-flat",
            "3d-opposite", "3d-ray"])
    def test_empty_or_flat_cone_raises(self, directions):
        with pytest.raises(VanishingMassError):
            exact_bpm_step(directions)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_direction_raises_as_the_likelihood_vanishes(self, d):
        points = np.vstack([np.ones((1, d)), np.zeros((1, d))])
        ds = make_dataset(points, [1.0, 1.0])
        with pytest.raises(VanishingMassError):
            exact_bpm_step(ds.directions)
        # the step likelihood gives margin 0 no mass either
        with pytest.raises(DegenerateWeightsError):
            importance_sampler(ds.log_likelihood, np.zeros(d), np.eye(d), 1000, seed=0)

    def test_no_rows_is_the_prior(self):
        log_z, mean = exact_bpm_step(np.zeros((0, 3)))
        assert log_z == 0.0 and np.array_equal(mean, np.zeros(3))

    @pytest.mark.parametrize("directions", [np.ones((2, 4)), [[1.0, math.nan]],
                                            [1.0, 2.0]])
    def test_rejects_bad_shapes_and_values(self, directions):
        with pytest.raises(ValueError):
            exact_bpm_step(directions)


class TestEnumerateDiscrete:
    def test_single_unary(self):
        net = DiscreteFactorGraph(variables=(("a", 2),),
                                  factors=(Factor("f", ("a",), [0.3, 0.7]),))
        marg, log_z = enumerate_discrete(net)
        assert np.allclose(marg["a"], [0.3, 0.7], atol=1e-15)
        assert log_z == pytest.approx(0.0, abs=1e-12)

    def test_two_independent_unaries(self):
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("b", 3)),
            factors=(Factor("fa", ("a",), [1.0, 3.0]),
                     Factor("fb", ("b",), [2.0, 2.0, 4.0])))
        marg, log_z = enumerate_discrete(net)
        assert np.allclose(marg["a"], [0.25, 0.75], atol=1e-14)
        assert np.allclose(marg["b"], [0.25, 0.25, 0.5], atol=1e-14)
        assert log_z == pytest.approx(math.log(4.0 * 8.0), rel=1e-14)

    def test_three_cycle_by_hand(self):
        # pairwise tables phi(x, y) = [[2, 1], [1, 2]] on a 3-cycle; the
        # eight joint terms, written out:
        #   (0,0,0): 2*2*2 = 8      (0,0,1): 2*1*1 = 2
        #   (0,1,0): 1*1*2 = 2      (0,1,1): 1*2*1 = 2
        #   (1,0,0): 1*2*1 = 2      (1,0,1): 1*1*2 = 2
        #   (1,1,0): 2*1*1 = 2      (1,1,1): 2*2*2 = 8
        # Z = 28; every single-variable marginal is [14/28, 14/28]
        table = [2.0, 1.0, 1.0, 2.0]
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("b", 2), ("c", 2)),
            factors=(Factor("ab", ("a", "b"), table),
                     Factor("bc", ("b", "c"), table),
                     Factor("ca", ("c", "a"), table)))
        marg, log_z = enumerate_discrete(net)
        assert log_z == pytest.approx(math.log(28.0), rel=1e-12)
        for v in ("a", "b", "c"):
            assert np.allclose(marg[v], [0.5, 0.5], atol=1e-12)

    def test_zero_product_raises(self):
        # each factor alone has mass, but no joint state satisfies both
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("b", 2)),
            factors=(Factor("fa", ("a",), [0.5, 0.0]),
                     Factor("fab", ("a", "b"), [0.0, 0.0, 0.0, 0.5])))
        with pytest.raises(VanishingMassError, match="every joint state"):
            enumerate_discrete(net)

    def test_state_space_bound(self):
        variables = tuple((f"v{i}", 10) for i in range(8))
        factors = (Factor("f", ("v0",), [1.0] * 10),)
        with pytest.raises(ValueError, match="enumeration bound"):
            enumerate_discrete(DiscreteFactorGraph(variables=variables,
                                                   factors=factors))
