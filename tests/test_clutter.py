"""Clutter model: analytic moment match vs quadrature, evidence formulas,
data generation, and spherical-family geometry."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.clutter import (
    CLUTTER_VARIANCE,
    LIKELIHOOD_BLOCK_ROWS,
    ClutterBinding,
    ClutterDataSpec,
    ClutterModel,
    clutter_moment_match,
    generate_clutter_data,
)
from epkit.engine import (EPOptions, MomentMatchError, ep_log_evidence,
                          run_adf, run_ep)
from epkit.gaussians import (
    SphericalGaussian,
    ZeroNormalizerError,
    combine_sites,
    log_normal_pdf,
    spherical_as_site,
)
from epkit.oracles import (
    clutter_tilted_moments,
    conjugate_gaussian_posterior,
    exact_clutter,
)


class TestMomentMatch:
    def test_conjugate_case(self):
        cav = SphericalGaussian(mean=[0.0], variance=100.0)
        m = clutter_moment_match(cav, [1.0], w=0.0)
        assert m.r == 1.0
        assert m.posterior.mean[0] == pytest.approx(100 / 101, rel=1e-13)
        assert m.posterior.variance == pytest.approx(100 / 101, rel=1e-13)
        assert m.z == pytest.approx(math.exp(log_normal_pdf([1.0], [0.0], 101.0)),
                                    rel=1e-13)

    def test_pure_clutter_leaves_cavity(self):
        cav = SphericalGaussian(mean=[0.4], variance=2.0)
        m = clutter_moment_match(cav, [3.0], w=1.0)
        assert m.r == 0.0
        assert m.posterior.mean[0] == cav.mean[0]
        assert m.posterior.variance == cav.variance
        assert m.z == pytest.approx(math.exp(log_normal_pdf([3.0], [0.0], 10.0)),
                                    rel=1e-13)

    def test_against_quadrature_oracle_1d(self):
        cav = SphericalGaussian(mean=[0.0], variance=1.0)
        m = clutter_moment_match(cav, [2.0], w=0.5)
        z, mean, var = clutter_tilted_moments(cav, [2.0], 0.5)
        assert m.z == pytest.approx(z, rel=1e-8)
        assert m.posterior.mean[0] == pytest.approx(mean[0], rel=1e-8)
        assert m.posterior.variance == pytest.approx(var, rel=1e-8)

    def test_against_quadrature_oracle_random_battery(self):
        rng = np.random.default_rng(100)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            cav = SphericalGaussian(mean=rng.normal(size=d) * 2,
                                    variance=float(rng.uniform(0.3, 30.0)))
            y = rng.normal(size=d) * 3
            w = float(rng.uniform(0.0, 1.0))
            m = clutter_moment_match(cav, y, w)
            z, mean, var = clutter_tilted_moments(cav, y, w)
            assert m.z == pytest.approx(z, rel=1e-8)
            assert np.allclose(m.posterior.mean, mean, rtol=1e-8, atol=1e-10)
            assert m.posterior.variance == pytest.approx(var, rel=1e-8)

    def test_zero_normalizer(self):
        cav = SphericalGaussian(mean=[0.0], variance=1.0)
        with pytest.raises(ZeroNormalizerError):
            clutter_moment_match(cav, [1e300], w=0.0)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=-6.0, max_value=6.0),
           st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=-8.0, max_value=8.0))
    def test_r_bounds(self, w, cav_mean, cav_var, y):
        cav = SphericalGaussian(mean=[cav_mean], variance=cav_var)
        m = clutter_moment_match(cav, [y], w=w)
        assert 0.0 <= m.r <= 1.0
        if w == 0.0:
            assert m.r == 1.0
        if w == 1.0:
            assert m.r == 0.0
        assert m.posterior.variance > 0.0


class TestBindingVisit:
    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0])
    def test_site_is_built_from_the_match(self, w):
        """The binding's site from the moment scalars equals the site Z q' /
        cavity built from `clutter_moment_match`'s tilted posterior q'."""
        rng = np.random.default_rng(int(10 * w) + 7)
        for d in (1, 2, 3):
            model = ClutterModel(data=rng.normal(size=(5, d)) * 3.0, w=w)
            binding = ClutterBinding(model)
            for i in range(model.n):
                cav = SphericalGaussian(mean=rng.normal(size=d) * 2.0,
                                        variance=float(rng.uniform(0.3, 30.0)))
                site, log_z = binding.moment_match(cav, i)
                match = clutter_moment_match(cav, model.data[i], w)
                post = match.posterior
                tau = post.precision - cav.precision
                shift = post.shift - cav.shift
                coeff = match.log_z + post.log_norm_coeff() - cav.log_norm_coeff()
                assert log_z == match.log_z
                assert site.precision == tau
                if tau == 0.0:
                    assert w == 1.0
                    assert np.array_equal(site.shift, np.zeros(d))
                    assert site.log_scale == coeff
                else:
                    assert np.array_equal(site.shift, shift)
                    assert site.log_scale == coeff + 0.5 * float(shift @ shift) / tau

    def test_failure_is_moment_match_error(self):
        model = ClutterModel(data=np.array([[0.5], [1e300]]), w=0.0)
        with pytest.raises(MomentMatchError) as err:
            run_adf(ClutterBinding(model))
        assert err.value.term_index == 1
        assert isinstance(err.value.__cause__, ZeroNormalizerError)


class TestGenerate:
    def test_deterministic(self):
        spec = ClutterDataSpec(x_true=[2.0], n=15, w=0.5, seed=11)
        a = generate_clutter_data(spec)
        b = generate_clutter_data(spec)
        assert np.array_equal(a.data, b.data)

    def test_w_zero_all_inliers(self):
        spec = ClutterDataSpec(x_true=[5.0], n=400, w=0.0, seed=2)
        model = generate_clutter_data(spec)
        # all points from N(5, 1): nothing near the clutter scale
        assert abs(float(np.mean(model.data)) - 5.0) < 0.2
        assert float(np.std(model.data)) < 1.5

    def test_paper_configuration_statistics(self):
        # w = 0.5 around x = 2: roughly half the mass near 2, rest near 0
        spec = ClutterDataSpec(x_true=[2.0], n=2000, w=0.5, seed=7)
        model = generate_clutter_data(spec)
        near_true = np.abs(model.data[:, 0] - 2.0) < 3.0
        assert 0.55 <= float(np.mean(near_true)) <= 0.95
        assert model.w == 0.5

    def test_dimension(self):
        model = generate_clutter_data(ClutterDataSpec(x_true=[1.0, -1.0, 0.5],
                                                      n=4, w=0.3, seed=1))
        assert model.data.shape == (4, 3)


class TestEvidence:
    def test_prior_only_is_zero(self):
        prior = SphericalGaussian(mean=np.zeros(2), variance=100.0)
        post = SphericalGaussian(mean=np.zeros(2), variance=100.0)
        assert ep_log_evidence(prior, post, []) == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_matches_closed_form(self):
        model = ClutterModel(data=np.array([[1.0], [0.2], [2.2]]), w=0.0)
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-10))
        _, log_ml = conjugate_gaussian_posterior(model.data)
        assert res.log_evidence == pytest.approx(log_ml, abs=1e-10)

    def test_first_pass_value_is_adf_sum(self):
        model = generate_clutter_data(ClutterDataSpec(x_true=[2.0], n=8,
                                                      w=0.5, seed=13))
        adf = run_adf(ClutterBinding(model))
        ep1 = run_ep(ClutterBinding(model), EPOptions(max_sweeps=1))
        assert ep1.log_evidence == pytest.approx(adf.log_evidence, abs=1e-12)
        # converged EP sits near (not on) the exact 2^n evidence; log the gap
        ep = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-8,
                                                     max_sweeps=200))
        gap = ep.log_evidence - exact_clutter(model.data, model.w).log_evidence
        print(f"converged EP evidence gap vs 2^n enumeration: {gap:+.3e}")
        assert abs(gap) < 1.0

    def test_matches_combined_site_normalizer(self):
        model = generate_clutter_data(ClutterDataSpec(x_true=[2.0], n=6,
                                                      w=0.5, seed=4))
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-8, max_sweeps=200))
        _, log_norm = combine_sites([spherical_as_site(binding.prior())]
                                    + list(res.sites), dim=1)
        assert res.log_evidence == pytest.approx(log_norm, abs=1e-10)

    @pytest.mark.parametrize("seed,d", [(5, 1), (3, 2)])
    def test_unconverged_damped_matches_combined_site_normalizer(self, seed, d):
        # mid-run sites of a damped oscillating fit, some with negative
        # precision (seed 5 also skips improper cavities)
        model = generate_clutter_data(ClutterDataSpec(x_true=[2.0] * d, n=12,
                                                      w=0.5, seed=seed))
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-12, max_sweeps=5, damping=0.5))
        assert not res.converged
        assert any(s.precision < 0.0 for s in res.sites)
        _, log_norm = combine_sites([spherical_as_site(binding.prior())]
                                    + list(res.sites), dim=d)
        got = ep_log_evidence(binding.prior(), res.posterior, res.sites)
        assert got == pytest.approx(log_norm, abs=1e-10)
        assert res.log_evidence == got


class TestExactnessAndGeometry:
    def test_conjugate_regime_many_points(self):
        rng = np.random.default_rng(17)
        model = ClutterModel(data=rng.normal(2.0, 1.0, size=(50, 1)), w=0.0)
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-10))
        post, log_ml = conjugate_gaussian_posterior(model.data)
        assert res.posterior.mean[0] == pytest.approx(post.mean[0], abs=1e-10)
        assert res.posterior.variance == pytest.approx(post.variance, rel=1e-10)
        assert res.log_evidence == pytest.approx(log_ml, abs=1e-10)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(23)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        spec = ClutterDataSpec(x_true=[2.0, -1.0], n=8, w=0.5, seed=3)
        model = generate_clutter_data(spec)
        rotated = ClutterModel(data=model.data @ rot.T, w=model.w)

        opts = EPOptions(tolerance=1e-10, max_sweeps=300)
        res = run_ep(ClutterBinding(model), opts)
        res_rot = run_ep(ClutterBinding(rotated), opts)
        assert np.allclose(res_rot.posterior.mean, rot @ res.posterior.mean,
                           atol=1e-10)
        assert res_rot.posterior.variance == pytest.approx(
            res.posterior.variance, abs=1e-10)
        assert res_rot.log_evidence == pytest.approx(res.log_evidence, abs=1e-10)


def logaddexp_loop_log_likelihood(model, xs):
    """The per-observation np.logaddexp loop the experiment used before
    ClutterModel.log_likelihood existed, kept verbatim as the reference."""
    data, w, cv = model.data, model.w, model.clutter_variance
    d = model.d
    log_cl = np.array([
        math.log(w) + (-0.5 * d * math.log(2 * math.pi * cv)
                       - 0.5 * float(y @ y) / cv) if w > 0 else -math.inf
        for y in data])

    def loglik(xs):
        out = np.zeros(xs.shape[0])
        for i, y in enumerate(data):
            r = xs - y[None, :]
            log_in = (math.log1p(-w) if w < 1.0 else -math.inf) \
                - 0.5 * d * math.log(2 * math.pi) - 0.5 * np.sum(r * r, axis=1)
            out += np.logaddexp(log_in, log_cl[i])
        return out

    return loglik(xs)


class TestLogLikelihood:
    @pytest.mark.parametrize("n", [1, 12, 1500, "far"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("w", [0.0, 0.3, 0.5, 1.0])
    def test_agrees_with_logaddexp_loop(self, w, d, n):
        if n == "far":
            # one datum at |y| = 1e3, whose clutter constant lies far below
            # the inlier term of the rows near it
            rng = np.random.default_rng(10 * d + int(10 * w))
            y = rng.normal(size=d)
            data = 1e3 * (y / np.linalg.norm(y))[None, :]
        elif n == 1500:
            # every observation at the radius where log_in = c_i at x = 0, so
            # the rows near 0 multiply 1500 factors of about 2 (2^1500
            # overflows): the product must be taken in chunks
            rng = np.random.default_rng(1500 + 10 * d + int(10 * w))
            u = rng.normal(size=(n, d))
            odds = math.log((1.0 - w) / w) if 0.0 < w < 1.0 else 0.0
            cv = CLUTTER_VARIANCE
            radius = math.sqrt((2.0 * odds + d * math.log(cv)) / (1.0 - 1.0 / cv))
            data = radius * u / np.linalg.norm(u, axis=1)[:, None]
        else:
            rng = np.random.default_rng(1000 * n + 10 * d + int(10 * w))
            data = rng.normal(size=(n, d)) * 3.0
        model = ClutterModel(data=data, w=w)
        # prior draws as the importance sampler makes them, plus far tails and
        # rows near the origin and near the first datum
        xs = np.concatenate([rng.normal(size=(3000, d)) * 10.0,
                             rng.normal(size=(50, d)) * 1e3])
        if n in (1500, "far"):
            xs = np.concatenate([xs, rng.normal(size=(50, d)) * 1e-3,
                                 data[0] + rng.normal(size=(50, d))])
        ref = logaddexp_loop_log_likelihood(model, xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.log_likelihood(xs)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_block_invariant_bitwise(self):
        model = generate_clutter_data(ClutterDataSpec(x_true=[2.0], n=12, w=0.5, seed=3))
        s = 2 * LIKELIHOOD_BLOCK_ROWS + 7
        xs = np.random.default_rng(4).normal(size=(s, 1)) * 10.0
        whole = model.log_likelihood(xs)
        assert whole.shape == (s,)
        kernel = model.log_likelihood
        # every row near each block edge, and a stride through the rest
        edges = [b + k for b in (0, LIKELIHOOD_BLOCK_ROWS, 2 * LIKELIHOOD_BLOCK_ROWS)
                 for k in range(-7, 8) if 0 <= b + k < s]
        for j in sorted(set(edges) | set(range(0, s, 23))):
            assert kernel(xs[j:j + 1])[0] == whole[j]
        # odd-sized slices that straddle the block edges
        cuts = [0, 5, LIKELIHOOD_BLOCK_ROWS - 3, LIKELIHOOD_BLOCK_ROWS + 100, s - 2, s]
        pieces = [kernel(xs[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(pieces), whole)

    def test_memory_stays_blockwise(self):
        model = generate_clutter_data(ClutterDataSpec(x_true=[2.0], n=12, w=0.5, seed=1))
        xs = np.random.default_rng(2).normal(size=(10 ** 5, 1)) * 10.0
        tracemalloc.start()
        try:
            model.log_likelihood(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (S,) output is 0.76 MiB; one (S, n) temporary would be 9.2 MiB
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("w", [0.0, 0.3, 1.0])
    def test_exp_is_product_of_mixture_densities(self, w):
        rng = np.random.default_rng(17)
        model = ClutterModel(data=rng.normal(size=(3, 2)) * 2.0, w=w)
        xs = rng.normal(size=(40, 2)) * 2.0
        cv = model.clutter_variance
        direct = np.ones(xs.shape[0])
        for y in model.data:
            for k, x in enumerate(xs):
                inlier = math.exp(-0.5 * float((y - x) @ (y - x))) / (2 * math.pi)
                clutter = math.exp(-0.5 * float(y @ y) / cv) / (2 * math.pi * cv)
                direct[k] *= (1 - w) * inlier + w * clutter
        assert np.allclose(np.exp(model.log_likelihood(xs)), direct,
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape", [(5,), (5, 2), (1, 5, 1)])
    def test_rejects_wrong_shape(self, shape):
        model = ClutterModel(data=np.zeros((2, 1)), w=0.5)
        with pytest.raises(ValueError, match=r"shape \(S, 1\)"):
            model.log_likelihood(np.zeros(shape))


def test_model_validation():
    with pytest.raises(ValueError):
        ClutterModel(data=np.zeros((2, 1)), w=1.5)
    # the variances are the problem's constants, not fields
    with pytest.raises(TypeError):
        ClutterModel(data=np.zeros((2, 1)), w=0.5, prior_variance=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_data_rejected_by_row(bad):
    data = np.zeros((4, 2))
    data[2, 1] = bad
    data[3, 0] = math.nan
    with pytest.raises(ValueError, match="row 2 "):
        ClutterModel(data=data, w=0.5)


def test_spherical_as_site_is_normalized_density():
    g = SphericalGaussian(mean=[1.0, 2.0], variance=3.0)
    site = spherical_as_site(g)
    assert site.log_value(g.mean) == pytest.approx(
        log_normal_pdf(g.mean, g.mean, 3.0), rel=1e-12)
