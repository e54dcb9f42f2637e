"""Clutter model: analytic moment match vs quadrature, evidence formulas,
data generation, and spherical-family geometry."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.clutter import (
    ClutterBinding,
    ClutterDataSpec,
    ClutterModel,
    clutter_log_evidence,
    clutter_moment_match,
    dataset_to_csv,
    generate_clutter_data,
    read_dataset,
    write_dataset,
)
from epkit.engine import EPOptions, run_adf, run_ep
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
        assert clutter_log_evidence(prior, [], post) == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_matches_closed_form(self):
        model = ClutterModel(data=np.array([[1.0], [0.2], [2.2]]), w=0.0)
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-10))
        _, log_ml = conjugate_gaussian_posterior(model.data, 100.0)
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


class TestExactnessAndGeometry:
    def test_conjugate_regime_many_points(self):
        rng = np.random.default_rng(17)
        model = ClutterModel(data=rng.normal(2.0, 1.0, size=(50, 1)), w=0.0)
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-10))
        post, log_ml = conjugate_gaussian_posterior(model.data, 100.0)
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


class TestCsv:
    def test_round_trip(self, tmp_path):
        spec = ClutterDataSpec(x_true=[2.0, 0.0], n=5, w=0.25, seed=9)
        model = generate_clutter_data(spec)
        path = tmp_path / "data.csv"
        write_dataset(model, path, spec)
        back = read_dataset(path)
        assert np.array_equal(back.data, model.data)
        assert back.w == model.w
        assert back.prior_variance == model.prior_variance
        assert back.clutter_variance == model.clutter_variance

    def test_header(self):
        model = ClutterModel(data=np.zeros((1, 3)), w=0.0)
        assert dataset_to_csv(model).splitlines()[0] == "y1,y2,y3"


def test_model_validation():
    with pytest.raises(ValueError):
        ClutterModel(data=np.zeros((2, 1)), w=1.5)
    with pytest.raises(ValueError):
        ClutterModel(data=np.zeros((2, 1)), w=0.5, prior_variance=0.0)


def test_spherical_as_site_is_normalized_density():
    g = SphericalGaussian(mean=[1.0, 2.0], variance=3.0)
    site = spherical_as_site(g)
    assert site.log_value(g.mean) == pytest.approx(
        log_normal_pdf(g.mean, g.mean, 3.0), rel=1e-12)
