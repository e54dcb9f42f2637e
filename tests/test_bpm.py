"""Bayes Point Machine: rank-one site algebra, probit moment matching
against the directional quadrature oracle, training, prediction, evidence."""
import math

import numpy as np
import pytest

from epkit.bpm import (
    BpmBinding,
    BpmDataset,
    bpm_moment_match,
    bpm_predict,
    bpm_predict_batch,
    bpm_train,
    bpm_training_error,
    dataset_from_csv,
    make_dataset,
    rank_one_site_from,
)
from epkit.engine import EPOptions, run_adf, run_ep
from epkit.gaussians import FullGaussian, RankOneSite, combine_sites, spherical_as_site, SphericalGaussian
from epkit.oracles import (
    directional_tilted_moments,
    importance_sampler,
    probit_margin_term,
)


def random_cavity(rng, d):
    A = rng.normal(size=(d, d))
    return FullGaussian(mean=rng.normal(size=d),
                        covariance=A @ A.T + 0.4 * np.eye(d))


def bpm_cavity(post, site):
    """BpmBinding.cavity for a site along any direction."""
    binding = BpmBinding(make_dataset([site.direction], [1.0], slack=1.0))
    return binding.cavity(post, site)


class TestCavity:
    def test_vacuous_site_is_identity(self):
        rng = np.random.default_rng(0)
        post = random_cavity(rng, 3)
        site = RankOneSite(direction=[1.0, 0.0, 0.0], precision=0.0)
        cav = bpm_cavity(post, site)
        assert np.array_equal(cav.mean, post.mean)
        assert np.array_equal(cav.covariance, post.covariance)

    def test_remove_then_reinclude(self):
        rng = np.random.default_rng(1)
        post = random_cavity(rng, 3)
        u = rng.normal(size=3)
        tau = 0.4 / float(u @ post.covariance @ u)
        site = RankOneSite(direction=u, precision=tau, mean=0.3)
        cav = bpm_cavity(post, site)
        assert cav is not None
        # re-include by dense natural arithmetic
        P = np.linalg.inv(cav.covariance) + tau * np.outer(u, u)
        V = np.linalg.inv(P)
        m = V @ (np.linalg.solve(cav.covariance, cav.mean) + tau * 0.3 * u)
        assert np.allclose(V, post.covariance, rtol=1e-12, atol=1e-12)
        assert np.allclose(m, post.mean, rtol=1e-12, atol=1e-12)

    def test_improper_flagged(self):
        post = FullGaussian(mean=[0.0], covariance=[[1.0]])
        site = RankOneSite(direction=[1.0], precision=2.0)
        assert bpm_cavity(post, site) is None


class TestMomentMatch:
    def test_single_point_values(self):
        # 1-D tilt of N(0,1) by cdf(s/sqrt(2-ish)): z = 0 exactly
        cav = FullGaussian(mean=[0.0], covariance=[[1.0]])
        m = bpm_moment_match(cav, [1.0], noise_var=1.0)
        assert m.z_score == 0.0
        assert math.exp(m.log_z) == pytest.approx(0.5, rel=1e-14)
        assert m.alpha == pytest.approx(math.sqrt(2 / math.pi) / math.sqrt(2),
                                        rel=1e-13)
        assert m.posterior.mean[0] == pytest.approx(1 / math.sqrt(math.pi),
                                                    rel=1e-12)

    def test_saturated_term_leaves_cavity(self):
        cav = FullGaussian(mean=[50.0], covariance=[[1.0]])
        m = bpm_moment_match(cav, [1.0], noise_var=1.0)
        assert math.exp(m.log_z) == 1.0
        assert m.alpha <= 1e-200
        assert m.posterior.mean[0] == pytest.approx(50.0, rel=1e-12)
        assert m.posterior.covariance[0, 0] == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("noise", [1.0, 0.0])
    def test_random_battery_vs_directional_oracle(self, noise):
        rng = np.random.default_rng(31 if noise else 32)
        for _ in range(40):
            d = int(rng.integers(1, 6))
            cav = random_cavity(rng, d)
            u = rng.normal(size=d)
            m = bpm_moment_match(cav, u, noise)
            z, mean, cov = directional_tilted_moments(
                cav.mean, cav.covariance, u, probit_margin_term(noise),
                breakpoints=(0.0,) if noise == 0.0 else ())
            assert math.exp(m.log_z) == pytest.approx(z, rel=1e-8)
            assert np.allclose(m.posterior.mean, mean, rtol=1e-8, atol=1e-8)
            assert np.allclose(m.posterior.covariance, cov, rtol=1e-8, atol=1e-8)

    def test_deep_tail_is_stable(self):
        # hopeless point: z around -70; naive pdf/cdf would be 0/0
        cav = FullGaussian(mean=[-70.0], covariance=[[1.0]])
        m = bpm_moment_match(cav, [1.0], noise_var=0.0)
        assert math.isfinite(m.log_z)
        assert math.isfinite(m.posterior.mean[0])
        assert m.posterior.covariance[0, 0] > 0.0

    def test_rejects_zero_direction(self):
        cav = FullGaussian(mean=[0.0], covariance=[[1.0]])
        with pytest.raises(ValueError):
            bpm_moment_match(cav, [0.0])


class TestSiteExtraction:
    @pytest.mark.parametrize("noise", [1.0, 0.0])
    def test_site_reproduces_posterior_and_scale(self, noise):
        rng = np.random.default_rng(2)
        d = 3
        cav = random_cavity(rng, d)
        u = rng.normal(size=d)
        m = bpm_moment_match(cav, u, noise)
        site = rank_one_site_from(m.posterior, cav, m.log_z, u)
        # density identity t(w) = Z q(w)/q_cav(w) checked at random points
        for _ in range(5):
            w = rng.normal(size=d)
            lhs = site.log_value(w)
            rhs = m.log_z \
                + (-0.5 * np.linalg.slogdet(2 * np.pi * m.posterior.covariance)[1]
                   - 0.5 * float((w - m.posterior.mean)
                                 @ np.linalg.solve(m.posterior.covariance,
                                                   w - m.posterior.mean))) \
                - (-0.5 * np.linalg.slogdet(2 * np.pi * cav.covariance)[1]
                   - 0.5 * float((w - cav.mean)
                                 @ np.linalg.solve(cav.covariance, w - cav.mean)))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestTraining:
    def test_empty_dataset(self):
        model = bpm_train(BpmDataset(points=np.empty((0, 2)),
                                     labels=np.empty(0)))
        assert model.log_evidence == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(model.posterior.covariance, np.eye(2))
        assert model.converged

    def test_one_point_exact(self):
        model = bpm_train(make_dataset([[1.0]], [1.0], slack=1.0),
                          EPOptions(tolerance=1e-10))
        assert model.posterior.mean[0] == pytest.approx(1 / math.sqrt(math.pi),
                                                        abs=1e-8)
        assert model.log_evidence == pytest.approx(math.log(0.5), abs=1e-8)
        assert model.converged

    def test_three_point_separable(self):
        ds = make_dataset([[0.0, 2.0], [2.0, 0.0], [-1.0, -1.0]],
                          [1.0, -1.0, -1.0], slack=0.0, add_bias=True)
        model = bpm_train(ds, EPOptions(tolerance=1e-8, max_sweeps=200))
        assert model.converged
        assert bpm_training_error(model) == 0.0
        # within the 3-SE ball of a 10^5-sample Bayes point (full 10^6 battery
        # lives in the acceptance suite)
        est = importance_sampler(ds.log_likelihood, np.zeros(3), np.eye(3), 10 ** 5,
                                 seed=2)
        dist = float(np.linalg.norm(model.posterior.mean - est.posterior_mean.value))
        assert dist <= 3 * float(np.linalg.norm(est.posterior_mean.standard_error))

    def test_first_sweep_equals_adf(self):
        rng = np.random.default_rng(8)
        ds = make_dataset(rng.normal(size=(6, 3)),
                          np.where(rng.random(6) < 0.5, 1.0, -1.0), slack=1.0)
        adf = run_adf(BpmBinding(ds))
        ep1 = run_ep(BpmBinding(ds), EPOptions(max_sweeps=1))
        # the same visits, so the same numbers bit for bit
        assert np.array_equal(ep1.posterior.mean, adf.posterior.mean)
        assert np.array_equal(ep1.posterior.covariance, adf.posterior.covariance)
        for a, e in zip(adf.sites, ep1.sites):
            assert (a.precision, a.mean, a.log_scale) == (e.precision, e.mean,
                                                          e.log_scale)
        assert ep1.log_evidence == pytest.approx(adf.log_evidence, abs=1e-12)

    def test_posterior_stays_spd(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng.normal(size=(10, 4)),
                          np.where(rng.random(10) < 0.5, 1.0, -1.0), slack=0.0)
        res = run_ep(BpmBinding(ds), EPOptions(tolerance=1e-8, max_sweeps=60),
                     record_history=True)
        for snap in res.history:
            eig = np.linalg.eigvalsh(snap.posterior.covariance)
            assert float(np.min(eig)) > 0.0

    def test_scale_equivariance(self):
        # scaling points by c and slack by c leaves the match invariant
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(5, 2))
        labels = np.where(rng.random(5) < 0.5, 1.0, -1.0)
        c = 3.7
        a = bpm_train(make_dataset(pts, labels, slack=1.0),
                      EPOptions(tolerance=1e-10, max_sweeps=200))
        b = bpm_train(make_dataset(c * pts, labels, slack=c),
                      EPOptions(tolerance=1e-10, max_sweeps=200))
        assert np.allclose(a.posterior.mean, b.posterior.mean, atol=1e-10)
        assert np.allclose(a.posterior.covariance, b.posterior.covariance,
                           atol=1e-10)
        assert a.log_evidence == pytest.approx(b.log_evidence, abs=1e-10)
        xs = rng.normal(size=(20, 2))
        pa, _ = bpm_predict_batch(a, xs)
        pb, _ = bpm_predict_batch(b, xs)
        assert np.array_equal(pa, pb)

    def test_nonconvergence_is_reported(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng.normal(size=(8, 2)),
                          np.where(rng.random(8) < 0.5, 1.0, -1.0), slack=0.0)
        model = bpm_train(ds, EPOptions(tolerance=1e-14, max_sweeps=2))
        assert not model.converged
        assert model.sweeps == 2

    def test_zero_point_with_zero_slack_rejected(self):
        with pytest.raises(ValueError, match="step likelihood"):
            bpm_train(make_dataset([[0.0, 0.0]], [1.0], slack=0.0))

    @pytest.mark.parametrize("points, slack, norm", [
        ([[1.0, 1.0], [0.0, 0.0]], 1.0, "0.0"),
        ([[1.0, 1.0]], 1e-300, "inf"),
        ([[0.0, 1e-10]], 1e300, "0.0"),
        ([[1.0, 1.0], [1e200, 0.0]], 0.0, "inf"),
    ], ids=["zero-point-with-slack", "slack-overflows", "slack-underflows",
            "point-overflows"])
    def test_direction_without_a_finite_positive_norm_rejected(self, points, slack,
                                                               norm):
        ds = make_dataset(points, [1.0] * len(points), slack=slack)
        with pytest.raises(ValueError, match=f"point {len(points) - 1} .* "
                                             f"squared norm {norm} "):
            BpmBinding(ds)

    def test_nonseparable_step_likelihood_degenerates_cleanly(self):
        # opposite labels on the same point: the step-likelihood product has
        # zero mass, so refinement collapses the posterior toward a point;
        # the run must stop and report rather than underflow and crash
        ds = make_dataset([[1.0, 0.5], [1.0, 0.5]], [1.0, -1.0], slack=0.0)
        model = bpm_train(ds, EPOptions(tolerance=1e-10, max_sweeps=500))
        assert not model.converged
        assert model.diagnostics.degenerate
        assert math.isfinite(model.log_evidence)
        assert model.log_evidence < -5.0  # mass clearly vanishing
        eig = np.linalg.eigvalsh(model.posterior.covariance)
        assert float(np.min(eig)) > 0.0

    @pytest.mark.parametrize("d", [1, 3, 10, 40])
    def test_degeneracy_check_agrees_with_smallest_eigenvalue(self, d):
        # V = Q diag(lam) Q^T with the smallest eigenvalue a factor of 100 or
        # more from the threshold t = max(1e-40, 1e-12 mean(diag V))
        rng = np.random.default_rng(d)
        binding = BpmBinding(make_dataset(rng.normal(size=(2, d)), [1.0, -1.0]))
        spectra = {
            "spd": lambda s: s * rng.uniform(0.1, 10.0, size=d),
            "near-singular": lambda s: np.append(
                s * rng.uniform(0.5, 2.0, size=d - 1), s * 1e-9),
            "below-relative": lambda s: np.append(
                s * rng.uniform(0.5, 2.0, size=d - 1), s * 1e-15),
            "indefinite": lambda s: np.append(
                s * rng.uniform(0.5, 2.0, size=d - 1), -s * 1e-3),
            "collapsed": lambda s: np.full(d, 1e-43),
            "small-but-proper": lambda s: 1e-30 * rng.uniform(0.5, 2.0, size=d),
        }
        seen = set()
        for name, spectrum in spectra.items():
            for scale in (1e-6, 1.0, 1e6):
                q, _ = np.linalg.qr(rng.normal(size=(d, d)))
                lam = spectrum(scale)
                cov = (q * lam) @ q.T
                cov = 0.5 * (cov + cov.T)
                low = float(np.min(np.linalg.eigvalsh(cov)))
                t = max(1e-40, 1e-12 * float(np.mean(np.diag(cov))))
                assert not t / 100 < low < t * 100, (name, scale, low, t)
                degenerate = binding.is_degenerate(FullGaussian.trusted(
                    np.zeros(d), cov))
                assert degenerate == (low < t), (name, scale, low, t)
                seen.add(degenerate)
        assert seen == {True, False}


class TestQuadraticCost:
    def test_tally_scales_quadratically(self):
        rng = np.random.default_rng(13)

        def per_site(d):
            n = 5
            ds = make_dataset(rng.normal(size=(n, d)),
                              np.where(rng.random(n) < 0.5, 1.0, -1.0),
                              slack=1.0)
            binding = BpmBinding(ds)
            run_adf(binding)
            return binding.tally.count / n

        ratio = per_site(20) / per_site(10)
        assert 3.5 <= ratio <= 4.5


class TestPredict:
    @pytest.fixture()
    def one_point_model(self):
        return bpm_train(make_dataset([[1.0]], [1.0], slack=1.0),
                         EPOptions(tolerance=1e-10))

    def test_positive_side(self, one_point_model):
        assert bpm_predict(one_point_model, [2.0]) == 1

    def test_negative_side(self, one_point_model):
        assert bpm_predict(one_point_model, [-1.0]) == -1

    def test_zero_vector_tie(self, one_point_model):
        labels, ties = bpm_predict_batch(one_point_model, [[0.0]])
        assert labels[0] == 1
        assert ties == 1

    def test_bias_autocompletion(self):
        ds = make_dataset([[0.0, 2.0], [2.0, 0.0], [-1.0, -1.0]],
                          [1.0, -1.0, -1.0], slack=0.0, add_bias=True)
        model = bpm_train(ds, EPOptions(tolerance=1e-6, max_sweeps=100))
        raw = bpm_predict(model, [0.0, 2.0])          # auto-augmented
        full = bpm_predict(model, [0.0, 2.0, 1.0])    # explicit bias
        assert raw == full == 1

    def test_dimension_mismatch(self, one_point_model):
        with pytest.raises(ValueError):
            bpm_predict(one_point_model, [1.0, 2.0])


class TestEvidence:
    def test_empty(self):
        model = bpm_train(BpmDataset(points=np.empty((0, 1)),
                                     labels=np.empty(0)))
        assert model.log_evidence == pytest.approx(0.0, abs=1e-12)

    def test_one_point_half(self):
        model = bpm_train(make_dataset([[1.0]], [1.0], slack=1.0),
                          EPOptions(tolerance=1e-10))
        assert model.log_evidence == pytest.approx(math.log(0.5), abs=1e-8)

    def test_matches_combined_site_normalizer(self):
        rng = np.random.default_rng(14)
        ds = make_dataset(rng.normal(size=(5, 2)),
                          np.where(rng.random(5) < 0.5, 1.0, -1.0), slack=1.0)
        model = bpm_train(ds, EPOptions(tolerance=1e-10, max_sweeps=300))
        prior = spherical_as_site(SphericalGaussian(mean=np.zeros(2), variance=1.0))
        _, log_norm = combine_sites([prior] + list(model.sites), dim=2)
        assert model.log_evidence == pytest.approx(log_norm, abs=1e-10)

    def test_three_point_within_sampler_band(self):
        ds = make_dataset([[0.0, 2.0], [2.0, 0.0], [-1.0, -1.0]],
                          [1.0, -1.0, -1.0], slack=0.0, add_bias=True)
        model = bpm_train(ds, EPOptions(tolerance=1e-8, max_sweeps=200))
        est = importance_sampler(ds.log_likelihood, np.zeros(3), np.eye(3), 10 ** 5,
                                 seed=6)
        assert abs(math.exp(model.log_evidence) - est.evidence.value) \
            <= 3 * est.evidence.standard_error


class TestInterchange:
    def test_csv_round_trip(self):
        back = dataset_from_csv("x1,x2,label\n1.0,-2.0,1\n0.5,0.25,-1\n", slack=0.5)
        assert np.array_equal(back.points, [[1.0, -2.0], [0.5, 0.25]])
        assert np.array_equal(back.labels, [1.0, -1.0])
        assert back.slack == 0.5

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            BpmDataset(points=np.ones((1, 1)), labels=np.array([2.0]))

    def test_config_to_dict_records_training_options(self):
        from epkit.experiments import ExperimentConfig, config_to_dict
        config = ExperimentConfig(kind="bpm", slack=0.5, add_bias=True, seeds=(3,),
                                  ep_options=EPOptions(tolerance=1e-5))
        doc = config_to_dict(config)
        assert doc["slack"] == 0.5
        assert doc["add_bias"] is True
        assert doc["ep_options"]["tolerance"] == 1e-5
        assert doc["seeds"] == [3]
