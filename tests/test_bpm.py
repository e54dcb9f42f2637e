"""Bayes Point Machine: rank-one site algebra, probit moment matching
against the directional quadrature oracle, training, prediction, evidence."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from epkit.engine import EPOptions, EPResult, Schedule, run_adf, run_ep
from epkit.gaussians import (FullGaussian, RankOneSite, combine_sites,
                             spherical_as_site, SphericalGaussian)
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


class Unreadable(FullGaussian):
    """A posterior whose covariance may not be read."""
    @property
    def covariance(self):
        raise AssertionError("the certificate reads no covariance")


class TestDegeneracyCertificate:
    """With slack, `BpmBinding.is_degenerate` answers from a certificate on
    the data: every site precision stays in [0, 1], so the smallest
    eigenvalue of every posterior of a fit is at least 1 / (1 + |U|_F^2)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 20),
           n=st.integers(1, 30), scale=st.floats(0.1, 10.0),
           slack=st.floats(0.1, 10.0),
           damping=st.floats(0.0, 1.0, exclude_min=True),
           random_order=st.booleans())
    def test_bound_holds_at_every_sweep_end(self, seed, d, n, scale, slack,
                                            damping, random_order):
        rng = np.random.default_rng(seed)
        x = scale * rng.normal(size=(n, d))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        ds = make_dataset(x, labels, slack=slack)
        U = ds.directions
        bound = 1.0 / (1.0 + float(np.sum(U * U)))
        ends = []

        class SweepEnds(BpmBinding):
            """Keeps the posterior and the sites of every sweep end, where
            a recorded history evaluates the evidence."""
            def log_evidence(self, posterior, sites):
                ends.append((posterior.covariance.copy(), list(sites)))
                return super().log_evidence(posterior, sites)

        schedule = Schedule("random", seed % 1000) if random_order else Schedule()
        res = run_ep(SweepEnds(ds), EPOptions(tolerance=1e-12, max_sweeps=6,
                                              damping=damping, schedule=schedule),
                     record_history=True)
        assert not res.diagnostics.degenerate
        assert len(ends) == res.sweeps + 1  # every sweep end, then the result
        for V, sites in ends:
            assert float(np.min(np.linalg.eigvalsh(V))) >= bound * (1.0 - 1e-9)
            for s in sites:
                # tau = 1/q1 - 1/q0 rounds by a few ulps of 1 / q
                q = float(s.direction @ V @ s.direction)
                assert 0.0 <= s.precision <= 1.0 + 1e3 * 2.0 ** -52 * (1.0 + 1.0 / q)

    def test_certified_binding_reads_no_covariance(self):
        rng = np.random.default_rng(3)
        binding = BpmBinding(make_dataset(rng.normal(size=(20, 5)),
                                          np.where(rng.random(20) < 0.5, 1.0, -1.0),
                                          slack=1.0))
        assert not binding.is_degenerate(Unreadable.trusted(np.zeros(5), np.eye(5)))

    def test_far_tail_visit_keeps_site_precision_in_unit_interval(self):
        # margins z = mu0 / sqrt(q0 + 1) from -70 to -7e149, where the naive
        # rho (z + rho) cancels (from z = -1e4 it exceeds 1, and the site
        # precision with it); the certificate rests on precisions in [0, 1]
        binding = BpmBinding(make_dataset([[1.0]], [1.0], slack=1.0))
        for m in -np.logspace(2.0, 150.0, 1501):
            post = FullGaussian(mean=[m], covariance=[[1.0]])
            cav = binding.cavity(post, binding.vacuous_site(0))
            site, _ = binding.moment_match(cav, 0)
            assert 0.0 <= site.precision <= 1.0, m

    @pytest.mark.parametrize("slack", [0.0, 1e-5])
    def test_uncertified_binding_takes_the_cholesky_test(self, slack):
        # zero slack has no certificate; at slack 1e-5 the directions are
        # so long that 1 / (1 + |U|_F^2) is below the certificate's margin
        binding = BpmBinding(make_dataset([[1.0, 0.5], [0.3, -2.0]], [1.0, -1.0],
                                          slack=slack))
        collapsed = FullGaussian(mean=np.zeros(2), covariance=np.diag([1.0, 1e-15]))
        assert binding.is_degenerate(collapsed)
        assert not binding.is_degenerate(FullGaussian(mean=np.zeros(2),
                                                      covariance=np.eye(2)))


def test_prior_normaliser_is_the_cholesky_routes():
    # N(0, I) carries -d/2 log 2 pi, the bits a Cholesky factor gives
    for d in range(1, 301):
        binding = BpmBinding(make_dataset(np.ones((1, d)), [1.0], slack=1.0))
        dense = FullGaussian(mean=np.zeros(d), covariance=np.eye(d))
        assert binding.prior().log_norm_coeff() == dense.log_norm_coeff(), d


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


class TestModel:
    @pytest.fixture()
    def fit(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(12, 3))
        ds = make_dataset(x, np.where(x @ [1.0, -2.0, 0.5] >= 0.0, 1.0, -1.0),
                          slack=1.0, add_bias=True)
        opts = EPOptions(tolerance=1e-300, max_sweeps=4, damping=0.5,
                         schedule=Schedule("random", 2))
        return ds, bpm_train(ds, opts), run_ep(BpmBinding(ds), opts)

    def test_is_the_engine_result_with_its_dataset(self, fit):
        ds, model, want = fit
        assert isinstance(model, EPResult)
        assert model.dataset is ds and model.dim == 4
        for name in ("mean", "covariance"):
            got, exp = getattr(model.posterior, name), getattr(want.posterior, name)
            assert got.tobytes() == exp.tobytes(), name
        assert [(s.direction.tobytes(), float(s.precision).hex(), float(s.mean).hex(),
                 float(s.log_scale).hex()) for s in model.sites] \
            == [(s.direction.tobytes(), float(s.precision).hex(), float(s.mean).hex(),
                 float(s.log_scale).hex()) for s in want.sites]
        assert model.log_evidence.hex() == want.log_evidence.hex()
        assert (model.sweeps, model.converged) == (want.sweeps, want.converged) == (4, False)
        assert model.diagnostics == want.diagnostics

    def test_prediction_reads_its_dataset(self, fit):
        ds, model, _ = fit
        mean = model.posterior.mean
        err = float(np.mean(np.where(ds.points @ mean >= 0.0, 1, -1) != ds.labels))
        assert bpm_training_error(model) == err
        flipped = make_dataset(ds.points[:, :3], -ds.labels, slack=1.0, add_bias=True)
        assert bpm_training_error(replace(model, dataset=flipped)) == 1.0 - err
        # three features get the bias column of a bias-augmented data set only
        x = [0.3, -1.2, 0.8]
        assert bpm_predict(model, x) == bpm_predict(model, x + [1.0]) \
            == (1 if float(np.dot(x + [1.0], mean)) >= 0.0 else -1)
        plain = make_dataset(ds.points, ds.labels, slack=1.0)
        with pytest.raises(ValueError, match="expected 4 features"):
            bpm_predict(replace(model, dataset=plain), x)


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


class TestLikelihood:
    # The margins are formed as (n, S), one contiguous row per point, and
    # reduced over axis 0; the references are the (S, n) row forms.
    @staticmethod
    def _draws(d, seed=0):
        """Random rows, then rows of 0.0 and of -0.0 and unit rows off the
        first axis, whose margins on a point along that axis are exactly
        zero."""
        ws = np.random.default_rng(seed).normal(size=(500, d))
        return np.vstack([ws, np.zeros((2, d)), -np.zeros((2, d)),
                          np.eye(d)[1:], -np.eye(d)[1:]])

    def test_step_is_the_row_test_bit_for_bit(self):
        points = np.array([[1.0, 0.0, 0.0], [0.5, 2.0, 1.0], [-1.0, 0.25, 3.0],
                           [2.0, -1.0, 0.5]])
        ds = make_dataset(points, [1.0, -1.0, 1.0, 1.0])
        ws = self._draws(3)
        margins = ws @ ds.directions.T
        assert np.any(margins == 0.0)
        got = ds.log_likelihood(ws)
        want = np.where(np.all(margins > 0, axis=1), 0.0, -math.inf)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[500:] == -math.inf)
        assert 0 < np.count_nonzero(got == 0.0) < 500

    @pytest.mark.parametrize("slack", [0.0, 1.0])
    def test_no_points_gives_zero(self, slack):
        ds = BpmDataset(points=np.empty((0, 3)), labels=np.empty(0), slack=slack)
        ws = self._draws(3)
        assert ds.log_likelihood(ws).tobytes() == np.zeros(len(ws)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 20, 50])
    def test_slack_is_the_row_sum(self, n):
        # below 8 terms numpy's row sum adds left to right, as the column
        # form does; from 8 it sums pairwise, which is within n ulps of the
        # sum's magnitude (every log probit is <= 0)
        from scipy.special import log_ndtr
        rng = np.random.default_rng(n)
        ds = make_dataset(rng.normal(size=(n, 3)), np.where(rng.random(n) < 0.5, 1.0, -1.0),
                          slack=0.5)
        ws = self._draws(3, seed=n)
        got = ds.log_likelihood(ws)
        want = np.sum(log_ndtr(ws @ ds.directions.T), axis=1)
        if n < 8:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= n * np.finfo(float).eps * np.abs(want))


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
