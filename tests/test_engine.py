"""ADF/EP driver behavior: sweep mechanics, damping, convergence reporting,
and the energy / fixed-point diagnostics."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epkit.clutter import ClutterBinding, ClutterDataSpec, ClutterModel, generate_clutter_data
from epkit.engine import (
    EPOptions,
    MomentMatchError,
    Schedule,
    apply_damping,
    check_fixed_point,
    ep_energy,
    run_adf,
    run_ep,
)
from epkit.gaussians import NaturalSpherical, RankOneSite
from epkit.oracles import conjugate_gaussian_posterior, tilted_moments_quadrature


def small_model(seed=0, n=6, w=0.5, d=1):
    return generate_clutter_data(ClutterDataSpec(x_true=[2.0] * d, n=n, w=w,
                                                 seed=seed))


class TestRunAdf:
    def test_zero_terms_returns_prior(self):
        model = ClutterModel(data=np.empty((0, 1)), w=0.5)
        res = run_adf(ClutterBinding(model))
        assert res.log_evidence == 0.0
        assert res.posterior.variance == 100.0
        assert res.sweeps == 1

    def test_conjugate_single_point(self):
        model = ClutterModel(data=np.array([[1.0]]), w=0.0)
        res = run_adf(ClutterBinding(model))
        assert res.posterior.mean[0] == pytest.approx(100 / 101, rel=1e-12)
        assert res.posterior.variance == pytest.approx(100 / 101, rel=1e-12)

    def test_order_dependence(self):
        model = ClutterModel(data=np.array([[2.5], [-0.5]]), w=0.5)
        fwd = run_adf(ClutterBinding(model), order=[0, 1])
        rev = run_adf(ClutterBinding(model), order=[1, 0])
        assert fwd.posterior.variance != rev.posterior.variance

    def test_rejects_non_permutation(self):
        model = small_model()
        with pytest.raises(ValueError):
            run_adf(ClutterBinding(model), order=[0, 0, 1, 2, 3, 4])

    def test_failure_carries_term_index(self):
        model = ClutterModel(data=np.array([[1.0], [math.nan]]), w=0.5)
        with pytest.raises(MomentMatchError) as err:
            run_adf(ClutterBinding(model))
        assert err.value.term_index == 1


class TestRunEp:
    def test_zero_terms(self):
        model = ClutterModel(data=np.empty((0, 1)), w=0.5)
        res = run_ep(ClutterBinding(model))
        assert res.converged
        assert res.sweeps == 0
        assert res.posterior.variance == 100.0

    def test_failure_carries_term_index(self):
        model = ClutterModel(data=np.array([[1.0], [math.nan]]), w=0.5)
        with pytest.raises(MomentMatchError) as err:
            run_ep(ClutterBinding(model))
        assert err.value.term_index == 1
        assert isinstance(err.value.__cause__, ValueError)

    def test_first_sweep_equals_adf(self):
        for seed in range(6):
            model = small_model(seed=seed, n=7)
            adf = run_adf(ClutterBinding(model))
            ep = run_ep(ClutterBinding(model), EPOptions(max_sweeps=1))
            assert ep.posterior.mean[0] == pytest.approx(adf.posterior.mean[0],
                                                         abs=1e-12)
            assert ep.posterior.variance == pytest.approx(adf.posterior.variance,
                                                          rel=1e-12)
            assert ep.log_evidence == pytest.approx(adf.log_evidence, abs=1e-12)

    def test_first_sweep_equals_adf_random_order(self):
        model = small_model(seed=3, n=7)
        sched = Schedule("random", seed=99)
        order = list(np.random.default_rng(99).permutation(7))
        adf = run_adf(ClutterBinding(model), order=order)
        ep = run_ep(ClutterBinding(model),
                    EPOptions(max_sweeps=1, schedule=sched))
        assert ep.posterior.mean[0] == pytest.approx(adf.posterior.mean[0], abs=1e-12)
        assert ep.log_evidence == pytest.approx(adf.log_evidence, abs=1e-12)

    def test_conjugate_converges_in_two_sweeps(self):
        model = ClutterModel(data=small_model(seed=1, n=10).data, w=0.0)
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-10))
        post, log_ml = conjugate_gaussian_posterior(model.data, 100.0)
        assert res.converged
        assert res.sweeps <= 2
        assert res.posterior.mean[0] == pytest.approx(post.mean[0], abs=1e-10)
        assert res.posterior.variance == pytest.approx(post.variance, rel=1e-10)
        assert res.log_evidence == pytest.approx(log_ml, abs=1e-10)

    def test_nonconvergence_reported_not_raised(self):
        model = small_model(seed=1, n=12)  # known oscillating instance
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-12,
                                                      max_sweeps=3))
        assert not res.converged
        assert res.sweeps == 3

    def test_convergence_flag_honesty(self):
        # one more full sweep moves every site by less than the tolerance
        tol = 1e-6
        model = small_model(seed=2, n=8)
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=tol, max_sweeps=100))
        assert res.converged
        q, sites = res.posterior, list(res.sites)
        for i in range(len(sites)):
            cav = binding.cavity(q, sites[i])
            q_new, log_z = binding.moment_match(cav, i)
            new_site = binding.make_site(q_new, cav, log_z, i)
            delta = np.max(np.abs(binding.site_coords(new_site)
                                  - binding.site_coords(sites[i])))
            assert delta < tol
            sites[i] = new_site
            q = q_new

    def test_history_snapshots_monotone_ops(self):
        model = small_model(seed=4, n=6)
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-8),
                     record_history=True)
        ops = [s.operations for s in res.history]
        assert ops == sorted(ops)
        assert res.history[-1].sweep == res.sweeps

    def test_sweep_callback_sees_every_sweep(self):
        model = small_model(seed=4, n=6)
        seen = []
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-8),
                     sweep_callback=lambda snap: seen.append(snap.sweep))
        assert seen == list(range(1, res.sweeps + 1))


class TestDamping:
    def test_gamma_one_is_identity(self):
        old = NaturalSpherical(precision=0.0, shift=np.zeros(1))
        new = NaturalSpherical(precision=2.0, shift=np.array([1.0]), log_scale=0.3)
        assert apply_damping(old, new, 1.0) is new

    def test_midpoint(self):
        old = NaturalSpherical(precision=0.0, shift=np.zeros(1))
        new = NaturalSpherical(precision=2.0, shift=np.array([1.0]), log_scale=0.4)
        mid = apply_damping(old, new, 0.5)
        assert mid.precision == pytest.approx(1.0)
        assert mid.shift[0] == pytest.approx(0.5)
        assert mid.log_scale == pytest.approx(0.2)

    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_rank_one_interpolates_naturals(self, gamma):
        old = RankOneSite(direction=[1.0, 0.0], precision=0.5, mean=1.0)
        new = RankOneSite(direction=[1.0, 0.0], precision=2.0, mean=-0.5)
        mix = apply_damping(old, new, gamma)
        want_prec = (1 - gamma) * 0.5 + gamma * 2.0
        want_shift = (1 - gamma) * 0.5 * 1.0 + gamma * 2.0 * -0.5
        assert mix.precision == pytest.approx(want_prec, rel=1e-12)
        assert mix.precision * mix.mean == pytest.approx(want_shift, rel=1e-12)

    def test_rejects_bad_gamma(self):
        site = NaturalSpherical(precision=1.0, shift=np.array([0.0]))
        with pytest.raises(ValueError):
            apply_damping(site, site, 0.0)

    def test_damped_and_undamped_fixed_points_agree(self):
        model = small_model(seed=0, n=6)
        plain = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-10,
                                                        max_sweeps=200))
        damped = run_ep(ClutterBinding(model),
                        EPOptions(tolerance=1e-10, max_sweeps=500, damping=0.5))
        assert plain.converged and damped.converged
        assert damped.posterior.mean[0] == pytest.approx(plain.posterior.mean[0],
                                                         abs=1e-6)
        assert damped.posterior.variance == pytest.approx(plain.posterior.variance,
                                                          abs=1e-6)

    def test_damping_neutral_at_fixed_point(self):
        model = small_model(seed=2, n=6)
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-12, max_sweeps=300))
        assert res.converged
        for gamma in (0.3, 0.7, 1.0):
            q, sites = res.posterior, list(res.sites)
            for i in range(len(sites)):
                cav = binding.cavity(q, sites[i])
                q_new, log_z = binding.moment_match(cav, i)
                new_site = apply_damping(
                    sites[i], binding.make_site(q_new, cav, log_z, i), gamma)
                delta = np.max(np.abs(binding.site_coords(new_site)
                                      - binding.site_coords(sites[i])))
                assert delta <= 1e-10
                sites[i] = new_site
                q = binding.recombine(cav, new_site)


class TestEnergy:
    def test_single_term_objective_is_minus_log_evidence(self):
        # with one term the constraint forces lambda = 0 and the leading
        # term vanishes, leaving -log int t(x) p(x) dx
        model = ClutterModel(data=np.array([[1.5]]), w=0.5)
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-12))
        rep = ep_energy(binding, res.posterior, res.sites)

        def term(x):
            inlier = 0.5 * np.exp(-0.5 * (1.5 - x) ** 2) / math.sqrt(2 * math.pi)
            cl = 0.5 * math.exp(-0.5 * 1.5 ** 2 / 10.0) / math.sqrt(20 * math.pi)
            return inlier + cl

        z, _, _ = tilted_moments_quadrature(0.0, 100.0, term,
                                            features=((1.5, 1.0),))
        assert rep.objective == pytest.approx(-math.log(z), rel=1e-9)
        assert rep.constraint_residual <= 1e-12

    def test_constraint_identity_for_consistent_state(self):
        # engine bookkeeping keeps sum(sites) = posterior - prior exactly
        model = small_model(seed=7, n=9)
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-4, max_sweeps=5))
        rep = ep_energy(binding, res.posterior, res.sites)
        assert rep.constraint_residual <= 1e-12

    def test_converged_run_has_small_moment_residuals(self):
        model = small_model(seed=6, n=6)
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-10, max_sweeps=300))
        assert res.converged
        rep = ep_energy(binding, res.posterior, res.sites)
        assert np.nanmax(rep.moment_residuals) <= 1e-6
        assert rep.unevaluable == ()

    def test_energy_equals_minus_log_evidence_at_fixed_point(self):
        model = small_model(seed=8, n=7)
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-11, max_sweeps=300))
        assert res.converged
        rep = ep_energy(binding, res.posterior, res.sites)
        assert rep.objective == pytest.approx(-res.log_evidence, rel=1e-8)

    def test_constraint_identity_survives_permanently_skipped_sites(self):
        # d=2 instance whose fixed point keeps one site above the posterior
        # precision: its cavity is improper and the site is skipped forever,
        # but the multiplier constraint is a natural-parameter identity and
        # must still hold exactly
        model = generate_clutter_data(
            ClutterDataSpec(x_true=[2.0, -1.0], n=8, w=0.5, seed=3))
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-8, max_sweeps=300))
        assert res.converged
        assert res.diagnostics.skipped_sites > 0
        rep = ep_energy(binding, res.posterior, res.sites)
        assert rep.unevaluable != ()
        assert rep.constraint_residual <= 1e-12

    def test_improper_cavity_marked_unevaluable(self):
        model = small_model(seed=6, n=4)
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-8, max_sweeps=100))
        sites = list(res.sites)
        # corrupt one site so its cavity has negative precision
        sites[2] = NaturalSpherical(precision=1.0 / res.posterior.variance + 5.0,
                                    shift=sites[2].shift)
        rep = ep_energy(binding, res.posterior, sites)
        assert 2 in rep.unevaluable
        assert math.isnan(rep.moment_residuals[2])


class TestCheckFixedPoint:
    def test_residuals_small_after_convergence(self):
        model = small_model(seed=9, n=6)
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-10, max_sweeps=300))
        assert res.converged
        resid = check_fixed_point(binding, res.posterior, res.sites)
        assert np.nanmax(resid) <= 1e-8

    def test_fresh_sites_do_not_match(self):
        model = small_model(seed=9, n=6)
        binding = ClutterBinding(model)
        vac = [binding.vacuous_site(i) for i in range(binding.site_count)]
        resid = check_fixed_point(binding, binding.prior(), vac)
        assert np.nanmax(resid) > 1e-4

    def test_constant_terms_have_zero_residuals(self):
        # with w = 1 every observation term is constant in x
        model = ClutterModel(data=np.array([[1.0], [2.0], [-0.5]]), w=1.0)
        binding = ClutterBinding(model)
        res = run_ep(binding, EPOptions(tolerance=1e-10))
        resid = check_fixed_point(binding, res.posterior, res.sites)
        assert np.nanmax(resid) <= 1e-12


class TestSchedule:
    def test_sequential_orders(self):
        gen = Schedule("sequential").orders(4)
        assert next(gen) == [0, 1, 2, 3]
        assert next(gen) == [0, 1, 2, 3]

    def test_random_is_seeded(self):
        a = Schedule("random", seed=5).orders(6)
        b = Schedule("random", seed=5).orders(6)
        assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Schedule("shuffled")


class TestOptionsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0},
        {"tolerance": math.inf},
        {"tolerance": math.nan},
        {"max_sweeps": 0},
        {"damping": 0.0},
        {"damping": 1.5},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            EPOptions(**kwargs)
