"""ADF/EP driver behavior: sweep mechanics, damping, convergence reporting,
and the energy / fixed-point diagnostics."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epkit.bpm import BpmBinding, make_dataset
from epkit.clutter import ClutterBinding, ClutterDataSpec, ClutterModel, generate_clutter_data
from epkit.engine import (
    EPOptions,
    ModelBinding,
    MomentMatchError,
    OpTally,
    Schedule,
    check_fixed_point,
    ep_energy,
    run_adf,
    run_ep,
)
from epkit.gaussians import (CancelledPrecisionError, NaturalSpherical, RankOneSite,
                             SphericalGaussian, vacuous_spherical)
from epkit.oracles import conjugate_gaussian_posterior, tilted_moments_quadrature


def small_model(seed=0, n=6, w=0.5, d=1):
    return generate_clutter_data(ClutterDataSpec(x_true=[2.0] * d, n=n, w=w,
                                                 seed=seed))


class FailingAtTerm(ClutterBinding):
    """A clutter binding whose moment match fails on purpose at one term."""

    def __init__(self, model, bad_term):
        super().__init__(model)
        self.bad_term = bad_term

    def moment_match(self, cavity, i):
        if i == self.bad_term:
            raise ValueError(f"moment match fails on purpose at term {i}")
        return super().moment_match(cavity, i)


class ImproperAtTerm(ClutterBinding):
    """A clutter binding whose site `bad_term` (every site, when it is None)
    starts at a precision above any posterior's, so its cavity is improper."""

    def __init__(self, model, bad_term=None):
        super().__init__(model)
        self.bad_term = bad_term

    def vacuous_site(self, i):
        if self.bad_term in (None, i):
            return NaturalSpherical(precision=1e6, shift=np.zeros(1))
        return super().vacuous_site(i)


class NanSiteBinding(ModelBinding):
    """n one-dimensional sites; the match of site `nan_at` is a NaN site and
    every other match a unit-precision site, and the posterior stays the
    prior."""

    def __init__(self, n, nan_at):
        self.tally = OpTally()
        self.n, self.nan_at = n, nan_at

    @property
    def site_count(self):
        return self.n

    def prior(self):
        return SphericalGaussian(mean=np.zeros(1), variance=1.0)

    def vacuous_site(self, i):
        return vacuous_spherical(1)

    def cavity(self, posterior, site):
        return posterior

    def moment_match(self, cavity, i):
        if i == self.nan_at:
            return NaturalSpherical.trusted(math.nan, np.array([math.nan]), 0.0), 0.0
        return NaturalSpherical(precision=1.0, shift=np.array([0.5])), 0.0

    def recombine(self, cavity, site):
        return cavity

    def log_evidence(self, posterior, sites):
        return 0.0


class ScriptedSiteBinding(NanSiteBinding):
    """One site whose k-th match is matches[k]; the posterior stays the
    prior."""

    def __init__(self, vacuous, matches):
        super().__init__(1, None)
        self.vacuous, self.matches = vacuous, iter(matches)

    def vacuous_site(self, i):
        return self.vacuous

    def moment_match(self, cavity, i):
        return next(self.matches), 0.0


_U = np.array([0.6, -0.8])
# (first, second): sites whose precisions cancel when damped at 0.5, and
# whose shifts (precision * mean for a rank-one site) do not
CANCELLING_SITES = [
    (NaturalSpherical(0.3, np.array([1.0])), NaturalSpherical(-0.3, np.array([2.0]))),
    (RankOneSite(_U, 0.3, 1.0), RankOneSite(_U, -0.3, -5.0)),
]


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
        # ADF takes the terms in the order the data gives them
        fwd = run_adf(ClutterBinding(ClutterModel(data=[[2.5], [-0.5]], w=0.5)))
        rev = run_adf(ClutterBinding(ClutterModel(data=[[-0.5], [2.5]], w=0.5)))
        assert fwd.posterior.variance != rev.posterior.variance

    def test_failure_carries_term_index(self):
        with pytest.raises(MomentMatchError) as err:
            run_adf(FailingAtTerm(small_model(n=3), 1))
        assert err.value.term_index == 1

    def test_improper_cavity_raises_naming_the_term(self):
        with pytest.raises(MomentMatchError, match="at term 2: improper cavity") as err:
            run_adf(ImproperAtTerm(small_model(n=4), 2))
        assert err.value.term_index == 2


class TestRunEp:
    def test_zero_terms(self):
        model = ClutterModel(data=np.empty((0, 1)), w=0.5)
        res = run_ep(ClutterBinding(model), record_history=True)
        assert res.converged
        assert res.sweeps == 1 and len(res.history) == 1  # one empty sweep, like ADF
        assert res.posterior.variance == 100.0

    def test_stops_when_every_cavity_is_improper(self):
        binding = ImproperAtTerm(small_model(n=5))
        res = run_ep(binding, EPOptions(max_sweeps=10))
        assert res.sweeps == 1 and not res.converged
        assert res.diagnostics.improper_cavities == res.diagnostics.skipped_sites == 5
        assert not res.diagnostics.degenerate
        assert res.posterior.mean.tobytes() == binding.prior().mean.tobytes()
        assert res.posterior.variance == binding.prior().variance

    def test_failure_carries_term_index(self):
        with pytest.raises(MomentMatchError) as err:
            run_ep(FailingAtTerm(small_model(n=3), 1))
        assert err.value.term_index == 1
        assert isinstance(err.value.__cause__, ValueError)

    def test_first_sweep_equals_adf(self):
        # ADF makes the visits of EP's first sweep, so on the default clutter
        # experiment's data both give the same posterior and sites bit for bit
        for seed in range(1, 21):
            model = generate_clutter_data(ClutterDataSpec(x_true=[2.0], n=12,
                                                          w=0.5, seed=seed))
            adf = run_adf(ClutterBinding(model))
            ep = run_ep(ClutterBinding(model), EPOptions(max_sweeps=1))
            assert np.array_equal(ep.posterior.mean, adf.posterior.mean)
            assert ep.posterior.variance == adf.posterior.variance
            for a, e in zip(adf.sites, ep.sites):
                assert a.change(e) == 0.0
                assert a.log_scale == e.log_scale
            assert ep.log_evidence == pytest.approx(adf.log_evidence, abs=1e-12)

    def test_first_sweep_equals_adf_random_order(self):
        # a random first sweep is ADF over the data permuted the same way
        for seed in range(1, 21):
            model = small_model(seed=seed, n=7)
            sched = Schedule("random", seed=seed)
            order = next(sched.orders(7))
            adf = run_adf(ClutterBinding(replace(model, data=model.data[order])))
            ep = run_ep(ClutterBinding(model), EPOptions(max_sweeps=1, schedule=sched))
            assert np.array_equal(ep.posterior.mean, adf.posterior.mean)
            assert ep.posterior.variance == adf.posterior.variance
            for a, i in zip(adf.sites, order):
                assert a.change(ep.sites[i]) == 0.0
            assert ep.log_evidence == pytest.approx(adf.log_evidence, abs=1e-12)

    def test_conjugate_converges_in_two_sweeps(self):
        model = ClutterModel(data=small_model(seed=1, n=10).data, w=0.0)
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-10))
        post, log_ml = conjugate_gaussian_posterior(model.data)
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
            new_site, _ = binding.moment_match(cav, i)
            assert new_site.change(sites[i]) < tol
            sites[i] = new_site
            q = binding.recombine(cav, new_site)

    @pytest.mark.parametrize("n, nan_at", [(1, 0), (2, 0), (3, 1)])
    def test_nan_site_change_never_converges(self, n, nan_at):
        # max(0.0, nan) is 0.0, so a sweep maximum built with the builtin
        # would call a NaN site converged after one sweep; the NaN must stay
        # the maximum whichever site comes after it
        res = run_ep(NanSiteBinding(n, nan_at), EPOptions(max_sweeps=4),
                     record_history=True)
        assert not res.converged
        assert res.sweeps == 4
        assert all(math.isnan(s.max_change) for s in res.history)

    def test_random_schedule_failure_index_is_int(self):
        with pytest.raises(MomentMatchError) as err:
            run_ep(FailingAtTerm(small_model(n=5), 3),
                   EPOptions(schedule=Schedule("random", seed=4)))
        assert type(err.value.term_index) is int
        assert err.value.term_index == 3

    def test_history_snapshots_monotone_ops(self):
        model = small_model(seed=4, n=6)
        res = run_ep(ClutterBinding(model), EPOptions(tolerance=1e-8),
                     record_history=True)
        ops = [s.operations for s in res.history]
        assert ops == sorted(ops)
        assert [s.sweep for s in res.history] == list(range(1, res.sweeps + 1))


class TestDamping:
    def test_midpoint(self):
        old = NaturalSpherical(precision=0.0, shift=np.zeros(1))
        new = NaturalSpherical(precision=2.0, shift=np.array([1.0]), log_scale=0.4)
        mid = old.damped(new, 0.5)
        assert mid.precision == pytest.approx(1.0)
        assert mid.shift[0] == pytest.approx(0.5)
        assert mid.log_scale == pytest.approx(0.2)

    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_rank_one_interpolates_naturals(self, gamma):
        old = RankOneSite(direction=[1.0, 0.0], precision=0.5, mean=1.0)
        new = RankOneSite(direction=[1.0, 0.0], precision=2.0, mean=-0.5)
        mix = old.damped(new, gamma)
        want_prec = (1 - gamma) * 0.5 + gamma * 2.0
        want_shift = (1 - gamma) * 0.5 * 1.0 + gamma * 2.0 * -0.5
        assert mix.precision == pytest.approx(want_prec, rel=1e-12)
        assert mix.precision * mix.mean == pytest.approx(want_shift, rel=1e-12)

    def test_rank_one_across_equal_distinct_directions(self):
        u = np.array([0.3, -1.2, 2.0])
        old = RankOneSite(direction=u, precision=0.5, mean=1.0, log_scale=0.1)
        same = old.damped(RankOneSite(direction=u, precision=2.0, mean=-0.5,
                                      log_scale=0.3), 0.3)
        copy = RankOneSite(direction=u.copy(), precision=2.0, mean=-0.5,
                           log_scale=0.3)
        mix = old.damped(copy, 0.3)
        assert (mix.precision, mix.mean, mix.log_scale) \
            == (same.precision, same.mean, same.log_scale)
        assert mix.direction is copy.direction
        other = RankOneSite(direction=u + np.array([0.0, 0.0, 1e-12]),
                            precision=2.0, mean=-0.5)
        with pytest.raises(ValueError, match="different directions"):
            old.damped(other, 0.3)

    @pytest.mark.parametrize("first, second", CANCELLING_SITES)
    def test_cancelling_precisions_with_a_shift_raise(self, first, second):
        with pytest.raises(CancelledPrecisionError):
            first.damped(second, 0.5)

    @pytest.mark.parametrize("first, second", [
        (NaturalSpherical(0.3, np.array([1.0])),
         NaturalSpherical(-0.3, np.array([-1.0]), log_scale=0.4)),
        (RankOneSite(_U, 0.3, 1.0), RankOneSite(_U, -0.3, 1.0, log_scale=0.4)),
    ])
    def test_cancelling_precisions_and_shifts_give_a_vacuous_site(self, first, second):
        mix = first.damped(second, 0.5)
        assert (mix.precision, mix.log_scale) == (0.0, 0.2)
        assert not np.any(mix.natural_coords())

    @pytest.mark.parametrize("vacuous, first_match, cancelling", [
        (vacuous_spherical(1), NaturalSpherical(0.6, np.array([2.0])),
         CANCELLING_SITES[0][1]),
        (RankOneSite(_U, 0.0), RankOneSite(_U, 0.6, 1.0), CANCELLING_SITES[1][1]),
    ])
    def test_run_ep_reports_cancellation_as_moment_match_error(
            self, vacuous, first_match, cancelling):
        # sweep 1 damps the vacuous site to the first site of
        # CANCELLING_SITES, sweep 2 damps that against its partner
        binding = ScriptedSiteBinding(vacuous, [first_match, cancelling])
        with pytest.raises(MomentMatchError) as err:
            run_ep(binding, EPOptions(damping=0.5, max_sweeps=3))
        assert err.value.term_index == 0
        assert isinstance(err.value.__cause__, CancelledPrecisionError)

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
                new_site = sites[i].damped(binding.moment_match(cav, i)[0], gamma)
                assert new_site.change(sites[i]) <= 1e-10
                sites[i] = new_site
                q = binding.recombine(cav, new_site)


_value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan]),
                  st.floats(allow_infinity=False, min_value=-1e150, max_value=1e150))


def _bits(x):
    """x's IEEE bytes, with every NaN read as one value."""
    return b"nan" if math.isnan(x) else np.float64(x).tobytes()


class TestSiteChange:
    """`change` against a numpy max |delta| over (precision, shift)."""

    @given(st.tuples(_value, _value), st.tuples(_value, _value))
    def test_rank_one_matches_numpy_and_is_symmetric(self, a, b):
        u = np.array([1.0, -2.0])
        sa = RankOneSite(direction=u, precision=a[0], mean=a[1])
        sb = RankOneSite(direction=u, precision=b[0], mean=b[1])
        want = np.max(np.abs(np.array([sa.precision, sa.precision * sa.mean])
                             - np.array([sb.precision, sb.precision * sb.mean])))
        got = sa.change(sb)
        assert type(got) is float
        assert _bits(got) == _bits(float(want)) == _bits(sb.change(sa))

    @given(st.tuples(_value, _value),
           st.lists(st.tuples(_value, _value), min_size=1, max_size=4))
    def test_spherical_matches_numpy_and_is_symmetric(self, precisions, shifts):
        # a zero precision keeps a zero shift, as a valid site must
        (pa, pb), (xa, xb), zero = precisions, np.array(shifts).T, np.zeros(len(shifts))
        sa = NaturalSpherical(precision=pa, shift=xa if pa != 0.0 else zero)
        sb = NaturalSpherical(precision=pb, shift=xb if pb != 0.0 else zero)
        want = np.max(np.abs(np.concatenate(([sa.precision], sa.shift))
                             - np.concatenate(([sb.precision], sb.shift))))
        got = sa.change(sb)
        assert type(got) is float
        assert _bits(got) == _bits(float(want)) == _bits(sb.change(sa))


def _natural(g):
    """(b, P) with g(x) proportional to exp(b.x - x.P x / 2), for a posterior
    or a site of either family."""
    if isinstance(g, (NaturalSpherical, SphericalGaussian)):
        return g.shift, g.precision * np.eye(g.dim)
    if isinstance(g, RankOneSite):
        u = g.direction
        return g.precision * g.mean * u, g.precision * np.outer(u, u)
    P = np.linalg.inv(g.covariance)
    return P @ g.mean, P


def _log_partition(b, P):
    """log of the integral of exp(b.x - x.P x / 2) dx."""
    L = np.linalg.cholesky(P)
    z = np.linalg.solve(L, b)
    return 0.5 * len(b) * math.log(2 * math.pi) - float(np.sum(np.log(np.diag(L)))) \
        + 0.5 * float(z @ z)


def _log_partition_objective(binding, posterior, sites):
    """The energy objective through the family log partition A and the
    multipliers nu = theta(posterior) - theta(prior), lambda_i = nu -
    theta(site_i): (n-1) (A(prior + nu) - A(prior)) - sum_i [A(prior +
    lambda_i) - A(prior) + log Z_i], every cavity proper."""
    b0, P0 = _natural(binding.prior())
    bq, Pq = _natural(posterior)
    a0 = _log_partition(b0, P0)
    objective = (len(sites) - 1) * (_log_partition(bq, Pq) - a0)
    for i, site in enumerate(sites):
        cav = binding.cavity(posterior, site)
        assert cav is not None
        _, log_z = binding.moment_match(cav, i)
        bs, Ps = _natural(site)
        objective -= _log_partition(bq - bs, Pq - Ps) - a0 + log_z
    return objective


def _bpm_binding(d=4, n=30, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d - 1))
    labels = np.where(x @ rng.normal(size=d - 1) + 0.3 * rng.normal(size=n) > 0,
                      1.0, -1.0)
    return BpmBinding(make_dataset(x, labels, slack=1.0, add_bias=True))


class TestEnergy:
    @pytest.mark.parametrize("make_binding, sweeps", [
        (lambda: ClutterBinding(small_model(seed=4, n=10, d=2)), 2),
        (_bpm_binding, 1),
    ], ids=["clutter-d2-sweep2", "bpm-d4-n30-sweep1"])
    def test_objective_matches_log_partition_form_mid_run(self, make_binding,
                                                          sweeps):
        binding = make_binding()
        res = run_ep(binding, EPOptions(tolerance=1e-12, max_sweeps=sweeps))
        assert not res.converged
        rep = ep_energy(binding, res.posterior, res.sites)
        assert rep.unevaluable == ()
        want = _log_partition_objective(binding, res.posterior, res.sites)
        assert rep.objective == pytest.approx(want, rel=1e-12)
        assert np.array_equal(
            rep.moment_residuals,
            check_fixed_point(binding, res.posterior, res.sites), equal_nan=True)

    def test_charges_one_visit_per_site(self):
        # one cavity, moment match and recombination per site, 10d+16 ops
        d, n = 2, 7
        binding = ClutterBinding(small_model(seed=6, n=n, d=d))
        res = run_ep(binding, EPOptions(tolerance=1e-10, max_sweeps=300))
        assert res.converged
        assert all(binding.cavity(res.posterior, s) is not None for s in res.sites)
        before = binding.tally.count
        ep_energy(binding, res.posterior, res.sites)
        assert binding.tally.count - before == n * (10 * d + 16)

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

    def test_random_orders_are_python_ints_of_the_seeded_permutation(self):
        gen = Schedule("random", seed=5).orders(6)
        rng = np.random.default_rng(5)
        for _ in range(3):
            order = next(gen)
            assert order == list(rng.permutation(6))
            assert all(type(i) is int for i in order)

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
