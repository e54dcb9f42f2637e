"""Clutter model: analytic moment match vs quadrature, evidence formulas,
data generation, and spherical-family geometry."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epkit import clutter, gaussians
from epkit.clutter import (
    CLUTTER_VARIANCE,
    LIKELIHOOD_BLOCK_ROWS,
    LIKELIHOOD_CHUNK_TERMS,
    LIKELIHOOD_MIN_FLOOR,
    PRIOR_VARIANCE,
    ClutterBinding,
    ClutterDataSpec,
    ClutterModel,
    _tilted_moments,
    clutter_moment_match,
    generate_clutter_data,
)
from epkit.engine import (EPOptions, MomentMatchError, Schedule,
                          check_fixed_point, ep_energy, ep_log_evidence,
                          run_adf, run_ep)
from epkit.gaussians import (
    ImproperProductError,
    NaturalSpherical,
    SphericalGaussian,
    ZeroNormalizerError,
    combine_sites,
    divide_out,
    log_normal_pdf,
    spherical_as_site,
    vacuous_spherical,
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

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("w", [0.0, 0.3, 1.0])
    def test_against_quadrature_oracle_at_the_cavity_mean(self, d, w):
        # y at the cavity mean: the cavity-to-y distance rho is 0, and the
        # oracle integrates along a unit axis of its own choosing
        cav = SphericalGaussian(mean=np.linspace(-1.0, 2.0, d), variance=2.5)
        m = clutter_moment_match(cav, cav.mean, w)
        z, mean, var = clutter_tilted_moments(cav, cav.mean, w)
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

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e3),
           st.just(1e300) | st.floats(min_value=-1e6, max_value=1e6))
    @example(0.0, 0.5, 2.0, 1e300)
    @example(1.0, 0.5, 2.0, 1e300)
    @example(0.0, 0.5, 2.0, 3.0)
    @example(1.0, 0.5, 2.0, 3.0)
    def test_float_call_is_the_array_call(self, w, m, v, y):
        """On floats `_tilted_moments` returns the bits of the 1-element-
        array call, or raises the same named error."""
        log_cl = float(ClutterModel(data=[[y]], w=w).log_clutter()[0])

        def outcome(m, y):
            try:
                mean, *rest = _tilted_moments(m, v, y, w, log_cl)
            except ValueError as exc:
                return type(exc), str(exc)
            return [float(x).hex() for x in (np.ravel(mean)[0], *rest)]

        got = outcome(m, y)
        assert got == outcome(np.array([m]), np.array([y]))
        if y == 1e300:
            assert got[0] is ZeroNormalizerError


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
                post = SphericalGaussian(mean=rng.normal(size=d) * 2.0,
                                         variance=float(rng.uniform(0.3, 30.0)))
                # the binding's own cavity: at d = 1 it is not a Gaussian
                site, log_z = binding.moment_match(
                    binding.cavity(post, binding.vacuous_site(i)), i)
                cav = divide_out(post, binding.vacuous_site(i))
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

    def test_float_cavity_and_recombination_are_the_array_ones(self):
        """At d = 1, 2 and 3 the cavity is divide_out's, and the posterior
        is (cavity.shift + site.shift) / tau of precision tau, bit for bit;
        at d = 1 the posteriors and sites are float-held.  An improper
        cavity is None and an improper product raises."""
        rng = np.random.default_rng(18)
        for d in (1, 2, 3):
            model = ClutterModel(data=rng.normal(size=(5, d)) * 3.0, w=0.5)
            binding = ClutterBinding(model)
            held = float if d == 1 else np.ndarray
            improper = 0
            for k in range(300):
                mean, variance = rng.normal(size=d) * 2.0, float(rng.uniform(0.3, 30.0))
                precision = float(rng.uniform(-1.0, 1.2)) / variance
                shift = rng.normal(size=d)
                post = SphericalGaussian.trusted(mean.item() if d == 1 else mean, variance)
                old = NaturalSpherical.trusted(
                    precision, shift.item() if d == 1 else shift, 0.0)
                cav = binding.cavity(post, old)
                want = divide_out(SphericalGaussian(mean, variance),
                                  NaturalSpherical(precision, shift))
                if want is None:
                    assert cav is None
                    improper += 1
                    continue
                m, v = cav
                assert type(m) is held
                assert np.ravel(m).tobytes() == want.mean.tobytes()
                assert v.hex() == want.variance.hex()
                site, _ = binding.moment_match(cav, k % model.n)
                assert type(site.h) is held
                tau = want.precision + site.precision
                got = binding.recombine(cav, site)
                assert type(got.m) is held
                assert got.variance.hex() == (1.0 / tau).hex()
                assert got.mean.tobytes() == ((want.shift + site.shift) / tau).tobytes()
                with pytest.raises(ImproperProductError):
                    binding.recombine(cav, NaturalSpherical.trusted(
                        -2.0 * want.precision, site.h, 0.0))
            assert 0 < improper < 150, d

    def test_failure_is_moment_match_error(self):
        model = ClutterModel(data=np.array([[0.5], [1e300]]), w=0.0)
        with pytest.raises(MomentMatchError) as err:
            run_adf(ClutterBinding(model))
        assert err.value.term_index == 1
        assert isinstance(err.value.__cause__, ZeroNormalizerError)


class ArrayFormBinding(ClutterBinding):
    """At d = 1, the binding's fit with every mean and shift held as a
    1-element array: the cavity comes from `divide_out` and the posterior
    from the cavity's and the site's shift arrays.  The charges are the
    binding's (10d+16 per visit)."""

    def prior(self):
        return SphericalGaussian(mean=np.zeros(1), variance=PRIOR_VARIANCE)

    def vacuous_site(self, i):
        return vacuous_spherical(1)

    def cavity(self, posterior, site):
        self.tally.count += 4
        cav = divide_out(posterior, site)
        return None if cav is None else (cav.mean, cav.variance)

    def moment_match(self, cavity, i):
        site, log_z = super().moment_match(cavity, i)
        return NaturalSpherical.trusted(site.precision, site.shift.copy(),
                                        site.log_scale), log_z

    def recombine(self, cavity, site):
        self.tally.count += 4
        cav = SphericalGaussian.trusted(*cavity)
        tau = cav.precision + site.precision
        if tau <= 0.0:
            raise ImproperProductError("improper product")
        return SphericalGaussian.trusted((cav.shift + site.shift) / tau, 1.0 / tau)

    def log_evidence(self, posterior, sites):
        super().log_evidence(posterior, sites)
        return ep_log_evidence(self.prior(), posterior, sites)


def _fit_bits(binding, opts):
    """Everything a fit gives, as bytes and float.hex."""
    res = run_ep(binding, opts, record_history=True)

    def g(dist):
        return dist.mean.tobytes(), dist.variance.hex()

    energy = ep_energy(binding, res.posterior, res.sites)
    return {
        "posterior": g(res.posterior),
        "sites": [(s.precision.hex(), s.shift.tobytes(), s.log_scale.hex())
                  for s in res.sites],
        "history": [(h.sweep, g(h.posterior), h.log_evidence.hex(), h.operations,
                     h.max_change.hex()) for h in res.history],
        "result": (res.log_evidence.hex(), res.sweeps, res.converged,
                   res.diagnostics, binding.tally.count),
        "fixed_point": [r.hex() for r in check_fixed_point(binding, res.posterior,
                                                            res.sites)],
        "energy": (energy.objective.hex(), energy.constraint_residual.hex(),
                   [r.hex() for r in energy.moment_residuals], energy.unevaluable),
    }, res


class TestScalarFormFits:
    @pytest.mark.parametrize("opts", [
        EPOptions(), EPOptions(damping=0.5, schedule=Schedule("random", 3))],
        ids=["undamped", "damped"])
    @pytest.mark.parametrize("w, seed", [(0.0, 11), (0.5, 11), (1.0, 11), (0.5, 5)])
    def test_equal_to_the_array_form(self, w, seed, opts):
        """A d = 1 fit on float-held means and shifts equals, bit for bit,
        the same fit with every mean and shift held as an array.  Seed 5 of
        the default experiment skips improper cavities."""
        model = generate_clutter_data(ClutterDataSpec(x_true=[2.0], n=12, w=w,
                                                      seed=seed))
        got, res = _fit_bits(ClutterBinding(model), opts)
        want, ref = _fit_bits(ArrayFormBinding(model), opts)
        assert got == want
        assert type(res.posterior.m) is float
        assert all(type(s.h) is float for s in res.sites)
        assert type(ref.posterior.m) is np.ndarray
        assert all(type(s.h) is np.ndarray for s in ref.sites)
        if (w, seed) == (0.5, 5) and opts.damping == 1.0:
            assert res.diagnostics.skipped_sites > 0


class _ExpOnly:
    """A stand-in for numpy that offers `exp` and raises on anything else."""
    exp = np.exp

    def __getattr__(self, name):
        raise AssertionError(f"numpy call np.{name}")


@pytest.mark.parametrize("seed", [1, 5, 11])
def test_d1_fit_makes_no_numpy_call_but_exp(seed, monkeypatch):
    """With numpy reduced to `exp` in the clutter and Gaussian modules, an
    undamped d = 1 EP fit with history and an ADF fit on the default data
    finish, and their posteriors have the bits of an unpatched fit."""
    model = generate_clutter_data(ClutterDataSpec(x_true=[2.0], n=12, w=0.5,
                                                  seed=seed))
    want = [run_ep(ClutterBinding(model), record_history=True).posterior,
            run_adf(ClutterBinding(model)).posterior]
    with monkeypatch.context() as patched:
        for module in (clutter, gaussians):
            patched.setattr(module, "np", _ExpOnly())
        got = [run_ep(ClutterBinding(model), record_history=True).posterior,
               run_adf(ClutterBinding(model)).posterior]
    for g, w in zip(got, want):
        assert (g.mean.tobytes(), g.variance.hex()) == (w.mean.tobytes(), w.variance.hex())


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
    @pytest.mark.parametrize("n", [0, 1, 12, 1500, "far", "switch", "floor"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("w", [0.0, 0.3, 0.5, 1.0])
    def test_agrees_with_logaddexp_loop(self, w, d, n):
        if n in ("switch", "floor"):
            # observations whose floor B_i = exp(c_i - ic) is 2^-40 e^delta:
            # "switch" puts them on both sides of LIKELIHOOD_MIN_FLOOR, so
            # both term forms run in one call; "floor" puts 60 just above it,
            # more offset-factor terms than one chunk holds, and the rows near
            # 0 below are far from every datum, so each factor is its floor
            rng = np.random.default_rng(2000 + 10 * d + int(10 * w) + (n == "floor"))
            deltas = (np.array([-1.0, -1e-3, -1e-9, 1e-9, 1e-3, 1.0]) if n == "switch"
                      else rng.uniform(1e-6, 1e-3, size=60))
            odds = math.log(w / (1.0 - w)) if 0.0 < w < 1.0 else 0.0
            cv = CLUTTER_VARIANCE
            sq = 2.0 * cv * (odds - 0.5 * d * math.log(cv) + 40.0 * math.log(2.0) - deltas)
            u = rng.normal(size=(deltas.size, d))
            data = np.sqrt(sq)[:, None] * u / np.linalg.norm(u, axis=1)[:, None]
            if 0.0 < w < 1.0:
                in_const = math.log1p(-w) - 0.5 * d * math.log(2.0 * math.pi)
                floors = np.exp(ClutterModel(data=data, w=w).log_clutter() - in_const)
                above = np.count_nonzero(floors >= LIKELIHOOD_MIN_FLOOR)
                if n == "switch":
                    assert above == 3 and floors.size == 6
                else:
                    assert above == floors.size > LIKELIHOOD_CHUNK_TERMS
        elif n == "far":
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
        if n not in (0, 1, 12):
            xs = np.concatenate([xs, rng.normal(size=(50, d)) * 1e-3,
                                 data[0] + rng.normal(size=(50, d))])
        ref = logaddexp_loop_log_likelihood(model, xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.log_likelihood(xs)
        assert got.shape == ref.shape
        if n == 0:
            assert got.tobytes() == np.zeros(xs.shape[0]).tobytes()
        inf = np.isinf(ref)
        assert np.array_equal(got[inf], ref[inf])
        assert np.all(np.abs(got[~inf] - ref[~inf])
                      <= 1e-13 * np.maximum(1.0, np.abs(ref[~inf])))

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

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0])
    def test_any_row_split_gives_the_same_bits(self, d, w):
        model = generate_clutter_data(ClutterDataSpec(x_true=[2.0] * d, n=12, w=w, seed=5))
        s = 3 * LIKELIHOOD_BLOCK_ROWS + 17
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(s, d)) * 10.0
        whole = model.log_likelihood(xs)
        for _ in range(3):
            cuts = np.unique(np.concatenate(([0, s], rng.integers(1, s, size=5))))
            pieces = [model.log_likelihood(xs[a:b]) for a, b in zip(cuts, cuts[1:])]
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


@pytest.mark.parametrize("w", [0.0, 0.3, 1.0])
def test_clutter_constants_are_computed_once(w):
    """`log_clutter` returns the model's one read-only array of
    log(w N(y_i; 0, CLUTTER_VARIANCE I)), which the moment match's
    constant equals."""
    data = np.random.default_rng(3).normal(size=(4, 2)) * 3.0
    model = ClutterModel(data=data, w=w)
    log_cl = model.log_clutter()
    assert log_cl is model.log_clutter() and not log_cl.flags.writeable
    for y, c in zip(data, log_cl):
        want = math.log(w) + log_normal_pdf(y, np.zeros(2), CLUTTER_VARIANCE) \
            if w > 0.0 else -math.inf
        assert c == want
        cav = SphericalGaussian(mean=np.zeros(2), variance=1.0)
        assert clutter_moment_match(cav, y, w).log_z \
            == _tilted_moments(cav.mean, 1.0, y, w, want)[2]
    with pytest.raises(ValueError, match="dimension mismatch"):
        clutter_moment_match(SphericalGaussian(mean=[0.0], variance=1.0), data[0], w)


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
