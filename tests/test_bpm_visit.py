"""The fused BPM site visit: cavity, moment match (the site) and
recombination as rank-one algebra on the posterior, checked against dense
natural-parameter arithmetic, plus drift over long runs and the boundary
checks that keep the visit's inputs valid."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit import bpm
from epkit.bpm import (
    BpmBinding,
    BpmDataset,
    bpm_moment_match,
    bpm_train,
    make_dataset,
    rank_one_site_from,
)
from epkit.engine import EPOptions, Schedule, run_adf, run_ep
from epkit.gaussians import (
    FullGaussian,
    ImproperProductError,
    RankOneSite,
    rank_one_update,
)


def rel(got, want):
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def dense_site_posterior(Pc, u, site):
    """inv(Pc + tau u u^T) and its mean for cavity precision Pc and shift
    Pc @ mc, or None when the sum is not positive definite."""
    P = Pc + site.precision * np.outer(u, u)
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        return None
    return np.linalg.inv(P)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       d=st.integers(1, 6),
       t=st.floats(-3.0, 3.0).filter(lambda t: abs(1.0 - t) > 0.05),
       noise=st.sampled_from([0.0, 1.0]),
       gamma=st.floats(0.1, 0.9))
def test_fused_visit_matches_dense_arithmetic(seed, d, t, noise, gamma):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    post = FullGaussian(mean=rng.normal(size=d),
                        covariance=A @ A.T + 0.3 * np.eye(d))
    x = rng.normal(size=d)
    x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
    binding = BpmBinding(make_dataset([x], [1.0], slack=1.0 if noise else 0.0))
    u = binding.directions[0]
    q = float(u @ post.covariance @ u)
    site = RankOneSite(direction=u, precision=t / q, mean=float(rng.normal()),
                       log_scale=float(rng.normal()))

    # cavity: remove tau u u^T from the posterior precision
    P = np.linalg.inv(post.covariance)
    Pc = P - site.precision * np.outer(u, u)
    proper = bool(np.min(np.linalg.eigvalsh(Pc)) > 0.0)
    cav = binding.cavity(post, site)
    assert (cav is not None) == proper
    if cav is None:
        return
    Vc = np.linalg.inv(Pc)
    mc = Vc @ (P @ post.mean - site.precision * site.mean * u)
    assert rel(cav.covariance, Vc) <= 1e-10
    assert rel(cav.mean, mc) <= 1e-10
    assert cav.q0 == pytest.approx(float(u @ Vc @ u), rel=1e-10)

    # site and the cavity times it against the dense cavity's moment match
    dense_cav = FullGaussian(mean=mc, covariance=0.5 * (Vc + Vc.T))
    dense = bpm_moment_match(dense_cav, u, noise)
    new_site, log_z = binding.moment_match(cav, 0)
    assert log_z == pytest.approx(dense.log_z, rel=1e-10, abs=1e-10)
    fused = binding.recombine(cav, new_site)
    assert rel(fused.covariance, dense.posterior.covariance) <= 1e-10
    assert rel(fused.mean, dense.posterior.mean) <= 1e-10
    assert np.array_equal(fused.covariance, fused.covariance.T)
    ref_site = rank_one_site_from(dense.posterior, dense_cav, dense.log_z, u)
    for got, want in ((new_site.precision, ref_site.precision),
                      (new_site.precision * new_site.mean,
                       ref_site.precision * ref_site.mean),
                      (new_site.log_scale, ref_site.log_scale)):
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)
    assert rel(np.linalg.inv(Pc + new_site.precision * np.outer(u, u)),
               fused.covariance) <= 1e-10

    # damped path: cavity times the damped site, or improper when dense says so
    damped = site.damped(new_site, gamma)
    Vd = dense_site_posterior(Pc, u, damped)
    if Vd is None:
        with pytest.raises(ImproperProductError):
            binding.recombine(cav, damped)
        return
    mixed = binding.recombine(cav, damped)
    md = Vd @ (Pc @ mc + damped.precision * damped.mean * u)
    assert rel(mixed.covariance, Vd) <= 1e-10
    assert rel(mixed.mean, md) <= 1e-10
    assert np.array_equal(mixed.covariance, mixed.covariance.T)


def probit_data(n, d, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=d)
    w *= 3.0 / np.linalg.norm(w)
    x = rng.normal(size=(n, d))
    labels = np.where(x @ w + rng.normal(size=n) >= 0.0, 1.0, -1.0)
    return make_dataset(x, labels, slack=1.0)


def refactorized(binding, sites):
    """Posterior rebuilt from the prior and the sites: (I + sum tau u u^T)^-1."""
    d = binding.dataset.d
    P, b = np.eye(d), np.zeros(d)
    for s in sites:
        P += s.precision * np.outer(s.direction, s.direction)
        b += s.precision * s.mean * s.direction
    V = np.linalg.inv(P)
    return V @ b, V


@pytest.mark.parametrize("damping", [1.0, 0.5])
def test_running_posterior_does_not_drift(damping):
    ds = probit_data(500, 30, seed=3)
    binding = BpmBinding(ds)
    res = run_ep(binding, EPOptions(tolerance=1e-300, max_sweeps=20,
                                    damping=damping,
                                    schedule=Schedule("random", 4)))
    assert res.sweeps == 20
    V = res.posterior.covariance
    assert np.array_equal(V, V.T)
    m_ref, V_ref = refactorized(binding, res.sites)
    assert rel(V, V_ref) <= 1e-10
    assert rel(res.posterior.mean, m_ref) <= 1e-10


def test_damped_random_run_matches_reference_loop_bitwise():
    # the sweep the engine makes, written out with the validating site
    # constructor and the site change as a numpy max |delta| over (precision,
    # shift): posterior, sites and every sweep's largest change agree bit
    # for bit
    n, d, gamma, sweeps = 120, 50, 0.5, 3
    ds = probit_data(n, d, seed=8)
    res = run_ep(BpmBinding(ds), EPOptions(tolerance=1e-300, max_sweeps=sweeps,
                                           damping=gamma,
                                           schedule=Schedule("random", 13)),
                 record_history=True)

    binding = BpmBinding(ds)
    q = binding.prior()
    sites = [binding.vacuous_site(i) for i in range(n)]
    rng = np.random.default_rng(13)
    changes = []
    for _ in range(sweeps):
        largest = 0.0
        for i in rng.permutation(n):
            cav = binding.cavity(q, sites[i])
            assert cav is not None
            new, _ = binding.moment_match(cav, i)
            old = sites[i]
            prec = (1.0 - gamma) * old.precision + gamma * new.precision
            shift = (1.0 - gamma) * old.precision * old.mean \
                + gamma * new.precision * new.mean
            new = RankOneSite(direction=new.direction, precision=prec,
                              mean=shift / prec if prec != 0.0 else 0.0,
                              log_scale=(1.0 - gamma) * old.log_scale
                              + gamma * new.log_scale)
            delta = np.max(np.abs(np.array([new.precision, new.precision * new.mean])
                                  - np.array([old.precision, old.precision * old.mean])))
            largest = max(largest, float(delta))
            sites[i] = new
            q = binding.recombine(cav, new)
        changes.append(largest)

    assert res.sweeps == sweeps and not res.converged
    assert [snap.max_change for snap in res.history] == changes
    assert np.array_equal(res.posterior.mean, q.mean)
    assert np.array_equal(res.posterior.covariance, q.covariance)
    for got, want in zip(res.sites, sites):
        assert (got.precision, got.mean, got.log_scale) \
            == (want.precision, want.mean, want.log_scale)
        assert np.array_equal(got.direction, want.direction)


def test_history_snapshots_are_not_mutated_by_later_sweeps():
    class Copying(BpmBinding):
        """Copies the posterior the engine checks at the end of each sweep,
        the one that sweep's snapshot holds."""
        def is_degenerate(self, posterior):
            seen.append((posterior.mean.copy(), posterior.covariance.copy()))
            return super().is_degenerate(posterior)

    ds = probit_data(40, 5, seed=5)
    seen = []
    res = run_ep(Copying(ds), EPOptions(tolerance=1e-12, max_sweeps=6, damping=0.7),
                 record_history=True)
    assert len(seen) == len(res.history) == res.sweeps
    for (mean, cov), snap in zip(seen, res.history):
        assert np.array_equal(snap.posterior.mean, mean)
        assert np.array_equal(snap.posterior.covariance, cov)


def test_adf_and_ep_charge_the_same_visit(monkeypatch):
    # one matrix-vector product, one rank-one update, O(d) terms, whether
    # or not the site is damped
    updates = []

    def counted(V, a, c):
        updates.append(c)
        return rank_one_update(V, a, c)

    monkeypatch.setattr(bpm, "rank_one_update", counted)
    ds = probit_data(6, 4, seed=6)
    d = ds.d
    visit = 2 * d * d + 5 * d + 1
    for damping in (None, 1.0, 0.5):
        updates.clear()
        binding = BpmBinding(ds)
        if damping is None:
            run_adf(binding)
            visits, evidence = 6, 0
        else:
            run_ep(binding, EPOptions(tolerance=1e-300, max_sweeps=2,
                                      damping=damping))
            visits, evidence = 12, d ** 3  # two sweeps, one evidence solve
        assert binding.tally.count == visits * visit + evidence
        assert len(updates) == visits


class TestRankOneUpdate:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("c", [2.5, -0.3, 0.0])
    def test_symmetric_and_leaves_input(self, order, c):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(7, 7))
        V = np.array(A @ A.T + np.eye(7), order=order)
        V = 0.5 * (V + V.T)
        before = V.copy()
        a = rng.normal(size=7)
        W = rank_one_update(V, a, c)
        assert np.array_equal(V, before)
        assert not np.shares_memory(W, V)
        assert np.array_equal(W, W.T)
        assert np.allclose(W, V + c * np.outer(a, a), rtol=1e-14, atol=1e-14)


class TestBoundaries:
    def test_asymmetric_full_gaussian_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FullGaussian(mean=[0.0, 0.0], covariance=[[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="points must be finite; row 1"):
            BpmDataset(points=np.array([[1.0, 2.0], [bad, 0.0]]),
                       labels=np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="points must be finite"):
            bpm_train(make_dataset([[bad]], [1.0], slack=1.0))
