"""The fused BPM site visit: cavity, moment match (the site) and
recombination as rank-one algebra on the posterior, checked against dense
natural-parameter arithmetic, plus drift over long runs and the boundary
checks that keep the visit's inputs valid."""
import copy
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit import bpm, gaussians
from epkit.bpm import (
    BpmBinding,
    BpmDataset,
    bpm_moment_match,
    bpm_train,
    make_dataset,
    rank_one_site_from,
)
from epkit.bpm import _probit_match, _site_from_margins
from epkit.engine import (Diagnostics, EPOptions, Schedule, check_fixed_point,
                          ep_energy, run_adf, run_ep)
from epkit.gaussians import (
    LOG_2PI,
    PENDING_COLUMNS,
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


# Largest entry of |V - (I + sum tau u u^T)^-1| (and of the mean's
# difference) over the largest entry of the refactorized one, after a long
# fit.  A dense rank-one update at every visit measures at most 1.5e-14 for
# both on these runs; the bound holds held-back terms to that accuracy.
LONG_FIT_DRIFT = 2e-14


@pytest.mark.parametrize("d, sweeps", [(50, 400), (200, 200)])
def test_long_fit_stays_at_the_refactorized_posterior(d, sweeps):
    ds = probit_data(200, d, seed=3)
    binding = BpmBinding(ds)
    res = run_ep(binding, EPOptions(tolerance=1e-300, max_sweeps=sweeps))
    assert res.sweeps == sweeps
    m_ref, V_ref = refactorized(binding, res.sites)
    V = res.posterior.covariance
    assert np.array_equal(V, V.T)
    assert np.max(np.abs(V - V_ref)) <= LONG_FIT_DRIFT * np.max(np.abs(V_ref))
    assert np.max(np.abs(res.posterior.mean - m_ref)) \
        <= LONG_FIT_DRIFT * np.max(np.abs(m_ref))


def visit_chain(binding, sweeps):
    """Every posterior of an undamped sequential fit, with the sites it
    holds: [(posterior after t visits, sites then)] for t = 0, 1, ..."""
    q = binding.prior()
    sites = [binding.vacuous_site(i) for i in range(binding.site_count)]
    chain = [(q, list(sites))]
    for _ in range(sweeps):
        for i in range(binding.site_count):
            cav = binding.cavity(q, sites[i])
            sites[i], _ = binding.moment_match(cav, i)
            q = binding.recombine(cav, sites[i])
            chain.append((q, list(sites)))
    return chain


def test_carried_trace_matches_the_formed_covariance():
    # the trace scales the kappa cap's noise floor; it is carried term by
    # term, not read from a formed matrix
    chain = visit_chain(BpmBinding(probit_data(40, 6, seed=9)), sweeps=2)
    for q, _ in chain:
        assert q._trace == pytest.approx(np.trace(q.covariance), rel=1e-13, abs=0.0)


def test_full_gaussian_is_immutable():
    g = FullGaussian(mean=[0.0, 1.0], covariance=np.eye(2))
    for name in ("mean", "covariance", "_k", "_trace"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)


def test_validated_gaussian_appends_terms_and_forms_nothing(monkeypatch):
    # a validated FullGaussian is a chain of no terms: its first `updated`
    # appends one, and only reading the result's covariance forms a matrix;
    # a second `updated` on it starts a block of its own
    rng = np.random.default_rng(21)
    A = rng.normal(size=(5, 5))
    V = A @ A.T + np.eye(5)
    V = 0.5 * (V + V.T)
    g = FullGaussian(mean=rng.normal(size=5), covariance=V)
    (a, c), (b, e) = (rng.normal(size=5), -0.05), (rng.normal(size=5), 0.3)
    formed = []

    def counted(base, rows, coefs, _formed=gaussians._formed):
        formed.append(rows.shape[0])
        return _formed(base, rows, coefs)

    monkeypatch.setattr(gaussians, "_formed", counted)
    first = g.updated(g.mean, a, c, float(a @ a))
    assert formed == [] and first._k == 1
    first_cov = first.covariance
    second = g.updated(g.mean, b, e, float(b @ b))
    assert formed == [1] and second._k == 1
    second_cov = second.covariance
    monkeypatch.undo()
    assert first_cov.tobytes() == rank_one_update(V, a, c).tobytes()
    assert first.covariance is first_cov
    assert second_cov.tobytes() == rank_one_update(V, b, e).tobytes()
    assert g.covariance is V


@pytest.mark.parametrize("newest", [False, True])
def test_diagnostics_on_a_mid_block_posterior_leave_newer_ones(newest):
    # a posterior with pending terms that later visits extended (or, when
    # newest, the last one made): revisiting it gives the numbers a deep
    # copy gives, and no posterior made after it changes
    ds = probit_data(40, 6, seed=9)
    binding = BpmBinding(ds)
    chain = visit_chain(binding, sweeps=2)
    t = len(chain) - 1 if newest else PENDING_COLUMNS + PENDING_COLUMNS // 2
    assert t % PENDING_COLUMNS and t < len(chain)
    post, sites = chain[t]
    newer = [q for q, _ in chain[t + 1:]]
    want = copy.deepcopy(newer)
    twin = copy.deepcopy(post)

    got = [check_fixed_point(binding, post, sites), ep_energy(binding, post, sites)]
    ref = [check_fixed_point(binding, twin, sites), ep_energy(binding, twin, sites)]
    assert np.array_equal(got[0], ref[0])
    assert (got[1].objective, got[1].constraint_residual) \
        == (ref[1].objective, ref[1].constraint_residual)
    assert np.array_equal(got[1].moment_residuals, ref[1].moment_residuals)
    assert np.array_equal(post.covariance, twin.covariance)
    for q, w in zip(newer, want):
        assert np.array_equal(q.covariance, w.covariance)
        assert np.array_equal(q.mean, w.mean)


def test_threads_extending_one_posterior_each_get_their_own_term():
    # the first extension of a posterior writes the shared term buffer in
    # place; when several threads extend the same one at once, only one of
    # them may, or a thread's result holds another thread's term
    binding = BpmBinding(probit_data(8, 5, seed=2))
    post = visit_chain(binding, sweeps=1)[-1][0]
    rng = np.random.default_rng(4)
    terms = [(rng.normal(size=5), -0.01 * (j + 1)) for j in range(6)]
    barrier = threading.Barrier(len(terms))

    def extend(j):
        a, c = terms[j]
        for k in range(50):
            barrier.wait()
            results[j].append(rounds[k].updated(post.mean, a, c, float(a @ a)))

    # 50 fresh posteriors, each extended by every thread at once
    rounds = [post.updated(post.mean, terms[0][0], 0.0, 0.0) for _ in range(50)]
    results = [[] for _ in terms]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extend, args=(j,)) for j in range(len(terms))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for (a, c), got in zip(terms, results):
        assert len(got) == len(rounds)
        for q, r in zip(got, rounds):
            want = rank_one_update(r.covariance, a, c)
            assert np.max(np.abs(q.covariance - want)) <= 1e-14


def test_blocked_covariance_does_not_depend_on_blas_threads():
    # d = 64 and n = 200: blocks of pending terms are formed by matrix
    # products many times over, unlike on the CLI's built-in d = 3 set
    script = (
        "import hashlib, numpy as np\n"
        "from epkit import EPOptions, bpm_train, make_dataset\n"
        "rng = np.random.default_rng(17)\n"
        "x = rng.normal(size=(200, 64))\n"
        "y = np.where(x @ rng.normal(size=64) + rng.normal(size=200) >= 0, 1.0, -1.0)\n"
        "p = bpm_train(make_dataset(x, y, slack=1.0),\n"
        "              EPOptions(tolerance=1e-300, max_sweeps=3)).posterior\n"
        "print(hashlib.sha256(p.mean.tobytes() + p.covariance.tobytes()).hexdigest())\n")
    digests = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


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
    # one matrix-vector product, one rank-one term appended, O(d) terms,
    # whether or not the site is damped; no dense rank-one update
    updates, dense = [], []

    def counted(V, a, c):
        dense.append(c)
        return rank_one_update(V, a, c)

    monkeypatch.setattr(bpm, "rank_one_update", counted)
    def appended(self, mean, a, c, a_sq, _updated=FullGaussian.updated):
        updates.append(c)
        return _updated(self, mean, a, c, a_sq)
    monkeypatch.setattr(FullGaussian, "updated", appended)
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
        assert dense == []


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


# ---------------------------------------------------------------------------
# Plain reference: a BPM fit written out as one loop over plain values, with
# the prior, the rank-one visit, the chain of pending terms and the
# degeneracy test as dense-covariance code, and with the probit scalars the
# binding shares (`_probit_match`, `_site_from_margins`).  A fit through
# `BpmBinding` and `run_ep` must give its bits exactly.
# ---------------------------------------------------------------------------

def reference_formed(base, rows, coefs):
    """base + rows^T diag(coefs) rows, bitwise symmetric; one term gets a
    zero partner."""
    left = rows.T * (0.5 * coefs)
    if coefs.shape[0] == 1:
        left = np.hstack((left, np.zeros_like(left)))
        rows = np.vstack((rows, np.zeros_like(rows)))
    half = left @ rows
    W = half + half.T
    W += base
    return W


class ReferenceChain:
    """N(mean, base + sum_{j<k} coefs_j rows_j rows_j^T) with its trace
    carried; every PENDING_COLUMNS terms are formed into the base."""

    def __init__(self, mean, base, rows, coefs, k, trace):
        if k == PENDING_COLUMNS:
            base = reference_formed(base, rows, coefs)
            rows, coefs, k = np.empty_like(rows), np.empty_like(coefs), 0
            trace = float(base.trace())
        self.mean, self.base, self.rows, self.coefs = mean, base, rows, coefs
        self.k, self.trace = k, trace

    def times(self, u):
        vu = self.base.dot(u)
        if self.k:
            rows = self.rows[:self.k]
            vu += (self.coefs[:self.k] * rows.dot(u)).dot(rows)
        return vu

    def covariance(self):
        k = self.k
        return reference_formed(self.base, self.rows[:k], self.coefs[:k]) if k \
            else self.base

    def updated(self, mean, a, c, a_sq):
        self.rows[self.k] = a
        self.coefs[self.k] = c
        return ReferenceChain(mean, self.base, self.rows, self.coefs, self.k + 1,
                              self.trace + c * a_sq)


def reference_log_coeff(mean, V):
    L = np.linalg.cholesky(V)
    half_logdet = float(np.sum(np.log(np.diag(L))))
    z = np.linalg.solve(L, mean)
    return -0.5 * mean.shape[0] * LOG_2PI - half_logdet - 0.5 * float(z @ z)


def reference_max_abs(a, b):
    a, b = abs(float(a)), abs(float(b))
    if a != a or b != b:
        return math.nan
    return a if a >= b else b


def reference_bpm_fit(ds, opts):
    """(posterior mean, covariance, sites as (precision, mean, log scale),
    log evidence, sweeps, converged, diagnostics) of an EP fit."""
    n, d, U, noise = ds.n, ds.d, ds.directions, ds.noise_var
    prior = np.eye(d)
    q = ReferenceChain(np.zeros(d), prior, np.empty((PENDING_COLUMNS, d)),
                       np.empty(PENDING_COLUMNS), 0, float(prior.trace()))
    sites = [(0.0, 0.0, 0.0)] * n
    diag = Diagnostics()
    ops, sweeps, converged, gamma = 0, 0, False, opts.damping
    for order in opts.schedule.orders(n):
        if sweeps >= opts.max_sweeps:
            break
        sweeps += 1
        max_change, updated = 0.0, 0
        for i in order:
            u, (tau, site_mean, log_scale) = U[i], sites[i]
            # cavity: the posterior with the site's precision tau removed
            ops += d * d + 2 * d
            vu = q.times(u)
            qq = float(u.dot(vu))
            um = float(u.dot(q.mean))
            denom = 1.0 - tau * qq
            r = 1.0 / denom if denom > 0.0 else 0.0
            if not (denom > 0.0 and 0.0 < r * qq < math.inf):
                diag.improper_cavities += 1
                diag.skipped_sites += 1
                continue
            updated += 1
            q0 = r * qq
            shift = r * tau * (um - site_mean)
            vv = float(vu.dot(vu))
            mu0 = um + shift * qq
            # moment match, and the site it implies
            ops += 2 * d + 1
            log_z, _, alpha, kappa = _probit_match(q0, mu0, noise,
                                                   (q.trace + tau * r * vv) / d)
            new = _site_from_margins(log_z, q0, mu0, q0 * (1.0 - kappa * q0),
                                     mu0 + alpha * q0)
            if gamma < 1.0:
                prec = (1.0 - gamma) * tau + gamma * new[0]
                shifted = (1.0 - gamma) * tau * site_mean + gamma * new[0] * new[1]
                assert not (prec == 0.0 and shifted != 0.0)
                new = (prec, shifted / prec if prec != 0.0 else 0.0,
                       (1.0 - gamma) * log_scale + gamma * new[2])
            delta = reference_max_abs(new[0] - tau, new[0] * new[1] - tau * site_mean)
            if delta > max_change or delta != delta:
                max_change = delta
            sites[i] = new
            # recombination: one rank-one term on the posterior
            ops += d * d + d
            assert 1.0 + new[0] * q0 > 0.0
            gain = new[0] / (1.0 + new[0] * q0)
            mean = q.mean + (shift + r * gain * (new[1] - mu0)) * vu
            q = q.updated(mean, vu, (tau - gain * r) * r, vv)
        if n and not updated:
            break
        V = q.covariance()
        t = max(1e-40, 1e-12 * float(np.mean(np.diag(V))))
        try:
            np.linalg.cholesky(V - t * np.eye(d))
        except np.linalg.LinAlgError:
            diag.degenerate = True
            break
        if max_change < opts.tolerance:
            converged = True
            break
    diag.operations = ops
    V = q.covariance()
    log_evidence = sum(s[2] - 0.5 * s[0] * s[1] * s[1] for s in sites) \
        + reference_log_coeff(np.zeros(d), prior) - reference_log_coeff(q.mean, V)
    return q.mean, V, sites, log_evidence, sweeps, converged, diag


def assert_fit_keeps_reference_bits(ds, opts):
    binding = BpmBinding(ds)
    res = run_ep(binding, opts)
    mean, V, sites, log_evidence, sweeps, converged, diag = reference_bpm_fit(ds, opts)
    assert res.posterior.mean.tobytes() == mean.tobytes()
    assert res.posterior.covariance.tobytes() == V.tobytes()
    assert [(float(s.precision).hex(), float(s.mean).hex(), float(s.log_scale).hex())
            for s in res.sites] \
        == [tuple(float(x).hex() for x in s) for s in sites]
    assert float(res.log_evidence).hex() == float(log_evidence).hex()
    assert (res.sweeps, res.converged, res.diagnostics) == (sweeps, converged, diag)
    assert binding.tally.count == diag.operations + ds.d ** 3  # one evidence solve
    return res


# The bpm-ladder benchmark's fits: n = 200 at slack 1, a fixed number of
# sweeps, and a damped fit on a random schedule.
@pytest.mark.parametrize("d, sweeps", [(10, 12), (50, 14), (200, 10)])
def test_ladder_fits_keep_reference_bits(d, sweeps):
    res = assert_fit_keeps_reference_bits(
        probit_data(200, d, seed=d), EPOptions(tolerance=1e-300, max_sweeps=sweeps))
    assert res.sweeps == sweeps


def test_damped_random_fit_keeps_reference_bits():
    res = assert_fit_keeps_reference_bits(
        probit_data(200, 50, seed=5),
        EPOptions(tolerance=1e-300, max_sweeps=36, damping=0.5,
                  schedule=Schedule("random", 5)))
    assert res.sweeps == 36


def test_conflicting_zero_slack_fit_keeps_reference_bits():
    # opposite labels on one point: the fit collapses and stops degenerate
    # at the sweep the Cholesky test names
    ds = make_dataset([[1.0, 0.5], [1.0, 0.5]], [1.0, -1.0], slack=0.0)
    res = assert_fit_keeps_reference_bits(ds, EPOptions(tolerance=1e-10,
                                                        max_sweeps=500))
    assert res.diagnostics.degenerate and res.sweeps < 500
