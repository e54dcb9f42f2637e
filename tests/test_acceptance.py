"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from epkit.bpm import (
    BpmBinding,
    bpm_moment_match,
    bpm_train,
    bpm_training_error,
    make_dataset,
)
from epkit.clutter import (
    ClutterBinding,
    ClutterDataSpec,
    ClutterModel,
    clutter_moment_match,
    generate_clutter_data,
)
from epkit.engine import EPOptions, ep_energy, run_adf, run_ep
from epkit.experiments import builtin_bpm_dataset, random_tree_network
from epkit.factorgraph import loopy_ep
from epkit.gaussians import FullGaussian, SphericalGaussian
from epkit.oracles import (
    clutter_tilted_moments,
    conjugate_gaussian_posterior,
    directional_tilted_moments,
    enumerate_discrete,
    exact_bpm_step,
    exact_clutter,
    probit_margin_term,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# --- shared fixed points (criteria 1, 4, 7 feed criterion 9) ----------------

@pytest.fixture(scope="module")
def conjugate_run():
    model = ClutterModel(
        data=generate_clutter_data(
            ClutterDataSpec(x_true=[2.0], n=12, w=0.0, seed=101)).data,
        w=0.0)
    binding = ClutterBinding(model)
    t0 = time.perf_counter()
    res = run_ep(binding, EPOptions(tolerance=1e-6, max_sweeps=50))
    return model, binding, res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def clutter_runs():
    """20-seed w=0.5 study: (model, exact, adf, (binding, ep)) per seed."""
    out = []
    t0 = time.perf_counter()
    for seed in range(1, 21):
        model = generate_clutter_data(
            ClutterDataSpec(x_true=[2.0], n=12, w=0.5, seed=seed))
        exact = exact_clutter(model.data, model.w)
        adf = run_adf(ClutterBinding(model))
        binding = ClutterBinding(model)
        ep = run_ep(binding, EPOptions(tolerance=1e-6, max_sweeps=50))
        out.append((model, exact, adf, binding, ep))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bpm_runs():
    one_binding = BpmBinding(make_dataset([[1.0]], [1.0], slack=1.0))
    one = run_ep(one_binding, EPOptions(tolerance=1e-6, max_sweeps=50))
    three_ds = builtin_bpm_dataset()
    three_binding = BpmBinding(three_ds)
    three = run_ep(three_binding, EPOptions(tolerance=1e-6, max_sweeps=50))
    return (one_binding, one), (three_binding, three, three_ds)


def test_criterion_1_conjugate_exactness(conjugate_run):
    model, _, res, elapsed = conjugate_run
    post, log_ml = conjugate_gaussian_posterior(model.data)
    ok = (res.converged and res.sweeps <= 2
          and abs(res.posterior.mean[0] - post.mean[0]) <= 1e-10
          and abs(res.posterior.variance - post.variance) <= 1e-10
          and abs(res.log_evidence - log_ml) <= 1e-10
          and elapsed < 1.0)
    report("criterion 1: conjugate exactness", ok,
           f"sweeps={res.sweeps} mean_err={abs(res.posterior.mean[0] - post.mean[0]):.2e} "
           f"var_err={abs(res.posterior.variance - post.variance):.2e} "
           f"logev_err={abs(res.log_evidence - log_ml):.2e} time={elapsed:.3f}s")
    assert ok


def test_criterion_2_first_pass_identity():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(202)
    for seed in range(20):
        model = generate_clutter_data(ClutterDataSpec(
            x_true=[float(rng.uniform(-3, 3))], n=int(rng.integers(4, 13)),
            w=float(rng.uniform(0.0, 0.9)), seed=seed))
        adf = run_adf(ClutterBinding(model))
        ep1 = run_ep(ClutterBinding(model), EPOptions(max_sweeps=1))
        worst = max(worst,
                    abs(adf.posterior.mean[0] - ep1.posterior.mean[0]),
                    abs(adf.posterior.variance - ep1.posterior.variance),
                    abs(adf.log_evidence - ep1.log_evidence))
    for _ in range(10):
        n, d = int(rng.integers(3, 9)), int(rng.integers(1, 5))
        ds = make_dataset(rng.normal(size=(n, d)),
                          np.where(rng.random(n) < 0.5, 1.0, -1.0),
                          slack=1.0)
        adf = run_adf(BpmBinding(ds))
        ep1 = run_ep(BpmBinding(ds), EPOptions(max_sweeps=1))
        worst = max(worst,
                    float(np.max(np.abs(adf.posterior.mean - ep1.posterior.mean))),
                    float(np.max(np.abs(adf.posterior.covariance
                                        - ep1.posterior.covariance))),
                    abs(adf.log_evidence - ep1.log_evidence))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report("criterion 2: first-pass identity", ok,
           f"worst_gap={worst:.2e} over 20 clutter + 10 bpm instances, "
           f"time={elapsed:.2f}s")
    assert ok


def test_criterion_3_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_clutter = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        cav = SphericalGaussian(mean=rng.normal(size=d) * 2.0,
                                variance=float(rng.uniform(0.3, 20.0)))
        y = rng.normal(size=d) * 3.0
        w = float(rng.uniform(0.0, 1.0))
        got = clutter_moment_match(cav, y, w)
        z, mean, var = clutter_tilted_moments(cav, y, w)
        worst_clutter = max(
            worst_clutter,
            abs(got.z - z) / max(abs(z), 1e-12),
            float(np.max(np.abs(got.posterior.mean - mean)))
            / max(1.0, float(np.max(np.abs(mean)))),
            abs(got.posterior.variance - var) / max(abs(var), 1e-12))

    worst_bpm = 0.0
    for k in range(200):
        d = int(rng.integers(1, 6))
        A = rng.normal(size=(d, d))
        cav = FullGaussian(mean=rng.normal(size=d),
                           covariance=A @ A.T + 0.3 * np.eye(d))
        u = rng.normal(size=d)
        while float(u @ u) < 1e-6:
            u = rng.normal(size=d)
        noise = 1.0 if k % 2 == 0 else 0.0
        got = bpm_moment_match(cav, u, noise)
        z, mean, cov = directional_tilted_moments(
            cav.mean, cav.covariance, u, probit_margin_term(noise),
            breakpoints=(0.0,) if noise == 0.0 else ())
        worst_bpm = max(
            worst_bpm,
            abs(math.exp(got.log_z) - z) / max(abs(z), 1e-12),
            float(np.max(np.abs(got.posterior.mean - mean)))
            / max(1.0, float(np.max(np.abs(mean)))),
            float(np.max(np.abs(got.posterior.covariance - cov)))
            / max(1.0, float(np.max(np.abs(cov)))))
    elapsed = time.perf_counter() - t0
    ok = worst_clutter <= 1e-8 and worst_bpm <= 1e-8 and elapsed < 30.0
    report("criterion 3: oracle agreement", ok,
           f"clutter_worst={worst_clutter:.2e} bpm_worst={worst_bpm:.2e} "
           f"(200 cases each) time={elapsed:.1f}s")
    assert ok


def test_criterion_4_ep_beats_adf(clutter_runs):
    runs, elapsed = clutter_runs
    adf_mean, adf_ev, ep_mean, ep_ev = [], [], [], []
    for _, exact, adf, _, ep in runs:
        adf_mean.append(abs(adf.posterior.mean[0] - exact.mean[0]))
        adf_ev.append(abs(adf.log_evidence - exact.log_evidence))
        ep_mean.append(abs(ep.posterior.mean[0] - exact.mean[0]))
        ep_ev.append(abs(ep.log_evidence - exact.log_evidence))
    ok = (np.median(ep_mean) <= np.median(adf_mean)
          and np.median(ep_ev) <= np.median(adf_ev)
          and elapsed < 60.0)
    report("criterion 4: EP beats ADF (medians over 20 seeds)", ok,
           f"mean_err median EP={np.median(ep_mean):.3e} vs ADF={np.median(adf_mean):.3e}; "
           f"logev_err median EP={np.median(ep_ev):.3e} vs ADF={np.median(adf_ev):.3e}; "
           f"time={elapsed:.1f}s")
    assert ok


def test_criterion_5_order_robustness():
    wins = 0
    for seed in range(1, 21):
        model = generate_clutter_data(
            ClutterDataSpec(x_true=[2.0], n=12, w=0.5, seed=seed))
        rng = np.random.default_rng(5000 + seed)
        ep_means, adf_means = [], []
        for _ in range(10):
            order = rng.permutation(12)
            permuted = ClutterModel(data=model.data[order], w=model.w)
            adf_means.append(run_adf(ClutterBinding(permuted)).posterior.mean[0])
            ep_means.append(run_ep(ClutterBinding(permuted),
                                   EPOptions(tolerance=1e-6, max_sweeps=50)
                                   ).posterior.mean[0])
        if np.std(ep_means) <= np.std(adf_means):
            wins += 1
    ok = wins >= 15
    report("criterion 5: order robustness", ok,
           f"EP no-worse-than-ADF spread in {wins}/20 seeds (need >= 15)")
    assert ok


def test_criterion_6_tree_exactness():
    t0 = time.perf_counter()
    worst_m, worst_z = 0.0, 0.0
    for seed in range(25):
        net = random_tree_network(n_vars=8, max_cardinality=4, seed=600 + seed)
        marg, log_z = enumerate_discrete(net)
        res = loopy_ep(net, EPOptions(tolerance=1e-13, max_sweeps=60))
        assert res.converged
        worst_m = max(worst_m, max(
            float(np.max(np.abs(res.beliefs[v] - marg[v])))
            for v, _ in net.variables))
        worst_z = max(worst_z, abs(res.log_evidence - log_z))
    elapsed = time.perf_counter() - t0
    ok = worst_m <= 1e-10 and worst_z <= 1e-10 and elapsed < 10.0
    report("criterion 6: tree exactness", ok,
           f"worst_marginal={worst_m:.2e} worst_logZ={worst_z:.2e} "
           f"(25 trees) time={elapsed:.1f}s")
    assert ok


def test_criterion_7_bpm_correctness(bpm_runs):
    t0 = time.perf_counter()
    (_, one), (_, three, three_ds) = bpm_runs
    one_ok = (abs(one.posterior.mean[0] - 0.5641895835477563) <= 1e-6
              and abs(one.log_evidence - math.log(0.5)) <= 1e-6)

    model = bpm_train(three_ds, EPOptions(tolerance=1e-6, max_sweeps=50))
    train_err = bpm_training_error(model)

    _, exact_mean = exact_bpm_step(three_ds.directions)
    dist = float(np.linalg.norm(three.posterior.mean - exact_mean))
    elapsed = time.perf_counter() - t0
    ok = one_ok and train_err == 0.0 and dist <= 1e-4 and elapsed < 60.0
    report("criterion 7: BPM correctness", ok,
           f"one-point mean_err={abs(one.posterior.mean[0] - 0.5641895835477563):.2e} "
           f"logev_err={abs(one.log_evidence - math.log(0.5)):.2e}; "
           f"3-point train_err={train_err} dist to exact={dist:.2e} (need 1e-4) "
           f"time={elapsed:.1f}s")
    assert ok


def test_criterion_8_quadratic_site_cost():
    rng = np.random.default_rng(808)

    def per_site(d):
        n = 8
        ds = make_dataset(rng.normal(size=(n, d)),
                          np.where(rng.random(n) < 0.5, 1.0, -1.0), slack=1.0)
        binding = BpmBinding(ds)
        run_adf(binding)
        return binding.tally.count / n

    ratio = per_site(20) / per_site(10)
    ok = 3.5 <= ratio <= 4.5
    report("criterion 8: O(d^2) site cost", ok,
           f"tally ratio d=20/d=10 = {ratio:.3f} (need 3.5..4.5)")
    assert ok


def test_criterion_9_energy_diagnostics(conjugate_run, clutter_runs, bpm_runs):
    _, conj_binding, conj_res, _ = conjugate_run
    runs, _ = clutter_runs
    (one_binding, one), (three_binding, three, _) = bpm_runs

    fixed_points = [("criterion-1 conjugate", conj_binding, conj_res)]
    fixed_points += [(f"criterion-4 seed {i + 1}", b, ep)
                     for i, (_, _, _, b, ep) in enumerate(runs) if ep.converged]
    fixed_points += [("criterion-7 one-point", one_binding, one),
                     ("criterion-7 three-point", three_binding, three)]

    worst_constraint, worst_resid = 0.0, 0.0
    checked = 0
    for name, binding, res in fixed_points:
        if not res.converged:
            continue
        rep = ep_energy(binding, res.posterior, res.sites)
        checked += 1
        worst_constraint = max(worst_constraint, rep.constraint_residual)
        if rep.moment_residuals.size:
            worst_resid = max(worst_resid, float(np.nanmax(rep.moment_residuals)))
    ok = worst_constraint <= 1e-10 and worst_resid <= 1e-4 and checked >= 3
    report("criterion 9: energy diagnostics", ok,
           f"{checked} converged fixed points; worst constraint residual "
           f"{worst_constraint:.2e} (<=1e-10), worst moment residual "
           f"{worst_resid:.2e} (<=1e-4)")
    assert ok
