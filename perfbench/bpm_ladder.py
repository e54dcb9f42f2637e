"""bpm-ladder workload: EP training of the Bayes Point Machine on synthetic
probit data, n = 200 points at d = 10, 50 and 200, plus one damped,
randomly scheduled fit at d = 50.

The ladder separates per-call overhead (d10, where a visit is a few dozen
microseconds) from O(d^2) kernel work (d200).  No oracle runs.  Untraced
passes train through `bpm_train`; traced passes call `run_ep` with a
delegating binding around `BpmBinding`, which is what `bpm_train` does.
"""
from __future__ import annotations

import time

import numpy as np

from epkit import (BpmBinding, EPOptions, Schedule, bpm_train, check_fixed_point,
                   make_dataset, run_ep)
from spans import PassResult, Recorder, check_repeats

RUNGS = (10, 50, 200)
N_POINTS = 200
DAMPED_RUNG = 50
# Every fit runs exactly this many sweeps, so that a pass does the same work
# whatever the seed: stopping at tolerance 1e-6 takes a number of sweeps that
# depends on the data (7-8 at d10, 8-10 at d50, 6-7 at d200 and 28-30 for
# the damped fit over seeds 100..109), and that alone spread the work of a
# pass by 0.12 (IQR / median) across seeds.  Each count is a few sweeps
# above the largest seen, so every fit ends converged past tolerance 1e-6.
SWEEPS = {10: 12, 50: 14, 200: 10}
DAMPED_SWEEPS = 36
NEVER = 1e-300   # a tolerance no sweep's largest change falls below
# Largest per-site moment mismatch a fit may end with; fits converged to
# tolerance 1e-6 sit near 1e-7.
RESIDUAL_BOUND = 1e-5


def probit_dataset(d: int, n: int, seed: int):
    """X ~ N(0, I), labels sign(X.w* + N(0, 1)) with |w*| = 3, slack 1."""
    rng = np.random.default_rng([seed, d])
    w_star = rng.standard_normal(d)
    w_star *= 3.0 / np.linalg.norm(w_star)
    points = rng.standard_normal((n, d))
    labels = np.where(points @ w_star + rng.standard_normal(n) >= 0.0, 1.0, -1.0)
    return make_dataset(points, labels, slack=1.0)


class BpmLadder:
    def __init__(self, seed: int, smoke: bool, workdir):
        rungs = RUNGS[:1] if smoke else RUNGS
        datasets = {d: probit_dataset(d, N_POINTS, seed) for d in rungs}
        damped = EPOptions(tolerance=NEVER, max_sweeps=DAMPED_SWEEPS,
                           damping=0.5, schedule=Schedule("random", seed))
        self.jobs = [(datasets[d], EPOptions(tolerance=NEVER, max_sweeps=SWEEPS[d]))
                     for d in rungs]
        self.jobs.append((datasets[rungs[0] if smoke else DAMPED_RUNG], damped))
        self.reference = None
        self.windows = 1   # every pass fits the same inputs

    def until_first_call(self) -> None:
        """Nothing: the inputs are built by the constructor."""

    def run_pass(self, rec: Recorder, window: int = 0) -> PassResult:
        outcomes = []
        t0 = time.perf_counter()
        for dataset, opts in self.jobs:
            try:
                if rec.traced:
                    rec.fit("bpm", "ep", run_ep,
                            rec.binding(BpmBinding(dataset), "bpm"), opts)
                else:
                    rec.fit("bpm", "ep", bpm_train, dataset, opts)
                outcomes.append(rec.fits[-1])
            except Exception as exc:  # noqa: BLE001 - a failed fit is counted
                outcomes.append(repr(exc))
        wall = time.perf_counter() - t0
        names = [f"d{ds.d}{' damped' if opts.damping < 1.0 else ''}"
                 for ds, opts in self.jobs]
        failures = {}
        for name, (dataset, _), outcome in zip(names, self.jobs, outcomes):
            reason = _check(dataset, outcome)
            if reason:
                failures[name] = reason
        prints = check_repeats(self.reference, outcomes, names, failures)
        self.reference = self.reference or prints
        return PassResult(wall, rec, len(self.jobs), failures)


def _check(dataset, outcome) -> str:
    """Why a fit fails its checks, or an empty string."""
    if isinstance(outcome, str):
        return f"raised {outcome}"
    res = outcome.result
    post = res.posterior
    if not (np.all(np.isfinite(post.mean)) and np.all(np.isfinite(post.covariance))):
        return "non-finite posterior"
    residual = float(np.max(check_fixed_point(BpmBinding(dataset), post, res.sites)))
    if not residual <= RESIDUAL_BOUND:
        return f"fixed-point residual {residual:.3e} > {RESIDUAL_BOUND:.0e}"
    return ""
