"""paper-cli workload: `epkit clutter`, `epkit bpm` and `epkit loopy` with
their default configurations over seeds seed..seed+19, run through
`epkit.cli.main` with `--out` in a scratch directory.  The timed passes of
an untraced run cycle through the windows seed..seed+19, seed+20..seed+39
and seed+40..seed+59.

This is the end-to-end run the project's aims define.  Its time goes mostly
to the oracles (2^12 mixture enumeration, 10^5-sample importance sampling)
on tiny models (d=1 clutter, d=3 BPM, 8-variable trees), and it includes
the clutter seeds whose EP never converges.  `--timings` is never passed, so
wall time cannot reach the CSV.

Traced passes substitute spanned wrappers for the names `epkit.experiments`
and `epkit.cli` look up when they run; every pass wraps the four fit entry
points with a timer so that `visits_per_s` has its denominator.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from epkit import cli, experiments
from epkit.bpm import BpmBinding
from epkit.clutter import ClutterBinding, ClutterDataSpec, generate_clutter_data
from epkit.experiments import ExperimentConfig
from spans import PassResult, Recorder

EXPERIMENTS = ("clutter", "bpm", "loopy")
SEEDS_PER_PASS = 20
WINDOWS = 3   # seed windows the timed passes of an untraced run cycle through
FIT_METHODS = ("adf", "ep")   # for loopy rows: adf is bk_adf, ep is loopy_ep
ERROR_COLUMNS = ("log_evidence_error", "mean_error")

# Largest (log-evidence error, mean error) a row may show against the
# experiment's oracle, where the bound is a constant (clutter bounds depend
# on the data: see clutter_bounds).  Maxima over 200 (bpm) and 2000 (loopy)
# random seeds at this commit, in brackets.
ERROR_BOUNDS = {
    ("bpm", "adf"): (0.1, 0.1),              # (0.028, 0.025)
    ("bpm", "ep"): (0.1, 0.1),               # (0.028, 0.025)
    ("loopy", "adf"): (0.5, 1.0),            # (0.18, 0.54): BK-ADF is inexact
    # Loopy EP is exact on trees up to its stopping rule: the run ends once no
    # message moves by the default tolerance 1e-4 in a sweep.
    ("loopy", "ep"): (1e-8, 1e-3),           # (3.6e-15, 5.8e-5)
}
# Median (log-evidence error, mean error) of the final checkpoints of the
# pass's converged clutter EP runs.  Over 20000 draws of 20 seeds from 600
# random seeds at this commit, the largest medians were (0.043, 0.14).
CLUTTER_EP_MEDIAN_BOUND = (0.25, 0.5)
# Training-error rate of ADF and EP on the built-in separable BPM set.
TRAIN_ERROR_BOUND = 0.0
# The first EP checkpoint is the ADF state; its errors match to rounding.
FIRST_SWEEP_BOUND = 1e-9


class _FirstCall(Exception):
    """Raised by the set-up probe at the first oracle or fit call."""


class PaperCli:
    def __init__(self, seed: int, smoke: bool, workdir: Path):
        # How many of a pass's clutter EP runs never converge (100 sweeps
        # against about 7) depends on the seeds: over ten windows of 20 it
        # ranged from 1 to 6, and pass times with it by 0.13 (IQR / median).
        # Timed passes therefore cycle through WINDOWS windows of 20 seeds.
        self.windows = 1 if smoke else WINDOWS
        per_window = 1 if smoke else SEEDS_PER_PASS
        self.seeds = [range(seed + w * per_window, seed + (w + 1) * per_window)
                      for w in range(self.windows)]
        self.workdir = workdir
        self.argv = [{kind: [kind, "--seed-range", f"{seeds[0]}..{seeds[-1]}",
                             "--out", str(workdir / f"{kind}.csv")]
                      for kind in EXPERIMENTS} for seeds in self.seeds]
        self.reference: dict[tuple[str, int], tuple[bytes, bytes]] = {}

    def until_first_call(self) -> None:
        """Run `epkit clutter` up to its first oracle call: argument parsing,
        configuration and the first seed's data."""
        def stop(*args, **kwargs):
            raise _FirstCall
        with _patched(experiments, {"exact_clutter": stop}), \
                contextlib.suppress(_FirstCall):
            cli.main(self.argv[0]["clutter"])

    def run_pass(self, rec: Recorder, window: int = 0) -> PassResult:
        argv, seeds = self.argv[window], self.seeds[window]
        parts, raised = {}, {}
        t0 = time.perf_counter()
        with _patched(experiments, _experiment_names(rec)), \
                _patched(cli, _cli_names(rec)), \
                contextlib.redirect_stdout(io.StringIO()):
            for kind in EXPERIMENTS:
                t1 = time.perf_counter()
                try:
                    code = rec.call("cli.main", cli.main, argv[kind], tag=kind)
                    if code != 0:
                        raised[kind] = f"exit code {code}"
                except Exception as exc:  # noqa: BLE001 - a failed run is counted
                    raised[kind] = repr(exc)
                parts[kind] = time.perf_counter() - t1
        wall = time.perf_counter() - t0

        failures = {}
        for kind in EXPERIMENTS:
            names = [f"{kind} seed{s} {m}" for s in seeds for m in FIT_METHODS]
            reason = raised.get(kind) or self._repeat_reason(kind, window)
            if reason:
                failures.update((name, reason) for name in names)
                continue
            rows = list(csv.DictReader(io.StringIO(
                (self.workdir / f"{kind}.csv").read_text())))
            failures.update(check_rows(kind, seeds, rows))
        attempted = len(EXPERIMENTS) * len(seeds) * len(FIT_METHODS)
        return PassResult(wall, rec, attempted, failures, parts, window)

    def _repeat_reason(self, kind: str, window: int) -> str:
        """The CSV and sidecar must be byte-identical to the run's first
        pass over the same seeds; empty when they are."""
        out = self.workdir / f"{kind}.csv"
        files = (out.read_bytes(), Path(f"{out}.meta.json").read_bytes())
        if self.reference.setdefault((kind, window), files) != files:
            return "output differs from the run's first pass over these seeds"
        return ""


def check_rows(kind: str, seeds, rows: list[dict]) -> dict[str, str]:
    """Failed fits of one experiment's CSV, with the reason for each."""
    groups = defaultdict(list)
    for row in rows:
        groups[(int(row["seed"]), row["method"])].append(row)
    failures = {}
    for seed in seeds:
        adf = groups.get((seed, "adf"), [])
        for method in FIT_METHODS:
            reason = _fit_reason(kind, seed, method, groups.get((seed, method), []), adf)
            if reason:
                failures[f"{kind} seed{seed} {method}"] = reason
    if kind == "clutter":
        finals = {}   # fit name -> final row of each converged EP run
        for seed in seeds:
            ep = groups.get((seed, "ep"))
            if ep and ep[-1]["converged"] == "true":
                finals[f"clutter seed{seed} ep"] = ep[-1]
        medians = tuple(statistics.median(float(r[c]) for r in finals.values())
                        for c in ERROR_COLUMNS) if finals else (0.0, 0.0)
        if not all(m <= b for m, b in zip(medians, CLUTTER_EP_MEDIAN_BOUND)):
            for name in finals:
                failures.setdefault(name, f"median converged EP error {medians} "
                                          f"above {CLUTTER_EP_MEDIAN_BOUND}")
    return failures


def clutter_bounds(seed: int) -> tuple[float, float]:
    """(log-evidence error, mean error) bounds that clutter ADF meets on
    every data set, evaluated on the default experiment's data for `seed`.

    Each ADF step moves the mean to a convex combination of the current mean
    and one observation, and each component of the exact posterior mixture
    has its mean in the same convex hull of the prior mean 0 and the data:
    the mean error is at most the diagonal of that hull's bounding box.
    Each term t_i(x) = (1-w) N(y_i; x, I) + w N(y_i; 0, v I) lies between
    c_i = w N(y_i; 0, v I) and c_i + (1-w) (2 pi)^(-d/2), so the exact
    evidence and ADF's product of per-step normalizers both lie between the
    products of those limits, whose log ratio bounds the evidence error.
    """
    config = ExperimentConfig(kind="clutter")
    model = generate_clutter_data(ClutterDataSpec(
        x_true=np.asarray(config.x_true), n=config.n, w=config.w, seed=seed))
    y, d, v = model.data, model.d, model.clutter_variance
    hull = np.vstack([np.zeros((1, d)), y])
    mean_bound = float(np.linalg.norm(hull.max(axis=0) - hull.min(axis=0)))
    log_c = (math.log(model.w) - 0.5 * d * math.log(2.0 * math.pi * v)
             - 0.5 * np.sum(y * y, axis=1) / v)
    log_inlier = math.log1p(-model.w) - 0.5 * d * math.log(2.0 * math.pi)
    ev_bound = float(np.sum(np.logaddexp(0.0, log_inlier - log_c)))
    return ev_bound, mean_bound


def _fit_reason(kind: str, seed: int, method: str, rows: list[dict],
                adf: list[dict]) -> str:
    if not rows:
        return "no rows"
    if kind == "bpm":
        train = [r for r in rows if r["checkpoint"] == "train_error"]
        if len(train) != 1 or not float(train[0]["mean_error"]) <= TRAIN_ERROR_BOUND:
            return "training error above bound"
        rows = [r for r in rows if r["checkpoint"] != "train_error"]
    if kind != "loopy" and method == "ep":
        if len(rows) != int(rows[0]["sweeps"]):
            return f"{len(rows)} checkpoints for {rows[0]['sweeps']} sweeps"
        first = adf[0] if adf else None
        if first is None or any(
                not abs(float(rows[0][c]) - float(first[c])) <= FIRST_SWEEP_BOUND
                for c in ERROR_COLUMNS):
            return "first EP checkpoint differs from the ADF row"
    if kind != "clutter":
        bounded = rows
        bounds = ERROR_BOUNDS[(kind, method)]
    else:
        # Clutter EP carries no accuracy guarantee for one data set: its
        # runs can orbit (one reached a mean error of 8653), and a run that
        # skips improper cavities can settle outside the data's hull (seed
        # 1518867573: mean -15.8 with data in [-9.5, 5.4]).  Its errors need
        # only be finite here; check_rows bounds their median over seeds.
        if not all(math.isfinite(float(r[c])) for r in rows for c in ERROR_COLUMNS):
            return "non-finite error"
        bounded = rows if method == "adf" else []
        bounds = clutter_bounds(seed)
    for r in bounded:
        if not all(float(r[c]) <= b for c, b in zip(ERROR_COLUMNS, bounds)):
            return (f"checkpoint {r['checkpoint']} error "
                    f"({r['log_evidence_error']}, {r['mean_error']}) above {bounds}")
    return ""


def _fit_wrapper(rec: Recorder, method: str, fn):
    def fit(first, *args, **kwargs):
        if method in ("loopy_ep", "bk_adf"):
            model = "factorgraph"
        elif isinstance(getattr(first, "inner", first), ClutterBinding):
            model = "clutter"
        else:
            model = "bpm"
        return rec.fit(model, method, fn, first, *args, **kwargs)
    return fit


def _experiment_names(rec: Recorder) -> dict:
    names = {
        "run_adf": _fit_wrapper(rec, "adf", experiments.run_adf),
        "run_ep": _fit_wrapper(rec, "ep", experiments.run_ep),
        "loopy_ep": _fit_wrapper(rec, "loopy_ep", experiments.loopy_ep),
        "bk_adf": _fit_wrapper(rec, "bk_adf", experiments.bk_adf),
    }
    if rec.traced:
        names.update(
            ClutterBinding=lambda model: rec.binding(ClutterBinding(model), "clutter"),
            BpmBinding=lambda dataset: rec.binding(BpmBinding(dataset), "bpm"),
            exact_clutter=rec.wrap("oracles.exact_clutter", experiments.exact_clutter),
            importance_sampler=rec.wrap(
                "oracles.importance_sampler", experiments.importance_sampler,
                tag=_samples_tag),
            enumerate_discrete=rec.wrap("oracles.enumerate_discrete",
                                        experiments.enumerate_discrete))
    return names


def _samples_tag(args, kwargs) -> str:
    """importance_sampler(log_likelihood, prior_mean, prior_cov, samples, seed)"""
    return f"s{kwargs['samples'] if 'samples' in kwargs else args[3]}"


def _cli_names(rec: Recorder) -> dict:
    if not rec.traced:
        return {}
    return {"run_experiment": rec.wrap("experiments.run_experiment",
                                       experiments.run_experiment),
            "write_results": rec.wrap("experiments.write_results",
                                      experiments.write_results)}


@contextlib.contextmanager
def _patched(module, names: dict):
    """Temporarily rebind module-level names."""
    saved = {name: getattr(module, name) for name in names}
    for name, value in names.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
