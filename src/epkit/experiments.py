"""Desk-scale experiment runners: cost/accuracy studies of ADF, EP, and
importance sampling against exact oracles, emitted as deterministic CSV.

Every run writes one CSV of result rows plus a JSON sidecar echoing the
full configuration and library version.  Rows are keyed by (experiment,
seed, method, checkpoint); the cost axis is the deterministic elementary-
operation tally and no wall-clock time enters the output, so identical
configurations yield byte-identical files.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bpm import (BpmBinding, BpmModel, bpm_moment_match, bpm_training_error,
                  dataset_from_csv, make_dataset)
from .clutter import (ClutterBinding, ClutterDataSpec, clutter_moment_match,
                      generate_clutter_data)
from .engine import EPOptions, Schedule, is_finite_number, run_adf, run_ep
from .factorgraph import (ContradictoryEvidenceError, ContradictoryMessagesError,
                          DiscreteFactorGraph, Factor, bk_adf, load_network, loopy_ep)
from .gaussians import (PENDING_COLUMNS, FullGaussian, ImproperProductError, RankOneSite,
                        SphericalGaussian, log_probit, probit, probit_ratio)
from .oracles import (DegenerateWeightsError, EnumerationBoundError, VanishingMassError,
                      clutter_tilted_moments, directional_tilted_moments,
                      enumerate_discrete, exact_bpm_step, exact_clutter,
                      importance_sampler, nested_importance_sampler, probit_margin_term,
                      tilted_moments_quadrature)

CSV_HEADER = ("experiment", "seed", "method", "checkpoint", "operations",
              "log_evidence_error", "mean_error", "converged", "sweeps")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def require_scipy(purpose: str) -> None:
    """Raise ConfigError unless scipy, which `purpose` needs, imports."""
    try:
        import scipy.special  # noqa: F401
    except ImportError:
        raise ConfigError(f"{purpose} needs scipy, which is not installed") from None


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str  # clutter | bpm | loopy
    seeds: tuple[int, ...] = tuple(range(1, 21))
    ep_options: EPOptions = field(default_factory=EPOptions)
    # clutter parameters
    x_true: tuple[float, ...] = (2.0,)
    n: int = 12
    w: float = 0.5
    # bpm parameters
    dataset_path: str | None = None
    slack: float = 0.0
    add_bias: bool = True
    importance_samples: tuple[int, ...] = (1000, 10000, 100000)
    # loopy parameters
    network: str = "tree"  # tree | cycle3 | <path to json document>
    n_vars: int = 8
    max_cardinality: int = 4

    def __post_init__(self):
        if self.kind not in ("clutter", "bpm", "loopy"):
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not (self.seeds and all(type(s) is int and s >= 0 for s in self.seeds)):
            raise ConfigError("seeds must be a non-empty tuple of non-negative "
                              f"ints, got {self.seeds!r}")
        if not (self.x_true and all(is_finite_number(x) for x in self.x_true)):
            raise ConfigError("x_true must be a non-empty tuple of finite "
                              f"numbers, got {self.x_true!r}")
        if math.hypot(*self.x_true) > 1e150:
            # keeps the squared residuals of the fits and the 2^n oracle,
            # up to about (20 |y|)^2, below 1e303: no overflow
            raise ConfigError("x_true must have a Euclidean norm of at most "
                              "1e150, or the clutter residuals overflow, got "
                              f"{self.x_true!r}")
        if not (is_finite_number(self.slack) and self.slack >= 0):
            raise ConfigError(f"slack must be a finite number >= 0, got {self.slack!r}")
        if type(self.add_bias) is not bool:
            raise ConfigError(f"add_bias must be true or false, got {self.add_bias!r}")
        if not (is_finite_number(self.w) and 0.0 <= self.w <= 1.0):
            raise ConfigError(f"w must be a number in [0, 1], got {self.w!r}")
        if not (self.dataset_path is None or isinstance(self.dataset_path, str)):
            raise ConfigError("dataset_path must be a path string or null, "
                              f"got {self.dataset_path!r}")
        if not isinstance(self.network, str):
            raise ConfigError(f"network must be a string, got {self.network!r}")
        for name, low in (("n", 0), ("n_vars", 1), ("max_cardinality", 2)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ConfigError(f"{name} must be an int of at least {low}, "
                                  f"got {value!r}")
        if self.kind == "clutter" and self.n > 20:
            raise ConfigError("n must be <= 20 for the exact 2^n clutter oracle")
        counts = self.importance_samples
        if not (isinstance(counts, tuple) and counts
                and all(type(c) is int and c > 0 for c in counts)):
            raise ConfigError("importance_samples must be a non-empty tuple of "
                              f"positive ints, got {counts!r}")
        for name, values in (("seeds", self.seeds), ("importance_samples", counts)):
            ordered = sorted(values)  # a repeat would write its rows, same keys, twice
            repeats = [a for a, b in zip(ordered, ordered[1:]) if a == b]
            if repeats:
                raise ConfigError(f"{name} must not repeat a value, got {repeats[0]!r}")


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    seed: int
    method: str
    checkpoint: str
    operations: int
    log_evidence_error: float
    mean_error: float
    converged: bool
    sweeps: int

    def csv_values(self) -> list[str]:
        return [self.experiment, str(self.seed), self.method, self.checkpoint,
                str(self.operations), _fmt(self.log_evidence_error),
                _fmt(self.mean_error), str(self.converged).lower(),
                str(self.sweeps)]


def _fmt(x: float) -> str:
    if x != x:
        return "nan"
    return repr(float(x))


def rows_to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    for row in rows:
        buf.write(",".join(row.csv_values()) + "\n")
    return buf.getvalue()


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The configuration a JSON document describes; any invalid value or
    unknown key raises ConfigError."""
    doc = dict(doc)
    try:
        ep_doc = dict(doc.pop("ep_options", {}))
        sched_doc = ep_doc.pop("schedule", None)
        if sched_doc is not None:
            ep_doc["schedule"] = Schedule(**sched_doc)
        opts = EPOptions(**ep_doc)
        for key in ("seeds", "x_true"):
            if key in doc:
                doc[key] = tuple(doc[key])
        if isinstance(doc.get("importance_samples"), list):
            doc["importance_samples"] = tuple(doc["importance_samples"])
        return ExperimentConfig(ep_options=opts, **doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def config_to_dict(config: ExperimentConfig) -> dict:
    """The configuration as JSON values (tuples become lists)."""
    return json.loads(json.dumps(asdict(config)))


def _fit(method: str, binding, opts: EPOptions):
    """The binding fitted by ADF, or by EP with its sweeps recorded."""
    return run_adf(binding) if method == "adf" else run_ep(binding, opts, record_history=True)


def _errors(log_evidence: float, mean: np.ndarray):
    """errors(log_ev, m): a row's two error columns, |log_ev - log_evidence|
    and |m - mean|, against the reference log evidence and mean."""
    def errors(log_ev: float, m: np.ndarray) -> tuple[float, float]:
        return abs(log_ev - log_evidence), float(np.linalg.norm(m - mean))
    return errors


def _fit_rows(experiment: str, seed: int, method: str, res, errors) -> list[ResultRow]:
    """A fit's rows: one per recorded EP sweep, else one `final` row, with
    the error columns of `_errors`."""
    points = [(f"sweep{s.sweep}", s.operations, s.posterior, s.log_evidence)
              for s in res.history] \
        or [("final", res.diagnostics.operations, res.posterior, res.log_evidence)]
    return [ResultRow(experiment, seed, method, checkpoint, ops,
                      *errors(log_ev, post.mean), res.converged, res.sweeps)
            for checkpoint, ops, post, log_ev in points]


def _importance_rows(experiment: str, seed: int, log_likelihood,
                     prior_cov: np.ndarray, counts, sampler_seed: int,
                     errors, buffers: dict) -> list[ResultRow]:
    """The `samples<count>` rows of importance sampling from the zero-mean
    prior, one per count in `counts`, with the error columns of `_errors`.
    The counts are nested prefixes of one draw.  A count whose prefix has
    no draw of nonzero likelihood has infinite errors in both columns."""
    d = prior_cov.shape[0]
    ests = nested_importance_sampler(log_likelihood, np.zeros(d), prior_cov,
                                     counts, sampler_seed, buffers=buffers)
    rows = []
    for s_count, est in zip(counts, ests):
        e_ev, e_m = (math.inf, math.inf) if est is None \
            else errors(est.log_evidence, est.posterior_mean.value)
        rows.append(ResultRow(experiment, seed, "importance", f"samples{s_count}",
                              s_count * (d + 2), e_ev, e_m, True, 0))
    return rows


# ---------------------------------------------------------------------------
# clutter experiment
# ---------------------------------------------------------------------------

def run_clutter_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Per seed: generate data, compute the exact 2^n posterior, then run
    ADF, per-sweep-checkpointed EP, and prior importance sampling; rows carry
    absolute log-evidence and posterior-mean errors versus cumulative cost.
    The importance rows of a seed are nested prefixes of one draw of
    max(importance_samples) rows (`nested_importance_sampler`), each equal
    to a separate draw of its own count with the seed."""
    rows: list[ResultRow] = []
    buffers: dict = {}  # the sampler's, shared by every seed of the run
    for seed in config.seeds:
        spec = ClutterDataSpec(x_true=np.asarray(config.x_true), n=config.n,
                               w=config.w, seed=seed)
        model = generate_clutter_data(spec)
        exact = exact_clutter(model.data, model.w)
        errors = _errors(exact.log_evidence, exact.mean)
        rows.append(ResultRow("clutter", seed, "oracle", "exact", 0, 0.0, 0.0, True, 0))
        for method in ("adf", "ep"):
            res = _fit(method, ClutterBinding(model), config.ep_options)
            rows += _fit_rows("clutter", seed, method, res, errors)
        rows += _importance_rows(
            "clutter", seed, model.log_likelihood,
            model.prior_variance * np.eye(model.d), config.importance_samples,
            seed, errors, buffers)
    return rows


# ---------------------------------------------------------------------------
# bpm experiment
# ---------------------------------------------------------------------------

def builtin_bpm_dataset(slack: float = 0.0, add_bias: bool = True):
    """The built-in 3-point linearly separable set (plus bias column)."""
    return make_dataset([[0.0, 2.0], [2.0, 0.0], [-1.0, -1.0]],
                        [1.0, -1.0, -1.0], slack=slack, add_bias=add_bias)


def run_bpm_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """ADF/EP rows carry the absolute log-evidence error and the Euclidean
    distance of the posterior mean to the truth versus cost.

    With zero slack and d <= 3 the truth is exact (`exact_bpm_step`: the
    prior cut to a polyhedral cone) and its oracle row is `exact` at no
    cost.  Otherwise it is the per-seed importance-sampling estimate at the
    largest configured sample count, whose row carries that sampler's cost.
    Either way the importance rows are the other configured sample counts.
    Each trained method also emits a `train_error` checkpoint row whose
    mean_error column is the training-set error rate (log_evidence_error is
    marked nan there).  ADF and EP are fitted, and scored, once per run, at
    the first seed after its truth.  A dataset file that cannot be read or
    parsed, a point whose margin direction the binding rejects, a dataset
    that the exact truth cannot score, or slack > 0 without scipy raises
    ConfigError before any seed; one whose sampled truth gets no draw of
    nonzero likelihood raises it at that seed."""
    path = config.dataset_path
    if config.slack > 0.0:
        require_scipy("bpm with slack > 0")
    try:
        if path is None:
            dataset = builtin_bpm_dataset(config.slack, config.add_bias)
        else:
            dataset = dataset_from_csv(Path(path).read_text(), slack=config.slack,
                                       add_bias=config.add_bias)
        binding = BpmBinding(dataset)
        d = dataset.d
        exact = exact_bpm_step(dataset.directions) \
            if config.slack == 0.0 and d <= 3 else None
    except OSError as exc:
        raise ConfigError(f"unreadable dataset {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad dataset {path or '(built-in)'}: {exc}") from None

    rows: list[ResultRow] = []
    buffers: dict = {}  # the sampler's, shared by every seed of the run
    s_truth = max(config.importance_samples)
    if exact is not None:
        oracle_checkpoint, oracle_ops = "exact", 0
    else:
        oracle_checkpoint, oracle_ops = f"samples{s_truth}", s_truth * (d + 2)
    for k, seed in enumerate(config.seeds):
        if exact is None:
            try:
                truth = importance_sampler(dataset.log_likelihood, np.zeros(d),
                                           np.eye(d), s_truth, seed, buffers=buffers)
            except DegenerateWeightsError:
                raise ConfigError(
                    f"bad dataset {path or '(built-in)'}: none of the {s_truth} "
                    f"truth draws on seed {seed} has a nonzero likelihood (no "
                    "weight vector, or too few, fit the labels within the "
                    "slack)") from None
            errors = _errors(truth.log_evidence, truth.posterior_mean.value)
        else:
            errors = _errors(*exact)
        if k == 0:  # the fits depend on the data and options, not the seed
            fits = [_fit(m, binding, config.ep_options) for m in ("adf", "ep")]
            train_errors = [bpm_training_error(BpmModel(dataset=dataset, **vars(res)))
                            for res in fits]
        rows.append(ResultRow("bpm", seed, "oracle", oracle_checkpoint,
                              oracle_ops, 0.0, 0.0, True, 0))
        for method, res, err in zip(("adf", "ep"), fits, train_errors):
            fit_rows = _fit_rows("bpm", seed, method, res, errors)
            rows += fit_rows + [replace(
                fit_rows[-1], checkpoint="train_error",
                operations=res.diagnostics.operations,
                log_evidence_error=math.nan, mean_error=err)]
        counts = [c for c in config.importance_samples if c != s_truth]
        if counts:
            rows += _importance_rows("bpm", seed, dataset.log_likelihood, np.eye(d),
                                     counts, seed + 10_000, errors, buffers)
    return rows


# ---------------------------------------------------------------------------
# loopy experiment
# ---------------------------------------------------------------------------

def random_tree_network(n_vars: int, max_cardinality: int,
                        seed: int) -> DiscreteFactorGraph:
    """Random tree: each non-root variable attaches to an earlier one through
    a random positive pairwise table; the root carries a unary factor."""
    rng = np.random.default_rng(seed)
    cards = rng.integers(2, max_cardinality + 1, size=n_vars)
    variables = tuple((f"v{i}", int(cards[i])) for i in range(n_vars))
    factors = [Factor("root", ("v0",),
                      rng.uniform(0.5, 1.5, size=int(cards[0])))]
    for i in range(1, n_vars):
        parent = int(rng.integers(0, i))
        table = rng.uniform(0.1, 2.0, size=int(cards[parent] * cards[i]))
        factors.append(Factor(f"e{parent}_{i}", (f"v{parent}", f"v{i}"), table))
    return DiscreteFactorGraph(variables=variables, factors=tuple(factors))


def frustrated_cycle_network() -> DiscreteFactorGraph:
    """Three binary variables in an odd antiferromagnetic loop (coupling 100)
    with weak symmetry-breaking fields; undamped propagation orbits instead
    of settling."""
    table = [1.0, 100.0, 100.0, 1.0]
    return DiscreteFactorGraph(
        variables=(("a", 2), ("b", 2), ("c", 2)),
        factors=(Factor("fa", ("a",), [1.1, 1.0]),
                 Factor("fb", ("b",), [1.0, 1.2]),
                 Factor("fc", ("c",), [0.9, 1.0]),
                 Factor("ab", ("a", "b"), table),
                 Factor("bc", ("b", "c"), table),
                 Factor("ca", ("c", "a"), table)))


def run_loopy_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Per seed: build a random tree, or take the one cycle3 or JSON-file
    network, run BK-ADF and loopy EP, and emit one row per (method,
    variable) with the L1 belief distance against exhaustive enumeration,
    plus the evidence error and convergence flag.  A network file is read
    once, before any seed runs, and fitted and enumerated once, as cycle3
    is; a network whose evidence contradicts itself raises ConfigError
    naming it and the factor."""
    fixed = None
    if config.network == "cycle3":
        fixed = frustrated_cycle_network()
    elif config.network != "tree":
        try:
            fixed = load_network(Path(config.network))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad network {config.network}: {exc!r}") from None
    rows: list[ResultRow] = []
    for k, seed in enumerate(config.seeds):
        if k == 0 or fixed is None:  # a fixed network is fitted once
            net = fixed if fixed is not None else random_tree_network(
                config.n_vars, config.max_cardinality, seed)
            try:
                beliefs, log_ev = bk_adf(net)
                res = loopy_ep(net, config.ep_options)
            except (ContradictoryEvidenceError, ContradictoryMessagesError) as exc:
                raise ConfigError(f"bad network {config.network}: {exc}") from None
            try:
                marginals, log_partition = enumerate_discrete(net)
            except VanishingMassError as exc:
                raise ConfigError(f"bad network {config.network}: {exc}") from None
            except EnumerationBoundError:
                marginals, log_partition = None, math.nan

        def l1(beliefs, vid):
            if marginals is None:
                return math.nan
            return float(np.sum(np.abs(beliefs[vid] - marginals[vid])))

        # BK-ADF does the work of one sequential loopy sweep
        adf_operations = sum(f.operations for f in net.factors)
        for vid, _ in net.variables:
            rows.append(ResultRow(
                "loopy", seed, "adf", vid, adf_operations,
                abs(log_ev - log_partition), l1(beliefs, vid), True, 1))
        for vid, _ in net.variables:
            rows.append(ResultRow(
                "loopy", seed, "ep", vid, res.operations,
                abs(res.log_evidence - log_partition),
                l1(res.beliefs, vid), res.converged, res.sweeps))
    return rows


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

_RUNNERS = {
    "clutter": run_clutter_experiment,
    "bpm": run_bpm_experiment,
    "loopy": run_loopy_experiment,
}


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    return _RUNNERS[config.kind](config)


def write_results(config: ExperimentConfig, rows: list[ResultRow],
                  out_path: str | Path) -> None:
    """CSV of rows plus a JSON sidecar echoing config and version; both are
    byte-identical across repeated runs of one configuration."""
    out_path = Path(out_path)
    out_path.write_text(rows_to_csv(rows))
    sidecar = {
        "config": config_to_dict(config),
        "version": __version__,
        "rows": len(rows),
    }
    out_path.with_suffix(out_path.suffix + ".meta.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# analytic-vs-oracle batteries
# ---------------------------------------------------------------------------

def _fused_visit_error(rng: np.random.Generator, terms: np.random.Generator,
                       noise: float) -> float:
    """Worst relative difference between one BpmBinding site visit (cavity,
    moment match, recombination, then a damped recombination) and the same
    visit in dense natural parameters, inv(P -+ tau u u^T); 0 when both call
    the cavity improper, inf when they disagree.

    The visit is made on a random positive definite posterior, then again
    on that posterior times random rank-one sites, each appended by the
    binding's own recombination, so that it carries pending terms (see
    `gaussians.FullGaussian`); there its covariance and mean are checked
    against the dense inverse too.  `terms` draws those sites and the
    second visit's site, so the battery's later rows, which share `rng`,
    draw the same cases whether or not this second visit runs."""
    d = int(rng.integers(1, 6))
    A = rng.normal(size=(d, d))
    post = FullGaussian(mean=rng.normal(size=d), covariance=A @ A.T + 0.3 * np.eye(d))
    x = rng.normal(size=d)
    x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
    binding = BpmBinding(make_dataset([x], [1.0], slack=1.0 if noise else 0.0))
    P = np.linalg.inv(post.covariance)
    h = P @ post.mean
    worst = _dense_visit_error(binding, post, P, h, rng, noise)

    # 1 to PENDING_COLUMNS - 1 terms, past one formed block half the time;
    # unit directions and total precision at most 2 keep the posterior's
    # scale, so the second visit's margins stay out of the deep tail
    count = int(terms.integers(1, PENDING_COLUMNS)) \
        + PENDING_COLUMNS * int(terms.integers(0, 2))
    for _ in range(count):
        v = terms.normal(size=d)
        v /= np.linalg.norm(v)
        site = RankOneSite(direction=v, precision=float(terms.uniform(0.05, 2.0)) / count,
                           mean=float(terms.normal()))
        post = binding.recombine(binding.cavity(post, RankOneSite(v, 0.0)), site)
        P = P + site.precision * np.outer(v, v)
        h = h + site.precision * site.mean * v
    V = np.linalg.inv(P)
    return max(worst, _rel(post.covariance, V), _rel(post.mean, V @ h),
               _dense_visit_error(binding, post, P, h, terms, noise))


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def _dense_visit_error(binding, post, P: np.ndarray, h: np.ndarray,
                       rng: np.random.Generator, noise: float) -> float:
    """`_fused_visit_error` for one posterior whose dense precision and
    shift are P and h, with a site drawn from rng."""
    u = binding.directions[0]
    q = float(u @ post.covariance @ u)
    # tau q in [-3, 3], kept 0.05 from the improper edge at 1
    t = float(rng.uniform(-3.0, 2.9))
    tau = (t if t < 0.95 else t + 0.1) / q
    site = RankOneSite(direction=u, precision=tau, mean=float(rng.normal()))

    Pc = P - tau * np.outer(u, u)
    proper = bool(np.all(np.linalg.eigvalsh(Pc) > 0.0))
    cav = binding.cavity(post, site)
    if (cav is not None) != proper:
        return math.inf
    if cav is None:
        return 0.0

    Vc = np.linalg.inv(Pc)
    mc = Vc @ (h - tau * site.mean * u)
    dense = bpm_moment_match(FullGaussian(mean=mc, covariance=0.5 * (Vc + Vc.T)), u, noise)
    new_site, log_z = binding.moment_match(cav, 0)
    fused = binding.recombine(cav, new_site)
    # the site re-included into the dense cavity gives the dense posterior
    Vn = np.linalg.inv(Pc + new_site.precision * np.outer(u, u))
    errors = [_rel(cav.covariance, Vc), _rel(cav.mean, mc),
              _rel(fused.covariance, dense.posterior.covariance),
              _rel(fused.mean, dense.posterior.mean), abs(log_z - dense.log_z),
              _rel(Vn, dense.posterior.covariance)]

    damped = site.damped(new_site, 0.5)
    Pd = Pc + damped.precision * np.outer(u, u)
    try:
        mixed = binding.recombine(cav, damped)
    except ImproperProductError:
        return max(errors) if np.min(np.linalg.eigvalsh(Pd)) <= 0.0 else math.inf
    Vd = np.linalg.inv(Pd)
    md = Vd @ (Pc @ mc + damped.precision * damped.mean * u)
    return max(errors + [_rel(mixed.covariance, Vd), _rel(mixed.mean, md)])


def _probit_kernel_error() -> float:
    """Largest relative difference of `probit` from scipy's ndtr on
    z in [-37, 40], and of `log_probit` from log_ndtr and `probit_ratio`
    from sqrt(2/pi) / erfcx(-z/sqrt(2)) on z in [-1e3, 40].  Where scipy's
    value is not a normal float (zero or subnormal), the kernel's must not
    be one either, or the difference is inf."""
    from scipy import special

    def rel(kernel, z, want):
        got = np.array([kernel(float(v)) for v in z])
        normal = np.abs(want) >= np.finfo(float).tiny
        if np.any(np.abs(got[~normal]) >= np.finfo(float).tiny):
            return math.inf
        return float(np.max(np.abs(got - want)[normal] / np.abs(want[normal])))

    z = np.linspace(-37.0, 40.0, 3081)
    wide = np.concatenate((np.linspace(-1e3, -37.0, 3853), z))
    with np.errstate(over="ignore"):  # erfcx(-x) overflows for z > 37.6
        ratio = math.sqrt(2.0 / math.pi) / special.erfcx(-wide / math.sqrt(2.0))
    return max(rel(probit, z, special.ndtr(z)),
               rel(log_probit, wide, special.log_ndtr(wide)),
               rel(probit_ratio, wide, ratio))


@dataclass(frozen=True)
class BatteryResult:
    name: str
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def oracle_check_battery(cases: int = 200, seed: int = 1234) -> list[BatteryResult]:
    """Cross-check every analytic fast path against its brute-force oracle;
    the oracle-check CLI subcommand prints these as a pass/fail table."""
    results = []
    rng = np.random.default_rng(seed)

    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(1, 4))
        cav = SphericalGaussian(mean=rng.normal(size=d) * 2.0,
                                variance=float(rng.uniform(0.3, 20.0)))
        y = rng.normal(size=d) * 3.0
        w = float(rng.uniform(0.0, 1.0))
        a = clutter_moment_match(cav, y, w)
        zo, mo, vo = clutter_tilted_moments(cav, y, w)
        worst = max(worst,
                    abs(a.z - zo) / max(abs(zo), 1e-12),
                    _rel(a.posterior.mean, mo),
                    abs(a.posterior.variance - vo) / max(abs(vo), 1e-12))
    results.append(BatteryResult("clutter-moment-match-vs-quadrature", worst, 1e-8))

    worst = 0.0
    for k in range(cases):
        d = int(rng.integers(1, 6))
        A = rng.normal(size=(d, d))
        cav = FullGaussian(mean=rng.normal(size=d),
                           covariance=A @ A.T + 0.3 * np.eye(d))
        u = rng.normal(size=d)
        while float(u @ u) < 1e-6:
            u = rng.normal(size=d)
        noise = 1.0 if k % 2 == 0 else 0.0
        a = bpm_moment_match(cav, u, noise)
        zo, mo, co = directional_tilted_moments(
            cav.mean, cav.covariance, u, probit_margin_term(noise),
            breakpoints=(0.0,) if noise == 0.0 else ())
        worst = max(worst,
                    abs(math.exp(a.log_z) - zo) / max(abs(zo), 1e-12),
                    _rel(a.posterior.mean, mo), _rel(a.posterior.covariance, co))
    results.append(BatteryResult("bpm-moment-match-vs-quadrature", worst, 1e-8))

    worst = 0.0
    terms = np.random.default_rng([seed, 1])
    for k in range(cases):
        worst = max(worst, _fused_visit_error(rng, terms,
                                              noise=1.0 if k % 2 == 0 else 0.0))
    results.append(BatteryResult("bpm-fused-visit-vs-dense", worst, 1e-10))

    worst = 0.0
    for k in range(24):
        mu = float(rng.normal() * 2.0)
        v = float(rng.uniform(0.3, 5.0))
        if k % 2 == 0:
            term = probit_margin_term(1.0)
            brk: tuple[float, ...] = ()
        else:
            term = probit_margin_term(0.0)
            brk = (0.0,)
        base = tilted_moments_quadrature(mu, v, term, features=((0.0, 1.0),),
                                         breakpoints=brk, resolution=8)
        fine = tilted_moments_quadrature(mu, v, term, features=((0.0, 1.0),),
                                         breakpoints=brk, resolution=16)
        worst = max(worst, *(abs(b - f) / max(abs(f), 1e-12)
                             for b, f in zip(base, fine)))
    results.append(BatteryResult("quadrature-self-consistency", worst, 1e-10))

    worst = 0.0
    for z in np.linspace(-8.0, 8.0, 2001):
        naive = math.exp(-0.5 * z * z - 0.5 * math.log(2 * math.pi)) / probit(z)
        worst = max(worst, abs(probit_ratio(float(z)) - naive) / naive)
    results.append(BatteryResult("probit-ratio-vs-naive-quotient", worst, 1e-10))
    results.append(BatteryResult("probit-kernels-vs-scipy", _probit_kernel_error(), 1e-12))

    # loopy propagation is exact on trees once its messages settle
    worst = 0.0
    for _ in range(cases):
        net = random_tree_network(int(rng.integers(1, 9)), 4,
                                  int(rng.integers(2 ** 31)))
        res = loopy_ep(net, EPOptions(tolerance=1e-12))
        marginals, log_z = enumerate_discrete(net)
        worst = max(worst, abs(res.log_evidence - log_z),
                    *(float(np.sum(np.abs(res.beliefs[v] - marginals[v])))
                      for v, _ in net.variables))
    results.append(BatteryResult("loopy-tree-vs-enumeration", worst, 1e-8))

    # The closed-form zero-slack BPM posterior against prior importance
    # sampling, in standard errors of the sampled evidence and mean, on
    # separable sets in d = 1, 2, 3 whose evidence is at least 0.02 (so at
    # least about 2000 of the draws land in the cone).
    worst, buffers = 0.0, {}
    for k in range(min(cases, 12)):
        d = k % 3 + 1
        log_z = -math.inf
        while log_z < math.log(0.02):
            x = rng.normal(size=(int(rng.integers(1, 7)), d))
            ds = make_dataset(x, np.where(x @ rng.normal(size=d) > 0.0, 1.0, -1.0))
            log_z, mean = exact_bpm_step(ds.directions)
        est = importance_sampler(ds.log_likelihood, np.zeros(d), np.eye(d),
                                 100_000, int(rng.integers(2 ** 31)), buffers=buffers)
        worst = max(worst,
                    abs(est.evidence.value - math.exp(log_z)) / est.evidence.standard_error,
                    float(np.max(np.abs(est.posterior_mean.value - mean)
                                 / est.posterior_mean.standard_error)))
    results.append(BatteryResult("bpm-exact-step-vs-importance", worst, 5.0))

    return results
