"""Generic ADF / EP driver over a list of refinable term approximations.

A model binds itself to the engine through `ModelBinding`: it supplies the
exactly-incorporated prior and three steps of a site visit.  `cavity`
divides the site out of the posterior, `moment_match` projects the tilted
distribution against that cavity and returns the new site Z * q_new /
cavity, and `recombine` multiplies the cavity by a site.  Every visit, in
ADF or EP, damped or not, takes that one path, so the posterior is always
cavity x site.  The site types carry their family's rules: `damped`
interpolates two sites in natural parameters and `coords` gives the
convergence coordinates.  The engine owns the sweep loop, the
improper-cavity policy (skip and count), the evidence formula
`ep_log_evidence`, and the energy / fixed-point diagnostics.

Cost accounting: bindings charge a documented elementary-operation count to
the run's tally (length-d vector ops charge d, rank-one d x d updates charge
d*d, scalars charge 1), giving a deterministic stand-in for a FLOP counter.

A run mutates only its own local state and its binding's tally, so a single
run is single-threaded; distinct runs on distinct bindings are independent,
and every result object is immutable.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .gaussians import Site


class OpTally:
    """Mutable elementary-operation counter carried through one run."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += n


@dataclass(frozen=True)
class Schedule:
    """Site visiting order: 'sequential' or 'random' (seeded permutation,
    redrawn every sweep)."""
    kind: str = "sequential"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sequential", "random"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    def orders(self, n: int):
        if self.kind == "sequential":
            while True:
                yield list(range(n))
        else:
            rng = np.random.default_rng(self.seed)
            while True:
                yield list(rng.permutation(n))


@dataclass(frozen=True)
class EPOptions:
    tolerance: float = 1e-4
    max_sweeps: int = 100
    damping: float = 1.0
    schedule: Schedule = field(default_factory=Schedule)

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class Diagnostics:
    skipped_sites: int = 0
    improper_cavities: int = 0
    operations: int = 0
    degenerate: bool = False


@dataclass(frozen=True)
class EPResult:
    posterior: Any
    sites: list
    log_evidence: float
    sweeps: int
    converged: bool
    diagnostics: Diagnostics
    history: list = field(default_factory=list)


@dataclass(frozen=True)
class SweepSnapshot:
    """Per-sweep checkpoint used for cost/accuracy curves."""
    sweep: int
    posterior: Any
    log_evidence: float
    operations: int
    max_change: float


class MomentMatchError(RuntimeError):
    def __init__(self, term_index: int, cause: Exception):
        super().__init__(f"moment match failed at term {term_index}: {cause}")
        self.term_index = term_index


class ModelBinding(ABC):
    """Contract between a concrete model and the ADF/EP loop.

    The prior term is incorporated exactly; `site_count` counts only the
    refinable data terms.  A visit of site i is cavity -> moment_match ->
    recombine: `moment_match` returns the site itself, never a posterior,
    and the posterior is `recombine(cavity, site)`.  A cavity is whatever
    object the binding's `cavity` returns; only the binding reads it.
    Sites are `NaturalSpherical` or `RankOneSite`, which own damping and
    convergence coordinates, so a binding supplies neither.
    """

    tally: OpTally

    @property
    @abstractmethod
    def site_count(self) -> int: ...

    @abstractmethod
    def prior(self): ...

    @abstractmethod
    def vacuous_site(self, i: int) -> Site: ...

    @abstractmethod
    def cavity(self, posterior, site: Site):
        """Posterior with site i divided out, or None when improper."""

    @abstractmethod
    def moment_match(self, cavity, i: int) -> tuple[Site, float]:
        """Project term i against the cavity of site i; returns (site,
        log_z) with site = Z * q_new / cavity, in this family's parameters,
        and Z the tilted normalizer."""

    @abstractmethod
    def recombine(self, cavity, site: Site):
        """cavity * site, normalized: the posterior after a visit; raises
        ImproperProductError when the product is improper."""

    @abstractmethod
    def log_evidence(self, posterior, sites: Sequence[Site]) -> float:
        """log of the integral of prior * prod(sites) (see ep_log_evidence)."""

    # --- diagnostics hooks -------------------------------------------------

    @abstractmethod
    def natural_coords(self, dist) -> np.ndarray:
        """Natural parameters of a family member, flat, in fixed order."""

    @abstractmethod
    def site_natural_coords(self, site: Site) -> np.ndarray:
        """A site's contribution in the same flat coordinates as
        natural_coords; defined for any sign of the site precision."""

    @abstractmethod
    def family_moments(self, dist) -> np.ndarray:
        """Expected sufficient statistics of a family member, flat."""

    @abstractmethod
    def log_partition(self, coords: np.ndarray) -> float:
        """log integral exp(coords . f(x)) dx over the family's statistics;
        raises ImproperProductError/ValueError off the proper cone."""

    def is_degenerate(self, posterior) -> bool:
        """True when refinement has collapsed the posterior beyond numerical
        rescue (the sweep loop then stops and reports instead of crashing)."""
        return False


def ep_log_evidence(prior, posterior, sites: Sequence[Site]) -> float:
    """log Z with posterior = prior * prod(sites) / Z, from the log
    coefficients c of each factor written as exp(c + linear - quadratic):
    the x-dependent parts cancel, leaving sum_i c_i + c_prior - c_posterior.
    Vacuous and negative-precision sites are fine; the posterior must be
    proper."""
    return sum(s.natural_log_coeff() for s in sites) \
        + prior.log_norm_coeff() - posterior.log_norm_coeff()


def _match(model: ModelBinding, cavity, i: int) -> tuple[Site, float]:
    """model.moment_match, with a failure rewrapped with the term index."""
    try:
        return model.moment_match(cavity, i)
    except Exception as exc:  # noqa: BLE001 - rewrap with the term index
        raise MomentMatchError(i, exc) from exc


def run_adf(model: ModelBinding, order: Sequence[int] | None = None) -> EPResult:
    """One sequential pass of assumed-density filtering in the given order.

    Each term is incorporated once by the same visit as an EP sweep makes
    against a vacuous site (cavity, moment match, recombine), so the result
    equals an undamped EP first sweep in the same order bit for bit.  The
    log evidence is the sum of step normalizers.
    """
    n = model.site_count
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(site_count)")
    start_ops = model.tally.count
    q = model.prior()
    sites: list[Site] = [model.vacuous_site(i) for i in range(n)]
    log_evidence = 0.0
    for i in order:
        cav = model.cavity(q, sites[i])
        if cav is None:
            raise MomentMatchError(i, ValueError("improper cavity"))
        sites[i], log_z = _match(model, cav, i)
        q = model.recombine(cav, sites[i])
        log_evidence += log_z
    diag = Diagnostics(operations=model.tally.count - start_ops)
    return EPResult(posterior=q, sites=sites, log_evidence=log_evidence,
                    sweeps=1, converged=True, diagnostics=diag)


def run_ep(model: ModelBinding, opts: EPOptions = EPOptions(),
           record_history: bool = False) -> EPResult:
    """Expectation propagation: refine every term approximation until the
    largest site natural-parameter change in a sweep drops below tolerance.

    Sites start vacuous, so with a sequential schedule and no damping the
    first sweep is `run_adf` in the same order.  Improper cavities are
    skipped for the sweep and counted.  With damping < 1 the new site is
    `old_site.damped(new_site, damping)`; either way the posterior is the
    cavity times the new site.  Non-convergence is reported, not raised.
    """
    n = model.site_count
    start_ops = model.tally.count
    diag = Diagnostics()
    sites: list[Site] = [model.vacuous_site(i) for i in range(n)]
    q = model.prior()
    history: list[SweepSnapshot] = []

    if n == 0:
        diag.operations = model.tally.count - start_ops
        return EPResult(posterior=q, sites=sites,
                        log_evidence=model.log_evidence(q, sites),
                        sweeps=0, converged=True, diagnostics=diag,
                        history=history)

    converged = False
    sweeps = 0
    for order in opts.schedule.orders(n):
        if sweeps >= opts.max_sweeps:
            break
        sweeps += 1
        max_change = 0.0
        updated = 0
        for i in order:
            cav = model.cavity(q, sites[i])
            if cav is None:
                diag.improper_cavities += 1
                diag.skipped_sites += 1
                continue
            updated += 1
            new_site, _ = _match(model, cav, i)
            if opts.damping < 1.0:
                new_site = sites[i].damped(new_site, opts.damping)
            delta = np.max(np.abs(new_site.coords() - sites[i].coords()))
            max_change = max(max_change, float(delta))
            sites[i] = new_site
            q = model.recombine(cav, new_site)
        if record_history:
            history.append(SweepSnapshot(
                sweep=sweeps, posterior=q,
                log_evidence=model.log_evidence(q, sites),
                operations=model.tally.count - start_ops, max_change=max_change))
        if updated == 0:
            break  # every cavity improper: no refinement is possible
        if model.is_degenerate(q):
            diag.degenerate = True
            break  # a collapsed state never counts as converged
        if max_change < opts.tolerance:
            converged = True
            break

    diag.operations = model.tally.count - start_ops
    return EPResult(posterior=q, sites=sites,
                    log_evidence=model.log_evidence(q, sites),
                    sweeps=sweeps, converged=converged, diagnostics=diag,
                    history=history)


# ---------------------------------------------------------------------------
# energy objective and stationarity diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    objective: float
    constraint_residual: float
    moment_residuals: np.ndarray
    unevaluable: tuple[int, ...] = ()


def _recover_multipliers(model: ModelBinding, posterior, sites):
    """nu and per-site lambda_i as family coordinates relative to the prior.

    lambda_i comes from subtracting the site's natural parameters, so it is
    well defined even when the corresponding cavity distribution would be
    improper; properness only matters when integrating against it.
    """
    prior_coords = model.natural_coords(model.prior())
    nu = model.natural_coords(posterior) - prior_coords
    lambdas = [nu - model.site_natural_coords(site) for site in sites]
    return prior_coords, nu, lambdas


def check_fixed_point(model: ModelBinding, posterior, sites) -> np.ndarray:
    """Per-site stationarity residuals: max |E_q[f_j] - E_ptilde[f_j]| where
    ptilde is the tilted distribution of term i against its cavity.  NaN
    marks sites whose cavity is improper."""
    q_moments = model.family_moments(posterior)
    residuals = np.empty(len(sites))
    for i, site in enumerate(sites):
        cav = model.cavity(posterior, site)
        if cav is None:
            residuals[i] = math.nan
            continue
        site, _ = model.moment_match(cav, i)
        tilted = model.recombine(cav, site)
        residuals[i] = float(np.max(np.abs(q_moments - model.family_moments(tilted))))
    return residuals


def ep_energy(model: ModelBinding, posterior, sites) -> EnergyReport:
    """Value of the min-max energy objective whose stationary points are the
    EP fixed points, plus its constraint residual and per-site moment
    residuals.

    The multipliers are recovered from the posterior and the cavities; both
    integral families are evaluated in closed form through the family's log
    partition, with each term's tilted normalizer supplied by the model.
    Sites with improper cavities are reported unevaluable rather than
    integrated against an improper weight.
    """
    n = model.site_count
    prior_coords, nu, lambdas = _recover_multipliers(model, posterior, sites)
    log_z_prior = model.log_partition(prior_coords)

    constraint = float(np.max(np.abs((n - 1) * nu - sum(lambdas)))) \
        if lambdas else float(np.max(np.abs((n - 1) * nu)))

    objective = (n - 1) * (model.log_partition(prior_coords + nu) - log_z_prior)
    unevaluable = []
    for i, lam in enumerate(lambdas):
        cav = model.cavity(posterior, sites[i])
        if cav is None:
            unevaluable.append(i)
            continue
        _, log_z = model.moment_match(cav, i)
        objective -= (model.log_partition(prior_coords + lam) - log_z_prior) + log_z

    residuals = check_fixed_point(model, posterior, sites)
    return EnergyReport(objective=float(objective),
                        constraint_residual=constraint,
                        moment_residuals=residuals,
                        unevaluable=tuple(unevaluable))
