"""Generic ADF / EP driver over a list of refinable term approximations.

A model binds itself to the engine through the eight members of
`ModelBinding`: the exactly-incorporated prior, the site visit, the
evidence and a degeneracy test.  `cavity` divides the site out of the
posterior, `moment_match` projects the tilted distribution against that
cavity and returns the new site Z * q_new / cavity, and `recombine`
multiplies the cavity by a site; every visit takes that one path, so the
posterior is always cavity x site.  The family rules live on the Gaussian
types in `gaussians`: a site's `damped` and `change` serve the sweep, and
`natural_coords`, `moments` and log coefficients the energy / fixed-point
diagnostics.  The engine owns the sweep loop, the improper-cavity policy
(skip and count), `ep_log_evidence` and those diagnostics.

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

from .gaussians import CancelledPrecisionError, Site


def is_finite_number(x) -> bool:
    """True for a finite int or float that is not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


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
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"schedule seed must be a non-negative int, "
                             f"got {self.seed!r}")

    def orders(self, n: int):
        if self.kind == "sequential":
            while True:
                yield list(range(n))
        else:
            rng = np.random.default_rng(self.seed)
            while True:
                yield rng.permutation(n).tolist()


@dataclass(frozen=True)
class EPOptions:
    tolerance: float = 1e-4
    max_sweeps: int = 100
    damping: float = 1.0
    schedule: Schedule = field(default_factory=Schedule)

    def __post_init__(self):
        if not (is_finite_number(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be a finite positive number, "
                             f"got {self.tolerance!r}")
        if type(self.max_sweeps) is not int or self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be an int of at least 1, "
                             f"got {self.max_sweeps!r}")
        if not (is_finite_number(self.damping) and 0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must be a number in (0, 1], got {self.damping!r}")


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
    """Contract between a concrete model and the ADF/EP loop: `site_count`,
    `prior`, `vacuous_site`, the visit (`cavity`, `moment_match`,
    `recombine`), `log_evidence` and `is_degenerate`.

    The prior term is incorporated exactly; `site_count` counts only the
    refinable data terms.  A visit of site i is cavity -> moment_match ->
    recombine: `moment_match` returns the site itself, never a posterior,
    and the posterior is `recombine(cavity, site)`.  A cavity is whatever
    object the binding's `cavity` returns; only the binding reads it.
    Sites (`NaturalSpherical`, `RankOneSite`) and posteriors
    (`SphericalGaussian`, `FullGaussian`) carry the family rules: a site's
    `damped` and `change` serve the sweep, and the diagnostics need nothing
    from a binding beyond the visit.
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


def run_adf(model: ModelBinding) -> EPResult:
    """One pass of assumed-density filtering over the terms in index order.

    Each term is incorporated once by the same visit as an EP sweep makes
    against a vacuous site (cavity, moment match, recombine), so the result
    equals an undamped sequential EP first sweep bit for bit.  Another order
    is the same pass over permuted data.  The log evidence is the sum of
    step normalizers.
    """
    n = model.site_count
    start_ops = model.tally.count
    q = model.prior()
    sites: list[Site] = [model.vacuous_site(i) for i in range(n)]
    log_evidence = 0.0
    for i in range(n):
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
    first sweep is `run_adf`; with no sites that sweep is empty and
    converges.  Improper cavities are skipped for the sweep and counted.
    With damping < 1 the new site is `old_site.damped(new_site, damping)`;
    either way the posterior is the cavity times the new site.  Damping
    that cancels the precisions but not the shifts, a site no family can
    hold, raises MomentMatchError with the term index, as a failed moment
    match does.  A site change is `new_site.change(old_site)`; a NaN change
    is kept as the sweep's maximum, so it never counts as converged.
    Non-convergence is reported, not raised.
    """
    n = model.site_count
    start_ops = model.tally.count
    diag = Diagnostics()
    sites: list[Site] = [model.vacuous_site(i) for i in range(n)]
    q = model.prior()
    history: list[SweepSnapshot] = []
    damping = opts.damping
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
            if damping < 1.0:
                try:
                    new_site = sites[i].damped(new_site, damping)
                except CancelledPrecisionError as exc:
                    raise MomentMatchError(i, exc) from exc
            delta = new_site.change(sites[i])
            if delta > max_change or delta != delta:
                max_change = delta  # a NaN change stays the sweep's maximum
            sites[i] = new_site
            q = model.recombine(cav, new_site)
        if record_history:
            history.append(SweepSnapshot(
                sweep=sweeps, posterior=q,
                log_evidence=model.log_evidence(q, sites),
                operations=model.tally.count - start_ops, max_change=max_change))
        if n and not updated:
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


def _revisit(model: ModelBinding, posterior, sites):
    """Each site's visit against the given state, which stays as it is:
    yields (moment residual, new site, tilted posterior = cavity x new
    site) site by site, or (nan, None, None) when the cavity is improper."""
    q_moments = posterior.moments()
    for i, site in enumerate(sites):
        cav = model.cavity(posterior, site)
        if cav is None:
            yield math.nan, None, None
            continue
        new_site, _ = model.moment_match(cav, i)
        tilted = model.recombine(cav, new_site)
        yield float(np.max(np.abs(q_moments - tilted.moments()))), new_site, tilted


def check_fixed_point(model: ModelBinding, posterior, sites) -> np.ndarray:
    """Per-site stationarity residuals: max |E_q[f_j] - E_ptilde[f_j]| where
    ptilde is the tilted distribution of term i against its cavity.  NaN
    marks sites whose cavity is improper."""
    return np.array([r for r, _, _ in _revisit(model, posterior, sites)])


def ep_energy(model: ModelBinding, posterior, sites) -> EnergyReport:
    """Value of the min-max energy objective whose stationary points are the
    EP fixed points, plus its constraint residual and per-site moment
    residuals.

    With c the log coefficient of a factor (`log_norm_coeff`, or a site's
    `natural_log_coeff`), the log partition of a family member is -c.  A
    visit's new site is Z q' / cavity, so its log coefficient is
    log Z + c(q') - c(cavity), and the objective

        (n-1) (c(prior) - c(posterior)) - sum_i [c(prior) + c(site'_i) - c(q'_i)]

    needs neither the cavity's normalizer nor Z.  The constraint residual
    max |theta(posterior) - theta(prior) - sum_i theta(site_i)| in natural
    parameters holds whether or not a cavity is proper.  Sites with improper
    cavities are reported unevaluable rather than integrated against an
    improper weight.  One revisit per site serves objective and residuals.
    """
    n = model.site_count
    prior = model.prior()
    c_prior = prior.log_norm_coeff()
    constraint = posterior.natural_coords() - prior.natural_coords() \
        - sum(site.natural_coords() for site in sites)

    objective = (n - 1) * (c_prior - posterior.log_norm_coeff())
    residuals, unevaluable = [], []
    for i, (resid, new_site, tilted) in enumerate(_revisit(model, posterior, sites)):
        residuals.append(resid)
        if tilted is None:
            unevaluable.append(i)
        else:
            objective -= c_prior + new_site.natural_log_coeff() - tilted.log_norm_coeff()
    return EnergyReport(objective=float(objective),
                        constraint_residual=float(np.max(np.abs(constraint))),
                        moment_residuals=np.array(residuals),
                        unevaluable=tuple(unevaluable))
