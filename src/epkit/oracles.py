"""Independent brute-force ground truth.

Everything in this module is deliberately dumb: exhaustive mixture
enumeration, panel quadrature, prior-based importance sampling, full joint
enumeration.  Analytic fast paths elsewhere in the package are tested
*against* these; on any disagreement the oracle wins.

"Dumb" is about what an oracle computes, not how: the clutter oracle
evaluates every one of the 2^n mixture components and shares no moment
matching or site algebra with the model code, but it does so with array
operations over all components at once rather than a Python loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import logsumexp

from .gaussians import LOG_2PI, SphericalGaussian, log_normal_pdf


class VanishingMassError(ValueError):
    """Quadrature found essentially no mass under the tilted integrand."""


class DegenerateWeightsError(ValueError):
    """All importance weights are zero."""


@dataclass(frozen=True)
class ExactPosteriorSummary:
    """Exact posterior moments and evidence from mixture enumeration."""
    log_evidence: float
    mean: np.ndarray
    covariance: np.ndarray
    component_count: int

    @property
    def variance(self) -> float:
        """Spherical-projected variance, trace(cov)/d."""
        return float(np.trace(self.covariance)) / self.covariance.shape[0]


@dataclass(frozen=True)
class SampleEstimate:
    value: np.ndarray | float
    standard_error: np.ndarray | float
    sample_count: int
    seed: int


# ---------------------------------------------------------------------------
# 1-D panel quadrature
# ---------------------------------------------------------------------------

_GL_ORDER = 40
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)


def _panel_integrate(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                     panels: int) -> float:
    """Composite Gauss-Legendre integral of f over [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs = 0.5 * (a + b) + half * _GL_NODES
        total += half * float(_GL_WEIGHTS @ np.asarray(f(xs), dtype=float))
    return total


def quad_adaptive(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                  rtol: float = 1e-12, start_panels: int = 8,
                  max_panels: int = 4096) -> float:
    """Panel-doubling quadrature: refine until successive estimates agree."""
    panels = start_panels
    prev = _panel_integrate(f, lo, hi, panels)
    while panels < max_panels:
        panels *= 2
        cur = _panel_integrate(f, lo, hi, panels)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def tilted_moments_quadrature(cavity_mean: float, cavity_variance: float,
                              term: Callable[[np.ndarray], np.ndarray],
                              features: tuple[tuple[float, float], ...] = (),
                              breakpoints: tuple[float, ...] = (),
                              rtol: float = 1e-12, resolution: int = 8):
    """Moments of p(x) ~ term(x) * N(x; cavity_mean, cavity_variance) in 1-D.

    The integration window is the cavity mean +- 12 standard deviations,
    widened to cover each (center, scale) feature of the term by 12 of its
    scales.  The window is split at each breakpoint so discontinuous terms
    (step likelihoods) keep full quadrature accuracy.  Returns
    (Z, mean, variance).  `resolution` is the starting panel count; doubling
    it is the self-consistency knob.

    Raises VanishingMassError when Z falls below 1e-280.
    """
    sd = math.sqrt(cavity_variance)
    lo = cavity_mean - 12.0 * sd
    hi = cavity_mean + 12.0 * sd
    for center, scale in features:
        lo = min(lo, center - 12.0 * scale)
        hi = max(hi, center + 12.0 * scale)
    edges = [lo] + sorted(b for b in breakpoints if lo < b < hi) + [hi]

    def weight(x):
        return np.asarray(term(x), dtype=float) * np.exp(
            -0.5 * (x - cavity_mean) ** 2 / cavity_variance) / math.sqrt(
            2.0 * math.pi * cavity_variance)

    def integrate(f):
        return sum(quad_adaptive(f, a, b, rtol=rtol, start_panels=resolution)
                   for a, b in zip(edges[:-1], edges[1:]))

    z = integrate(weight)
    if not z > 1e-280:
        raise VanishingMassError("vanishing mass")
    m1 = integrate(lambda x: x * weight(x))
    m2 = integrate(lambda x: x * x * weight(x))
    mean = m1 / z
    return z, mean, m2 / z - mean * mean


def directional_tilted_moments(cavity_mean: np.ndarray, cavity_cov: np.ndarray,
                               u: np.ndarray,
                               term: Callable[[np.ndarray], np.ndarray],
                               breakpoints: tuple[float, ...] = (),
                               resolution: int = 8):
    """Tilted moments of a full-Gaussian cavity against a factor that depends
    on w only through the margin s = u.w.

    The 1-D marginal of s is tilted by quadrature; the full-dimensional mean
    and covariance then follow by Gaussian conditioning on s.  Returns
    (Z, mean, covariance).
    """
    m = np.atleast_1d(np.asarray(cavity_mean, dtype=float))
    V = np.asarray(cavity_cov, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    Vu = V @ u
    q = float(u @ Vu)
    mu = float(u @ m)
    z, es, vs = tilted_moments_quadrature(
        mu, q, term, features=((0.0, 1.0),), breakpoints=breakpoints,
        resolution=resolution)
    mean = m + Vu * ((es - mu) / q)
    cov = V + np.outer(Vu, Vu) * ((vs - q) / (q * q))
    return z, mean, 0.5 * (cov + cov.T)


def probit_margin_term(noise_var: float) -> Callable[[np.ndarray], np.ndarray]:
    """cdf(s / sqrt(noise_var)) as a vectorized term; noise_var = 0 is the
    step function (value 1/2 exactly at 0)."""
    from scipy.special import ndtr
    if noise_var > 0.0:
        root = math.sqrt(noise_var)
        return lambda s: ndtr(np.asarray(s, dtype=float) / root)
    return lambda s: np.where(np.asarray(s) > 0.0, 1.0,
                              np.where(np.asarray(s) < 0.0, 0.0, 0.5))


def clutter_tilted_moments(cavity: SphericalGaussian, y: np.ndarray, w: float,
                           clutter_variance: float = 10.0,
                           resolution: int = 8):
    """Quadrature tilted moments for one clutter-mixture observation term.

    t(x) = (1-w) N(y; x, I) + w N(y; 0, clutter_variance I) against a
    spherical cavity.  Reduction to 1-D integrals: split t by linearity into
    its two summands; in coordinates aligned with the cavity-to-y direction
    each summand factorizes across coordinates, so every factor is a 1-D
    panel quadrature.  No Gaussian product identities are used.

    Returns (Z, mean vector, spherical variance) where the variance is the
    trace/d projection matched by the spherical family.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = cavity.dim
    m, v = cavity.mean, cavity.variance
    sd = math.sqrt(v)
    diff = y - m
    rho = float(np.linalg.norm(diff))
    e = diff / rho if rho > 0 else np.zeros(d)
    if rho == 0.0 and d > 0:
        e = np.zeros(d)
        e[0] = 1.0

    lo, hi = -12.0 * sd, 12.0 * sd
    lo = min(lo, rho - 14.0)
    hi = max(hi, rho + 14.0)

    def cav1(a):
        return np.exp(-0.5 * a * a / v) / math.sqrt(2.0 * math.pi * v)

    # inlier summand: (1-w) (2 pi)^{-d/2} e^{-(rho-a)^2/2} e^{-|b|^2/2}
    def in_a(fn):
        return quad_adaptive(
            lambda a: fn(a) * np.exp(-0.5 * (rho - a) ** 2) * cav1(a),
            lo, hi, start_panels=resolution)

    one = lambda a: np.ones_like(a)
    blo, bhi = -12.0 * sd - 14.0, 12.0 * sd + 14.0
    in_b0 = quad_adaptive(lambda b: np.exp(-0.5 * b * b) * cav1(b), blo, bhi,
                          start_panels=resolution)
    in_b2 = quad_adaptive(lambda b: b * b * np.exp(-0.5 * b * b) * cav1(b),
                          blo, bhi, start_panels=resolution)

    c_in = (1.0 - w) * (2.0 * math.pi) ** (-0.5 * d)
    z_in = c_in * in_a(one) * in_b0 ** (d - 1)
    ea_in = c_in * in_a(lambda a: a) * in_b0 ** (d - 1)
    ea2_in = c_in * in_a(lambda a: a * a) * in_b0 ** (d - 1)
    eb2_in = c_in * in_a(one) * (d - 1) * in_b2 * in_b0 ** (d - 2) if d > 1 else 0.0

    # clutter summand: constant in x, so cavity moments scale through
    c_cl = w * math.exp(log_normal_pdf(y, np.zeros(d), clutter_variance))
    z_cl = c_cl  # cavity is normalized
    ea_cl = 0.0  # E[a] under the centered cavity
    ea2_cl = c_cl * v
    eb2_cl = c_cl * (d - 1) * v

    z = z_in + z_cl
    if not z > 0.0:
        raise VanishingMassError("vanishing mass")
    ea = (ea_in + ea_cl) / z
    ea2 = (ea2_in + ea2_cl) / z
    eb2 = (eb2_in + eb2_cl) / z

    mean = m + ea * e
    # E|x|^2 = |m|^2 + 2 (m.e) E[a] + E[a^2] + E[|b|^2]
    ex2 = float(m @ m) + 2.0 * float(m @ e) * ea + ea2 + eb2
    variance = (ex2 - float(mean @ mean)) / d
    return z, mean, variance


# ---------------------------------------------------------------------------
# exact clutter posterior by 2^n enumeration
# ---------------------------------------------------------------------------

def clutter_mixture_components(data: np.ndarray, w: float,
                               prior_variance: float = 100.0,
                               clutter_variance: float = 10.0):
    """Log weight, mean, and spherical variance of every inlier/clutter
    assignment's conjugate posterior component; 2^n of them.

    Component k is the assignment whose inlier flags are the bits of k, most
    significant (observation 0) first: itertools.product((0, 1), repeat=n)
    order.  The flags stay boolean and each observation is added to the
    components that count it as an inlier (or clutter), so memory is
    O(2^n (n + d)) bytes and no 0 * log(0) product arises at w = 0 or 1.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = data.shape
    if n > 20:
        raise ValueError(
            f"n={n} exceeds the 2^n enumeration bound of 20; "
            "use importance sampling instead")

    k = np.arange(2 ** n)
    flags = np.empty((2 ** n, n), dtype=bool)
    for i in range(n):
        flags[:, i] = (k >> (n - 1 - i)) & 1

    log_inlier_coeff = math.log1p(-w) if w < 1.0 else -math.inf
    # Per component: log of (1-w) N(y_i; 0, I) for each inlier and of
    # w N(y_i; 0, clutter_variance I) for each clutter point, plus the
    # prior's normalizer; the conjugate integral over x is added after.
    log_ws = np.full(2 ** n, -0.5 * d * (LOG_2PI + math.log(prior_variance)))
    beta = np.zeros((2 ** n, d))
    for i, y in enumerate(data):
        inlier = flags[:, i]
        log_clutter = math.log(w) + log_normal_pdf(y, np.zeros(d), clutter_variance) \
            if w > 0.0 else -math.inf
        log_ws[inlier] += log_inlier_coeff - 0.5 * (d * LOG_2PI + float(y @ y))
        log_ws[~inlier] += log_clutter
        beta[inlier] += y
    tau = 1.0 / prior_variance + flags.sum(axis=1)
    log_ws += 0.5 * d * (LOG_2PI - np.log(tau)) \
        + 0.5 * np.sum(beta * beta, axis=1) / tau
    return log_ws, beta / tau[:, None], 1.0 / tau


def exact_clutter(data: np.ndarray, w: float, prior_variance: float = 100.0,
                  clutter_variance: float = 10.0) -> ExactPosteriorSummary:
    """Exact posterior for the clutter model: expand the product of two-part
    observation terms over all 2^n inlier/clutter assignments.

    Each assignment is a conjugate Gaussian with closed-form weight; evidence
    is a log-sum-exp over components and the moments are mixture moments.
    Refuses n > 20.
    """
    log_ws, means, variances = clutter_mixture_components(
        data, w, prior_variance, clutter_variance)
    d = means.shape[1]
    log_evidence = float(logsumexp(log_ws))
    if log_evidence == -math.inf:
        raise VanishingMassError("all mixture components carry zero weight")
    p = np.exp(log_ws - log_evidence)
    mean = p @ means
    delta = means - mean
    cov = float(p @ variances) * np.eye(d) + (p[:, None] * delta).T @ delta
    return ExactPosteriorSummary(log_evidence=log_evidence, mean=mean,
                                 covariance=cov, component_count=p.shape[0])


def conjugate_gaussian_posterior(data: np.ndarray, prior_variance: float):
    """Closed-form posterior and log marginal likelihood for y_i ~ N(x, I)
    with x ~ N(0, prior_variance I); the w=0 clutter special case."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = data.shape
    tau = 1.0 / prior_variance + n
    beta = data.sum(axis=0)
    log_c = -0.5 * n * d * LOG_2PI - 0.5 * float(np.sum(data * data)) \
        - 0.5 * d * (LOG_2PI + math.log(prior_variance))
    log_ml = log_c + 0.5 * d * (LOG_2PI - math.log(tau)) + 0.5 * float(beta @ beta) / tau
    return SphericalGaussian(mean=beta / tau, variance=1.0 / tau), log_ml


# ---------------------------------------------------------------------------
# importance sampling from the prior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImportanceResult:
    evidence: SampleEstimate
    posterior_mean: SampleEstimate
    max_log_weight: float = field(default=-math.inf)


def importance_sampler(log_likelihood: Callable[[np.ndarray], np.ndarray],
                       prior_mean: np.ndarray, prior_cov,
                       samples: int, seed: int) -> ImportanceResult:
    """Prior-based importance sampling for evidence and posterior mean.

    log_likelihood maps an (S, d) array of parameter draws to an (S,) array
    of log likelihood values.  Weights are exponentiated against their max
    so heavy tails cannot overflow.  PCG64 (numpy default_rng) keeps draws
    reproducible across platforms for a fixed seed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    prior_mean = np.atleast_1d(np.asarray(prior_mean, dtype=float))
    d = prior_mean.shape[0]
    cov = np.asarray(prior_cov, dtype=float)
    if cov.ndim == 0:
        cov = float(cov) * np.eye(d)
    rng = np.random.default_rng(seed)
    xs = rng.multivariate_normal(prior_mean, cov, size=samples,
                                 method="cholesky")
    log_w = np.asarray(log_likelihood(xs), dtype=float)
    max_lw = float(np.max(log_w))
    if max_lw == -math.inf:
        raise DegenerateWeightsError("degenerate weights")
    w = np.exp(log_w - max_lw)
    scale = math.exp(max_lw)

    ev = float(np.mean(w)) * scale
    ev_se = float(np.std(w, ddof=1)) / math.sqrt(samples) * scale if samples > 1 else 0.0

    wn = w / float(np.sum(w))
    mean = wn @ xs
    resid = xs - mean
    se = np.sqrt(np.sum((wn[:, None] * resid) ** 2, axis=0))
    return ImportanceResult(
        evidence=SampleEstimate(ev, ev_se, samples, seed),
        posterior_mean=SampleEstimate(mean, se, samples, seed),
        max_log_weight=max_lw)


# ---------------------------------------------------------------------------
# exhaustive discrete enumeration
# ---------------------------------------------------------------------------

def enumerate_discrete(net) -> tuple[dict, float]:
    """Exact marginals and log partition of a DiscreteFactorGraph by summing
    the factor product over every joint configuration (log-sum-exp).

    Refuses joint state spaces above 10^7.
    """
    cards = [c for _, c in net.variables]
    total = 1
    for c in cards:
        total *= c
        if total > 10 ** 7:
            raise ValueError("joint state space exceeds the 10^7 enumeration bound")
    index = {vid: axis for axis, (vid, _) in enumerate(net.variables)}

    with np.errstate(divide="ignore"):
        log_joint = np.zeros(tuple(cards))
        for f in net.factors:
            table = np.log(f.table.reshape([net.cardinality(v) for v in f.scope]))
            axes = [index[v] for v in f.scope]
            expanded = np.moveaxis(
                table.reshape(table.shape + (1,) * (len(cards) - len(axes))),
                range(len(axes)), axes)
            log_joint = log_joint + expanded

    log_partition = float(logsumexp(log_joint))
    marginals = {}
    for vid, axis in index.items():
        other = tuple(a for a in range(len(cards)) if a != axis)
        lm = logsumexp(log_joint, axis=other) if other else log_joint
        marginals[vid] = np.exp(lm - log_partition)
    return marginals, log_partition
