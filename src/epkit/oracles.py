"""Independent brute-force ground truth.

Everything in this module is deliberately dumb: exhaustive mixture
enumeration, panel quadrature, prior-based importance sampling, full joint
enumeration.  Analytic fast paths elsewhere in the package are tested
*against* these; on any disagreement the oracle wins.

"Dumb" is about what an oracle computes, not how: the clutter oracle
evaluates every one of the 2^n mixture components and shares no moment
matching or site algebra with the model code, but it does so with array
operations over all components at once rather than a Python loop.

One oracle is closed-form rather than exhaustive: `exact_bpm_step`, the
zero-slack BPM posterior in d <= 3, is spherical geometry (the prior cut
to a polyhedral cone) and shares nothing with EP; it is itself checked
against prior importance sampling.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clutter import CLUTTER_VARIANCE, PRIOR_VARIANCE
from .gaussians import LOG_2PI, SphericalGaussian, _logsumexp, log_normal_pdf


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

@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 40-point Gauss-Legendre rule, built on first
    use: only the quadrature oracles need numpy.polynomial's import."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(40)


def _panel_integrate(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                     panels: int) -> float:
    """Composite Gauss-Legendre integral of f over [lo, hi]."""
    nodes, weights = _gauss_legendre()
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs = 0.5 * (a + b) + half * nodes
        total += half * float(weights @ np.asarray(f(xs), dtype=float))
    return total


def quad_adaptive(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                  start_panels: int = 8) -> float:
    """Panel-doubling quadrature: refine until successive estimates agree to
    1e-12 relative, or 4096 panels are reached."""
    panels = start_panels
    prev = _panel_integrate(f, lo, hi, panels)
    while panels < 4096:
        panels *= 2
        cur = _panel_integrate(f, lo, hi, panels)
        if abs(cur - prev) <= 1e-12 * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def tilted_moments_quadrature(cavity_mean: float, cavity_variance: float,
                              term: Callable[[np.ndarray], np.ndarray],
                              features: tuple[tuple[float, float], ...] = (),
                              breakpoints: tuple[float, ...] = (),
                              resolution: int = 8):
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
        return sum(quad_adaptive(f, a, b, start_panels=resolution)
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
                               breakpoints: tuple[float, ...] = ()):
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
        mu, q, term, features=((0.0, 1.0),), breakpoints=breakpoints)
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


def clutter_tilted_moments(cavity: SphericalGaussian, y: np.ndarray, w: float):
    """Quadrature tilted moments for one clutter-mixture observation term.

    t(x) = (1-w) N(y; x, I) + w N(y; 0, CLUTTER_VARIANCE I) against a
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
    e = diff / rho if rho > 0 else np.eye(1, d)[0]  # any unit vector at rho = 0

    lo, hi = -12.0 * sd, 12.0 * sd
    lo = min(lo, rho - 14.0)
    hi = max(hi, rho + 14.0)

    def cav1(a):
        return np.exp(-0.5 * a * a / v) / math.sqrt(2.0 * math.pi * v)

    # inlier summand: (1-w) (2 pi)^{-d/2} e^{-(rho-a)^2/2} e^{-|b|^2/2}
    def in_a(fn):
        return quad_adaptive(
            lambda a: fn(a) * np.exp(-0.5 * (rho - a) ** 2) * cav1(a), lo, hi)

    one = lambda a: np.ones_like(a)
    blo, bhi = -12.0 * sd - 14.0, 12.0 * sd + 14.0
    in_b0 = quad_adaptive(lambda b: np.exp(-0.5 * b * b) * cav1(b), blo, bhi)
    in_b2 = quad_adaptive(lambda b: b * b * np.exp(-0.5 * b * b) * cav1(b),
                          blo, bhi)

    c_in = (1.0 - w) * (2.0 * math.pi) ** (-0.5 * d)
    z_in = c_in * in_a(one) * in_b0 ** (d - 1)
    ea_in = c_in * in_a(lambda a: a) * in_b0 ** (d - 1)
    ea2_in = c_in * in_a(lambda a: a * a) * in_b0 ** (d - 1)
    eb2_in = c_in * in_a(one) * (d - 1) * in_b2 * in_b0 ** (d - 2) if d > 1 else 0.0

    # clutter summand: constant in x, so cavity moments scale through
    c_cl = w * math.exp(log_normal_pdf(y, np.zeros(d), CLUTTER_VARIANCE))
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

def clutter_mixture_components(data: np.ndarray, w: float):
    """Log weight, mean, and spherical variance of every inlier/clutter
    assignment's conjugate posterior component; 2^n of them.

    Component k is the assignment whose inlier flags are the bits of k, most
    significant (observation 0) first: itertools.product((0, 1), repeat=n)
    order.  The flags stay boolean and each observation's term is written
    under its flag (inlier or clutter) before it is added, so memory is
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
    # w N(y_i; 0, CLUTTER_VARIANCE I) for each clutter point, plus the
    # prior's normalizer; the conjugate integral over x is added after.
    log_ws = np.full(2 ** n, -0.5 * d * (LOG_2PI + math.log(PRIOR_VARIANCE)))
    beta = np.zeros((2 ** n, d))
    add = np.empty(2 ** n)
    for i, y in enumerate(data):
        inlier = flags[:, i]
        log_clutter = math.log(w) + log_normal_pdf(y, np.zeros(d), CLUTTER_VARIANCE) \
            if w > 0.0 else -math.inf
        add.fill(log_clutter)
        np.copyto(add, log_inlier_coeff - 0.5 * (d * LOG_2PI + float(y @ y)), where=inlier)
        log_ws += add
        np.add(beta, y, out=beta, where=inlier[:, None])
    tau = 1.0 / PRIOR_VARIANCE + flags.sum(axis=1)
    log_ws += 0.5 * d * (LOG_2PI - np.log(tau)) \
        + 0.5 * np.sum(beta * beta, axis=1) / tau
    return log_ws, beta / tau[:, None], 1.0 / tau


def exact_clutter(data: np.ndarray, w: float) -> ExactPosteriorSummary:
    """Exact posterior for the clutter model: expand the product of two-part
    observation terms over all 2^n inlier/clutter assignments.

    Each assignment is a conjugate Gaussian with closed-form weight; evidence
    is a log-sum-exp over components and the moments are mixture moments.
    Refuses n > 20.
    """
    log_ws, means, variances = clutter_mixture_components(data, w)
    d = means.shape[1]
    log_evidence = _logsumexp(log_ws)
    if log_evidence == -math.inf:
        raise VanishingMassError("all mixture components carry zero weight")
    p = np.exp(log_ws - log_evidence)
    mean = p @ means
    delta = means - mean
    cov = float(p @ variances) * np.eye(d) + (p[:, None] * delta).T @ delta
    return ExactPosteriorSummary(log_evidence=log_evidence, mean=mean,
                                 covariance=cov, component_count=p.shape[0])


def conjugate_gaussian_posterior(data: np.ndarray):
    """Closed-form posterior and log marginal likelihood for y_i ~ N(x, I)
    with x ~ N(0, PRIOR_VARIANCE I); the w=0 clutter special case."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = data.shape
    tau = 1.0 / PRIOR_VARIANCE + n
    beta = data.sum(axis=0)
    log_c = -0.5 * n * d * LOG_2PI - 0.5 * float(np.sum(data * data)) \
        - 0.5 * d * (LOG_2PI + math.log(PRIOR_VARIANCE))
    log_ml = log_c + 0.5 * d * (LOG_2PI - math.log(tau)) + 0.5 * float(beta @ beta) / tau
    return SphericalGaussian(mean=beta / tau, variance=1.0 / tau), log_ml


# ---------------------------------------------------------------------------
# exact BPM posterior under a step likelihood, d <= 3
# ---------------------------------------------------------------------------

# Normals closer than this (radians, as |a x b|) to parallel count as one
# plane, or as an empty cone when they point opposite ways; an edge of the
# spherical polygon shorter than _MIN_EDGE radians carries no mass.
_PARALLEL_TOL = 1e-12
_MIN_EDGE = 1e-12


def _arc(normals: np.ndarray) -> tuple[float, float]:
    """The arc [lo, hi] of unit-circle angles phi with b . (cos phi, sin phi)
    >= 0 for every row b of `normals` (non-zero 2-vectors); hi <= lo when it
    has no length.

    Each row allows a half circle centered on its own angle.  Measured from
    the first row's angle, every other half circle meets the first in one
    interval, so the arc is the intersection of those intervals.
    """
    beta = np.arctan2(normals[:, 1], normals[:, 0])
    delta = (beta - beta[0] + math.pi) % (2.0 * math.pi) - math.pi
    lo = float(np.max(delta)) - 0.5 * math.pi
    hi = float(np.min(delta)) + 0.5 * math.pi
    return float(beta[0]) + lo, float(beta[0]) + hi


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    """The angle between two 3-vectors, accurate near 0 and pi."""
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(a @ b))


def _circle_basis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal pair (p, q) spanning the plane orthogonal to unit a."""
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(a)))] = 1.0
    p = axis - float(axis @ a) * a
    p /= np.linalg.norm(p)
    return p, np.cross(a, p)


def exact_bpm_step(directions: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact log evidence and posterior mean of w ~ N(0, I_d) restricted to
    the cone {w : a . w > 0 for every row a of `directions`}, for d <= 3.

    This is the zero-slack Bayes Point Machine: the rows are the label-scaled
    points y_i x_i and the likelihood is a step in every margin.  The prior
    is rotation invariant, so w = r theta with r ~ chi_d independent of
    theta, uniform on the unit sphere.  The evidence is then the cone's
    share of the sphere, and E[w 1_C] = E[r] E[theta 1_C].

    * d = 1: the cone is a half-line (evidence 1/2) when every row has the
      same sign.
    * d = 2: the cone cuts an arc [lo, hi] from the circle; the evidence is
      (hi - lo) / 2 pi and the integral of theta over the arc is
      (sin hi - sin lo, cos lo - cos hi).
    * d = 3: the cone cuts a convex spherical polygon P.  Each plane a^perp
      carries one edge, the arc of its great circle that the other
      constraints allow, of length theta_a.  The divergence theorem on the
      solid cone over P gives int_P theta = 1/2 sum theta_a a_hat, and the
      area of P is its spherical excess (Girard): 2 pi minus the angles
      between the normals of consecutive edges.  A hemisphere (one edge of
      length 2 pi) and a lune (two edges of length pi) are the same formula
      with no or two vertices.

    No rows gives the prior (log evidence 0, mean 0).  An empty or
    measure-zero cone raises VanishingMassError; that includes a zero row
    and two opposite rows, whose margins cannot both be positive.
    """
    a = np.asarray(directions, dtype=float)
    if a.ndim != 2 or not 1 <= a.shape[1] <= 3:
        raise ValueError(f"directions must have shape (n, d) with 1 <= d <= 3, "
                         f"got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("directions must be finite")
    n, d = a.shape
    if n == 0:
        return 0.0, np.zeros(d)
    norms = np.linalg.norm(a, axis=1)
    if not np.all(norms > 0.0):
        raise VanishingMassError(f"direction {int(np.argmin(norms))} is zero")
    a = a / norms[:, None]

    if d == 1:
        if not (np.all(a > 0.0) or np.all(a < 0.0)):
            raise VanishingMassError("the rows' signs disagree: the cone is empty")
        return math.log(0.5), np.array([float(a[0, 0]) * math.sqrt(2.0 / math.pi)])

    if d == 2:
        lo, hi = _arc(a)
        if not hi - lo > _MIN_EDGE:
            raise VanishingMassError("the cone has no interior")
        mean = math.sqrt(0.5 * math.pi) / (hi - lo) * np.array(
            [math.sin(hi) - math.sin(lo), math.cos(lo) - math.cos(hi)])
        return math.log((hi - lo) / (2.0 * math.pi)), mean

    unique: list[np.ndarray] = []
    for row in a:
        for u in unique:
            if np.linalg.norm(np.cross(row, u)) <= _PARALLEL_TOL:
                if float(row @ u) < 0.0:
                    raise VanishingMassError("two opposite directions: "
                                             "the cone has no interior")
                break
        else:
            unique.append(row)
    normals = np.array(unique)

    edges = []   # (length, unit normal, midpoint) of each edge of P
    for k, u in enumerate(normals):
        others = np.delete(normals, k, axis=0)
        if not others.size:
            edges.append((2.0 * math.pi, u, None))
            continue
        p, q = _circle_basis(u)
        lo, hi = _arc(np.stack([others @ p, others @ q], axis=1))
        if hi - lo > _MIN_EDGE:
            mid = 0.5 * (lo + hi)
            edges.append((hi - lo, u, math.cos(mid) * p + math.sin(mid) * q))
    if not edges:
        raise VanishingMassError("the cone has no interior")

    moment = 0.5 * sum(length * u for length, u, _ in edges)   # int_P theta
    if len(edges) > 2:
        # Going round P: sort the edges by the angle of their midpoints about
        # the direction of int_P theta, which lies inside P.
        p, q = _circle_basis(moment / np.linalg.norm(moment))
        edges.sort(key=lambda e: math.atan2(float(e[2] @ q), float(e[2] @ p)))
    turning = sum(_angle(edges[k - 1][1], edges[k][1]) for k in range(len(edges)))
    area = 2.0 * math.pi - turning
    if not area > _MIN_EDGE:
        raise VanishingMassError("the cone has no interior")
    # E[r] = 2 sqrt(2/pi) for chi_3, and E[theta 1_C] = moment / (4 pi)
    mean = 2.0 * math.sqrt(2.0 / math.pi) * moment / area
    return math.log(area / (4.0 * math.pi)), mean


# ---------------------------------------------------------------------------
# importance sampling from the prior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImportanceResult:
    """`evidence` is linear, with its standard error; `log_evidence` is its
    log, taken in log domain so it stays finite when `evidence` underflows."""
    evidence: SampleEstimate
    posterior_mean: SampleEstimate
    log_evidence: float


def importance_sampler(log_likelihood: Callable[[np.ndarray], np.ndarray],
                       prior_mean: np.ndarray, prior_cov,
                       samples: int, seed: int, *,
                       buffers: dict | None = None) -> ImportanceResult:
    """Prior-based importance sampling for evidence and posterior mean from
    `samples` draws: the one-count case of `nested_importance_sampler`.
    Raises DegenerateWeightsError when no draw has nonzero likelihood."""
    result, = nested_importance_sampler(log_likelihood, prior_mean, prior_cov,
                                        (samples,), seed, buffers=buffers)
    if result is None:
        raise DegenerateWeightsError("degenerate weights")
    return result


def _buffer(buffers: dict, name: str, size: int) -> np.ndarray:
    """The first `size` entries of buffers[name], replaced when too small."""
    if buffers.get(name, np.empty(0)).size < size:
        buffers[name] = np.empty(size)
    return buffers[name][:size]


def nested_importance_sampler(log_likelihood: Callable[[np.ndarray], np.ndarray],
                              prior_mean: np.ndarray, prior_cov: np.ndarray,
                              counts, seed: int, *, buffers: dict | None = None
                              ) -> tuple[ImportanceResult | None, ...]:
    """Prior-based importance sampling for evidence and posterior mean at
    each sample count in `counts`, from nested prefixes of one draw.

    PCG64 (numpy default_rng) keeps draws reproducible across platforms for
    a fixed seed, and its standard normal rows are prefix-stable: the first
    S rows of a larger draw are the rows a draw of S gives.  So the
    max(counts) draws are made once, as mean + z L^T for standard normal
    rows z and the Cholesky factor L of the covariance (the same numbers
    `rng.multivariate_normal(..., method="cholesky")` gives; a diagonal
    covariance scales z by the standard deviations instead, which gives the
    same bits without a matrix product), and
    log_likelihood is called once, on that (S, d) array.  It must return
    an (S,) array of log likelihood values in which each row's value does
    not depend on the other rows (so it may evaluate the rows in blocks);
    another shape is rejected with a ValueError.  So, before any draw, is
    a prior_mean or prior_cov with a non-finite entry (named with its
    index) or a prior_cov that is not positive definite.

    Each count's estimate reads its prefix, so it equals a separate draw of
    that count bit for bit.  Its weights are exponentiated against the
    prefix's own max, so heavy tails cannot overflow; a NaN or +inf in the
    prefix raises ValueError naming the first bad index, and a prefix of
    all -inf (zero likelihood) gives None in place of that count's
    estimate.  Sums over the draws are numpy reductions, not BLAS products,
    so an estimate does not depend on the BLAS thread count.

    The draws and every (S,) or (S, d) temporary live in `buffers`, a dict
    of named float64 arrays grown on demand (a fresh one by default); an
    experiment passes one dict to every call of a run and drops it after.
    So the draws log_likelihood receives are valid only during the call.
    """
    counts = tuple(counts)
    if not counts or min(counts) < 1:
        raise ValueError("need at least one sample")
    samples = max(counts)
    prior_mean = np.atleast_1d(np.asarray(prior_mean, dtype=float))
    d = prior_mean.shape[0]
    cov = np.asarray(prior_cov, dtype=float)
    if cov.shape != (d, d):
        raise ValueError(f"prior_cov must have shape {(d, d)} to match prior_mean "
                         f"of shape {prior_mean.shape}, got {cov.shape}")
    for name, arr in (("prior_mean", prior_mean), ("prior_cov", cov)):
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            at = tuple(bad[0].tolist())
            raise ValueError(f"{name} must be finite; entry "
                             f"{at[0] if len(at) == 1 else at} is {arr[at]}")
    diagonal = np.count_nonzero(cov) == d and bool(np.all(np.diagonal(cov) > 0.0))
    try:
        chol = None if diagonal else np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("prior_cov is not positive definite") from None
    buffers = {} if buffers is None else buffers
    draws = _buffer(buffers, "draws", samples * d).reshape(samples, d)
    work = _buffer(buffers, "work", samples * d)
    weights = _buffer(buffers, "weights", samples)
    rng = np.random.default_rng(seed)
    if diagonal:
        # diagonal: L = diag(sqrt(cov_ii)), so scaling z in place gives z L^T
        rng.standard_normal(out=draws)
        draws *= np.sqrt(np.diagonal(cov))
    else:
        z = work.reshape(samples, d)
        np.matmul(rng.standard_normal(out=z), chol.T, out=draws)
    draws += prior_mean
    log_ws = np.asarray(log_likelihood(draws), dtype=float)
    if log_ws.shape != (samples,):
        raise ValueError(f"log_likelihood must return shape ({samples},), "
                         f"got {log_ws.shape}")
    results = []
    for count in counts:
        log_w, xs = log_ws[:count], draws[:count]
        max_lw = float(np.max(log_w))
        if not max_lw < math.inf:  # NaN or +inf somewhere
            bad = int(np.flatnonzero(np.isnan(log_w) | (log_w == math.inf))[0])
            raise ValueError(f"log_likelihood must not be NaN or +inf; "
                             f"index {bad} is {log_w[bad]}")
        if max_lw == -math.inf:
            results.append(None)
            continue
        w = np.exp(np.subtract(log_w, max_lw, out=weights[:count]), out=weights[:count])
        scale = math.exp(max_lw)

        mean_w = float(np.mean(w))  # at least 1 / count: the max weight is 1
        ev = mean_w * scale
        # np.std(w, ddof=1) written out in place; at count 1 the deviation is 0
        dev = np.square(np.subtract(w, mean_w, out=work[:count]), out=work[:count])
        ev_se = math.sqrt(float(np.sum(dev)) / max(count - 1, 1)) / math.sqrt(count) * scale

        wn = np.divide(w, float(np.sum(w)), out=w)[:, None]
        wx = np.multiply(wn, xs, out=work[:count * d].reshape(count, d))
        mean = np.sum(wx, axis=0)
        dev = np.multiply(wn, np.subtract(xs, mean, out=wx), out=wx)
        se = np.sqrt(np.sum(np.square(dev, out=dev), axis=0))
        results.append(ImportanceResult(
            evidence=SampleEstimate(ev, ev_se, count, seed),
            posterior_mean=SampleEstimate(mean, se, count, seed),
            log_evidence=max_lw + math.log(mean_w)))
    return tuple(results)


# ---------------------------------------------------------------------------
# exhaustive discrete enumeration
# ---------------------------------------------------------------------------

def enumerate_discrete(net) -> tuple[dict, float]:
    """Exact marginals and log partition of a DiscreteFactorGraph by summing
    the factor product over every joint configuration (log-sum-exp).

    Refuses joint state spaces above 10^7; a product that is zero at every
    joint state raises VanishingMassError.
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

    log_partition = _logsumexp(log_joint)
    if log_partition == -math.inf:
        raise VanishingMassError("the factor product is zero at every joint state")
    marginals = {}
    for vid, axis in index.items():
        other = tuple(a for a in range(len(cards)) if a != axis)
        lm = _logsumexp(log_joint, axis=other) if other else log_joint
        marginals[vid] = np.exp(lm - log_partition)
    return marginals, log_partition
