"""Robust Gaussian mean estimation with a known clutter fraction.

Each observation comes from N(x, I) with probability 1-w and from a broad
zero-centered clutter component N(0, CLUTTER_VARIANCE I) otherwise; the
posterior over x is approximated by a spherical Gaussian.  This module
supplies the analytic per-term moment match, synthetic data generation, and
the binding that plugs it into the ADF/EP engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import ModelBinding, OpTally, ep_log_evidence
from .gaussians import (
    LOG_2PI,
    ImproperProductError,
    NaturalSpherical,
    SphericalGaussian,
    ZeroNormalizerError,
    divide_out,
    log_normal_pdf,
    spherical_log_coeff,
    vacuous_spherical,
)

# The paper's one clutter problem: its constants, which the oracles share.
PRIOR_VARIANCE = 100.0
CLUTTER_VARIANCE = 10.0

# Rows per block of `ClutterModel.log_likelihood`: each per-block temporary
# is one float per row (64 KiB at d = 1), so the working set stays in cache
# and memory does not grow with the sample count.
LIKELIHOOD_BLOCK_ROWS = 8192
# Observations per log in `ClutterModel.log_likelihood`: a product of at
# most 512 factors in [1, 2] is at most 2^512, far below the float maximum.
LIKELIHOOD_CHUNK_TERMS = 512


@dataclass(frozen=True)
class ClutterModel:
    data: np.ndarray  # (n, d)
    w: float
    prior_variance: ClassVar[float] = PRIOR_VARIANCE
    clutter_variance: ClassVar[float] = CLUTTER_VARIANCE

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.data, dtype=float))
        object.__setattr__(self, "data", arr)
        bad = np.flatnonzero(~np.all(np.isfinite(arr), axis=1))
        if bad.size:
            raise ValueError(f"data must be finite; row {int(bad[0])} "
                             f"is {arr[bad[0]].tolist()}")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("clutter ratio w must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def log_clutter(self) -> np.ndarray:
        """log(w N(y_i; 0, clutter_variance I)) for each observation; -inf
        everywhere at w = 0."""
        if self.w == 0.0:
            return np.full(self.n, -math.inf)
        zero = np.zeros(self.d)
        return np.array([math.log(self.w) + log_normal_pdf(y, zero, self.clutter_variance)
                         for y in self.data])

    def log_likelihood(self, xs: np.ndarray) -> np.ndarray:
        """log p(D | x) for each row x of an (S, d) array: the sum over the
        observations of log((1-w) N(y_i; x, I) + w N(y_i; 0, v I)).

        Each term is a two-term log-sum-exp of log_in = log((1-w) N(y_i; x, I))
        against the observation's clutter constant c_i, written with
        delta = log_in - c_i as max(log_in, c_i) + log(1 + exp(-|delta|)).
        The maxima are summed and the factors 1 + exp(-|delta|) multiplied,
        so one log per row covers a chunk of LIKELIHOOD_CHUNK_TERMS
        observations; each factor lies in [1, 2], so a chunk's product
        cannot overflow.  At w = 0 or w = 1 one of log_in and c_i is -inf,
        so the factor is exactly 1 and the term is the other one exactly.
        Rows go through in blocks of LIKELIHOOD_BLOCK_ROWS with preallocated
        temporaries; a row's value does not depend on the other rows.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.d:
            raise ValueError(f"xs must have shape (S, {self.d}), got {xs.shape}")
        w, d = self.w, self.d
        in_const = (math.log1p(-w) if w < 1.0 else -math.inf) - 0.5 * d * LOG_2PI
        terms = list(zip(self.data, self.log_clutter()))
        s = xs.shape[0]
        out = np.zeros(s)
        rows = min(s, LIKELIHOOD_BLOCK_ROWS)
        resid, log_in = np.empty((rows, d)), np.empty(rows)
        tail, factor = np.empty(rows), np.empty(rows)
        for start in range(0, s, LIKELIHOOD_BLOCK_ROWS):
            block = xs[start:start + LIKELIHOOD_BLOCK_ROWS]
            acc = out[start:start + LIKELIHOOD_BLOCK_ROWS]
            m = block.shape[0]
            li, t, f = log_in[:m], tail[:m], factor[:m]
            # at d = 1 the squared residual is log_in itself: no row sums
            r = li if d == 1 else resid[:m]
            x = block[:, 0] if d == 1 else block
            for first in range(0, len(terms), LIKELIHOOD_CHUNK_TERMS):
                f.fill(1.0)
                for y, c in terms[first:first + LIKELIHOOD_CHUNK_TERMS]:
                    np.subtract(x, y, out=r)
                    np.multiply(r, r, out=r)
                    if d > 1:
                        np.sum(r, axis=1, out=li)
                    li *= 0.5
                    np.subtract(in_const, li, out=li)
                    np.minimum(li, c, out=t)
                    np.maximum(li, c, out=li)
                    acc += li
                    t -= li
                    np.exp(t, out=t)
                    t += 1.0
                    f *= t
                np.log(f, out=f)
                acc += f
        return out


@dataclass(frozen=True)
class ClutterDataSpec:
    x_true: np.ndarray
    n: int
    w: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "x_true",
                           np.atleast_1d(np.asarray(self.x_true, dtype=float)))
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must lie in [0, 1]")

    @property
    def d(self) -> int:
        return self.x_true.shape[0]


def generate_clutter_data(spec: ClutterDataSpec) -> ClutterModel:
    """Draw n points from (1-w) N(x_true, I) + w N(0, CLUTTER_VARIANCE I),
    reproducibly for a fixed seed (PCG64 stream)."""
    rng = np.random.default_rng(spec.seed)
    is_clutter = rng.random(spec.n) < spec.w
    normals = rng.standard_normal((spec.n, spec.d))
    data = np.where(is_clutter[:, None],
                    normals * math.sqrt(CLUTTER_VARIANCE),
                    spec.x_true[None, :] + normals)
    return ClutterModel(data=data, w=spec.w)


@dataclass(frozen=True)
class ClutterMatch:
    posterior: SphericalGaussian
    z: float
    log_z: float
    r: float


def _tilted_moments(m: np.ndarray, v: float, y: np.ndarray, w: float,
                    log_clutter: float) -> tuple[np.ndarray, float, float, float]:
    """(mean, variance, log Z, r) of one observation term against the
    spherical cavity N(m, v I), where log_clutter is the term's
    x-independent log(w N(y; 0, clutter_variance I)).

    Z mixes the through-the-cavity inlier density with the clutter density;
    r is the responsibility of the inlier component.  The variance update
    carries the mean-shift term divided by d: with E[x' x] matched, the
    spherical projection is trace/d of the full tilted covariance.
    """
    d = m.shape[0]
    with np.errstate(over="ignore"):  # huge residuals -> -inf log density
        resid = y - m
        rr = float(resid @ resid)
    log_in = math.log1p(-w) + (-0.5 * d * (LOG_2PI + math.log(v + 1.0))
                               - 0.5 * rr / (v + 1.0)) if w < 1.0 else -math.inf
    top, low = (log_in, log_clutter) if log_in > log_clutter else (log_clutter, log_in)
    if top == -math.inf:
        raise ZeroNormalizerError("zero normalizer")
    # numpy's exp, as in _logsumexp: math.exp rounds differently
    log_z = top + math.log(1.0 + float(np.exp(low - top)))
    r = -math.expm1(log_clutter - log_z)  # 1 - clutter share, in [0, 1]
    mean = m + (v * r / (v + 1.0)) * resid
    variance = v - r * v * v / (v + 1.0) \
        + r * (1.0 - r) * v * v * rr / (d * (v + 1.0) ** 2)
    if not 0.0 < variance < math.inf:
        raise ValueError(f"variance must be finite and positive, got {variance}")
    return mean, variance, log_z, r


def clutter_moment_match(cavity: SphericalGaussian, y: np.ndarray,
                         w: float) -> ClutterMatch:
    """Spherical moment match of one observation term against the cavity
    (see `_tilted_moments`)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    log_cl = math.log(w) + log_normal_pdf(y, np.zeros(cavity.dim), CLUTTER_VARIANCE) \
        if w > 0.0 else -math.inf
    mean, variance, log_z, r = _tilted_moments(cavity.mean, cavity.variance, y, w, log_cl)
    return ClutterMatch(posterior=SphericalGaussian.trusted(mean, variance),
                        z=math.exp(log_z), log_z=log_z, r=r)


class ClutterBinding(ModelBinding):
    """Engine binding for the clutter model (spherical Gaussian family).

    Elementary-operation charges: length-d vector operations cost d, scalar
    updates cost 1 each.  Per site visit: cavity 2d+2, moment match 6d+12
    (the tilted moments 4d+8, the site from them 2d+4), recombination 2d+2;
    10d+16 in all.  Evidence evaluation charges (n+1)(d+2).
    """

    def __init__(self, model: ClutterModel):
        self.model = model
        self.tally = OpTally()
        self._prior = SphericalGaussian(mean=np.zeros(model.d),
                                        variance=model.prior_variance)
        self._log_clutter = model.log_clutter().tolist()

    @property
    def site_count(self) -> int:
        return self.model.n

    def prior(self) -> SphericalGaussian:
        return self._prior

    def vacuous_site(self, i: int) -> NaturalSpherical:
        return vacuous_spherical(self.model.d)

    def cavity(self, posterior, site):
        self.tally.add(2 * self.model.d + 2)
        return divide_out(posterior, site)

    def moment_match(self, cavity, i: int):
        """The site Z * q' / cavity of the oracle-gated tilted moments q'
        against the cavity, in natural parameters from the moment scalars."""
        self.tally.add(6 * self.model.d + 12)
        m, v = cavity.mean, cavity.variance
        mean, variance, log_z, _ = _tilted_moments(
            m, v, self.model.data[i], self.model.w, self._log_clutter[i])
        tau = 1.0 / variance - 1.0 / v
        shift = mean / variance - m / v
        coeff = log_z + spherical_log_coeff(mean, variance) - spherical_log_coeff(m, v)
        if tau == 0.0:
            return NaturalSpherical.trusted(0.0, np.zeros_like(shift), coeff), log_z
        log_scale = coeff + 0.5 * float(shift @ shift) / tau
        return NaturalSpherical.trusted(tau, shift, log_scale), log_z

    def recombine(self, cavity, site):
        self.tally.add(2 * self.model.d + 2)
        tau = cavity.precision + site.precision
        if tau <= 0.0:
            raise ImproperProductError("improper product")
        variance = 1.0 / tau
        if not 0.0 < variance < math.inf:
            raise ValueError(f"variance must be finite and positive, got {variance}")
        return SphericalGaussian.trusted((cavity.shift + site.shift) / tau, variance)

    def log_evidence(self, posterior, sites) -> float:
        self.tally.add((len(sites) + 1) * (self.model.d + 2))
        return ep_log_evidence(self._prior, posterior, sites)

