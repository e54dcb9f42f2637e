"""Robust Gaussian mean estimation with a known clutter fraction.

Each observation comes from N(x, I) with probability 1-w and from a broad
zero-centered clutter component N(0, CLUTTER_VARIANCE I) otherwise; the
posterior over x is approximated by a spherical Gaussian.  This module
supplies the analytic per-term moment match, synthetic data generation, and
the binding that plugs it into the ADF/EP engine.  At d = 1, as the data
decide, the binding's fit holds its means and shifts as Python floats:
same bits, same charges, one visit path for every d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import ModelBinding, OpTally, ep_log_evidence
from .gaussians import (
    LOG_2PI,
    _SQRT_HALF,
    ImproperProductError,
    NaturalSpherical,
    SphericalGaussian,
    ZeroNormalizerError,
    log_normal_pdf,
    spherical_log_coeff,
    squared_norm,
)

# The paper's one clutter problem: its constants, which the oracles share.
PRIOR_VARIANCE = 100.0
CLUTTER_VARIANCE = 10.0

# Rows per block of `ClutterModel.log_likelihood`: each per-block temporary
# is one float per row at d = 1 (128 KiB), so the working set stays in a
# 2 MiB L2 and memory does not grow with the sample count.  At n = 12, with
# every term in offset-factor form, 10^5 rows take 532 ufunc calls.
LIKELIHOOD_BLOCK_ROWS = 16384
# Observations per log in `ClutterModel.log_likelihood`, and the smallest
# floor B_i = exp(c_i - M_i) of a term in offset-factor form.  Such a term's
# factor lies in [B_i, 1 + B_i] and a max-form one in [1, 2], so a chunk's
# product lies in [2^-960, 2^24], inside the normal float range.
LIKELIHOOD_CHUNK_TERMS = 24
LIKELIHOOD_MIN_FLOOR = 2.0 ** -40


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
        log_cl = np.array([_log_clutter(y, self.w) for y in arr], dtype=float)
        log_cl.flags.writeable = False
        object.__setattr__(self, "_log_clutter", log_cl)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def log_clutter(self) -> np.ndarray:
        """log(w N(y_i; 0, clutter_variance I)) for each observation, as
        computed once at construction (read-only); -inf everywhere at
        w = 0."""
        return self._log_clutter

    def log_likelihood(self, xs: np.ndarray) -> np.ndarray:
        """log p(D | x) for each row x of an (S, d) array: the sum over the
        observations of log((1-w) N(y_i; x, I) + w N(y_i; 0, v I)).

        Term i is log(exp(ic - h_i) + exp(c_i)), with h_i = |x - y_i|^2 / 2,
        the inlier constant ic = log(1-w) - d log(2 pi) / 2 and the clutter
        constant c_i.  With M_i = max(ic, c_i), A_i = ic - M_i <= 0 and the
        floor B_i = exp(c_i - M_i) in [0, 1], it is written in offset-factor
        form as M_i + log(exp(A_i - h_i) + B_i): the M_i are summed once per
        call, and the factor, in [B_i, 1 + B_i], needs no per-row max.  The
        block is scaled by sqrt(1/2) once, so h_i takes no multiply.  A term
        whose floor is below LIKELIHOOD_MIN_FLOOR (every term at w = 0, and
        data far out in the clutter tail) is instead written in max form, as
        max(li, c_i) + log(1 + exp(min(li, c_i) - max(li, c_i))) with
        li = ic - h_i, exact there; at w = 1 a term is c_i alone.  The
        factors of a chunk of LIKELIHOOD_CHUNK_TERMS terms are multiplied so
        that one log per row covers the chunk.  Rows go through in blocks of
        LIKELIHOOD_BLOCK_ROWS with preallocated temporaries; a row's value
        does not depend on the other rows.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.d:
            raise ValueError(f"xs must have shape (S, {self.d}), got {xs.shape}")
        w, d = self.w, self.d
        in_const = (math.log1p(-w) if w < 1.0 else -math.inf) - 0.5 * d * LOG_2PI
        # (y_i sqrt(1/2), A_i, B_i) in offset-factor form, (y_i, None, c_i) in
        # max form; the offsets M_i, and the whole terms at w = 1, are summed
        offset, terms = 0.0, []
        for y, c in zip(self.data, self.log_clutter()):
            if in_const == -math.inf:
                offset += c
                continue
            top = max(in_const, c)
            floor = math.exp(c - top)
            if floor >= LIKELIHOOD_MIN_FLOOR:
                offset += top
                terms.append((y * _SQRT_HALF, in_const - top, floor))
            else:
                terms.append((y, None, c))
        s = xs.shape[0]
        out = np.full(s, offset)
        rows = min(s, LIKELIHOOD_BLOCK_ROWS)
        maxed = [a is None for _, a, _ in terms]
        # at d = 1 the squared residual is log_in itself, with no row sums,
        # and every temporary is one float per row
        log_in, factor = np.empty(rows), np.empty(rows)
        resid = log_in if d == 1 else np.empty((rows, d))
        scaled = None if all(maxed) else np.empty(resid.shape)
        tail = np.empty(rows) if any(maxed) else None
        for start in range(0, s, LIKELIHOOD_BLOCK_ROWS):
            block = xs[start:start + LIKELIHOOD_BLOCK_ROWS]
            acc = out[start:start + LIKELIHOOD_BLOCK_ROWS]
            m = block.shape[0]
            li, r, f = log_in[:m], resid[:m], factor[:m]
            x = block[:, 0] if d == 1 else block
            half = None if scaled is None else np.multiply(x, _SQRT_HALF, out=scaled[:m])
            for first in range(0, len(terms), LIKELIHOOD_CHUNK_TERMS):
                f.fill(1.0)
                for y, a, b in terms[first:first + LIKELIHOOD_CHUNK_TERMS]:
                    np.subtract(x if a is None else half, y, out=r)
                    np.square(r, out=r)
                    if d > 1:
                        np.sum(r, axis=1, out=li)
                    if a is None:
                        t = tail[:m]
                        li *= 0.5
                        np.subtract(in_const, li, out=li)
                        np.minimum(li, b, out=t)
                        np.maximum(li, b, out=li)
                        acc += li
                        t -= li
                        np.exp(t, out=t)
                        t += 1.0
                        f *= t
                    else:
                        np.subtract(a, li, out=li)
                        np.exp(li, out=li)
                        li += b
                        f *= li
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


def _tilted_moments(m, v: float, y, w: float, log_clutter: float):
    """(mean, variance, log Z, r) of one observation term against the
    spherical cavity N(m, v I), where log_clutter is the term's
    x-independent log(w N(y; 0, clutter_variance I)).  m, y and the mean
    are 1-D arrays, or floats with the 1-element arrays' bits at d = 1.

    Z mixes the through-the-cavity inlier density with the clutter density;
    r is the responsibility of the inlier component.  The variance update
    carries the mean-shift term divided by d: with E[x' x] matched, the
    spherical projection is trace/d of the full tilted covariance.
    """
    if isinstance(m, float):  # float overflow gives inf without a warning
        d, resid = 1, y - m
        rr = resid * resid
    else:
        d = m.shape[0]
        with np.errstate(over="ignore"):  # huge residuals -> -inf log density
            resid = y - m
            rr = float(resid @ resid)
    log_in = math.log1p(-w) + (-0.5 * d * (LOG_2PI + math.log(v + 1.0))
                               - 0.5 * rr / (v + 1.0)) if w < 1.0 else -math.inf
    top, low = (log_in, log_clutter) if log_in > log_clutter else (log_clutter, log_in)
    if top == -math.inf:
        raise ZeroNormalizerError("zero normalizer")
    # numpy's exp, as in exact_clutter's log-sum-exp: math.exp rounds differently
    log_z = top + math.log(1.0 + float(np.exp(low - top)))
    r = -math.expm1(log_clutter - log_z)  # 1 - clutter share, in [0, 1]
    mean = m + (v * r / (v + 1.0)) * resid
    variance = v - r * v * v / (v + 1.0) \
        + r * (1.0 - r) * v * v * rr / (d * (v + 1.0) ** 2)
    if not 0.0 < variance < math.inf:
        raise ValueError(f"variance must be finite and positive, got {variance}")
    return mean, variance, log_z, r


def _log_clutter(y: np.ndarray, w: float) -> float:
    """log(w N(y; 0, CLUTTER_VARIANCE I)) of one observation; -inf at w = 0."""
    if not w > 0.0:
        return -math.inf
    return math.log(w) + log_normal_pdf(y, np.zeros(y.shape[0]), CLUTTER_VARIANCE)


def clutter_moment_match(cavity: SphericalGaussian, y: np.ndarray,
                         w: float) -> ClutterMatch:
    """Spherical moment match of one observation term against the cavity
    (see `_tilted_moments`)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != cavity.mean.shape:
        raise ValueError(f"dimension mismatch: y {y.shape} vs m {cavity.mean.shape}")
    mean, variance, log_z, r = _tilted_moments(cavity.mean, cavity.variance, y, w,
                                               _log_clutter(y, w))
    return ClutterMatch(posterior=SphericalGaussian.trusted(mean, variance),
                        z=math.exp(log_z), log_z=log_z, r=r)


class ClutterBinding(ModelBinding):
    """Engine binding for the clutter model (spherical Gaussian family).

    A cavity is the pair (mean, variance), and one visit path serves every
    d: means and shifts are floats at d = 1 and 1-D arrays otherwise, as
    chosen once from the data, with the same IEEE operations either way.
    At d = 1 a visit, `change` and the evidence then make no numpy call
    but `_tilted_moments`' one exp.

    Elementary-operation charges: length-d vector operations cost d, scalar
    updates cost 1 each.  Per site visit: cavity 2d+2, moment match 6d+12
    (the tilted moments 4d+8, the site from them 2d+4), recombination 2d+2;
    10d+16 in all.  Evidence evaluation charges (n+1)(d+2).
    """

    def __init__(self, model: ClutterModel):
        self.model = model
        self.tally = OpTally()
        d = model.d
        self._cavity_ops, self._match_ops, self._recombine_ops = \
            2 * d + 2, 6 * d + 12, 2 * d + 2
        self._log_clutter = model.log_clutter().tolist()
        # observations, the prior mean and the zero shift: floats at d = 1
        if d == 1:
            self._ys, self._zero = model.data[:, 0].tolist(), 0.0
        else:
            self._ys, self._zero = model.data, np.zeros(d)
            self._zero.flags.writeable = False  # shared by every vacuous site
        self._prior = SphericalGaussian.trusted(self._zero, model.prior_variance)

    @property
    def site_count(self) -> int:
        return self.model.n

    def prior(self) -> SphericalGaussian:
        return self._prior

    def vacuous_site(self, i: int) -> NaturalSpherical:
        return NaturalSpherical.trusted(0.0, self._zero, 0.0)

    def cavity(self, posterior, site):
        self.tally.count += self._cavity_ops
        pv = posterior.variance
        tau = 1.0 / pv - site.precision
        if tau <= 0.0:
            return None
        v = 1.0 / tau
        if not v < math.inf:
            raise ValueError(f"variance must be finite and positive, got {v}")
        return v * (posterior.m / pv - site.h), v

    def moment_match(self, cavity, i: int):
        """The site Z * q' / cavity of the oracle-gated tilted moments q'
        against the cavity, in natural parameters from the moment scalars."""
        self.tally.count += self._match_ops
        m, v = cavity
        mean, variance, log_z, _ = _tilted_moments(
            m, v, self._ys[i], self.model.w, self._log_clutter[i])
        tau = 1.0 / variance - 1.0 / v
        shift = mean / variance - m / v
        coeff = log_z + spherical_log_coeff(mean, variance) - spherical_log_coeff(m, v)
        if tau == 0.0:
            return NaturalSpherical.trusted(0.0, self._zero, coeff), log_z
        log_scale = coeff + 0.5 * squared_norm(shift) / tau
        return NaturalSpherical.trusted(tau, shift, log_scale), log_z

    def recombine(self, cavity, site):
        self.tally.count += self._recombine_ops
        m, v = cavity
        tau = 1.0 / v + site.precision
        if tau <= 0.0:
            raise ImproperProductError("improper product")
        variance = 1.0 / tau
        if not 0.0 < variance < math.inf:
            raise ValueError(f"variance must be finite and positive, got {variance}")
        return SphericalGaussian.trusted((m / v + site.h) / tau, variance)

    def log_evidence(self, posterior, sites) -> float:
        self.tally.count += (len(sites) + 1) * (self.model.d + 2)
        return ep_log_evidence(self._prior, posterior, sites)
