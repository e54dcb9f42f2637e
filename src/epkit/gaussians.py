"""Exponential-family Gaussian types, natural-parameter arithmetic, and the
stable scalar special functions everything else is built on.

Two Gaussian families appear throughout:

* spherical  N(m, v I_d)    -- scalar variance, used for robust mean estimation
* full       N(m, V)        -- dense covariance, used for linear classification

Per-term approximations ("sites") are kept in natural parameters
(precision, precision*mean, log scale) because iterative refinement
legitimately drives site precisions negative or to zero; variance/mean
forms are derived views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)
# (x + c) - c rounds 0 <= x < 2^30 to a multiple of 2^-21
_ROUND_2M21 = 3.0 * 2.0 ** 30


class DegenerateCovarianceError(ValueError):
    """Covariance is singular or otherwise unusable as a density scale."""


class ImproperProductError(ValueError):
    """A product of sites has non-positive-definite total precision."""


class ZeroNormalizerError(ValueError):
    """A tilted-distribution normalizer came out exactly zero."""


class CancelledPrecisionError(ValueError):
    """Damping two sites left zero precision with a non-zero shift, a site
    neither family can represent."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalGaussian:
    """N(mean, variance * I_d) with a finite positive variance (a vacuous
    site is a `NaturalSpherical` of precision 0, never this type)."""
    mean: np.ndarray
    variance: float

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "mean", m)
        if not 0.0 < self.variance < math.inf:
            raise ValueError(f"variance must be finite and positive, got {self.variance}")

    @classmethod
    def trusted(cls, mean: np.ndarray, variance: float) -> "SphericalGaussian":
        """Construct without validation, for inner loops whose mean is
        already a 1-D float array and whose caller has checked
        0 < variance < inf."""
        return _unvalidated(cls, mean=mean, variance=variance)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def precision(self) -> float:
        return 1.0 / self.variance

    @property
    def shift(self) -> np.ndarray:
        return self.mean / self.variance

    def log_norm_coeff(self) -> float:
        """log of the coefficient c in N(x) = exp(c + shift.x - prec |x|^2/2)."""
        return spherical_log_coeff(self.mean, self.variance)

    def natural_coords(self) -> np.ndarray:
        """Natural parameters (shift, -precision/2), flat."""
        return np.concatenate((self.shift, [-0.5 * self.precision]))

    def moments(self) -> np.ndarray:
        """Expected sufficient statistics (E[x], E[|x|^2]), flat."""
        m = self.mean
        return np.concatenate((m, [self.dim * self.variance + float(m @ m)]))


@dataclass(frozen=True)
class FullGaussian:
    """N(mean, covariance) with a dense symmetric covariance."""
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        V = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "covariance", V)
        if V.shape != (m.shape[0], m.shape[0]):
            raise ValueError(f"covariance shape {V.shape} does not match dim {m.shape[0]}")
        scale = max(1.0, float(np.max(np.abs(V))))
        if np.max(np.abs(V - V.T)) > 1e-12 * scale:
            raise ValueError("covariance is not symmetric")

    @classmethod
    def trusted(cls, mean: np.ndarray, covariance: np.ndarray) -> "FullGaussian":
        """Construct without validation, for inner loops whose float arrays
        already have matching shapes and a symmetric covariance (for
        instance one made by rank_one_update from a validated one)."""
        return _unvalidated(cls, mean=mean, covariance=covariance)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError as exc:
            raise DegenerateCovarianceError("degenerate covariance") from exc

    def log_norm_coeff(self) -> float:
        L = self.cholesky()
        half_logdet = float(np.sum(np.log(np.diag(L))))
        z = np.linalg.solve(L, self.mean)
        return -0.5 * self.dim * LOG_2PI - half_logdet - 0.5 * float(z @ z)

    def natural_coords(self) -> np.ndarray:
        """Natural parameters (P m, -P/2) with P = V^-1, flat, row-major."""
        P = np.linalg.inv(self.covariance)
        b = P @ self.mean
        return np.concatenate((b, (-0.5 * symmetrize(P)).ravel()))

    def moments(self) -> np.ndarray:
        """Expected sufficient statistics (E[x], E[x x^T]), flat, row-major."""
        m = self.mean
        return np.concatenate((m, (self.covariance + np.outer(m, m)).ravel()))


def spherical_log_coeff(mean: np.ndarray, variance: float) -> float:
    """`SphericalGaussian.log_norm_coeff` of N(mean, variance I) from its
    moments, without constructing it."""
    return -0.5 * mean.shape[0] * (LOG_2PI + math.log(variance)) \
        - 0.5 * float(mean @ mean) / variance


def _unvalidated(cls, **fields):
    """A frozen dataclass instance built without running __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def symmetrize(V: np.ndarray) -> np.ndarray:
    """(A + A^T)/2; applied after dense inversions, whose results are
    symmetric only to rounding."""
    return 0.5 * (V + V.T)


def rank_one_update(V: np.ndarray, a: np.ndarray, c: float) -> np.ndarray:
    """V + c a a^T as a new matrix; V itself is never written.

    With b = sqrt(|c|) a, the outer product is the matrix product of the
    columns (b, 0) and the rows (sign(c) b, 0), which numpy hands to BLAS
    (an inner dimension of 1, like np.outer, runs several times slower at
    d = 200).  Each entry is then the product b_i b_j with an exact sign,
    so the result is bitwise symmetric whenever V is and no symmetrize
    pass is needed.
    """
    b = math.sqrt(abs(c)) * a
    d = b.shape[0]
    cols = np.zeros((d, 2))
    cols[:, 0] = b
    rows = np.zeros((2, d))
    rows[0] = b if c >= 0.0 else -b
    W = cols @ rows
    W += V
    return W


@dataclass(frozen=True)
class NaturalSpherical:
    """A spherical site s * exp(-precision/2 * |x - m|^2) with m = shift/precision.

    precision may be negative or zero; precision 0 with zero shift is the
    vacuous site (identically exp(log_scale)).  log_scale is the log of the
    value at the site mean.
    """
    precision: float
    shift: np.ndarray
    log_scale: float = 0.0

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.shift, dtype=float))
        object.__setattr__(self, "shift", s)
        if self.precision == 0.0 and float(s @ s) != 0.0:
            raise ValueError("a zero-precision site must have zero shift")

    @classmethod
    def trusted(cls, precision: float, shift: np.ndarray,
                log_scale: float) -> "NaturalSpherical":
        """Construct without validation, for a shift that is already a 1-D
        float array and is zero whenever precision is."""
        return _unvalidated(cls, precision=precision, shift=shift, log_scale=log_scale)

    @property
    def dim(self) -> int:
        return self.shift.shape[0]

    @property
    def mean(self) -> np.ndarray:
        if self.precision == 0.0:
            return np.zeros(self.dim)
        return self.shift / self.precision

    @property
    def variance(self) -> float:
        return math.inf if self.precision == 0.0 else 1.0 / self.precision

    def change(self, other: "NaturalSpherical") -> float:
        """Convergence measure: the largest absolute difference in precision
        and shift, NaN when any of them is NaN; log scale excluded (it
        tracks the others and has no effect on the posterior shape)."""
        return _max_abs(self.precision - other.precision,
                        float(np.max(np.abs(self.shift - other.shift))))

    def natural_coords(self) -> np.ndarray:
        """The site's term in `SphericalGaussian.natural_coords`."""
        return np.concatenate((self.shift, [-0.5 * self.precision]))

    def damped(self, new: "NaturalSpherical", gamma: float) -> "NaturalSpherical":
        """(1-gamma) * self + gamma * new in precision, shift and log scale;
        raises CancelledPrecisionError when the precisions cancel and the
        shifts do not."""
        prec = (1.0 - gamma) * self.precision + gamma * new.precision
        shift = (1.0 - gamma) * self.shift + gamma * new.shift
        if prec == 0.0 and np.any(shift):
            raise CancelledPrecisionError(
                f"damped precision is 0 with shift {shift.tolist()}")
        return NaturalSpherical.trusted(
            prec, shift, (1.0 - gamma) * self.log_scale + gamma * new.log_scale)

    def natural_log_coeff(self) -> float:
        """log c with site(x) = exp(c + shift.x - precision |x|^2 / 2)."""
        if self.precision == 0.0:
            return self.log_scale
        return self.log_scale - 0.5 * float(self.shift @ self.shift) / self.precision

    def log_value(self, x: np.ndarray) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.natural_log_coeff() + float(self.shift @ x) \
            - 0.5 * self.precision * float(x @ x)


@dataclass(frozen=True)
class RankOneSite:
    """s * exp(-precision/2 * (w.direction - mean)^2): a Gaussian factor that
    constrains a single direction of w.  precision may be negative or zero."""
    direction: np.ndarray
    precision: float
    mean: float = 0.0
    log_scale: float = 0.0

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.direction, dtype=float))
        object.__setattr__(self, "direction", u)
        if float(u @ u) == 0.0:
            raise ValueError("rank-one site direction must be non-zero")

    @classmethod
    def trusted(cls, direction: np.ndarray, precision: float, mean: float,
                log_scale: float) -> "RankOneSite":
        """Construct without validation, for a direction taken from an
        existing site."""
        return _unvalidated(cls, direction=direction, precision=precision,
                            mean=mean, log_scale=log_scale)

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    @property
    def variance(self) -> float:
        return math.inf if self.precision == 0.0 else 1.0 / self.precision

    def change(self, other: "RankOneSite") -> float:
        """Convergence measure: the larger absolute difference in precision
        and in shift (precision * mean) along the direction, NaN when either
        is NaN."""
        return _max_abs(self.precision - other.precision,
                        self.precision * self.mean - other.precision * other.mean)

    def natural_coords(self) -> np.ndarray:
        """The site's term in `FullGaussian.natural_coords`."""
        u = self.direction
        return np.concatenate((self.precision * self.mean * u,
                               (-0.5 * self.precision * np.outer(u, u)).ravel()))

    def damped(self, new: "RankOneSite", gamma: float) -> "RankOneSite":
        """(1-gamma) * self + gamma * new in precision, shift (precision *
        mean) and log scale; both sites must share the direction.  Raises
        CancelledPrecisionError when the precisions cancel and the shifts
        do not."""
        if new.direction is not self.direction \
                and not np.array_equal(self.direction, new.direction):
            raise ValueError("cannot damp rank-one sites with different directions")
        prec = (1.0 - gamma) * self.precision + gamma * new.precision
        shift = (1.0 - gamma) * self.precision * self.mean + gamma * new.precision * new.mean
        if prec == 0.0 and shift != 0.0:
            raise CancelledPrecisionError(f"damped precision is 0 with shift {shift}")
        return RankOneSite.trusted(
            new.direction, prec, shift / prec if prec != 0.0 else 0.0,
            (1.0 - gamma) * self.log_scale + gamma * new.log_scale)

    def natural_log_coeff(self) -> float:
        # displaced form has no 1/precision singularity here
        return self.log_scale - 0.5 * self.precision * self.mean * self.mean

    def log_value(self, w: np.ndarray) -> float:
        w = np.atleast_1d(np.asarray(w, dtype=float))
        t = float(self.direction @ w) - self.mean
        return self.log_scale - 0.5 * self.precision * t * t


Site = NaturalSpherical | RankOneSite


def _max_abs(a: float, b: float) -> float:
    """max(|a|, |b|) as a Python float; NaN when either is NaN (the
    builtin max would drop a NaN that comes second)."""
    a, b = abs(float(a)), abs(float(b))
    if a != a or b != b:
        return math.nan
    return a if a >= b else b


def vacuous_spherical(dim: int) -> NaturalSpherical:
    return NaturalSpherical(precision=0.0, shift=np.zeros(dim), log_scale=0.0)


def spherical_as_site(g: SphericalGaussian) -> NaturalSpherical:
    """View a normalized spherical Gaussian as a site (its own density)."""
    d = g.dim
    log_s = -0.5 * d * (LOG_2PI + math.log(g.variance))
    return NaturalSpherical(precision=g.precision, shift=g.shift.copy(), log_scale=log_s)


# ---------------------------------------------------------------------------
# scalar special functions
# ---------------------------------------------------------------------------

def log_normal_pdf(y, m, variance: float) -> float:
    """log N(y; m, variance I), exact in log domain (no underflow down to
    exponents of about -700 and beyond)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if y.shape != m.shape:
        raise ValueError(f"dimension mismatch: y {y.shape} vs m {m.shape}")
    v = float(variance)
    if not v > 0.0 or math.isinf(v):
        raise DegenerateCovarianceError("degenerate covariance")
    r = y - m
    with np.errstate(over="ignore"):  # huge residuals -> -inf log density
        rr = float(r @ r)
    return -0.5 * y.shape[0] * (LOG_2PI + math.log(v)) - 0.5 * rr / v


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) by a max shift: a Python float over the whole array,
    or an array reduced over `axis` (an int or a tuple of ints).

    For the per-variable evidence sum that closes a loopy propagation fit
    and for the oracles' sums over mixture components and joint states.  A
    factor visit does not call it: it needs the normalized vector as well,
    and takes both from one exp.  Every entry -inf gives -inf; a +inf or NaN
    maximum is returned as is.  No RuntimeWarning either way.
    """
    a = np.asarray(a, dtype=float)
    if axis is None:
        top = float(a.max())
        if not math.isfinite(top):
            return top
        return top + math.log(float(np.exp(a - top).sum()))
    top = a.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0  # exp then gives 0, inf or NaN, as wanted
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top).sum(axis=axis)) + np.squeeze(top, axis=axis)


def probit(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z * _SQRT_HALF)


def log_probit(z: float) -> float:
    """log of the standard normal CDF, stable far into the left tail."""
    if z > 0.0:
        return math.log1p(-0.5 * math.erfc(z * _SQRT_HALF))
    x = -z * _SQRT_HALF
    if x < 26.0:  # erfc(x) is a normal float
        return math.log(0.5 * math.erfc(x))
    return -x * x - math.log(_TWO_SQRT_PI * x / _erfcx_series(x))


def probit_ratio(z: float) -> float:
    """N(z; 0, 1) / probit(z), evaluated stably.

    For z < 0 this is sqrt(2/pi) / erfcx(x) with x = -z/sqrt(2) and the
    scaled complementary error function erfcx(x) = exp(x^2) erfc(x), which
    stays accurate as numerator and denominator underflow.  Below x = 26
    erfcx is the product of math.erfc(x) and exp(x^2), with x^2 split as
    hi^2 + (x - hi)(x + hi) and hi^2 exact, so no rounding of x^2 is
    magnified by the exponential; beyond, erfc underflows and the
    asymptotic series takes over.  For z >= 0 the direct quotient is
    already well conditioned.  The z -> -inf asymptote is -z.
    """
    if z >= 0.0:
        return math.exp(-0.5 * z * z - 0.5 * LOG_2PI) / probit(z)
    x = -z * _SQRT_HALF
    if x < 26.0:
        hi = (x + _ROUND_2M21) - _ROUND_2M21  # at most 26 significant bits
        return _SQRT_2_OVER_PI / (math.exp(hi * hi) * math.exp((x - hi) * (x + hi))
                                  * math.erfc(x))
    return math.sqrt(2.0) * x / _erfcx_series(x)


def _erfcx_series(x: float) -> float:
    """sqrt(pi) x erfcx(x) for x >= 26 by its asymptotic series
    1 - 1/(2x^2) + 1*3/(2x^2)^2 - ..., cut after the (2x^2)^-8 term; the
    first term left out is below 1e-20 there."""
    r = 0.5 / (x * x)
    s = 1.0
    for k in (15.0, 13.0, 11.0, 9.0, 7.0, 5.0, 3.0, 1.0):
        s = 1.0 - k * r * s
    return s


# ---------------------------------------------------------------------------
# site products and quotients
# ---------------------------------------------------------------------------

def combine_sites(sites: list[Site], dim: int):
    """Normalize the product of sites (a proper prior enters the list as a
    site over itself, see spherical_as_site).

    Returns (posterior, log_normalizer) where log_normalizer is the log of
    the integral of the unnormalized product, all log-scale factors included.
    The posterior is SphericalGaussian when every site is spherical, else
    FullGaussian.  Raises ImproperProductError when the summed precision is
    not positive definite.
    """
    rank_one = [s for s in sites if isinstance(s, RankOneSite)]
    spherical = [s for s in sites if isinstance(s, NaturalSpherical)]
    if len(rank_one) + len(spherical) != len(sites):
        raise TypeError("sites must be NaturalSpherical or RankOneSite")

    log_coeff = sum(s.natural_log_coeff() for s in sites)
    tau0 = sum(s.precision for s in spherical)

    if not rank_one:
        if tau0 <= 0.0:
            raise ImproperProductError("improper product")
        shift = np.zeros(dim)
        for s in spherical:
            shift = shift + s.shift
        v = 1.0 / tau0
        mean = v * shift
        # integral of exp(shift.x - tau |x|^2/2)
        log_int = 0.5 * dim * (LOG_2PI - math.log(tau0)) + 0.5 * float(shift @ shift) / tau0
        return SphericalGaussian(mean=mean, variance=v), log_coeff + log_int

    P = tau0 * np.eye(dim)
    b = np.zeros(dim)
    for s in spherical:
        b = b + s.shift
    for s in rank_one:
        u = s.direction
        P = P + s.precision * np.outer(u, u)
        b = b + s.precision * s.mean * u
    P = symmetrize(P)
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise ImproperProductError("improper product") from exc
    half_logdet_P = float(np.sum(np.log(np.diag(L))))
    z = np.linalg.solve(L, b)
    mean = np.linalg.solve(L.T, z)
    V = np.linalg.inv(P)
    log_int = 0.5 * dim * LOG_2PI - half_logdet_P + 0.5 * float(z @ z)
    return FullGaussian(mean=mean, covariance=symmetrize(V)), log_coeff + log_int


def divide_out(posterior: SphericalGaussian, site: NaturalSpherical):
    """Cavity = spherical posterior with one spherical site's natural
    parameters subtracted.

    Returns the cavity Gaussian, or None when the remaining precision is not
    positive (an improper cavity is a flagged outcome, not a crash); policy
    for the flag lives with the caller.  Full-Gaussian cavities are the BPM
    binding's (`bpm.BpmBinding.cavity`).
    """
    tau = posterior.precision - site.precision
    if tau <= 0.0:
        return None
    shift = posterior.shift - site.shift
    v = 1.0 / tau
    if not v < math.inf:
        raise ValueError(f"variance must be finite and positive, got {v}")
    return SphericalGaussian.trusted(v * shift, v)
