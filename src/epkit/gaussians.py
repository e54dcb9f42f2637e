"""Exponential-family Gaussian types, natural-parameter arithmetic, and the
stable scalar special functions everything else is built on.

Two Gaussian families appear throughout:

* spherical  N(m, v I_d)    -- scalar variance, used for robust mean estimation
* full       N(m, V)        -- dense covariance, used for linear classification

Per-term approximations ("sites") are kept in natural parameters
(precision, precision*mean, log scale) because iterative refinement
legitimately drives site precisions negative or to zero; variance/mean
forms are derived views.

A spherical Gaussian's mean and a spherical site's shift are held as 1-D
arrays, or at d = 1 as Python floats with the same bits; the clutter
binding makes its d = 1 fit on floats, and the methods that a fit calls
then make no numpy call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

@dataclass(frozen=True, init=False)
class SphericalGaussian:
    """N(mean, variance * I_d) with a finite positive variance (a vacuous
    site is a `NaturalSpherical` of precision 0, never this type).

    The mean is held as `m`: a 1-D array, or at d = 1 a Python float (see
    `trusted`).  The public `mean` is always a 1-D array, built from a
    float on first read and then kept; the methods read `m`."""
    m: np.ndarray | float
    variance: float

    def __init__(self, mean: np.ndarray, variance: float):
        m = np.atleast_1d(np.asarray(mean, dtype=float))
        if not 0.0 < variance < math.inf:
            raise ValueError(f"variance must be finite and positive, got {variance}")
        self.__dict__.update(m=m, variance=variance)

    @classmethod
    def trusted(cls, mean, variance: float) -> "SphericalGaussian":
        """Construct without validation, for inner loops whose mean is
        already a 1-D float array, or a float at d = 1, and whose caller has
        checked 0 < variance < inf."""
        return _unvalidated(cls, {"m": mean, "variance": variance})

    @cached_property
    def mean(self) -> np.ndarray:
        return _as_array(self.m)

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
        return spherical_log_coeff(self.m, self.variance)

    def natural_coords(self) -> np.ndarray:
        """Natural parameters (shift, -precision/2), flat."""
        return _spherical_coords(self.m / self.variance, self.precision)

    def moments(self) -> np.ndarray:
        """Expected sufficient statistics (E[x], E[|x|^2]), flat."""
        return _spherical_moments(self.m, self.variance)


# How many rank-one terms a chain of `updated` calls holds before it adds
# them to the dense covariance in one matrix product.  Timed on the BPM
# training ladder (d = 10, 50, 200): 16 to 32 were fastest.
PENDING_COLUMNS = 32


@dataclass(frozen=True, init=False, eq=False)
class FullGaussian:
    """N(mean, covariance) with a dense symmetric covariance
    V = V0 + sum_{j<k} c_j a_j a_j^T, held as the dense V0 and
    k < PENDING_COLUMNS pending rank-one terms.  A validated or `trusted`
    one has none; `updated` appends them, so every posterior of a
    sequential fit is a chain of this one type.

    Appending a term costs O(d) in place of a d x d rewrite.  The term that
    makes PENDING_COLUMNS forms V0 + (A^T diag(c)) A in one matrix product,
    and that matrix is the V0 of the next block.  Reading `covariance`
    forms the dense matrix too, once per object, but blocks still end where
    the term count says, so a chain's numbers never depend on what was read
    along the way.  trace(V) is carried as `_trace`: trace(V0) at a
    formation plus c_j |a_j|^2 per term.

    The objects of one block share its term buffer, each reading its first
    k rows.  The first `updated` of an object writes row k in place; a
    later one (say, a revisit of a finished fit) starts a block of its own
    on the formed covariance, so no object ever changes.
    """
    mean: np.ndarray

    def __init__(self, mean: np.ndarray, covariance: np.ndarray):
        m = np.atleast_1d(np.asarray(mean, dtype=float))
        V = np.asarray(covariance, dtype=float)
        if V.shape != (m.shape[0], m.shape[0]):
            raise ValueError(f"covariance shape {V.shape} does not match dim {m.shape[0]}")
        scale = max(1.0, float(np.max(np.abs(V))))
        if np.max(np.abs(V - V.T)) > 1e-12 * scale:
            raise ValueError("covariance is not symmetric")
        self.__dict__.update(_no_terms(m, V))

    @classmethod
    def trusted(cls, mean: np.ndarray, covariance: np.ndarray) -> "FullGaussian":
        """Construct without validation, for inner loops whose float arrays
        already have matching shapes and a symmetric covariance (for
        instance one made by `_formed` from a validated one)."""
        return _unvalidated(cls, _no_terms(mean, covariance))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def covariance(self) -> np.ndarray:
        V = self._dense
        if V is None:
            k = self._k
            V = _formed(self._base, self._rows[:k], self._coefs[:k])
            self.__dict__["_dense"] = V
        return V

    def covariance_times(self, u: np.ndarray) -> np.ndarray:
        """V u."""
        vu = self._base.dot(u)
        k = self._k
        if k:
            rows = self._rows[:k]
            vu += (self._coefs[:k] * rows.dot(u)).dot(rows)
        return vu

    def updated(self, mean: np.ndarray, a: np.ndarray, c: float,
                a_sq: float) -> "FullGaussian":
        """N(mean, V + c a a^T), given a_sq = a.a: one step of a sequential
        update, kept as a pending term.  V is neither written nor copied;
        the result keeps `mean` itself."""
        try:
            self._unextended.pop()  # atomic, so one caller alone takes row k
        except IndexError:  # extended before: a block of its own
            own = _no_terms(self.mean, self.covariance, self._trace)
            return _unvalidated(FullGaussian, own).updated(mean, a, c, a_sq)
        rows, coefs, k = self._rows, self._coefs, self._k
        rows[k] = a
        coefs[k] = c
        return _pending(mean, self._base, rows, coefs, k + 1,
                        self._trace + c * a_sq)

    def cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError as exc:
            raise DegenerateCovarianceError("degenerate covariance") from exc

    def log_norm_coeff(self) -> float:
        return self._log_coeff

    @cached_property
    def _log_coeff(self) -> float:  # kept: a prior serves many evidence calls
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


def _no_terms(mean: np.ndarray, V: np.ndarray, trace: float | None = None) -> dict:
    """The fields of N(mean, V) as a block of no terms; trace(V) is read
    from V unless given."""
    return {"mean": mean, "_base": V, "_rows": np.empty((PENDING_COLUMNS, mean.shape[0])),
            "_coefs": np.empty(PENDING_COLUMNS), "_k": 0,
            "_trace": float(V.trace()) if trace is None else trace,
            "_dense": V, "_unextended": [True]}


def _pending(mean: np.ndarray, base: np.ndarray, rows: np.ndarray,
             coefs: np.ndarray, k: int, trace: float) -> FullGaussian:
    """The FullGaussian of k > 0 terms on `base`; once k reaches
    PENDING_COLUMNS, the formed matrix with none."""
    if k == PENDING_COLUMNS:
        return _unvalidated(FullGaussian, _no_terms(mean, _formed(base, rows, coefs)))
    q = object.__new__(FullGaussian)  # `_unvalidated`, written out
    object.__setattr__(q, "__dict__", {
        "mean": mean, "_base": base, "_rows": rows, "_coefs": coefs, "_k": k,
        "_trace": trace, "_dense": None, "_unextended": [True]})
    return q


def _formed(base: np.ndarray, rows: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """base + rows^T diag(coefs) rows as a new matrix, from one matrix
    product.  The product is halved exactly (through the coefficients) and
    added to its transpose, so the result is bitwise symmetric whenever
    base is.  One term (`rank_one_update`) gets a zero partner: a product
    with an inner dimension of 1 runs several times slower."""
    left = rows.T * (0.5 * coefs)
    if coefs.shape[0] == 1:
        left = np.hstack((left, np.zeros_like(left)))
        rows = np.vstack((rows, np.zeros_like(rows)))
    half = left @ rows
    W = half + half.T
    W += base
    return W


# Spherical-family formulas on a 1-D array, or on a float with the bits of
# the 1-element array, for means and shifts held either way.

def spherical_log_coeff(mean, variance: float) -> float:
    """`SphericalGaussian.log_norm_coeff` of N(mean, variance I) from its
    moments, without constructing it."""
    d = 1 if isinstance(mean, float) else mean.shape[0]
    return -0.5 * d * (LOG_2PI + math.log(variance)) \
        - 0.5 * squared_norm(mean) / variance


def _spherical_coords(shift, precision: float) -> np.ndarray:
    """Natural parameters (shift, -precision/2), flat."""
    return np.append(shift, -0.5 * precision)


def _spherical_moments(mean, variance: float) -> np.ndarray:
    """Expected sufficient statistics (E[x], E[|x|^2]) of N(mean, variance I)."""
    d = 1 if isinstance(mean, float) else mean.shape[0]
    return np.append(mean, d * variance + squared_norm(mean))


def squared_norm(x) -> float:
    """|x|^2."""
    return x * x if isinstance(x, float) else float(x @ x)


def _as_array(x) -> np.ndarray:
    """A float as a 1-element array; an array as itself."""
    return np.array([x]) if isinstance(x, float) else x


def _unvalidated(cls, fields: dict):
    """A frozen dataclass instance built without its validation (the
    `__init__` or `__post_init__` checks), with `fields` as its __dict__:
    no keyword packing and no copy (a BPM visit writes it out twice)."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def symmetrize(V: np.ndarray) -> np.ndarray:
    """(A + A^T)/2; applied after dense inversions, whose results are
    symmetric only to rounding."""
    return 0.5 * (V + V.T)


def rank_one_update(V: np.ndarray, a: np.ndarray, c: float) -> np.ndarray:
    """V + c a a^T as a new matrix, the one-term case of `_formed`; V itself
    is never written, and the result is bitwise symmetric whenever V is."""
    return _formed(V, a[None, :], np.array([c]))


@dataclass(frozen=True, init=False)
class NaturalSpherical:
    """A spherical site s * exp(-precision/2 * |x - m|^2) with m = shift/precision.

    precision may be negative or zero; precision 0 with zero shift is the
    vacuous site (identically exp(log_scale)).  log_scale is the log of the
    value at the site mean.  The shift is held as `h`, a 1-D array or at
    d = 1 a Python float, as `SphericalGaussian` holds its mean; the public
    `shift` is always a 1-D array.
    """
    precision: float
    h: np.ndarray | float
    log_scale: float

    def __init__(self, precision: float, shift: np.ndarray, log_scale: float = 0.0):
        h = np.atleast_1d(np.asarray(shift, dtype=float))
        if precision == 0.0 and float(h @ h) != 0.0:
            raise ValueError("a zero-precision site must have zero shift")
        self.__dict__.update(precision=float(precision), h=h, log_scale=float(log_scale))

    @classmethod
    def trusted(cls, precision: float, shift, log_scale: float) -> "NaturalSpherical":
        """Construct without validation, for a shift that is already a 1-D
        float array, or a float at d = 1, and is zero whenever precision is."""
        return _unvalidated(cls, {"precision": precision, "h": shift,
                                  "log_scale": log_scale})

    @cached_property
    def shift(self) -> np.ndarray:
        return _as_array(self.h)

    @property
    def dim(self) -> int:
        return self.shift.shape[0]

    @property
    def mean(self) -> np.ndarray:
        if self.precision == 0.0:
            return np.zeros(self.dim)
        return self.shift / self.precision

    def change(self, other: "NaturalSpherical") -> float:
        """Convergence measure: the largest absolute difference in precision
        and shift, NaN when any of them is NaN; log scale excluded (it
        tracks the others and has no effect on the posterior shape)."""
        dh = self.h - other.h
        return _max_abs(self.precision - other.precision,
                        dh if isinstance(dh, float) else float(np.abs(dh).max()))

    def natural_coords(self) -> np.ndarray:
        """The site's term in `SphericalGaussian.natural_coords`."""
        return _spherical_coords(self.h, self.precision)

    def damped(self, new: "NaturalSpherical", gamma: float) -> "NaturalSpherical":
        """(1-gamma) * self + gamma * new in precision, shift and log scale;
        raises CancelledPrecisionError when the precisions cancel and the
        shifts do not."""
        prec = (1.0 - gamma) * self.precision + gamma * new.precision
        shift = (1.0 - gamma) * self.h + gamma * new.h
        if prec == 0.0 and np.any(shift):
            raise CancelledPrecisionError(
                f"damped precision is 0 with shift {np.ravel(shift).tolist()}")
        return NaturalSpherical.trusted(
            prec, shift, (1.0 - gamma) * self.log_scale + gamma * new.log_scale)

    def natural_log_coeff(self) -> float:
        """log c with site(x) = exp(c + shift.x - precision |x|^2 / 2)."""
        if self.precision == 0.0:
            return self.log_scale
        return self.log_scale - 0.5 * squared_norm(self.h) / self.precision

    def log_value(self, x: np.ndarray) -> float:
        """log site(x).  No fit calls it: the tests evaluate sites with it."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.natural_log_coeff() + float(self.shift @ x) \
            - 0.5 * self.precision * float(x @ x)


@dataclass(frozen=True)
class RankOneSite:
    """s * exp(-precision/2 * (w.direction - mean)^2): a Gaussian factor that
    constrains a single direction of w.  precision may be negative or zero;
    it, mean and log_scale are Python floats."""
    direction: np.ndarray
    precision: float
    mean: float = 0.0
    log_scale: float = 0.0

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.direction, dtype=float))
        object.__setattr__(self, "direction", u)
        for name in ("precision", "mean", "log_scale"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if float(u @ u) == 0.0:
            raise ValueError("rank-one site direction must be non-zero")

    @classmethod
    def trusted(cls, direction: np.ndarray, precision: float, mean: float,
                log_scale: float) -> "RankOneSite":
        """Construct without validation, for a direction taken from an
        existing site and float scalars."""
        site = object.__new__(cls)  # `_unvalidated`, written out
        object.__setattr__(site, "__dict__", {"direction": direction, "precision": precision,
                                              "mean": mean, "log_scale": log_scale})
        return site

    def change(self, other: "RankOneSite") -> float:
        """Convergence measure: the larger absolute difference in precision
        and in shift (precision * mean) along the direction, NaN when either
        is NaN."""
        a = abs(self.precision - other.precision)  # `_max_abs`, written out
        b = abs(self.precision * self.mean - other.precision * other.mean)
        if a != a or b != b:
            return math.nan
        return a if a >= b else b

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
        """log site(w).  No fit calls it: the tests evaluate sites with it."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        t = float(self.direction @ w) - self.mean
        return self.log_scale - 0.5 * self.precision * t * t


Site = NaturalSpherical | RankOneSite


def _max_abs(a: float, b: float) -> float:
    """max(|a|, |b|) of two Python floats; NaN when either is NaN (the
    builtin max would drop a NaN that comes second)."""
    a, b = abs(a), abs(b)
    if a != a or b != b:
        return math.nan
    return a if a >= b else b


def vacuous_spherical(dim: int) -> NaturalSpherical:
    """The site 1 on R^dim.  No fit calls it: it is the tests' vacuous site."""
    return NaturalSpherical(precision=0.0, shift=np.zeros(dim), log_scale=0.0)


def spherical_as_site(g: SphericalGaussian) -> NaturalSpherical:
    """View a normalized spherical Gaussian as a site (its own density).
    No fit calls it: it is how the tests put a prior into combine_sites."""
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
    return -x * x - math.log(_TWO_SQRT_PI * x / _erfcx_series(x)[0])


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
    if z >= 0.0:  # probit(z), written out: this runs once a BPM visit
        return math.exp(-0.5 * z * z - 0.5 * LOG_2PI) / (0.5 * math.erfc(-z * _SQRT_HALF))
    x = -z * _SQRT_HALF
    if x < 26.0:
        hi = (x + _ROUND_2M21) - _ROUND_2M21  # at most 26 significant bits
        return _SQRT_2_OVER_PI / (math.exp(hi * hi) * math.exp((x - hi) * (x + hi))
                                  * math.erfc(x))
    return math.sqrt(2.0) * x / _erfcx_series(x)[0]


def probit_curvature(z: float, rho: float) -> float:
    """rho (z + rho) for rho = probit_ratio(z): minus the second derivative
    of log probit, in (0, 1) (1.0 once rounded, below z = -1e8).  Where rho
    comes from the erfcx series S, z + rho = -z (1 - S) / S would cancel:
    there it is T / S^2, from S's tail T."""
    x = -z * _SQRT_HALF
    if x < 26.0:
        return rho * (z + rho)
    s, t = _erfcx_series(x)
    return t / (s * s)


def _erfcx_series(x: float) -> tuple[float, float]:
    """(S, T): S = sqrt(pi) x erfcx(x) for x >= 26 by its asymptotic series
    1 - 1/(2x^2) + 1*3/(2x^2)^2 - ... to the (2x^2)^-8 term (the next is
    below 1e-20 there), and its tail T = (1 - S) 2x^2, from one product."""
    r = 0.5 / (x * x)
    t = 1.0
    for k in (15.0, 13.0, 11.0, 9.0, 7.0, 5.0, 3.0):
        t = 1.0 - k * r * t
    return 1.0 - r * t, t


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
    for the flag lives with the caller.  No fit calls it: it is the tests'
    reference for `clutter.ClutterBinding.cavity`, as `combine_sites` is
    for `engine.ep_log_evidence`.  Full-Gaussian cavities are the BPM
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
