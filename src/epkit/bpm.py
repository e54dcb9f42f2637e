"""Linear Bayes Point Machine trained by expectation propagation.

The posterior over classifier weights is a full-covariance Gaussian with
prior N(0, I); every training point contributes a probit factor over the
margin, approximated by a rank-one Gaussian site.  A site constrains one
direction u, so a visit needs the posterior only through Vu = V u and the
scalars q = u.Vu and u.m.  The cavity is kept as the posterior plus
scalars, from one matrix-vector product; the moment match works on the
cavity's margin along u and gives the new site in closed form at O(d) cost;
the recombination of cavity and site appends one rank-one term to the
posterior's covariance (`gaussians.FullGaussian.updated`), which adds a
block of such terms to the dense matrix in one matrix product; the prior
is a FullGaussian of no terms.  No d x d matrix is formed for the cavity
or written by a visit.

Slack handling: for slack eps > 0 the training points are pre-scaled once
to y_i x_i / eps and the margin noise variance is 1; eps = 0 keeps the
label-scaled points and sets the noise variance to 0, which is the exact
eps -> 0 limit (the probit becomes a step function).  With slack the data
certify that no posterior collapses (`BpmBinding.is_degenerate`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import (EPOptions, EPResult, ModelBinding, OpTally, ep_log_evidence,
                     run_ep)
from .gaussians import (
    LOG_2PI,
    FullGaussian,
    ImproperProductError,
    RankOneSite,
    log_probit,
    probit_curvature,
    probit_ratio,
    rank_one_update,
)


@dataclass(frozen=True)
class BpmDataset:
    """Labeled points for linear classification; points already include the
    constant bias coordinate when bias_augmented is set."""
    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) of +-1
    slack: float = 0.0
    bias_augmented: bool = False

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        labels = np.atleast_1d(np.asarray(self.labels, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)
        if pts.shape[0] != labels.shape[0]:
            raise ValueError("points and labels must have equal length")
        bad = np.flatnonzero(~np.all(np.isfinite(pts), axis=1))
        if bad.size:
            raise ValueError(f"points must be finite; row {int(bad[0])} "
                             f"is {pts[bad[0]].tolist()}")
        if labels.size and not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if self.slack < 0.0:
            raise ValueError("slack must be nonnegative")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def directions(self) -> np.ndarray:
        """Margin directions y_i x_i, divided by the slack when it is > 0."""
        directions = self.labels[:, None] * self.points
        return directions / self.slack if self.slack > 0.0 else directions

    @property
    def noise_var(self) -> float:
        """Variance of the margin noise: 1 with slack, 0 (a step) without."""
        return 1.0 if self.slack > 0.0 else 0.0

    def log_likelihood(self, ws: np.ndarray) -> np.ndarray:
        """log p(labels | w) for each row w of an (S, d) array: the sum of
        the log probits of the margins with slack, else 0 when every margin
        is positive and -inf otherwise (the step).  The margins form an
        (n, S) array, one contiguous row per point, reduced over axis 0."""
        margins = self.directions @ ws.T
        if self.slack > 0.0:
            from scipy.special import log_ndtr
            return np.sum(log_ndtr(margins), axis=0)
        return np.where(np.all(margins > 0, axis=0), 0.0, -math.inf)


def make_dataset(points, labels, slack: float = 0.0,
                 add_bias: bool = False) -> BpmDataset:
    """Assemble a dataset, optionally appending the constant-1 bias column."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if add_bias:
        pts = np.hstack([pts, np.ones((pts.shape[0], 1))])
    return BpmDataset(points=pts, labels=np.asarray(labels, dtype=float),
                      slack=slack, bias_augmented=add_bias)


@dataclass(frozen=True)
class BpmMatch:
    posterior: FullGaussian
    log_z: float
    z_score: float
    alpha: float


class BpmCavity(NamedTuple):
    """A site divided out of a BPM posterior N(m, V), kept as that posterior
    plus scalars.

    Removing precision tau along u leaves the cavity covariance
    V + tau r (Vu)(Vu)^T with r = 1 / (1 - tau q) and q = u.Vu, so the
    cavity's own V u is r Vu, its margin variance is q0 = r q, and its mean
    is m + shift Vu with margin mean mu0; vv = |Vu|^2.  `mean` and
    `covariance` form the dense cavity on request; a site visit never does.
    """
    posterior: FullGaussian
    direction: np.ndarray
    precision: float
    vu: np.ndarray
    vv: float
    r: float
    q0: float
    mu0: float
    shift: float

    @property
    def mean(self) -> np.ndarray:
        return self.posterior.mean + self.shift * self.vu

    @property
    def covariance(self) -> np.ndarray:
        return rank_one_update(self.posterior.covariance, self.vu,
                               self.precision * self.r)


def _probit_match(q0: float, mu0: float, noise_var: float,
                  mean_var: float) -> tuple[float, float, float, float]:
    """Scalars of the probit margin match against a cavity margin N(mu0, q0):
    (log Z, z, alpha, kappa).  mean_var is the cavity's mean diagonal
    variance, the scale of the dense representation's rounding noise.

    The tilted margin has mean mu0 + alpha q0 and variance q0 (1 - kappa q0)
    with z = mu0 / sqrt(q0 + noise_var), alpha = rho / sqrt(q0 + noise_var),
    kappa = rho (z + rho) / (q0 + noise_var) and rho the stable ratio
    pdf(z)/cdf(z).  kappa q0 < 1 always, so the posterior stays proper.
    """
    den = q0 + noise_var
    if not den > 0.0:
        raise ValueError("degenerate margin variance")
    sden = math.sqrt(den)
    z = mu0 / sden
    rho = probit_ratio(z)
    alpha = rho / sden
    # kappa q0 < 1 holds in exact arithmetic with gap ~ 2/z^2, but a
    # zero-mass posterior (conflicting step likelihoods) drives z -> -inf
    # and the gap below float resolution.  Cap the per-visit variance
    # shrink at 1e-3 and keep the margin variance above the dense
    # representation's noise floor; both caps bind only in that collapse,
    # far outside any z a proper fixed point produces.
    gap = 1e-14 * mean_var / q0  # min and max written out: once a visit
    gap = 1.0 if gap >= 1.0 else gap if gap > 1e-3 else 1e-3
    kappa, cap = probit_curvature(z, rho) / den, (1.0 - gap) / q0
    return log_probit(z), z, alpha, cap if cap < kappa else kappa


def bpm_moment_match(cavity: FullGaussian, u: np.ndarray,
                     noise_var: float = 1.0) -> BpmMatch:
    """Moment match a probit margin factor against a full-Gaussian cavity.

    The factor depends on w only through s = u.w, so the tilted moments come
    from the 1-D tilt of s ~ N(u.m, u.V u) with tilt cdf((s)/sqrt(noise_var));
    off-direction moments follow by Gaussian conditioning:

        m' = m + alpha V u
        V' = V - kappa (V u)(V u)^T

    with the scalars of _probit_match, which the BPM binding shares.  This
    dense form is the reference the binding's site visit is checked against.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if float(u @ u) == 0.0:
        raise ValueError("moment match requires a non-zero direction")
    V = cavity.covariance
    vu = V @ u
    q0 = float(u @ vu)
    if not 0.0 < q0 < math.inf:
        raise ValueError("degenerate margin variance")
    log_z, z, alpha, kappa = _probit_match(
        q0, float(u @ cavity.mean), noise_var, float(V.trace()) / u.shape[0])
    posterior = FullGaussian.trusted(cavity.mean + alpha * vu,
                                     rank_one_update(V, vu, -kappa))
    return BpmMatch(posterior=posterior, log_z=log_z, z_score=z, alpha=alpha)


def _site_from_margins(log_z: float, q0: float, mu0: float, q1: float,
                       mu1: float) -> tuple[float, float, float]:
    """(precision, mean, log scale) of the site Z * posterior / cavity for a
    rank-one update, from the cavity margin N(mu0, q0) and the posterior
    margin N(mu1, q1).

    Because the factor touches only s = u.w, the density ratio reduces to the
    ratio of the 1-D marginals of s, whose natural parameters subtract.  The
    scale is fixed by evaluating the ratio at the cavity's own margin mean.
    """
    tau = 1.0 / q1 - 1.0 / q0
    log_ratio_at_mu0 = -0.5 * (math.log(q1) - math.log(q0)) \
        - 0.5 * (mu0 - mu1) ** 2 / q1
    if tau == 0.0:
        return 0.0, 0.0, log_z + log_ratio_at_mu0
    m_site = (mu1 / q1 - mu0 / q0) / tau
    return tau, m_site, log_z + log_ratio_at_mu0 + 0.5 * tau * (mu0 - m_site) ** 2


def rank_one_site_from(posterior: FullGaussian, cavity: FullGaussian,
                       log_z: float, u: np.ndarray) -> RankOneSite:
    """Site = Z * posterior / cavity along u, from dense Gaussians (the
    binding uses the match scalars instead).  No fit calls it: it is the
    tests' reference for the site `BpmBinding.moment_match` returns."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    tau, mean, log_scale = _site_from_margins(
        log_z, float(u @ (cavity.covariance @ u)), float(u @ cavity.mean),
        float(u @ (posterior.covariance @ u)), float(u @ posterior.mean))
    return RankOneSite(direction=u, precision=tau, mean=mean, log_scale=log_scale)


class BpmBinding(ModelBinding):
    """Engine binding for BPM training (full-Gaussian family, rank-one sites).

    Cavities are BpmCavity objects; `moment_match(cavity, i)` expects the
    cavity of site i.  Every posterior of a fit is a `FullGaussian` whose
    rank-one terms are pending (see `FullGaussian.updated`).

    Operation charges per site visit, damped or not: cavity d^2+2d (one
    matrix-vector product, two dot products), moment match 2d+1 (the cavity
    trace, then the site in closed form from the match scalars),
    recombination d^2+d (one rank-one update and the mean update); 2d^2+5d+1
    in all.  Evidence evaluation charges d^3 once per call for its single
    dense solve.  These are the nominal costs of a sequential update: that
    the posterior holds its rank-one terms back and adds them a block at a
    time, and carries its covariance trace, leaves them as they are.
    """

    def __init__(self, dataset: BpmDataset):
        self.dataset = dataset
        self.tally = OpTally()
        self.d = d = dataset.d
        self.directions = dataset.directions
        self.noise_var = dataset.noise_var
        # y x / slack needs a positive, finite squared norm: a zero point,
        # or a slack that makes it overflow or underflow, fails deep in the
        # first visit otherwise
        with np.errstate(over="ignore", under="ignore"):
            sq = np.sum(self.directions * self.directions, axis=1)
        bad = np.flatnonzero(~((sq > 0.0) & (sq < math.inf)))
        if bad.size:
            i = int(bad[0])
            if self.noise_var == 0.0 and sq[i] == 0.0:
                raise ValueError(f"training point {i} is zero, which with zero "
                                 "slack has an undefined step likelihood")
            raise ValueError(f"training point {i} has a margin direction y x / slack "
                             f"of squared norm {float(sq[i])!r} at slack "
                             f"{dataset.slack!r}; it must be positive and finite")
        self._prior = FullGaussian.trusted(np.zeros(d), np.eye(d))
        self._prior.__dict__["_log_coeff"] = -0.5 * d * LOG_2PI  # no Cholesky, same bits
        self._cavity_ops = d * d + 2 * d
        self._match_ops = 2 * d + 1
        self._recombine_ops = d * d + d
        # is_degenerate's certificate: lambda_min(V) >= 1 / (1 + |U|_F^2)
        self._certified = self.noise_var > 0.0 and 1.0 / (1.0 + float(np.sum(sq))) \
            >= 1e3 * (1e-12 + 2 * d * (d + 1) * 2.0 ** -53)

    @property
    def site_count(self) -> int:
        return self.dataset.n

    def prior(self) -> FullGaussian:
        return self._prior

    def vacuous_site(self, i: int) -> RankOneSite:
        # __init__ checked that the direction has a positive squared norm
        return RankOneSite.trusted(self.directions[i], 0.0, 0.0, 0.0)

    def cavity(self, posterior, site):
        """The posterior less a rank-one site (tau, site mean) along u, from
        V u and three dot products; None when its precision is not positive
        definite, which for a positive definite posterior is 1 - tau q <= 0."""
        self.tally.count += self._cavity_ops
        u, tau = site.direction, site.precision
        vu = posterior.covariance_times(u)
        q = float(u.dot(vu))
        um = float(u.dot(posterior.mean))
        denom = 1.0 - tau * q
        if not denom > 0.0:
            return None
        r = 1.0 / denom
        q0 = r * q
        if not 0.0 < q0 < math.inf:
            return None
        shift = r * tau * (um - site.mean)
        # tuple.__new__ skips the named tuple's own __new__, a Python call
        return tuple.__new__(BpmCavity, (posterior, u, tau, vu, float(vu.dot(vu)),
                                         r, q0, um + shift * q, shift))

    def moment_match(self, cavity, i: int):
        """The probit match against the cavity's margin N(mu0, q0) along the
        site direction, and the site it implies; O(d), no d x d work."""
        self.tally.count += self._match_ops
        post, u, tau, _, vv, r, q0, mu0, _ = cavity
        log_z, _, alpha, kappa = _probit_match(
            q0, mu0, self.noise_var, (post._trace + tau * r * vv) / self.d)
        tau, mean, log_scale = _site_from_margins(
            log_z, q0, mu0, q0 * (1.0 - kappa * q0), mu0 + alpha * q0)
        return RankOneSite.trusted(u, tau, mean, log_scale), log_z

    def recombine(self, cavity, site):
        """The cavity (a BpmCavity from `cavity`) times a site along its
        direction, as one rank-one term on the cavity's posterior N(m, V):

            m' = m + (shift + r gain (site mean - mu0)) Vu
            V' = V + (tau r - gain r^2) Vu Vu^T

        with gain = precision / (1 + precision q0) and tau the precision
        the cavity removed.  The term is appended to V's pending ones
        (`FullGaussian.updated`), so no d x d matrix is written here."""
        self.tally.count += self._recombine_ops
        post, _, tau, vu, vv, r, q0, mu0, shift = cavity
        precision = site.precision
        denom = 1.0 + precision * q0
        if denom <= 0.0:
            raise ImproperProductError("improper product")
        gain = precision / denom
        mean = post.mean + (shift + r * gain * (site.mean - mu0)) * vu
        return post.updated(mean, vu, (tau - gain * r) * r, vv)

    def log_evidence(self, posterior, sites) -> float:
        self.tally.count += self.d ** 3
        return ep_log_evidence(self._prior, posterior, sites)

    def is_degenerate(self, posterior) -> bool:
        """True when V, the covariance of a posterior of this binding's fit,
        has its smallest eigenvalue below t = max(1e-40, 1e-12 mean(diag V)).

        With slack a certificate on the data answers False: in scaled units
        kappa < 1 / (q0 + 1), so every site precision lies in [0, 1] (damping
        blends convexly), I <= V^-1 <= I + U^T U for the margin directions U,
        t <= 1e-12 and lambda_min(V) >= 1 / (1 + |U|_F^2), which must be at
        least 1e3 (1e-12 + 2 d (d + 1) 2^-53), a margin for rounding.  Other
        data (zero slack: conflicting steps collapse the posterior) need a
        Cholesky factor of V - t I, a copy of V less t on its diagonal."""
        if self._certified:
            return False
        V = posterior.covariance
        t = max(1e-40, 1e-12 * float(np.mean(np.diag(V))))
        shifted = V.copy()
        shifted.flat[::V.shape[0] + 1] -= t
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return True
        return False


@dataclass(frozen=True, kw_only=True)
class BpmModel(EPResult):
    """An EP fit of a BPM with the data set it was trained on."""
    dataset: BpmDataset

    @property
    def dim(self) -> int:
        return self.posterior.dim


def bpm_train(dataset: BpmDataset, opts: EPOptions = EPOptions()) -> BpmModel:
    """EP training: prior N(0, I), sites initialized vacuous, engine loop
    until site parameters stop changing.  Non-convergence is reported in the
    model diagnostics, not raised."""
    return BpmModel(dataset=dataset, **vars(run_ep(BpmBinding(dataset), opts)))


def bpm_predict(model: BpmModel, x) -> int:
    """Label of the average classifier, sign(E[w] . x); an exact zero margin
    returns +1 (see bpm_predict_batch for tie counting)."""
    labels, _ = bpm_predict_batch(model, [x])
    return int(labels[0])


def bpm_predict_batch(model: BpmModel, xs) -> tuple[np.ndarray, int]:
    """Labels sign(E[w] . x) of the rows of xs, from one matrix-vector
    product, plus the number of zero-margin ties broken toward +1.  A
    bias-augmented model appends the constant 1 to rows of d - 1 features."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    d = model.dim
    if model.dataset.bias_augmented and xs.shape[1] == d - 1:
        xs = np.hstack([xs, np.ones((xs.shape[0], 1))])
    if xs.shape[1] != d:
        raise ValueError(f"expected {d} features (or {d - 1} before bias), "
                         f"got {xs.shape[1]}")
    scores = xs @ model.posterior.mean
    return np.where(scores >= 0.0, 1, -1), int(np.count_nonzero(scores == 0.0))


def bpm_training_error(model: BpmModel) -> float:
    """Fraction of training points the posterior-mean classifier mislabels."""
    if model.dataset.n == 0:
        return 0.0
    preds, _ = bpm_predict_batch(model, model.dataset.points)
    return float(np.mean(preds != model.dataset.labels))


# ---------------------------------------------------------------------------
# dataset interchange
# ---------------------------------------------------------------------------

def dataset_from_csv(text: str, slack: float = 0.0,
                     add_bias: bool = False) -> BpmDataset:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",") if lines else [""]
    if header[-1] != "label":
        raise ValueError("the header's last column must be 'label'")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    arr = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return make_dataset(arr[:, :-1], arr[:, -1], slack=slack, add_bias=add_bias)

