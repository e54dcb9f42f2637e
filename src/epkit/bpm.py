"""Linear Bayes Point Machine trained by expectation propagation.

The posterior over classifier weights is a full-covariance Gaussian with
prior N(0, I); every training point contributes a probit factor over the
margin, approximated by a rank-one Gaussian site.  A site constrains one
direction u, so a visit needs the posterior only through Vu = V u and the
scalars q = u.Vu and u.m.  The cavity is kept as the posterior plus
scalars, from one matrix-vector product; the moment match works on the
cavity's margin along u and gives the new site in closed form at O(d) cost;
the recombination of cavity and site appends one rank-one term to the
posterior's covariance (`gaussians.PendingGaussian`), which adds a block of
such terms to the dense matrix in one matrix product.  No d x d matrix is
formed for the cavity or written by a visit.

Slack handling: for slack eps > 0 the training points are pre-scaled once
to y_i x_i / eps and the margin noise variance is 1; eps = 0 keeps the
label-scaled points and sets the noise variance to 0, which is the exact
eps -> 0 limit (the probit becomes a step function).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (EPOptions, EPResult, ModelBinding, OpTally, ep_log_evidence,
                     run_ep)
from .gaussians import (
    FullGaussian,
    ImproperProductError,
    RankOneSite,
    log_probit,
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
        is positive and -inf otherwise (the step)."""
        margins = ws @ self.directions.T
        if self.slack > 0.0:
            from scipy.special import log_ndtr
            return np.sum(log_ndtr(margins), axis=1)
        return np.where(np.all(margins > 0, axis=1), 0.0, -math.inf)


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


class BpmCavity:
    """A site divided out of a BPM posterior N(m, V), kept as that posterior
    plus scalars.

    Removing precision tau along u leaves the cavity covariance
    V + tau r (Vu)(Vu)^T with r = 1 / (1 - tau q) and q = u.Vu, so the
    cavity's own V u is r Vu, its margin variance is q0 = r q, and its mean
    is m + shift Vu with margin mean mu0.  `mean` and `covariance` form the
    dense cavity on request; a site visit never does.
    """

    __slots__ = ("posterior", "direction", "precision", "vu", "vv", "r",
                 "q0", "mu0", "shift")

    def __init__(self, posterior: FullGaussian, direction: np.ndarray,
                 precision: float, vu: np.ndarray, vv: float, r: float,
                 q0: float, mu0: float, shift: float):
        self.posterior = posterior
        self.direction = direction
        self.precision = precision
        self.vu = vu
        self.vv = vv
        self.r = r
        self.q0 = q0
        self.mu0 = mu0
        self.shift = shift

    @property
    def mean(self) -> np.ndarray:
        return self.posterior.mean + self.shift * self.vu

    @property
    def covariance(self) -> np.ndarray:
        return rank_one_update(self.posterior.covariance, self.vu,
                               self.precision * self.r)


def _divide(posterior: FullGaussian, u: np.ndarray, tau: float,
            site_mean: float) -> BpmCavity | None:
    """The cavity left by removing a rank-one site (tau, site_mean) along u
    from the posterior; None when its precision is not positive definite,
    which for a positive definite posterior is exactly 1 - tau q <= 0."""
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
    shift = r * tau * (um - site_mean)
    return BpmCavity(posterior, u, tau, vu, float(vu.dot(vu)), r, q0,
                     um + shift * q, shift)


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
    target_gap = min(1.0, max(1e-3, 1e-14 * mean_var / q0))
    kappa = min(rho * (z + rho) / den, (1.0 - target_gap) / q0)
    return log_probit(z), z, alpha, kappa


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
    cavity of site i.

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
        self._prior = FullGaussian(mean=np.zeros(d), covariance=np.eye(d))

    @property
    def site_count(self) -> int:
        return self.dataset.n

    def prior(self) -> FullGaussian:
        return self._prior

    def vacuous_site(self, i: int) -> RankOneSite:
        return RankOneSite(direction=self.directions[i], precision=0.0,
                           mean=0.0, log_scale=0.0)

    def cavity(self, posterior, site):
        d = self.d
        self.tally.add(d * d + 2 * d)
        return _divide(posterior, site.direction, site.precision, site.mean)

    def moment_match(self, cavity, i: int):
        """The probit match against the cavity's margin N(mu0, q0) along the
        site direction, and the site it implies; O(d), no d x d work."""
        d = self.d
        self.tally.add(2 * d + 1)
        q0, mu0 = cavity.q0, cavity.mu0
        trace = cavity.posterior.trace() + cavity.precision * cavity.r * cavity.vv
        log_z, _, alpha, kappa = _probit_match(q0, mu0, self.noise_var, trace / d)
        tau, mean, log_scale = _site_from_margins(
            log_z, q0, mu0, q0 * (1.0 - kappa * q0), mu0 + alpha * q0)
        return RankOneSite.trusted(cavity.direction, tau, mean, log_scale), log_z

    def recombine(self, cavity, site):
        """The cavity (a BpmCavity from `cavity`) times a site along its
        direction, as one rank-one term on the cavity's posterior N(m, V):

            m' = m + (shift + r gain (site mean - mu0)) Vu
            V' = V + (tau r - gain r^2) Vu Vu^T

        with gain = precision / (1 + precision q0) and tau the precision
        the cavity removed.  The term is appended to V's pending ones
        (`FullGaussian.updated`), so no d x d matrix is written here."""
        d = self.d
        self.tally.add(d * d + d)
        denom = 1.0 + site.precision * cavity.q0
        if denom <= 0.0:
            raise ImproperProductError("improper product")
        post, vu, r = cavity.posterior, cavity.vu, cavity.r
        gain = site.precision / denom
        mean = post.mean + (cavity.shift + r * gain * (site.mean - cavity.mu0)) * vu
        return post.updated(mean, vu, (cavity.precision - gain * r) * r, cavity.vv)

    def log_evidence(self, posterior, sites) -> float:
        d = self.d
        self.tally.add(d * d * d)
        return ep_log_evidence(self._prior, posterior, sites)

    def is_degenerate(self, posterior) -> bool:
        # conflicting step likelihoods have zero total mass; refinement then
        # shrinks the posterior geometrically toward a point, either overall
        # or along single directions (condition blow-up), far beyond any
        # scale or anisotropy a real fixed point reaches.  The test is the
        # smallest eigenvalue of V against t; V - t I has a Cholesky factor
        # exactly when it lies above t, at a fraction of an eigvalsh's cost
        V = posterior.covariance
        t = max(1e-40, 1e-12 * float(np.mean(np.diag(V))))
        try:
            np.linalg.cholesky(V - t * np.eye(V.shape[0]))
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

