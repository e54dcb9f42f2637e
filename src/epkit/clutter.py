"""Robust Gaussian mean estimation with a known clutter fraction.

Each observation comes from N(x, I) with probability 1-w and from a broad
zero-centered clutter component N(0, clutter_variance I) otherwise; the
posterior over x is approximated by a spherical Gaussian.  This module
supplies the analytic per-term moment match, the model's evidence formula,
synthetic data generation, and the binding that plugs it into the ADF/EP
engine.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import ModelBinding, OpTally
from .gaussians import (
    LOG_2PI,
    ImproperProductError,
    NaturalSpherical,
    SphericalGaussian,
    ZeroNormalizerError,
    _logsumexp,
    divide_out,
    log_normal_pdf,
    spherical_as_site,
    vacuous_spherical,
)

DEFAULT_PRIOR_VARIANCE = 100.0
DEFAULT_CLUTTER_VARIANCE = 10.0


@dataclass(frozen=True)
class ClutterModel:
    data: np.ndarray  # (n, d)
    w: float
    prior_variance: float = DEFAULT_PRIOR_VARIANCE
    clutter_variance: float = DEFAULT_CLUTTER_VARIANCE

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.data, dtype=float))
        object.__setattr__(self, "data", arr)
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("clutter ratio w must lie in [0, 1]")
        if not (self.prior_variance > 0.0 and self.clutter_variance > 0.0):
            raise ValueError("variances must be positive")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


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
    """Draw n points from (1-w) N(x_true, I) + w N(0, 10 I), reproducibly
    for a fixed seed (PCG64 stream)."""
    rng = np.random.default_rng(spec.seed)
    is_clutter = rng.random(spec.n) < spec.w
    normals = rng.standard_normal((spec.n, spec.d))
    data = np.where(is_clutter[:, None],
                    normals * math.sqrt(DEFAULT_CLUTTER_VARIANCE),
                    spec.x_true[None, :] + normals)
    return ClutterModel(data=data, w=spec.w)


@dataclass(frozen=True)
class ClutterMatch:
    posterior: SphericalGaussian
    z: float
    log_z: float
    r: float


def clutter_moment_match(cavity: SphericalGaussian, y: np.ndarray, w: float,
                         clutter_variance: float = DEFAULT_CLUTTER_VARIANCE
                         ) -> ClutterMatch:
    """Spherical moment match of one observation term against the cavity.

    Z mixes the through-the-cavity inlier density with the x-independent
    clutter density; r is the responsibility of the inlier component.  The
    variance update carries the mean-shift term divided by d: with
    E[x' x] matched, the spherical projection is trace/d of the full tilted
    covariance.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = cavity.dim
    m, v = cavity.mean, cavity.variance
    log_in = math.log1p(-w) + log_normal_pdf(y, m, v + 1.0) if w < 1.0 else -math.inf
    log_cl = math.log(w) + log_normal_pdf(y, np.zeros(d), clutter_variance) \
        if w > 0.0 else -math.inf
    log_z = _logsumexp((log_in, log_cl))
    if log_z == -math.inf:
        raise ZeroNormalizerError("zero normalizer")
    r = -math.expm1(log_cl - log_z)  # 1 - clutter share, in [0, 1]
    resid = y - m
    mean = m + (v * r / (v + 1.0)) * resid
    variance = v - r * v * v / (v + 1.0) \
        + r * (1.0 - r) * v * v * float(resid @ resid) / (d * (v + 1.0) ** 2)
    return ClutterMatch(posterior=SphericalGaussian(mean=mean, variance=variance),
                        z=math.exp(log_z), log_z=log_z, r=r)


def clutter_log_evidence(prior: SphericalGaussian,
                         sites: list[NaturalSpherical],
                         posterior: SphericalGaussian) -> float:
    """log p(D) from the converged sites: (2 pi v_x)^{d/2} exp(B/2) prod s_i
    with B = |m_x|^2/v_x - sum_i |m_i|^2/v_i, evaluated in log domain.

    The prior enters as site 0; vacuous sites contribute nothing to B.
    Note |m_i|^2 / v_i = |shift_i|^2 / precision_i, well defined for
    negative precisions too.
    """
    d = posterior.dim
    all_sites = [spherical_as_site(prior)] + list(sites)
    b = float(posterior.mean @ posterior.mean) / posterior.variance
    log_scales = 0.0
    for s in all_sites:
        if s.precision != 0.0:
            b -= float(s.shift @ s.shift) / s.precision
        log_scales += s.log_scale
    return 0.5 * d * (LOG_2PI + math.log(posterior.variance)) + 0.5 * b + log_scales


class ClutterBinding(ModelBinding):
    """Engine binding for the clutter model (spherical Gaussian family).

    Elementary-operation charges: length-d vector operations cost d, scalar
    updates cost 1 each; the documented totals below are fixed constants of
    the implementation.
    """

    def __init__(self, model: ClutterModel):
        self.model = model
        self.tally = OpTally()
        self._prior = SphericalGaussian(mean=np.zeros(model.d),
                                        variance=model.prior_variance)

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
        self.tally.add(4 * self.model.d + 8)
        match = clutter_moment_match(cavity, self.model.data[i], self.model.w,
                                     self.model.clutter_variance)
        return match.posterior, match.log_z

    def make_site(self, posterior, cavity, log_z: float, i: int) -> NaturalSpherical:
        self.tally.add(2 * self.model.d + 4)
        tau = posterior.precision - cavity.precision
        shift = posterior.shift - cavity.shift
        coeff = log_z + posterior.log_norm_coeff() - cavity.log_norm_coeff()
        if tau == 0.0:
            return NaturalSpherical(precision=0.0, shift=np.zeros_like(shift),
                                    log_scale=coeff)
        log_scale = coeff + 0.5 * float(shift @ shift) / tau
        return NaturalSpherical(precision=tau, shift=shift, log_scale=log_scale)

    def recombine(self, cavity, site):
        self.tally.add(2 * self.model.d + 2)
        tau = cavity.precision + site.precision
        if tau <= 0.0:
            raise ImproperProductError("improper product")
        shift = cavity.shift + site.shift
        return SphericalGaussian(mean=shift / tau, variance=1.0 / tau)

    def log_evidence(self, posterior, sites) -> float:
        self.tally.add((len(sites) + 1) * (self.model.d + 2))
        return clutter_log_evidence(self._prior, list(sites), posterior)

    # --- family hooks for energy diagnostics -------------------------------

    def natural_coords(self, dist: SphericalGaussian) -> np.ndarray:
        return np.concatenate((dist.shift, [-0.5 * dist.precision]))

    def site_natural_coords(self, site: NaturalSpherical) -> np.ndarray:
        return np.concatenate((site.shift, [-0.5 * site.precision]))

    def family_moments(self, dist: SphericalGaussian) -> np.ndarray:
        m = dist.mean
        return np.concatenate((m, [dist.dim * dist.variance + float(m @ m)]))

    def log_partition(self, coords: np.ndarray) -> float:
        beta, a = coords[:-1], coords[-1]
        tau = -2.0 * a
        if tau <= 0.0:
            raise ImproperProductError("improper product")
        d = beta.shape[0]
        return 0.5 * d * (LOG_2PI - math.log(tau)) + 0.5 * float(beta @ beta) / tau


# ---------------------------------------------------------------------------
# dataset CSV interchange
# ---------------------------------------------------------------------------

def dataset_to_csv(model: ClutterModel) -> str:
    """One row per observation, d columns, header y1..yd."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"y{j + 1}" for j in range(model.d)])
    for row in model.data:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


def dataset_metadata(model: ClutterModel, spec: ClutterDataSpec | None = None) -> dict:
    meta = {
        "w": model.w,
        "prior_variance": model.prior_variance,
        "clutter_variance": model.clutter_variance,
        "n": model.n,
        "d": model.d,
    }
    if spec is not None:
        meta["generator"] = {
            "x_true": [float(x) for x in spec.x_true],
            "n": spec.n, "w": spec.w, "seed": spec.seed,
        }
    return meta


def write_dataset(model: ClutterModel, csv_path: str | Path,
                  spec: ClutterDataSpec | None = None) -> None:
    csv_path = Path(csv_path)
    csv_path.write_text(dataset_to_csv(model))
    sidecar = csv_path.with_suffix(csv_path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(dataset_metadata(model, spec), indent=2,
                                  sort_keys=True) + "\n")


def read_dataset(csv_path: str | Path) -> ClutterModel:
    csv_path = Path(csv_path)
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not all(h == f"y{j + 1}" for j, h in enumerate(header)):
            raise ValueError(f"unexpected dataset header {header!r}")
        data = np.array([[float(x) for x in row] for row in reader])
    sidecar = csv_path.with_suffix(csv_path.suffix + ".meta.json")
    meta = json.loads(sidecar.read_text())
    return ClutterModel(data=data, w=meta["w"],
                        prior_variance=meta["prior_variance"],
                        clutter_variance=meta["clutter_variance"])
