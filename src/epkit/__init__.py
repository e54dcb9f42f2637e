"""Expectation propagation and assumed-density filtering, with exact
brute-force oracles and a reproducible experiment harness.

Instantiated models: spherical-Gaussian mean estimation under known clutter,
the linear Bayes Point Machine classifier, and discrete factor graphs
(where the disconnected approximation recovers Boyen-Koller filtering and
loopy belief propagation).
"""

__version__ = "0.1.0"

from .bpm import (
    BpmBinding,
    BpmDataset,
    BpmModel,
    bpm_moment_match,
    bpm_predict,
    bpm_predict_batch,
    bpm_train,
    make_dataset,
)
from .clutter import (
    ClutterBinding,
    ClutterDataSpec,
    ClutterModel,
    clutter_moment_match,
    generate_clutter_data,
)
from .engine import (
    EPOptions,
    EPResult,
    EnergyReport,
    ModelBinding,
    OpTally,
    Schedule,
    check_fixed_point,
    ep_energy,
    ep_log_evidence,
    run_adf,
    run_ep,
)
from .factorgraph import (
    DiscreteFactorGraph,
    Factor,
    bk_adf,
    belief,
    load_network,
    loopy_ep,
)
from .gaussians import (
    FullGaussian,
    NaturalSpherical,
    RankOneSite,
    SphericalGaussian,
    combine_sites,
    divide_out,
    log_normal_pdf,
    log_probit,
    normal_pdf,
    probit,
    probit_ratio,
)
from .oracles import (
    ExactPosteriorSummary,
    SampleEstimate,
    enumerate_discrete,
    exact_bpm_step,
    exact_clutter,
    importance_sampler,
    nested_importance_sampler,
    tilted_moments_quadrature,
)

__all__ = [name for name in dir() if not name.startswith("_")]
