"""Hierarchical Bayesian click model with coordinate-ascent variational inference.

A three-level hierarchy (latent styles -> brands -> items) plus per-user
latent vectors drives Bernoulli click events through a logistic link.
Inference is mean-field coordinate ascent made conjugate by a quadratic
lower bound on the sigmoid; prediction integrates the posterior with a
probit-style approximation.
"""

from .evaluation import (
    CrossValidationResult,
    MetricReport,
    cross_validate,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    stratified_user_folds,
)
from .generator import GroundTruth, sample_dataset
from .inference import (
    FitReport,
    cavi_sweep,
    fit,
    initial_state,
    update_brands,
    update_precisions,
    update_responsibilities,
    update_styles,
    update_theta,
    update_users,
    update_w,
    update_xi,
)
from .io import (
    Checkpoint,
    CheckpointError,
    EventParseError,
    hash_features,
    load_checkpoint,
    load_events,
    save_checkpoint,
    save_events,
)
from .model import (
    Dataset,
    EventRecord,
    GammaPosterior,
    HyperParams,
    NumericalError,
    VariationalState,
    elbo,
    elbo_terms,
    event_log_likelihood,
    jj_lower_bound,
    lambda_of_xi,
    sigmoid,
)
from .predictor import (
    PredictionScore,
    brand_prior,
    predict_prob,
    predictive_moments,
    rank_top_k,
    score_candidate,
    score_candidates,
    user_prior,
)

__version__ = "0.1.0"

__all__ = [
    "CrossValidationResult",
    "MetricReport",
    "cross_validate",
    "ndcg_at_k",
    "precision_at_k",
    "recall_at_k",
    "stratified_user_folds",
    "GroundTruth",
    "sample_dataset",
    "FitReport",
    "cavi_sweep",
    "fit",
    "initial_state",
    "update_brands",
    "update_precisions",
    "update_responsibilities",
    "update_styles",
    "update_theta",
    "update_users",
    "update_w",
    "update_xi",
    "Checkpoint",
    "CheckpointError",
    "EventParseError",
    "hash_features",
    "load_checkpoint",
    "load_events",
    "save_checkpoint",
    "save_events",
    "Dataset",
    "EventRecord",
    "GammaPosterior",
    "HyperParams",
    "NumericalError",
    "VariationalState",
    "elbo",
    "elbo_terms",
    "event_log_likelihood",
    "jj_lower_bound",
    "lambda_of_xi",
    "sigmoid",
    "PredictionScore",
    "brand_prior",
    "predict_prob",
    "predictive_moments",
    "rank_top_k",
    "score_candidate",
    "score_candidates",
    "user_prior",
    "__version__",
]
