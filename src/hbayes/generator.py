"""Synthetic data sampled from the model's own generative process."""

from dataclasses import dataclass

import numpy as np

from .model import Dataset, HyperParams, sigmoid

__all__ = ["GroundTruth", "sample_dataset"]

# sample_dataset's defaults, which ``hbayes generate`` shares.
DEFAULT_TRUE_PRECISIONS = (4.0, 25.0, 2.0, 2.0)
DEFAULT_FEATURE_SCALE = 1.0


@dataclass
class GroundTruth:
    """True latents behind a sampled dataset."""

    style_vectors: np.ndarray  # (S, d)
    brand_vectors: np.ndarray  # (B, d)
    user_vectors: np.ndarray  # (U, d)
    style_assignments: np.ndarray  # (B,) style index per brand
    theta: np.ndarray  # (S,) style proportions
    w: np.ndarray  # (d,) style-prior mean

    def __post_init__(self):
        if not np.all(self.theta >= 0) or abs(self.theta.sum() - 1.0) > 1e-9:
            raise ValueError("theta must be a probability vector")
        if np.any(self.style_assignments < 0) or \
                np.any(self.style_assignments >= self.style_vectors.shape[0]):
            raise ValueError("style assignments out of range")


def sample_dataset(hp: HyperParams, num_users: int, num_brands: int, num_events: int,
                   true_precisions=DEFAULT_TRUE_PRECISIONS,
                   feature_scale: float = DEFAULT_FEATURE_SCALE,
                   seed: int = 0):
    """Draw (Dataset, GroundTruth) from the generative story.

    The hierarchy is sampled top down: w from N(0, 1/prec_w I), styles from
    N(w, 1/prec_s I), style proportions from Dir(gamma0), one style
    assignment per brand, brands from N(style, 1/prec_b I), users from
    N(0, 1/prec_u I).  Each event picks a user and a brand uniformly, draws
    features from N(0, feature_scale^2 I), and a Bernoulli label with
    probability sigmoid(x @ (B + U)).  Deterministic given the seed.

    ``true_precisions`` is (prec_u, prec_b, prec_s, prec_w).
    """
    if num_users < 1 or num_brands < 1 or num_events < 1:
        raise ValueError("num_users, num_brands and num_events must be >= 1")
    prec_u, prec_b, prec_s, prec_w = (float(p) for p in true_precisions)
    if not all(0 < p < np.inf for p in (prec_u, prec_b, prec_s, prec_w)):
        raise ValueError("true precisions must be positive and finite")
    if not 0 <= feature_scale < np.inf:
        raise ValueError("feature_scale must be non-negative and finite")

    rng = np.random.default_rng(seed)
    d = hp.feature_dim
    S = hp.num_styles

    w = rng.normal(0.0, prec_w ** -0.5, size=d)
    styles = w + rng.normal(0.0, prec_s ** -0.5, size=(S, d))
    theta = rng.dirichlet(hp.gamma0)
    assignments = rng.choice(S, size=num_brands, p=theta)
    brands = styles[assignments] + rng.normal(0.0, prec_b ** -0.5, size=(num_brands, d))
    users = rng.normal(0.0, prec_u ** -0.5, size=(num_users, d))

    event_users = rng.integers(0, num_users, size=num_events)
    event_brands = rng.integers(0, num_brands, size=num_events)
    X = feature_scale * rng.standard_normal((num_events, d))
    h = np.einsum("nd,nd->n", X, brands[event_brands] + users[event_users])
    labels = (rng.random(num_events) < sigmoid(h)).astype(int)

    data = Dataset.from_arrays(X, event_users, event_brands, labels, num_users, num_brands)
    truth = GroundTruth(style_vectors=styles, brand_vectors=brands, user_vectors=users,
                        style_assignments=assignments, theta=theta, w=w)
    return data, truth
