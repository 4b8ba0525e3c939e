"""Hierarchical Bayesian click model with coordinate-ascent variational inference.

A three-level hierarchy (latent styles -> brands -> items) plus per-user
latent vectors drives Bernoulli click events through a logistic link.
Inference is mean-field coordinate ascent made conjugate by a quadratic
lower bound on the sigmoid; prediction integrates the posterior with a
probit-style approximation.

Each module's ``__all__`` is the one place a name is declared public;
this package re-exports them all.
"""

from . import evaluation, generator, inference, io, model, predictor
from .evaluation import *  # noqa: F401,F403
from .generator import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .predictor import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*evaluation.__all__, *generator.__all__, *inference.__all__, *io.__all__,
           *model.__all__, *predictor.__all__, "__version__"]
