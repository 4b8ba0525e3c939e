"""Rank held-out items and score the ranking against a popularity baseline.

Prediction integrates the Gaussian score posterior with the probit-style
shortcut sigmoid(mu / sqrt(1 + pi sigma^2 / 8)), so uncertain scores are
pulled toward 1/2.  The cross-validation harness macro-averages
precision/recall/NDCG over users with held-out positives.
"""

import numpy as np

from hbayes import (HyperParams, cross_validate, fit, rank_top_k, sample_dataset,
                    score_candidates)

hp = HyperParams(num_styles=3, feature_dim=10, max_iters=100, rel_tol=1e-5)
data, _ = sample_dataset(hp, num_users=20, num_brands=15, num_events=2000, seed=7)

# --- single-user ranking -------------------------------------------------
state, _ = fit(data, hp, seed=0)
rng = np.random.default_rng(0)
candidates = [(i, rng.standard_normal(10), int(rng.integers(15))) for i in range(30)]
top = rank_top_k(user_id=3, candidates=candidates, state=state, k=5)
print("top-5 for user 3:")
for item, prob in top:
    print(f"  item {item:2d}  p(click) = {prob:.3f}")

_, (sigma2,), (prob,) = score_candidates(None, [(None, candidates[0][1], None)], state)
print(f"cold-start (unknown user & brand): p = {prob:.3f}, variance {sigma2:.2f}")

# --- cross-validated metrics ---------------------------------------------
result = cross_validate(data, hp, folds=5, seed=0, k_values=(5, 10))
for k in (5, 10):
    mean = result.mean_report(k)
    print(f"K={k}: precision {mean.precision:.3f}, recall {mean.recall:.3f}, "
          f"NDCG {mean.ndcg:.3f}  ({mean.num_users_evaluated} user-folds)")
