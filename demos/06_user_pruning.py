"""Measure how much of the users' personalisation a fit keeps when users
have few events.

A `wide`-sized instance (600 users, 200 brands, about 20 events per user,
d = 8) is fitted on four of five per-user folds, to tolerance.  Mean-field
VB tends to prune latent vectors that the data supports only weakly, so
the fitted user precision E[delta_u] climbs far above the generator's
true 4 and the fitted user vectors shrink towards zero.  The demo prints
that precision, the regression slope of fitted on true user coordinates,
and the mean held-out log-likelihood per event on fold 0 for the fit, the
fit with every user replaced by the cold-start prior, the generator's
true vectors, and the true brands with no user term.
"""

import numpy as np

from hbayes import (HyperParams, fit, sample_dataset, score_candidates, sigmoid,
                    stratified_user_folds)

hp = HyperParams(num_styles=3, feature_dim=8, max_iters=1000)
data, truth = sample_dataset(hp, num_users=600, num_brands=200, num_events=12_000, seed=7)
fold_of = stratified_user_folds(data, 5, 0)
state, report = fit(data.subset(fold_of != 0), hp, seed=7)
print(f"{report.iterations_run} sweeps, converged: {report.converged}")
print(f"E[delta_u] = {state.prec_u.mean:.1f} (true 4)")

slope = np.polyfit(truth.user_vectors.ravel(), state.user_mean.ravel(), 1)[0]
print(f"slope of fitted on true user coordinates: {slope:.3f} (1 keeps the full scale)")

held = np.flatnonzero(fold_of == 0)
X, users, brands, y = data.X[held], data.users[held], data.brands[held], data.y[held]
candidates = [(t, x, b) for t, x, b in zip(held.tolist(), X, brands.tolist())]


def fitted_probs(user_of):
    """Click probability of every held-out event, scored per user with the
    user id ``user_of(u)``."""
    prob = np.empty(len(held))
    for u in np.unique(users).tolist():
        rows = np.flatnonzero(users == u)
        prob[rows] = score_candidates(user_of(u), [candidates[i] for i in rows], state)[2]
    return prob


true_brand = np.einsum("nd,nd->n", X, truth.brand_vectors[brands])
true_user = np.einsum("nd,nd->n", X, truth.user_vectors[users])
cases = {
    "fit": fitted_probs(lambda u: u),
    "fit, every user at user_prior": fitted_probs(lambda u: None),
    "true vectors": sigmoid(true_brand + true_user),
    "true brands, no user term": sigmoid(true_brand),
}
print(f"mean held-out log-likelihood per event, fold 0 ({len(held)} events):")
for name, prob in cases.items():
    loglik = np.mean(y * np.log(prob) + (1.0 - y) * np.log1p(-prob))
    print(f"  {name:30s} {loglik:.4f}")
