"""Recover hidden brand clusters from click data alone.

With well-separated true styles, the argmax of the fitted responsibilities
reproduces the true brand-to-style assignment up to a label permutation.
A few restarts (picked by final ELBO) guard against merged-cluster local
optima.
"""

import numpy as np

from hbayes import HyperParams, fit, sample_dataset

gen_hp = HyperParams(num_styles=3, feature_dim=10, gamma0=np.full(3, 50.0))
fit_hp = HyperParams(num_styles=3, feature_dim=10, max_iters=150, rel_tol=1e-5)

data, truth = sample_dataset(gen_hp, num_users=10, num_brands=30, num_events=3000,
                             true_precisions=(4.0, 100.0, 0.25, 1.0), seed=1)

sep = min(np.linalg.norm(truth.style_vectors[i] - truth.style_vectors[j])
          for i in range(3) for j in range(i + 1, 3))
print(f"true style separation: {sep:.2f} (brand spread around a style: "
      f"{100.0 ** -0.5:.2f})")

state, report = fit(data, fit_hp, seed=1, restarts=3)
fitted = state.resp.argmax(axis=1)

confusion = np.zeros((3, 3), dtype=int)
for true_j, fit_j in zip(truth.style_assignments, fitted):
    confusion[true_j, fit_j] += 1
print("confusion (rows: true style, cols: fitted style):")
print(confusion)
print("a single non-zero entry per row/column means perfect recovery "
      "up to relabeling")

soft = state.resp.max(axis=1)
print(f"responsibility confidence: min {soft.min():.3f}, mean {soft.mean():.3f}")
