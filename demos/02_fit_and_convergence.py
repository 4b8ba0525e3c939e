"""Fit the model by coordinate ascent and watch the ELBO climb.

Every sweep updates responsibilities, style proportions, user/brand/style
vectors, the style-prior mean, the four precisions, and the per-event
bound locations; each update maximizes the bound exactly, so the trace is
non-decreasing until the relative change drops below the tolerance.
"""

import numpy as np

from hbayes import HyperParams, fit, sample_dataset

hp = HyperParams(num_styles=3, feature_dim=10, max_iters=100, rel_tol=1e-5)
data, truth = sample_dataset(hp, num_users=20, num_brands=15, num_events=2000,
                             seed=3)

state, report = fit(data, hp, seed=0)

trace = np.array(report.elbo_trace)
print(f"converged: {report.converged} after {report.iterations_run} sweeps")
print("first sweeps:", np.round(trace[:5], 2))
print("last sweeps: ", np.round(trace[-5:], 2))
print(f"monotone: {bool(np.all(np.diff(trace) >= -1e-6 * np.abs(trace[:-1])))}")

# learned precisions vs the generator defaults (4, 25, 2, 2)
print("posterior precision means:",
      {name: round(p.mean, 2) for name, p in
       (("user", state.prec_u), ("brand", state.prec_b),
        ("style", state.prec_s), ("w", state.prec_w))})

# hard style memberships found for the brands
print("brands per fitted style:",
      np.bincount(state.resp.argmax(axis=1), minlength=hp.num_styles))
