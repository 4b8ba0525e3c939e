"""Workload definitions and their seeded inputs.

Every input comes from ``hbayes.generator.sample_dataset`` and from a numpy
generator seeded with the benchmark seed, so one seed always gives the same
event file, candidate pool and requests.  Users and brands held out of the
event file are the unseen users and cold brands of the serving traffic; the
generator's ground truth still knows their latent vectors.
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    users: int              # users with events in the training file
    brands: int             # brands with events in the training file
    unseen_users: int       # users held out of training, asked for at serving time
    cold_brands: int        # brands held out of training, present in the pool
    events: int             # events sampled before held-out ones are dropped
    dim: int
    styles: int
    sweeps: int             # hbayes train --max-iters, below convergence
    pool: int               # candidate pool size
    pool_cold: int          # of which from cold brands
    candidates: int         # candidates per request
    long_candidates: int    # candidates per long request
    cold_share: float       # share of every request's candidates from cold brands
    k: int
    round_requests: int     # requests in one round, cycled by the client
    round_long: int         # of which with long_candidates
    round_unseen: int       # of which from unseen users


# In every workload one request in ten has a list 40 (serve: 5) times longer,
# so the 95th percentile lies among those requests and not on whichever
# short request the host or the scheduler happened to delay.  Long requests
# take 50 ms or more, so one hypervisor preemption moves them little.
WORKLOADS = {
    # Many entities with few events each: per-entity updates dominate a sweep.
    "wide": Workload("wide", users=600, brands=200, unseen_users=0, cold_brands=0,
                     events=12_000, dim=8, styles=3, sweeps=4,
                     pool=4_000, pool_cold=0, candidates=50, long_candidates=2_000,
                     cold_share=0.0, k=10, round_requests=50, round_long=5, round_unseen=0),
    # Few entities, many events, larger d: the per-event pass dominates.
    "deep": Workload("deep", users=40, brands=15, unseen_users=0, cold_brands=0,
                     events=30_000, dim=20, styles=3, sweeps=4,
                     pool=4_000, pool_cold=0, candidates=50, long_candidates=2_000,
                     cold_share=0.0, k=10, round_requests=50, round_long=5, round_unseen=0),
    # A moderate model and long candidate lists: ranking dominates, with a
    # fixed share of cold brands and unseen users.
    "serve": Workload("serve", users=200, brands=80, unseen_users=20, cold_brands=20,
                      events=12_000, dim=10, styles=3, sweeps=3,
                      pool=8_000, pool_cold=1_600, candidates=1_000, long_candidates=5_000,
                      cold_share=0.2, k=20, round_requests=20, round_long=2, round_unseen=2),
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in a few seconds."""
    return replace(w, users=12, brands=6, unseen_users=min(w.unseen_users, 3),
                   cold_brands=min(w.cold_brands, 2), events=600, dim=min(w.dim, 4),
                   sweeps=2, pool=60, pool_cold=w.pool_cold and 12, candidates=10,
                   long_candidates=40, k=5, round_requests=6,
                   round_long=min(w.round_long, 1), round_unseen=min(w.round_unseen, 1))


@dataclass
class Inputs:
    events_path: Path
    pool_path: Path
    requests: list          # one round: [{"user": str, "items": [int], "k": int}]
    pool_x: np.ndarray      # (P, d) candidate features
    pool_brand: list        # (P,) brand id strings
    true_brand: dict        # brand id -> true latent vector
    true_user: dict         # user id -> true latent vector
    brand_rate: dict        # brand id -> training click rate
    global_rate: float


def generate(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the event file and candidate pool for one run; return the rest."""
    from hbayes import Dataset, HyperParams, io, sample_dataset

    hp = HyperParams(num_styles=w.styles, feature_dim=w.dim)
    data, truth = sample_dataset(hp, num_users=w.users + w.unseen_users,
                                 num_brands=w.brands + w.cold_brands,
                                 num_events=w.events, seed=seed)
    kept = [e for e in data.events if e.user < w.users and e.brand < w.brands]
    train = Dataset(events=kept, num_users=w.users, num_brands=w.brands, feature_dim=w.dim)
    events_path = workdir / "events.jsonl"
    io.save_events(train, events_path)

    # Known means "has events in the file"; only those are in the checkpoint.
    known_users = sorted({e.user for e in kept})
    known_brands = sorted({e.brand for e in kept})
    clicks = np.zeros(w.brands + w.cold_brands)
    shown = np.zeros(w.brands + w.cold_brands)
    for e in kept:
        clicks[e.brand] += e.y
        shown[e.brand] += 1

    rng = np.random.default_rng([seed, 1])
    cold_ids = np.arange(w.brands, w.brands + w.cold_brands)
    pool_brand_idx = np.concatenate([
        rng.choice(known_brands, size=w.pool - w.pool_cold),
        rng.choice(cold_ids, size=w.pool_cold) if w.pool_cold else np.zeros(0, int),
    ]).astype(int)
    pool_x = rng.standard_normal((w.pool, w.dim))
    pool_brand = [f"b{b}" for b in pool_brand_idx]
    pool_path = workdir / "pool.jsonl"
    with open(pool_path, "w", encoding="utf-8") as fh:
        for x, brand in zip(pool_x, pool_brand):
            fh.write(json.dumps({"brand": brand, "user": "", "x": [float(v) for v in x]})
                     + "\n")

    known_items = np.arange(w.pool - w.pool_cold)
    cold_items = np.arange(w.pool - w.pool_cold, w.pool)
    unseen = np.arange(w.users, w.users + w.unseen_users)
    requests = []
    for j in range(w.round_requests):
        # Long requests come first and unseen users last, so they never overlap.
        size = w.long_candidates if j < w.round_long else w.candidates
        cold = round(w.cold_share * size)
        unseen_user = j >= w.round_requests - w.round_unseen
        user = rng.choice(unseen) if unseen_user else rng.choice(known_users)
        items = np.concatenate([rng.choice(known_items, size=size - cold, replace=False),
                                rng.choice(cold_items, size=cold, replace=False)])
        rng.shuffle(items)
        requests.append({"user": f"u{user}", "items": [int(i) for i in items], "k": w.k})
    rng.shuffle(requests)

    total = max(shown.sum(), 1.0)
    return Inputs(
        events_path=events_path,
        pool_path=pool_path,
        requests=requests,
        pool_x=pool_x,
        pool_brand=pool_brand,
        true_brand={f"b{i}": v for i, v in enumerate(truth.brand_vectors)},
        true_user={f"u{k}": v for k, v in enumerate(truth.user_vectors)},
        brand_rate={f"b{i}": clicks[i] / shown[i] for i in known_brands},
        global_rate=float(clicks.sum() / total),
    )
