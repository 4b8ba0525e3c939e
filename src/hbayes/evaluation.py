"""Ranking-quality metrics and a per-user stratified cross-validation harness."""

import numpy as np

from .inference import fit
from .model import Dataset, HyperParams, _sort_by_entity
from .predictor import by_score, score_candidates

__all__ = [
    "precision_at_k",
    "recall_at_k",
    "ndcg_at_k",
    "stratified_user_folds",
    "cross_validate",
]

DEFAULT_FOLDS = 5
DEFAULT_K_VALUES = (5, 10, 25, 50)
_METRICS = ("precision", "recall", "ndcg")


def precision_at_k(ranked, relevant, k: int) -> float:
    """Fraction of the top-k ranked items that are relevant.

    Denominator is min(k, len(ranked)); an empty ranking scores 0.
    """
    return _ranking_metrics(ranked, relevant, k)[0]


def recall_at_k(ranked, relevant, k: int) -> float:
    """Fraction of the relevant items found in the top k; 0 if none exist."""
    return _ranking_metrics(ranked, relevant, k)[1]


def ndcg_at_k(ranked, relevant, k: int) -> float:
    """Normalized discounted cumulative gain with binary gains: an item's
    gain is 1 if it is relevant, else 0.

    DCG@k = sum_i gain_i / log2(i + 1) over ranks i = 1..k; the normalizer
    is the DCG of the ideal reordering of the same gains, truncated at k.
    Returns 0 when no ranked item is relevant.
    """
    return _ranking_metrics(ranked, relevant, k)[2]


def _ranking_metrics(ranked, relevant, k: int):
    """(precision, recall, NDCG) at k from one 0/1 gains array of ``ranked``
    against the set ``relevant``; a metric whose denominator is 0 scores 0.
    Raises ValueError if k < 1 or if an item is ranked twice."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked, relevant = list(ranked), set(relevant)
    if len(set(ranked)) < len(ranked):
        raise ValueError("ranked must not hold an item twice")
    gains = np.array([item in relevant for item in ranked], dtype=float)
    n = min(k, len(ranked))
    hits = float(gains[:n].sum())
    discounts = 1.0 / np.log2(np.arange(2, n + 2))
    # The ideal ranking puts every relevant item first: the gains sorted descending.
    idcg = float(np.dot((np.arange(n) < gains.sum()).astype(float), discounts))
    return (hits / n if n else 0.0, hits / len(relevant) if relevant else 0.0,
            float(np.dot(gains[:n], discounts)) / idcg if idcg else 0.0)


def stratified_user_folds(data: Dataset, folds: int, seed: int) -> np.ndarray:
    """Assign each event to a fold, dealing each user's shuffled events round-robin.

    Returns an array of fold indices, with -1 marking events of users that
    have fewer than ``folds`` events (those users are excluded).
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    rng = np.random.default_rng(seed)
    fold_of = np.full(len(data), -1, dtype=int)
    order, bounds = _sort_by_entity(data.users, data.num_users)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < folds:
            continue
        perm = rng.permutation(order[lo:hi])
        fold_of[perm] = np.arange(perm.size) % folds
    return fold_of


def hbayes_scorer_factory(train: Dataset, hp: HyperParams, seed: int):
    """Default scorer: fit the model on the training split, score by click probability."""
    state, _ = fit(train, hp, seed=seed)

    def score(user_id, candidates):
        return score_candidates(user_id, candidates, state)[2]

    return score


def cross_validate(data: Dataset, hp: HyperParams, folds: int = DEFAULT_FOLDS, seed: int = 0,
                   k_values=DEFAULT_K_VALUES, scorer_factory=hbayes_scorer_factory) -> dict:
    """K-fold evaluation with per-user stratified event splits.

    Users with fewer than ``folds`` events are excluded.  For each fold
    ``scorer_factory(train, hp, seed)`` builds a scorer on the training
    split (the default, ``hbayes_scorer_factory``, fits this model) and each
    user's held-out events are ranked by it.  The relevant set is the
    clicked held-out events, and precision, recall and NDCG at each cutoff
    come from one scoring of (ranked, relevant, k).  Metrics are
    macro-averaged over users that have at least one held-out positive.
    Deterministic given the seed.

    Returns the metrics report that ``hbayes eval`` writes (layout in
    docs/file_formats.md): ``k_values``, one entry per fold under
    ``folds``, and the ``mean`` and ``std`` across folds at each cutoff.
    """
    fold_of = stratified_user_folds(data, folds, seed)
    if not np.any(fold_of >= 0):
        raise ValueError(
            f"dataset too small for stratification: no user has >= {folds} events"
        )

    metrics = np.zeros((folds, len(k_values), len(_METRICS)))  # per-fold macro-averages
    evaluated = np.zeros(folds, dtype=int)
    for f in range(folds):
        train = data.subset((fold_of != f) & (fold_of >= 0))
        test_idx = np.flatnonzero(fold_of == f)
        score = scorer_factory(train, hp, seed * folds + f)

        per_user = {}
        for t in test_idx:
            per_user.setdefault(int(data.users[t]), []).append(int(t))

        for user_id, items in sorted(per_user.items()):
            relevant = {t for t in items if data.y[t] == 1}
            if not relevant:
                continue
            candidates = [(t, data.X[t], int(data.brands[t])) for t in items]
            scores = np.asarray(score(user_id, candidates), dtype=float)
            ranked = [t for t, _ in by_score(items, scores.tolist())]
            evaluated[f] += 1
            for i, k in enumerate(k_values):
                metrics[f, i] += _ranking_metrics(ranked, relevant, k)
        if evaluated[f]:
            metrics[f] /= evaluated[f]
    return _report(k_values, metrics, evaluated)


def _report(k_values, metrics, evaluated) -> dict:
    """The metrics report from per-fold macro-averages (folds, cutoffs, metrics)
    and per-fold counts of evaluated users.  Each mean and std reduces one
    1-D column of folds: reducing a block along an axis sums in another
    order and can change the last digit."""
    report = {"k_values": list(k_values), "folds": [], "mean": {}, "std": {}}
    for f, count in enumerate(evaluated.tolist()):
        report["folds"].append({"fold": f, "metrics": {
            str(k): {**dict(zip(_METRICS, metrics[f, i].tolist())),
                     "num_users_evaluated": count}
            for i, k in enumerate(k_values)}})
    for i, k in enumerate(k_values):
        columns = dict(zip(_METRICS, metrics[:, i].T))
        report["mean"][str(k)] = {**{m: float(np.mean(c)) for m, c in columns.items()},
                                  "num_users_evaluated": float(np.mean(evaluated))}
        report["std"][str(k)] = {m: float(np.std(c)) for m, c in columns.items()}
    return report
