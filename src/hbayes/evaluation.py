"""Ranking-quality metrics and a per-user stratified cross-validation harness."""

from dataclasses import dataclass

import numpy as np

from .inference import fit
from .model import Dataset, HyperParams
from .predictor import by_score, score_candidates

__all__ = [
    "MetricReport",
    "CrossValidationResult",
    "precision_at_k",
    "recall_at_k",
    "ndcg_at_k",
    "stratified_user_folds",
    "cross_validate",
]

DEFAULT_K_VALUES = (5, 10, 25, 50)


@dataclass
class MetricReport:
    """Macro-averaged ranking metrics at one cutoff."""

    k: int
    precision: float
    recall: float
    ndcg: float
    num_users_evaluated: int


def precision_at_k(ranked, relevant, k: int) -> float:
    """Fraction of the top-k ranked items that are relevant.

    Denominator is min(k, len(ranked)); an empty ranking scores 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = list(ranked)
    if not ranked:
        return 0.0
    relevant = set(relevant)
    hits = sum(1 for item in ranked[:k] if item in relevant)
    return hits / min(k, len(ranked))


def recall_at_k(ranked, relevant, k: int) -> float:
    """Fraction of the relevant items found in the top k; 0 if none exist."""
    if k < 1:
        raise ValueError("k must be >= 1")
    relevant = set(relevant)
    if not relevant:
        return 0.0
    hits = sum(1 for item in list(ranked)[:k] if item in relevant)
    return hits / len(relevant)


def _gain(relevance, item) -> float:
    rel = relevance(item) if callable(relevance) else relevance.get(item, 0)
    return float(rel)


def ndcg_at_k(ranked, relevance, k: int) -> float:
    """Normalized discounted cumulative gain with binary gains.

    DCG@k = sum_i gain_i / log2(i + 1) over ranks i = 1..k; the normalizer
    is the DCG of the ideal reordering of the same gains, truncated at k.
    Returns 0 when no item is relevant.  ``relevance`` maps an item to
    {0, 1} (a mapping or a callable).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gains = [_gain(relevance, item) for item in ranked]
    discounts = 1.0 / np.log2(np.arange(2, len(gains) + 2))
    dcg = float(np.dot(gains[:k], discounts[: min(k, len(gains))]))
    ideal = sorted(gains, reverse=True)[:k]
    idcg = float(np.dot(ideal, discounts[: len(ideal)]))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def stratified_user_folds(data: Dataset, folds: int, seed: int) -> np.ndarray:
    """Assign each event to a fold, dealing each user's shuffled events round-robin.

    Returns an array of fold indices, with -1 marking events of users that
    have fewer than ``folds`` events (those users are excluded).
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    rng = np.random.default_rng(seed)
    fold_of = np.full(len(data), -1, dtype=int)
    order, bounds = data.user_order
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


@dataclass
class CrossValidationResult:
    """Per-fold metric reports plus aggregates across folds."""

    k_values: tuple
    fold_reports: list  # one list of MetricReports (per k) for each fold

    def mean_report(self, k: int) -> MetricReport:
        rows = [r for fold in self.fold_reports for r in fold if r.k == k]
        return MetricReport(
            k=k,
            precision=float(np.mean([r.precision for r in rows])),
            recall=float(np.mean([r.recall for r in rows])),
            ndcg=float(np.mean([r.ndcg for r in rows])),
            num_users_evaluated=int(sum(r.num_users_evaluated for r in rows)),
        )

    def summary(self) -> dict:
        """JSON-ready digest: per-fold values plus mean and standard deviation."""
        out = {"k_values": list(self.k_values), "folds": [], "mean": {}, "std": {}}
        for f, fold in enumerate(self.fold_reports):
            out["folds"].append({
                "fold": f,
                "metrics": {str(r.k): {"precision": r.precision, "recall": r.recall,
                                       "ndcg": r.ndcg,
                                       "num_users_evaluated": r.num_users_evaluated}
                            for r in fold},
            })
        for k in self.k_values:
            rows = [r for fold in self.fold_reports for r in fold if r.k == k]
            out["mean"][str(k)] = {
                "precision": float(np.mean([r.precision for r in rows])),
                "recall": float(np.mean([r.recall for r in rows])),
                "ndcg": float(np.mean([r.ndcg for r in rows])),
                "num_users_evaluated": float(np.mean([r.num_users_evaluated for r in rows])),
            }
            out["std"][str(k)] = {
                "precision": float(np.std([r.precision for r in rows])),
                "recall": float(np.std([r.recall for r in rows])),
                "ndcg": float(np.std([r.ndcg for r in rows])),
            }
        return out


def cross_validate(data: Dataset, hp: HyperParams, folds: int = 5, seed: int = 0,
                   k_values=DEFAULT_K_VALUES, scorer_factory=None) -> CrossValidationResult:
    """K-fold evaluation with per-user stratified event splits.

    Users with fewer than ``folds`` events are excluded.  For each fold the
    scorer is built on the training split (the default fits this model) and
    each user's held-out events are ranked; positives are the clicked
    held-out events.  Metrics are macro-averaged over users that have at
    least one held-out positive.  Deterministic given the seed.
    """
    if scorer_factory is None:
        scorer_factory = hbayes_scorer_factory

    fold_of = stratified_user_folds(data, folds, seed)
    if not np.any(fold_of >= 0):
        raise ValueError(
            f"dataset too small for stratification: no user has >= {folds} events"
        )

    fold_reports = []
    for f in range(folds):
        train = data.subset((fold_of != f) & (fold_of >= 0))
        test_idx = np.flatnonzero(fold_of == f)
        score = scorer_factory(train, hp, seed * folds + f)

        per_user = {}
        for t in test_idx:
            per_user.setdefault(int(data.users[t]), []).append(int(t))

        sums = {k: np.zeros(3) for k in k_values}
        evaluated = 0
        for user_id, items in sorted(per_user.items()):
            relevant = {t for t in items if data.y[t] == 1}
            if not relevant:
                continue
            candidates = [(t, data.X[t], int(data.brands[t])) for t in items]
            scores = np.asarray(score(user_id, candidates), dtype=float)
            ranked = [t for t, _ in by_score(items, scores.tolist())]
            evaluated += 1
            for k in k_values:
                sums[k] += (precision_at_k(ranked, relevant, k),
                            recall_at_k(ranked, relevant, k),
                            ndcg_at_k(ranked, {t: 1 for t in relevant}, k))

        reports = []
        for k in k_values:
            p, r, n = (sums[k] / evaluated) if evaluated else (0.0, 0.0, 0.0)
            reports.append(MetricReport(k=k, precision=float(p), recall=float(r),
                                        ndcg=float(n), num_users_evaluated=evaluated))
        fold_reports.append(reports)

    return CrossValidationResult(k_values=tuple(k_values), fold_reports=fold_reports)
