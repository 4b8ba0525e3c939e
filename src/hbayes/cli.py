"""Command-line driver: generate / train / rank / eval.

Usage errors exit with code 2 (argparse convention); runtime failures print
a diagnostic and exit with code 1.  All randomness flows from --seed, so
identical command lines produce identical output files.
"""

import argparse
import json
import sys

from . import evaluation, generator, inference, io, predictor
from .linalg import NumericalError
from .model import HyperParams


def _bounded(convert, ok, requirement):
    """An argparse type: ``convert`` the string, then reject it unless ``ok``."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


_positive_int = _bounded(int, lambda v: v >= 1, ">= 1")
_non_negative_int = _bounded(int, lambda v: v >= 0, ">= 0")
_positive_float = _bounded(float, lambda v: v > 0, "positive")
_non_negative_float = _bounded(float, lambda v: v >= 0, "non-negative")
_fold_count = _bounded(int, lambda v: v >= 2, ">= 2")


def cutoffs(text):
    """Comma-separated integers as a tuple; argparse names this type in errors."""
    return tuple(int(tok) for tok in text.split(","))


_cutoffs = _bounded(cutoffs, lambda ks: min(ks) >= 1, "comma-separated integers >= 1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbayes",
        description="Hierarchical Bayesian click model: synthetic data, training, "
                    "ranking, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a synthetic dataset")
    gen.add_argument("--users", type=_positive_int, required=True)
    gen.add_argument("--brands", type=_positive_int, required=True)
    gen.add_argument("--styles", type=_positive_int, required=True)
    gen.add_argument("--events", type=_positive_int, required=True)
    gen.add_argument("--dim", type=_positive_int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="events JSONL output path")
    gen.add_argument("--truth-out", help="ground-truth sidecar JSON output path")
    gen.add_argument("--feature-scale", type=_non_negative_float, default=1.0)
    gen.add_argument("--prec-user", type=_positive_float, default=4.0)
    gen.add_argument("--prec-brand", type=_positive_float, default=25.0)
    gen.add_argument("--prec-style", type=_positive_float, default=2.0)
    gen.add_argument("--prec-w", type=_positive_float, default=2.0)

    train = sub.add_parser("train", help="fit the model on an event file")
    train.add_argument("--events", required=True)
    train.add_argument("--styles", type=_positive_int, required=True)
    train.add_argument("--max-iters", type=_non_negative_int, default=200)
    train.add_argument("--tol", type=_positive_float, default=1e-5)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint-out", required=True)
    train.add_argument("--trace-out", help="ELBO trace CSV output path")

    rank = sub.add_parser("rank", help="rank candidate items for one user")
    rank.add_argument("--checkpoint", required=True)
    rank.add_argument("--events", required=True,
                      help="candidate items (JSONL; y optional, user ignored)")
    rank.add_argument("--user", required=True, help="user id string")
    rank.add_argument("--k", type=_positive_int, default=10)
    rank.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="cross-validated ranking metrics")
    ev.add_argument("--events", required=True)
    ev.add_argument("--styles", type=_positive_int, required=True)
    ev.add_argument("--folds", type=_fold_count, default=5)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--k", type=_cutoffs, default="5,10,25,50",
                    help="comma-separated cutoffs")
    ev.add_argument("--report-out", required=True)
    return parser


def _cmd_generate(args) -> int:
    hp = HyperParams(num_styles=args.styles, feature_dim=args.dim)
    precisions = (args.prec_user, args.prec_brand, args.prec_style, args.prec_w)
    data, truth = generator.sample_dataset(
        hp, num_users=args.users, num_brands=args.brands, num_events=args.events,
        true_precisions=precisions, feature_scale=args.feature_scale, seed=args.seed,
    )
    io.save_events(data, args.out)
    if args.truth_out:
        io.save_ground_truth(truth, precisions, args.feature_scale, args.truth_out)
    print(f"wrote {len(data)} events to {args.out}")
    return 0


def _cmd_train(args) -> int:
    data = io.load_events(args.events)
    hp = HyperParams(num_styles=args.styles, feature_dim=data.feature_dim,
                     max_iters=args.max_iters, rel_tol=args.tol)
    state, report = inference.fit(data, hp, seed=args.seed)
    io.save_checkpoint(io.Checkpoint(hp, state, report, data.user_ids, data.brand_ids),
                       args.checkpoint_out)
    if args.trace_out:
        io.save_trace_csv(report.elbo_trace, args.trace_out)
    last = report.elbo_trace[-1] if report.elbo_trace else float("nan")
    print(f"fit {report.iterations_run} sweeps (converged={report.converged}), "
          f"final ELBO {last:.6f}")
    return 0


def _cmd_rank(args) -> int:
    ckpt = io.load_checkpoint(args.checkpoint)
    candidates = io.load_candidates(args.events)

    user_index = {u: i for i, u in enumerate(ckpt.user_ids or [])}
    brand_index = {b: i for i, b in enumerate(ckpt.brand_ids or [])}
    user_id = user_index.get(args.user)

    items = [(item, x, brand_index.get(brand)) for item, x, brand, _ in candidates]
    if candidates[0][1].size != ckpt.hyperparams.feature_dim:  # rows of one array
        raise io.EventParseError(
            f"candidate feature length differs from model dimension "
            f"{ckpt.hyperparams.feature_dim}"
        )
    top = predictor.rank_top_k(user_id, items, ckpt.state, args.k)
    doc = {
        "user": args.user,
        "known_user": user_id is not None,
        "k": args.k,
        "ranking": [{"item_id": item, "prob": float(p)} for item, p in top],
    }
    io.save_json(doc, args.out)
    print(f"wrote top-{len(top)} ranking to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    data = io.load_events(args.events)
    hp = HyperParams(num_styles=args.styles, feature_dim=data.feature_dim)
    report = evaluation.cross_validate(data, hp, folds=args.folds, seed=args.seed,
                                       k_values=args.k)
    io.save_json(report, args.report_out)
    for k in args.k:
        row = report["mean"][str(k)]
        print(f"K={k}: precision={row['precision']:.4f} recall={row['recall']:.4f} "
              f"ndcg={row['ndcg']:.4f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "rank":
            return _cmd_rank(args)
        if args.command == "eval":
            return _cmd_eval(args)
    except (OSError, ValueError, NumericalError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
