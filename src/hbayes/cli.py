"""Command-line driver: generate / train / rank / eval.

Usage errors exit with code 2 (argparse convention); runtime failures print
a diagnostic and exit with code 1.  All randomness flows from --seed, so
identical command lines produce identical output files.
"""

import argparse
import json
import sys

from . import evaluation, generator, inference, io
from .linalg import NumericalError
from .model import HyperParams


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbayes",
        description="Hierarchical Bayesian click model: synthetic data, training, "
                    "ranking, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a synthetic dataset")
    gen.add_argument("--users", type=int, required=True)
    gen.add_argument("--brands", type=int, required=True)
    gen.add_argument("--styles", type=int, required=True)
    gen.add_argument("--events", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="events JSONL output path")
    gen.add_argument("--truth-out", help="ground-truth sidecar JSON output path")
    gen.add_argument("--feature-scale", type=float, default=1.0)
    gen.add_argument("--prec-user", type=float, default=4.0)
    gen.add_argument("--prec-brand", type=float, default=25.0)
    gen.add_argument("--prec-style", type=float, default=2.0)
    gen.add_argument("--prec-w", type=float, default=2.0)

    train = sub.add_parser("train", help="fit the model on an event file")
    train.add_argument("--events", required=True)
    train.add_argument("--styles", type=int, required=True)
    train.add_argument("--max-iters", type=int, default=200)
    train.add_argument("--tol", type=float, default=1e-5)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint-out", required=True)
    train.add_argument("--trace-out", help="ELBO trace CSV output path")

    rank = sub.add_parser("rank", help="rank candidate items for one user")
    rank.add_argument("--checkpoint", required=True)
    rank.add_argument("--events", required=True,
                      help="candidate items (JSONL; y optional, user ignored)")
    rank.add_argument("--user", required=True, help="user id string")
    rank.add_argument("--k", type=int, default=10)
    rank.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="cross-validated ranking metrics")
    ev.add_argument("--events", required=True)
    ev.add_argument("--styles", type=int, required=True)
    ev.add_argument("--folds", type=int, default=5)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--k", default="5,10,25,50", help="comma-separated cutoffs")
    ev.add_argument("--report-out", required=True)
    return parser


def _cmd_generate(args, parser) -> int:
    for flag in ("users", "brands", "events", "dim", "styles"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1")
    if args.feature_scale < 0:
        parser.error("--feature-scale must be non-negative")
    for flag in ("user", "brand", "style", "w"):
        if not getattr(args, f"prec_{flag}") > 0:
            parser.error(f"--prec-{flag} must be positive")

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


def _cmd_train(args, parser) -> int:
    if args.styles < 1:
        parser.error("--styles must be >= 1")
    if args.max_iters < 0:
        parser.error("--max-iters must be >= 0")
    if not args.tol > 0:
        parser.error("--tol must be positive")

    data = io.load_events(args.events)
    hp = HyperParams(num_styles=args.styles, feature_dim=data.feature_dim,
                     max_iters=args.max_iters, rel_tol=args.tol)
    state, report = inference.fit(data, hp, seed=args.seed)
    io.save_checkpoint(state, {
        "hyperparams": hp,
        "num_users": data.num_users,
        "num_brands": data.num_brands,
        "fit_report": report,
        "user_ids": data.user_ids,
        "brand_ids": data.brand_ids,
    }, args.checkpoint_out)
    if args.trace_out:
        io.save_trace_csv(report.elbo_trace, args.trace_out)
    last = report.elbo_trace[-1] if report.elbo_trace else float("nan")
    print(f"fit {report.iterations_run} sweeps (converged={report.converged}), "
          f"final ELBO {last:.6f}")
    return 0


def _cmd_rank(args, parser) -> int:
    from .predictor import rank_top_k

    if args.k < 1:
        parser.error("--k must be >= 1")

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
    top = rank_top_k(user_id, items, ckpt.state, args.k)
    doc = {
        "user": args.user,
        "known_user": user_id is not None,
        "k": args.k,
        "ranking": [{"item_id": item, "prob": float(p)} for item, p in top],
    }
    io.save_json(doc, args.out)
    print(f"wrote top-{len(top)} ranking to {args.out}")
    return 0


def _cmd_eval(args, parser) -> int:
    if args.folds < 2:
        parser.error("--folds must be at least 2")
    try:
        k_values = tuple(int(tok) for tok in args.k.split(","))
    except ValueError:
        parser.error("--k must be a comma-separated list of integers")
    if any(k < 1 for k in k_values):
        parser.error("--k cutoffs must be >= 1")
    if args.styles < 1:
        parser.error("--styles must be >= 1")

    data = io.load_events(args.events)
    hp = HyperParams(num_styles=args.styles, feature_dim=data.feature_dim)
    result = evaluation.cross_validate(data, hp, folds=args.folds, seed=args.seed,
                                       k_values=k_values)
    summary = result.summary()
    io.save_json(summary, args.report_out)
    for k in k_values:
        row = summary["mean"][str(k)]
        print(f"K={k}: precision={row['precision']:.4f} recall={row['recall']:.4f} "
              f"ndcg={row['ndcg']:.4f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args, parser)
        if args.command == "train":
            return _cmd_train(args, parser)
        if args.command == "rank":
            return _cmd_rank(args, parser)
        if args.command == "eval":
            return _cmd_eval(args, parser)
    except (OSError, ValueError, NumericalError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
