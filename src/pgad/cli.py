"""Command line entry points: run, export-embeddings, compare."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .errors import PgadError, UsageError
from .evaluation import export_comparisons_csv
from .harness import (
    compare_arms,
    export_embeddings,
    load_summary_from_metrics_csv,
    run_scenario,
    scenario_from_dict,
)
from .nets import StudentNet, load_checkpoint
from .synthdata import import_dataset_csv


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    cfg = scenario_from_dict(raw)
    cfg = dataclasses.replace(cfg, output_dir=args.out)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, dataset=dataclasses.replace(cfg.dataset, seed=args.seed)
        )
    summary = run_scenario(cfg, jobs=args.jobs)
    for cell in summary.cells:
        parts = " ".join(f"{m}={cell.mean[m]:.4f}±{cell.std[m]:.4f}"
                         for m in ("mcc", "auc", "sen", "spe"))
        print(f"{cell.arm} rate={cell.rate}: {parts}")
    print(f"artifacts written to {cfg.output_dir}")
    return 0


def _cmd_export(args) -> int:
    net = load_checkpoint(args.checkpoint)
    if not isinstance(net, StudentNet):
        raise UsageError("embedding export needs a student checkpoint")
    samples = import_dataset_csv(args.data)
    export_embeddings(net, samples, args.out)
    print(f"wrote {len(samples)} embedding rows to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    metrics_path = os.path.join(args.summary, "metrics.csv")
    summary = load_summary_from_metrics_csv(metrics_path)
    results = compare_arms(summary, args.baseline, alpha=args.alpha, m=args.m,
                           rate=args.rate)
    out_path = os.path.join(args.summary, "comparisons.csv")
    export_comparisons_csv(results, out_path)
    for r in results:
        verdict = "significant" if r.significant else "not significant"
        print(f"{r.method_a} vs {r.method_b} [{r.metric}]: "
              f"t={r.t_statistic:.4f} p={r.p_value:.6g} ({verdict} at "
              f"alpha'={r.alpha_corrected:.6g})")
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgad",
        description="Prototype-guided distillation experiments on synthetic "
                    "two-modality data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config end to end")
    p_run.add_argument("--config", required=True, help="JSON scenario config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the dataset seed")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel training jobs (default 1)")
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("export-embeddings",
                           help="dump student features for a dataset CSV")
    p_exp.add_argument("--checkpoint", required=True, help="student checkpoint file")
    p_exp.add_argument("--data", required=True, help="dataset CSV")
    p_exp.add_argument("--out", required=True, help="output CSV")
    p_exp.set_defaults(func=_cmd_export)

    p_cmp = sub.add_parser("compare",
                           help="paired t-tests of every arm against a baseline")
    p_cmp.add_argument("--summary", required=True,
                       help="scenario output directory (holds metrics.csv)")
    p_cmp.add_argument("--baseline", required=True, help="baseline arm name")
    p_cmp.add_argument("--alpha", type=float, default=0.05)
    p_cmp.add_argument("--m", type=int, default=None,
                       help="number of comparisons for Bonferroni (default arms*metrics)")
    p_cmp.add_argument("--rate", type=float, default=None,
                       help="missing rate slice when the summary spans several")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PgadError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
