"""Command-line front end: run experiment matrices, prune saved models,
and rebuild summaries from the rows saved per cell."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import diagnostics, harness
from .errors import ParseError


def _cmd_run(args):
    spec = harness.parse_config(args.config)
    if args.seed_override is not None:
        spec.seeds = [args.seed_override]
    if args.dry_run:
        for solver, reg, seed in harness.plan_cells(spec):
            print(f"would run: {solver} x {harness._reg_tag(reg)} x seed={seed}")
        for solver, reg in spec.skipped:
            print(f"skipped:   {solver} x {reg} (nonconvex regularizer)")
        return 0
    summary = harness.run_experiments(
        spec, args.out, jobs=args.jobs, config_path=args.config
    )
    for row in summary:
        if row.get("skipped"):
            print(f"skipped {row['solver']} x {row['reg']}")
        elif "error" in row:
            print(f"FAILED  {row['cell']}: {row['error']}")
        else:
            acc = row["accuracy"]
            acc_s = f"{acc:6.2f}%" if acc is not None else "   n/a "
            print(
                f"{row['cell']:40s} F={row['final_objective']:.6g} "
                f"acc={acc_s} %zero={row['pct_zero']:6.2f} "
                f"stop={row['stop_reason']}"
            )
    print(f"summary written to {os.path.join(args.out, 'summary.json')}")
    return 1 if any("error" in row for row in summary) else 0


def _jobs(text):
    """--jobs: an integer from 1 to the number of CPUs."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise argparse.ArgumentTypeError(f"must be in [1, {cpus}], got {jobs}")
    return jobs


def _cmd_prune(args):
    x = harness.load_model(args.model)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    print(f"{'alpha':>12s} {'pruned_frac':>12s} {'pct_zero':>9s}")
    for alpha in args.alpha:
        x_p, frac = diagnostics.prune(x, alpha)
        report = diagnostics.sparsity_report(x_p, thresholds=(alpha,))
        print(f"{alpha:12.3e} {frac:12.4f} {report.pct_exact_zero:8.2f}%")
        if args.out:
            # the shortest form that reads back as alpha: 1e-3, 1.2e-3
            tag = np.format_float_scientific(alpha, trim="-", exp_digits=1)
            harness.save_model(
                os.path.join(args.out, f"pruned_{tag}.txt"), x_p
            )
    return 0


def _cmd_report(args):
    summary = harness.rebuild_summary(args.out)
    print(f"rebuilt {len(summary)} summary rows in {args.out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sr2kit",
        description="Sparsity-focused proximal optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment matrix")
    p_run.add_argument("--config", required=True, help="YAML experiment config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=_jobs, default=1,
                       help="max parallel cells, 1 to the CPU count (default 1)")
    p_run.add_argument("--dry-run", action="store_true",
                       help="list planned cells without running")
    p_run.add_argument("--seed-override", type=int, default=None,
                       help="replace config seeds with a single seed")
    p_run.set_defaults(func=_cmd_run)

    p_prune = sub.add_parser("prune", help="magnitude-prune a saved model")
    p_prune.add_argument("--model", required=True, help="model file")
    p_prune.add_argument("--alpha", type=float, nargs="+", required=True,
                         help="pruning threshold(s)")
    p_prune.add_argument("--out", default=None,
                         help="directory for pruned model files")
    p_prune.set_defaults(func=_cmd_prune)

    p_report = sub.add_parser(
        "report", help="rebuild summary.json from the saved cell rows")
    p_report.add_argument("--out", required=True,
                          help="experiment output directory")
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:  # a bad config or file: 2, as argparse gives
        print(f"sr2kit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
