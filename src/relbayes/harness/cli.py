"""Command-line entry point.

Subcommands:

  run CONFIG       run the experiment described by a config file
  verify           toy-scale diagnostics suite with exact enumeration checks
  smoking [CSV] [MODE]
                   leave-one-study-out case study (defaults: packaged data,
                   all three proxy modes)
  plot CSV [CSV..] boxplot SVG from previously emitted results

Flags --seed, --out, --jobs override the corresponding config values;
run also takes --grid, which only the experiments with a parameter grid
(linear, gp) accept.  smoking's arguments are checked as config values
are.  Exit codes: 0 success, 1 invalid input, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .. import __version__
from .config import ConfigError, ExperimentConfig, apply_overrides, parse_config
from .csvio import emit_csv, emit_metadata, read_csv
from .runner import RunFailureError, finite_groups, results_rows, run_experiment, \
    summary_rows, write_run_outputs
from ..synthetic import task_rng
from .smoking import BASELINE_NOTE, PARTITION_COLUMNS, PROXY_SETTINGS, \
    fit_study_intercepts, ingest_smoking_csv, packaged_smoking_path, partition_rows, \
    run_smoking_comparison
from .svgplot import emit_boxplot_svg

RESIDUAL_TOL = 1e-9


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relbayes",
                                     description="relevance-weighted transfer "
                                                 "learning experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed override")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--jobs", type=int, default=None, help="parallel workers")

    p_run = sub.add_parser("run", parents=[common], help="run a configured experiment")
    p_run.add_argument("--grid", type=int, default=None,
                       help="grid resolution (linear and gp only)")
    p_run.add_argument("config", type=str, help="path to a key = value config file")

    sub.add_parser("verify", parents=[common],
                   help="exact diagnostics suite on random toy instances")

    p_smk = sub.add_parser("smoking", parents=[common],
                           help="leave-one-study-out predictive comparison")
    p_smk.add_argument("csv", nargs="?", default="",
                       help="arm table (default: packaged dataset)")
    p_smk.add_argument("mode", nargs="?", default="all",
                       choices=[*sorted(PROXY_SETTINGS), "all"],
                       help="proxy informativeness setting")
    p_smk.add_argument("--samples", type=int, default=20000,
                       help="Metropolis iterations per fit")

    p_plot = sub.add_parser("plot", help="boxplot SVG from results CSVs")
    p_plot.add_argument("csv", nargs="+", help="results CSV file(s)")
    p_plot.add_argument("--out", type=str, default="plot.svg")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = apply_overrides(parse_config(args.config), seed=args.seed,
                             out=args.out, jobs=args.jobs, grid=args.grid)
    if config.experiment == "smoking":
        return _smoking_body(config)
    results = run_experiment(config)
    out = write_run_outputs(config, results)
    for row in summary_rows(results_rows(results, config.group_label())):
        print(f"{row['label']}: median advantage {row['median']:+.4f} "
              f"over {row['count']} simulations")
    times = [r.wall_time_ms for r in results]
    print(f"wall time per simulation: median {np.median(times):g} ms, "
          f"max {max(times)} ms over {len(times)} simulations")
    print(f"outputs in {out}")
    return 0


def _cmd_verify(args) -> int:
    config = apply_overrides(
        ExperimentConfig(experiment="toy-verify", n_simulations=20),
        seed=args.seed, out=args.out, jobs=args.jobs)
    results = run_experiment(config)
    write_run_outputs(config, results)
    failures = 0
    for r in results:
        if r.error is not None:
            print(f"instance {r.seed}: FAIL ({r.error})")
            failures += 1
            continue
        d = r.diagnostics
        ok = (abs(d.decomposition_residual) < RESIDUAL_TOL
              and d.bound_classic.satisfied
              and d.delta_classic >= 0.0 and d.delta_rweighted >= 0.0
              and d.entropy_true >= 0.0)
        print(f"instance {r.seed}: {'pass' if ok else 'FAIL'} "
              f"(residual {d.decomposition_residual:.2e}, "
              f"bound {'ok' if d.bound_classic.satisfied else 'VIOLATED'})")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(results)} instances failed")
        return 2
    print(f"all {len(results)} instances verified")
    return 0


def _mode_task(packed):
    records, mode, seed, n_samples, intercepts = packed
    return run_smoking_comparison(records, mode, seed, n_samples,
                                  intercepts=intercepts)


def _smoking_body(config: ExperimentConfig) -> int:
    seed, n_samples = config.master_seed, config.mcmc_samples
    path = Path(config.smoking_csv) if config.smoking_csv else packaged_smoking_path()
    records = ingest_smoking_csv(path)
    modes = sorted(PROXY_SETTINGS) if config.proxy_mode == "all" else [config.proxy_mode]
    intercepts = fit_study_intercepts(
        records, n_samples, int(task_rng(seed, 0).integers(2 ** 31)))
    tasks = [(records, m, seed + k + 1, n_samples, intercepts)
             for k, m in enumerate(modes)]
    if config.parallelism > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(config.parallelism, len(tasks))) as pool:
            per_mode = list(pool.map(_mode_task, tasks))
    else:
        per_mode = [_mode_task(t) for t in tasks]

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [row for results in per_mode for row in partition_rows(results)]
    emit_csv(rows, out / "partitions.csv", columns=PARTITION_COLUMNS)
    emit_csv(summary_rows(rows, value_column="log_ratio", group_column="proxy_mode"),
             out / "summary.csv")
    emit_boxplot_svg(finite_groups(rows, "log_ratio", "proxy_mode"), out / "boxplot.svg",
                     title="held-out predictive comparison",
                     y_label="log predictive ratio (weighted / classic)")
    emit_metadata(out / "run_metadata.txt", [
        f"relbayes {__version__}",
        f"data: {path}",
        f"seed = {seed}", f"mcmc_samples = {n_samples}",
        f"modes = {','.join(modes)}",
        BASELINE_NOTE,
    ])
    for m, results in zip(modes, per_mode):
        med = float(np.median([r.log_ratio for r in results]))
        print(f"{m}: median log predictive ratio {med:+.4f} "
              f"over {len(results)} partitions")
    print(f"outputs in {out}")
    return 0


def _cmd_plot(args) -> int:
    groups: dict = {}
    for path in args.csv:
        rows = read_csv(path)
        if not rows:
            raise ValueError(f"{path}: no data rows")
        if "log_ratio" in rows[0]:
            value_col, group_col = "log_ratio", "proxy_mode"
        elif "advantage" in rows[0]:
            value_col, group_col = "advantage", "label"
        else:
            raise ValueError(f"{path}: no advantage or log_ratio column to plot")
        for key, values in finite_groups(rows, value_col, group_col).items():
            groups.setdefault(str(key), []).extend(values)
    if not groups:
        raise ValueError("nothing to plot after filtering failed rows")
    emit_boxplot_svg(groups, args.out, y_label=value_col)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "smoking":
            return _smoking_body(apply_overrides(
                ExperimentConfig(experiment="smoking", smoking_csv=args.csv,
                                 proxy_mode=args.mode, mcmc_samples=args.samples),
                seed=args.seed, out=args.out, jobs=args.jobs))
        return _cmd_plot(args)
    except RunFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
