"""Command-line entry point.

Subcommands:

  run CONFIG       run the experiment described by a config file
  verify           run's toy-verify sweep on 20 built-in random toy instances
  smoking [MODE] [--data CSV]
                   leave-one-study-out case study
  plot CSV [CSV..] boxplot SVG from previously emitted results

run, verify and smoking build one config and run it on one path.  Each flag
sets the config key config.FLAG_KEYS names, and the config holds every
default and check.  A toy-verify run, verify's or run's, prints each
instance's verdict too.  Exit codes: 0 success, 1 invalid input, 2 runtime
failure (too many failed simulations, or a failed toy-verify instance)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .. import __version__
from .config import FLAG_KEYS, ConfigError, ExperimentConfig, apply_overrides, \
    parse_config
from .csvio import read_csv
from .runner import RunFailureError, finite_groups, map_jobs, run_experiment, \
    write_outputs, write_run_outputs
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
    common.add_argument("--seed", help="master seed (master_seed)")
    common.add_argument("--out", help="output directory (output_dir)")
    common.add_argument("--jobs", help="parallel workers (parallelism)")
    common.add_argument("--grid", help="grid resolution, linear and gp only (grid_resolution)")

    p_run = sub.add_parser("run", parents=[common], help="run a configured experiment")
    p_run.add_argument("config", type=str, help="path to a key = value config file")

    sub.add_parser("verify", parents=[common],
                   help="exact diagnostics suite on random toy instances")

    p_smk = sub.add_parser("smoking", parents=[common],
                           help="leave-one-study-out predictive comparison")
    p_smk.add_argument("mode", nargs="?", metavar="MODE",
                       help="proxy informativeness setting (proxy_mode)")
    p_smk.add_argument("--samples", help="Metropolis iterations per fit (mcmc_samples)")
    p_smk.add_argument("--data", metavar="CSV", help="arm table (smoking_csv)")

    p_plot = sub.add_parser("plot", help="boxplot SVG from results CSVs")
    p_plot.add_argument("csv", nargs="+", help="results CSV file(s)")
    p_plot.add_argument("--out", type=str, default="plot.svg")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _config(args) -> ExperimentConfig:
    """run's config file, verify's 20 toy instances or the smoking study, flags set."""
    if args.command == "run":
        config = parse_config(args.config)
    elif args.command == "verify":
        config = ExperimentConfig(experiment="toy-verify", n_simulations=20)
    else:
        config = ExperimentConfig(experiment="smoking")
    return apply_overrides(config, **{flag: getattr(args, flag, None) for flag in FLAG_KEYS})


def _toy_failures(results) -> int:
    """Print each toy instance's verdict and the overall one; the number failed."""
    failures = 0
    for r in results:
        d = r.diagnostics
        ok = r.error is None and (abs(d.decomposition_residual) < RESIDUAL_TOL
                                  and d.bound_classic.satisfied
                                  and d.delta_classic >= 0.0 and d.delta_rweighted >= 0.0
                                  and d.entropy_true >= 0.0)
        if r.error is not None:
            print(f"instance {r.seed}: FAIL ({r.error})")
        else:
            print(f"instance {r.seed}: {'pass' if ok else 'FAIL'} "
                  f"(residual {d.decomposition_residual:.2e}, "
                  f"bound {'ok' if d.bound_classic.satisfied else 'VIOLATED'})")
        failures += not ok
    print(f"{failures} of {len(results)} instances failed" if failures
          else f"all {len(results)} instances verified")
    return failures


def _run(config: ExperimentConfig) -> int:
    if config.experiment == "smoking":
        return _smoking_body(config)
    results = run_experiment(config)
    summary = write_run_outputs(config, results)
    failures = _toy_failures(results) if config.experiment == "toy-verify" else 0
    for row in summary:
        print(f"{row['label']}: median advantage {row['median']:+.4f} "
              f"over {row['count']} simulations")
    times = [r.wall_time_ms for r in results]
    print(f"wall time per simulation: median {np.median(times):g} ms, "
          f"max {max(times)} ms over {len(times)} simulations")
    print(f"outputs in {Path(config.output_dir)}")
    return 2 if failures else 0


def _mode_task(packed):
    records, mode, seed, n_samples, intercepts = packed
    return run_smoking_comparison(records, mode, seed, n_samples,
                                  intercepts=intercepts)


def _smoking_body(config: ExperimentConfig) -> int:
    """Every mode's seed is fixed by (seed, mode), so a one-mode run writes
    its slice of the all-mode run, and no two (seed, mode) pairs share one."""
    seed, n_samples = config.master_seed, config.mcmc_samples
    all_modes = sorted(PROXY_SETTINGS)
    records = ingest_smoking_csv(config.smoking_csv or packaged_smoking_path())
    modes = all_modes if config.proxy_mode == "all" else [config.proxy_mode]
    intercepts = fit_study_intercepts(
        records, n_samples, int(task_rng(seed, 0).integers(2 ** 31)))
    per_mode = map_jobs(
        _mode_task, [(records, m, len(all_modes) * seed + 1 + all_modes.index(m), n_samples,
                      intercepts) for m in modes], config.parallelism)
    summary = write_outputs(
        config.output_dir, "partitions.csv",
        [row for results in per_mode for row in partition_rows(results)],
        PARTITION_COLUMNS, "log_ratio", "proxy_mode", "held-out predictive comparison",
        "log predictive ratio (weighted / classic)",
        [f"relbayes {__version__}", f"data: {config.smoking_csv or 'packaged dataset'}",
         f"seed = {seed}", f"mcmc_samples = {n_samples}", f"modes = {','.join(modes)}",
         BASELINE_NOTE])
    for row in summary:
        print(f"{row['proxy_mode']}: median log predictive ratio {row['median']:+.4f} "
              f"over {row['count']} partitions")
    print(f"outputs in {Path(config.output_dir)}")
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
        if args.command == "plot":
            return _cmd_plot(args)
        return _run(_config(args))
    except RunFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
