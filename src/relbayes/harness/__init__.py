"""Experiment harness: config, runner, smoking case study, CSV and SVG output."""

from .config import ConfigError, ExperimentConfig, apply_overrides, parse_config, \
    parse_config_text
from .csvio import emit_csv, emit_metadata, format_value, parse_value, read_csv
from .runner import RunFailureError, SimulationResult, results_rows, run_experiment, \
    summary_rows, toy_verify_instance, write_run_outputs
from .smoking import PartitionResult, SmokingRecord, arms_by_study, \
    fit_study_intercepts, ingest_smoking_csv, packaged_smoking_path, \
    run_smoking_comparison
from .svgplot import BoxStats, box_stats, emit_boxplot_svg

__all__ = [name for name in dir() if not name.startswith("_")]
