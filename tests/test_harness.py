"""Experiment harness: config parsing, CSV persistence, plots, sweeps, CLI.

The sweep determinism tests compare emitted bytes across parallelism
degrees, which is the property the counter-based seeding exists to
guarantee.  Smoking-study fits here use short chains on tiny synthetic
arm tables; statistical quality of those fits is covered elsewhere.
"""

import argparse
import ast
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

import _scalar_reference as scalar
import relbayes
from relbayes.diagnostics import RESIDUAL_TOL
from relbayes.grids import build_grid
from relbayes.harness import cli as cli_module, config as config_module, \
    runner as runner_module, smoking
from relbayes.harness.cli import build_parser, main as cli_main
from relbayes.harness.config import (FLAG_KEYS, PROXY_MODES, ConfigError, ExperimentConfig,
                                     apply_overrides, config_echo, parse_config,
                                     parse_config_text)
from relbayes.harness.csvio import (emit_csv, format_value, parse_value,
                                    read_csv)
from relbayes.harness.runner import (RunFailureError, results_rows, run_experiment,
                                     summary_rows, write_run_outputs)
from relbayes.harness.smoking import (EXPECTED_STUDIES, SmokingRecord,
                                      arms_by_study, fit_study_intercepts, ingest_smoking_csv,
                                      packaged_smoking_path, partition_rows,
                                      run_smoking_comparison)
from relbayes.harness.svgplot import box_stats, emit_boxplot_svg
from relbayes.inference import McmcChain
from relbayes.models import binomial_logit_model, linear_model
from relbayes.synthetic import LINEAR_THETA_STAR, GpScenario, LinearScenario, \
    gen_linear_instance, task_rng

RNG_SEED = 20260817


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

LINEAR_CONFIG = """\
# sweep cell used in the multicollinearity figure
experiment = linear
n_simulations = 12
master_seed = 7
multicollinearity = 2.0   # trailing comments are stripped
target_resemblance_pct = 75.0
contamination_pct = 25.0
"""


class TestConfigParsing:
    def test_typed_values_and_comments(self):
        config = parse_config_text(LINEAR_CONFIG)
        assert config.experiment == "linear"
        assert config.n_simulations == 12 and isinstance(config.n_simulations, int)
        assert config.master_seed == 7
        assert config.multicollinearity == 2.0
        assert isinstance(config.multicollinearity, float)
        assert config.target_resemblance_pct == 75.0
        assert config.contamination_pct == 25.0
        # untouched keys keep their defaults
        assert config.grid_resolution == 101
        assert config.parallelism == 1

    def test_gp_defaults_to_coarse_grid(self):
        config = parse_config_text("experiment = gp\n")
        assert config.grid_resolution == 10

    @pytest.mark.parametrize("experiment, default", [
        ("linear", 101), ("gp", 10), ("smoking", 101), ("toy-verify", 101)])
    def test_grid_default_agrees_across_entry_points(self, experiment, default):
        """A file without grid_resolution and a config built in code resolve
        the same default."""
        assert ExperimentConfig(experiment=experiment).grid_resolution == default
        assert parse_config_text(f"experiment = {experiment}\n").grid_resolution == default

    @pytest.mark.parametrize("experiment, value", [("gp", 1), ("linear", 0)])
    def test_grid_below_two_rejected(self, experiment, value):
        with pytest.raises(ConfigError, match="grid_resolution must be >= 2"):
            parse_config_text(f"experiment = {experiment}\ngrid_resolution = {value}\n")
        with pytest.raises(ConfigError, match="grid_resolution must be >= 2"):
            ExperimentConfig(experiment=experiment, grid_resolution=value)

    def test_gp_explicit_grid_resolution_kept(self):
        config = parse_config_text("experiment = gp\ngrid_resolution = 25\n")
        assert config.grid_resolution == 25

    def test_non_gp_keeps_default_grid(self):
        config = parse_config_text("experiment = toy-verify\n")
        assert config.grid_resolution == 101

    def test_duplicate_key_reports_line(self):
        text = "experiment = linear\nmaster_seed = 1\nmaster_seed = 2\n"
        with pytest.raises(ConfigError, match=r"<config>:3: duplicate key"):
            parse_config_text(text)

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigError, match=r"<config>:2: expected 'key = value'"):
            parse_config_text("experiment = linear\nno equals here\n")

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="missing required key 'experiment'"):
            parse_config_text("n_simulations = 3\n")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment must be one of"):
            parse_config_text("experiment = frisbee\n")

    def test_unknown_key_distinguished_from_misplaced_key(self):
        with pytest.raises(ConfigError, match=r"unknown key: 'frobnicate'"):
            parse_config_text("experiment = linear\nfrobnicate = 3\n")
        # m_target is real, just belongs to the gp experiment
        with pytest.raises(ConfigError,
                           match=r"not applicable to experiment 'linear': 'm_target'"):
            parse_config_text("experiment = linear\nm_target = 5\n")

    def test_uncoercible_value_names_key_and_kind(self):
        with pytest.raises(ConfigError, match=r"key 'n_simulations': cannot parse"):
            parse_config_text("experiment = linear\nn_simulations = many\n")

    def test_validation_failures_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment = linear\nn_simulations = 0\n")
        with pytest.raises(ConfigError):
            parse_config_text("experiment = smoking\nproxy_mode = loud\n")
        with pytest.raises(ConfigError):
            parse_config_text("experiment = smoking\nmcmc_samples = 10\n")

    @pytest.mark.parametrize("key, value", [("n_simulations", "3"), ("label", "mine")])
    def test_sweep_keys_rejected_for_smoking(self, key, value):
        """The smoking study is one leave-one-study-out pass, so the sweep
        keys are errors for it rather than silently ignored; the sweeps
        still take and echo them."""
        with pytest.raises(ConfigError,
                           match=f"not applicable to experiment 'smoking': '{key}'"):
            parse_config_text(f"experiment = smoking\n{key} = {value}\n")
        for experiment in ("linear", "gp", "toy-verify"):
            config = parse_config_text(f"experiment = {experiment}\n{key} = {value}\n")
            assert f"{key} = {getattr(config, key)}" in config_echo(config)

    def test_parse_config_uses_path_as_source(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("experiment = linear\nexperiment = gp\n")
        with pytest.raises(ConfigError, match=r"sweep\.cfg:2"):
            parse_config(path)

    def test_apply_overrides(self):
        base = parse_config_text(LINEAR_CONFIG)
        out = apply_overrides(base, seed=99, out="elsewhere", jobs=4, grid=51)
        assert out.master_seed == 99
        assert out.output_dir == "elsewhere"
        assert out.parallelism == 4
        assert out.grid_resolution == 51
        # scenario keys are untouched
        assert out.multicollinearity == base.multicollinearity

    def test_apply_overrides_types_flags_as_file_keys(self):
        base = parse_config_text(LINEAR_CONFIG)
        assert apply_overrides(base, seed="5", jobs="2").master_seed == 5
        with pytest.raises(ConfigError, match="--jobs: cannot parse 'two' as int"):
            apply_overrides(base, jobs="two")
        with pytest.raises(ConfigError, match="--samples sets 'mcmc_samples', which does "
                                              "not apply to experiment 'linear'"):
            apply_overrides(base, samples=1200)

    def test_apply_overrides_noop_returns_same_object(self):
        base = parse_config_text(LINEAR_CONFIG)
        assert apply_overrides(base) is base

    def test_config_echo_is_sorted_and_complete(self):
        config = parse_config_text(LINEAR_CONFIG)
        lines = config_echo(config)
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == sorted(keys)
        assert "experiment = linear" in lines
        assert "multicollinearity = 2.0" in lines
        assert not any(line.startswith("m_target") for line in lines)

    @pytest.mark.parametrize("scenario", [LinearScenario, GpScenario])
    def test_scenario_fields_are_config_keys(self, scenario):
        """The scenario keys and builders are derived from the scenario's
        fields, so each must be a config field of the same type and default."""
        config_fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
        for f in dataclasses.fields(scenario):
            assert (config_fields[f.name].type, config_fields[f.name].default) == \
                (f.type, f.default), f.name

    def test_config_declares_no_scenario_key(self):
        """Each scenario key is declared once, in its scenario record, and the
        config inherits it."""
        tree = ast.parse(Path(config_module.__file__).read_text(encoding="utf-8"))
        declared = {node.target.id for node in ast.walk(tree)
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
        scenario_keys = {f.name for s in (LinearScenario, GpScenario)
                         for f in dataclasses.fields(s)}
        assert "experiment" in declared
        assert not declared & scenario_keys

    def test_replace_rebuilds_the_scenario(self):
        """The flat keyword construction and dataclasses.replace that
        perfbench relies on build and check the scenario anew."""
        linear = ExperimentConfig(experiment="linear", n_simulations=1, grid_resolution=21,
                                  multicollinearity=2.0, contamination_pct=25.0)
        assert linear.scenario == LinearScenario(multicollinearity=2.0, contamination_pct=25.0)
        gp = ExperimentConfig(experiment="gp", n_simulations=1, m_target=4)
        assert dataclasses.replace(gp, master_seed=7).scenario == gp.scenario
        assert dataclasses.replace(gp, m_target=5).scenario == GpScenario(m_target=5)
        with pytest.raises(ValueError) as want:
            GpScenario(m_source=99)
        with pytest.raises(ConfigError) as got:
            dataclasses.replace(gp, m_source=99)
        assert str(got.value) == str(want.value)

    def test_scenarios_carry_config_values(self):
        linear = parse_config_text(LINEAR_CONFIG).scenario
        assert linear == LinearScenario(multicollinearity=2.0, target_resemblance_pct=75.0,
                                        contamination_pct=25.0)
        gp = parse_config_text("experiment = gp\nm_target = 4\nrefinement_T = 2\n")
        assert gp.scenario == GpScenario(m_target=4, refinement_T=2)
        assert parse_config_text("experiment = toy-verify\n").scenario is None

    def test_group_labels(self):
        linear = parse_config_text(LINEAR_CONFIG)
        assert linear.group_label() == "mc=2 res=75% cont=25%"
        gp = parse_config_text("experiment = gp\ntheta_star = 1.0\nm_target = 4\n")
        assert gp.group_label() == "theta*=1 m_t=4"
        toy = parse_config_text("experiment = toy-verify\n")
        assert toy.group_label() == "toy-verify"
        named = parse_config_text("experiment = linear\nlabel = cell A\n")
        assert named.group_label() == "cell A"


# ---------------------------------------------------------------------------
# CSV values
# ---------------------------------------------------------------------------

class TestCsvValues:
    def test_none_and_bools(self):
        assert format_value(None) == ""
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(np.bool_(True)) == "true"
        assert parse_value("") is None
        assert parse_value("true") is True
        assert parse_value("false") is False

    @given(st.integers(min_value=-2 ** 63, max_value=2 ** 63))
    def test_int_round_trip(self, n):
        assert parse_value(format_value(n)) == n

    @given(st.floats(allow_nan=False))
    @settings(max_examples=200)
    def test_float_round_trip_is_bit_exact(self, x):
        back = parse_value(format_value(x))
        assert isinstance(back, float)
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)

    def test_nan_round_trips_as_nan(self):
        back = parse_value(format_value(float("nan")))
        assert isinstance(back, float) and math.isnan(back)

    def test_numpy_scalars_format_like_python(self):
        assert format_value(np.float64(0.1)) == repr(0.1)
        assert format_value(np.int64(-3)) == "-3"

    def test_plain_strings_survive(self):
        assert parse_value(format_value("mc=2 res=100%")) == "mc=2 res=100%"

    @pytest.mark.parametrize("text", ["007", "1_000", "1e3", "+5", " 5", "-0", "1.50",
                                      "Infinity", "-nan"])
    def test_numbers_format_value_never_writes_stay_text(self, text):
        assert parse_value(format_value(text)) == text


class TestEmitReadCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        rows = [
            {"seed": 0, "advantage": 0.1 + 0.2, "label": "cell A",
             "flag": True, "error": None},
            {"seed": 1, "advantage": -1.2345678912345678e-09, "label": "cell A",
             "flag": False, "error": "ValueError: boom"},
        ]
        path = tmp_path / "results.csv"
        emit_csv(rows, path)
        back = read_csv(path)
        assert back == rows
        assert back[0]["advantage"] == rows[0]["advantage"]

    def test_lf_endings_regardless_of_platform(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([{"a": 1}], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_column_order_and_missing_keys(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([{"b": 2}], path, columns=["a", "b"])
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        assert read_csv(path) == [{"a": None, "b": 2}]

    def test_extra_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not in the header"):
            emit_csv([{"a": 1, "rogue": 2}], tmp_path / "out.csv", columns=["a"])

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty results"):
            emit_csv([], tmp_path / "out.csv")

    def test_read_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty CSV"):
            read_csv(path)


# ---------------------------------------------------------------------------
# box statistics and SVG rendering
# ---------------------------------------------------------------------------

class TestBoxStats:
    def test_five_point_example(self):
        s = box_stats([5.0, 3.0, 1.0, 4.0, 2.0])
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
        assert (s.whisker_lo, s.whisker_hi) == (1.0, 5.0)
        assert s.outliers == ()
        assert s.count == 5

    def test_quartiles_match_percentile_convention(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(25):
            vals = rng.standard_normal(rng.integers(2, 40))
            s = box_stats(vals)
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            np.testing.assert_allclose([s.q1, s.median, s.q3], [q1, med, q3],
                                       rtol=0, atol=0)

    def test_far_point_becomes_outlier(self):
        vals = [0.0, 0.1, 0.2, 0.3, 0.4, 100.0]
        s = box_stats(vals)
        assert s.outliers == (100.0,)
        assert s.whisker_hi == 0.4
        assert s.whisker_lo == 0.0

    def test_whiskers_are_data_points_not_fences(self):
        # the fence allows 1.5 IQR but the whisker stops at the extreme datum
        vals = [0.0, 1.0, 2.0, 3.0, 4.0]
        s = box_stats(vals)
        iqr = s.q3 - s.q1
        assert s.whisker_hi == 4.0 < s.q3 + 1.5 * iqr

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty group"):
            box_stats([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            box_stats([1.0, float("nan")])


class TestBoxplotSvg:
    def test_output_is_well_formed_xml(self, tmp_path):
        rng = np.random.default_rng(RNG_SEED)
        groups = {"a": rng.standard_normal(30), "b": rng.standard_normal(30) + 1}
        path = tmp_path / "plot.svg"
        emit_boxplot_svg(groups, path, title="sweep", y_label="advantage")
        doc = xml.dom.minidom.parse(str(path))
        assert doc.documentElement.tagName == "svg"

    def test_zero_reference_line_is_dashed(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_boxplot_svg({"a": [1.0, 2.0, 3.0]}, path)
        assert 'stroke-dasharray="5,4"' in path.read_text()

    def test_outliers_drawn_as_circles(self, tmp_path):
        path = tmp_path / "plot.svg"
        stats = emit_boxplot_svg(
            {"a": [0.0, 0.1, 0.2, 0.3, 50.0], "b": [1.0, 2.0, 3.0]}, path)
        n_outliers = sum(len(s.outliers) for s in stats.values())
        assert n_outliers == 1
        doc = xml.dom.minidom.parse(str(path))
        circles = doc.getElementsByTagName("circle")
        assert len(circles) == n_outliers
        assert circles[0].getAttribute("r") == "2.5"

    def test_labels_are_escaped(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_boxplot_svg({"a<b&c": [1.0, 2.0]}, path, title="x < y")
        text = path.read_text()
        assert "a&lt;b&amp;c" in text
        xml.dom.minidom.parse(str(path))

    def test_constant_group_still_renders(self, tmp_path):
        path = tmp_path / "flat.svg"
        emit_boxplot_svg({"flat": [2.0, 2.0, 2.0]}, path)
        xml.dom.minidom.parse(str(path))

    def test_no_groups_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no groups"):
            emit_boxplot_svg({}, tmp_path / "plot.svg")


# ---------------------------------------------------------------------------
# simulation sweeps
# ---------------------------------------------------------------------------

def _toy_config(**overrides) -> ExperimentConfig:
    base = dict(experiment="toy-verify", n_simulations=5, master_seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


# ig values of the gp experiment at grid 10; a change that only reorders
# summations may move them at rounding level, within the benchmark's
# reference tolerance of rel 1e-8
GP_PINNED = {
    1: (1.3086406741117476, -2.1441662085121487),
    2: (1.308668340008861, -2.3193162665710494),
    3: (1.3054240404156023, -1.3508071172685372),
}


@pytest.mark.parametrize("master_seed", sorted(GP_PINNED))
def test_gp_results_pinned(master_seed):
    config = ExperimentConfig(experiment="gp", n_simulations=1,
                              master_seed=master_seed, grid_resolution=10)
    result = run_experiment(config)[0]
    assert result.error is None
    ig_c, ig_r = GP_PINNED[master_seed]
    assert math.isclose(result.ig_classic, ig_c, rel_tol=1e-8)
    assert math.isclose(result.ig_rweighted, ig_r, rel_tol=1e-8)


def test_gp_results_do_not_depend_on_earlier_simulations():
    """The gp learner's kernel factors are kept across simulations in one
    process; each simulation still gives the bytes it gives run alone."""
    config = ExperimentConfig(experiment="gp", n_simulations=4, master_seed=1,
                              grid_resolution=10)
    warm = run_experiment(config)

    def gains(result):
        assert result.error is None
        return np.array([result.ig_classic, result.ig_rweighted]).tobytes()

    for index, result in enumerate(warm):
        runner_module._gp_learner.cache_clear()
        assert gains(runner_module._run_single(config, index)) == gains(result), index


# linear gains of simulation 0 at master seeds 1-3, grid 31,
# multicollinearity 2 and contamination 25%
LINEAR_PINNED = {
    1: (-9.09572186427495, 2.762462514471308),
    2: (-11.315357652801968, 2.790693762887732),
    3: (-15.212270751355756, 2.317771317246425),
}


@pytest.mark.parametrize("master_seed", sorted(LINEAR_PINNED))
def test_linear_results_pinned(master_seed):
    config = ExperimentConfig(experiment="linear", n_simulations=1, master_seed=master_seed,
                              grid_resolution=31, multicollinearity=2.0,
                              contamination_pct=25.0)
    result = run_experiment(config)[0]
    assert result.error is None
    ig_c, ig_r = LINEAR_PINNED[master_seed]
    assert math.isclose(result.ig_classic, ig_c, rel_tol=1e-12)
    assert math.isclose(result.ig_rweighted, ig_r, rel_tol=1e-12)


def test_linear_grid_101_simulation_holds_about_two_tensors():
    """One linear grid-101 simulation holds the problem's (n, A, B) tensor
    plus one working array of its size at a time: the classic mixture's
    shifted sum, then the belief average's exponentiated copy.  tracemalloc
    counts numpy's buffers, so unlike a timing this catches a returned
    full-size temporary on any machine."""
    inst = gen_linear_instance(LinearScenario(), task_rng(RNG_SEED, 0))
    normal = runner_module._standard_normal_log_pdf
    grid = build_grid(runner_module.LINEAR_BOX, runner_module.LINEAR_BOX, normal, normal, 101)
    tensor_bytes = inst.source.n * grid.n_theta * grid.n_psi * 8
    tracemalloc.start()
    try:
        runner_module._grid_gains(linear_model(), inst.source, grid, inst.proxy,
                                  LINEAR_THETA_STAR)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * tensor_bytes, peak / tensor_bytes


# every value results.csv holds for toy-verify simulations 0-2 at
# master_seed 0; decomposition_residual is rounding-level, so its pin also
# holds the enumeration's summation order
TOY_PINNED = {
    0: {"ig_classic": 0.03723753472203745, "ig_rweighted": 0.07364446271236243,
        "decomposition_residual": -1.1102230246251565e-16, "bound_satisfied": True,
        "delta_classic": 0.02177900643670177, "delta_rweighted": 0.12190917629566679,
        "rho_fidelity": 0.025082807142678302, "ess_dis_expectation": 2.0740759634971773,
        "entropy_true": 1.8263416913695265},
    1: {"ig_classic": 0.41014401788572646, "ig_rweighted": 0.2820271191475135,
        "decomposition_residual": -1.942890293094024e-16, "bound_satisfied": True,
        "delta_classic": 0.5725856548724827, "delta_rweighted": 0.9062289554687221,
        "rho_fidelity": -0.00650607928303001, "ess_dis_expectation": 6.515668271973148,
        "entropy_true": 1.8529798425838},
    2: {"ig_classic": 0.21219331054367607, "ig_rweighted": 0.2308323417087311,
        "decomposition_residual": -2.220446049250313e-16, "bound_satisfied": True,
        "delta_classic": 0.29352714002193486, "delta_rweighted": 0.5439450833986932,
        "rho_fidelity": -0.011404297294209375, "ess_dis_expectation": 4.909283972262928,
        "entropy_true": 3.3049299041376217},
}


@pytest.mark.parametrize("index", sorted(TOY_PINNED))
def test_toy_verify_results_pinned(index):
    config = ExperimentConfig(experiment="toy-verify", master_seed=0)
    ig_c, ig_r, report = runner_module._toy_verify_sim(config, index)
    got = {"ig_classic": ig_c, "ig_rweighted": ig_r,
           **{c: runner_module._diag_value(report, c) for c in runner_module._DIAG_COLUMNS}}
    want = TOY_PINNED[index]
    assert got.keys() == want.keys()
    assert got.pop("bound_satisfied") is want["bound_satisfied"]
    for name, value in got.items():
        assert math.isclose(value, want[name], rel_tol=1e-12), name


class TestRunExperiment:
    def test_toy_verify_sweep_is_clean(self):
        results = run_experiment(_toy_config())
        assert len(results) == 5
        assert [r.seed for r in results] == [0, 1, 2, 3, 4]
        for r in results:
            assert r.error is None
            assert np.isfinite(r.ig_classic) and np.isfinite(r.ig_rweighted)
            assert r.advantage == r.ig_rweighted - r.ig_classic
            assert abs(r.diagnostics.decomposition_residual) < RESIDUAL_TOL
            assert r.diagnostics.bound_classic.satisfied
            assert r.diagnostics.verified

    def test_results_identical_across_parallelism(self, tmp_path):
        config_serial = _toy_config(output_dir=str(tmp_path / "serial"))
        config_pool = _toy_config(output_dir=str(tmp_path / "pool"), parallelism=2)
        write_run_outputs(config_serial, run_experiment(config_serial))
        write_run_outputs(config_pool, run_experiment(config_pool))
        for name in ("results.csv", "summary.csv", "boxplot.svg"):
            serial = (tmp_path / "serial" / name).read_bytes()
            pooled = (tmp_path / "pool" / name).read_bytes()
            assert serial == pooled, name

    def test_rows_carry_diagnostics_columns(self):
        results = run_experiment(_toy_config(n_simulations=3))
        rows = results_rows(results, "toy-verify")
        for row in rows:
            assert row["label"] == "toy-verify"
            assert row["error"] is None
            assert abs(row["decomposition_residual"]) < RESIDUAL_TOL
            assert row["bound_satisfied"] is True
            assert row["delta_classic"] >= 0.0
            assert row["rho_fidelity"] == row["rho_fidelity"]  # not nan

    def test_summary_rows_box_five_numbers(self):
        rows = [{"advantage": float(v), "label": "g"} for v in range(1, 6)]
        rows.append({"advantage": float("nan"), "label": "g"})
        rows.append({"advantage": None, "label": "g"})
        (summary,) = summary_rows(rows)
        assert summary["label"] == "g"
        assert summary["count"] == 5
        assert (summary["q1"], summary["median"], summary["q3"]) == (2.0, 3.0, 4.0)
        assert summary["n_outliers"] == 0

    def test_tolerated_failures_are_recorded(self, monkeypatch):
        real = runner_module._SIM_BODIES["toy-verify"]

        def flaky(config, index):
            if index == 0:
                raise RuntimeError("synthetic failure")
            return real(config, index)

        monkeypatch.setitem(runner_module._SIM_BODIES, "toy-verify", flaky)
        results = run_experiment(_toy_config(n_simulations=6))
        assert results[0].error == "RuntimeError: synthetic failure"
        assert math.isnan(results[0].advantage)
        assert all(r.error is None for r in results[1:])

    def test_excess_failures_raise(self, monkeypatch):
        def broken(config, index):
            if index < 3:
                raise RuntimeError("synthetic failure")
            return 0.0, 0.0, None

        monkeypatch.setitem(runner_module._SIM_BODIES, "toy-verify", broken)
        with pytest.raises(RunFailureError, match=r"3 of 6 .*seed 0"):
            run_experiment(_toy_config(n_simulations=6))

    def test_failed_rows_excluded_from_summary_and_plot(self, tmp_path,
                                                        monkeypatch):
        real = runner_module._SIM_BODIES["toy-verify"]

        def flaky(config, index):
            if index == 2:
                raise RuntimeError("synthetic failure")
            return real(config, index)

        monkeypatch.setitem(runner_module._SIM_BODIES, "toy-verify", flaky)
        config = _toy_config(n_simulations=6, output_dir=str(tmp_path))
        results = run_experiment(config)
        write_run_outputs(config, results)
        (summary,) = read_csv(tmp_path / "summary.csv")
        assert summary["count"] == 5
        metadata = (tmp_path / "run_metadata.txt").read_text()
        assert "failed simulations: 1 of 6" in metadata

    def test_smoking_rejected_by_run_experiment(self):
        config = ExperimentConfig(experiment="smoking")
        with pytest.raises(ConfigError, match="run_smoking_comparison"):
            run_experiment(config)

    def test_wall_time_not_persisted(self, tmp_path):
        config = _toy_config(n_simulations=2, output_dir=str(tmp_path))
        write_run_outputs(config, run_experiment(config))
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert "wall_time" not in header
        assert header.startswith("seed,ig_classic,ig_rweighted,advantage")


# ---------------------------------------------------------------------------
# smoking-cessation ingestion
# ---------------------------------------------------------------------------

def _write_arms(tmp_path, body: str):
    path = tmp_path / "arms.csv"
    path.write_text("study,treatment,events,total\n" + body)
    return path


TINY_ARMS = """\
s1,A,12,80
s1,C,25,80
s2,A,9,70
s2,B,14,75
s3,A,20,90
s3,D,31,85
"""


class TestSmokingIngestion:
    def test_packaged_dataset_loads(self):
        records = ingest_smoking_csv(packaged_smoking_path())
        assert len(records) == 50
        assert len({r.study_id for r in records}) == EXPECTED_STUDIES
        assert all(0 <= r.events <= r.total for r in records)

    def test_small_table_parses_with_study_count_warning(self, tmp_path):
        path = _write_arms(tmp_path, TINY_ARMS)
        with pytest.warns(RuntimeWarning, match="3 distinct studies"):
            records = ingest_smoking_csv(path)
        assert len(records) == 6
        assert records[0] == SmokingRecord("s1", "A", 12, 80)

    def test_blank_lines_skipped(self, tmp_path):
        path = _write_arms(tmp_path, "s1,A,1,10\n\ns2,B,2,10\n")
        with pytest.warns(RuntimeWarning):
            assert len(ingest_smoking_csv(path)) == 2

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "arms.csv"
        path.write_text("study,treatment,events\ns1,A,1\n")
        with pytest.raises(ValueError, match=r":1: missing column\(s\) \['total'\]"):
            ingest_smoking_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A spreadsheet may save the table as UTF-8 with a byte-order mark;
        the mark is not part of the first column's name."""
        path = tmp_path / "arms.csv"
        path.write_bytes("study,treatment,events,total\ns1,A,1,10\n".encode("utf-8-sig"))
        with pytest.warns(RuntimeWarning, match="1 distinct studies"):
            assert ingest_smoking_csv(path) == [SmokingRecord("s1", "A", 1, 10)]

    def test_reordered_header_rejected(self, tmp_path):
        path = tmp_path / "arms.csv"
        path.write_text("treatment,study,events,total\nA,s1,1,10\n")
        with pytest.raises(ValueError, match="expected header"):
            ingest_smoking_csv(path)

    def test_bad_integer_reports_line(self, tmp_path):
        path = _write_arms(tmp_path, "s1,A,1,10\ns2,B,two,10\n")
        with pytest.raises(ValueError, match=r":3: events/total must be integers"):
            ingest_smoking_csv(path)

    def test_events_beyond_total_reports_line(self, tmp_path):
        path = _write_arms(tmp_path, "s1,A,11,10\n")
        with pytest.raises(ValueError, match=r":2: events 11 outside"):
            ingest_smoking_csv(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = _write_arms(tmp_path, "s1,A,1,10,extra\n")
        with pytest.raises(ValueError, match=r":2: expected 4 fields, got 5"):
            ingest_smoking_csv(path)

    def test_empty_and_header_only_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            ingest_smoking_csv(empty)
        header_only = _write_arms(tmp_path, "")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_smoking_csv(header_only)

    def test_record_validation(self):
        with pytest.raises(ValueError, match="treatment"):
            SmokingRecord("s1", "E", 1, 10)
        with pytest.raises(ValueError, match="total"):
            SmokingRecord("s1", "A", 0, 0)
        with pytest.raises(ValueError, match="outside"):
            SmokingRecord("s1", "A", -1, 10)

    def test_arms_by_study_is_sorted(self):
        records = [SmokingRecord("s2", "A", 1, 10), SmokingRecord("s1", "C", 2, 10),
                   SmokingRecord("s1", "A", 3, 10)]
        grouped = arms_by_study(records)
        assert list(grouped) == ["s1", "s2"]
        assert [r.treatment for r in grouped["s1"]] == ["A", "C"]


class TestSmokingComparison:
    def _records(self):
        with pytest.warns(RuntimeWarning):
            return ingest_smoking_csv(self._path)

    @pytest.fixture(autouse=True)
    def _arms(self, tmp_path):
        self._path = _write_arms(tmp_path, TINY_ARMS)

    def test_leave_one_out_structure(self):
        records = self._records()
        results = run_smoking_comparison(records, "weak", seed=11, n_samples=1500,
                                         intercepts=fit_study_intercepts(records, 1500, 11))
        assert [r.held_out_study for r in results] == ["s1", "s2", "s3"]
        for r in results:
            assert r.proxy_mode == "weak"
            assert np.isfinite(r.log_pred_rweighted)
            assert np.isfinite(r.log_pred_classic)
            assert r.log_ratio == r.log_pred_rweighted - r.log_pred_classic
            assert r.se_rweighted >= 0.0 and r.se_classic >= 0.0
            assert 0.0 <= r.accept_rweighted <= 1.0

    def test_same_seed_reproduces(self):
        records = self._records()
        intercepts = fit_study_intercepts(records, 1200, 4)
        a = run_smoking_comparison(records, "strong", seed=4, n_samples=1200,
                                   intercepts=intercepts)
        b = run_smoking_comparison(records, "strong", seed=4, n_samples=1200,
                                   intercepts=intercepts)
        assert partition_rows(a) == partition_rows(b)

    def test_shared_intercepts_pin_proxy_reference(self):
        records = self._records()
        intercepts = {s: 0.0 for s in ("s1", "s2", "s3")}
        results = run_smoking_comparison(records, "strong", seed=2,
                                         n_samples=1200, intercepts=intercepts)
        # strong mode draws z within a tight band of the supplied reference
        for r in results:
            assert r.psi_star_estimate == 0.0
            assert abs(r.z_value) < 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="proxy_mode"):
            run_smoking_comparison(self._records(), "loud", seed=0, n_samples=1200,
                                   intercepts={})

    def test_single_study_rejected(self, tmp_path):
        path = _write_arms(tmp_path, "s1,A,1,10\ns1,B,2,10\n")
        with pytest.warns(RuntimeWarning):
            records = ingest_smoking_csv(path)
        with pytest.raises(ValueError, match="at least 2 studies"):
            run_smoking_comparison(records, "weak", seed=0, n_samples=1200, intercepts={})


class TestStackedData:
    def test_packaged_table_columns_and_groups_are_pinned(self):
        """The packaged arm table as one SourceData: one-hot treatments,
        events of totals, and each study's consecutive row indices, with the
        values the per-arm record build gave."""
        records = ingest_smoking_csv(packaged_smoking_path())
        data, groups = smoking._stacked_data(arms_by_study(records))
        treatments = "ACDBCDABABABACACACACACACACACACACACACACACADBDBDCDCD"
        assert_array_equal(data.covariates, np.eye(4)[["ABCD".index(t) for t in treatments]])
        assert_array_equal(data.outcomes, [
            9, 23, 10, 11, 12, 29, 79, 77, 18, 21, 8, 19, 75, 363, 2, 9, 58, 237, 0, 9,
            3, 31, 1, 26, 6, 17, 95, 134, 15, 35, 78, 73, 69, 54, 64, 107, 5, 8, 20, 34,
            0, 9, 20, 16, 7, 32, 12, 20, 9, 3])
        assert_array_equal(data.trial_counts, [
            140, 140, 138, 78, 85, 170, 702, 694, 671, 535, 116, 146, 731, 714, 106, 205,
            549, 1561, 33, 48, 100, 98, 31, 95, 39, 77, 1107, 1031, 187, 504, 584, 675,
            1177, 888, 642, 761, 62, 90, 234, 237, 20, 20, 49, 43, 66, 127, 76, 74, 55, 26])
        sizes = [3, 3] + [2] * 22
        starts = np.cumsum([0] + sizes[:-1])
        assert groups == [list(range(a, a + k)) for a, k in zip(starts, sizes)]


class TestSmokingPredictives:
    """Both held-out predictives against a per-sample scalar loop over one
    study's arms, each arm scored by the scalar binomial oracle."""

    S = 40

    def _held_and_chain(self):
        records = ingest_smoking_csv(packaged_smoking_path())
        arms = arms_by_study(records)["01"]
        held = smoking._arm_data(arms)
        rng = np.random.default_rng(RNG_SEED)
        chain = McmcChain(theta_samples=rng.normal(-2.0, 0.5, size=(self.S, 4)),
                          psi_samples=rng.normal(0.0, 0.5, size=(self.S, 1)),
                          acceptance_rate=0.3)
        return held, chain

    def test_rweighted_pairs_each_theta_with_its_psi(self):
        held, chain = self._held_and_chain()
        got = smoking._rweighted_predictive(binomial_logit_model(), held, chain)
        lls = np.array([sum(scalar.binomial_logit(obs, th, ps) for obs in scalar.rows(held))
                        for th, ps in zip(chain.theta_samples, chain.psi_samples)])
        assert_allclose(got[0], logsumexp(lls) - np.log(self.S), rtol=1e-13)
        assert_allclose(got, smoking._log_mean_exp_with_se(lls), rtol=1e-12)

    def test_classic_integrates_the_intercept_posterior(self):
        held, chain = self._held_and_chain()
        z, sigma = 0.4, 0.8
        got = smoking._classic_predictive(binomial_logit_model(), held, chain, z, sigma)
        tau2, s2 = smoking.PRIOR_SD ** 2, sigma ** 2
        mean, sd = z * tau2 / (s2 + tau2), np.sqrt(s2 * tau2 / (s2 + tau2))
        nodes, weights = np.polynomial.hermite_e.hermegauss(smoking.PREDICTIVE_QUAD_NODES)
        lls = np.array([
            logsumexp([sum(scalar.binomial_logit(obs, th, [mean + sd * u])
                           for obs in scalar.rows(held))
                       for u in nodes], b=weights / np.sqrt(2.0 * np.pi))
            for th in chain.theta_samples])
        assert_allclose(got[0], logsumexp(lls) - np.log(self.S), rtol=1e-13)
        assert_allclose(got, smoking._log_mean_exp_with_se(lls), rtol=1e-12)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class TestCli:
    def test_verify_passes_and_writes_outputs(self, tmp_path, capsys):
        rc = cli_main(["verify", "--seed", "11", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all 20 instances verified" in out
        assert len(re.findall(r"^instance \d+: pass ", out, re.MULTILINE)) == 20
        assert "toy-verify: median advantage" in out
        assert f"outputs in {tmp_path}" in out
        rows = read_csv(tmp_path / "results.csv")
        assert len(rows) == 20
        assert all(abs(row["decomposition_residual"]) < RESIDUAL_TOL
                   for row in rows)

    def test_run_toy_config(self, tmp_path, capsys):
        config = tmp_path / "toy.cfg"
        config.write_text("experiment = toy-verify\nn_simulations = 3\n")
        rc = cli_main(["run", str(config), "--out", str(tmp_path / "out"),
                       "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "median advantage" in out
        timing = re.search(r"^wall time per simulation: median (\S+) ms, "
                           r"max (\d+) ms over (\d+) simulations$", out, re.MULTILINE)
        assert timing is not None, out
        assert 0 <= float(timing[1]) <= int(timing[2])
        assert int(timing[3]) == 3
        for name in ("results.csv", "summary.csv", "boxplot.svg",
                     "run_metadata.txt"):
            assert (tmp_path / "out" / name).exists(), name

    def test_run_toy_config_applies_the_verify_rule(self, tmp_path, capsys, monkeypatch):
        """A toy-verify run prints each instance's verdict as verify does,
        and a failed instance makes it exit 2 with every output written."""
        real = runner_module._SIM_BODIES["toy-verify"]

        def one_bad_residual(config, index):
            ig_c, ig_r, report = real(config, index)
            if index == 1:
                report = dataclasses.replace(report, decomposition_residual=1.0)
            return ig_c, ig_r, report

        monkeypatch.setitem(runner_module._SIM_BODIES, "toy-verify", one_bad_residual)
        config = tmp_path / "toy.cfg"
        config.write_text("experiment = toy-verify\nn_simulations = 3\n")
        rc = cli_main(["run", str(config), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 2
        assert re.search(r"^instance 1: FAIL \(residual 1\.00e\+00, bound ok\)$", out,
                         re.MULTILINE), out
        assert len(re.findall(r"^instance \d+: pass ", out, re.MULTILINE)) == 2
        assert "1 of 3 instances failed" in out
        assert "median advantage" in out
        assert len(read_csv(tmp_path / "out" / "results.csv")) == 3

    def test_missing_config_file_is_input_error(self, tmp_path, capsys):
        rc = cli_main(["run", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = linear\nm_target = 2\n")
        rc = cli_main(["run", str(config)])
        assert rc == 1
        assert "not applicable" in capsys.readouterr().err

    def test_unparseable_value_names_file_and_line(self, tmp_path, capsys):
        """A value that does not parse carries path:line like every other
        config-file error."""
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = linear\nn_simulations = many\n")
        rc = cli_main(["run", str(config)])
        assert rc == 1
        assert (f"error: {config}:2: key 'n_simulations': cannot parse 'many' as int"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("experiment, key, value", [
        ("linear", "contamination_pct", "150"),
        ("gp", "refinement_T", "11"),
        ("gp", "refinement_T", "-1"),
        ("linear", "n_outcome", "0"),
        ("linear", "n_proxy_prompts", "0"),
        ("linear", "n_simulations", "0"),
    ])
    def test_out_of_range_scenario_value_is_input_error(self, tmp_path, capsys,
                                                        experiment, key, value):
        """The scenario is built with the config, so a bad scenario value
        exits 1 before any simulation runs, and nothing is written.  The
        message names the file and the key."""
        config = tmp_path / "bad.cfg"
        pairs = {"experiment": experiment, "n_simulations": "3", key: value}
        config.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        rc = cli_main(["run", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(config) in err
        assert key in err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_gp_without_source_prompts_is_input_error(self, tmp_path, capsys):
        """The expert proxy is drawn from the m_source prompts: m_source = 0
        exits 1 at parsing, naming the value, instead of failing every
        simulation, and writes nothing."""
        config = tmp_path / "gp.cfg"
        config.write_text("experiment = gp\nn_simulations = 3\ngrid_resolution = 4\n"
                          "m_source = 0\n")
        rc = cli_main(["run", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "m_source must lie in [1, n_trajectories=24], got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_theta_star_outside_the_grid_span_exits_2(self, tmp_path, capsys):
        """theta* = 40 lies far past the gp learner's grid span: each
        simulation fails with the span message instead of being scored at
        the edge node, so the run exits 2."""
        config = tmp_path / "gp.cfg"
        config.write_text("experiment = gp\nn_simulations = 3\ntheta_star = 40\n")
        rc = cli_main(["run", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "3 of 3 simulations failed" in err
        assert "theta*=[40.] lies outside the grid span" in err

    def test_excess_failures_exit_2(self, tmp_path, capsys, monkeypatch):
        def broken(config, index):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(runner_module._SIM_BODIES, "toy-verify", broken)
        config = tmp_path / "toy.cfg"
        config.write_text("experiment = toy-verify\nn_simulations = 3\n")
        rc = cli_main(["run", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "simulations failed" in capsys.readouterr().err

    def test_plot_from_emitted_results(self, tmp_path, capsys):
        config = _toy_config(n_simulations=4, output_dir=str(tmp_path / "run"))
        write_run_outputs(config, run_experiment(config))
        svg = tmp_path / "replot.svg"
        rc = cli_main(["plot", str(tmp_path / "run" / "results.csv"),
                       "--out", str(svg)])
        assert rc == 0
        assert svg.exists()
        xml.dom.minidom.parse(str(svg))

    def test_plot_refuses_mixed_value_kinds(self, tmp_path, capsys, monkeypatch):
        """A sweep's advantage and a smoking log ratio share no axis: the
        error names both files and both columns, and no SVG is written;
        files of one kind still merge by group."""
        results, partitions = tmp_path / "results.csv", tmp_path / "partitions.csv"
        emit_csv([{"advantage": 0.5, "label": "g"}], results)
        emit_csv([{"log_ratio": 0.1, "proxy_mode": "weak"}], partitions)
        svg = tmp_path / "mixed.svg"
        assert cli_main(["plot", str(results), str(partitions), "--out", str(svg)]) == 1
        err = capsys.readouterr().err
        for name in (str(results), "advantage", str(partitions), "log_ratio"):
            assert name in err
        assert not svg.exists()

        more = tmp_path / "more.csv"
        emit_csv([{"advantage": 1.5, "label": "g"}, {"advantage": 2.5, "label": "h"}], more)
        groups = {}
        monkeypatch.setattr(cli_module, "emit_boxplot_svg",
                            lambda g, out, **kw: groups.update(g))
        assert cli_main(["plot", str(results), str(more), "--out", str(svg)]) == 0
        assert groups == {"g": [0.5, 1.5], "h": [2.5]}

    def test_plot_without_plottable_column(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        emit_csv([{"x": 1.0}], path)
        rc = cli_main(["plot", str(path)])
        assert rc == 1
        assert "no advantage or log_ratio" in capsys.readouterr().err

    def test_plot_keeps_a_numeric_looking_label(self, tmp_path, monkeypatch):
        """A label such as "007" names its group as written, not as 7."""
        path = tmp_path / "labelled.csv"
        emit_csv([{"advantage": 0.5, "label": "007"}, {"advantage": 1.5, "label": "1e3"}],
                 path)
        groups = {}
        monkeypatch.setattr(cli_module, "emit_boxplot_svg",
                            lambda g, out, **kw: groups.update(g))
        assert cli_main(["plot", str(path), "--out", str(tmp_path / "p.svg")]) == 0
        assert groups == {"007": [0.5], "1e3": [1.5]}

    def test_plot_with_only_failed_rows(self, tmp_path, capsys):
        path = tmp_path / "failed.csv"
        emit_csv([{"advantage": float("nan"), "label": "g", "error": "boom"}], path)
        rc = cli_main(["plot", str(path)])
        assert rc == 1
        assert "nothing to plot" in capsys.readouterr().err

    def test_module_entry_point_imports_cli_once(self):
        """`python -m relbayes.harness.cli` runs with RuntimeWarnings as
        errors: importing the package does not import the module first."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(relbayes.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "relbayes.harness.cli", "--version"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == relbayes.__version__

    def test_harness_import_loads_no_network_modules(self):
        """The SVG labels are escaped without xml.sax.saxutils, whose import
        pulls in urllib.request, http.client and ssl."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(relbayes.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, relbayes.harness; "
                "print(sorted({'ssl', 'urllib.request'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_version_and_usage_exits(self, capsys):
        assert cli_main(["--version"]) == 0
        assert cli_main([]) == 1
        assert cli_main(["frisbee"]) == 1
        capsys.readouterr()

    def test_smoking_subcommand_on_tiny_table(self, tmp_path, capsys):
        path = _write_arms(tmp_path, TINY_ARMS)
        out_dir = tmp_path / "smk"
        with pytest.warns(RuntimeWarning, match="distinct studies"):
            rc = cli_main(["smoking", "weak", "--data", str(path), "--samples", "1200",
                           "--seed", "3", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "weak: median log predictive ratio" in out
        rows = read_csv(out_dir / "partitions.csv")
        assert [row["held_out_study"] for row in rows] == ["s1", "s2", "s3"]
        (summary,) = read_csv(out_dir / "summary.csv")
        assert summary["proxy_mode"] == "weak" and summary["count"] == 3
        assert (out_dir / "boxplot.svg").exists()
        assert "classic baseline" in (out_dir / "run_metadata.txt").read_text()

    def test_smoking_outputs_identical_across_jobs(self, tmp_path, capsys):
        """All three proxy modes, run in process and in two workers, write
        the same bytes."""
        path = _write_arms(tmp_path, TINY_ARMS)
        for jobs in ("1", "2"):
            with pytest.warns(RuntimeWarning, match="distinct studies"):
                rc = cli_main(["smoking", "--data", str(path), "--samples", "1200", "--seed", "3",
                               "--jobs", jobs, "--out", str(tmp_path / jobs)])
            assert rc == 0
        out = capsys.readouterr().out
        assert out.count("over 3 partitions") == 6
        for name in ("partitions.csv", "summary.csv", "boxplot.svg"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        assert [row["proxy_mode"] for row in read_csv(tmp_path / "1" / "summary.csv")] == \
            sorted(smoking.PROXY_SETTINGS)

    def _smoking_rows(self, tmp_path, path, mode, seed):
        """partitions.csv rows of a tiny-table smoking run in tmp_path/mode-seed."""
        out_dir = tmp_path / f"{mode}-{seed}"
        with pytest.warns(RuntimeWarning, match="distinct studies"):
            assert cli_main(["smoking", mode, "--data", str(path), "--samples", "1200",
                             "--seed", str(seed), "--out", str(out_dir)]) == 0
        return read_csv(out_dir / "partitions.csv")

    def test_one_mode_run_is_its_slice_of_the_all_mode_run(self, tmp_path, capsys):
        """A mode's seed depends on the run's seed and the mode alone, so a
        one-mode run writes the rows the all-mode run writes for it."""
        path = _write_arms(tmp_path, TINY_ARMS)
        every = self._smoking_rows(tmp_path, path, "all", 3)
        for mode in sorted(smoking.PROXY_SETTINGS):
            assert self._smoking_rows(tmp_path, path, mode, 3) == \
                [row for row in every if row["proxy_mode"] == mode]
        capsys.readouterr()

    def test_seeds_share_no_proxy_noise(self, tmp_path, capsys):
        """No standardized proxy draw (z - psi*) / sigma of seed 0 recurs at
        seed 1, in any pair of modes.  A rule like seed + k + 1 for mode k
        would give seed 1's strong partitions seed 0's weak draws."""
        path = _write_arms(tmp_path, TINY_ARMS)
        noise = {}
        for seed in (0, 1):
            for row in self._smoking_rows(tmp_path, path, "all", seed):
                sigma, _ = smoking.PROXY_SETTINGS[row["proxy_mode"]]
                noise.setdefault((seed, row["proxy_mode"]), []).append(
                    (row["z_value"] - row["psi_star_estimate"]) / sigma)
        capsys.readouterr()
        for a in smoking.PROXY_SETTINGS:
            for b in smoking.PROXY_SETTINGS:
                assert not np.allclose(noise[0, a], noise[1, b], rtol=1e-6), (a, b)

    def test_smoking_metadata_names_the_data_as_given(self, tmp_path, capsys, monkeypatch):
        """run_metadata.txt names the packaged table without its install
        path, so two checkouts write the same bytes, and a given table by
        the path as typed."""
        path = _write_arms(tmp_path, TINY_ARMS)
        monkeypatch.setattr(cli_module, "packaged_smoking_path", lambda: path)
        monkeypatch.chdir(tmp_path)
        for data, line in (([], "data: packaged dataset"),
                           (["--data", "./arms.csv"], "data: ./arms.csv")):
            with pytest.warns(RuntimeWarning, match="distinct studies"):
                assert cli_main(["smoking", "weak", *data, "--samples", "1200",
                                 "--out", "out"]) == 0
            assert (tmp_path / "out" / "run_metadata.txt").read_text().splitlines()[1] == line
        capsys.readouterr()

    @pytest.mark.parametrize("flags, message", [
        (["--jobs", "0"], "parallelism must be >= 1"),
        (["--jobs=-2"], "parallelism must be >= 1"),
        (["--samples", "999"], "mcmc_samples must be >= 1000")],
        ids=["jobs-0", "jobs-minus-2", "samples-999"])
    def test_smoking_subcommand_validates_like_run(self, tmp_path, capsys, flags, message):
        """The subcommand builds its config as run does, so a bad worker
        count or chain length exits 1 before anything runs."""
        path = _write_arms(tmp_path, TINY_ARMS)
        out_dir = tmp_path / "smk"
        assert cli_main(["smoking", "weak", "--data", str(path), *flags,
                         "--out", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value", [("n_simulations", "3"), ("label", "mine")])
    def test_run_rejects_sweep_keys_on_smoking_config(self, tmp_path, capsys, key, value):
        config = tmp_path / "smoking.cfg"
        config.write_text(f"experiment = smoking\nmcmc_samples = 1200\n{key} = {value}\n")
        assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"not applicable to experiment 'smoking': '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, experiment", [
        ("verify", None), ("smoking", None), ("run", "toy-verify"), ("run", "smoking")])
    def test_grid_flag_rejected_without_parameter_grid(self, tmp_path, capsys,
                                                       command, experiment):
        """Toy instances and the smoking study have no parameter grid, so
        the key table that refuses grid_resolution in their files refuses
        --grid too: exit 1 with a message naming the flag and the key,
        before anything runs."""
        argv = [command]
        if experiment is not None:
            config = tmp_path / "experiment.cfg"
            config.write_text(f"experiment = {experiment}\n")
            argv.append(str(config))
        argv += ["--grid", "7", "--out", str(tmp_path / "out")]
        assert cli_main(argv) == 1
        experiment = experiment or {"verify": "toy-verify", "smoking": "smoking"}[command]
        assert "--grid sets 'grid_resolution', which does not apply to experiment " \
            f"'{experiment}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["toy-verify", "smoking"])
    def test_grid_resolution_key_rejected_without_parameter_grid(self, experiment):
        with pytest.raises(ConfigError,
                           match=f"not applicable to experiment '{experiment}': "
                                 "'grid_resolution'"):
            parse_config_text(f"experiment = {experiment}\ngrid_resolution = 7\n")

    def test_bad_smoking_mode_is_the_configs_input_error(self, tmp_path, capsys):
        """The parser holds no mode list: the config's check refuses an
        unknown mode, and main exits 1 with its message before anything
        runs."""
        out_dir = tmp_path / "smk"
        path = _write_arms(tmp_path, TINY_ARMS)
        assert cli_main(["smoking", "deafening", "--data", str(path),
                         "--out", str(out_dir)]) == 1
        assert f"error: proxy_mode must be one of {PROXY_MODES}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_lone_smoking_argument_is_the_mode(self, tmp_path, capsys, monkeypatch):
        """`relbayes smoking weak` runs the weak mode on the packaged table."""
        monkeypatch.setattr(cli_module, "packaged_smoking_path",
                            lambda: _write_arms(tmp_path, TINY_ARMS))
        out_dir = tmp_path / "smk"
        with pytest.warns(RuntimeWarning, match="distinct studies"):
            assert cli_main(["smoking", "weak", "--samples", "1200", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert [row["proxy_mode"] for row in read_csv(out_dir / "summary.csv")] == ["weak"]
        assert (out_dir / "run_metadata.txt").read_text().splitlines()[1] == \
            "data: packaged dataset"

    @pytest.mark.parametrize("command", ["run", "verify", "smoking"])
    def test_every_option_sets_a_config_key_and_states_no_default(self, command):
        """Each flag of a run command names the ExperimentConfig field it
        sets and has no default of its own, so the parser cannot restate a
        config default, type or choice list."""
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        options = [a for a in commands.choices[command]._actions
                   if a.dest not in ("help", "config")]
        assert len(options) >= 4
        for action in options:
            assert FLAG_KEYS[action.dest] in config_fields, action.dest
            assert (action.default, action.type, action.choices) == (None, None, None), \
                action.dest
