"""The public surface, pinned: adding or removing an exported name is a
reviewed edit of these lists.  Each package's __all__ is every public name
its __init__ binds, the submodules it imports included.  The signatures
of the sampler, the toy model, the chain-to-grid distance, the run writer
and the smoking sweep are pinned too, by parameter name and kind, and by
whether each parameter is required, so that a retired option cannot come
back unnoticed."""

import inspect

import pytest

import relbayes
import relbayes.harness

RELBAYES_ALL = [
    "DegenerateProxyError", "DegenerateRelevanceError", "DeltaRweighted",
    "DiagnosticsReport", "GpInstance", "GpScenario", "GridProblem", "LOG_2PI",
    "LinearInstance", "LinearScenario", "McmcChain", "McmcInitError", "ModelSpec",
    "ParameterGrid", "PosteriorTable", "Prop55Check", "ProxyObservation",
    "RefinementResult", "RelevanceConfigError", "SourceData", "Theorem24Check",
    "ToyEnumeration", "TrueProcess", "binomial_logit_model", "box_nodes", "build_grid",
    "chain_grid_tv", "check_prop55", "check_theorem24", "classic_posterior",
    "delta_classic", "delta_rweighted", "diagnostics", "discrete_toy_model", "entropy",
    "gen_expert_proxy", "gen_gp_trajectories", "gen_imprecise_estimate_proxy",
    "gen_linear_covariates", "gen_linear_instance", "gp_model", "grids", "inference",
    "info_gain_classic", "info_gain_rweighted", "kl_divergence", "linear_model",
    "loglik_tensor", "metropolis_posterior", "midpoint_nodes", "models",
    "prior_expected_relevance", "prompt_agreement", "proxy_loglik_vector",
    "r_weighted_posterior", "refine_relevance", "relevance", "sigmoid_ratio_relevance",
    "synthetic", "task_rng", "toy_diagnostics_report", "toy_grid",
]

HARNESS_ALL = [
    "BoxStats", "ConfigError", "ExperimentConfig", "PartitionResult", "RunFailureError",
    "SimulationResult", "SmokingRecord", "apply_overrides", "arms_by_study", "box_stats",
    "config", "csvio", "emit_boxplot_svg", "emit_csv", "emit_metadata",
    "fit_study_intercepts", "format_value", "ingest_smoking_csv", "packaged_smoking_path",
    "parse_config", "parse_config_text", "parse_value", "read_csv", "results_rows",
    "run_experiment", "run_smoking_comparison", "runner", "smoking", "summary_rows",
    "svgplot", "toy_verify_instance", "write_run_outputs",
]


def test_relbayes_public_names():
    assert sorted(relbayes.__all__) == RELBAYES_ALL


def test_harness_public_names():
    assert sorted(relbayes.harness.__all__) == HARNESS_ALL


P, K = "POSITIONAL_OR_KEYWORD", "KEYWORD_ONLY"

SIGNATURES = {
    relbayes.metropolis_posterior: [
        ("model", P, True), ("data", P, True), ("prior_log_density", P, True),
        ("n_samples", K, True), ("seed", K, True), ("groups", K, False),
        ("init_psi", K, False), ("proposal_scale", K, False)],
    relbayes.discrete_toy_model: [("table", P, True)],
    relbayes.chain_grid_tv: [("chain", P, True), ("table", P, True), ("marginal", P, False)],
    relbayes.harness.write_run_outputs: [("config", P, True), ("results", P, True)],
    relbayes.harness.run_smoking_comparison: [
        ("records", P, True), ("proxy_mode", P, True), ("seed", P, True),
        ("n_samples", P, True), ("intercepts", K, True)],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_signature_is_pinned(fn):
    got = [(p.name, p.kind.name, p.default is inspect.Parameter.empty)
           for p in inspect.signature(fn).parameters.values()]
    assert got == SIGNATURES[fn]
