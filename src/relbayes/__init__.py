"""Relevance-weighted Bayesian transfer learning with exact desk-scale diagnostics."""

from .models import (LOG_2PI, ModelSpec, Observation, SourceData, binomial_logit_model,
                     discrete_toy_model, gp_model, linear_model, loglik_tensor)
from .grids import ParameterGrid, box_nodes, build_grid, midpoint_nodes, toy_grid
from .inference import (DegenerateProxyError, GridProblem, McmcChain, McmcInitError,
                        PosteriorTable, ProxyObservation, chain_grid_tv,
                        classic_posterior, metropolis_posterior, proxy_loglik_vector,
                        r_weighted_posterior)
from .relevance import (DegenerateRelevanceError, RefinementResult, RelevanceConfigError,
                        prior_expected_relevance, refine_relevance,
                        sigmoid_ratio_relevance)
from .diagnostics import (DeltaRweighted, DiagnosticsReport, Prop55Check, Theorem24Check,
                          ToyEnumeration, TrueProcess, check_prop55, check_theorem24,
                          delta_classic, delta_rweighted, entropy, info_gain_classic,
                          info_gain_rweighted, kl_divergence, toy_diagnostics_report)
from .synthetic import (GpInstance, GpScenario, LinearInstance, LinearScenario,
                        gen_expert_proxy, gen_gp_trajectories, gen_imprecise_estimate_proxy,
                        gen_linear_covariates, gen_linear_instance, prompt_agreement,
                        task_rng)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
