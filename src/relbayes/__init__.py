"""Relevance-weighted Bayesian transfer learning with exact desk-scale diagnostics."""

from .models import (LOG_2PI, ModelSpec, Observation, SharedParam, SourceData,
                     TaskParam, binomial_logit_model, discrete_toy_model, gp_model,
                     linear_model, loglik_tensor)
from .grids import ParameterGrid, box_nodes, build_grid, midpoint_nodes, toy_grid
from .inference import (DegenerateProxyError, GridProblem, McmcChain, McmcInitError,
                        PosteriorTable, ProxyObservation, ProxyPosterior, chain_grid_tv,
                        classic_posterior, metropolis_posterior, proxy_posterior,
                        r_weighted_posterior, uninformative_proxy)
from .relevance import (DegenerateRelevanceError, RefinementResult, RelevanceConfig,
                        RelevanceConfigError, RelevanceWeights, constant_one_weights,
                        prior_expected_relevance, refine_relevance,
                        sigmoid_ratio_relevance)
from .diagnostics import (DeltaRweighted, DiagnosticsReport, Prop55Check, ProxyModel,
                          Theorem24Check, ToyEnumeration, TrueProcess, check_prop55,
                          check_theorem24, cross_entropy, delta_classic,
                          delta_rweighted, entropy, ess_dis, info_gain_classic,
                          info_gain_rweighted, kl_divergence, rho_fidelity,
                          toy_diagnostics_report)
from .synthetic import (GpInstance, GpScenario, LinearInstance, LinearScenario,
                        gen_expert_proxy, gen_gp_trajectories, gen_imprecise_estimate_proxy,
                        gen_linear_covariates, gen_linear_instance, prompt_agreement,
                        task_rng)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
