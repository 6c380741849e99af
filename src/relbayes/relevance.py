"""Relevance weighting of source observations.

Three weight families are provided.  prior_expected_relevance scores each
observation by how well the current belief over the shared parameter
predicts it when the observation is pretended to come from the target task;
the modal density of that belief-averaged predictive normalizes the score
into [0, 1].  sigmoid_ratio_relevance is the cheap heuristic used for the
observational case study.  constant_one_weights recovers unweighted pooling.

refine_relevance alternates weight evaluation with the grid posterior a
fixed number of times, feeding the exact theta marginal back in as the next
belief.  The normalizer is belief-dependent, so it is re-evaluated along
with the weights at every round; the log-likelihood tensor and the proxy
vector are not.  The tensor comes built once per simulation, in the
GridProblem both grid engines share, and refine_relevance builds the proxy
vector once per call.

The belief average behind the prior-expected weights is the one sum here
taken in the exp domain instead of by log-sum-exp.  Each observation's
log-likelihoods are shifted by their peak over theta and exponentiated
once per refine_relevance call, so a round is one matrix-vector product
with the belief and an (n, B) logarithm.  The sum underflows only where
every belief-weighted term lies below the smallest double, relative to the
peak, so the weight it zeroes is at most A x 5e-324 times the peak density
over the predictive mode.  That is below 1e-300 for the linear, binomial and
toy models; for the gp model it grows with the trajectory length m, and at
the default m = 10 it is below 1e-270.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .inference import GridProblem, PosteriorTable, _check_weights, _r_weighted_table, \
    proxy_loglik_vector
from .models import DegenerateRelevanceError, ModelSpec, SourceData, loglik_tensor, \
    param_values, sigmoid_ratio_weights  # noqa: F401  (error re-exported)

CLIP_WARN_TOL = 0.5
MAX_REFINEMENTS = 10

KINDS = ("prior-expected", "sigmoid-ratio", "constant-one")
NORMALIZERS = ("mode-density", "none")


class RelevanceConfigError(ValueError):
    """The requested relevance computation is not defined for this model."""


@dataclass(frozen=True)
class RelevanceWeights:
    """Weights for every source observation under one candidate target task."""

    psi_node_index: int
    weights: np.ndarray

    def __post_init__(self):
        w = _check_weights(self.weights, (np.size(self.weights),))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "psi_node_index", int(self.psi_node_index))


@dataclass(frozen=True)
class RelevanceConfig:
    kind: str = "prior-expected"
    refinement_iterations: int = 3
    normalizer: str = "mode-density"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown relevance kind {self.kind!r}; choose from {KINDS}")
        if self.normalizer not in NORMALIZERS:
            raise ValueError(
                f"unknown normalizer {self.normalizer!r}; choose from {NORMALIZERS}")
        t = self.refinement_iterations
        if not isinstance(t, (int, np.integer)) or t < 0 or t > MAX_REFINEMENTS:
            raise ValueError(
                f"refinement_iterations must be an integer in [0, {MAX_REFINEMENTS}]")


def constant_one_weights(n_psi: int, n_obs: int) -> np.ndarray:
    """Unit weight for every observation under every candidate target task."""
    return np.ones((int(n_psi), int(n_obs)))


def _clip_unit(weights: np.ndarray, context: str) -> np.ndarray:
    """Clip into [0, 1], quietly for the expected normalizer overshoot.

    A multimodal or discretized belief mixture can peak above the normal of
    matching variance, so small excess over 1 is ordinary; a gross excess
    means the model reported a nonsense normalizer and deserves a warning.
    """
    excess = weights.max(initial=0.0) - 1.0
    if excess > CLIP_WARN_TOL:
        warnings.warn(
            f"{context}: weight exceeded 1 by {excess:.3g}; clipping. The "
            "predictive mode density is far below the actual density maximum.",
            RuntimeWarning)
    return np.clip(weights, 0.0, 1.0)


def _predictive_mode_matrix(model: ModelSpec, data: SourceData,
                            thetas: np.ndarray, psis: np.ndarray,
                            belief: np.ndarray, normalizer: str) -> np.ndarray:
    """Log normalizer for every (observation, psi node) pair, shape (n, B)."""
    if normalizer == "none":
        return np.zeros((data.n, psis.shape[0]))
    if model.log_predictive_mode_density is None:
        raise RelevanceConfigError(
            f"model {model.name!r} does not define a predictive mode density; "
            "prior-expected relevance needs normalizer='none' for it")
    out = np.asarray(
        model.log_predictive_mode_density(data, thetas, psis, belief), dtype=float)
    if out.shape != (data.n, psis.shape[0]):
        raise RelevanceConfigError(
            f"model {model.name!r} returned predictive mode densities of shape "
            f"{out.shape}, expected {(data.n, psis.shape[0])}")
    return out


def _belief_averager(tensor: np.ndarray):
    """log sum_a belief[a] exp(tensor[:, a, :]) as a function of the belief.

    tensor is an (n, A, B) log-likelihood block.  It is shifted by its peak
    over theta (a non-finite peak counts as 0, as in models.logsumexp) and
    exponentiated once, into an (A, n*B) array; each belief then costs one
    matrix-vector product and an (n, B) logarithm.
    """
    n, n_theta, n_psi = tensor.shape
    peak = tensor.max(axis=1)                                          # (n, B)
    peak[~np.isfinite(peak)] = 0.0
    scaled = np.empty((n_theta, n, n_psi))
    np.subtract(tensor.transpose(1, 0, 2), peak, out=scaled)
    np.exp(scaled, out=scaled)
    scaled = scaled.reshape(n_theta, n * n_psi)

    def log_average(belief: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(belief @ scaled).reshape(n, n_psi) + peak

    return log_average


def prior_expected_relevance(model: ModelSpec, data: SourceData, theta_nodes,
                             theta_belief, psi_target,
                             normalizer: str = "mode-density") -> np.ndarray:
    """Belief-averaged density of each observation under the target task.

    The average is divided by the modal density of the same belief-averaged
    predictive, so a dead-center observation scores 1 and the weights react
    to how concentrated the current belief is.  Values pushed past 1, which
    happens when the mixture peaks above the matching-variance normal, are
    clipped.
    """
    thetas = np.asarray(theta_nodes, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    belief = np.asarray(theta_belief, dtype=float)
    if belief.shape != (thetas.shape[0],):
        raise ValueError("theta_belief must have one mass per theta node")
    if np.any(belief < 0) or abs(belief.sum() - 1.0) > 1e-9:
        raise ValueError("theta_belief must be a normalized mass vector")
    psi = param_values(psi_target)[None, :]
    log_average = _belief_averager(loglik_tensor(model, data, thetas, psi))
    log_mode = _predictive_mode_matrix(model, data, thetas, psi, belief, normalizer)
    return _clip_unit(np.exp(log_average(belief) - log_mode)[:, 0],
                      "prior_expected_relevance")


def _sigmoid_ratio(model: ModelSpec, data: SourceData, psis: np.ndarray) -> np.ndarray:
    """sigmoid(n * p_i / prod_j p_j) at theta = 0 for every psi row, shape (n, B)."""
    lls = loglik_tensor(model, data, np.zeros((1, model.k_theta)), psis)[:, 0, :]  # (n, B)
    return sigmoid_ratio_weights(lls)


def sigmoid_ratio_relevance(model: ModelSpec, data: SourceData, psi_target) -> np.ndarray:
    """Sigmoid of each observation's share of the pooled null likelihood.

    With the shared parameter pinned to zero and every task parameter set to
    the target's, observation i gets sigmoid(n * p_i / prod_j p_j).
    """
    return _sigmoid_ratio(model, data, param_values(psi_target)[None, :])[:, 0]


@dataclass(frozen=True)
class RefinementResult:
    """Final weights for every candidate target task, the final belief, and
    the r-weighted posterior under the final weights."""

    weights_per_psi: np.ndarray
    theta_belief: np.ndarray
    iterations: int
    posterior: PosteriorTable

    def as_weights(self) -> list[RelevanceWeights]:
        return [RelevanceWeights(psi_node_index=b, weights=row)
                for b, row in enumerate(self.weights_per_psi)]


def refine_relevance(problem: GridProblem, proxy, config: RelevanceConfig) -> RefinementResult:
    """Alternate weight evaluation and posterior updating on the grid.

    Starting from the prior belief over theta, each round evaluates the
    configured weights, forms the r-weighted posterior, and adopts its exact
    theta marginal as the next belief.  The returned weights are evaluated
    once more under the final belief, so refinement_iterations=0 gives the
    plain prior-expected weights, and the returned posterior is the
    r-weighted posterior under those final weights.  Every round reads the
    problem's one tensor; the proxy vector, and for prior-expected weights
    the exponentiated tensor, are built once per call.
    """
    model, data, grid = problem.model, problem.data, problem.grid
    proxy_vec = proxy_loglik_vector(proxy, grid.psi_nodes)

    if config.kind == "constant-one":
        def evaluate(belief):
            return constant_one_weights(grid.n_psi, data.n)
    elif config.kind == "sigmoid-ratio":
        fixed = _sigmoid_ratio(model, data, grid.psi_nodes).T              # (B, n)

        def evaluate(belief):
            return fixed
    else:
        log_average = _belief_averager(problem.tensor)

        def evaluate(belief):
            log_mode = _predictive_mode_matrix(model, data, grid.theta_nodes,
                                               grid.psi_nodes, belief,
                                               config.normalizer)
            raw = np.exp(log_average(belief) - log_mode).T
            return _clip_unit(raw, "refine_relevance")

    belief = grid.theta_prior_mass
    for _ in range(config.refinement_iterations):
        posterior = _r_weighted_table(problem, evaluate(belief), proxy_vec)
        belief = posterior.theta_marginal()
    weights = evaluate(belief)
    return RefinementResult(weights_per_psi=weights, theta_belief=belief,
                            iterations=config.refinement_iterations,
                            posterior=_r_weighted_table(problem, weights, proxy_vec))
