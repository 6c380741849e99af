"""Relevance weighting of source observations.

Two weight families are provided.  prior_expected_relevance scores each
observation by how well the current belief over the shared parameter
predicts it when the observation is pretended to come from the target task;
for a model that defines one, the modal density of that belief-averaged
predictive normalizes the score into [0, 1], and a pmf model's score lies
there already.  The model hands that density back in the shape its
formula has, (n, 1) or (1, B), broadcast against the (n, B) scores.
sigmoid_ratio_relevance is the cheap heuristic used for the observational
case study; models.sigmoid_ratio_weights forms it, for the Metropolis
sampler too.

refine_relevance, which the grid learners run, alternates prior-expected
weight evaluation with the r-weighted grid posterior a fixed number of
times, feeding the exact theta marginal back in as the next belief.  The
normalizer is belief-dependent, so it is re-evaluated along with the
weights at every round; the log-likelihood tensor and the proxy vector are
not.  The tensor comes built once per simulation, in the GridProblem both
grid engines share, and the caller passes the proxy as its (B,)
log-likelihood vector, so refinement evaluates no proxy itself.

The belief average behind the prior-expected weights is the one sum here
taken in the exp domain instead of by log-sum-exp.  Each observation's
log-likelihoods are shifted by their peak over theta and exponentiated
once per refine_relevance call, into one array in the tensor's own
(n, A, B) order, so a round is the belief times that array, an (n, B)
product, and an (n, B) logarithm.  The sum underflows only where
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

from .grids import _check_normalized
from .inference import GridProblem, PosteriorTable, r_weighted_posterior
from .models import ModelSpec, SourceData, loglik_tensor, param_values, \
    sigmoid_ratio_weights

CLIP_WARN_TOL = 0.5
MAX_REFINEMENTS = 10


class RelevanceConfigError(ValueError):
    """The model returned a relevance normalizer of the wrong shape."""


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
                            thetas: np.ndarray, psis: np.ndarray, belief: np.ndarray):
    """Log normalizer for every (observation, psi node) pair: a 2-D array
    that broadcasts to (n, B), or 0.0.

    The model's log predictive mode density when it defines one: (n, 1) for
    the linear model, (1, B) for the gp.  A model without one (toy,
    binomial) has a pmf, whose belief average already lies in [0, 1], so
    its normalizer is 0.
    """
    if model.log_predictive_mode_density is None:
        return 0.0
    out = np.asarray(
        model.log_predictive_mode_density(data, thetas, psis, belief), dtype=float)
    shape = (data.n, psis.shape[0])
    if out.ndim != 2 or any(k not in (1, want) for k, want in zip(out.shape, shape)):
        raise RelevanceConfigError(
            f"model {model.name!r} returned predictive mode densities of shape "
            f"{out.shape}, which does not broadcast to {shape}")
    return out


def _belief_averager(tensor: np.ndarray):
    """log sum_a belief[a] exp(tensor[:, a, :]) as a function of the belief.

    tensor is an (n, A, B) log-likelihood block.  It is shifted by its peak
    over theta (a non-finite peak counts as 0, as in models.logsumexp) and
    exponentiated once, in its own (n, A, B) order, into one array; each
    belief then costs one vector-matrix product per observation, giving
    (n, B), and an (n, B) logarithm.
    """
    peak = tensor.max(axis=1)                                          # (n, B)
    peak[~np.isfinite(peak)] = 0.0
    scaled = tensor - peak[:, None, :]
    np.exp(scaled, out=scaled)

    def log_average(belief: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(belief @ scaled) + peak

    return log_average


def _relevance_weights(log_average, model: ModelSpec, data: SourceData,
                       thetas: np.ndarray, psis: np.ndarray, belief: np.ndarray,
                       context: str) -> np.ndarray:
    """Prior-expected weights, (n, B): the belief average log_average(belief)
    minus the _predictive_mode_matrix normalizer, exponentiated and clipped
    into [0, 1]."""
    log_mode = _predictive_mode_matrix(model, data, thetas, psis, belief)
    return _clip_unit(np.exp(log_average(belief) - log_mode), context)


def prior_expected_relevance(model: ModelSpec, data: SourceData, theta_nodes,
                             theta_belief, psi_nodes) -> np.ndarray:
    """Belief-averaged density of each observation under each candidate
    target task, shape (n, B) for the B rows of psi_nodes (B, k_psi).

    For a model with a predictive mode density the average is divided by
    the modal density of the same belief-averaged predictive, so a
    dead-center observation scores 1 and the weights react to how
    concentrated the current belief is.  Values pushed past 1, which happens
    when the mixture peaks above the matching-variance normal, are clipped.
    A pmf model's average is used as it is.  At the theta prior this is the
    expert-prompt agreement of synthetic.prompt_agreement.
    """
    thetas = np.asarray(theta_nodes, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    belief = np.asarray(theta_belief, dtype=float)
    if belief.shape != (thetas.shape[0],):
        raise ValueError("theta_belief must have one mass per theta node")
    _check_normalized(belief, "theta_belief", 1e-9)
    psis = np.asarray(psi_nodes, dtype=float)
    if psis.ndim != 2:
        raise ValueError(f"psi_nodes must be a (B, k_psi) array, got shape {psis.shape}")
    log_average = _belief_averager(loglik_tensor(model, data, thetas, psis))
    return _relevance_weights(log_average, model, data, thetas, psis, belief,
                              "prior_expected_relevance")


def sigmoid_ratio_relevance(model: ModelSpec, data: SourceData, psi_target) -> np.ndarray:
    """Sigmoid of each observation's share of the pooled null likelihood.

    With the shared parameter pinned to zero and every task parameter set to
    the target's, observation i gets sigmoid(n * p_i / prod_j p_j).
    """
    null = loglik_tensor(model, data, np.zeros((1, model.k_theta)),
                         param_values(psi_target)[None, :])[:, 0, 0]
    return sigmoid_ratio_weights(null, np.log(data.n))


@dataclass(frozen=True)
class RefinementResult:
    """Final weights for every candidate target task, the final belief, and
    the r-weighted posterior under the final weights."""

    weights_per_psi: np.ndarray
    theta_belief: np.ndarray
    posterior: PosteriorTable


def refine_relevance(problem: GridProblem, proxy_ll,
                     refinement_iterations: int = 3) -> RefinementResult:
    """Alternate prior-expected weight evaluation and posterior updating on
    the grid.

    proxy_ll is the proxy's (B,) log-likelihood at grid.psi_nodes, as
    inference.proxy_loglik_vector forms it.  Starting from the prior belief
    over theta, each round evaluates the weights, forms the r-weighted
    posterior, and adopts its exact theta marginal as the next belief.  The
    returned weights are evaluated once more under the final belief, so
    refinement_iterations=0 gives the plain prior-expected weights, and the
    returned posterior is the r-weighted posterior under those final
    weights.  Every round reads the problem's one tensor; the exponentiated
    tensor is built once per call.
    """
    t = refinement_iterations
    if not isinstance(t, (int, np.integer)) or t < 0 or t > MAX_REFINEMENTS:
        raise ValueError(f"refinement_iterations must be an integer in [0, {MAX_REFINEMENTS}]")
    model, data, grid = problem.model, problem.data, problem.grid
    log_average = _belief_averager(problem.tensor)

    def evaluate(belief):
        return _relevance_weights(log_average, model, data, grid.theta_nodes,
                                  grid.psi_nodes, belief, "refine_relevance").T

    belief = grid.theta_prior_mass
    for _ in range(t):
        belief = r_weighted_posterior(problem, evaluate(belief), proxy_ll).theta_marginal()
    weights = evaluate(belief)
    return RefinementResult(weights_per_psi=weights, theta_belief=belief,
                            posterior=r_weighted_posterior(problem, weights, proxy_ll))
