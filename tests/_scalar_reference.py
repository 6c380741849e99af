"""Scalar reference log-likelihoods, one observation at one (theta, psi).

The library supplies each model's likelihood once, as a vectorised
evaluator over a parameter product.  These are the per-observation forms it
replaced, kept here as oracles so the tensor can be checked cell by cell
against code that shares none of its broadcasting.  The GP oracle factors
one kernel at a time and solves with LU, sharing no factor cache and no
forward substitution with the library.  r_weighted_likelihood is one cell
of the r-weighted engine, the scalar form the grid engine replaced.
"""

import numpy as np

from relbayes.inference import _check_weights, _weighted_terms
from relbayes.models import BASE_JITTER, LOG_2PI, MAX_JITTER, _binom_logpmf, \
    loglik_tensor, param_values


def linear(obs, theta, psi) -> float:
    th, ps = param_values(theta), param_values(psi)
    mean = th[0] * obs.covariates[0] + ps[0] * obs.covariates[1]
    return -0.5 * LOG_2PI - 0.5 * (float(obs.outcome) - mean) ** 2


def binomial_logit(obs, theta, psi) -> float:
    th, ps = param_values(theta), param_values(psi)
    t = float(th @ obs.covariates) + ps[0]
    return float(_binom_logpmf(int(obs.outcome), obs.trial_count, t))


def gp(obs, theta, psi) -> float:
    """Composite-kernel GP on the grid held in obs.covariates."""
    t, p = param_values(theta)[0], param_values(psi)[0]
    sq = (obs.covariates[:, None] - obs.covariates[None, :]) ** 2
    m = sq.shape[0]
    kernel = 0.5 * (np.exp(-sq / (2.0 * t ** 2)) + np.exp(-sq / (2.0 * p ** 2)))
    jitter = BASE_JITTER
    while True:
        try:
            chol = np.linalg.cholesky(kernel + jitter * np.eye(m))
            break
        except np.linalg.LinAlgError:
            if jitter >= MAX_JITTER:
                raise
            jitter *= 10.0
    z = np.linalg.solve(chol, np.asarray(obs.outcome, dtype=float))
    return float(-0.5 * (z @ z) - np.log(np.diag(chol)).sum() - 0.5 * m * LOG_2PI)


def discrete_toy(table, obs, theta, psi) -> float:
    a = int(round(param_values(theta)[0]))
    b = int(round(param_values(psi)[0]))
    with np.errstate(divide="ignore"):
        return float(np.log(table[a, b, int(obs.outcome)]))


def r_weighted_likelihood(model, data, theta, psi_target, weights) -> float:
    """Log of the relevance-weighted likelihood at one (theta, psi_target):
    every observation evaluated at psi_target, its log-likelihood scaled by
    its weight, a zero weight removing the term even where it is -inf."""
    w = _check_weights(weights, (data.n,))
    lls = loglik_tensor(model, data, param_values(theta)[None, :],
                        param_values(psi_target)[None, :])[:, 0, 0]
    return float(_weighted_terms(w, lls).sum())
