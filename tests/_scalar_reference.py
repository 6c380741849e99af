"""Scalar reference log-likelihoods, one observation at one (theta, psi).

The library supplies each model's likelihood once, as a vectorised
evaluator over a parameter product.  These are the per-observation forms it
replaced, kept here as oracles so the tensor can be checked cell by cell
against code that shares none of its broadcasting.  The GP oracle factors
one kernel at a time and solves with LU, sharing no factor cache and no
forward substitution with the library.  r_weighted_likelihood is one cell
of the r-weighted engine, the scalar form the grid engine replaced.

The diagnostics oracles at the end are the per-dataset loops the exact
enumeration replaced: each dataset of positive probability becomes its own
SourceData and, for the information gains, its own grid posterior.  A
weights provider is called with one dataset at a time.
"""

import itertools

import numpy as np
from scipy.special import logsumexp

from relbayes.inference import (_check_weights, _weighted_terms, classic_posterior,
                                proxy_loglik_vector, r_weighted_posterior)
from relbayes.models import BASE_JITTER, LOG_2PI, MAX_JITTER, Observation, SourceData, \
    _binom_logpmf, loglik_tensor, param_values
from relbayes.relevance import refine_relevance


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


def _alphabet(model) -> SourceData:
    return SourceData(tuple(Observation(np.empty(0), int(o)) for o in model.outcome_space))


def _datasets(model, true_process):
    """(outcome indices, SourceData, P*(d), log P*(d)) for every dataset with
    P*(d) > 0, the last observation varying fastest."""
    theta = param_values(true_process.theta_star)[None, :]
    rows = [loglik_tensor(model, _alphabet(model), theta, param_values(p)[None, :])[:, 0, 0]
            for p in true_process.psi_star]
    out = []
    for d in itertools.product(range(len(model.outcome_space)), repeat=true_process.n):
        lpd = sum(row[o] for row, o in zip(rows, d))
        pd = float(np.exp(lpd))
        if pd == 0.0:
            continue
        data = SourceData(tuple(Observation(np.empty(0), int(model.outcome_space[o]))
                                for o in d))
        out.append((np.array(d), data, pd, float(lpd)))
    return out


def _log_ratio(grid, table, a_star) -> float:
    with np.errstate(divide="ignore"):
        return float(np.log(table.theta_marginal()[a_star]) - grid.log_theta_prior()[a_star])


def info_gain_classic(model, true_process, grid, source_psi_prior) -> float:
    """Sum over datasets of P*(d) times the classic posterior's log ratio at theta*."""
    a_star, _ = grid.nearest_theta(param_values(true_process.theta_star))
    return sum(pd * _log_ratio(grid, classic_posterior(model, data, grid, source_psi_prior),
                               a_star)
               for _, data, pd, _ in _datasets(model, true_process))


def info_gain_rweighted(model, true_process, grid, relevance_config, proxy_model,
                        weights_provider=None, proxy_expectation="subjective") -> float:
    """Sum over payloads and datasets of the r-weighted posterior's log ratio at theta*."""
    a_star, _ = grid.nearest_theta(param_values(true_process.theta_star))
    target = param_values(true_process.psi_target_star)[None, :]
    value = 0.0
    for z in proxy_model.payloads:
        proxy = proxy_model.observation(z)
        if proxy_expectation == "subjective":
            z_mass = np.exp(logsumexp(proxy_loglik_vector(proxy, grid.psi_nodes)
                                      + grid.log_psi_prior()))
        else:
            z_mass = np.exp(proxy_loglik_vector(proxy, target)[0])
        if z_mass == 0.0:
            continue
        for d, data, pd, _ in _datasets(model, true_process):
            if weights_provider is None:
                w = refine_relevance(model, data, grid, proxy, relevance_config).weights_per_psi
            else:
                w = weights_provider(d[None, :])[0]
            post = r_weighted_posterior(model, data, grid, w, proxy)
            value += z_mass * pd * _log_ratio(grid, post, a_star)
    return float(value)


def delta_rweighted(model, true_process, grid, weights_per_psi) -> tuple[float, float]:
    """(normalized, unnormalized) r-weighted divergence, one psi node at a time."""
    theta = param_values(true_process.theta_star)[None, :]
    logpmf = loglik_tensor(model, _alphabet(model), theta, grid.psi_nodes)[:, 0, :].T  # (B, O)
    star = np.stack([np.exp(loglik_tensor(model, _alphabet(model), theta,
                                          param_values(p)[None, :])[:, 0, 0])
                     for p in true_process.psi_star])                                # (n, O)
    star_entropy = -sum(p * np.log(p) for row in star for p in row if p > 0)
    norm = unnorm = 0.0
    for b, qb in enumerate(grid.psi_prior_mass):
        weighted = _weighted_terms(weights_per_psi[b][:, None], logpmf[b][None, :])  # (n, O)
        cross = _weighted_terms(star, weighted).sum()
        log_z = logsumexp(weighted, axis=1).sum()
        unnorm += qb * (-star_entropy - cross)
        norm += qb * (-star_entropy - cross + log_z)
    return float(norm), float(unnorm)


def check_prop55(model, true_process, grid, weights_provider) -> dict:
    """Every Prop55Check field, one psi node and one dataset at a time."""
    n = true_process.n
    theta = param_values(true_process.theta_star)[None, :]
    logpmf = loglik_tensor(model, _alphabet(model), theta, grid.psi_nodes)[:, 0, :].T  # (B, O)
    datasets = _datasets(model, true_process)
    h_true = -sum(pd * lpd for _, _, pd, lpd in datasets)
    delta = ess_dis = rho = 0.0
    for b, qb in enumerate(grid.psi_prior_mass):
        if qb == 0.0:
            continue
        d_acc = e_acc = r_acc = 0.0
        for d, _, pd, lpd in datasets:
            w = np.asarray(weights_provider(d[None, :])[0, b], dtype=float)
            lls = logpmf[b][d]
            d_acc += pd * (lpd - _weighted_terms(w, lls).sum())
            e_acc += pd * w.sum() * (-lls.sum())
            r_acc += pd * np.mean((w - w.mean()) * (lls - lls.mean()))
        delta += qb * d_acc
        ess_dis += qb * e_acc
        rho += qb * r_acc
    return {"residual": delta - (ess_dis / n - n * rho - h_true),
            "delta_unnormalized": delta, "ess_dis_expectation": ess_dis,
            "rho_fidelity": rho, "entropy_true": h_true}
