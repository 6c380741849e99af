"""Scalar reference log-likelihoods, one observation at one (theta, psi).

Each oracle reads a one-row SourceData; rows(data) cuts a larger one into
them.

The library supplies each model's likelihood once, as a vectorised
evaluator over a parameter product.  These are the per-observation forms it
replaced, kept here as oracles so the tensor can be checked cell by cell
against code that shares none of its broadcasting.  The GP oracle factors
one kernel at a time and solves with LU, sharing no factor cache and no
forward substitution with the library; the binomial oracle forms its log
coefficient with math.lgamma and its log-sigmoids in scalar arithmetic,
sharing no code with the model.  r_weighted_likelihood is one cell
of the r-weighted engine, the scalar form the grid engine replaced.

prior_expected_matrix is the prior-expected weight formula as a full
log-sum-exp over the (n, A, B) tensor at every belief, the form the
exponentiate-once belief average replaced; refine_prior_expected is the
refinement loop on it.

sigmoid_ratio_weights and metropolis_log_target are the sigmoid-ratio
formula and the Metropolis log-target as written before the sampler kept
its per-chain constants: every step slices the state, reshapes and gathers
the group intercepts, and forms the weights through the full (n, B)
formula, the range check and the zero-weight mask.

The diagnostics oracles at the end are the per-dataset loops the exact
enumeration replaced: each dataset of positive probability becomes its own
SourceData and, for the information gains, its own grid posterior.  A
weight table is read one entry w[b, i, d_i] at a time.
"""

import itertools
import math

import numpy as np
from scipy.special import expit, logsumexp

from relbayes.inference import (GridProblem, _check_weights, classic_posterior,
                                proxy_loglik_vector, r_weighted_posterior)
from relbayes.models import BASE_JITTER, LOG_2PI, MAX_JITTER, DegenerateRelevanceError, \
    SourceData, loglik_tensor, param_values
from relbayes.relevance import _clip_unit, _predictive_mode_matrix, refine_relevance


def rows(data) -> list:
    """Each observation of data as a one-row SourceData."""
    counts = data.trial_counts
    return [SourceData(data.covariates[i:i + 1], data.outcomes[i:i + 1],
                       None if counts is None else counts[i:i + 1])
            for i in range(data.n)]


def linear(obs, theta, psi) -> float:
    th, ps = param_values(theta), param_values(psi)
    x = obs.covariates[0]
    mean = th[0] * x[0] + ps[0] * x[1]
    return -0.5 * LOG_2PI - 0.5 * (float(obs.outcomes[0]) - mean) ** 2


def _log_sigmoid(t: float) -> float:
    return -math.log1p(math.exp(-t)) if t >= 0 else t - math.log1p(math.exp(t))


def binomial_logit(obs, theta, psi) -> float:
    """log Binomial(y; n, sigmoid(t)), the log coefficient by math.lgamma."""
    th, ps = param_values(theta), param_values(psi)
    t = float(th @ obs.covariates[0]) + ps[0]
    y, n = int(obs.outcomes[0]), int(obs.trial_counts[0])
    log_coef = math.lgamma(n + 1) - math.lgamma(y + 1) - math.lgamma(n - y + 1)
    return log_coef + y * _log_sigmoid(t) + (n - y) * _log_sigmoid(-t)


def gp(obs, theta, psi) -> float:
    """Composite-kernel GP on the grid held in the covariate row."""
    t, p = param_values(theta)[0], param_values(psi)[0]
    x = obs.covariates[0]
    sq = (x[:, None] - x[None, :]) ** 2
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
    z = np.linalg.solve(chol, np.asarray(obs.outcomes[0], dtype=float))
    return float(-0.5 * (z @ z) - np.log(np.diag(chol)).sum() - 0.5 * m * LOG_2PI)


def discrete_toy(table, obs, theta, psi) -> float:
    a = int(round(param_values(theta)[0]))
    b = int(round(param_values(psi)[0]))
    with np.errstate(divide="ignore"):
        return float(np.log(table[a, b, int(obs.outcomes[0])]))


def _weighted(w, lls):
    """w * lls, where a zero weight gives exactly 0 even against -inf."""
    with np.errstate(invalid="ignore"):
        return np.where(w == 0.0, 0.0, w * lls)


def r_weighted_likelihood(model, data, theta, psi_target, weights) -> float:
    """Log of the relevance-weighted likelihood at one (theta, psi_target):
    every observation evaluated at psi_target, its log-likelihood scaled by
    its weight, a zero weight removing the term even where it is -inf."""
    w = _check_weights(weights, (data.n,))
    lls = loglik_tensor(model, data, param_values(theta)[None, :],
                        param_values(psi_target)[None, :])[:, 0, 0]
    return float(_weighted(w, lls).sum())


def sigmoid_ratio_weights(null_lls) -> np.ndarray:
    """sigmoid(n * p_i / prod_j p_j) for every column of null_lls, shape (n, B)."""
    denom = null_lls.sum(axis=0)
    if np.any(np.isneginf(denom)):
        raise DegenerateRelevanceError("pooled likelihood at the null shared parameter is zero")
    with np.errstate(over="ignore"):
        return expit(np.exp(np.log(null_lls.shape[0]) + null_lls - denom[None, :]))


def metropolis_log_target(model, data, proxy, prior_log_density, groups=None):
    """The Metropolis log-target at one stacked (theta, psi) state, as a
    function: fixed effects given groups, else sigmoid-ratio weighted."""
    k_theta = model.k_theta
    if groups is not None:
        obs_group = np.empty(data.n, dtype=int)
        for gi, g in enumerate(groups):
            obs_group[g] = gi
    thetas = np.zeros((2, k_theta))

    def log_target(vec: np.ndarray) -> float:
        theta, psi = vec[:k_theta], vec[k_theta:]
        lp = prior_log_density(theta, psi)
        if not np.isfinite(lp):
            return -np.inf
        if groups is not None:
            rows = psi.reshape(len(groups), model.k_psi)[obs_group][:, None, :]
            return lp + float(loglik_tensor(model, data, theta[None, :], rows).sum())
        thetas[0] = theta
        both = loglik_tensor(model, data, thetas, psi[None, :])[:, :, 0]   # (n, 2)
        w = sigmoid_ratio_weights(both[:, 1:])[:, 0]
        lls = both[:, 0]
        ll = float(_weighted(_check_weights(w, (data.n,)), lls).sum())
        if proxy is not None:
            ll += float(proxy_loglik_vector(proxy, psi[None, :])[0])
        return lp + ll

    return log_target


def prior_expected_matrix(tensor, log_pred_mode, theta_belief) -> np.ndarray:
    """Weights for all (psi node, observation) pairs at once, shape (B, n).

    tensor is the (n, A, B) log-likelihood block and log_pred_mode the
    (n, B) normalizer block; the belief is a mass vector over theta nodes.
    """
    with np.errstate(divide="ignore"):
        log_belief = np.log(theta_belief)
        log_w = logsumexp(tensor + log_belief[None, :, None], axis=1) - log_pred_mode
    return np.exp(log_w).T


def refine_prior_expected(problem, proxy, refinement_iterations):
    """(weights, belief, posterior) of refine_relevance with prior-expected
    weights, each round's belief average taken by prior_expected_matrix."""
    grid = problem.grid

    def evaluate(belief):
        log_mode = _predictive_mode_matrix(problem.model, problem.data, grid.theta_nodes,
                                           grid.psi_nodes, belief)
        return _clip_unit(prior_expected_matrix(problem.tensor, log_mode, belief), "oracle")

    belief = grid.theta_prior_mass
    for _ in range(refinement_iterations):
        belief = r_weighted_posterior(problem, evaluate(belief),
                                      proxy_loglik_vector(proxy, grid.psi_nodes)).theta_marginal()
    weights = evaluate(belief)
    return weights, belief, r_weighted_posterior(problem, weights,
                                                 proxy_loglik_vector(proxy, grid.psi_nodes))


def _alphabet(model) -> SourceData:
    return SourceData(np.empty((len(model.outcome_space), 0)), model.outcome_space)


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
        data = SourceData(np.empty((len(d), 0)), [model.outcome_space[o] for o in d])
        out.append((np.array(d), data, pd, float(lpd)))
    return out


def _log_ratio(grid, table, a_star) -> float:
    with np.errstate(divide="ignore"):
        return float(np.log(table.theta_marginal()[a_star]) - grid.log_theta_prior()[a_star])


def info_gain_classic(model, true_process, grid, source_psi_prior) -> float:
    """Sum over datasets of P*(d) times the classic posterior's log ratio at theta*."""
    a_star, _ = grid.nearest_theta(param_values(true_process.theta_star))
    return sum(pd * _log_ratio(grid, classic_posterior(GridProblem(model, data, grid),
                                                       source_psi_prior), a_star)
               for _, data, pd, _ in _datasets(model, true_process))


def info_gain_rweighted(model, true_process, grid, proxy_table, weight_table=None,
                        proxy_expectation="subjective") -> float:
    """Sum over payloads and datasets of the r-weighted posterior's log ratio at theta*.

    Row z of proxy_table is log p(z | psi_b); the "true" expectation reads
    its column at the psi node equal to psi_target_star."""
    a_star, _ = grid.nearest_theta(param_values(true_process.theta_star))
    target = param_values(true_process.psi_target_star)
    value = 0.0
    for z_ll in np.asarray(proxy_table, dtype=float):
        if proxy_expectation == "subjective":
            z_mass = np.exp(logsumexp(z_ll + grid.log_psi_prior()))
        else:
            (b_target,) = [b for b, node in enumerate(grid.psi_nodes)
                           if np.array_equal(node, target)]
            z_mass = np.exp(z_ll[b_target])
        if z_mass == 0.0:
            continue
        for d, data, pd, _ in _datasets(model, true_process):
            problem = GridProblem(model, data, grid)
            if weight_table is None:
                w = refine_relevance(problem, z_ll).weights_per_psi
            else:
                w = np.array([[weight_table[b][i][o] for i, o in enumerate(d)]
                              for b in range(grid.n_psi)])
            post = r_weighted_posterior(problem, w, z_ll)
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
        weighted = _weighted(weights_per_psi[b][:, None], logpmf[b][None, :])  # (n, O)
        cross = _weighted(star, weighted).sum()
        log_z = logsumexp(weighted, axis=1).sum()
        unnorm += qb * (-star_entropy - cross)
        norm += qb * (-star_entropy - cross + log_z)
    return float(norm), float(unnorm)


def check_prop55(model, true_process, grid, weight_table) -> dict:
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
            w = np.array([weight_table[b][i][o] for i, o in enumerate(d)], dtype=float)
            lls = logpmf[b][d]
            d_acc += pd * (lpd - _weighted(w, lls).sum())
            e_acc += pd * w.sum() * (-lls.sum())
            r_acc += pd * np.mean((w - w.mean()) * (lls - lls.mean()))
        delta += qb * d_acc
        ess_dis += qb * e_acc
        rho += qb * r_acc
    return {"residual": delta - (ess_dis / n - n * rho - h_true),
            "delta_unnormalized": delta, "ess_dis_expectation": ess_dis,
            "rho_fidelity": rho, "entropy_true": h_true}
