"""Information-theoretic diagnostics, exact at desk scale.

Everything the theory promises is computed here so it can be checked
numerically: information gains of the classic and the relevance-weighted
learners, the two misspecification divergences, relevance fidelity, the
effective-sample-size decomposition, and the negative-transfer bound.

On the discrete toy model every expectation is a finite sum and is
enumerated exactly.  Continuous models get Monte-Carlo estimates with
standard errors attached.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import ParameterGrid
from .inference import (ProxyObservation, _check_weights, _weighted_terms,
                        classic_posterior, proxy_loglik_vector, r_weighted_posterior)
from .models import ModelSpec, Observation, SharedParam, SourceData, TaskParam, \
    loglik_tensor, logsumexp, param_values
from .relevance import RelevanceConfig, constant_one_weights, refine_relevance


# ---------------------------------------------------------------------------
# entropy and divergence utilities
# ---------------------------------------------------------------------------

def entropy(p) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


def cross_entropy(p, q) -> float:
    """-sum p log q; +inf when q vanishes where p does not."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] == 0):
        warnings.warn("cross_entropy: q has zero mass where p > 0", RuntimeWarning)
        return float("inf")
    return float(-(p[mask] * np.log(q[mask])).sum())


def kl_divergence(p, q) -> float:
    """KL(p || q) for mass vectors, with the 0 log(0/q) = 0 convention.

    Violations of absolute continuity return +inf and emit a warning rather
    than raising, since a diverging KL is a legitimate diagnostic outcome.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    mask = p > 0
    if np.any(q[mask] == 0):
        warnings.warn("kl_divergence: absolute continuity violated", RuntimeWarning)
        return float("inf")
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrueProcess:
    """The data-generating truth: theta*, per-source psi*_i, and the target's psi*."""

    theta_star: SharedParam
    psi_star: tuple
    psi_target_star: TaskParam

    def __post_init__(self):
        ps = tuple(self.psi_star)
        if len(ps) == 0:
            raise ValueError("psi_star must list one task parameter per source observation")
        object.__setattr__(self, "psi_star", ps)

    @property
    def n(self) -> int:
        return len(self.psi_star)


@dataclass(frozen=True)
class IgEstimate:
    """An information-gain value with its Monte-Carlo standard error.

    standard_error is 0 for exact enumeration.  theta_snap_distance is how
    far theta* sat from the grid node it was snapped to.
    """

    value: float
    standard_error: float
    theta_snap_distance: float


@dataclass(frozen=True)
class DeltaRweighted:
    """Both readings of the r-weighted misspecification divergence.

    normalized treats the weighted likelihood as a per-observation
    renormalized density, making the value a true KL (nonnegative).
    unnormalized plugs the raw weighted likelihood into the expectation,
    which is the form the decomposition identity manipulates; it can go
    negative.  value aliases the normalized reading.
    """

    normalized: float
    unnormalized: float

    @property
    def value(self) -> float:
        return self.normalized


@dataclass(frozen=True)
class Prop55Check:
    """Exact decomposition of the unnormalized r-weighted divergence.

    The identity checked is

        delta_unnormalized = E[ESS * DIS] / n  -  n * rho  -  H(P*)

    where ESS is the summed weight, DIS the negative pseudo-intervened
    log-likelihood of the whole dataset, rho the expected covariance between
    weights and per-observation log-likelihoods, and H(P*) the entropy of
    the true data distribution.  The 1/n on the first term is forced by the
    covariance identity: sum_i R_i l_i = n * cov + (sum R)(sum l) / n.
    residual is the left side minus the right side.
    """

    residual: float
    delta_unnormalized: float
    ess_dis_expectation: float
    rho_fidelity: float
    entropy_true: float


@dataclass(frozen=True)
class Theorem24Check:
    """Negative-transfer bound for the classic learner.

    info_gain <= prior_mass_excluded * (kl_excluded_mixture - delta_classic)
    up to a 1e-12 slack.  degenerate flags the case where the prior puts all
    mass on theta* (excluded mass 0, bound trivial).
    """

    info_gain: float
    prior_mass_excluded: float
    kl_excluded_mixture: float
    delta_classic: float
    satisfied: bool
    degenerate: bool


@dataclass(frozen=True)
class DiagnosticsReport:
    ig_classic: float
    ig_rweighted: float
    delta_classic: float
    delta_rweighted: float
    rho_fidelity: float
    ess_dis_expectation: float
    entropy_true: float
    decomposition_residual: float
    bound_classic: Theorem24Check

    def __post_init__(self):
        for name in ("delta_classic", "delta_rweighted"):
            v = getattr(self, name)
            if v < -1e-9:
                raise ValueError(f"{name} must be nonnegative, got {v}")
            if v < 0:
                object.__setattr__(self, name, 0.0)


@dataclass(frozen=True)
class ProxyModel:
    """A proxy generator the diagnostics can integrate over.

    log_likelihood(payload, psi_nodes) is the learner's model, returning a
    (B,) array for psi_nodes of shape (B, k_psi); simulate(psi, rng) draws
    one payload; payloads lists the full alphabet when it is finite,
    enabling exact expectation over z.
    """

    log_likelihood: Callable
    simulate: Callable
    payloads: Optional[tuple] = None

    def observation(self, payload) -> ProxyObservation:
        return ProxyObservation(payload=payload, proxy_log_likelihood=self.log_likelihood)


# ---------------------------------------------------------------------------
# enumeration plumbing for the discrete toy model
# ---------------------------------------------------------------------------

def _require_enumerable(model: ModelSpec):
    if model.outcome_space is None:
        raise ValueError(
            f"model {model.name!r} has no enumerable outcome alphabet; "
            "exact enumeration needs the discrete toy model"
        )


def _outcome_data(model: ModelSpec) -> SourceData:
    return SourceData(tuple(Observation(np.empty(0), int(o)) for o in model.outcome_space))


def _outcome_logpmf(model: ModelSpec, thetas: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """log p(o | theta_a, psi_b) for the whole alphabet, shape (|O|, A, B)."""
    return loglik_tensor(model, _outcome_data(model), thetas, psis)


def _star_logpmf(model: ModelSpec, true_process: TrueProcess) -> np.ndarray:
    """log p(o | theta*, psi*_i), shape (n, |O|)."""
    theta = param_values(true_process.theta_star)[None, :]
    psis = np.stack([param_values(p) for p in true_process.psi_star])
    return _outcome_logpmf(model, theta, psis)[:, 0, :].T


def _all_datasets(model: ModelSpec, n: int) -> np.ndarray:
    """Every outcome tuple of length n as an (M, n) index array."""
    outcomes = np.asarray(model.outcome_space)
    return np.array(list(itertools.product(range(outcomes.size), repeat=n)), dtype=int)


def _dataset_logprobs(star: np.ndarray, datasets: np.ndarray) -> np.ndarray:
    """log P*(d) for each enumerated dataset, shape (M,)."""
    n = star.shape[0]
    return star[np.arange(n)[None, :], datasets].sum(axis=1)


def _as_source(model: ModelSpec, dataset: np.ndarray) -> SourceData:
    outcomes = model.outcome_space
    return SourceData(tuple(Observation(np.empty(0), int(outcomes[o])) for o in dataset))


def _snap_theta(grid: ParameterGrid, theta_star: SharedParam) -> tuple[int, float]:
    value = param_values(theta_star)
    lo = grid.theta_nodes.min(axis=0)
    hi = grid.theta_nodes.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    if np.any(value < lo - 0.5 * span / max(grid.n_theta - 1, 1)) or \
       np.any(value > hi + 0.5 * span / max(grid.n_theta - 1, 1)):
        raise ValueError(f"theta*={value} lies outside the grid span [{lo}, {hi}]")
    return grid.nearest_theta(value)


def _classic_theta_loglik(model: ModelSpec, grid: ParameterGrid, source_psi_prior,
                          datasets: np.ndarray) -> np.ndarray:
    """Classic marginalized log-likelihood of theta per dataset, shape (A, M)."""
    logpmf = _outcome_logpmf(model, grid.theta_nodes, grid.psi_nodes)   # (O, A, B)
    with np.errstate(divide="ignore"):
        log_prior = np.log(np.asarray(source_psi_prior, dtype=float))
    mix = logsumexp(logpmf + log_prior[None, None, :], axis=2)          # (O, A)
    return mix[datasets, :].sum(axis=1).T                               # (A, M)


# ---------------------------------------------------------------------------
# information gains
# ---------------------------------------------------------------------------

def info_gain_classic(model: ModelSpec, true_process: TrueProcess, grid: ParameterGrid,
                      source_psi_prior, n_outer: int = 0, seed: Optional[int] = None,
                      data_template: Optional[SourceData] = None) -> IgEstimate:
    """Expected log posterior-to-prior ratio at theta* for the classic learner.

    Enumerated exactly for models with a finite outcome alphabet; otherwise
    estimated over n_outer datasets simulated from the true process using
    data_template's covariate layout.
    """
    a_star, snap = _snap_theta(grid, true_process.theta_star)
    log_prior_at_star = float(grid.log_theta_prior()[a_star])

    if model.outcome_space is not None:
        datasets = _all_datasets(model, true_process.n)
        star = _star_logpmf(model, true_process)
        log_pstar = _dataset_logprobs(star, datasets)
        loglik = _classic_theta_loglik(model, grid, source_psi_prior, datasets)  # (A, M)
        log_post = loglik + grid.log_theta_prior()[:, None]
        ratios = log_post[a_star] - logsumexp(log_post, axis=0) - log_prior_at_star
        value = float(np.exp(log_pstar) @ ratios)
        return IgEstimate(value=value, standard_error=0.0, theta_snap_distance=snap)

    if n_outer < 1 or data_template is None:
        raise ValueError("continuous models need n_outer >= 1 and a data_template")
    rng = np.random.default_rng(seed)
    vals = np.empty(n_outer)
    for k in range(n_outer):
        data = _simulate_from_truth(model, true_process, data_template, rng)
        post = classic_posterior(model, data, grid, source_psi_prior)
        with np.errstate(divide="ignore"):
            vals[k] = np.log(post.theta_marginal()[a_star]) - log_prior_at_star
    se = float(vals.std(ddof=1) / np.sqrt(n_outer)) if n_outer > 1 else float("nan")
    return IgEstimate(value=float(vals.mean()), standard_error=se, theta_snap_distance=snap)


def _simulate_from_truth(model: ModelSpec, true_process: TrueProcess,
                         template: SourceData, rng) -> SourceData:
    if template.n != true_process.n:
        raise ValueError("data_template length must match the number of source tasks")
    obs = []
    for o, psi in zip(template, true_process.psi_star):
        kwargs = {} if o.trial_count is None else {"trial_count": o.trial_count}
        obs.append(model.simulate(o.covariates, true_process.theta_star, psi, rng, **kwargs))
    return SourceData(tuple(obs))


def _weights_for(model, data, grid, proxy, relevance_config, weights_provider):
    if weights_provider is not None:
        return np.asarray(weights_provider(data, proxy), dtype=float)
    result = refine_relevance(model, data, grid, proxy, relevance_config)
    return result.weights_per_psi


def info_gain_rweighted(model: ModelSpec, true_process: TrueProcess, grid: ParameterGrid,
                        relevance_config: RelevanceConfig, proxy_model: ProxyModel,
                        n_outer: int = 0, seed: Optional[int] = None,
                        data_template: Optional[SourceData] = None,
                        weights_provider=None,
                        proxy_expectation: str = "subjective") -> IgEstimate:
    """Expected log posterior-to-prior ratio at theta* for the weighted learner.

    The proxy z is integrated over the learner's own predictive distribution
    of z (psi drawn from the grid prior) by default; proxy_expectation="true"
    conditions on the true target task parameter instead, which is the
    variant the experiment sweeps report.  weights_provider, when given,
    maps (data, proxy_observation) to a (n_psi, n) weight matrix and
    bypasses the relevance configuration.
    """
    if proxy_expectation not in ("subjective", "true"):
        raise ValueError(f"unknown proxy_expectation {proxy_expectation!r}")
    a_star, snap = _snap_theta(grid, true_process.theta_star)
    log_prior_at_star = float(grid.log_theta_prior()[a_star])

    if model.outcome_space is not None and proxy_model.payloads is not None:
        datasets = _all_datasets(model, true_process.n)
        star = _star_logpmf(model, true_process)
        pstar = np.exp(_dataset_logprobs(star, datasets))
        if proxy_expectation == "subjective":
            z_ll = np.stack([proxy_loglik_vector(proxy_model.observation(z), grid.psi_nodes)
                             for z in proxy_model.payloads])                # (Z, B)
            z_mass = np.exp(logsumexp(z_ll + grid.log_psi_prior()[None, :], axis=1))
        else:
            target = param_values(true_process.psi_target_star)[None, :]
            z_mass = np.exp([proxy_loglik_vector(proxy_model.observation(z), target)[0]
                             for z in proxy_model.payloads])
        value = 0.0
        for zi, z in enumerate(proxy_model.payloads):
            if z_mass[zi] == 0.0:
                continue
            proxy_obs = proxy_model.observation(z)
            for d, pd in zip(datasets, pstar):
                if pd == 0.0:
                    continue
                data = _as_source(model, d)
                w = _weights_for(model, data, grid, proxy_obs, relevance_config,
                                 weights_provider)
                post = r_weighted_posterior(model, data, grid, w, proxy_obs)
                with np.errstate(divide="ignore"):
                    ratio = float(np.log(post.theta_marginal()[a_star])) - log_prior_at_star
                value += z_mass[zi] * pd * ratio
        return IgEstimate(value=value, standard_error=0.0, theta_snap_distance=snap)

    if n_outer < 1 or data_template is None:
        raise ValueError("continuous models need n_outer >= 1 and a data_template")
    rng = np.random.default_rng(seed)
    vals = np.empty(n_outer)
    for k in range(n_outer):
        data = _simulate_from_truth(model, true_process, data_template, rng)
        if proxy_expectation == "subjective":
            b = rng.choice(grid.n_psi, p=grid.psi_prior_mass)
            psi_for_z = grid.psi_nodes[b]
        else:
            psi_for_z = param_values(true_process.psi_target_star)
        proxy_obs = proxy_model.observation(proxy_model.simulate(psi_for_z, rng))
        w = _weights_for(model, data, grid, proxy_obs, relevance_config, weights_provider)
        post = r_weighted_posterior(model, data, grid, w, proxy_obs)
        with np.errstate(divide="ignore"):
            vals[k] = np.log(post.theta_marginal()[a_star]) - log_prior_at_star
    se = float(vals.std(ddof=1) / np.sqrt(n_outer)) if n_outer > 1 else float("nan")
    return IgEstimate(value=float(vals.mean()), standard_error=se, theta_snap_distance=snap)


# ---------------------------------------------------------------------------
# misspecification divergences
# ---------------------------------------------------------------------------

def delta_classic(model: ModelSpec, true_process: TrueProcess, grid: ParameterGrid,
                  source_psi_prior) -> float:
    """KL from the true data distribution to the classic likelihood at theta*.

    Both sides factor over observations (the classic likelihood marginalizes
    each observation's task parameter independently), so the divergence is a
    sum of per-observation KLs.
    """
    _require_enumerable(model)
    theta = param_values(true_process.theta_star)[None, :]
    logpmf = _outcome_logpmf(model, theta, grid.psi_nodes)[:, 0, :]      # (O, B)
    with np.errstate(divide="ignore"):
        log_prior = np.log(np.asarray(source_psi_prior, dtype=float))
    mix = np.exp(logsumexp(logpmf + log_prior[None, :], axis=1))         # (O,)
    star = np.exp(_star_logpmf(model, true_process))                     # (n, O)
    return float(sum(kl_divergence(row, mix) for row in star))


def delta_rweighted(model: ModelSpec, true_process: TrueProcess, grid: ParameterGrid,
                    weights_per_psi) -> DeltaRweighted:
    """Expected divergence from truth to the pseudo-intervened weighted density.

    The expectation is over the target task prior on the grid.  Both the
    per-instance-normalized reading (a true KL) and the unnormalized reading
    (the decomposition's object) are returned; see DeltaRweighted.
    """
    _require_enumerable(model)
    w = _check_weights(weights_per_psi, (grid.n_psi, true_process.n))
    theta = param_values(true_process.theta_star)[None, :]
    logpmf = _outcome_logpmf(model, theta, grid.psi_nodes)[:, 0, :].T    # (B, O)
    star = np.exp(_star_logpmf(model, true_process))                     # (n, O)
    star_entropy = sum(entropy(row) for row in star)

    unnorm = np.zeros(grid.n_psi)
    norm = np.zeros(grid.n_psi)
    for b in range(grid.n_psi):
        lp = logpmf[b]                                                   # (O,)
        weighted = _weighted_terms(w[b][:, None], lp[None, :])            # (n, O)
        cross = (star * weighted).sum()
        log_z = logsumexp(weighted, axis=1)                              # per-observation
        unnorm[b] = -star_entropy - cross
        norm[b] = -star_entropy - cross + log_z.sum()
    q = grid.psi_prior_mass
    return DeltaRweighted(normalized=float(q @ norm), unnormalized=float(q @ unnorm))


# ---------------------------------------------------------------------------
# fidelity, effective sample size, dissimilarity
# ---------------------------------------------------------------------------

def _cov_terms(weights: np.ndarray, lls: np.ndarray) -> float:
    return float(np.mean((weights - weights.mean()) * (lls - lls.mean())))


def rho_fidelity(model: ModelSpec, true_process: TrueProcess, grid: ParameterGrid,
                 weights_provider) -> float:
    """Expected covariance between weights and pseudo-intervened log-likelihoods.

    weights_provider(data, psi_node_index, psi_value) -> (n,) weight vector.
    Enumerated exactly over the toy's finite outcome and target-parameter
    alphabets; this is the rho term of check_prop55.
    """
    if true_process.n < 2:
        raise ValueError("fidelity needs n >= 2 source observations")
    return check_prop55(model, true_process, grid, weights_provider).rho_fidelity


def ess_dis(model: ModelSpec, data: SourceData, true_process: TrueProcess,
            psi_target, weights) -> tuple[float, float]:
    """Effective sample size (summed weights) and dissimilarity of the data.

    dis is the negative log-likelihood of the whole dataset under theta*
    with every task parameter forced to psi_target.
    """
    w = _check_weights(weights, (data.n,))
    theta = param_values(true_process.theta_star)[None, :]
    psi = param_values(psi_target)[None, :]
    lls = loglik_tensor(model, data, theta, psi)[:, 0, 0]
    return float(w.sum()), float(-lls.sum())


# ---------------------------------------------------------------------------
# theorem-level checks
# ---------------------------------------------------------------------------

def check_prop55(model: ModelSpec, true_process: TrueProcess, grid: ParameterGrid,
                 weights_provider) -> Prop55Check:
    """Verify the effective-sample-size decomposition by exact enumeration.

    See Prop55Check for the identity and for why the E[ESS * DIS] term
    carries a 1/n.  weights_provider(data, psi_node_index, psi_value) may
    depend on the realized data; the identity holds regardless.
    """
    _require_enumerable(model)
    n = true_process.n
    datasets = _all_datasets(model, n)
    star = _star_logpmf(model, true_process)
    log_pstar = _dataset_logprobs(star, datasets)
    pstar = np.exp(log_pstar)
    h_true = float(-(pstar * log_pstar).sum())
    theta = param_values(true_process.theta_star)[None, :]
    logpmf = _outcome_logpmf(model, theta, grid.psi_nodes)[:, 0, :].T    # (B, O)

    delta_unnorm = 0.0
    ess_dis_exp = 0.0
    rho = 0.0
    for b in range(grid.n_psi):
        qb = grid.psi_prior_mass[b]
        if qb == 0.0:
            continue
        lp = logpmf[b]
        d_acc = e_acc = r_acc = 0.0
        for d, pd, lpd in zip(datasets, pstar, log_pstar):
            if pd == 0.0:
                continue
            data = _as_source(model, d)
            w = np.asarray(weights_provider(data, b, grid.psi_nodes[b]), dtype=float)
            lls = lp[d]
            d_acc += pd * (lpd - _weighted_terms(w, lls).sum())
            e_acc += pd * w.sum() * (-lls.sum())
            r_acc += pd * _cov_terms(w, lls)
        delta_unnorm += qb * d_acc
        ess_dis_exp += qb * e_acc
        rho += qb * r_acc

    residual = delta_unnorm - (ess_dis_exp / n - n * rho - h_true)
    return Prop55Check(residual=float(residual), delta_unnormalized=float(delta_unnorm),
                       ess_dis_expectation=float(ess_dis_exp), rho_fidelity=float(rho),
                       entropy_true=h_true)


def check_theorem24(model: ModelSpec, true_process: TrueProcess, grid: ParameterGrid,
                    source_psi_prior) -> Theorem24Check:
    """Check the classic learner's negative-transfer bound by enumeration.

    The neighborhood around theta* is the single nearest grid node.  The
    excluded-mixture distribution renormalizes the prior over the remaining
    nodes; with every node excluded (prior mass 1 at theta*) the bound is
    degenerate and trivially satisfied.
    """
    _require_enumerable(model)
    a_star, _ = _snap_theta(grid, true_process.theta_star)
    p_star = float(grid.theta_prior_mass[a_star])
    a_excl = 1.0 - p_star
    ig = info_gain_classic(model, true_process, grid, source_psi_prior).value
    d_c = delta_classic(model, true_process, grid, source_psi_prior)

    if a_excl <= 0.0:
        return Theorem24Check(info_gain=ig, prior_mass_excluded=0.0,
                              kl_excluded_mixture=float("nan"), delta_classic=d_c,
                              satisfied=True, degenerate=True)

    datasets = _all_datasets(model, true_process.n)
    star = _star_logpmf(model, true_process)
    log_pstar = _dataset_logprobs(star, datasets)
    pstar = np.exp(log_pstar)
    loglik = _classic_theta_loglik(model, grid, source_psi_prior, datasets)  # (A, M)
    keep = np.arange(grid.n_theta) != a_star
    with np.errstate(divide="ignore"):
        log_w = np.log(grid.theta_prior_mass[keep] / a_excl)
    log_mix = logsumexp(loglik[keep] + log_w[:, None], axis=0)               # (M,)
    b_const = float((pstar * (log_pstar - log_mix)).sum())
    satisfied = ig <= a_excl * (b_const - d_c) + 1e-12
    return Theorem24Check(info_gain=ig, prior_mass_excluded=a_excl,
                          kl_excluded_mixture=b_const, delta_classic=d_c,
                          satisfied=bool(satisfied), degenerate=False)


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------

def toy_diagnostics_report(model: ModelSpec, true_process: TrueProcess,
                           grid: ParameterGrid, source_psi_prior,
                           proxy_model: ProxyModel, weights_provider) -> DiagnosticsReport:
    """Every diagnostic on one toy instance, enumerated exactly.

    The weighted information gain uses constant-one relevance so it stays
    comparable across instances; the decomposition check runs under the
    supplied weights provider.
    """
    ig_c = info_gain_classic(model, true_process, grid, source_psi_prior)
    ig_r = info_gain_rweighted(
        model, true_process, grid, RelevanceConfig(kind="constant-one"), proxy_model,
        weights_provider=lambda data, proxy: constant_one_weights(grid.n_psi, data.n),
    )
    prop = check_prop55(model, true_process, grid, weights_provider)
    bound = check_theorem24(model, true_process, grid, source_psi_prior)

    first = _as_source(model, _all_datasets(model, true_process.n)[0])
    w_first = np.stack([
        np.asarray(weights_provider(first, b, grid.psi_nodes[b]), dtype=float)
        for b in range(grid.n_psi)
    ])
    d_r = delta_rweighted(model, true_process, grid, w_first)

    return DiagnosticsReport(
        ig_classic=ig_c.value,
        ig_rweighted=ig_r.value,
        delta_classic=bound.delta_classic,
        delta_rweighted=d_r.value,
        rho_fidelity=prop.rho_fidelity,
        ess_dis_expectation=prop.ess_dis_expectation,
        entropy_true=prop.entropy_true,
        decomposition_residual=prop.residual,
        bound_classic=bound,
    )
