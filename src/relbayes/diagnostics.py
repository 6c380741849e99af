"""Information-theoretic diagnostics, exact at desk scale.

Everything the theory promises is computed here so it can be checked
numerically: information gains of the classic and the relevance-weighted
learners, the two misspecification divergences, relevance fidelity, the
effective-sample-size decomposition, and the negative-transfer bound.

Every expectation is a finite sum over the datasets of an enumerable
outcome alphabet (the discrete toy model) and is enumerated exactly: the
(M, n) array of every dataset's outcome indices gathers the per-outcome
log-likelihood table once, and each expectation is one reduction weighted
by the true dataset probabilities P*(d).  A dataset with P*(d) = 0 adds
exactly 0, the 0 log 0 = 0 rule.  Models without an enumerable alphabet are
rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import ParameterGrid
from .inference import (DegenerateProxyError, GridProblem, ProxyObservation,
                        _check_weights, _weighted_terms, proxy_loglik_vector)
from .models import ModelSpec, Observation, SharedParam, SourceData, TaskParam, \
    loglik_tensor, logsumexp, param_values
from .relevance import RelevanceConfig, refine_relevance


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
    """An exactly enumerated information-gain value.

    theta_snap_distance is how far theta* sat from the grid node it was
    snapped to.
    """

    value: float
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
    """A proxy generator the diagnostics integrate over exactly.

    log_likelihood(payload, psi_nodes) is the learner's model, returning a
    (B,) array for psi_nodes of shape (B, k_psi); payloads lists the finite
    alphabet of z that the expectation sums over.
    """

    log_likelihood: Callable
    payloads: tuple

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
    """Every outcome tuple of length n as an (M, n) index array, in
    lexicographic order (the last observation varies fastest)."""
    return np.indices((np.size(model.outcome_space),) * n).reshape(n, -1).T


def _dataset_logprobs(star: np.ndarray, datasets: np.ndarray) -> np.ndarray:
    """log P*(d) for each enumerated dataset, shape (M,)."""
    n = star.shape[0]
    return star[np.arange(n)[None, :], datasets].sum(axis=1)


def _expect(mass: np.ndarray, values: np.ndarray) -> np.ndarray:
    """mass @ values over the leading axis, where a zero mass adds exactly 0
    even if its value is infinite or NaN (the 0 log 0 = 0 rule)."""
    live = mass > 0.0
    return mass[live] @ values[live]


def _provider_weights(weights_provider, datasets: np.ndarray, n_psi: int) -> np.ndarray:
    """The provider's weights for every dataset, checked to shape (M, n_psi, n)."""
    m, n = datasets.shape
    return _check_weights(weights_provider(datasets), (m, n_psi, n))


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
                      source_psi_prior) -> IgEstimate:
    """Expected log posterior-to-prior ratio at theta* for the classic learner,
    enumerated exactly over every dataset."""
    _require_enumerable(model)
    a_star, snap = _snap_theta(grid, true_process.theta_star)
    datasets = _all_datasets(model, true_process.n)
    log_pstar = _dataset_logprobs(_star_logpmf(model, true_process), datasets)
    loglik = _classic_theta_loglik(model, grid, source_psi_prior, datasets)  # (A, M)
    log_post = loglik + grid.log_theta_prior()[:, None]
    with np.errstate(invalid="ignore"):                                   # only where P*(d) = 0
        ratios = log_post[a_star] - logsumexp(log_post, axis=0) - grid.log_theta_prior()[a_star]
    return IgEstimate(value=float(_expect(np.exp(log_pstar), ratios)),
                      theta_snap_distance=snap)


def info_gain_rweighted(model: ModelSpec, true_process: TrueProcess, grid: ParameterGrid,
                        relevance_config: RelevanceConfig, proxy_model: ProxyModel,
                        weights_provider=None,
                        proxy_expectation: str = "subjective") -> IgEstimate:
    """Expected log posterior-to-prior ratio at theta* for the weighted learner.

    The expectation runs over every payload z and every dataset.  z is
    integrated over the learner's own predictive distribution of z (psi
    drawn from the grid prior) by default; proxy_expectation="true"
    conditions on the true target task parameter instead, which is the
    variant the experiment sweeps report.  weights_provider, when given,
    maps the (M, n) dataset-index array to (M, n_psi, n) weights and
    bypasses the relevance configuration; without one, refine_relevance
    runs once per (payload, dataset) pair of positive probability.
    """
    if proxy_expectation not in ("subjective", "true"):
        raise ValueError(f"unknown proxy_expectation {proxy_expectation!r}")
    _require_enumerable(model)
    a_star, snap = _snap_theta(grid, true_process.theta_star)
    datasets = _all_datasets(model, true_process.n)
    pstar = np.exp(_dataset_logprobs(_star_logpmf(model, true_process), datasets))
    z_ll = np.stack([proxy_loglik_vector(proxy_model.observation(z), grid.psi_nodes)
                     for z in proxy_model.payloads])                        # (Z, B)
    if proxy_expectation == "subjective":
        z_mass = np.exp(logsumexp(z_ll + grid.log_psi_prior()[None, :], axis=1))
    else:
        target = param_values(true_process.psi_target_star)[None, :]
        z_mass = np.exp([proxy_loglik_vector(proxy_model.observation(z), target)[0]
                         for z in proxy_model.payloads])
    live = (z_mass[:, None] > 0.0) & (pstar[None, :] > 0.0)                # (Z, M)

    if weights_provider is not None:
        weights = _provider_weights(weights_provider, datasets, grid.n_psi)[None]
    else:
        weights = np.zeros(live.shape + (grid.n_psi, true_process.n))     # (Z, M, B, n)
        for zi, m in zip(*np.nonzero(live)):
            data = SourceData(tuple(Observation(np.empty(0), int(model.outcome_space[o]))
                                    for o in datasets[m]))
            proxy = proxy_model.observation(proxy_model.payloads[zi])
            weights[zi, m] = refine_relevance(GridProblem(model, data, grid), proxy,
                                              relevance_config).weights_per_psi

    lls = _outcome_logpmf(model, grid.theta_nodes, grid.psi_nodes)[datasets]  # (M, n, A, B)
    weighted = _weighted_terms(np.swapaxes(weights, 2, 3)[..., None, :], lls).sum(axis=2)
    log_joint = (weighted + z_ll[:, None, None, :] + grid.log_theta_prior()[:, None]
                 + grid.log_psi_prior()[None, :])                           # (Z, M, A, B)
    log_theta = logsumexp(log_joint, axis=3)                                # (Z, M, A)
    log_evidence = logsumexp(log_theta, axis=2)                             # (Z, M)
    if not np.isfinite(log_evidence[live]).all():
        raise DegenerateProxyError("posterior mass is identically zero on the grid")
    with np.errstate(invalid="ignore"):                                   # only where not live
        ratios = log_theta[..., a_star] - log_evidence - grid.log_theta_prior()[a_star]
    value = _expect(z_mass, _expect(pstar, ratios.T))
    return IgEstimate(value=float(value), theta_snap_distance=snap)


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

    weighted = _weighted_terms(w[:, :, None], logpmf[:, None, :])        # (B, n, O)
    cross = _weighted_terms(star, weighted).sum(axis=(1, 2))             # (B,)
    log_z = logsumexp(weighted, axis=2).sum(axis=1)                      # per-observation
    unnorm = -star_entropy - cross
    q = grid.psi_prior_mass
    return DeltaRweighted(normalized=float(q @ (unnorm + log_z)), unnormalized=float(q @ unnorm))


# ---------------------------------------------------------------------------
# fidelity, effective sample size, dissimilarity
# ---------------------------------------------------------------------------

def rho_fidelity(model: ModelSpec, true_process: TrueProcess, grid: ParameterGrid,
                 weights_provider) -> float:
    """Expected covariance between weights and pseudo-intervened log-likelihoods.

    weights_provider(datasets) maps the (M, n) dataset-index array to
    (M, n_psi, n) weights.  Enumerated exactly over the toy's finite outcome
    and target-parameter alphabets; this is the rho term of check_prop55.
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
    carries a 1/n.  weights_provider(datasets) maps the (M, n) dataset-index
    array to (M, n_psi, n) weights, so the weights may depend on the
    realized data; the identity holds regardless.
    """
    _require_enumerable(model)
    n = true_process.n
    datasets = _all_datasets(model, n)
    log_pstar = _dataset_logprobs(_star_logpmf(model, true_process), datasets)
    pstar = np.exp(log_pstar)
    h_true = -float(_expect(pstar, log_pstar))
    theta = param_values(true_process.theta_star)[None, :]
    logpmf = _outcome_logpmf(model, theta, grid.psi_nodes)[:, 0, :]      # (O, B)
    lls = np.swapaxes(logpmf[datasets], 1, 2)                            # (M, B, n)
    w = _provider_weights(weights_provider, datasets, grid.n_psi)        # (M, B, n)

    def expect(terms):                                                   # (M, B) -> float
        return float(_expect(grid.psi_prior_mass, _expect(pstar, terms)))

    with np.errstate(invalid="ignore"):                                   # only where P*(d) = 0
        delta_unnorm = expect(log_pstar[:, None] - _weighted_terms(w, lls).sum(axis=2))
        ess_dis_exp = expect(w.sum(axis=2) * -lls.sum(axis=2))
        rho = expect(((w - w.mean(axis=2, keepdims=True))
                      * (lls - lls.mean(axis=2, keepdims=True))).mean(axis=2))

    residual = delta_unnorm - (ess_dis_exp / n - n * rho - h_true)
    return Prop55Check(residual=float(residual), delta_unnormalized=delta_unnorm,
                       ess_dis_expectation=ess_dis_exp, rho_fidelity=rho,
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
    log_pstar = _dataset_logprobs(_star_logpmf(model, true_process), datasets)
    loglik = _classic_theta_loglik(model, grid, source_psi_prior, datasets)  # (A, M)
    keep = np.arange(grid.n_theta) != a_star
    with np.errstate(divide="ignore"):
        log_w = np.log(grid.theta_prior_mass[keep] / a_excl)
    log_mix = logsumexp(loglik[keep] + log_w[:, None], axis=0)               # (M,)
    with np.errstate(invalid="ignore"):                                   # only where P*(d) = 0
        b_const = float(_expect(np.exp(log_pstar), log_pstar - log_mix))
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
    supplied weights provider, and the weighted divergence under its
    weights for the first dataset.
    """
    n = true_process.n
    ig_r = info_gain_rweighted(
        model, true_process, grid, RelevanceConfig(kind="constant-one"), proxy_model,
        weights_provider=lambda datasets: np.ones((len(datasets), grid.n_psi, n)),
    )
    prop = check_prop55(model, true_process, grid, weights_provider)
    bound = check_theorem24(model, true_process, grid, source_psi_prior)
    first = np.zeros((1, n), dtype=int)                                  # every outcome index 0
    d_r = delta_rweighted(model, true_process, grid,
                          _provider_weights(weights_provider, first, grid.n_psi)[0])

    return DiagnosticsReport(
        ig_classic=bound.info_gain,
        ig_rweighted=ig_r.value,
        delta_classic=bound.delta_classic,
        delta_rweighted=d_r.value,
        rho_fidelity=prop.rho_fidelity,
        ess_dis_expectation=prop.ess_dis_expectation,
        entropy_true=prop.entropy_true,
        decomposition_residual=prop.residual,
        bound_classic=bound,
    )
