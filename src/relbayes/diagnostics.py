"""Information-theoretic diagnostics, exact at desk scale.

Everything the theory promises is computed here so it can be checked
numerically: information gains of the classic and the relevance-weighted
learners, the two misspecification divergences, relevance fidelity, the
effective-sample-size decomposition, and the negative-transfer bound.

Every expectation is a finite sum over the datasets of an enumerable
outcome alphabet (the discrete toy model) and is enumerated exactly.  One
ToyEnumeration record holds a toy instance's enumeration, built once: the
(M, n) array of every dataset's outcome indices, the true dataset
log-probabilities log P*(d), and the per-outcome log-likelihood tables.
Every diagnostic reads that record: the dataset array gathers a table, and
each expectation is one reduction weighted by P*(d).  A dataset with
P*(d) = 0 adds exactly 0, the 0 log 0 = 0 rule.  Models without an
enumerable alphabet are rejected when the record is built.
A proxy is its (Z, B) log-likelihood table over a finite payload alphabet,
and both learners' posteriors are formed with the grid engines' own code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import ParameterGrid
from .inference import (DegenerateProxyError, GridProblem, _check_proxy_ll,
                        _check_weights, _neginf_mask, _r_weighted_log_joint,
                        _source_mixture, _weighted_terms)
from .models import ModelSpec, Observation, SourceData, loglik_tensor, logsumexp, \
    param_values
from .relevance import refine_relevance


# ---------------------------------------------------------------------------
# entropy and divergence utilities
# ---------------------------------------------------------------------------

def entropy(p) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


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
    """The data-generating truth as float arrays: theta* (k_theta,), one
    psi*_i row per source observation (n, k_psi), and the target's psi*
    (k_psi,).  A scalar stands for a vector of length one, and a list of
    scalars for the (n, 1) psi_star."""

    theta_star: np.ndarray
    psi_star: np.ndarray
    psi_target_star: np.ndarray

    def __post_init__(self):
        psis = np.asarray(self.psi_star, dtype=float)
        if psis.ndim == 1:
            psis = psis[:, None]
        if psis.ndim != 2 or psis.shape[0] == 0:
            raise ValueError("psi_star must list one task parameter per source observation")
        theta, target = param_values(self.theta_star), param_values(self.psi_target_star)
        if theta.ndim != 1 or target.ndim != 1:
            raise ValueError("theta_star and psi_target_star must be scalars or 1-d vectors")
        for name, value in (("theta_star", theta), ("psi_star", psis),
                            ("psi_target_star", target)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.psi_star.shape[0]


@dataclass(frozen=True)
class DeltaRweighted:
    """Both readings of the r-weighted misspecification divergence.

    normalized treats the weighted likelihood as a per-observation
    renormalized density, making the value a true KL (nonnegative).
    unnormalized plugs the raw weighted likelihood into the expectation,
    which is the form the decomposition identity manipulates; it can go
    negative.
    """

    normalized: float
    unnormalized: float


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


# ---------------------------------------------------------------------------
# the enumeration record of one toy instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyEnumeration:
    """Every dataset of one toy instance with the outcome tables the
    diagnostics read, each built once at construction and read-only.

    theta* is snapped to its nearest grid node a_star, theta_snap_distance
    away; a theta* outside the grid span raises.  datasets is every outcome
    tuple of length n as an (M, n) index array in lexicographic order (the
    last observation varies fastest), and log_pstar its log P*(d), (M,).
    The three log-pmf tables are log p(o | theta_a, psi_b) over the full
    grid, table (|O|, A, B); log p(o | theta*, psi_b), at_theta_star
    (|O|, B); and log p(o | theta*, psi*_i), star (n, |O|).
    """

    model: ModelSpec
    true_process: TrueProcess
    grid: ParameterGrid
    a_star: int = field(init=False)
    theta_snap_distance: float = field(init=False)
    datasets: np.ndarray = field(init=False, repr=False)
    log_pstar: np.ndarray = field(init=False, repr=False)
    table: np.ndarray = field(init=False, repr=False)
    at_theta_star: np.ndarray = field(init=False, repr=False)
    star: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        model, truth, grid = self.model, self.true_process, self.grid
        if model.outcome_space is None:
            raise ValueError(
                f"model {model.name!r} has no enumerable outcome alphabet; "
                "exact enumeration needs the discrete toy model"
            )
        theta = truth.theta_star
        lo = grid.theta_nodes.min(axis=0)
        hi = grid.theta_nodes.max(axis=0)
        half_cell = 0.5 * np.where(hi > lo, hi - lo, 1.0) / max(grid.n_theta - 1, 1)
        if np.any(theta < lo - half_cell) or np.any(theta > hi + half_cell):
            raise ValueError(f"theta*={theta} lies outside the grid span [{lo}, {hi}]")
        a_star, snap = grid.nearest_theta(theta)

        outcomes = SourceData(tuple(Observation(np.empty(0), int(o))
                                    for o in model.outcome_space))
        n = truth.n
        star = loglik_tensor(model, outcomes, theta[None, :], truth.psi_star)[:, 0, :].T
        datasets = np.indices((outcomes.n,) * n).reshape(n, -1).T
        arrays = {
            "datasets": datasets,
            "log_pstar": star[np.arange(n)[None, :], datasets].sum(axis=1),
            "table": loglik_tensor(model, outcomes, grid.theta_nodes, grid.psi_nodes),
            "at_theta_star": loglik_tensor(model, outcomes, theta[None, :],
                                           grid.psi_nodes)[:, 0, :],
            "star": star,
        }
        object.__setattr__(self, "a_star", a_star)
        object.__setattr__(self, "theta_snap_distance", snap)
        for name, value in arrays.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def _expect(mass: np.ndarray, values: np.ndarray) -> np.ndarray:
    """mass @ values over the leading axis, where a zero mass adds exactly 0
    even if its value is infinite or NaN (the 0 log 0 = 0 rule)."""
    live = mass > 0.0
    return mass[live] @ values[live]


def _table_weights(record: ToyEnumeration, weight_table) -> np.ndarray:
    """Every dataset's (M, B, n) weights, gathered from the (B, n, |O|) weight
    table of check_prop55 after one check of the table."""
    n = record.datasets.shape[1]
    table = _check_weights(weight_table, (record.grid.n_psi, n, record.table.shape[0]))
    return table[:, np.arange(n), record.datasets].transpose(1, 0, 2)


def _classic_theta_loglik(record: ToyEnumeration, source_psi_prior) -> np.ndarray:
    """Classic marginalized log-likelihood of theta per dataset, shape (A, M)."""
    mix = _source_mixture(record.table, source_psi_prior)               # (O, A)
    return mix[record.datasets, :].sum(axis=1).T                        # (A, M)


# ---------------------------------------------------------------------------
# information gains
# ---------------------------------------------------------------------------

def info_gain_classic(record: ToyEnumeration, source_psi_prior, *, loglik=None) -> float:
    """Expected log posterior-to-prior ratio at theta* for the classic learner,
    enumerated exactly over every dataset.

    loglik is the (A, M) classic log-likelihood of theta per dataset under
    source_psi_prior, for a caller that has already formed it; by default
    it is formed here.
    """
    grid, a_star = record.grid, record.a_star
    if loglik is None:
        loglik = _classic_theta_loglik(record, source_psi_prior)         # (A, M)
    log_post = loglik + grid.log_theta_prior()[:, None]
    with np.errstate(invalid="ignore"):                                   # only where P*(d) = 0
        ratios = log_post[a_star] - logsumexp(log_post, axis=0) - grid.log_theta_prior()[a_star]
    return float(_expect(np.exp(record.log_pstar), ratios))


def info_gain_rweighted(record: ToyEnumeration, proxy_table,
                        weight_table=None, proxy_expectation: str = "subjective",
                        refinement_iterations: int = 3) -> float:
    """Expected log posterior-to-prior ratio at theta* for the weighted learner.

    proxy_table is the proxy's (Z, B) log-likelihood table over a finite
    alphabet of payloads: row z holds log p(z | psi_b) at grid.psi_nodes,
    and each row is checked as a grid engine checks its proxy vector.  The
    expectation runs over every payload z and every dataset.  z is
    integrated over the learner's own predictive distribution of z (psi
    drawn from the grid prior) by default; proxy_expectation="true"
    conditions on the true target task parameter instead, and reads the
    table's column at the psi node equal to psi_target_star (a target off
    the nodes raises ValueError).  No sweep uses that variant: toy-verify
    takes the default, and the linear and gp sweeps score one proxy drawn
    at the true target on a grid, not through this function.  weight_table,
    when given, is the (B, n, |O|) table of check_prop55, so each
    observation's weight depends on its own outcome; without one,
    refine_relevance runs refinement_iterations rounds once per
    (payload, dataset) pair of positive probability, on one grid problem per
    dataset and the payload's row of the table.
    """
    if proxy_expectation not in ("subjective", "true"):
        raise ValueError(f"unknown proxy_expectation {proxy_expectation!r}")
    model, grid, datasets = record.model, record.grid, record.datasets
    pstar = np.exp(record.log_pstar)
    z_ll = np.stack([_check_proxy_ll(row, grid.n_psi)
                     for row in np.atleast_1d(proxy_table)])                # (Z, B)
    if proxy_expectation == "subjective":
        z_mass = np.exp(logsumexp(z_ll + grid.log_psi_prior()[None, :], axis=1))
    else:
        target = record.true_process.psi_target_star
        node = np.flatnonzero((grid.psi_nodes == target).all(axis=1))
        if node.size == 0:
            raise ValueError(f"psi_target_star={target} is not a psi node of the grid, "
                             "so the proxy table has no column for it")
        z_mass = np.exp(z_ll[:, node[0]])
    live = (z_mass[:, None] > 0.0) & (pstar[None, :] > 0.0)                # (Z, M)

    if weight_table is not None:
        weights = _table_weights(record, weight_table)[None]             # (1, M, B, n)
    else:
        weights = np.zeros(live.shape + (grid.n_psi, datasets.shape[1]))   # (Z, M, B, n)
        for m in np.nonzero(live.any(axis=0))[0]:
            data = SourceData(tuple(Observation(np.empty(0), int(model.outcome_space[o]))
                                    for o in datasets[m]))
            problem = GridProblem(model, data, grid)
            for zi in np.nonzero(live[:, m])[0]:
                weights[zi, m] = refine_relevance(problem, z_ll[zi],
                                                  refinement_iterations).weights_per_psi

    lls = record.table[datasets]                                            # (M, n, A, B)
    log_joint = _r_weighted_log_joint(lls, _neginf_mask(lls), weights,
                                      z_ll[:, None, :], grid)               # (Z, M, A, B)
    log_theta = logsumexp(log_joint, axis=3)                                # (Z, M, A)
    log_evidence = logsumexp(log_theta, axis=2)                             # (Z, M)
    if not np.isfinite(log_evidence[live]).all():
        raise DegenerateProxyError("posterior mass is identically zero on the grid")
    with np.errstate(invalid="ignore"):                                   # only where not live
        ratios = (log_theta[..., record.a_star] - log_evidence
                  - grid.log_theta_prior()[record.a_star])
    return float(_expect(z_mass, _expect(pstar, ratios.T)))


# ---------------------------------------------------------------------------
# misspecification divergences
# ---------------------------------------------------------------------------

def delta_classic(record: ToyEnumeration, source_psi_prior) -> float:
    """KL from the true data distribution to the classic likelihood at theta*.

    Both sides factor over observations (the classic likelihood marginalizes
    each observation's task parameter independently), so the divergence is a
    sum of per-observation KLs.
    """
    mix = np.exp(_source_mixture(record.at_theta_star, source_psi_prior))   # (O,)
    star = np.exp(record.star)                                           # (n, O)
    return float(sum(kl_divergence(row, mix) for row in star))


def delta_rweighted(record: ToyEnumeration, weights_per_psi) -> DeltaRweighted:
    """Expected divergence from truth to the pseudo-intervened weighted density.

    The expectation is over the target task prior on the grid.  Both the
    per-instance-normalized reading (a true KL) and the unnormalized reading
    (the decomposition's object) are returned; see DeltaRweighted.
    """
    grid = record.grid
    w = _check_weights(weights_per_psi, (grid.n_psi, record.true_process.n))
    logpmf = record.at_theta_star.T                                      # (B, O)
    star = np.exp(record.star)                                           # (n, O)
    star_entropy = sum(entropy(row) for row in star)

    weighted = _weighted_terms(w[:, :, None], logpmf[:, None, :])        # (B, n, O)
    cross = _weighted_terms(star, weighted).sum(axis=(1, 2))             # (B,)
    log_z = logsumexp(weighted, axis=2).sum(axis=1)                      # per-observation
    unnorm = -star_entropy - cross
    q = grid.psi_prior_mass
    return DeltaRweighted(normalized=float(q @ (unnorm + log_z)), unnormalized=float(q @ unnorm))


# ---------------------------------------------------------------------------
# theorem-level checks
# ---------------------------------------------------------------------------

def check_prop55(record: ToyEnumeration, weight_table) -> Prop55Check:
    """Verify the effective-sample-size decomposition by exact enumeration.

    See Prop55Check for the identity and for why the E[ESS * DIS] term
    carries a 1/n.  weight_table[b, i, o] in [0, 1] is observation i's
    weight at psi node b when its outcome is o, so each weight depends on
    that observation's own outcome; the identity holds regardless.
    """
    grid, datasets, log_pstar = record.grid, record.datasets, record.log_pstar
    n = record.true_process.n
    pstar = np.exp(log_pstar)
    h_true = -float(_expect(pstar, log_pstar))
    lls = np.swapaxes(record.at_theta_star[datasets], 1, 2)              # (M, B, n)
    w = _table_weights(record, weight_table)                              # (M, B, n)

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


def check_theorem24(record: ToyEnumeration, source_psi_prior) -> Theorem24Check:
    """Check the classic learner's negative-transfer bound by enumeration.

    The neighborhood around theta* is the single nearest grid node.  The
    excluded-mixture distribution renormalizes the prior over the remaining
    nodes; with every node excluded (prior mass 1 at theta*) the bound is
    degenerate and trivially satisfied.
    """
    grid, a_star = record.grid, record.a_star
    p_star = float(grid.theta_prior_mass[a_star])
    a_excl = 1.0 - p_star
    loglik = _classic_theta_loglik(record, source_psi_prior)             # (A, M)
    ig = info_gain_classic(record, source_psi_prior, loglik=loglik)
    d_c = delta_classic(record, source_psi_prior)

    if a_excl <= 0.0:
        return Theorem24Check(info_gain=ig, prior_mass_excluded=0.0,
                              kl_excluded_mixture=float("nan"), delta_classic=d_c,
                              satisfied=True, degenerate=True)

    log_pstar = record.log_pstar
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
                           proxy_table, weight_table) -> DiagnosticsReport:
    """Every diagnostic on one toy instance, enumerated exactly.

    One ToyEnumeration record is built and every diagnostic reads it.  The
    weighted information gain reads proxy_table, the (Z, B) table of
    info_gain_rweighted, and uses unit weights so it stays comparable
    across instances; the decomposition check runs under weight_table,
    check_prop55's (B, n, |O|) table keyed by each observation's own
    outcome, and the weighted divergence under its weights at outcome 0.
    """
    record = ToyEnumeration(model, true_process, grid)
    ig_r = info_gain_rweighted(record, proxy_table, weight_table=np.ones(np.shape(weight_table)))
    prop = check_prop55(record, weight_table)
    bound = check_theorem24(record, source_psi_prior)
    d_r = delta_rweighted(record, np.asarray(weight_table)[:, :, 0])

    return DiagnosticsReport(
        ig_classic=bound.info_gain,
        ig_rweighted=ig_r,
        delta_classic=bound.delta_classic,
        delta_rweighted=d_r.normalized,
        rho_fidelity=prop.rho_fidelity,
        ess_dis_expectation=prop.ess_dis_expectation,
        entropy_true=prop.entropy_true,
        decomposition_residual=prop.residual,
        bound_classic=bound,
    )
