"""Posterior computation engines.

Two engines cover every model here: exact grid quadrature when the joint
parameter dimension is small, and random-walk Metropolis when it is not
(both legs of the smoking case study: the sigmoid-ratio weighted target,
and, given a groups partition, the fixed-effects target with one intercept
per study; a proxy enters the sampler as a term of its prior density).  All
mass accumulation happens in log space through log-sum-exp, with one exception:
the belief average behind the prior-expected relevance weights
(relevance.py) shifts each observation's log-likelihoods by their peak over
theta, exponentiates them once, and averages them in the exp domain.

Both grid engines read one GridProblem, which builds the (n, A, B)
log-likelihood tensor of its (model, data, grid) once.  A proxy enters a
grid posterior only through its (B,) log-likelihood at the psi nodes,
which the caller forms once with proxy_loglik_vector and passes as an
array, as the source prior enters classic_posterior.  _source_mixture and
_r_weighted_log_joint, each learner's formula, serve the diagnostics too.
A zero weight drops its term even at a -inf log-likelihood: _zero_weight_safe
states that rule once, for the engines and the diagnostics alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import ParameterGrid, _check_mass, _check_normalized
from .models import N_UNIT, ModelSpec, SourceData, _logsumexp_inplace, loglik_sum, \
    loglik_tensor, logsumexp, sigmoid_ratio_weights

JOINT_TOL = 1e-10


class DegenerateProxyError(ValueError):
    """Proxy likelihood puts zero mass on every grid node."""


class McmcInitError(ValueError):
    """Metropolis log-target is not finite at the initial state."""


@dataclass(frozen=True)
class ProxyObservation:
    """Proxy information z with its learner-side likelihood model.

    proxy_log_likelihood(payload, psi_nodes) -> (B,) array, where psi_nodes
    is a (B, k_psi) array of task parameter vectors.  The payload never
    depends on theta; there is no way to even pass one.
    """

    payload: object
    proxy_log_likelihood: Callable


@dataclass(frozen=True)
class PosteriorTable:
    """Normalized joint posterior mass over a grid, plus its log-evidence."""

    grid: ParameterGrid
    joint_mass: np.ndarray
    log_evidence: float

    def __post_init__(self):
        jm = np.asarray(self.joint_mass, dtype=float)
        expect = (self.grid.n_theta, self.grid.n_psi)
        if jm.shape != expect:
            raise ValueError(f"joint_mass shape {jm.shape}, grid wants {expect}")
        _check_normalized(jm, "joint_mass", JOINT_TOL)
        object.__setattr__(self, "joint_mass", jm)

    def theta_marginal(self) -> np.ndarray:
        return self.joint_mass.sum(axis=1)

    def psi_marginal(self) -> np.ndarray:
        return self.joint_mass.sum(axis=0)


def _check_proxy_ll(values, n_psi: int) -> np.ndarray:
    """values as a float proxy log-likelihood vector of shape (n_psi,).

    A vector of any other shape (a scalar would otherwise broadcast) is
    rejected, and so is a NaN, which would poison every log-sum-exp
    downstream.
    """
    out = np.asarray(values, dtype=float)
    if out.shape != (n_psi,):
        raise ValueError(f"proxy log-likelihood has shape {out.shape}, "
                         f"expected ({n_psi},), one value per psi node")
    # the min propagates NaN: one reduction, and the index only on failure
    if math.isnan(out.min(initial=0.0)):
        raise FloatingPointError(
            f"NaN proxy log-likelihood at psi node index {int(np.argmax(np.isnan(out)))}")
    return out


def proxy_loglik_vector(proxy: ProxyObservation, psi_nodes: np.ndarray) -> np.ndarray:
    """The proxy log-likelihood at every row of psi_nodes (B, k_psi), shape (B,).

    The one entry point to a proxy's likelihood.  Its result goes through
    _check_proxy_ll, the check every proxy vector a grid engine takes gets.
    """
    psi_nodes = np.asarray(psi_nodes, dtype=float)
    if psi_nodes.ndim != 2:
        raise ValueError(f"psi_nodes must be a (B, k_psi) array, got shape {psi_nodes.shape}")
    return _check_proxy_ll(proxy.proxy_log_likelihood(proxy.payload, psi_nodes),
                           psi_nodes.shape[0])


@dataclass(frozen=True)
class GridProblem:
    """One (model, data, grid) with its (n, A, B) log-likelihood tensor.

    The tensor is built once, at construction, and is read-only; both grid
    engines and every refinement round read it.  Its -inf cells (toy
    outcomes of zero probability) are masked per call, by _zero_weight_safe.
    """

    model: ModelSpec
    data: SourceData
    grid: ParameterGrid
    tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tensor = loglik_tensor(self.model, self.data, self.grid.theta_nodes,
                               self.grid.psi_nodes)
        tensor.flags.writeable = False
        object.__setattr__(self, "tensor", tensor)


def _source_mixture(lls: np.ndarray, source_psi_prior) -> np.ndarray:
    """The classic learner's source mixture logsumexp(lls + log prior) over
    the last axis of lls (..., B), where source_psi_prior is checked to be a
    mass vector over the B psi nodes.  The sum is the one array of lls's
    size formed here; the log-sum-exp consumes it in place."""
    source_psi_prior = _check_mass(source_psi_prior, "source_psi_prior")
    if source_psi_prior.size != lls.shape[-1]:
        raise ValueError("source_psi_prior length does not match the psi grid")
    with np.errstate(divide="ignore"):
        work = lls + np.log(source_psi_prior)
    return _logsumexp_inplace(work, axis=-1)


def classic_posterior(problem: GridProblem, source_psi_prior) -> PosteriorTable:
    """Posterior for the learner who cannot tell which observations share a task.

    Each observation's task parameter is marginalized independently against
    source_psi_prior, so the theta likelihood is a product of per-observation
    mixtures.  The target task parameter stays at its prior (the joint
    factorizes), absent any proxy.

    The mixture over psi stays an exact log-sum-exp.  An exp-domain sum
    shifted by a peak shared across theta, as the relevance belief average
    uses, could underflow a whole theta row to -inf here and turn an
    information gain into -inf.
    """
    grid = problem.grid
    per_obs = _source_mixture(problem.tensor, source_psi_prior)         # (n, A)
    log_joint_theta = per_obs.sum(axis=0) + grid.log_theta_prior()
    log_evidence = float(logsumexp(log_joint_theta))
    theta_marg = np.exp(log_joint_theta - log_evidence)
    joint = theta_marg[:, None] * grid.psi_prior_mass[None, :]
    return PosteriorTable(grid=grid, joint_mass=joint / joint.sum(), log_evidence=log_evidence)


def _check_groups(groups, n_obs: int) -> list:
    """The groups as lists of indices, checked to partition range(n_obs)."""
    groups = [list(g) for g in groups]
    if sorted(i for g in groups for i in g) != list(range(n_obs)):
        raise ValueError("groups must partition the observation indices")
    return groups


def _check_weights(weights, shape: tuple) -> np.ndarray:
    """Relevance weights as a float array of the given shape, each in [0, 1].

    Checked by the min and the max, which a NaN fails as well; infinities
    fall outside the range.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != shape:
        raise ValueError(f"weights shape {w.shape}, expected {shape}")
    if not (w.min() >= 0.0 and w.max() <= 1.0):
        raise ValueError("relevance weights must lie in [0, 1]")
    return w


def _zero_weight_safe(lls: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """lls with each -inf term under a zero weight (weights broadcast against
    lls) set to 0, so that weights * lls drops it: 0 * -inf is nan in floats.
    lls itself is returned unless a weight is 0, which one min over the
    weights decides, and lls holds a -inf, which a min over lls decides."""
    if weights.min(initial=1.0) > 0.0 or lls.min(initial=np.inf) > -np.inf:
        return lls
    return np.where((weights == 0.0) & np.isneginf(lls), 0.0, lls)


def _r_weighted_log_joint(tensor: np.ndarray, weights: np.ndarray,
                          proxy_ll: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """The unnormalized r-weighted log joint, shape (..., A, B): for
    log-likelihoods tensor (..., n, A, B), checked weights (..., B, n) and
    proxy_ll (..., B), leading axes broadcast, sum_i weights[..., b, i]
    tensor[..., i, a, b] + proxy_ll[..., b] plus the log prior masses of
    theta_a and psi_b, where a zero weight drops its term even at -inf."""
    tensor = _zero_weight_safe(tensor, np.swapaxes(weights, -1, -2)[..., None, :])
    weighted = np.einsum("...bi,...iab->...ab", weights, tensor)
    return (weighted + proxy_ll[..., None, :]
            + grid.log_theta_prior()[:, None] + grid.log_psi_prior()[None, :])


def r_weighted_posterior(problem: GridProblem, weights_per_psi,
                         proxy_ll) -> PosteriorTable:
    """Joint posterior over (theta, psi_target) from the weighted likelihood.

    proxy_ll is the proxy's (B,) log-likelihood at grid.psi_nodes, as
    proxy_loglik_vector forms it (zeros for no proxy), checked for shape
    and NaN.  The joint is _r_weighted_log_joint's, normalized over the
    whole grid.
    """
    grid = problem.grid
    mat = _check_weights(weights_per_psi, (grid.n_psi, problem.tensor.shape[0]))
    log_joint = _r_weighted_log_joint(problem.tensor, mat,
                                      _check_proxy_ll(proxy_ll, grid.n_psi), grid)
    log_evidence = float(logsumexp(log_joint))
    if not np.isfinite(log_evidence):
        raise DegenerateProxyError("posterior mass is identically zero on the grid")
    joint = np.exp(log_joint - log_evidence)
    return PosteriorTable(grid=grid, joint_mass=joint / joint.sum(), log_evidence=log_evidence)


# ---------------------------------------------------------------------------
# random-walk Metropolis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McmcChain:
    """Post-burn-in samples of (theta, psi) with the realized acceptance rate."""

    theta_samples: np.ndarray
    psi_samples: np.ndarray
    acceptance_rate: float
    warning: Optional[str] = None


ACCEPT_TARGET = 0.3
ACCEPT_BAND = (0.1, 0.6)


def _state_part(value, size: int, name: str) -> np.ndarray:
    """value as a float vector, checked to have shape (size,)."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
    return arr


def _chain_log_target(model: ModelSpec, data: SourceData, prior_log_density,
                      obs_group: Optional[np.ndarray]):
    """The sampler's log-target as a function of the stacked (theta, psi) state.

    What does not change within a chain is formed here, once: for the
    fixed-effects target (obs_group given, one group index per observation),
    the flat index that gathers each observation's intercept rows out of psi
    in one step; for the sigmoid-ratio target (obs_group None), which of two
    steps the chain takes.  A pmf model (no log_predictive_mode_density)
    with at least models.N_UNIT observations has every weight exactly 1.0,
    so its step sums one column, the state's theta, with no null column and
    no weights; any other model or size keeps the (2, k_theta) theta rows,
    whose null row stays zero, and log n.  The one-column and fixed-effects
    steps need the sum of the model's cells only, so they call
    models.loglik_sum on arrays already shaped here; the two-column step
    needs the cells for its weights and calls loglik_tensor.  The views of
    a state (theta, psi and their (1, k) rows) are formed once per state
    array and kept while the same array comes back, as the sampler's
    proposal buffer does at every step.  A state of infinite prior density
    is rejected before any model call, and a NaN one raises.
    """
    k_theta, n = model.k_theta, data.n

    if obs_group is not None:
        k_psi = model.k_psi
        gather = (obs_group[:, None] * k_psi + np.arange(k_psi))[:, None, :]  # (n, 1, k_psi)

        def log_lik(theta, psi, theta_row, psi_row):
            return loglik_sum(model, data, theta_row, psi[gather])
    elif model.log_predictive_mode_density is None and n >= N_UNIT:
        def log_lik(theta, psi, theta_row, psi_row):
            # 1.0 * l == l: the sum of the weighted column, bit for bit
            return loglik_sum(model, data, theta_row, psi_row)
    else:
        thetas = np.zeros((2, k_theta))     # row 0 the state's theta, row 1 the null theta
        log_n = np.log(n)

        def log_lik(theta, psi, theta_row, psi_row):
            thetas[0] = theta
            both = loglik_tensor(model, data, thetas, psi_row)               # (n, 2, 1)
            # the weights lie in [0.5, 1] or raise: there is no range to
            # check and no zero to mask
            w = sigmoid_ratio_weights(both[:, 1, 0], log_n)
            return float((w * both[:, 0, 0]).sum())

    last, views = None, None    # the last state array and its four views

    def log_target(vec: np.ndarray) -> float:
        nonlocal last, views
        if vec is not last:
            last = vec
            views = vec[:k_theta], vec[k_theta:], vec[None, :k_theta], vec[None, k_theta:]
        theta, psi, theta_row, psi_row = views
        lp = prior_log_density(theta, psi)
        if not math.isfinite(lp):
            if math.isnan(lp):
                raise FloatingPointError(f"NaN log prior density at state {vec}")
            return -math.inf
        return lp + log_lik(theta, psi, theta_row, psi_row)

    return log_target


def metropolis_posterior(model: ModelSpec, data: SourceData, prior_log_density, *,
                         n_samples: int, seed: int, groups=None, init_psi=None,
                         proposal_scale=0.5) -> McmcChain:
    """Gaussian random-walk Metropolis over the stacked (theta, psi) state.

    The target is prior_log_density(theta, psi), which carries any proxy
    term in psi, plus a log-likelihood that groups selects.  Without groups
    it is weighted by relevance.sigmoid_ratio_relevance, formed without
    calling it: the model is evaluated at the two theta rows (theta, 0) and
    the state's psi, and the null column feeds models.sigmoid_ratio_weights.
    With a groups partition it is the known-groups likelihood where psi
    holds one intercept per group, stacked in group order (the classic
    fixed-effects baseline), one cell per observation at its group's
    intercept.

    Each step evaluates the model once per proposed state: one
    loglik_tensor call of n x 2 cells for the sigmoid-ratio target below
    models.N_UNIT observations, whose weights need the cells; one
    models.loglik_sum call of n cells for it from N_UNIT on (see below) and
    for fixed effects, whose step needs only the sum and checks it for NaN.
    A proposal of infinite prior density is rejected without a model call;
    a NaN one raises.  The proposal is drawn into a buffer the chain keeps
    and scaled and shifted there, an accepted proposal is copied into the
    state, and each kept state is copied into one (kept, dim) array, split
    into the theta and psi samples at the end.  The log-target is built
    once per chain, with its per-chain constants: the null theta row and
    log n of the sigmoid ratio, for fixed effects one index that gathers
    every observation's group intercept from psi, and the views of the
    proposal buffer the model and the prior read.  The sigmoid-ratio
    weights are neither range-checked nor masked:
    models.sigmoid_ratio_weights raises unless the pooled null
    log-likelihood is finite, and then every weight lies in [0.5, 1].

    For a pmf model (no log_predictive_mode_density) each weight is at least
    sigmoid(n), which is exactly 1.0 in float64 from n = 37 on.  From n =
    models.N_UNIT (38, one arm of margin) the sigmoid-ratio step evaluates
    only the state's theta, n cells, and sums them: the same bits as the
    weighted sum.  The one-column step never forms the null pool, so a zero
    pooled null likelihood, which raises DegenerateRelevanceError on the
    full step, goes unseen; for the binomial model it needs |psi| > 1e305.

    theta starts at the middle of its support box, and psi at init_psi,
    which defaults to the middle of its own.  init_psi must have shape
    (k_psi,), or (k_psi * len(groups),) for fixed effects, and an array
    proposal_scale (default 0.5) one entry per state coordinate.  Every
    proposal scale must be positive and finite.

    n_samples, an integer, counts total iterations; the first quarter is
    burn-in, during which per-coordinate proposal scales adapt toward 0.3
    acceptance, and is discarded.  acceptance_rate is measured after
    adaptation; outside [0.1, 0.6] a warning is attached to the chain and
    emitted.
    """
    if not isinstance(n_samples, (int, np.integer)):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    k_theta = model.k_theta
    obs_group = None
    if groups is None:
        psi_dim = model.k_psi
    else:
        groups = _check_groups(groups, data.n)
        psi_dim = model.k_psi * len(groups)
        obs_group = np.empty(data.n, dtype=int)
        for gi, g in enumerate(groups):
            obs_group[g] = gi
    dim = k_theta + psi_dim

    psi0 = (np.tile(model.psi_support.mean(axis=1), psi_dim // model.k_psi)
            if init_psi is None else _state_part(init_psi, psi_dim, "init_psi"))
    scales = (np.full(dim, float(proposal_scale)) if np.ndim(proposal_scale) == 0
              else _state_part(proposal_scale, dim, "proposal_scale").copy())
    if not (np.isfinite(scales).all() and scales.min() > 0.0):
        raise ValueError(f"proposal_scale entries must be positive and finite, got {scales}")
    state = np.concatenate([model.theta_support.mean(axis=1), psi0])

    log_target = _chain_log_target(model, data, prior_log_density, obs_group)
    current = log_target(state)
    if not np.isfinite(current):
        raise McmcInitError(f"log-target is {current} at the initial state")

    rng = np.random.default_rng(seed)
    prop = np.empty(dim)

    def step() -> bool:
        """One Metropolis step; True when its proposal is accepted."""
        nonlocal prop, current
        rng.standard_normal(out=prop)
        prop *= scales
        prop += state
        cand = log_target(prop)
        if np.log(rng.random()) < cand - current:
            state[:] = prop
            current = cand
            return True
        return False

    burn = n_samples // 4
    window = 100
    window_accepts = 0
    for it in range(1, burn + 1):
        window_accepts += step()
        if it % window == 0:
            scales *= np.exp(window_accepts / window - ACCEPT_TARGET)
            window_accepts = 0

    kept = np.empty((n_samples - burn, dim))
    accepted_post = 0
    for row in kept:
        accepted_post += step()
        row[:] = state

    rate = accepted_post / kept.shape[0]
    warning = None
    if not (ACCEPT_BAND[0] <= rate <= ACCEPT_BAND[1]):
        warning = f"acceptance rate {rate:.3f} outside {ACCEPT_BAND} after adaptation"
        warnings.warn(warning, RuntimeWarning)
    return McmcChain(theta_samples=kept[:, :k_theta].copy(),
                     psi_samples=kept[:, k_theta:].copy(),
                     acceptance_rate=rate, warning=warning)


# ---------------------------------------------------------------------------
# chain-versus-grid comparison
# ---------------------------------------------------------------------------

def _cell_edges(nodes_1d: np.ndarray, name: str) -> np.ndarray:
    """Edges of the cells centred on nodes_1d, which must increase in equal
    steps (to a relative 1e-9): every cell is one step wide, so uneven or
    unsorted nodes would put samples in the wrong cells."""
    h = nodes_1d[1] - nodes_1d[0] if nodes_1d.size > 1 else 1.0
    if not (h > 0.0 and np.all(np.abs(np.diff(nodes_1d) - h) <= 1e-9 * h)):
        raise ValueError(f"chain_grid_tv needs increasing, evenly spaced {name} nodes")
    return np.concatenate([nodes_1d - 0.5 * h, [nodes_1d[-1] + 0.5 * h]])


COARSEN = 2


def _coarsen(mass: np.ndarray, axis: int) -> np.ndarray:
    n = mass.shape[axis]
    pad = (-n) % COARSEN
    if pad:
        width = [(0, 0)] * mass.ndim
        width[axis] = (0, pad)
        mass = np.pad(mass, width)
    shape = list(mass.shape)
    shape[axis] = shape[axis] // COARSEN
    shape.insert(axis + 1, COARSEN)
    return mass.reshape(shape).sum(axis=axis + 1)


def chain_grid_tv(chain: McmcChain, table: PosteriorTable,
                  marginal: Optional[str] = None) -> float:
    """Total-variation distance between a chain histogram and a grid posterior.

    Samples are binned into the grid's own cells, then both histograms are
    aggregated into superbins of COARSEN consecutive cells per axis so the
    comparison is not dominated by per-cell Monte-Carlo noise.  marginal
    "theta" compares the theta marginal; the default, None, the joint.
    Each bin holds its share of all the samples, and the share that falls
    outside the grid's span, where the table has no mass, adds to the
    distance in full.  Scalar theta and psi only, each binned axis on
    increasing, evenly spaced nodes: anything else raises ValueError.
    """
    if marginal not in (None, "theta"):
        raise ValueError(f"marginal must be 'theta' or None (the joint), got {marginal!r}")
    grid = table.grid
    for name, nodes, samples in (("theta", grid.theta_nodes, chain.theta_samples),
                                 ("psi", grid.psi_nodes, chain.psi_samples)):
        if nodes.shape[1] != 1 or samples.shape[1] != 1:
            raise ValueError(f"chain_grid_tv needs scalar {name}, got {nodes.shape[1]} grid "
                             f"and {samples.shape[1]} chain coordinates")
    t_edges = _cell_edges(grid.theta_nodes[:, 0], "theta")

    if marginal == "theta":
        hist, _ = np.histogram(chain.theta_samples[:, 0], bins=t_edges)
        ref = _coarsen(table.theta_marginal(), 0)
        emp = _coarsen(hist.astype(float), 0)
    else:
        hist, _, _ = np.histogram2d(chain.theta_samples[:, 0], chain.psi_samples[:, 0],
                                    bins=(t_edges, _cell_edges(grid.psi_nodes[:, 0], "psi")))
        ref = _coarsen(_coarsen(table.joint_mass, 0), 1)
        emp = _coarsen(_coarsen(hist, 0), 1)
    n_samples = chain.theta_samples.shape[0]
    off_span = (n_samples - hist.sum()) / n_samples
    return float(0.5 * (np.abs(emp / n_samples - ref).sum() + off_span))
