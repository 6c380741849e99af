"""Domain types and the four concrete probabilistic models.

A data set is SourceData, three read-only float columns: covariates,
outcomes and, for a binomial model, trial counts.  A model couples a
per-observation log-likelihood log p(d_i | theta, psi_i) with a simulator
that draws one outcome from the same distribution.  theta is shared across
tasks, psi_i is task-specific.  Each model supplies its log-likelihood
once, as a vectorised evaluator over a parameter product that reads those
columns; loglik_tensor, for the cells, and loglik_sum, for each theta row's
sum, are its checked entry points.
Everything downstream (grid posteriors, relevance weighting, diagnostics)
talks to models only through ModelSpec, so adding a model means writing one
factory function here.  The two formulas every layer above shares live here
too: the log-sum-exp, and sigmoid_ratio_weights, the one function that forms
sigmoid-ratio weights from null-parameter log-likelihoods, for the relevance
module and the Metropolis sampler alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import expit, gammaln

from .grids import _check_normalized

LOG_2PI = math.log(2.0 * math.pi)
LOG_DBL_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class SourceData:
    """Source observations d = (d_1, ..., d_n), n >= 1, as three columns.

    covariates is (n, c) in the layout the model declares, c = 0 for a
    model that reads none; outcomes is (n,), or (n, m) for trajectory
    outcomes; trial_counts is (n,) exactly for binomial models, each a whole
    number >= 1 whose outcome is a whole count in [0, trial_count], and None
    otherwise.  Each column is copied to a read-only float array, so a model
    may key constants it derives from them on the SourceData's identity.
    """

    covariates: np.ndarray
    outcomes: np.ndarray
    trial_counts: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("covariates", "outcomes", "trial_counts"):
            value = getattr(self, name)
            if value is None and name == "trial_counts":
                continue
            try:
                column = np.array(value, dtype=float)
            except ValueError as exc:
                raise ValueError(f"{name} is ragged or not numeric: {exc}") from None
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        y, counts = self.outcomes, self.trial_counts
        if y.ndim not in (1, 2):
            raise ValueError(f"outcomes must be (n,) or (n, m), got shape {y.shape}")
        if self.n == 0:
            raise ValueError("SourceData needs at least one observation")
        if self.covariates.ndim != 2 or self.covariates.shape[0] != self.n:
            raise ValueError(f"covariates must be ({self.n}, c), got shape "
                             f"{self.covariates.shape}")
        if counts is None:
            return
        if counts.shape != y.shape or y.ndim != 1:
            raise ValueError(f"trial_counts {counts.shape} needs (n,) outcomes of the "
                             f"same length, got {y.shape}")
        whole = np.isfinite(counts) & (counts >= 1) & (counts == np.floor(counts))
        if not whole.all():
            i = int(np.argmin(whole))
            raise ValueError(f"trial_count {counts[i]} at row {i} is not a whole number >= 1")
        whole = (y >= 0) & (y <= counts) & (y == np.floor(y))
        if not whole.all():
            i = int(np.argmin(whole))
            raise ValueError(f"outcome {y[i]} at row {i} is not a whole count in "
                             f"[0, trial_count={counts[i]}]")

    @property
    def n(self) -> int:
        return self.outcomes.shape[0]


@dataclass(frozen=True)
class ModelSpec:
    """A pluggable probabilistic model.

    Fields
    ------
    name : str
    theta_support, psi_support : (k, 2) arrays
        Interval box per parameter coordinate.
    log_likelihood : callable
        (SourceData, thetas (A, k_theta), psis) -> (n, A, B) array read from
        the data's columns.  With psis of shape (B, k_psi) the cell [i, a, b]
        is log p(d_i | theta_a, psi_b), every observation against the whole
        parameter product.  With psis of shape (n, A, k_psi), aligned with
        the theta rows, B is 1 and the cell [i, a, 0] is
        log p(d_i | theta_a, psis[i, a]): observation i gets its own task
        row for each theta row, so a known-groups likelihood costs n cells,
        not n x G, and A (theta, psi) pairs cost A cells per observation,
        not A x A.  The one likelihood a model supplies; call it through
        loglik_tensor, which coerces the parameter arrays and rejects NaN,
        or loglik_sum, which sums each theta row's cells and rejects NaN.
        A single value is its 1 x 1 x 1 cell.
    simulate : callable (covariates, theta, psi, rng, ...) -> outcome
        Draws one outcome at covariates (c,), theta (k_theta,) and psi
        (k_psi,): a float, an int count, or an (m,) trajectory, one row of
        SourceData.outcomes.  A scalar parameter stands for a vector of
        length one.
    log_predictive_mode_density : optional callable
        (SourceData, thetas (A, k_theta), psis (B, k_psi), belief (A,))
        -> 2-D array broadcastable to (n, B), in the shape its formula has.
        Log modal density of the belief-averaged outcome predictive, the one
        normalizer hook.  Only the relevance module calls it, to put
        prior-expected scores on [0, 1]; the gp expert-prompt agreement of
        synthetic.prompt_agreement is such a score at the theta prior.  For
        the linear model this is the normal of matching variance
        1 + x1^2 Var(theta), which depends on the observation only: (n, 1).
        For the trajectory model every component peaks at the zero
        trajectory, so the mixture maximum is exact and depends on the psi
        node only: (1, B).  None for a pmf model, whose relevance scores lie
        in [0, 1] unnormalized.
    outcome_space : optional integer array
        Full outcome alphabet when the model's outcomes are enumerable with
        a fixed alphabet (the discrete toy model).  Enables exact
        enumeration in the diagnostics.
    """

    name: str
    theta_support: np.ndarray
    psi_support: np.ndarray
    log_likelihood: Callable
    simulate: Callable
    log_predictive_mode_density: Optional[Callable] = None
    outcome_space: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def k_theta(self) -> int:
        return self.theta_support.shape[0]

    @property
    def k_psi(self) -> int:
        return self.psi_support.shape[0]


def _support_box(low: float, high: float, dim: int) -> np.ndarray:
    return np.tile(np.array([[low, high]], dtype=float), (dim, 1))


def param_values(p) -> np.ndarray:
    """A parameter value as a float vector: a scalar becomes shape (1,)."""
    return np.atleast_1d(np.asarray(p, dtype=float))


def _task_column(psis: np.ndarray) -> np.ndarray:
    """Coordinate 0 of the task parameters, (1, B) for the (B, k_psi)
    product form and (n, A, 1) for the aligned (n, A, k_psi) form; either
    broadcasts against the (n, A, 1) theta term."""
    return psis[None, :, 0] if psis.ndim == 2 else psis[..., :1]


class DegenerateRelevanceError(ValueError):
    """The weight formula hit an undefined 0/0 or -inf/-inf ratio."""


NULL_POOL_ZERO = ("pooled likelihood at the null shared parameter is zero; the sigmoid "
                  "ratio is undefined for this dataset and target task")


# In float64, sigmoid(x) = 1 / (1 + exp(-x)) is exactly 1.0 once exp(-x) is
# at most half the gap between 1 and the next float, eps / 2: for every
# x >= -log(eps / 2) = 53 log 2 = 36.74, so from x = 37 on.  A pmf's
# sigmoid-ratio argument n * p_i / prod_j p_j = n / prod_{j != i} p_j is at
# least n, so with N_UNIT or more observations every weight is 1.0; the one
# observation past 37 is a margin for the rounding of the weight's log-space
# exponent, which could otherwise put n * p_i / prod_j p_j just below 37.
N_UNIT = math.ceil(-math.log(np.finfo(float).eps / 2)) + 1


def sigmoid_ratio_weights(null_lls: np.ndarray, log_n) -> np.ndarray:
    """sigmoid(n * p_i / prod_j p_j) along the last axis of null_lls, given log n.

    Each (n,) row of null_lls holds every observation's log-likelihood at
    the null shared parameter theta = 0 and one task parameter.  Each row's
    pooled null log-likelihood is summed once: -inf (a zero pooled
    likelihood) in any row raises DegenerateRelevanceError, and +inf or NaN,
    which would make some weight NaN, raises ValueError.  The ratio is
    formed in log space, its exponent clamped at log(DBL_MAX) so the exp
    stays finite; the sigmoid of anything that large is exactly 1.  With
    the pool finite, every weight lies in [0.5, 1].  For a pmf the ratio
    p_i / prod_j p_j is at least 1, so each weight is at least sigmoid(n),
    and from n = N_UNIT on every weight is exactly 1.0; the Metropolis
    sampler then skips this call altogether.  The pool is subtracted before
    log n is added, as l_i - pool >= 0 keeps log n.
    """
    denom = null_lls.sum(axis=-1, keepdims=True)
    if not np.isfinite(denom).all():
        if (denom == -math.inf).any():
            raise DegenerateRelevanceError(NULL_POOL_ZERO)
        raise ValueError("relevance weights must lie in [0, 1]")
    w = null_lls - denom
    w += log_n
    np.minimum(w, LOG_DBL_MAX, out=w)
    np.exp(w, out=w)
    return expit(w, out=w)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along axis, or over every element when axis is None.

    Shifted by the slice maximum, treated as 0 where it is not finite, so an
    all -inf slice gives -inf and a slice holding +inf gives +inf.
    """
    return _logsumexp_inplace(np.array(a, dtype=float), axis)


def _logsumexp_inplace(work: np.ndarray, axis=None):
    """logsumexp(work, axis) for a float array the caller owns and gives up:
    work is shifted and exponentiated in place, so a caller that has just
    formed it allocates no second array of its size."""
    peak = np.max(work, axis=axis, keepdims=True, initial=-np.inf)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    work -= peak
    np.exp(work, out=work)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(work, axis=axis)) + np.squeeze(peak, axis=axis)


# ---------------------------------------------------------------------------
# linear regression model
# ---------------------------------------------------------------------------

def linear_model() -> ModelSpec:
    """Gaussian outcome y ~ Normal(theta * x1 + psi * x2, 1).

    Covariates (x1, x2), k_theta = k_psi = 1, unit outcome variance.
    """

    support = _support_box(-10.0, 10.0, 1)

    def log_likelihood(data: SourceData, thetas, psis) -> np.ndarray:
        x = data.covariates                                 # (n, 2)
        # one (n, A, B) array: the mean minus y, squared and scaled in place;
        # the mean is summed before y is subtracted, so every cell has the
        # bits of the textbook form -0.5 log 2pi - 0.5 (y - mean)^2
        out = (x[:, 0, None, None] * thetas[None, :, 0, None]
               + x[:, 1, None, None] * _task_column(psis))
        out -= data.outcomes[:, None, None]
        np.square(out, out=out)
        out *= -0.5
        out -= 0.5 * LOG_2PI
        return out

    def simulate(covariates, theta, psi, rng) -> float:
        covariates = np.asarray(covariates, dtype=float)
        th, ps = param_values(theta), param_values(psi)
        mean = th[0] * covariates[0] + ps[0] * covariates[1]
        return float(mean + rng.standard_normal())

    def log_predictive_mode_density(data, thetas, psis, belief) -> np.ndarray:
        th = np.asarray(thetas, dtype=float)[:, 0]
        b = np.asarray(belief, dtype=float)
        var_theta = max(float(b @ th ** 2 - (b @ th) ** 2), 0.0)
        v = 1.0 + data.covariates[:, 0] ** 2 * var_theta    # (n,)
        return -0.5 * np.log(2.0 * np.pi * v)[:, None]      # (n, 1): no psi term

    return ModelSpec(
        name="linear",
        theta_support=support,
        psi_support=support.copy(),
        log_likelihood=log_likelihood,
        simulate=simulate,
        log_predictive_mode_density=log_predictive_mode_density,
    )


# ---------------------------------------------------------------------------
# binomial-logit model
# ---------------------------------------------------------------------------

def _binom_log_coef(y, n):
    """log C(n, y), the data-only term of the binomial log pmf."""
    return gammaln(n + 1) - gammaln(y + 1) - gammaln(n - y + 1)


def binomial_logit_model() -> ModelSpec:
    """Count outcome y ~ Binomial(sigmoid(theta . x + psi), trial_count).

    Four treatment indicators in theta, a scalar intercept psi.  SourceData
    has already checked each count is a whole number in [0, trial_count].

    The failure counts and the log binomial coefficient depend only on the
    data, and a Metropolis chain evaluates one SourceData thousands of
    times.  So the model caches the count columns, broadcast as (n, 1, 1),
    of the last SourceData it saw, which hashes by identity; the columns are
    read-only, so a cached constant cannot go stale.  The two softplus
    terms share one logaddexp(0, -|t|) at the linear predictor t:
    log(1 + exp(-t)) is that minus min(t, 0) and log(1 + exp(t)) is
    max(t, 0) plus it, the branches numpy takes to evaluate logaddexp(0, -t)
    and logaddexp(0, t), so each cell keeps the textbook form's bits.  The
    cells are formed in place, in the predictor and two more arrays, so a
    call holds at most three arrays of its output's size.
    """

    @functools.lru_cache(maxsize=1)
    def _columns(data: SourceData):
        """(y, n - y, log C(n, y)), each broadcast as (n, 1, 1)."""
        y = data.outcomes[:, None, None]
        n = data.trial_counts[:, None, None]
        return y, n - y, _binom_log_coef(y, n)

    def log_likelihood(data: SourceData, thetas, psis) -> np.ndarray:
        if data.trial_counts is None:
            raise ValueError("binomial model requires trial_count on every observation")
        y, failures, log_coef = _columns(data)
        # ndarray.dot forms the product @ would, at a third of its call cost
        t = data.covariates.dot(thetas.T)[:, :, None] + _task_column(psis)  # (n, A, B)
        # log C(n, y) - y log(1 + exp(-t)) - (n - y) log(1 + exp(t)), bit for bit
        shared = np.copysign(t, -1.0)                                       # -|t|
        np.logaddexp(0.0, shared, out=shared)
        out = np.minimum(t, 0.0)
        np.subtract(shared, out, out=out)
        out *= y
        np.subtract(log_coef, out, out=out)
        np.maximum(t, 0.0, out=t)
        t += shared
        t *= failures
        out -= t
        return out

    def simulate(covariates, theta, psi, rng, trial_count=None) -> int:
        if trial_count is None:
            raise ValueError("binomial simulate needs trial_count")
        covariates = np.asarray(covariates, dtype=float)
        th, ps = param_values(theta), param_values(psi)
        p = expit(float(th @ covariates) + ps[0])
        return int(rng.binomial(int(trial_count), p))

    return ModelSpec(
        name="binomial-logit",
        theta_support=_support_box(-10.0, 10.0, 4),
        psi_support=_support_box(-10.0, 10.0, 1),
        log_likelihood=log_likelihood,
        simulate=simulate,
    )


# ---------------------------------------------------------------------------
# GP composite-kernel model
# ---------------------------------------------------------------------------

BASE_JITTER = 1e-8
MAX_JITTER = 1e-4


class GpNumericalError(RuntimeError):
    """Cholesky failed even at the maximum jitter level."""


def _distinct(a: np.ndarray):
    """The sorted distinct values of a 1-d array and each element's index
    into them, as np.unique(a, return_inverse=True) gives, at a fraction of
    its fixed cost per call (the gp simulator factors one 1 x 1 product per
    trajectory)."""
    values = np.sort(a)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return values, np.searchsorted(values, a)


def gp_model(x_grid) -> ModelSpec:
    """Zero-mean GP over trajectories on a fixed covariate grid.

    One outcome is a whole trajectory y in R^m.  The covariance is an
    equal-weight sum of two unit-amplitude RBF kernels, one with the shared
    lengthscale theta and one with the task lengthscale psi, scaled by 1/2
    so the diagonal is 1 (plus jitter).

    The kernel factors depend only on the parameter nodes, never on the
    data, and one simulation asks for the same node product many times: the
    classic and r-weighted tensors, the expert prompts, and the mode-density
    normaliser of every refinement round; the model that draws the
    trajectories asks for (theta*, psi*) once per target-task trajectory.
    So the model caches the two most recently used node products
    (functools.lru_cache), keyed on the shapes and exact bytes of the node
    arrays, and simulate draws from the same cached factors; two slots hold
    the full grid and the (theta grid, psi*) product the expert proxy is
    drawn at, and a learner model kept across simulations keeps the grid
    while each simulation's psi* product replaces the last one.  The kernel
    is symmetric in the two lengthscales, so a cached entry holds the
    Cholesky factors and log-determinants of the product's distinct
    unordered pairs {theta_a, psi_b} only, plus the index of each product
    cell into them: a grid with the same nodes on both axes factors
    A(A+1)/2 kernels, not A^2.  The factor serves both the quadratic form,
    by forward substitution, and the log-determinant (Rasmussen & Williams
    2006, Algorithm 2.1).
    """

    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x_grid must be a 1-d vector of length >= 2")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x_grid must be strictly increasing")
    m = x.size
    sq = (x[:, None] - x[None, :]) ** 2
    diag = np.arange(m)
    support = np.array([[0.05, 12.0]])

    def _batch_chol(thetas, psis):
        """Kernel Cholesky factors of the distinct lengthscale pairs of the
        (A, B) product, (U, m, m), and the (A*B,) index of each product cell
        into them.

        The kernel is symmetric in theta and psi, so cells whose unordered
        pairs {theta_a, psi_b} agree share one factor: a grid with the same
        A nodes on both axes factors A(A+1)/2 matrices, and a product with
        no repeated pair gets the identity index.  Each pair is ordered
        (min, max) and coded as one integer over the sorted distinct
        lengthscales, so a 1-d sort finds the distinct pairs.  IEEE addition
        commutes, so each distinct kernel is bitwise the one its cells would
        form alone.

        The jitter starts at 1e-8 and rises by powers of ten up to 1e-4
        until every matrix in the batch factors; the batch is the set of
        distinct kernels, so it picks the jitter the full product would.
        """
        th = np.asarray(thetas, dtype=float)[:, 0]
        ps = np.asarray(psis, dtype=float)[:, 0]
        if np.any(th <= 0) or np.any(ps <= 0):
            raise ValueError(f"lengthscales must be positive, got theta={th.min()}, "
                             f"psi={ps.min()}")
        scales, node = _distinct(np.concatenate([th, ps]))
        lo = np.minimum.outer(node[:th.size], node[th.size:]).ravel()
        hi = np.maximum.outer(node[:th.size], node[th.size:]).ravel()
        pairs, index = _distinct(lo * scales.size + hi)
        lo, hi = np.divmod(pairs, scales.size)
        r = np.exp(-sq[None, :, :] / (2.0 * scales[:, None, None] ** 2))  # (V, m, m)
        # one kernel buffer: with the gathered addend, and later with the
        # factor, at most two (U, m, m) arrays are held
        kmats = r[lo]
        np.add(kmats, r[hi], out=kmats)
        kmats *= 0.5
        kernel_diag = kmats[:, diag, diag]
        jitter = BASE_JITTER
        while True:
            # from the saved diagonal, so a retry adds one jitter, not the sum
            kmats[:, diag, diag] = kernel_diag + jitter
            try:
                return np.linalg.cholesky(kmats), index
            except np.linalg.LinAlgError:
                if jitter >= MAX_JITTER:
                    raise GpNumericalError(
                        f"Cholesky failed at maximum jitter {MAX_JITTER}") from None
                jitter *= 10.0

    def _factor(thetas, psis):
        """The cached (m, m, U) factor, (U,) log-determinants and (A*B,)
        index of the distinct pairs, factoring on a miss."""
        th = np.asarray(thetas, dtype=float)
        ps = np.asarray(psis, dtype=float)
        return _factor_nodes(th.shape, th.tobytes(), ps.shape, ps.tobytes())

    # a hit becomes the most recently used, so a simulation's new
    # (theta grid, psi*) product evicts the older one, not the grid
    @functools.lru_cache(maxsize=2)
    def _factor_nodes(th_shape, th_bytes, ps_shape, ps_bytes):
        chol, index = _batch_chol(np.frombuffer(th_bytes).reshape(th_shape),
                                  np.frombuffer(ps_bytes).reshape(ps_shape))
        log_det = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        factor = np.ascontiguousarray(np.moveaxis(chol, 0, 2))
        for arr in (factor, log_det, index):
            arr.flags.writeable = False
        return factor, log_det, index

    def log_likelihood(data: SourceData, thetas, psis) -> np.ndarray:
        if psis.ndim != 2:
            raise ValueError("the gp model keeps kernel factors per node product, so "
                             "psis must be a (B, k_psi) array, not per-observation "
                             f"rows of shape {psis.shape}")
        if data.outcomes.shape != (data.n, m):
            raise ValueError(f"trajectories must have length {m}, got outcomes of "
                             f"shape {data.outcomes.shape}")
        factor, log_det, index = _factor(thetas, psis)
        # forward substitution L z = y for every distinct factor at once, with
        # the U factors innermost, each row formed in place in the order of
        # z[i] = (y_i - sum_{j<i} L_ij z_j) / L_ii
        y = data.outcomes.T                                               # (m, n)
        z = np.empty((m, data.n, factor.shape[2]))
        for i, zi in enumerate(z):
            np.einsum("jk,jnk->nk", factor[i, :i], z[:i], out=zi)
            np.subtract(y[i, :, None], zi, out=zi)
            zi /= factor[i, i]
        ll = np.einsum("mnk,mnk->nk", z, z)                                # (n, U)
        ll *= -0.5
        ll -= log_det
        ll -= 0.5 * m * LOG_2PI
        # take, not fancy indexing: it returns C order, which the reductions
        # downstream need to sum in the order of an unshared product
        return ll.take(index, axis=1).reshape(data.n, thetas.shape[0], psis.shape[0])

    def simulate(covariates, theta, psi, rng) -> np.ndarray:
        factor, _, index = _factor(param_values(theta)[None, :], param_values(psi)[None, :])
        return factor[:, :, index[0]] @ rng.standard_normal(m)

    def log_predictive_mode_density(data, thetas, psis, belief) -> np.ndarray:
        # every component is a zero-mean Gaussian, so the belief mixture
        # attains its maximum at the zero trajectory, whatever the data
        _, log_det, index = _factor(thetas, psis)
        lm = (-log_det - 0.5 * m * LOG_2PI).take(index).reshape(len(thetas), len(psis))
        with np.errstate(divide="ignore"):
            lb = np.log(np.asarray(belief, dtype=float))
        return logsumexp(lm + lb[:, None], axis=0)[None, :]  # (1, B)

    return ModelSpec(
        name="gp",
        theta_support=support,
        psi_support=support.copy(),
        log_likelihood=log_likelihood,
        simulate=simulate,
        log_predictive_mode_density=log_predictive_mode_density,
    )


# ---------------------------------------------------------------------------
# discrete toy model
# ---------------------------------------------------------------------------

def discrete_toy_model(table) -> ModelSpec:
    """Categorical model indexed by (theta index, psi index).

    table[a][b] is the outcome distribution at theta node a, psi node b, so
    table is a nonempty (theta count, psi count, outcome count) array whose
    rows each sum to one.  Parameters are the node indices themselves.
    Deliberately tiny so every expectation downstream can be enumerated
    exactly.
    """

    table = np.asarray(table, dtype=float)
    if table.ndim != 3 or table.size == 0:
        raise ValueError(f"table must be a nonempty 3-d array, got shape {table.shape}")
    theta_count, psi_count, outcome_count = table.shape
    _check_normalized(table, "table", 1e-9, axis=2)

    with np.errstate(divide="ignore"):
        log_table = np.log(table)

    def log_likelihood(data: SourceData, thetas, psis) -> np.ndarray:
        a = np.rint(thetas[:, 0]).astype(int)
        b = np.rint(_task_column(psis)).astype(int)
        # a negative index would wrap round; one past the end already raises
        if a.min(initial=0) < 0 or b.min(initial=0) < 0:
            raise ValueError("toy node indices must be non-negative")
        y = data.outcomes.astype(int)
        return log_table[a[None, :, None], b, y[:, None, None]]

    def simulate(covariates, theta, psi, rng) -> int:
        a = int(round(param_values(theta)[0]))
        b = int(round(param_values(psi)[0]))
        if not (0 <= a < theta_count and 0 <= b < psi_count):
            raise ValueError(f"toy indices ({a}, {b}) out of range")
        return int(rng.choice(outcome_count, p=table[a, b]))

    return ModelSpec(
        name="discrete-toy",
        theta_support=np.array([[0.0, float(theta_count - 1)]]),
        psi_support=np.array([[0.0, float(psi_count - 1)]]),
        log_likelihood=log_likelihood,
        simulate=simulate,
        outcome_space=np.arange(outcome_count),
    )


def loglik_tensor(model: ModelSpec, data: SourceData, thetas, psis) -> np.ndarray:
    """Per-observation log-likelihoods, shape (n, A, B).

    The checked entry point to model.log_likelihood.  thetas is (A, k_theta).
    psis is (B, k_psi), evaluated against every observation (the parameter
    product), or (n, A, k_psi), aligned with the theta rows, so that cell
    [i, a, 0] is log p(d_i | thetas[a], psis[i, a]).  The gp model accepts
    only the product form.  NaNs are rejected with the offending
    observation named, since a NaN in a log-sum-exp would silently poison
    the whole posterior.
    """
    psis = np.asarray(psis, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if psis.ndim == 3 and psis.shape[:2] != (data.n, thetas.shape[0]):
        raise ValueError(f"aligned psis has {psis.shape[0]} x {psis.shape[1]} rows, "
                         f"data and thetas want {data.n} x {thetas.shape[0]}")
    out = model.log_likelihood(data, thetas, psis)
    # the min propagates NaN: one reduction, and the scan only on failure
    if math.isnan(out.min(initial=0.0)):
        _reject_nan_cell(out)
    return out


def loglik_sum(model: ModelSpec, data: SourceData, thetas: np.ndarray,
               psis: np.ndarray) -> list:
    """One sum per theta row of loglik_tensor(model, data, thetas, psis), a
    list of A floats: entry a sums the n x B cells [:, a, :].

    The checked entry point for a caller that needs the sums only, such as
    a Metropolis chain scoring several proposals at once.  thetas and psis
    must already be float arrays of the shapes loglik_tensor takes; they
    reach model.log_likelihood as they are.  Each row's cells are copied to
    one row of an (A, n B) array in C order and summed along it, so every
    sum has the bits of a sum over that row's cells as one contiguous
    vector.  A NaN cell survives into its row's sum, so the sums are the one
    reduction: the cells are scanned only when the sums add up to NaN, and a
    NaN cell in any row raises loglik_tensor's FloatingPointError.  A NaN
    sum with no NaN cell (a +inf and a -inf cell in one row) is returned as
    NaN.
    """
    out = model.log_likelihood(data, thetas, psis)
    # the copy is C order: a strided row would be summed in memory order
    sums = out.transpose(1, 0, 2).reshape(out.shape[1], -1).copy().sum(axis=1).tolist()
    if math.isnan(sum(sums)):
        _reject_nan_cell(out)
    return sums


def _reject_nan_cell(out: np.ndarray) -> None:
    """Raise FloatingPointError naming the first observation of the (n, A, B)
    cells out that holds a NaN; return if none does."""
    nan = np.argwhere(np.isnan(out))
    if nan.size:
        raise FloatingPointError(f"NaN log-likelihood at observation index {int(nan[0, 0])}")
