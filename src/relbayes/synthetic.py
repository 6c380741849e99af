"""Seeded generators for the simulation studies.

Three experimental setups live here: a linear-regression setup whose
multicollinearity knob makes the shared and task effects hard to tell
apart, an expert-prompt proxy on a 0-7 agreement scale with optional
contamination, and a GP trajectory setup where tasks differ through kernel
lengthscales.  A small imprecise-estimate proxy covers the observational
case study.

Every generator is a pure function of its arguments and the
np.random.Generator it draws from; task_rng gives one counter-based Philox
stream per (master_seed, index), so parallel sweeps stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import math

import numpy as np

from .inference import ProxyObservation
from .models import LOG_2PI, ModelSpec, SourceData, loglik_tensor, logsumexp, \
    param_values
from .relevance import MAX_REFINEMENTS

PROXY_TRIALS = 7
PROB_FLOOR = 1e-9

LINEAR_THETA_STAR = -1.0
GP_PSI_SHAPE = 3.0
GP_PSI_SCALE = 0.8


def task_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream number `index` of a master seed."""
    if master_seed < 0 or index < 0:
        raise ValueError("master_seed and index must be nonnegative")
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# scenario types
# ---------------------------------------------------------------------------

def _check_pct(value: float, name: str):
    if not 0.0 <= value <= 100.0:
        raise ValueError(f"{name} must be a percentage in [0, 100], got {value}")


@dataclass(frozen=True)
class LinearScenario:
    multicollinearity: float = 0.0
    n_outcome: int = 75
    n_proxy_prompts: int = 25
    target_resemblance_pct: float = 100.0
    contamination_pct: float = 0.0

    def __post_init__(self):
        if self.n_outcome < 1:
            raise ValueError(f"n_outcome must be positive, got {self.n_outcome}")
        if self.n_proxy_prompts < 1:
            raise ValueError(f"n_proxy_prompts must be positive, got {self.n_proxy_prompts}")
        _check_pct(self.target_resemblance_pct, "target_resemblance_pct")
        _check_pct(self.contamination_pct, "contamination_pct")


@dataclass(frozen=True)
class GpScenario:
    n_trajectories: int = 24
    m_target: int = 12
    m_source: int = 8
    resolution: int = 10
    theta_star: float = 1.0
    contamination_pct: float = 0.0
    refinement_T: int = 3

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be positive")
        if not 0 <= self.m_source <= self.n_trajectories:
            raise ValueError("m_source must lie in [0, n_trajectories]")
        if not 0 <= self.m_target <= self.n_trajectories:
            raise ValueError("m_target must lie in [0, n_trajectories]")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.theta_star <= 0:
            raise ValueError("theta_star is a lengthscale and must be positive")
        _check_pct(self.contamination_pct, "contamination_pct")
        t = self.refinement_T
        if not isinstance(t, (int, np.integer)) or not 0 <= t <= MAX_REFINEMENTS:
            raise ValueError(f"refinement_T must be an integer in [0, {MAX_REFINEMENTS}], "
                             f"got {t!r}")


# ---------------------------------------------------------------------------
# linear-regression covariates
# ---------------------------------------------------------------------------

def gen_linear_covariates(rho_c: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Covariate rows (x1, x2) with tunable collinearity, shape (count, 2).

    A latent x' ~ N(rho_c, 0.25) drives both columns: x1 ~ N(x', 0.25) and
    x2 ~ N(-rho_c^2 / x', 0.25).  Larger rho_c therefore pushes x1 and x2
    toward a deterministic inverse relationship.  Latents within 1e-6 of
    zero are redrawn to keep the division safe; at rho_c = 0 the numerator
    vanishes and x2 is plain N(0, 0.25) noise.
    """
    if count < 1:
        raise ValueError("count must be positive")
    sd = np.sqrt(0.25)
    latent = rng.normal(rho_c, sd, size=count)
    for _ in range(100):
        bad = np.abs(latent) < 1e-6
        if not np.any(bad):
            break
        latent[bad] = rng.normal(rho_c, sd, size=bad.sum())
    x1 = rng.normal(latent, sd)
    x2 = rng.normal(-(rho_c ** 2) / latent, sd)
    return np.column_stack([x1, x2])


# ---------------------------------------------------------------------------
# expert-prompt proxy (0-7 agreement scale)
# ---------------------------------------------------------------------------

def prompt_agreement(model: ModelSpec, prompts, psi_nodes, theta_nodes=None,
                     theta_prior=None) -> np.ndarray:
    """Probability that an expert endorses each prompt as target-like.

    Returns a (J, B) array for J prompts and the B rows of psi_nodes
    (B, k_psi).  Each prompt's likelihood is marginalized over the theta
    prior and divided by the modal density of that marginal predictive, so
    the result lives in [0, 1].  The linear model admits a closed form:
    theta integrates out to a Gaussian in the outcome with variance
    1 + x1^2, whose own mode is the normalizer, leaving
    exp(-resid^2 / (2 var)).  Other models marginalize over the supplied
    theta grid and normalize by the model's log_predictive_mode_density at
    the theta prior, exact for the trajectory model where every component
    peaks at the zero trajectory.
    """
    prompts = SourceData(tuple(prompts))
    psi = np.asarray(psi_nodes, dtype=float)
    if psi.ndim != 2:
        raise ValueError(f"psi_nodes must be a (B, k_psi) array, got shape {psi.shape}")
    if model.name == "linear":
        x = prompts.covariates                                  # (J, 2)
        var = 1.0 + x[:, 0] ** 2
        resid = prompts.outcomes[:, None] - psi[None, :, 0] * x[:, 1, None]  # (J, B)
        return np.exp(-0.5 * resid ** 2 / var[:, None])
    if theta_nodes is None or theta_prior is None:
        raise ValueError(f"model {model.name!r} needs theta_nodes and theta_prior "
                         "to marginalize the prompt likelihood")
    if model.log_predictive_mode_density is None:
        raise ValueError(f"model {model.name!r} has no mode density to normalize with")
    thetas = np.asarray(theta_nodes, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    lls = loglik_tensor(model, prompts, thetas, psi)                        # (J, A, B)
    with np.errstate(divide="ignore"):
        log_prior = np.log(np.asarray(theta_prior, dtype=float))
    log_p = (logsumexp(lls + log_prior[None, :, None], axis=1)
             - model.log_predictive_mode_density(prompts, thetas, psi, theta_prior))
    return np.minimum(1.0, np.exp(log_p))


_LOG_BINOM_COEF = np.array([math.log(math.comb(PROXY_TRIALS, z))
                            for z in range(PROXY_TRIALS + 1)])


def gen_expert_proxy(model: ModelSpec, prompts, psi_target_star,
                     contamination_pct: float, rng: np.random.Generator, theta_nodes=None,
                     theta_prior=None) -> ProxyObservation:
    """Simulated expert ratings z_j ~ Binomial(7, p~_j), one per prompt.

    p~_j is the prompt's agreement probability at the true target task
    parameter.  A contaminated_pct share of prompts (exact count, rounded,
    positions drawn without replacement) is answered adversarially from
    Binomial(7, 1 - p~_j).  The returned observation's payload is the tuple
    of ratings, and its likelihood, which always models the clean process,
    is the sum over prompts of the binomial log-pmfs.
    """
    prompts = tuple(prompts)
    if len(prompts) == 0:
        raise ValueError("prompts must be nonempty")
    _check_pct(contamination_pct, "contamination_pct")
    psi_star = param_values(psi_target_star)

    n = len(prompts)
    n_bad = int(round(contamination_pct * n / 100.0))
    bad = np.zeros(n, dtype=bool)
    if n_bad > 0:
        bad[rng.choice(n, size=n_bad, replace=False)] = True

    p_star = prompt_agreement(model, prompts, psi_star[None, :], theta_nodes,
                              theta_prior)[:, 0]
    ratings = tuple(int(rng.binomial(PROXY_TRIALS, 1.0 - p if bad[j] else p))
                    for j, p in enumerate(p_star))

    def ratings_loglik(payload, psi_nodes) -> np.ndarray:
        p = np.clip(prompt_agreement(model, prompts, psi_nodes, theta_nodes, theta_prior),
                    PROB_FLOOR, 1.0 - PROB_FLOOR)                       # (J, B)
        z = np.asarray(payload, dtype=int)
        if z.shape != (len(prompts),) or np.any((z < 0) | (z > PROXY_TRIALS)):
            raise ValueError(f"payload must hold one rating in [0, {PROXY_TRIALS}] "
                             f"per prompt ({len(prompts)}), got {payload!r}")
        z = z[:, None]
        return (_LOG_BINOM_COEF[z] + z * np.log(p)
                + (PROXY_TRIALS - z) * np.log1p(-p)).sum(axis=0)

    return ProxyObservation(payload=ratings, proxy_log_likelihood=ratings_loglik)


# ---------------------------------------------------------------------------
# linear experiment assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearInstance:
    """One linear draw; the truth is theta* (1,), psi* (n, 1), one row per
    source observation, and the target's psi* (1,)."""

    source: SourceData
    prompts: tuple
    proxy: ProxyObservation
    theta_star: np.ndarray
    psi_star: np.ndarray
    psi_target_star: np.ndarray


def gen_linear_instance(scenario: LinearScenario, rng: np.random.Generator) -> LinearInstance:
    """One full draw of the linear experiment.

    The true shared effect is fixed at -1.  The target task parameter is
    drawn fresh from its N(0, 1) prior each time; a target_resemblance_pct
    share of source observations (exact count, rounded) gets the target's
    task parameter and the remainder sit at the prior mean 0.  Expert
    prompts are drawn from the same covariate generator and answered under
    the target task.
    """
    from .models import linear_model

    model = linear_model()
    theta_star = param_values(LINEAR_THETA_STAR)
    psi_target = param_values(rng.normal(0.0, 1.0))

    n = scenario.n_outcome
    n_like = int(round(scenario.target_resemblance_pct * n / 100.0))
    psi_vals = np.zeros(n)
    if n_like > 0:
        psi_vals[rng.choice(n, size=n_like, replace=False)] = psi_target[0]

    x_source = gen_linear_covariates(scenario.multicollinearity, n, rng)
    source = SourceData(tuple(model.simulate(x_source[i], theta_star, psi_vals[i], rng)
                              for i in range(n)))

    x_prompt = gen_linear_covariates(scenario.multicollinearity,
                                     scenario.n_proxy_prompts, rng)
    prompts = tuple(model.simulate(x_prompt[j], theta_star, psi_target, rng)
                    for j in range(scenario.n_proxy_prompts))
    proxy = gen_expert_proxy(model, prompts, psi_target, scenario.contamination_pct, rng)
    return LinearInstance(source=source, prompts=prompts, proxy=proxy,
                          theta_star=theta_star, psi_star=psi_vals[:, None],
                          psi_target_star=psi_target)


# ---------------------------------------------------------------------------
# GP trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GpInstance:
    """One gp draw; the truth is theta* (1,), psi* (n, 1), one row per
    source trajectory, and the target's psi* (1,)."""

    source: SourceData
    prompts: tuple
    theta_star: np.ndarray
    psi_star: np.ndarray
    psi_target_star: np.ndarray
    x_grid: np.ndarray = field(repr=False)


def gen_gp_trajectories(scenario: GpScenario, rng: np.random.Generator) -> GpInstance:
    """Trajectory draws for the GP experiment.

    Trajectories 1..m_target come from the target task (all sharing the
    freshly drawn psi*), the rest from per-trajectory Gamma(3, scale 0.8)
    task draws.  The first m_source trajectories are set aside as expert
    prompts and the last m_source form the source data, so raising m_target
    slides target-task trajectories into the source set.
    """
    from .models import gp_model

    x = np.linspace(0.0, 1.0, scenario.resolution)
    model = gp_model(x)
    theta_star = param_values(scenario.theta_star)
    psi_target = param_values(rng.gamma(GP_PSI_SHAPE, GP_PSI_SCALE))

    n = scenario.n_trajectories
    psis = np.empty(n)
    trajectories = []
    for i in range(n):
        psis[i] = (psi_target[0] if i < scenario.m_target
                   else rng.gamma(GP_PSI_SHAPE, GP_PSI_SCALE))
        trajectories.append(model.simulate(x, theta_star, psis[i], rng))

    m_s = scenario.m_source
    source = slice(n - m_s, None) if m_s > 0 else slice(None)
    return GpInstance(source=SourceData(tuple(trajectories[source])),
                      prompts=tuple(trajectories[:m_s]), theta_star=theta_star,
                      psi_star=psis[source, None], psi_target_star=psi_target, x_grid=x)


# ---------------------------------------------------------------------------
# imprecise-estimate proxy (observational case study)
# ---------------------------------------------------------------------------

def gen_imprecise_estimate_proxy(psi_target_star, sigma: float, bias_flag: bool,
                                 rng: np.random.Generator) -> ProxyObservation:
    """A noisy scalar estimate of the target task parameter.

    z is drawn from N(psi*, sigma) with, when bias_flag is set, an extra
    N(0, 3) offset drawn once.  The learner's likelihood stays the clean
    N(psi, sigma) model either way.  sigma and the bias scale are standard
    deviations.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    psi_star = param_values(psi_target_star)
    z = float(rng.normal(psi_star[0], sigma))
    if bias_flag:
        z += float(rng.normal(0.0, 3.0))

    log_norm = -0.5 * LOG_2PI - np.log(sigma)

    def pll(payload, psi_nodes) -> np.ndarray:
        return log_norm - 0.5 * ((payload - psi_nodes[:, 0]) / sigma) ** 2

    return ProxyObservation(payload=z, proxy_log_likelihood=pll)
