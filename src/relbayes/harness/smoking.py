"""Smoking-cessation case study: ingestion, fits, leave-one-study-out sweep.

Arms of 24 trials comparing four cessation interventions (A no contact,
B self-help, C individual counselling, D group counselling) are modeled as
binomial counts with a logit link: treatment effects are shared across
studies, each study gets its own intercept.

For each held-out study, the relevance-weighted learner pools the other
studies' arms under sigmoid-ratio weights, its prior carrying an imprecise
intercept estimate z ~ N(psi, sigma) as proxy information, while the
classic baseline fits per-study fixed effects and predicts the new study
through the proxy alone.  Both posteriors come from the same random-walk
sampler, so the external-sampler baseline of the original analysis is
approximated rather than reproduced.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from ..inference import metropolis_posterior
from ..models import LOG_2PI, SourceData, binomial_logit_model, loglik_tensor, logsumexp
from ..synthetic import gen_imprecise_estimate_proxy, task_rng

TREATMENTS = ("A", "B", "C", "D")
EXPECTED_STUDIES = 24
PRIOR_SD = 3.0
PROXY_SETTINGS = {
    "weak": (3.0, False),
    "strong": (0.1, False),
    "misleading": (3.0, True),
}
PREDICTIVE_QUAD_NODES = 40
PREDICTIVE_BLOCKS = 10


@dataclass(frozen=True)
class SmokingRecord:
    study_id: str
    treatment: str
    events: int
    total: int

    def __post_init__(self):
        if self.treatment not in TREATMENTS:
            raise ValueError(f"treatment must be one of {TREATMENTS}, "
                             f"got {self.treatment!r}")
        if self.total < 1:
            raise ValueError(f"total must be positive, got {self.total}")
        if not 0 <= self.events <= self.total:
            raise ValueError(f"events {self.events} outside [0, total={self.total}]")


def packaged_smoking_path() -> Path:
    return Path(resources.files("relbayes").joinpath("data/smoking_cessation.csv"))


def ingest_smoking_csv(path) -> list[SmokingRecord]:
    """Parse and validate the long-format arm table.

    Errors carry line numbers.  A study count other than 24 is legal but
    draws a warning, since the canonical dataset has exactly 24 trials.
    """
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    expected = ["study", "treatment", "events", "total"]
    if header != expected:
        missing = [c for c in expected if c not in header]
        if missing:
            raise ValueError(f"{path}:1: missing column(s) {missing}; "
                             f"expected header {','.join(expected)}")
        raise ValueError(f"{path}:1: expected header {','.join(expected)}, "
                         f"got {','.join(header)}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        study, treatment, events_s, total_s = parts
        try:
            events, total = int(events_s), int(total_s)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: events/total must be integers, "
                             f"got {events_s!r}/{total_s!r}") from None
        try:
            records.append(SmokingRecord(study, treatment, events, total))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no data rows")
    n_studies = len({r.study_id for r in records})
    if n_studies != EXPECTED_STUDIES:
        warnings.warn(f"{path}: {n_studies} distinct studies, expected "
                      f"{EXPECTED_STUDIES}", RuntimeWarning)
    return records


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def _arm_data(records) -> SourceData:
    """One binomial row per arm: the one-hot treatment, events of total."""
    treatments = [TREATMENTS.index(r.treatment) for r in records]
    return SourceData(np.eye(len(TREATMENTS))[treatments], [r.events for r in records],
                      [r.total for r in records])


def arms_by_study(records) -> dict:
    """Stable mapping study_id -> list of records, sorted for determinism."""
    out: dict = {}
    for r in sorted(records, key=lambda r: (r.study_id, r.treatment)):
        out.setdefault(r.study_id, []).append(r)
    return out


def _stacked_data(study_map: dict) -> tuple[SourceData, list[list[int]]]:
    """Every study's arms in one SourceData, and each study's row indices."""
    records, groups = [], []
    for study in study_map:
        groups.append(list(range(len(records), len(records) + len(study_map[study]))))
        records.extend(study_map[study])
    return _arm_data(records), groups


def _normal_prior(theta: np.ndarray, psi: np.ndarray) -> float:
    # Python floats after the dot products: numpy's IEEE operations, at less cost
    return -(float(theta.dot(theta)) + float(psi.dot(psi))) / (2.0 * PRIOR_SD ** 2)


def _prior_with_proxy(z: float, sigma: float):
    """The weighted chain's log prior: _normal_prior plus log N(z; psi, sigma),
    the term gen_imprecise_estimate_proxy's likelihood evaluates."""
    log_norm = -0.5 * LOG_2PI - float(np.log(sigma))
    return lambda theta, psi: (_normal_prior(theta, psi)
                               + (log_norm - 0.5 * ((z - float(psi[0])) / sigma) ** 2))


def fit_study_intercepts(records, n_samples: int, seed: int) -> dict:
    """Posterior-mean intercept per study from the all-data fixed-effects fit."""
    study_map = arms_by_study(records)
    data, groups = _stacked_data(study_map)
    chain = metropolis_posterior(binomial_logit_model(), data, _normal_prior,
                                 n_samples=n_samples, seed=seed, groups=groups)
    means = chain.psi_samples.mean(axis=0)
    return dict(zip(study_map.keys(), means))


# ---------------------------------------------------------------------------
# predictive densities
# ---------------------------------------------------------------------------

def _log_mean_exp_with_se(lls: np.ndarray) -> tuple[float, float]:
    value = float(logsumexp(lls) - np.log(lls.size))
    blocks = np.array_split(lls, PREDICTIVE_BLOCKS)
    ests = np.array([logsumexp(b) - np.log(b.size) for b in blocks])
    se = float(ests.std(ddof=1) / np.sqrt(len(ests)))
    return value, se


def _rweighted_predictive(model, held: SourceData, chain) -> tuple[float, float]:
    """E over the paired (theta, psi) draws of the held-out arms' likelihood.

    Every arm's covariates are one-hot, so x . theta + psi = x . (theta + psi):
    each draw's intercept folds into its treatment effects, and one model
    evaluation at a zero intercept pairs each theta with its own psi.
    """
    lls = loglik_tensor(model, held, chain.theta_samples + chain.psi_samples,
                        np.zeros((1, 1)))[:, :, 0].sum(axis=0)             # (S,)
    return _log_mean_exp_with_se(lls)


def _classic_predictive(model, held: SourceData, chain, z: float,
                        sigma: float) -> tuple[float, float]:
    """E over the theta chain and the conjugate intercept posterior given z.

    The intercept prior N(0, 3) combines with z ~ N(psi, sigma) into a
    normal posterior, integrated by Gauss-Hermite quadrature.
    """
    tau2, s2 = PRIOR_SD ** 2, sigma ** 2
    post_mean = z * tau2 / (s2 + tau2)
    post_sd = np.sqrt(s2 * tau2 / (s2 + tau2))
    nodes, weights = np.polynomial.hermite_e.hermegauss(PREDICTIVE_QUAD_NODES)
    psi_nodes = post_mean + post_sd * nodes
    log_w = np.log(weights) - 0.5 * np.log(2.0 * np.pi)

    lls = loglik_tensor(model, held, chain.theta_samples,
                        psi_nodes[:, None]).sum(axis=0)                     # (S, Q)
    per_sample = logsumexp(lls + log_w[None, :], axis=1)
    return _log_mean_exp_with_se(per_sample)


# ---------------------------------------------------------------------------
# leave-one-study-out comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionResult:
    """One held-out study's scores; the fields are partitions.csv's columns,
    in order."""

    proxy_mode: str
    held_out_study: str
    z_value: float
    psi_star_estimate: float
    log_pred_rweighted: float
    log_pred_classic: float
    log_ratio: float
    se_rweighted: float
    se_classic: float
    accept_rweighted: float
    accept_classic: float
    warning: Optional[str] = None


def run_smoking_comparison(records, proxy_mode: str, seed: int, n_samples: int, *,
                           intercepts: dict) -> list[PartitionResult]:
    """Leave-one-study-out predictive comparison under one proxy setting.

    Each partition holds out one study, fits both learners on the rest, and
    scores the held-out arms.  The proxy is an imprecise estimate of the
    held-out study's intercept, whose reference value is intercepts[study],
    the fit_study_intercepts result the CLI shares across proxy modes.
    """
    if proxy_mode not in PROXY_SETTINGS:
        raise ValueError(f"proxy_mode must be one of {sorted(PROXY_SETTINGS)}, "
                         f"got {proxy_mode!r}")
    study_map = arms_by_study(records)
    if len(study_map) < 2:
        raise ValueError("need at least 2 studies to hold one out")
    sigma, biased = PROXY_SETTINGS[proxy_mode]
    model = binomial_logit_model()

    results = []
    for k, held in enumerate(study_map):
        rng = task_rng(seed, k + 1)
        psi_star = float(intercepts[held])
        z = float(gen_imprecise_estimate_proxy(psi_star, sigma, biased, rng).payload)

        rest = {s: recs for s, recs in study_map.items() if s != held}
        data, groups = _stacked_data(rest)

        chain_r = metropolis_posterior(
            model, data, _prior_with_proxy(z, sigma), n_samples=n_samples,
            seed=int(rng.integers(2 ** 31)), init_psi=np.array([z]))
        chain_c = metropolis_posterior(
            model, data, _normal_prior, n_samples=n_samples,
            seed=int(rng.integers(2 ** 31)), groups=groups)

        held_data = _arm_data(study_map[held])
        lp_r, se_r = _rweighted_predictive(model, held_data, chain_r)
        lp_c, se_c = _classic_predictive(model, held_data, chain_c, z, sigma)
        notes = [w for w in (chain_r.warning, chain_c.warning) if w]
        results.append(PartitionResult(
            held_out_study=held, proxy_mode=proxy_mode, z_value=z,
            psi_star_estimate=psi_star, log_pred_rweighted=lp_r,
            log_pred_classic=lp_c, log_ratio=lp_r - lp_c,
            se_rweighted=se_r, se_classic=se_c,
            accept_rweighted=chain_r.acceptance_rate,
            accept_classic=chain_c.acceptance_rate,
            warning="; ".join(notes) if notes else None))
    return results


def partition_rows(results: list[PartitionResult]) -> list[dict]:
    return [asdict(r) for r in results]


PARTITION_COLUMNS = [f.name for f in fields(PartitionResult)]

BASELINE_NOTE = ("classic baseline: per-study fixed-effects model sampled with "
                 "the same random-walk kernel as the weighted learner, standing "
                 "in for an external sampler; held-out intercept integrated in "
                 "closed form against the proxy.")
