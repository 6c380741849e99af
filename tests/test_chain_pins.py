"""Pinned Metropolis chains on the packaged smoking data.

Each chain's samples are hashed (sha256 over the theta then the psi sample
bytes) and compared, with its acceptance rate, to literals recorded before
the sampler's per-step work was cut: a weighted chain and a fixed-effects
chain of the partition that holds out study 01, the all-data
fixed-effects fit behind fit_study_intercepts, and a weighted chain on that
partition cut to fewer than models.N_UNIT arms, which takes the two-column
sigmoid-ratio step.  So all three step kinds are pinned.  One end-to-end pin covers
the whole weak-proxy partition that holds out study 01 at the benchmark's
6,000 iterations: the intercept fit, both chains and the predictive scores,
hashed over the repr of its partition_rows, which round-trips every float
exactly; its literal was recorded before the sampler kept its per-chain
constants.  A change to the sampler, the binomial model or the
sigmoid-ratio weights that moves any chain by one bit fails here, so
"bit-identical chains" is checked, not claimed.

A chain can keep every state while its log-target drifts by an ulp, so
each chain also pins a sha256 over the float bits of its log-target at
each distinct kept state, the first of each run of equal consecutive
draws, evaluated in order by the scorer the chain uses
(test_metropolis_step._chain_log_target).  These literals were recorded
before the binomial model shared one logaddexp between its two softplus
terms.
"""

import hashlib

import numpy as np
import pytest

from relbayes.harness import smoking
from relbayes.inference import metropolis_posterior
from relbayes.models import N_UNIT, SourceData, binomial_logit_model
from relbayes.synthetic import gen_imprecise_estimate_proxy
from test_metropolis_step import _chain_log_target, _obs_group

PROXY_SD = 1.0

N_SAMPLES = 2000
WEIGHTED = ("7ae8f3cbe89e70986acdb55746dacf668f621f72d384021c2b9d7b995d6a20d2",
            0.04933333333333333)
FIXED_EFFECTS = ("19aa83f5c6c96f997ec319d2595eaf4eaa59c49ab42c7eb98e5fdff967208a19",
                 0.024)
ALL_DATA = ("1c1cd8fba89b67a7679e995935ee1dda327f405716c374ec47bb62e9f8322e16",
            0.018666666666666668)
SMALL_ARMS = 20
TWO_COLUMN = ("4fb478b917ffb7b00f0a4a325f3cf4bb4a739daa340e4c9f6296d716c9c9f0b6",
              0.08666666666666667)
# sha256 of the 24 posterior-mean intercepts, in study order
INTERCEPT_MEANS = "52f73faffccb1d46b80fe6e66b5d8efe4d6db723c1189b0cb994fff066284a4c"
# (distinct kept states, sha256 of the log-target at them), chain by chain
WEIGHTED_LOG_TARGET = (75, "cdb981a8451f4b37a169d604dd9726098368e65df785ad35257b2c0e5fcd4842")
FIXED_EFFECTS_LOG_TARGET = (
    36, "7a79fa19dabe71474c41814fc8d0555be954ece2276de8532c29558e69429f9a")
ALL_DATA_LOG_TARGET = (29, "87fa0f37634a5919d8841aef5a1d07ea36f76cf6081c963f06c9185e04506e30")
TWO_COLUMN_LOG_TARGET = (
    131, "4948c5f64f588096ec36175e77c9a3af5af4c9e6d2ea46438068893d68bc5cd9")

# 2,000 iterations adapt too briefly to reach the acceptance band
pytestmark = pytest.mark.filterwarnings("ignore:acceptance rate")


def _pin(chain) -> tuple:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(chain.theta_samples).tobytes())
    digest.update(np.ascontiguousarray(chain.psi_samples).tobytes())
    return digest.hexdigest(), chain.acceptance_rate


def _log_target_pin(chain, data, prior, groups=None) -> tuple:
    states = np.hstack([chain.theta_samples, chain.psi_samples])
    distinct = states[np.r_[True, (states[1:] != states[:-1]).any(axis=1)]]
    log_target = _chain_log_target(binomial_logit_model(), data, prior,
                                   None if groups is None else _obs_group(groups, data.n))
    values = np.array([log_target(state) for state in distinct])
    return len(distinct), hashlib.sha256(values.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def study_map():
    return smoking.arms_by_study(smoking.ingest_smoking_csv(smoking.packaged_smoking_path()))


@pytest.fixture(scope="module")
def partition(study_map):
    """The source data, groups and proxy value z of the partition holding out study 01."""
    rest = {s: records for s, records in study_map.items() if s != "01"}
    data, groups = smoking._stacked_data(rest)
    assert (data.n, len(groups)) == (47, 23)
    proxy = gen_imprecise_estimate_proxy(0.25, PROXY_SD, False, np.random.default_rng(7))
    return data, groups, proxy.payload


def test_weighted_chain_is_pinned(partition):
    """The proxy's N(z; psi, 1) log-density enters through the chain's prior,
    as the sweep passes it."""
    data, _, z = partition
    prior = smoking._prior_with_proxy(z, PROXY_SD)
    chain = metropolis_posterior(binomial_logit_model(), data, prior,
                                 n_samples=N_SAMPLES, seed=101, init_psi=np.array([z]))
    assert _pin(chain) == WEIGHTED
    assert _log_target_pin(chain, data, prior) == WEIGHTED_LOG_TARGET


def test_two_column_weighted_chain_is_pinned(partition):
    """The first SMALL_ARMS arms only: below N_UNIT arms the weighted step
    evaluates the null column and forms the sigmoid-ratio weights."""
    data, _, z = partition
    assert SMALL_ARMS < N_UNIT
    small = SourceData(data.covariates[:SMALL_ARMS], data.outcomes[:SMALL_ARMS],
                       data.trial_counts[:SMALL_ARMS])
    prior = smoking._prior_with_proxy(z, PROXY_SD)
    chain = metropolis_posterior(binomial_logit_model(), small, prior,
                                 n_samples=N_SAMPLES, seed=104, init_psi=np.array([z]))
    assert _pin(chain) == TWO_COLUMN
    assert _log_target_pin(chain, small, prior) == TWO_COLUMN_LOG_TARGET


def test_fixed_effects_chain_is_pinned(partition):
    data, groups, _ = partition
    chain = metropolis_posterior(binomial_logit_model(), data, smoking._normal_prior,
                                 n_samples=N_SAMPLES, seed=102, groups=groups)
    assert _pin(chain) == FIXED_EFFECTS
    assert _log_target_pin(chain, data, smoking._normal_prior, groups) \
        == FIXED_EFFECTS_LOG_TARGET


def test_all_data_intercept_fit_is_pinned(study_map):
    data, groups = smoking._stacked_data(study_map)
    chain = metropolis_posterior(binomial_logit_model(), data, smoking._normal_prior,
                                 n_samples=N_SAMPLES, seed=103, groups=groups)
    assert _pin(chain) == ALL_DATA
    assert _log_target_pin(chain, data, smoking._normal_prior, groups) == ALL_DATA_LOG_TARGET
    records = [r for recs in study_map.values() for r in recs]
    means = smoking.fit_study_intercepts(records, N_SAMPLES, 103)
    assert list(means) == list(study_map)
    assert hashlib.sha256(np.array(list(means.values())).tobytes()).hexdigest() \
        == INTERCEPT_MEANS


PARTITION_SAMPLES = 6000
PARTITION_ROWS = "4077eb46cf2c10fb694ff8e347e4a1034e610467fda28d30e303b485a4d84fe8"


class _FirstStudyOnly(dict):
    """A study map that iterates over study 01 alone but keeps every study
    for the pooled source data; 01 is the first study, so its partition draws
    from the same task stream as in a full sweep."""

    def __iter__(self):
        return iter(["01"])


def test_held_out_partition_rows_are_pinned(study_map, monkeypatch):
    records = [r for recs in study_map.values() for r in recs]
    intercepts = smoking.fit_study_intercepts(records, PARTITION_SAMPLES, 20240)
    monkeypatch.setattr(smoking, "arms_by_study", lambda recs: _FirstStudyOnly(study_map))
    results = smoking.run_smoking_comparison(records, "weak", 1, PARTITION_SAMPLES,
                                             intercepts=intercepts)
    rows = smoking.partition_rows(results)
    assert [row["held_out_study"] for row in rows] == ["01"]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PARTITION_ROWS
