"""The Metropolis step against the log-target it replaced, and its error paths.

The sampler builds its scorer once per chain (inference._chain_scorer) and
keeps what does not change within the chain.  Both kinds, sigmoid-ratio
and fixed effects, are compared, bit for bit, with the per-step oracle in
_scalar_reference at a few hundred random states, including states outside
the prior's support; the sigmoid-ratio kind both where it forms its weights
from the null column and where, with a pmf and N_UNIT or more arms, every
weight is 1.0 and it evaluates the state's theta alone.  The smoking
weighted chain's prior, which carries the proxy's log-density, is held to
the oracle's retired proxy argument.  The chain scores up to PREFETCH
proposals in one model call, and every batch size, at every offset in its
candidate buffer, is held to the same oracle.  Model evaluations are
counted at the model's own log_likelihood: none for a lone state of -inf
prior density, and one of n cells per proposal, at most PREFETCH
proposals per call, on the 47-arm chains.  The error tests hold each
failure that could occur mid-chain to the exception the oracle raises,
raised only at a proposal the chain reaches, and check that warnings
raised inside user callables (the prior and the model) still reach the
caller.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from _scalar_reference import metropolis_log_target, sigmoid_ratio_weights as oracle_weights
from relbayes import inference
from relbayes.harness import smoking
from relbayes.inference import (PREFETCH, McmcInitError, _chain_scorer, _log_target,
                                metropolis_posterior)
from relbayes.models import (N_UNIT, DegenerateRelevanceError, ModelSpec, SourceData,
                             binomial_logit_model, discrete_toy_model, linear_model,
                             sigmoid_ratio_weights)
from relbayes.synthetic import gen_imprecise_estimate_proxy

N_STATES = 240
SEED = 20261018
PROXY_SD = 3.0


def _std_normal_prior(theta, psi):
    return float(-0.5 * (theta @ theta + psi @ psi))


def _box_prior(hi):
    """Flat on [0, hi] in every coordinate, -inf outside."""

    def prior(theta, psi):
        vec = np.concatenate([theta, psi])
        return 0.0 if vec.min() >= 0.0 and vec.max() <= hi else -np.inf

    return prior


def _obs_group(groups, n):
    obs_group = np.empty(n, dtype=int)
    for gi, g in enumerate(groups):
        obs_group[g] = gi
    return obs_group


def _chain_log_target(model, data, prior, obs_group):
    """The chain's log-target at one stacked (theta, psi) state, as the
    sampler forms it at its initial state."""
    groups = 1 if obs_group is None else obs_group.max() + 1
    cands, score = _chain_scorer(model, data, obs_group, model.k_theta + model.k_psi * groups)
    return lambda vec: _log_target(prior, cands, score, model.k_theta, vec)


def _new_and_old(model, data, prior, groups=None):
    obs_group = None if groups is None else _obs_group(groups, data.n)
    return (_chain_log_target(model, data, prior, obs_group),
            metropolis_log_target(model, data, None, prior, groups))


def _assert_same_at(states, new, old):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([new(v) for v in states])
    want = np.array([old(v) for v in states])
    assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    return got


@pytest.fixture(scope="module")
def partition():
    """The 47 arms, 23 groups and a weak proxy (sd PROXY_SD) of the partition
    holding out study 01."""
    study_map = smoking.arms_by_study(smoking.ingest_smoking_csv(smoking.packaged_smoking_path()))
    data, groups = smoking._stacked_data({s: r for s, r in study_map.items() if s != "01"})
    proxy = gen_imprecise_estimate_proxy(0.25, PROXY_SD, False, np.random.default_rng(7))
    return data, groups, proxy


def _small_binomial(rng, n=7, trials=8):
    return SourceData(*zip(*[(rng.normal(size=4), int(rng.integers(0, trials + 1)), trials)
                             for _ in range(n)]))


def _two_intercept_model() -> ModelSpec:
    """Gaussian y ~ N(theta x1 + psi_0 x2 + psi_1, 1): a k_psi = 2 model, so
    the fixed-effects gather has more than one coordinate per group.  It
    reads the aligned (n, A, 2) psi form only, the one the chain passes."""
    base = linear_model()

    def log_likelihood(data, thetas, psis):
        x = data.covariates
        mean = (x[:, 0, None, None] * thetas[None, :, 0, None]
                + x[:, 1, None, None] * psis[..., :1] + psis[..., 1:])
        return -0.5 * (data.outcomes[:, None, None] - mean) ** 2

    return dataclasses.replace(base, name="two-intercept",
                               psi_support=np.array([[-10.0, 10.0], [-10.0, 10.0]]),
                               log_likelihood=log_likelihood)


def _first_arms(data: SourceData, n: int) -> SourceData:
    return SourceData(data.covariates[:n], data.outcomes[:n], data.trial_counts[:n])


class TestStepEqualsOracle:
    # data kind -> (psi spread, whether the step skips the null column): the
    # 47-arm partition and its first N_UNIT arms take the one-column step,
    # checked far into the tails; one arm fewer, and 7 random arms, whose
    # wide psi moves the null pool from saturated weights to weights below
    # 1, keep the weighted step
    KINDS = {"partition": (15.0, True), "n-unit": (15.0, True),
             "below-n-unit": (15.0, False), "small": (4.0, False)}

    @pytest.mark.parametrize("data_kind", list(KINDS))
    def test_sigmoid_ratio_kind(self, partition, monkeypatch, data_kind):
        psi_sd, one_column = self.KINDS[data_kind]
        rng = np.random.default_rng(SEED)
        data, _, proxy = partition
        if data_kind == "small":
            data = _small_binomial(rng)
        elif data_kind != "partition":
            data = _first_arms(data, N_UNIT if data_kind == "n-unit" else N_UNIT - 1)
        weight_calls = []

        def counted(*args):
            weight_calls.append(1)
            return sigmoid_ratio_weights(*args)

        monkeypatch.setattr(inference, "sigmoid_ratio_weights", counted)
        new, old = _new_and_old(binomial_logit_model(), data,
                                smoking._prior_with_proxy(proxy.payload, PROXY_SD))
        states = np.hstack([rng.normal(0.0, 1.5, size=(N_STATES, 4)),
                            rng.normal(0.0, psi_sd, size=(N_STATES, 1))])
        got = _assert_same_at(states, new, old)
        assert np.isfinite(got).all()
        assert (len(weight_calls) == 0) == one_column

    @pytest.mark.parametrize("mode", sorted(smoking.PROXY_SETTINGS))
    def test_smoking_prior_carries_the_proxy_term(self, partition, mode):
        """The weighted chain's prior with the proxy term folded in gives the
        log-target the oracle forms from the plain prior and the proxy
        observation, to rounding in the order of the sum, under every proxy
        setting of the sweep."""
        rng = np.random.default_rng(SEED)
        data, _, _ = partition
        sigma, biased = smoking.PROXY_SETTINGS[mode]
        proxy = gen_imprecise_estimate_proxy(0.25, sigma, biased, rng)
        model = binomial_logit_model()
        new = _chain_log_target(model, data, smoking._prior_with_proxy(proxy.payload, sigma),
                                None)
        old = metropolis_log_target(model, data, proxy, smoking._normal_prior)
        states = np.hstack([rng.normal(0.0, 1.5, size=(200, 4)),
                            rng.normal(proxy.payload, 4.0, size=(200, 1))])
        got = np.array([new(v) for v in states])
        assert np.isfinite(got).all()
        assert_allclose(got, [old(v) for v in states], rtol=1e-12, atol=0)

    def test_sigmoid_ratio_weights_keep_the_formula(self):
        """The weights the relevance module and the sampler share, clamped
        exponent and all, equal the errstate formula on each (n, 1) column
        bit for bit, saturated columns too."""
        rng = np.random.default_rng(SEED)
        null = -rng.gamma(1.0, 1.0, size=(9, 40)) * np.geomspace(1e-3, 1e3, 40)
        for b in range(null.shape[1]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the clamp leaves exp nothing to overflow
                got = sigmoid_ratio_weights(null[:, b], np.log(9))
            assert got.tobytes() == oracle_weights(null[:, b:b + 1])[:, 0].tobytes(), b
        assert (got == 1.0).all()
        assert (sigmoid_ratio_weights(null[:, 0], np.log(9)) < 1.0).all()

    def test_sigmoid_ratio_weights_stay_one_beside_a_huge_null_loss(self):
        """One arm at -3e15 among 37 at 0: the exact ratio of the first arm
        is 38, so every weight is 1.  The pool is subtracted before log n is
        added, so rounding the pool cannot take log n out of the exponent."""
        null = np.r_[-3e15, np.zeros(37)]
        got = sigmoid_ratio_weights(null, np.log(38))
        assert (got == 1.0).all(), got[0]
        assert got.tobytes() == oracle_weights(null[:, None])[:, 0].tobytes()

    def test_sigmoid_ratio_weights_reject_a_non_finite_pool(self):
        """A -inf null log-likelihood makes the pooled likelihood zero; a
        +inf one would make some weight nan, which the range check rejects."""
        null = np.array([-1.0, -2.0, -3.0])
        for value, error, match in [(-np.inf, DegenerateRelevanceError, "pooled likelihood"),
                                    (np.inf, ValueError, r"\[0, 1\]")]:
            null[1] = value
            with pytest.raises(error, match=match) as info:
                sigmoid_ratio_weights(null, np.log(3))
            assert info.type is error

    @pytest.mark.parametrize("model_kind", ["binomial", "two-intercept"])
    def test_fixed_effects_with_groups(self, partition, model_kind):
        rng = np.random.default_rng(SEED)
        if model_kind == "binomial":
            data, groups, _ = partition
            model, prior = binomial_logit_model(), smoking._normal_prior
        else:
            model, prior = _two_intercept_model(), _std_normal_prior
            data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(9)]))
            groups = [[0, 4], [1, 2, 8], [3], [5, 6, 7]]
        new, old = _new_and_old(model, data, prior, groups)
        dim = model.k_theta + model.k_psi * len(groups)
        _assert_same_at(rng.normal(0.0, 1.5, size=(N_STATES, dim)), new, old)

    # the target's relevance weights: sigmoid-ratio, or None for fixed effects
    @pytest.mark.filterwarnings("ignore:acceptance rate")
    @pytest.mark.parametrize("weights", ["sigmoid-ratio", None])
    def test_neg_inf_prior_makes_no_model_call(self, partition, weights):
        """A lone state of -inf prior density is rejected before any model
        call, counted at the model's own log_likelihood, so the test holds
        whichever checked entry point the step calls.  A chain scores the
        proposals of a batch before their priors are read, so there a state
        of -inf prior is rejected whatever the model returns for it: a model
        that puts +inf on every state outside the prior's box, which any
        acceptance test would take, leaves the chain inside the box."""
        data, groups, _ = partition
        cells = []
        obs_group = _obs_group(groups, data.n) if weights is None else None
        psi_dim = len(groups) if weights is None else 1
        log_target = _chain_log_target(_counting(binomial_logit_model(), cells), data,
                                       _box_prior(1.0), obs_group)
        outside = np.full(4 + psi_dim, 0.5)
        outside[0] = -0.1
        assert log_target(outside) == -np.inf
        assert cells == []
        inside = np.full(4 + psi_dim, 0.5)
        assert np.isfinite(log_target(inside))
        assert cells == [data.n]

        base = binomial_logit_model()
        scored_outside = []

        def log_likelihood(data, thetas, psis):
            out = base.log_likelihood(data, thetas, psis)
            # the chain passes aligned (n, A, 1) psis: every arm's intercept
            far = ((thetas < 0.0) | (thetas > 1.0)).any(axis=1) \
                | ((psis < 0.0) | (psis > 1.0)).any(axis=(0, 2))
            scored_outside.append(int(far.sum()))
            out[:, far] = np.inf
            return out

        model = dataclasses.replace(base, log_likelihood=log_likelihood)
        chain = metropolis_posterior(model, data, _box_prior(1.0), n_samples=1000, seed=5,
                                     groups=groups if weights is None else None,
                                     init_psi=np.full(psi_dim, 0.5))
        assert sum(scored_outside) > 0
        for samples in (chain.theta_samples, chain.psi_samples):
            assert samples.min() >= 0.0 and samples.max() <= 1.0

    # (model calls, cells) of the seed-5 chains below
    BATCHED_CALLS = {"sigmoid-ratio": (177, 49303), None: (180, 49961)}

    @pytest.mark.filterwarnings("ignore:acceptance rate")
    @pytest.mark.parametrize("weights", ["sigmoid-ratio", None])
    def test_one_model_evaluation_per_batch(self, partition, weights):
        """A chain on the 47 arms evaluates the model at its initial state
        and then once per batch of at most PREFETCH proposals, one cell per
        arm and proposal: the proposal's theta alone on the sigmoid-ratio
        step (47 >= N_UNIT) and each arm's own intercept on the
        fixed-effects step.  The counts of calls and cells are pinned for
        seed 5."""
        data, groups, _ = partition
        assert data.n >= N_UNIT
        cells = []
        metropolis_posterior(_counting(binomial_logit_model(), cells), data,
                             smoking._normal_prior, n_samples=1000, seed=5,
                             groups=groups if weights is None else None)
        assert cells[0] == data.n
        assert all(c % data.n == 0 and data.n <= c <= PREFETCH * data.n for c in cells)
        assert (len(cells), sum(cells)) == self.BATCHED_CALLS[weights]


# On covariates that are not one-hot, BLAS may round a batched x . theta
# differently from a one-row one.  Summing the four products of the small
# kind in another order moves its log-target by at most 3 ulps over 7,200
# random states; this bound leaves a margin over that.
SMALL_ULPS = 16


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestBatchesEqualOracle:
    """Every batch size from 1 to PREFETCH, at every offset in the chain's
    candidate buffer, scores TestStepEqualsOracle's random states as the
    per-step oracle does: each row the walk could reach (its prior finite)
    gives the oracle's log-target, bit for bit on one-hot covariates, and a
    row of -inf prior is rejected whatever the model gave it.  All three
    step kinds are covered: the one-column and the two-column sigmoid-ratio
    steps, and fixed effects."""

    KINDS = ["partition", "n-unit", "below-n-unit", "small", "fixed-binomial",
             "fixed-two-intercept", "box-prior"]

    @staticmethod
    def _case(kind, partition, rng):
        """(model, data, prior, groups, states) with TestStepEqualsOracle's states."""
        data, groups, proxy = partition
        model = binomial_logit_model()
        prior = smoking._prior_with_proxy(proxy.payload, PROXY_SD)
        if kind == "fixed-binomial":
            dim = model.k_theta + len(groups)
            return (model, data, smoking._normal_prior, groups,
                    rng.normal(0.0, 1.5, size=(N_STATES, dim)))
        if kind == "fixed-two-intercept":
            data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(9)]))
            groups = [[0, 4], [1, 2, 8], [3], [5, 6, 7]]
            return (_two_intercept_model(), data, _std_normal_prior, groups,
                    rng.normal(0.0, 1.5, size=(N_STATES, 1 + 2 * len(groups))))
        psi_sd = 4.0 if kind == "small" else 15.0
        if kind == "small":
            data = _small_binomial(rng)
        elif kind in ("n-unit", "below-n-unit"):
            data = _first_arms(data, N_UNIT if kind == "n-unit" else N_UNIT - 1)
        elif kind == "box-prior":
            prior = _box_prior(1.0)
        states = np.hstack([rng.normal(0.0, 1.5, size=(N_STATES, 4)),
                            rng.normal(0.0, psi_sd, size=(N_STATES, 1))])
        return model, data, prior, None, states

    @pytest.mark.parametrize("kind", KINDS)
    def test_batches_of_every_size(self, partition, kind):
        rng = np.random.default_rng(SEED)
        model, data, prior, groups, states = self._case(kind, partition, rng)
        if kind == "box-prior":
            states = np.abs(states) % 1.25      # a fifth of the coordinates outside [0, 1]
        obs_group = None if groups is None else _obs_group(groups, data.n)
        oracle = metropolis_log_target(model, data, None, prior, groups)
        want = np.array([oracle(v) for v in states])
        k = model.k_theta
        for size in range(1, PREFETCH + 1):
            cands, score = _chain_scorer(model, data, obs_group, states.shape[1])
            got = []
            for chunk, start in enumerate(range(0, N_STATES, size)):
                batch = states[start:start + size]
                lo = chunk % (PREFETCH - len(batch) + 1)
                cands[lo:lo + len(batch)] = batch
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    lls = score(lo, lo + len(batch))
                assert len(lls) == len(batch)
                for vec, ll in zip(batch, lls):
                    lp = prior(vec[:k], vec[k:])
                    got.append(lp + ll if np.isfinite(lp) else -np.inf)
            got = np.array(got)
            if kind == "small":
                assert np.array_equal(np.isfinite(got), np.isfinite(want))
                assert _ulps(got, want).max() <= SMALL_ULPS, size
            else:
                assert got.tobytes() == want.tobytes(), size
        if kind == "box-prior":
            assert 0 < np.isinf(want).sum() < N_STATES
        else:
            assert np.isfinite(want).all()


def _counting(model, cells):
    """The model with the cell count of each log_likelihood call appended to cells."""

    def log_likelihood(data, thetas, psis):
        out = model.log_likelihood(data, thetas, psis)
        cells.append(out.size)
        return out

    return dataclasses.replace(model, log_likelihood=log_likelihood)


def _nan_from_call(model, first):
    """The model with NaN log-likelihoods from its first-th call on."""
    calls = [0]

    def log_likelihood(data, thetas, psis):
        calls[0] += 1
        out = model.log_likelihood(data, thetas, psis)
        return out if calls[0] < first else np.full_like(out, np.nan)

    return dataclasses.replace(model, log_likelihood=log_likelihood)


class TestStepErrors:
    """Failures of the step; most first appear mid-chain, after the initial state passed."""

    @pytest.fixture
    def linear_data(self):
        rng = np.random.default_rng(SEED)
        return SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(5)]))

    # the target's relevance weights: sigmoid-ratio, or None for fixed effects
    @pytest.mark.parametrize("weights", ["sigmoid-ratio", None])
    def test_nan_loglik_raises(self, linear_data, weights):
        groups = [[0, 1], [2, 3, 4]] if weights is None else None
        with pytest.raises(FloatingPointError, match="NaN log-likelihood"):
            metropolis_posterior(_nan_from_call(linear_model(), 50), linear_data,
                                 _std_normal_prior, n_samples=1000, seed=3, groups=groups)

    @pytest.mark.filterwarnings("ignore:acceptance rate")
    @pytest.mark.parametrize("failure", ["raise", "nan"])
    @pytest.mark.parametrize("weights", ["sigmoid-ratio", None])
    def test_failures_at_unreached_proposals_do_not_raise(self, partition, weights,
                                                         failure):
        """A model that raises, or gives NaN cells, at every state outside
        the prior's box fails only on proposals of -inf prior, which the
        walk rejects unread: the batch that holds one is scored again from
        its first proposal alone, and the chain runs to the end."""
        data, groups, _ = partition
        base = binomial_logit_model()
        failed = [0]

        def log_likelihood(data, thetas, psis):
            out = base.log_likelihood(data, thetas, psis)
            far = ((thetas < 0.0) | (thetas > 1.0)).any(axis=1) \
                | ((psis < 0.0) | (psis > 1.0)).any(axis=(0, 2))
            if far.any():
                failed[0] += 1
                if failure == "raise":
                    raise ValueError("outside the model's domain")
                out[:, far] = np.nan
            return out

        model = dataclasses.replace(base, log_likelihood=log_likelihood)
        psi_dim = len(groups) if weights is None else 1
        chain = metropolis_posterior(model, data, _box_prior(1.0), n_samples=1000, seed=5,
                                     groups=groups if weights is None else None,
                                     init_psi=np.full(psi_dim, 0.5))
        assert failed[0] > 0
        for samples in (chain.theta_samples, chain.psi_samples):
            assert samples.min() >= 0.0 and samples.max() <= 1.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:acceptance rate")
    @pytest.mark.parametrize("weights", ["sigmoid-ratio", None])
    def test_opposite_infinite_cells_are_rejected(self, partition, weights):
        """A +inf and a -inf cell and no NaN sum to NaN, which no acceptance
        test passes: mid-chain the state is rejected, and at the initial
        state the chain raises McmcInitError."""
        data, groups, _ = partition
        base = binomial_logit_model()
        hits = [0]

        def log_likelihood(data, thetas, psis):
            out = base.log_likelihood(data, thetas, psis)
            if psis.max() > 0.5:
                hits[0] += 1
                out[0], out[1] = np.inf, -np.inf
            return out

        model = dataclasses.replace(base, log_likelihood=log_likelihood)
        groups = groups if weights is None else None
        chain = metropolis_posterior(model, data, smoking._normal_prior, n_samples=1000,
                                     seed=5, groups=groups)
        assert hits[0] > 0
        assert chain.psi_samples.max() <= 0.5
        psi_dim = chain.psi_samples.shape[1]
        with pytest.raises(McmcInitError, match="log-target is nan at the initial state"):
            metropolis_posterior(model, data, smoking._normal_prior, n_samples=1000,
                                 seed=5, groups=groups, init_psi=np.ones(psi_dim))

    @pytest.mark.parametrize("first_nan", [1, 500], ids=["start", "mid-chain"])
    def test_nan_prior_raises(self, linear_data, first_nan):
        """A NaN prior density, a proxy term's NaN included, raises where it
        appears rather than reading as a rejection."""
        calls = [0]

        def prior(theta, psi):
            calls[0] += 1
            return np.nan if calls[0] >= first_nan else _std_normal_prior(theta, psi)

        with pytest.raises(FloatingPointError, match=r"NaN log prior density at state \["):
            metropolis_posterior(linear_model(), linear_data, prior, n_samples=1000, seed=3)
        assert calls[0] == first_nan

    def test_zero_pooled_null_likelihood_raises(self):
        """Outcome 2 is impossible at the null theta node once psi reaches
        node 2, so the pooled null likelihood there is zero."""
        table = np.full((3, 3, 3), 1.0 / 3.0)
        table[0, 2] = [0.5, 0.5, 0.0]
        model = discrete_toy_model(table)
        data = SourceData(np.empty((3, 0)), [0, 2, 1])
        with pytest.raises(DegenerateRelevanceError, match="pooled likelihood"):
            metropolis_posterior(model, data, _box_prior(2.0), n_samples=1000, seed=3,
                                 init_psi=[0.0])

    def test_zero_pooled_null_likelihood_unseen_on_the_one_column_step(self):
        """With N_UNIT observations the step never forms the null pool, so
        the state that makes the test above raise has a finite log-target."""
        table = np.full((3, 3, 3), 1.0 / 3.0)
        table[0, 2] = [0.5, 0.5, 0.0]
        data = SourceData(np.empty((N_UNIT, 0)), np.resize([0, 2, 1], N_UNIT))
        new, old = _new_and_old(discrete_toy_model(table), data, _box_prior(2.0))
        state = np.array([1.0, 2.0])
        assert new(state) == np.full(N_UNIT, np.log(1.0 / 3.0)).sum()
        with pytest.raises(DegenerateRelevanceError, match="pooled likelihood"):
            old(state)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_pos_inf_null_loglik_is_rejected_as_the_weight_check_did(self, linear_data):
        """A +inf null log-likelihood gives nan sigmoid-ratio weights, which
        the range check rejected; the step rejects the same state."""
        base = linear_model()

        def log_likelihood(data, thetas, psis):
            out = base.log_likelihood(data, thetas, psis)
            out[0, thetas[:, 0] == 0.0] = np.inf
            return out

        model = dataclasses.replace(base, log_likelihood=log_likelihood)
        for log_target in _new_and_old(model, linear_data, _std_normal_prior):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                log_target(np.array([0.3, 0.1]))

    @pytest.mark.parametrize("where", ["prior", "model"])
    def test_warnings_in_user_callables_reach_the_caller(self, linear_data, where):
        calls = [0]

        def overflow_after_start():
            calls[0] += 1
            if calls[0] == 200:
                np.float64(1e300) * np.float64(1e300)

        def prior(theta, psi):
            if where == "prior":
                overflow_after_start()
            return _std_normal_prior(theta, psi)

        base = linear_model()

        def log_likelihood(data, thetas, psis):
            if where == "model":
                overflow_after_start()
            return base.log_likelihood(data, thetas, psis)

        model = dataclasses.replace(base, log_likelihood=log_likelihood)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            metropolis_posterior(model, linear_data, prior, n_samples=1000, seed=3)
        assert any(issubclass(w.category, RuntimeWarning) and "overflow" in str(w.message)
                   for w in caught)


class TestChainArrays:
    @pytest.mark.filterwarnings("ignore:acceptance rate")
    @pytest.mark.parametrize("kind", ["sigmoid-ratio", "fixed effects"])
    def test_samples_own_their_memory(self, partition, kind):
        """The kept states are split into two C-contiguous arrays that share
        no memory with each other or with a later chain's."""
        data, groups, _ = partition

        def chain(seed):
            return metropolis_posterior(binomial_logit_model(), data, smoking._normal_prior,
                                        n_samples=1000, seed=seed,
                                        groups=None if kind == "sigmoid-ratio" else groups)

        first = chain(5)
        theta, psi = first.theta_samples, first.psi_samples
        assert theta.shape == (750, 4)
        assert psi.shape == (750, 1 if kind == "sigmoid-ratio" else 23)
        for arr in (theta, psi):
            assert arr.flags.c_contiguous and arr.flags.owndata
        assert not np.shares_memory(theta, psi)
        kept = theta.copy(), psi.copy()
        second = chain(6)
        assert not np.shares_memory(theta, second.theta_samples)
        assert theta.tobytes() == kept[0].tobytes()
        assert psi.tobytes() == kept[1].tobytes()


class TestStateShapes:
    """Wrong-length starting intercepts and scales, proposal scales that are not
    positive and finite, and a sample count that is not an integer fail
    before any sampling."""

    @pytest.fixture
    def small(self):
        return _small_binomial(np.random.default_rng(SEED))

    @pytest.mark.parametrize("kwargs, match", [
        ({"init_psi": np.zeros(2)}, r"init_psi must have shape \(1,\)"),
        ({"proposal_scale": np.full(4, 0.5)}, r"proposal_scale must have shape \(5,\)"),
        ({"proposal_scale": 0.0}, "proposal_scale entries must be positive and finite"),
        ({"proposal_scale": -0.5}, "proposal_scale entries must be positive and finite"),
        ({"proposal_scale": np.nan}, "proposal_scale entries must be positive and finite"),
        ({"proposal_scale": [0.5, 0.5, np.inf, 0.5, 0.5]},
         "proposal_scale entries must be positive and finite"),
        ({"n_samples": 1500.0}, "n_samples must be an integer"),
    ], ids=["psi-2", "scale-4", "scale-zero", "scale-negative",
            "scale-nan", "scale-inf-entry", "samples-float"])
    def test_weighted_chain(self, small, kwargs, match):
        prior_calls = []

        def prior(theta, psi):
            prior_calls.append(1)
            return _std_normal_prior(theta, psi)

        with pytest.raises(ValueError, match=match):
            metropolis_posterior(binomial_logit_model(), small, prior,
                                 **{"n_samples": 1000, "seed": 0, **kwargs})
        assert prior_calls == []

    def test_fixed_effects_psi_has_one_intercept_per_group(self, partition):
        data, groups, _ = partition
        with pytest.raises(ValueError, match=r"init_psi must have shape \(23,\)"):
            metropolis_posterior(binomial_logit_model(), data, smoking._normal_prior,
                                 n_samples=1000, seed=0, groups=groups,
                                 init_psi=np.zeros(22))

    @pytest.mark.filterwarnings("ignore:acceptance rate")
    def test_an_empty_last_group_keeps_its_intercept(self, small):
        """The state's size comes from the groups, not from the largest group
        index an observation has: an empty last group's intercept is one
        more coordinate, which only the prior moves."""
        chain = metropolis_posterior(binomial_logit_model(), small, _std_normal_prior,
                                     n_samples=1000, seed=4,
                                     groups=[list(range(small.n)), []])
        assert chain.psi_samples.shape == (750, 2)
        assert np.unique(chain.psi_samples[:, 1]).size > 1

    @pytest.mark.filterwarnings("ignore:acceptance rate")
    def test_zero_d_scale_is_a_scalar(self, small):
        chains = [metropolis_posterior(binomial_logit_model(), small, _std_normal_prior,
                                       n_samples=1000, seed=4, proposal_scale=scale)
                  for scale in (0.4, np.array(0.4), [0.4] * 5)]
        for chain in chains[1:]:
            assert chain.theta_samples.tobytes() == chains[0].theta_samples.tobytes()
            assert chain.psi_samples.tobytes() == chains[0].psi_samples.tobytes()
