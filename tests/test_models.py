"""Model-layer tests: exact log-likelihood values against independent
oracles (read from the tensor's 1 x 1 x 1 cells), tensor-versus-scalar
consistency against the reference evaluators in _scalar_reference, the
columns SourceData stacks, the GP factor cache, the library's log-sum-exp
against scipy's, and simulator goodness of fit."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.special import expit

import _scalar_reference as scalar
from relbayes.harness.config import ExperimentConfig
from relbayes.harness.runner import run_experiment
from relbayes.models import (LOG_2PI, Observation, SharedParam, SourceData,
                             TaskParam, binomial_logit_model, check_support,
                             discrete_toy_model, gp_model, linear_model,
                             loglik_tensor, logsumexp, param_values)

RNG_SEED = 20260817


def _cell(model, obs, theta, psi) -> float:
    """log p(obs | theta, psi), the 1 x 1 x 1 cell of the tensor."""
    return float(loglik_tensor(model, SourceData((obs,)), [param_values(theta)],
                               [param_values(psi)])[0, 0, 0])


def _toy_table(rng, n_out=3, n_theta=2, n_psi=2):
    return rng.dirichlet(np.ones(n_out), size=(n_theta, n_psi))


class TestDomainTypes:
    def test_shared_param_coerces_to_vector(self):
        p = SharedParam(1.5)
        assert p.value.shape == (1,)
        assert p.value[0] == 1.5

    def test_param_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TaskParam(float("nan"))
        with pytest.raises(ValueError):
            SharedParam([1.0, float("inf")])

    def test_param_values_accepts_raw_arrays(self):
        assert_allclose(param_values(np.array([2.0, 3.0])), [2.0, 3.0])
        assert_allclose(param_values(SharedParam([2.0])), [2.0])

    def test_observation_trial_count_must_be_positive(self):
        with pytest.raises(ValueError):
            Observation(np.zeros(2), 1.0, trial_count=0)

    def test_source_data_requires_homogeneous_covariates(self):
        obs = (Observation(np.zeros(2), 0.0), Observation(np.zeros(3), 0.0))
        with pytest.raises(ValueError):
            SourceData(obs)

    def test_source_data_forbids_empty(self):
        with pytest.raises(ValueError):
            SourceData(())

    def test_source_data_columns_match_observations(self):
        rng = np.random.default_rng(RNG_SEED)
        obs = tuple(Observation(rng.normal(size=4), int(rng.integers(0, 6)),
                                trial_count=int(rng.integers(6, 12)))
                    for _ in range(5))
        data = SourceData(obs)
        assert data.covariates.shape == (5, 4)
        assert data.outcomes.shape == (5,)
        assert data.trial_counts.shape == (5,)
        for i, o in enumerate(obs):
            assert np.array_equal(data.covariates[i], o.covariates)
            assert data.outcomes[i] == o.outcome
            assert data.trial_counts[i] == o.trial_count

    def test_source_data_trajectory_columns(self):
        rng = np.random.default_rng(RNG_SEED)
        x = np.linspace(0.0, 1.0, 6)
        obs = tuple(Observation(x, rng.normal(size=6)) for _ in range(3))
        data = SourceData(obs)
        assert data.outcomes.shape == (3, 6)
        assert data.trial_counts is None
        for i, o in enumerate(obs):
            assert np.array_equal(data.outcomes[i], o.outcome)

    def test_source_data_rejects_ragged_outcomes(self):
        x = np.linspace(0.0, 1.0, 3)
        obs = (Observation(x, np.zeros(3)), Observation(x, np.zeros(4)))
        with pytest.raises(ValueError, match="ragged"):
            SourceData(obs)

    def test_source_data_rejects_mixed_trial_counts(self):
        obs = (Observation(np.zeros(4), 1, trial_count=5), Observation(np.zeros(4), 1))
        with pytest.raises(ValueError, match="trial_count"):
            SourceData(obs)

    def test_observation_rejects_outcome_outside_trials(self):
        with pytest.raises(ValueError, match="trial_count"):
            Observation(np.zeros(4), 6, trial_count=5)
        with pytest.raises(ValueError, match="trial_count"):
            Observation(np.zeros(4), -1, trial_count=5)

    def test_check_support(self):
        box = np.array([[-1.0, 1.0]])
        check_support(np.array([0.5]), box, "x")
        with pytest.raises(ValueError):
            check_support(np.array([1.5]), box, "x")


class TestLinearModel:
    """Outcome y ~ N(theta x1 + psi x2, 1): values are closed form."""

    def setup_method(self):
        self.model = linear_model()

    def test_loglik_at_mean_is_normal_mode(self):
        obs = Observation([2.0, -1.0], 2.0 * 0.7 - 1.0 * 0.3)
        ll = _cell(self.model, obs, SharedParam(0.7), TaskParam(0.3))
        assert_allclose(ll, -0.9189385332046727, rtol=0, atol=1e-15)

    def test_unit_residual_costs_half(self):
        obs = Observation([1.0, 0.0], 1.0)
        ll0 = _cell(self.model, obs, SharedParam(1.0), TaskParam(5.0))
        ll1 = _cell(self.model, obs, SharedParam(2.0), TaskParam(5.0))
        assert_allclose(ll0 - ll1, 0.5, rtol=0, atol=1e-12)

    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(tuple(
            Observation(rng.normal(size=2), rng.normal()) for _ in range(6)))
        thetas = rng.normal(size=(4, 1))
        psis = rng.normal(size=(3, 1))
        tensor = loglik_tensor(self.model, data, thetas, psis)
        for i, obs in enumerate(data):
            for a in range(4):
                for b in range(3):
                    assert_allclose(
                        tensor[i, a, b],
                        scalar.linear(obs, thetas[a], psis[b]),
                        rtol=0, atol=1e-12)

    def test_mode_density_is_standard_normal_mode(self):
        lm = self.model.log_mode_density(np.zeros((2, 1)), np.zeros((3, 1)))
        assert lm.shape == (2, 3)
        assert_allclose(lm, -0.5 * LOG_2PI, rtol=0, atol=1e-15)

    def test_simulate_moments(self):
        rng = np.random.default_rng(RNG_SEED)
        x = np.array([1.5, -2.0])
        draws = np.array([
            self.model.simulate(x, SharedParam(-1.0), TaskParam(0.5), rng).outcome
            for _ in range(20000)])
        assert_allclose(draws.mean(), -1.0 * 1.5 + 0.5 * -2.0, atol=0.03)
        assert_allclose(draws.var(), 1.0, atol=0.04)


class TestBinomialLogitModel:
    def setup_method(self):
        self.model = binomial_logit_model()

    def test_single_trial_even_odds(self):
        obs = Observation(np.zeros(4), 1, trial_count=1)
        ll = _cell(self.model, obs, SharedParam(np.zeros(4)), TaskParam(0.0))
        assert_allclose(ll, np.log(0.5), rtol=0, atol=1e-15)

    def test_matches_high_precision_oracle(self):
        """Log pmf agrees with a 50-digit mpmath evaluation, including
        logits far into both tails where naive sigmoids underflow."""
        import mpmath as mp
        mp.mp.dps = 50
        rng = np.random.default_rng(RNG_SEED)
        cases = [(y, n, t)
                 for n in (1, 5, 40)
                 for y in (0, 1, n // 2, n)
                 for t in (-40.0, -3.2, 0.0, 1.7, 40.0)
                 if y <= n]
        for y, n, t in cases:
            x = rng.normal(size=4)
            theta = np.zeros(4)
            psi = t - float(theta @ x)
            obs = Observation(x, y, trial_count=n)
            got = _cell(self.model, obs, SharedParam(theta), TaskParam(psi))
            p = 1 / (1 + mp.e ** (-mp.mpf(t)))
            want = float(mp.log(mp.binomial(n, y)) + y * mp.log(p)
                         + (n - y) * mp.log(1 - p))
            assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_requires_trial_count(self):
        obs = Observation(np.zeros(4), 1)
        with pytest.raises(ValueError, match="trial_count"):
            _cell(self.model, obs, SharedParam(np.zeros(4)), TaskParam(0.0))

    def test_rejects_outcome_above_trials(self):
        # the count is checked once, when the observation is built
        with pytest.raises(ValueError):
            Observation(np.zeros(4), 9, trial_count=5)

    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(tuple(
            Observation(rng.normal(size=4), int(rng.integers(0, 11)), trial_count=10)
            for _ in range(5)))
        thetas = rng.normal(size=(3, 4))
        psis = rng.normal(size=(4, 1))
        tensor = loglik_tensor(self.model, data, thetas, psis)
        assert tensor.shape == (5, 3, 4)
        for i, obs in enumerate(data):
            for a in range(3):
                for b in range(4):
                    assert_allclose(
                        tensor[i, a, b],
                        scalar.binomial_logit(obs, thetas[a], psis[b]),
                        rtol=0, atol=1e-11)

    def test_simulate_mean(self):
        rng = np.random.default_rng(RNG_SEED)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        theta, psi = SharedParam([0.8, 0, 0, 0]), TaskParam(-0.3)
        draws = np.array([
            self.model.simulate(x, theta, psi, rng, trial_count=20).outcome
            for _ in range(4000)])
        assert_allclose(draws.mean(), 20 * expit(0.5), atol=0.15)

    def test_simulate_needs_trial_count(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="trial_count"):
            self.model.simulate(np.zeros(4), SharedParam(np.zeros(4)),
                                TaskParam(0.0), rng)


class TestGpModel:
    """Composite-kernel GP: validated against dense linear algebra done
    with an independent factorization."""

    def setup_method(self):
        self.x = np.linspace(0.0, 1.0, 7)
        self.model = gp_model(self.x)

    def _kernel(self, theta, psi, jitter=1e-8):
        sq = (self.x[:, None] - self.x[None, :]) ** 2
        k = 0.5 * (np.exp(-0.5 * sq / theta ** 2) + np.exp(-0.5 * sq / psi ** 2))
        return k + jitter * np.eye(self.x.size)

    def test_zero_trajectory_is_half_logdet(self):
        """With y = 0 the log-likelihood reduces to -0.5 log det(2 pi K);
        the oracle uses slogdet (LU), the implementation Cholesky."""
        obs = Observation(self.x, np.zeros(7))
        for theta, psi in [(0.3, 1.2), (2.0, 0.1), (5.0, 5.0)]:
            k = self._kernel(theta, psi)
            _, logdet = np.linalg.slogdet(k)
            want = -0.5 * (logdet + 7 * LOG_2PI)
            got = _cell(self.model, obs, SharedParam(theta), TaskParam(psi))
            # long lengthscales leave K barely above the jitter floor, so
            # LU and Cholesky determinants drift apart in the last digits
            assert_allclose(got, want, rtol=1e-8)

    def test_general_trajectory_against_solve_oracle(self):
        rng = np.random.default_rng(RNG_SEED)
        k = self._kernel(0.7, 2.5)
        y = np.linalg.cholesky(k) @ rng.normal(size=7)
        obs = Observation(self.x, y)
        _, logdet = np.linalg.slogdet(k)
        want = -0.5 * (y @ np.linalg.solve(k, y) + logdet + 7 * LOG_2PI)
        got = _cell(self.model, obs, SharedParam(0.7), TaskParam(2.5))
        assert_allclose(got, want, rtol=1e-9)

    def test_equal_lengthscales_collapse_to_single_rbf(self):
        obs = Observation(self.x, np.sin(3 * self.x))
        sq = (self.x[:, None] - self.x[None, :]) ** 2
        k = np.exp(-0.5 * sq / 0.8 ** 2) + 1e-8 * np.eye(7)
        _, logdet = np.linalg.slogdet(k)
        y = obs.outcome
        want = -0.5 * (y @ np.linalg.solve(k, y) + logdet + 7 * LOG_2PI)
        got = _cell(self.model, obs, SharedParam(0.8), TaskParam(0.8))
        assert_allclose(got, want, rtol=1e-9)

    def test_kernel_diagonal_is_one_plus_jitter(self):
        assert_allclose(np.diag(self._kernel(1.0, 2.0)), 1.0 + 1e-8, rtol=0,
                        atol=1e-15)

    def test_positive_definite_across_support(self):
        rng = np.random.default_rng(RNG_SEED)
        obs = Observation(self.x, np.zeros(7))
        for _ in range(100):
            theta = rng.uniform(0.05, 12.0)
            psi = rng.uniform(0.05, 12.0)
            ll = _cell(self.model, obs, SharedParam(theta), TaskParam(psi))
            assert np.isfinite(ll)

    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(tuple(
            Observation(self.x, rng.normal(size=7)) for _ in range(3)))
        thetas = rng.uniform(0.2, 6.0, size=(4, 1))
        psis = rng.uniform(0.2, 6.0, size=(2, 1))
        tensor = loglik_tensor(self.model, data, thetas, psis)
        for i, obs in enumerate(data):
            for a in range(4):
                for b in range(2):
                    assert_allclose(
                        tensor[i, a, b],
                        scalar.gp(obs, thetas[a], psis[b]),
                        rtol=1e-9)

    def test_long_lengthscales_match_scalar_oracle(self):
        """Lengthscales near the top of the support leave the kernel nearly
        singular (condition number about 1e8); the batched forward
        substitution still agrees with one-kernel LU solves."""
        x = np.linspace(0.0, 1.0, 10)
        model = gp_model(x)
        rng = np.random.default_rng(RNG_SEED)
        thetas = rng.uniform(11.0, 12.0, size=(4, 1))
        psis = rng.uniform(11.0, 12.0, size=(3, 1))
        data = SourceData(tuple(
            model.simulate(x, SharedParam(th), TaskParam(ps), rng)
            for th, ps in [(11.5, 11.8), (0.3, 2.0), (12.0, 0.05)]))
        sq = (x[:, None] - x[None, :]) ** 2
        kernel = 0.5 * (np.exp(-0.5 * sq / thetas[0, 0] ** 2)
                        + np.exp(-0.5 * sq / psis[0, 0] ** 2)) + 1e-8 * np.eye(10)
        assert np.linalg.cond(kernel) > 1e7
        tensor = loglik_tensor(model, data, thetas, psis)
        for i, obs in enumerate(data):
            for a in range(4):
                for b in range(3):
                    assert_allclose(tensor[i, a, b],
                                    scalar.gp(obs, thetas[a], psis[b]), rtol=1e-9)

    def test_rejects_trajectory_of_wrong_length(self):
        data = SourceData((Observation(self.x[:5], np.zeros(5)),))
        with pytest.raises(ValueError, match="length 7"):
            loglik_tensor(self.model, data, [[1.0]], [[1.0]])

    def test_simulate_pointwise_variance(self):
        rng = np.random.default_rng(RNG_SEED)
        theta, psi = SharedParam(1.0), TaskParam(3.0)
        draws = np.stack([
            self.model.simulate(self.x, theta, psi, rng).outcome
            for _ in range(3000)])
        assert_allclose(draws.var(axis=0), 1.0, atol=0.12)
        assert_allclose(draws.mean(axis=0), 0.0, atol=0.08)

    def test_rejects_nonpositive_lengthscale(self):
        obs = Observation(self.x, np.zeros(7))
        data = SourceData((obs,))
        for theta, psi in [(-1.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError, match="positive"):
                _cell(self.model, obs, SharedParam(theta), TaskParam(psi))
            with pytest.raises(ValueError, match="positive"):
                loglik_tensor(self.model, data, [[1.0], [theta]], [[psi], [2.0]])
            with pytest.raises(ValueError, match="positive"):
                self.model.log_mode_density(np.array([[theta]]), np.array([[psi]]))
            with pytest.raises(ValueError, match="positive"):
                self.model.simulate(self.x, SharedParam(theta), TaskParam(psi),
                                    np.random.default_rng(0))

    def test_simulate_stream_pinned(self):
        """Two draws recorded on the code that factored one kernel at a
        time; the batched factor at A = B = 1 must reproduce them exactly."""
        rng = np.random.default_rng(RNG_SEED)
        first = self.model.simulate(self.x, SharedParam(1.0), TaskParam(3.0), rng)
        second = self.model.simulate(self.x, SharedParam(0.05), TaskParam(12.0), rng)
        assert first.outcome.tolist() == [
            -0.9787531550557662, -0.7861107587411116, -0.5849983500129359,
            -0.3926286316000853, -0.22125182078713523, -0.07636784434769331,
            0.03948493310800927]
        assert second.outcome.tolist() == [
            -0.13397888754672144, 1.4871920834236168, 0.7026165097819768,
            2.1804326759142434, -1.2157452747397643, 0.9183078061091721,
            -0.21572800242287127]

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            gp_model([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            gp_model([0.5])


class TestGpFactorCache:
    """The GP model factors each node product once and keeps the last two:
    counted by wrapping np.linalg.cholesky, which records the batch size of
    every factorisation that succeeds."""

    @pytest.fixture
    def batches(self, monkeypatch):
        sizes = []
        original = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            out = original(a, *args, **kwargs)
            sizes.append(int(np.prod(np.shape(a)[:-2])))
            return out

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        return sizes

    @staticmethod
    def _data(x, rng, n=3):
        return SourceData(tuple(Observation(x, rng.normal(size=x.size)) for _ in range(n)))

    def test_one_simulation_factors_each_node_product_once(self, batches):
        config = ExperimentConfig(experiment="gp", n_simulations=1, master_seed=1,
                                  grid_resolution=10)
        assert run_experiment(config)[0].error is None
        # the 10 x 10 grid and the (theta grid, psi*) product of the expert
        # proxy, once each; every other factorisation draws one trajectory
        assert sorted(b for b in batches if b > 1) == [10, 100]
        assert batches.count(1) == config.gp_scenario().n_trajectories

    def test_mode_density_after_tensor_adds_no_factorisation(self, batches):
        x = np.linspace(0.0, 1.0, 7)
        model = gp_model(x)
        thetas = np.array([[0.3], [1.0], [4.0]])
        psis = np.array([[0.5], [2.0]])
        loglik_tensor(model, self._data(x, np.random.default_rng(RNG_SEED)), thetas, psis)
        assert batches == [6]
        got = model.log_mode_density(thetas, psis)
        assert batches == [6]
        fresh = gp_model(x).log_mode_density(thetas, psis)
        assert_array_equal(got, fresh)

    def test_kept_factor_does_not_depend_on_data(self, batches):
        x = np.linspace(0.0, 1.0, 7)
        model = gp_model(x)
        rng = np.random.default_rng(RNG_SEED)
        thetas = rng.uniform(0.1, 6.0, size=(3, 1))
        psis = rng.uniform(0.1, 6.0, size=(2, 1))
        loglik_tensor(model, self._data(x, rng), thetas, psis)
        second = self._data(x, rng, n=4)
        tensor = loglik_tensor(model, second, thetas, psis)
        assert batches == [6]
        for i, obs in enumerate(second):
            for a in range(3):
                for b in range(2):
                    assert_allclose(tensor[i, a, b],
                                    scalar.gp(obs, thetas[a], psis[b]), rtol=1e-9)

    def test_third_product_evicts_the_oldest(self, batches):
        x = np.linspace(0.0, 1.0, 7)
        model = gp_model(x)
        data = self._data(x, np.random.default_rng(RNG_SEED))
        products = [(np.array([[0.5], [1.0]]), np.array([[2.0]])),
                    (np.array([[0.5]]), np.array([[2.0], [3.0], [4.0]])),
                    (np.array([[1.0], [0.5]]), np.array([[2.0]]))]
        tensors = [loglik_tensor(model, data, th, ps) for th, ps in products]
        assert batches == [2, 3, 2]
        # the newest two are kept, the first was evicted and is factored anew
        for (th, ps), want in zip(products[1:], tensors[1:]):
            assert_array_equal(loglik_tensor(model, data, th, ps), want)
        assert batches == [2, 3, 2]
        assert_array_equal(loglik_tensor(model, data, *products[0]), tensors[0])
        assert batches == [2, 3, 2, 2]
        assert_array_equal(tensors[0][:, ::-1], tensors[2])


class TestLogsumexp:
    """The library's one log-sum-exp against scipy.special.logsumexp."""

    @pytest.mark.parametrize("axis", [None, 0, 1, 2, -1])
    def test_random_blocks_match_scipy(self, axis):
        block = np.random.default_rng(RNG_SEED).normal(scale=5.0, size=(6, 7, 8))
        assert_allclose(logsumexp(block, axis=axis),
                        scipy.special.logsumexp(block, axis=axis), rtol=1e-12)

    def test_infinite_slices_match_scipy(self):
        rows = np.array([[-np.inf, -np.inf, -np.inf],
                         [-np.inf, 0.5, -3.0],
                         [np.inf, 0.5, -3.0],
                         [np.inf, -np.inf, 2.0]])
        want = scipy.special.logsumexp(rows, axis=1)
        assert_array_equal(want[[0, 2, 3]], [-np.inf, np.inf, np.inf])
        got = logsumexp(rows, axis=1)
        assert_array_equal(got[[0, 2, 3]], want[[0, 2, 3]])
        assert_allclose(got[1], want[1], rtol=1e-12)
        assert logsumexp(rows[0]) == -np.inf
        assert_array_equal(logsumexp(rows.T, axis=0), got)

    def test_no_module_imports_scipy_logsumexp(self):
        """Every log-sum-exp in the library goes through models.logsumexp."""
        src = Path(__file__).resolve().parents[1] / "src" / "relbayes"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            for node in ast.walk(ast.parse(text)):
                if (isinstance(node, ast.ImportFrom) and node.module == "scipy.special"
                        and any(a.name == "logsumexp" for a in node.names)):
                    offenders.append(f"{path.name}:{node.lineno}")
            if "special.logsumexp" in text:
                offenders.append(f"{path.name}: special.logsumexp")
        assert offenders == []


class TestDiscreteToyModel:
    def test_loglik_reads_the_table(self):
        rng = np.random.default_rng(RNG_SEED)
        table = _toy_table(rng)
        model = discrete_toy_model(3, 2, 2, table)
        for a in range(2):
            for b in range(2):
                for o in range(3):
                    obs = Observation(np.empty(0), o)
                    got = _cell(model, obs, SharedParam(float(a)),
                                TaskParam(float(b)))
                    assert_allclose(got, np.log(table[a, b, o]), rtol=0, atol=1e-14)

    def test_uniform_table(self):
        table = np.full((2, 2, 4), 0.25)
        model = discrete_toy_model(4, 2, 2, table)
        obs = Observation(np.empty(0), 2)
        ll = _cell(model, obs, SharedParam(0.0), TaskParam(1.0))
        assert_allclose(ll, np.log(0.25), rtol=0, atol=1e-15)

    def test_rows_must_sum_to_one(self):
        bad = np.full((2, 2, 3), 0.5)
        with pytest.raises(ValueError):
            discrete_toy_model(3, 2, 2, bad)

    def test_zero_probability_outcome_gives_neg_inf(self):
        table = np.array([[[1.0, 0.0], [0.5, 0.5]],
                          [[0.3, 0.7], [0.9, 0.1]]])
        model = discrete_toy_model(2, 2, 2, table)
        obs = Observation(np.empty(0), 1)
        ll = _cell(model, obs, SharedParam(0.0), TaskParam(0.0))
        assert ll == -np.inf

    def test_batch_lookup_matches_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        table = _toy_table(rng, n_out=4, n_theta=3, n_psi=2)
        model = discrete_toy_model(4, 3, 2, table)
        data = SourceData(tuple(Observation(np.empty(0), int(o))
                                for o in rng.integers(0, 4, size=5)))
        thetas = np.arange(3, dtype=float)[:, None]
        psis = np.arange(2, dtype=float)[:, None]
        tensor = loglik_tensor(model, data, thetas, psis)
        for i, obs in enumerate(data):
            for a in range(3):
                for b in range(2):
                    assert_allclose(tensor[i, a, b],
                                    scalar.discrete_toy(table, obs, thetas[a], psis[b]),
                                    rtol=0, atol=1e-14)

    def test_negative_index_raises(self):
        """A negative node would wrap round to the end of the table."""
        model = discrete_toy_model(3, 2, 2, _toy_table(np.random.default_rng(RNG_SEED)))
        data = SourceData((Observation(np.empty(0), 1),))
        with pytest.raises(ValueError, match="non-negative"):
            loglik_tensor(model, data, [[-1.0], [1.0]], [[0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            loglik_tensor(model, data, [[0.0]], [[1.0], [-1.0]])
        with pytest.raises(IndexError):
            loglik_tensor(model, data, [[2.0]], [[0.0]])

    def test_simulate_goodness_of_fit(self):
        rng = np.random.default_rng(RNG_SEED)
        table = np.array([[[0.5, 0.3, 0.2]]])
        model = discrete_toy_model(3, 1, 1, table)
        draws = np.array([model.simulate(np.empty(0), SharedParam(0.0),
                                         TaskParam(0.0), rng).outcome
                          for _ in range(2000)])
        counts = np.bincount(draws.astype(int), minlength=3)
        result = stats.chisquare(counts, 2000 * table[0, 0])
        assert result.pvalue > 0.01

    def test_outcome_space_enumerates_alphabet(self):
        table = np.full((1, 1, 5), 0.2)
        model = discrete_toy_model(5, 1, 1, table)
        assert_allclose(model.outcome_space, np.arange(5))


class TestLoglikTensor:
    def test_nan_is_reported_with_observation_index(self):
        model = linear_model()

        def nan_batch(data, thetas, psis):
            out = np.zeros((data.n, thetas.shape[0], psis.shape[0]))
            out[1, 0, 0] = np.nan
            return out

        import dataclasses
        model_bad = dataclasses.replace(model, log_likelihood=nan_batch)
        data = SourceData((Observation([0, 0], 0.0), Observation([0, 0], 0.0)))
        with pytest.raises(FloatingPointError, match="1"):
            loglik_tensor(model_bad, data, np.zeros((1, 1)), np.zeros((1, 1)))
