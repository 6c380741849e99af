"""Model-layer tests: exact log-likelihood values against independent
oracles (read from the tensor's 1 x 1 x 1 cells), tensor-versus-scalar
consistency against the reference evaluators in _scalar_reference, the
checks SourceData makes on its columns, the GP factor cache, the library's log-sum-exp
against scipy's, and simulator goodness of fit."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.special import expit

import _scalar_reference as scalar
import relbayes.models
from relbayes.harness.config import ExperimentConfig
from relbayes.grids import ParameterGrid, box_nodes, midpoint_nodes, toy_grid
from relbayes.harness.runner import run_experiment
from relbayes.inference import GridProblem, metropolis_posterior
from relbayes.diagnostics import TrueProcess
from relbayes.models import (LOG_2PI, SourceData, binomial_logit_model,
                             discrete_toy_model, gp_model, linear_model, loglik_sum,
                             loglik_tensor, logsumexp, param_values)

RNG_SEED = 20260817


def _one(covariates, outcome, trial_count=None) -> SourceData:
    """A one-observation SourceData."""
    return SourceData([covariates], [outcome],
                      None if trial_count is None else [trial_count])


def _cell(model, obs, theta, psi) -> float:
    """log p(obs | theta, psi) for a one-observation SourceData, the
    1 x 1 x 1 cell of the tensor."""
    return float(loglik_tensor(model, obs, [param_values(theta)],
                               [param_values(psi)])[0, 0, 0])


def _toy_table(rng, n_out=3, n_theta=2, n_psi=2):
    return rng.dirichlet(np.ones(n_out), size=(n_theta, n_psi))


class TestDomainTypes:
    def test_shared_param_coerces_to_vector(self):
        """A parameter value is a float vector: TrueProcess takes a scalar as
        shape (1,) and a list of scalars as the (n, 1) psi_star."""
        truth = TrueProcess(1.5, [0.0, 2.0, 1.0], -0.5)
        assert truth.theta_star.shape == (1,) and truth.theta_star[0] == 1.5
        assert truth.psi_target_star.shape == (1,) and truth.psi_target_star[0] == -0.5
        assert truth.psi_star.shape == (3, 1) and truth.n == 3
        assert_array_equal(truth.psi_star[:, 0], [0.0, 2.0, 1.0])
        assert TrueProcess([1.0, 2.0], np.zeros((2, 3)), np.zeros(3)).psi_star.shape == (2, 3)

    def test_param_rejects_non_finite(self):
        """A NaN or an infinity in any field of TrueProcess raises."""
        for field in ("theta_star", "psi_star", "psi_target_star"):
            for bad in (float("nan"), float("inf"), -float("inf")):
                values = {"theta_star": [1.0, 0.0], "psi_star": [0.0, 1.0],
                          "psi_target_star": 0.0}
                values[field] = bad if field == "psi_target_star" else [1.0, bad]
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    TrueProcess(**values)

    def test_true_process_needs_a_source_parameter(self):
        with pytest.raises(ValueError, match="psi_star must list one task parameter"):
            TrueProcess(0.0, [], 0.0)

    def test_param_values_accepts_raw_arrays(self):
        assert_array_equal(param_values(np.array([2.0, 3.0])), [2.0, 3.0])
        assert param_values(2.0).shape == (1,)
        assert param_values(np.int64(2)).dtype == float

    def test_observation_trial_count_must_be_positive(self):
        with pytest.raises(ValueError, match="trial_count 0.0 at row 0"):
            SourceData(np.zeros((1, 2)), [1.0], [0])

    def test_source_data_requires_homogeneous_covariates(self):
        with pytest.raises(ValueError):
            SourceData([np.zeros(2), np.zeros(3)], [0.0, 0.0])

    def test_source_data_forbids_empty(self):
        with pytest.raises(ValueError, match="at least one observation"):
            SourceData(np.empty((0, 2)), np.empty(0))

    def test_source_data_columns_match_observations(self):
        rng = np.random.default_rng(RNG_SEED)
        rows = [(rng.normal(size=4), int(rng.integers(0, 6)), int(rng.integers(6, 12)))
                for _ in range(5)]
        data = SourceData(*zip(*rows))
        assert data.covariates.shape == (5, 4)
        assert data.outcomes.shape == (5,)
        assert data.trial_counts.shape == (5,)
        for i, (x, y, count) in enumerate(rows):
            assert np.array_equal(data.covariates[i], x)
            assert data.outcomes[i] == y
            assert data.trial_counts[i] == count

    def test_source_data_trajectory_columns(self):
        rng = np.random.default_rng(RNG_SEED)
        x = np.linspace(0.0, 1.0, 6)
        ys = [rng.normal(size=6) for _ in range(3)]
        data = SourceData(np.tile(x, (3, 1)), ys)
        assert data.outcomes.shape == (3, 6)
        assert data.trial_counts is None
        for i, y in enumerate(ys):
            assert np.array_equal(data.outcomes[i], y)

    def test_source_data_rejects_ragged_outcomes(self):
        x = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="ragged"):
            SourceData(np.tile(x, (2, 1)), [np.zeros(3), np.zeros(4)])

    def test_source_data_rejects_mixed_trial_counts(self):
        with pytest.raises(ValueError, match="trial_count"):
            SourceData(np.zeros((2, 4)), [1, 1], [5, None])

    def test_observation_rejects_outcome_outside_trials(self):
        with pytest.raises(ValueError, match="trial_count"):
            SourceData(np.zeros((1, 4)), [6], [5])
        with pytest.raises(ValueError, match="trial_count"):
            SourceData(np.zeros((1, 4)), [-1], [5])

    def test_source_data_rejects_covariates_of_wrong_row_count(self):
        with pytest.raises(ValueError, match=r"covariates must be \(3, c\)"):
            SourceData(np.zeros((2, 4)), np.zeros(3))
        with pytest.raises(ValueError, match=r"covariates must be \(3, c\)"):
            SourceData(np.zeros(3), np.zeros(3))

    def test_source_data_rejects_trial_counts_beside_trajectories(self):
        with pytest.raises(ValueError, match="trial_counts"):
            SourceData(np.zeros((2, 3)), np.ones((2, 3)), [5, 5])

    def test_source_data_rejects_fractional_trial_count(self):
        # 2.7 of 5.9 was once truncated to 2 of 5 without a word
        with pytest.raises(ValueError, match="trial_count 5.9 at row 1"):
            SourceData(np.ones((2, 4)), [1, 2.7], [5, 5.9])

    def test_source_data_rejects_fractional_outcome(self):
        with pytest.raises(ValueError, match="outcome 2.7 at row 1"):
            SourceData(np.ones((2, 4)), [1, 2.7], [5, 5])

    def test_source_data_rejects_outcome_above_its_count(self):
        with pytest.raises(ValueError, match=r"outcome 6.0 at row 1 .*trial_count=5.0"):
            SourceData(np.ones((3, 4)), [6, 6, 2], [7, 5, 5])

    def test_source_data_copies_to_read_only_columns(self):
        """Each column is a read-only float copy: the caller's arrays stay
        writeable, and writing to them leaves the data as it was."""
        given = {"covariates": np.zeros((2, 4)), "outcomes": np.array([1, 2]),
                 "trial_counts": np.array([3, 4])}
        data = SourceData(**given)
        for name, array in given.items():
            column = getattr(data, name)
            assert column.dtype == float and not column.flags.writeable
            assert array.flags.writeable
            array += 1
            assert_array_equal(column, array - 1)


class TestLinearModel:
    """Outcome y ~ N(theta x1 + psi x2, 1): values are closed form."""

    def setup_method(self):
        self.model = linear_model()

    def test_loglik_at_mean_is_normal_mode(self):
        obs = _one([2.0, -1.0], 2.0 * 0.7 - 1.0 * 0.3)
        ll = _cell(self.model, obs, 0.7, 0.3)
        assert_allclose(ll, -0.9189385332046727, rtol=0, atol=1e-15)

    def test_unit_residual_costs_half(self):
        obs = _one([1.0, 0.0], 1.0)
        ll0 = _cell(self.model, obs, 1.0, 5.0)
        ll1 = _cell(self.model, obs, 2.0, 5.0)
        assert_allclose(ll0 - ll1, 0.5, rtol=0, atol=1e-12)

    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(6)]))
        thetas = rng.normal(size=(4, 1))
        psis = rng.normal(size=(3, 1))
        tensor = loglik_tensor(self.model, data, thetas, psis)
        for i, obs in enumerate(scalar.rows(data)):
            for a in range(4):
                for b in range(3):
                    assert_allclose(
                        tensor[i, a, b],
                        scalar.linear(obs, thetas[a], psis[b]),
                        rtol=0, atol=1e-12)

    def test_large_residuals_match_scalar_reference(self):
        """The tensor is squared and scaled in place; at residuals of about
        50, where the quadratic term dominates, every cell still matches the
        scalar formula to rounding."""
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(rng.normal(scale=2.0, size=(5, 2)),
                          rng.choice([-1.0, 1.0], size=5) * rng.uniform(40.0, 60.0, size=5))
        nodes = midpoint_nodes(-10.0, 10.0, 21)[:, None]
        tensor = loglik_tensor(self.model, data, nodes, nodes[::-1])
        assert np.median(tensor) < -500.0
        for i, obs in enumerate(scalar.rows(data)):
            for a in range(21):
                for b in range(21):
                    assert_allclose(tensor[i, a, b],
                                    scalar.linear(obs, nodes[a], nodes[20 - b]),
                                    rtol=1e-12, atol=0)

    def test_simulate_moments(self):
        rng = np.random.default_rng(RNG_SEED)
        x = np.array([1.5, -2.0])
        draws = np.array([
            self.model.simulate(x, -1.0, 0.5, rng)
            for _ in range(20000)])
        assert_allclose(draws.mean(), -1.0 * 1.5 + 0.5 * -2.0, atol=0.03)
        assert_allclose(draws.var(), 1.0, atol=0.04)


class TestBinomialLogitModel:
    def setup_method(self):
        self.model = binomial_logit_model()

    def test_single_trial_even_odds(self):
        obs = _one(np.zeros(4), 1, 1)
        ll = _cell(self.model, obs, np.zeros(4), 0.0)
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
            obs = _one(x, y, n)
            got = _cell(self.model, obs, theta, psi)
            p = 1 / (1 + mp.e ** (-mp.mpf(t)))
            want = float(mp.log(mp.binomial(n, y)) + y * mp.log(p)
                         + (n - y) * mp.log(1 - p))
            assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_requires_trial_count(self):
        obs = _one(np.zeros(4), 1)
        with pytest.raises(ValueError, match="trial_count"):
            _cell(self.model, obs, np.zeros(4), 0.0)

    def test_rejects_outcome_above_trials(self):
        # the count is checked once, when the observation is built
        with pytest.raises(ValueError):
            _one(np.zeros(4), 9, 5)

    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(*zip(*[(rng.normal(size=4), int(rng.integers(0, 11)), 10)
                                 for _ in range(5)]))
        thetas = rng.normal(size=(3, 4))
        psis = rng.normal(size=(4, 1))
        tensor = loglik_tensor(self.model, data, thetas, psis)
        assert tensor.shape == (5, 3, 4)
        for i, obs in enumerate(scalar.rows(data)):
            for a in range(3):
                for b in range(4):
                    assert_allclose(
                        tensor[i, a, b],
                        scalar.binomial_logit(obs, thetas[a], psis[b]),
                        rtol=0, atol=1e-11)

    LOGITS = (0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0, 1e300, -1e300)

    @pytest.mark.parametrize("form", ["product", "per-observation"])
    def test_in_place_cells_equal_the_textbook_form(self, form):
        """The cells, formed in place, carry the bits of log C(n, y)
        - y logaddexp(0, -t) - (n - y) logaddexp(0, t) at the linear
        predictor t = x . theta + psi.  A zero theta row puts each psi on t
        exactly, so the extreme logits LOGITS are covered beside random
        ones; the caller's arrays and the data columns are left as they
        were."""
        rng = np.random.default_rng(RNG_SEED)
        n = 9
        counts = rng.integers(1, 41, size=n)
        outcomes = np.minimum(rng.integers(0, 41, size=n), counts)
        outcomes[:2] = 0, counts[1]
        data = SourceData(rng.normal(size=(n, 4)), outcomes, counts)
        thetas = np.vstack([np.zeros(4), rng.normal(size=(3, 4)) * 4.0])
        psi_values = np.r_[self.LOGITS, rng.normal(size=7) * 5.0]
        if form == "product":
            psis = psi_values[:, None]
            psi_column = psis[None, None, :, 0]
        else:
            # every theta row against every psi value, paired row by row
            thetas = np.repeat(thetas, psi_values.size, axis=0)
            psis = np.stack([np.tile(rng.permutation(psi_values), 4)
                             for _ in range(n)])[:, :, None]
            psi_column = psis
        before = [arr.copy() for arr in (thetas, psis, data.covariates, data.outcomes,
                                         data.trial_counts)]

        got = loglik_tensor(self.model, data, thetas, psis)

        y = data.outcomes[:, None, None]
        failures = data.trial_counts[:, None, None] - y
        log_coef = (scipy.special.gammaln(data.trial_counts + 1)
                    - scipy.special.gammaln(data.outcomes + 1)
                    - scipy.special.gammaln(failures[:, 0, 0] + 1))[:, None, None]
        t = (data.covariates @ thetas.T)[:, :, None] + psi_column
        zero_theta = (thetas == 0.0).all(axis=1)
        assert set(self.LOGITS) <= set(t[:, zero_theta, :].ravel())
        want = log_coef - y * np.logaddexp(0.0, -t) - failures * np.logaddexp(0.0, t)
        assert got.shape == want.shape == ((n, 4, psi_values.size) if form == "product"
                                           else (n, 4 * psi_values.size, 1))
        assert np.isfinite(want).all()
        assert got.tobytes() == want.tobytes()
        for old, new in zip(before, (thetas, psis, data.covariates, data.outcomes,
                                     data.trial_counts)):
            assert new.tobytes() == old.tobytes()

    EXTREME_LOGITS = (-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                      1e308, -1e308, 709.0, -709.0)

    def test_cells_keep_the_textbook_bits_at_non_finite_logits(self):
        """The shared softplus at the logits the textbook test cannot reach,
        as it asserts finite cells: the model's log_likelihood is called
        directly, since loglik_tensor rejects a NaN cell.  A zero theta row
        puts each psi on t; the product x . 0 sums from +0.0, so a psi of
        -0.0 reaches t as a zero of either sign, which gives log 2 in both
        softplus terms.  Outcomes of 0 and of the trial count put 0 * inf,
        a NaN cell, at t = -inf and t = +inf.  NaN positions, NaN bits and
        zero signs are compared with the rest."""
        rng = np.random.default_rng(RNG_SEED)
        counts = np.array([1, 7, 40, 13])
        outcomes = np.array([0, 7, 17, 0])
        data = SourceData(rng.normal(size=(4, 4)), outcomes, counts)
        thetas = np.vstack([np.zeros(4), rng.normal(size=4)])
        psis = np.array(self.EXTREME_LOGITS)[:, None]

        with np.errstate(all="ignore"):
            got = self.model.log_likelihood(data, thetas, psis)
            y = data.outcomes[:, None, None]
            failures = data.trial_counts[:, None, None] - y
            log_coef = (scipy.special.gammaln(data.trial_counts + 1)
                        - scipy.special.gammaln(data.outcomes + 1)
                        - scipy.special.gammaln(failures[:, 0, 0] + 1))[:, None, None]
            t = (data.covariates @ thetas.T)[:, :, None] + psis[None, None, :, 0]
            want = log_coef - y * np.logaddexp(0.0, -t) - failures * np.logaddexp(0.0, t)

        assert_array_equal(t[:, 0, :], np.broadcast_to(psis[:, 0], (4, psis.shape[0])))
        assert got.shape == want.shape == (4, 2, len(self.EXTREME_LOGITS))
        assert np.isnan(want).any() and np.isinf(want).any() and (want == 0.0).any()
        assert_array_equal(np.isnan(got), np.isnan(want))
        assert got.tobytes() == want.tobytes()

    def test_simulate_mean(self):
        rng = np.random.default_rng(RNG_SEED)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        theta, psi = [0.8, 0, 0, 0], -0.3
        draws = np.array([
            self.model.simulate(x, theta, psi, rng, trial_count=20)
            for _ in range(4000)])
        assert_allclose(draws.mean(), 20 * expit(0.5), atol=0.15)

    def test_simulate_needs_trial_count(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="trial_count"):
            self.model.simulate(np.zeros(4), np.zeros(4), 0.0, rng)


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
        obs = _one(self.x, np.zeros(7))
        for theta, psi in [(0.3, 1.2), (2.0, 0.1), (5.0, 5.0)]:
            k = self._kernel(theta, psi)
            _, logdet = np.linalg.slogdet(k)
            want = -0.5 * (logdet + 7 * LOG_2PI)
            got = _cell(self.model, obs, theta, psi)
            # long lengthscales leave K barely above the jitter floor, so
            # LU and Cholesky determinants drift apart in the last digits
            assert_allclose(got, want, rtol=1e-8)

    def test_general_trajectory_against_solve_oracle(self):
        rng = np.random.default_rng(RNG_SEED)
        k = self._kernel(0.7, 2.5)
        y = np.linalg.cholesky(k) @ rng.normal(size=7)
        obs = _one(self.x, y)
        _, logdet = np.linalg.slogdet(k)
        want = -0.5 * (y @ np.linalg.solve(k, y) + logdet + 7 * LOG_2PI)
        got = _cell(self.model, obs, 0.7, 2.5)
        assert_allclose(got, want, rtol=1e-9)

    def test_equal_lengthscales_collapse_to_single_rbf(self):
        obs = _one(self.x, np.sin(3 * self.x))
        sq = (self.x[:, None] - self.x[None, :]) ** 2
        k = np.exp(-0.5 * sq / 0.8 ** 2) + 1e-8 * np.eye(7)
        _, logdet = np.linalg.slogdet(k)
        y = obs.outcomes[0]
        want = -0.5 * (y @ np.linalg.solve(k, y) + logdet + 7 * LOG_2PI)
        got = _cell(self.model, obs, 0.8, 0.8)
        assert_allclose(got, want, rtol=1e-9)

    def test_kernel_diagonal_is_one_plus_jitter(self):
        assert_allclose(np.diag(self._kernel(1.0, 2.0)), 1.0 + 1e-8, rtol=0,
                        atol=1e-15)

    def test_positive_definite_across_support(self):
        rng = np.random.default_rng(RNG_SEED)
        obs = _one(self.x, np.zeros(7))
        for _ in range(100):
            theta = rng.uniform(0.05, 12.0)
            psi = rng.uniform(0.05, 12.0)
            ll = _cell(self.model, obs, theta, psi)
            assert np.isfinite(ll)

    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(np.tile(self.x, (3, 1)), [rng.normal(size=7) for _ in range(3)])
        thetas = rng.uniform(0.2, 6.0, size=(4, 1))
        psis = rng.uniform(0.2, 6.0, size=(2, 1))
        tensor = loglik_tensor(self.model, data, thetas, psis)
        for i, obs in enumerate(scalar.rows(data)):
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
        data = SourceData(np.tile(x, (3, 1)), [
            model.simulate(x, th, ps, rng)
            for th, ps in [(11.5, 11.8), (0.3, 2.0), (12.0, 0.05)]])
        sq = (x[:, None] - x[None, :]) ** 2
        kernel = 0.5 * (np.exp(-0.5 * sq / thetas[0, 0] ** 2)
                        + np.exp(-0.5 * sq / psis[0, 0] ** 2)) + 1e-8 * np.eye(10)
        assert np.linalg.cond(kernel) > 1e7
        tensor = loglik_tensor(model, data, thetas, psis)
        for i, obs in enumerate(scalar.rows(data)):
            for a in range(4):
                for b in range(3):
                    assert_allclose(tensor[i, a, b],
                                    scalar.gp(obs, thetas[a], psis[b]), rtol=1e-9)

    def test_rejects_trajectory_of_wrong_length(self):
        data = _one(self.x[:5], np.zeros(5))
        with pytest.raises(ValueError, match="length 7"):
            loglik_tensor(self.model, data, [[1.0]], [[1.0]])

    def test_simulate_pointwise_variance(self):
        rng = np.random.default_rng(RNG_SEED)
        theta, psi = 1.0, 3.0
        draws = np.stack([
            self.model.simulate(self.x, theta, psi, rng)
            for _ in range(3000)])
        assert_allclose(draws.var(axis=0), 1.0, atol=0.12)
        assert_allclose(draws.mean(axis=0), 0.0, atol=0.08)

    def test_rejects_nonpositive_lengthscale(self):
        obs = data = _one(self.x, np.zeros(7))
        for theta, psi in [(-1.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError, match="positive"):
                _cell(self.model, obs, theta, psi)
            with pytest.raises(ValueError, match="positive"):
                loglik_tensor(self.model, data, [[1.0], [theta]], [[psi], [2.0]])
            with pytest.raises(ValueError, match="positive"):
                _gp_mode_density(self.model, data, np.array([[theta]]), np.array([[psi]]))
            with pytest.raises(ValueError, match="positive"):
                self.model.simulate(self.x, theta, psi,
                                    np.random.default_rng(0))

    def test_simulate_stream_pinned(self):
        """Two draws recorded on the code that factored one kernel at a
        time; the batched factor at A = B = 1 must reproduce them exactly."""
        rng = np.random.default_rng(RNG_SEED)
        first = self.model.simulate(self.x, 1.0, 3.0, rng)
        second = self.model.simulate(self.x, 0.05, 12.0, rng)
        assert first.tolist() == [
            -0.9787531550557662, -0.7861107587411116, -0.5849983500129359,
            -0.3926286316000853, -0.22125182078713523, -0.07636784434769331,
            0.03948493310800927]
        assert second.tolist() == [
            -0.13397888754672144, 1.4871920834236168, 0.7026165097819768,
            2.1804326759142434, -1.2157452747397643, 0.9183078061091721,
            -0.21572800242287127]

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            gp_model([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            gp_model([0.5])


def _gp_mode_density(model, data, thetas, psis) -> np.ndarray:
    """The gp model's (A, B) component mode densities, read through its
    log_predictive_mode_density with one-hot beliefs: a log-sum-exp over a
    single finite term returns that term exactly."""
    return np.stack([model.log_predictive_mode_density(data, thetas, psis, belief)[0]
                     for belief in np.eye(len(thetas))])


@pytest.fixture
def batches(monkeypatch):
    """The batch size of every factorisation that succeeds, recorded by
    wrapping np.linalg.cholesky."""
    sizes = []
    original = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        out = original(a, *args, **kwargs)
        sizes.append(int(np.prod(np.shape(a)[:-2])))
        return out

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return sizes


class TestGpFactorCache:
    """The GP model factors each distinct lengthscale pair of a node product
    once and keeps the two most recently used products, counted by the
    batches fixture."""

    @staticmethod
    def _data(x, rng, n=3):
        return SourceData(np.tile(x, (n, 1)), [rng.normal(size=x.size) for _ in range(n)])

    def test_one_simulation_factors_each_node_product_once(self, batches):
        config = ExperimentConfig(experiment="gp", n_simulations=1, master_seed=1,
                                  grid_resolution=10)
        assert run_experiment(config)[0].error is None
        # the 10 x 10 grid, whose axes carry the same nodes, so its 55
        # unordered lengthscale pairs, and the (theta grid, psi*) product of
        # the expert proxy, once each; every other factorisation draws
        # trajectories, and the m_target target-task ones share (theta*, psi*)
        assert sorted(b for b in batches if b > 1) == [10, 55]
        scenario = config.scenario
        assert batches.count(1) == 1 + scenario.n_trajectories - scenario.m_target

    def test_grid_is_factored_once_per_process(self, batches):
        """The learner's model is kept across simulations: each simulation
        factors its own (theta grid, psi*) product, and only the first
        factors the grid; a second run in the same process factors no grid."""
        config = ExperimentConfig(experiment="gp", n_simulations=3, master_seed=1,
                                  grid_resolution=10)
        assert all(r.error is None for r in run_experiment(config))
        assert sorted(b for b in batches if b > 1) == [10, 10, 10, 55]
        before = len(batches)
        assert all(r.error is None for r in run_experiment(config))
        assert 55 not in batches[before:]

    def test_mode_density_after_tensor_adds_no_factorisation(self, batches):
        x = np.linspace(0.0, 1.0, 7)
        model = gp_model(x)
        thetas = np.array([[0.3], [1.0], [4.0]])
        psis = np.array([[0.5], [2.0]])
        data = self._data(x, np.random.default_rng(RNG_SEED))
        loglik_tensor(model, data, thetas, psis)
        assert batches == [6]
        got = _gp_mode_density(model, data, thetas, psis)
        assert batches == [6]
        fresh = _gp_mode_density(gp_model(x), data, thetas, psis)
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
        for i, obs in enumerate(scalar.rows(second)):
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
        # the two most recently used are kept, the first was evicted and is
        # factored anew
        for (th, ps), want in zip(products[1:], tensors[1:]):
            assert_array_equal(loglik_tensor(model, data, th, ps), want)
        assert batches == [2, 3, 2]
        assert_array_equal(loglik_tensor(model, data, *products[0]), tensors[0])
        assert batches == [2, 3, 2, 2]
        assert_array_equal(tensors[0][:, ::-1], tensors[2])

    def test_hit_keeps_the_product_most_recently_used(self, batches):
        """grid, small product, grid, another small product, grid: each hit
        on the grid makes it the most recently used, so the second small
        product evicts the first, and the grid is factored once (evicting
        the oldest factored product would factor it twice)."""
        x = np.linspace(0.0, 1.0, 7)
        model = gp_model(x)
        data = self._data(x, np.random.default_rng(RNG_SEED))
        nodes = np.array([[0.5], [1.0], [2.0]])
        grid = loglik_tensor(model, data, nodes, nodes)
        for psi in (0.7, 3.0):
            loglik_tensor(model, data, nodes, np.array([[psi]]))
            assert_array_equal(loglik_tensor(model, data, nodes, nodes), grid)
        assert batches == [6, 3, 3]


def _gp_columns(x, data, thetas, psis) -> np.ndarray:
    """The gp tensor one (theta nodes, psi_b) column at a time, each on a
    fresh model: no column repeats a lengthscale pair, so each is factored
    without sharing."""
    return np.stack([loglik_tensor(gp_model(x), data, thetas, psis[b:b + 1])[:, :, 0]
                     for b in range(len(psis))], axis=2)


class TestGpDistinctPairs:
    """The kernel is symmetric in theta and psi, so the gp model factors each
    unordered lengthscale pair {theta_a, psi_b} of a product once.  Sharing
    must not change a byte: the product tensor equals its columns evaluated
    alone."""

    @staticmethod
    def _data(model, x, rng, n=4):
        return SourceData(np.tile(x, (n, 1)), [
            model.simulate(x, th, ps, rng) for th, ps in rng.uniform(0.05, 12.0, size=(n, 2))])

    @staticmethod
    def _products(rng):
        nodes = midpoint_nodes(0.05, 12.0, 9)[:, None]
        thetas = rng.uniform(0.05, 12.0, size=(6, 1))
        psis = np.vstack([thetas[[4, 1]], rng.uniform(0.05, 12.0, size=(3, 1))])
        # the near-singular setting of test_long_lengthscales_match_scalar_oracle
        long_thetas = rng.uniform(11.0, 12.0, size=(4, 1))
        long_psis = np.vstack([long_thetas[[2, 0]], rng.uniform(11.0, 12.0, size=(1, 1))])
        return {"symmetric": (nodes, nodes, 45),
                "overlapping": (thetas, rng.permutation(psis), 29),
                "long": (long_thetas, long_psis, 11)}

    @pytest.mark.parametrize("case", ["symmetric", "overlapping", "long"])
    def test_product_equals_columns_byte_for_byte(self, case, batches):
        x = np.linspace(0.0, 1.0, 10)
        rng = np.random.default_rng(RNG_SEED)
        thetas, psis, distinct = self._products(rng)[case]
        data = self._data(gp_model(x), x, rng)
        batches.clear()
        model = gp_model(x)
        tensor = loglik_tensor(model, data, thetas, psis)
        assert batches == [distinct]
        assert tensor.tobytes() == _gp_columns(x, data, thetas, psis).tobytes()
        mode = _gp_mode_density(model, data, thetas, psis)
        columns = np.hstack([_gp_mode_density(gp_model(x), data, thetas, psis[b:b + 1])
                             for b in range(len(psis))])
        assert mode.tobytes() == columns.tobytes()

    def test_raised_jitter_factors_as_the_full_product(self, monkeypatch):
        """A batch refused at jitter 1e-8 and 1e-7 is retried with its
        diagonal reset from the kernel's own, so at 1e-6 each distinct factor
        is bitwise the one of K + 1e-6 I over the full product."""
        x = np.linspace(0.0, 1.0, 7)
        nodes = midpoint_nodes(0.05, 12.0, 5)[:, None]
        data = self._data(gp_model(x), x, np.random.default_rng(RNG_SEED))
        original = np.linalg.cholesky
        tried = []

        def refusing(a):
            jitter = float(a[0, 0, 0]) - 1.0      # the kernel diagonal is 1 + jitter
            tried.append(jitter)
            if jitter < 5e-7:
                raise np.linalg.LinAlgError("refused below 1e-6")
            return original(a)

        monkeypatch.setattr(np.linalg, "cholesky", refusing)
        model = gp_model(x)
        mode = _gp_mode_density(model, data, nodes, nodes)
        assert_allclose(tried, [1e-8, 1e-7, 1e-6], rtol=1e-6)
        tensor = loglik_tensor(model, data, nodes, nodes)
        columns = _gp_columns(x, data, nodes, nodes)
        monkeypatch.undo()
        assert tensor.tobytes() == columns.tobytes()

        r = np.exp(-(x[:, None] - x[None, :]) ** 2 / (2.0 * nodes[:, :, None] ** 2))
        chol = np.linalg.cholesky(0.5 * (r[:, None] + r[None, :]) + 1e-6 * np.eye(7))
        log_det = np.log(np.diagonal(chol, axis1=2, axis2=3)).sum(axis=2)
        assert mode.tobytes() == (-log_det - 0.5 * 7 * LOG_2PI).tobytes()


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
        model = discrete_toy_model(table)
        for a in range(2):
            for b in range(2):
                for o in range(3):
                    obs = _one(np.empty(0), o)
                    got = _cell(model, obs, float(a), float(b))
                    assert_allclose(got, np.log(table[a, b, o]), rtol=0, atol=1e-14)

    def test_uniform_table(self):
        table = np.full((2, 2, 4), 0.25)
        model = discrete_toy_model(table)
        obs = _one(np.empty(0), 2)
        ll = _cell(model, obs, 0.0, 1.0)
        assert_allclose(ll, np.log(0.25), rtol=0, atol=1e-15)

    def test_rows_must_sum_to_one(self):
        bad = np.full((2, 2, 3), 0.5)
        with pytest.raises(ValueError):
            discrete_toy_model(bad)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 3, 1), (0, 2, 3), (2, 2, 0)])
    def test_table_must_be_nonempty_3d(self, shape):
        """The counts come from the table's shape, so a table of another
        rank, or with no theta, psi or outcome nodes, is refused."""
        with pytest.raises(ValueError, match="nonempty 3-d"):
            discrete_toy_model(np.full(shape, 1.0 / 3.0))

    def test_nan_table_rejected(self):
        """A NaN passes a sign test and fails the row-sum test."""
        with pytest.raises(ValueError, match=r"table row \(0, 0\) sums to"):
            discrete_toy_model([[[np.nan, 1.0]]])
        with pytest.raises(ValueError, match=r"table row \(1, 0\) sums to"):
            discrete_toy_model([[[0.5, 0.5]], [[1.0, np.nan]]])

    def test_zero_probability_outcome_gives_neg_inf(self):
        table = np.array([[[1.0, 0.0], [0.5, 0.5]],
                          [[0.3, 0.7], [0.9, 0.1]]])
        model = discrete_toy_model(table)
        obs = _one(np.empty(0), 1)
        ll = _cell(model, obs, 0.0, 0.0)
        assert ll == -np.inf

    def test_batch_lookup_matches_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        table = _toy_table(rng, n_out=4, n_theta=3, n_psi=2)
        model = discrete_toy_model(table)
        data = SourceData(np.empty((5, 0)), rng.integers(0, 4, size=5))
        thetas = np.arange(3, dtype=float)[:, None]
        psis = np.arange(2, dtype=float)[:, None]
        tensor = loglik_tensor(model, data, thetas, psis)
        for i, obs in enumerate(scalar.rows(data)):
            for a in range(3):
                for b in range(2):
                    assert_allclose(tensor[i, a, b],
                                    scalar.discrete_toy(table, obs, thetas[a], psis[b]),
                                    rtol=0, atol=1e-14)

    def test_negative_index_raises(self):
        """A negative node would wrap round to the end of the table."""
        model = discrete_toy_model(_toy_table(np.random.default_rng(RNG_SEED)))
        data = _one(np.empty(0), 1)
        with pytest.raises(ValueError, match="non-negative"):
            loglik_tensor(model, data, [[-1.0], [1.0]], [[0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            loglik_tensor(model, data, [[0.0]], [[1.0], [-1.0]])
        with pytest.raises(IndexError):
            loglik_tensor(model, data, [[2.0]], [[0.0]])

    def test_simulate_goodness_of_fit(self):
        rng = np.random.default_rng(RNG_SEED)
        table = np.array([[[0.5, 0.3, 0.2]]])
        model = discrete_toy_model(table)
        draws = np.array([model.simulate(np.empty(0), 0.0,
                                         0.0, rng)
                          for _ in range(2000)])
        counts = np.bincount(draws.astype(int), minlength=3)
        result = stats.chisquare(counts, 2000 * table[0, 0])
        assert result.pvalue > 0.01

    def test_outcome_space_enumerates_alphabet(self):
        table = np.full((1, 1, 5), 0.2)
        model = discrete_toy_model(table)
        assert_allclose(model.outcome_space, np.arange(5))


def _binomial_data(rng, n, trials) -> SourceData:
    return SourceData(*zip(*[(rng.normal(size=4), int(rng.integers(0, trials + 1)), trials)
                             for _ in range(n)]))


class TestBinomialKeptConstants:
    """The binomial model keeps the log binomial coefficient and the count
    columns of the last SourceData it saw, compared by identity; counted by
    wrapping the gammaln the model looks up at call time."""

    @pytest.fixture
    def gammaln_calls(self, monkeypatch):
        calls = []
        original = relbayes.models.gammaln

        def counting(x, *args, **kwargs):
            calls.append(np.shape(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(relbayes.models, "gammaln", counting)
        return calls

    def test_alternating_data_sets_match_scalar_oracle(self):
        rng = np.random.default_rng(RNG_SEED)
        model = binomial_logit_model()
        first, second = _binomial_data(rng, 5, 10), _binomial_data(rng, 3, 40)
        thetas = rng.normal(size=(2, 4))
        psis = rng.normal(size=(3, 1))
        for data in (first, second, first, second):
            tensor = loglik_tensor(model, data, thetas, psis)
            for i, obs in enumerate(scalar.rows(data)):
                for a in range(2):
                    for b in range(3):
                        assert_allclose(tensor[i, a, b],
                                        scalar.binomial_logit(obs, thetas[a], psis[b]),
                                        rtol=0, atol=1e-11)

    @pytest.mark.filterwarnings("ignore:acceptance rate")
    def test_chain_computes_the_coefficient_once_per_data_set(self, gammaln_calls):
        rng = np.random.default_rng(RNG_SEED)
        model = binomial_logit_model()
        data = _binomial_data(rng, 6, 12)

        def prior(theta, psi):
            return float(-0.5 * (theta @ theta + psi @ psi))

        metropolis_posterior(model, data, prior, n_samples=2000, seed=1)
        assert len(gammaln_calls) == 3
        # a second chain, the known-groups target, on the same data set
        metropolis_posterior(model, data, prior, n_samples=2000, seed=2,
                             groups=[[0, 1, 2], [3, 4, 5]])
        assert len(gammaln_calls) == 3
        loglik_tensor(model, _binomial_data(rng, 2, 5), np.zeros((1, 4)), np.zeros((1, 1)))
        assert len(gammaln_calls) == 6

    @pytest.mark.parametrize("column", ["outcomes", "covariates", "trial_counts"])
    def test_source_data_columns_are_read_only(self, column):
        data = _binomial_data(np.random.default_rng(RNG_SEED), 3, 10)
        with pytest.raises(ValueError, match="read-only"):
            getattr(data, column)[0] = 1.0


class TestPerObservationPsi:
    """psis of shape (n, A, k_psi) gives observation i its own task row for
    each theta row: the aligned cells are the gather of the full parameter
    product."""

    @staticmethod
    def _check_gather(model, data, thetas, nodes, rng):
        node_of = rng.integers(0, nodes.shape[0], size=(data.n, thetas.shape[0]))
        product = loglik_tensor(model, data, thetas, nodes)                  # (n, A, G)
        rows = loglik_tensor(model, data, thetas, nodes[node_of])            # (n, A, 1)
        assert rows.shape == (data.n, thetas.shape[0], 1)
        assert_array_equal(rows[:, :, 0], np.take_along_axis(product, node_of[:, :, None],
                                                             axis=2)[:, :, 0])

    def test_linear(self):
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(9)]))
        self._check_gather(linear_model(), data, rng.normal(size=(3, 1)),
                           rng.normal(size=(4, 1)), rng)

    def test_binomial(self):
        """One-hot covariates, as the smoking arms have, so a theta row's
        linear predictor has the same bits whichever rows share its call."""
        rng = np.random.default_rng(RNG_SEED)
        data = _binomial_data(rng, 9, 15)
        data = SourceData(np.eye(4)[rng.integers(0, 4, size=9)], data.outcomes,
                          data.trial_counts)
        self._check_gather(binomial_logit_model(), data, rng.normal(size=(3, 4)),
                           rng.normal(size=(5, 1)), rng)

    def test_toy(self):
        rng = np.random.default_rng(RNG_SEED)
        table = _toy_table(rng, n_out=4, n_theta=3, n_psi=3)
        table[1, 2] = [0.0, 0.5, 0.5, 0.0]     # -inf cells gather like any other
        model = discrete_toy_model(table)
        data = SourceData(np.empty((9, 0)), rng.integers(0, 4, size=9))
        self._check_gather(model, data, np.arange(3, dtype=float)[:, None],
                           np.arange(3, dtype=float)[:, None], rng)

    def test_several_rows_per_observation(self):
        """Each (observation, theta row) cell equals the one-cell evaluation
        of that observation at its own (theta, psi) pair."""
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(4)]))
        thetas = rng.normal(size=(3, 1))
        rows = rng.normal(size=(4, 3, 1))
        tensor = loglik_tensor(linear_model(), data, thetas, rows)
        assert tensor.shape == (4, 3, 1)
        for i in range(4):
            single = scalar.rows(data)[i]
            for a in range(3):
                assert_array_equal(tensor[i, a], loglik_tensor(
                    linear_model(), single, thetas[a:a + 1], rows[i, a:a + 1])[0, 0])

    def test_gp_rejects_per_observation_rows(self):
        x = np.linspace(0.0, 1.0, 5)
        data = SourceData(np.tile(x, (2, 1)), [np.zeros(5), np.ones(5)])
        with pytest.raises(ValueError, match="per-observation"):
            loglik_tensor(gp_model(x), data, [[1.0]], np.ones((2, 1, 1)))

    def test_row_count_must_match_data(self):
        data = _one([1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="rows"):
            loglik_tensor(linear_model(), data, [[1.0]], np.ones((2, 1, 1)))

    def test_rows_must_align_with_the_thetas(self):
        data = _one([1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="rows"):
            loglik_tensor(linear_model(), data, [[1.0], [2.0]], np.ones((1, 3, 1)))


class TestLoglikTensor:
    def test_nan_is_reported_with_observation_index(self):
        model = linear_model()

        def nan_batch(data, thetas, psis):
            out = np.zeros((data.n, thetas.shape[0], psis.shape[0]))
            out[1, 0, 0] = np.nan
            return out

        import dataclasses
        model_bad = dataclasses.replace(model, log_likelihood=nan_batch)
        data = SourceData(np.zeros((2, 2)), [0.0, 0.0])
        with pytest.raises(FloatingPointError, match="1"):
            loglik_tensor(model_bad, data, np.zeros((1, 1)), np.zeros((1, 1)))

    @staticmethod
    def _returning(out):
        """The linear model with its evaluator replaced by a fixed tensor."""
        import dataclasses
        return dataclasses.replace(linear_model(), log_likelihood=lambda *_: out.copy())

    def test_first_nan_observation_is_named(self):
        """The check is one min; the index is found only once it fails, and
        it is the first observation holding a NaN."""
        out = np.zeros((5, 3, 2))
        out[4, 0, 0] = out[2, 2, 1] = out[3, 1, 0] = np.nan
        data = SourceData(np.zeros((5, 2)), np.zeros(5))
        with pytest.raises(FloatingPointError,
                           match="^NaN log-likelihood at observation index 2$"):
            loglik_tensor(self._returning(out), data, np.zeros((3, 1)), np.zeros((2, 1)))

    def test_infinities_without_nan_pass(self):
        out = np.zeros((2, 3, 2))
        out[0, 1, 1] = np.inf
        out[1, 2, 0] = -np.inf
        data = SourceData(np.zeros((2, 2)), np.zeros(2))
        got = loglik_tensor(self._returning(out), data, np.zeros((3, 1)), np.zeros((2, 1)))
        assert_array_equal(got, out)

    @pytest.mark.parametrize("name", ["linear", "binomial-logit", "gp", "discrete-toy"])
    def test_tensor_is_c_contiguous(self, name):
        """Reductions over the tensor sum in memory order, so a strided view
        would change results in the last bits; every model returns C order."""
        rng = np.random.default_rng(RNG_SEED)
        x = np.linspace(0.0, 1.0, 5)
        model = {"linear": linear_model, "binomial-logit": binomial_logit_model,
                 "gp": lambda: gp_model(x),
                 "discrete-toy": lambda: discrete_toy_model(_toy_table(rng, 3, 3, 2)),
                 }[name]()
        covariate_dim = {"linear": 2, "binomial-logit": 4, "gp": x.size, "discrete-toy": 0}[name]
        if name == "discrete-toy":
            grid = toy_grid(3, 2)
        else:
            thetas = box_nodes(model.theta_support, 2)
            grid = ParameterGrid(theta_nodes=thetas, psi_nodes=box_nodes(model.psi_support, 3),
                                 theta_prior_mass=np.full(len(thetas), 1.0 / len(thetas)),
                                 psi_prior_mass=np.full(3, 1.0 / 3))
        theta = grid.theta_nodes[0]
        kwargs = {"trial_count": 5} if name == "binomial-logit" else {}
        covariates, outcomes = [], []
        for _ in range(3):
            covariates.append(rng.uniform(size=covariate_dim))
            outcomes.append(model.simulate(covariates[-1], theta, grid.psi_nodes[1], rng,
                                           **kwargs))
        data = SourceData(covariates, outcomes, [5] * 3 if kwargs else None)
        tensor = loglik_tensor(model, data, grid.theta_nodes, grid.psi_nodes)
        assert tensor.shape == (3, grid.n_theta, grid.n_psi)
        assert tensor.flags.c_contiguous
        assert GridProblem(model, data, grid).tensor.flags.c_contiguous


class TestLoglikSum:
    """loglik_sum is one sum per theta row of loglik_tensor's cells, each
    summed as one contiguous vector, with the tensor's NaN check."""

    @staticmethod
    def _case(name, form, rng):
        """(model, data, thetas, psis) as float arrays of the final shapes."""
        n = 9
        if name == "linear":
            model = linear_model()
            data = SourceData(rng.normal(size=(n, 2)), rng.normal(size=n))
            thetas, psis = rng.normal(size=(3, 1)), rng.normal(size=(4, 1))
        elif name == "binomial":
            model = binomial_logit_model()
            data = _binomial_data(rng, n, 15)
            thetas, psis = rng.normal(size=(3, 4)), rng.normal(size=(5, 1))
        elif name == "toy":
            model = discrete_toy_model(_toy_table(rng, n_out=4, n_theta=3, n_psi=3))
            data = SourceData(np.empty((n, 0)), rng.integers(0, 4, size=n))
            thetas = psis = np.arange(3, dtype=float)[:, None]
        else:
            x = np.linspace(0.0, 1.0, 5)
            model = gp_model(x)
            data = SourceData(np.tile(x, (n, 1)),
                              [model.simulate(x, 1.0, 0.5, rng) for _ in range(n)])
            thetas, psis = rng.uniform(0.1, 2.0, size=(3, 1)), rng.uniform(0.1, 2.0, size=(2, 1))
        if form == "per-observation":
            psis = psis[rng.integers(0, len(psis), size=(n, len(thetas)))]
        return model, data, thetas, psis

    @pytest.mark.parametrize("name, form", [
        ("linear", "product"), ("binomial", "product"), ("toy", "product"), ("gp", "product"),
        ("linear", "per-observation"), ("binomial", "per-observation")])
    def test_equals_the_tensor_sum_bit_for_bit(self, name, form):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            model, data, thetas, psis = self._case(name, form, rng)
            got = loglik_sum(model, data, thetas, psis)
            tensor = loglik_tensor(model, data, thetas, psis)
            assert len(got) == len(thetas)
            for a, value in enumerate(got):
                want = np.ascontiguousarray(tensor[:, a, :]).ravel().sum()
                assert type(value) is float
                assert np.float64(value).tobytes() == want.tobytes()

    def test_each_row_sums_as_a_contiguous_vector(self):
        """Row sums of random cells, for row lengths on both sides of
        numpy's pairwise blocks, have the bits of the one-row sum."""
        rng = np.random.default_rng(RNG_SEED)
        for n in (1, 7, 8, 9, 47, 128, 129, 300):
            for rows in (1, 2, 6):
                out = rng.normal(size=(n, rows, 1)) * 10.0 ** rng.integers(-5, 6, size=(n, rows, 1))
                model = TestLoglikTensor._returning(out)
                data = SourceData(np.zeros((n, 2)), np.zeros(n))
                got = loglik_sum(model, data, np.zeros((rows, 1)), np.zeros((1, 1)))
                for a in range(rows):
                    assert np.float64(got[a]).tobytes() == out[:, a, 0].copy().sum().tobytes()

    def test_nan_cell_raises_as_the_tensor_does(self):
        out = np.zeros((5, 3, 2))
        out[4, 0, 0] = out[2, 2, 1] = out[3, 1, 0] = np.nan
        model = TestLoglikTensor._returning(out)
        data = SourceData(np.zeros((5, 2)), np.zeros(5))
        raised = []
        for check in (loglik_sum, loglik_tensor):
            with pytest.raises(FloatingPointError,
                               match="^NaN log-likelihood at observation index 2$") as info:
                check(model, data, np.zeros((3, 1)), np.zeros((2, 1)))
            raised.append(str(info.value))
        assert raised[0] == raised[1]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_opposite_infinities_sum_to_nan(self):
        """A +inf and a -inf cell of one theta row, with no NaN, pass the
        tensor's check and sum to NaN; loglik_sum returns that NaN for the
        row, the other rows' sums beside it, and does not raise.  Opposite
        infinities in different rows make no NaN at all."""
        out = np.zeros((2, 3, 2))
        out[0, 1, 1] = np.inf
        out[1, 1, 0] = -np.inf
        out[1, 2, 0] = np.inf
        model = TestLoglikTensor._returning(out)
        data = SourceData(np.zeros((2, 2)), np.zeros(2))
        got = loglik_sum(model, data, np.zeros((3, 1)), np.zeros((2, 1)))
        assert got[0] == 0.0 and math.isnan(got[1]) and got[2] == np.inf
        assert math.isnan(loglik_tensor(model, data, np.zeros((3, 1)), np.zeros((2, 1)))[:, 1].sum())
        out[1, 1, 0] = 0.0
        out[1, 2, 0] = -np.inf
        got = loglik_sum(model, data, np.zeros((3, 1)), np.zeros((2, 1)))
        assert got == [0.0, np.inf, -np.inf]
