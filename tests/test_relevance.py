"""Relevance weight families and the refinement loop."""

import dataclasses
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from _scalar_reference import prior_expected_matrix, refine_prior_expected
from relbayes import inference, models
from relbayes.grids import ParameterGrid, build_grid, toy_grid
from relbayes.harness import runner, smoking
from relbayes.harness.config import ExperimentConfig
from relbayes.inference import GridProblem, proxy_loglik_vector, r_weighted_posterior
from relbayes.models import (SourceData, binomial_logit_model,
                             discrete_toy_model, gp_model, linear_model, loglik_tensor)
from relbayes.relevance import (DegenerateRelevanceError, RelevanceConfigError,
                                _belief_averager, _predictive_mode_matrix,
                                prior_expected_relevance, refine_relevance,
                                sigmoid_ratio_relevance)
from relbayes.synthetic import GpScenario, LinearScenario, gen_expert_proxy, \
    gen_gp_trajectories, gen_linear_instance, task_rng

RNG_SEED = 20260817

SIGMOID_1 = 0.7310585786300049
SIGMOID_4 = 0.9820137900379085


def _toy_obs(*outcomes):
    return SourceData(np.empty((len(outcomes), 0)), outcomes)


class TestSigmoidRatio:
    def test_single_observation_scores_sigmoid_of_one(self):
        """One observation always holds the whole pooled likelihood, so its
        ratio is exactly 1 whatever the model says."""
        table = np.array([[[0.37, 0.63]]])
        model = discrete_toy_model(table)
        w = sigmoid_ratio_relevance(model, _toy_obs(1), psi_target=0.0)
        assert_allclose(w, [SIGMOID_1], rtol=0, atol=1e-15)

    def test_two_half_probability_observations_score_sigmoid_of_four(self):
        # ratio_i = 2 * 0.5 / (0.5 * 0.5) = 4 for both observations
        table = np.array([[[0.5, 0.5]]])
        model = discrete_toy_model(table)
        w = sigmoid_ratio_relevance(model, _toy_obs(0, 1), psi_target=0.0)
        assert_allclose(w, [SIGMOID_4, SIGMOID_4], rtol=0, atol=1e-15)

    def test_overflowing_ratio_saturates_to_one(self):
        model = linear_model()
        data = SourceData([[0.0, 1.0], [0.0, 1.0]], [0.0, 60.0])
        w = sigmoid_ratio_relevance(model, data, psi_target=0.0)
        # the good observation's ratio overflows exp; it must clamp to
        # exactly 1 rather than warn or go nan
        assert w[0] == 1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(RNG_SEED)
        model = linear_model()
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(5)]))
        w = sigmoid_ratio_relevance(model, data, psi_target=0.3)
        lls = np.array([
            -0.5 * np.log(2 * np.pi)
            - 0.5 * (y - 0.3 * x[1]) ** 2 for x, y in zip(data.covariates, data.outcomes)])
        want = expit(np.exp(np.log(5.0) + lls - lls.sum()))
        assert_allclose(w, want, rtol=0, atol=1e-14)

    def test_zero_pooled_likelihood_raises(self):
        table = np.array([[[1.0, 0.0]]])
        model = discrete_toy_model(table)
        with pytest.raises(DegenerateRelevanceError):
            sigmoid_ratio_relevance(model, _toy_obs(0, 1), psi_target=0.0)

    def test_weights_lie_in_unit_interval(self):
        rng = np.random.default_rng(RNG_SEED)
        model = linear_model()
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(12)]))
        w = sigmoid_ratio_relevance(model, data, psi_target=0.3)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)


class TestSigmoidRatioBound:
    """For a pmf every weight is at least sigmoid(n), exactly 1.0 in float64
    from n = 37 on; models.N_UNIT adds one arm of margin."""

    def test_n_unit_is_one_past_the_first_saturated_integer(self):
        assert models.N_UNIT == 38
        assert expit(float(models.N_UNIT - 1)) == 1.0
        assert expit(float(models.N_UNIT - 2)) < 1.0

    def test_every_packaged_partition_saturates(self):
        """Every leave-one-study-out partition of the packaged smoking data
        has every weight exactly 1.0 for intercepts across [-8, 4]."""
        study_map = smoking.arms_by_study(smoking.ingest_smoking_csv(
            smoking.packaged_smoking_path()))
        model = binomial_logit_model()
        assert len(study_map) == 24
        for held in study_map:
            data, _ = smoking._stacked_data({s: r for s, r in study_map.items() if s != held})
            assert data.n >= models.N_UNIT, held
            for psi in np.linspace(-8.0, 4.0, 49):
                assert (sigmoid_ratio_relevance(model, data, psi) == 1.0).all(), (held, psi)

    @pytest.mark.parametrize("n_arms, saturated", [(36, False), (37, True)])
    def test_threshold_is_tight(self, n_arms, saturated):
        """Arms of one trial and no event, at an intercept of -10, each have
        probability 1 - sigmoid(-10), so the weights sit just above sigmoid(n):
        below 1 at 36 arms, exactly 1 at 37."""
        data = SourceData(np.zeros((n_arms, 4)), np.zeros(n_arms), np.ones(n_arms))
        w = sigmoid_ratio_relevance(binomial_logit_model(), data, -10.0)
        assert (w >= expit(float(n_arms))).all()
        assert (w == 1.0).all() == saturated


class TestPriorExpected:
    def test_dead_center_observation_scores_one(self):
        """An observation sitting exactly at the predictive mean of the only
        believed theta has density equal to the mode, so weight 1."""
        model = linear_model()
        theta0, psi = -0.7, 0.4
        x = np.array([1.3, -2.0])
        data = SourceData([x], [theta0 * x[0] + psi * x[1]])
        w = prior_expected_relevance(model, data, [[theta0]], [1.0], [[psi]])
        assert_allclose(w, [[1.0]], rtol=0, atol=1e-14)

    def test_weights_decay_with_residual(self):
        model = linear_model()
        x = np.array([1.0, 0.0])
        data = SourceData(np.tile(x, (4, 1)), [0.0, 0.5, 1.0, 3.0])
        w = prior_expected_relevance(model, data, [[0.0]], [1.0], [[0.0]])[:, 0]
        assert np.all(np.diff(w) < 0)
        assert_allclose(w[0], 1.0, atol=1e-14)
        assert_allclose(w[3], np.exp(-4.5), rtol=1e-12)

    def test_belief_average_of_two_components(self):
        """Hand arithmetic: mixture density over the mode of a normal with
        the mixture's variance 1 + x1^2 Var(theta)."""
        model = linear_model()
        x = np.array([1.0, 0.0])
        data = SourceData([x], [1.0])
        belief = np.array([0.25, 0.75])
        w = prior_expected_relevance(model, data, [[1.0], [0.0]], belief, [[0.0]])[:, 0]
        density = (0.25 * np.exp(0.0) + 0.75 * np.exp(-0.5)) / np.sqrt(2 * np.pi)
        var_theta = 0.25 * 1.0 - 0.25 ** 2
        mode = 1.0 / np.sqrt(2 * np.pi * (1.0 + var_theta))
        assert_allclose(w, [density / mode], rtol=1e-13)

    def test_mixture_peak_above_normalizer_clips_silently(self):
        """A belief split between two well-separated thetas has variance 1,
        so the matching normal is much flatter than either mixture lobe; an
        observation on a lobe peak lands past 1 and is clipped without
        noise, because that overshoot is inherent to the normalizer."""
        model = linear_model()
        x = np.array([2.0, 0.0])
        data = SourceData([x], [2.0])
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            w = prior_expected_relevance(model, data, [[1.0], [-1.0]],
                                         [0.5, 0.5], [[0.0]])[:, 0]
        assert_allclose(w, [1.0], rtol=0, atol=0)

    def test_grossly_understated_normalizer_warns(self):
        model = linear_model()
        model = dataclasses.replace(
            model, log_predictive_mode_density=lambda data, t, p, b: np.full(
                (data.n, p.shape[0]), -2.0))
        x = np.array([1.0, 0.0])
        data = SourceData([x], [0.0])
        with pytest.warns(RuntimeWarning, match="clipping"):
            w = prior_expected_relevance(model, data, [[0.0]], [1.0], [[0.0]])[:, 0]
        assert_allclose(w, [1.0], rtol=0, atol=0)

    def test_pmf_model_needs_no_normalizer(self):
        """A model without a predictive mode density (the toy, the binomial)
        scores by its belief-averaged pmf, which lies in [0, 1] already."""
        rng = np.random.default_rng(RNG_SEED)
        table = rng.dirichlet(np.full(3, 2.0), size=(2, 2))
        model = discrete_toy_model(table)
        assert model.log_predictive_mode_density is None
        w = prior_expected_relevance(model, _toy_obs(0, 2), [[0.0], [1.0]],
                                     [0.5, 0.5], [[1.0]])[:, 0]
        want0 = 0.5 * table[0, 1, 0] + 0.5 * table[1, 1, 0]
        assert_allclose(w[0], want0, rtol=1e-13)
        assert np.all(w <= 1.0)

    def test_missing_mode_density_scores_unnormalized(self):
        """A model without a predictive mode density is no longer an error:
        each observation scores its pmf, here 0.5, not a ratio to a mode."""
        table = np.full((1, 1, 2), 0.5)
        model = discrete_toy_model(table)
        w = prior_expected_relevance(model, _toy_obs(0, 1), [[0.0]], [1.0], [[0.0]])[:, 0]
        assert_allclose(w, [0.5, 0.5], rtol=0, atol=0)

    def test_mode_density_of_wrong_shape_rejected(self):
        model = dataclasses.replace(
            linear_model(), log_predictive_mode_density=lambda data, t, p, b: np.zeros(2))
        data = SourceData([[1.0, 0.0]], [0.0])
        with pytest.raises(RelevanceConfigError, match="shape"):
            prior_expected_relevance(model, data, [[0.0]], [1.0], [[0.0]])

    def test_psi_nodes_must_be_a_matrix(self):
        data = SourceData([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError, match="psi_nodes"):
            prior_expected_relevance(linear_model(), data, [[0.0]], [1.0], 0.0)

    def test_belief_must_be_normalized_mass(self):
        model = linear_model()
        data = SourceData([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError, match="theta_belief sums to"):
            prior_expected_relevance(model, data, [[0.0], [1.0]], [0.7, 0.7], [[0.0]])
        with pytest.raises(ValueError, match="theta_belief has negative entries"):
            prior_expected_relevance(model, data, [[0.0], [1.0]], [-0.5, 1.5], [[0.0]])
        with pytest.raises(ValueError, match="one mass per"):
            prior_expected_relevance(model, data, [[0.0], [1.0]], [1.0], [[0.0]])

    def test_nan_belief_rejected(self):
        """A NaN mass once passed both comparisons and came back as a NaN
        weight.  The message prints the sum as a plain float."""
        data = SourceData([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError, match="theta_belief sums to nan, expected 1"):
            prior_expected_relevance(linear_model(), data, [[0.0], [1.0]],
                                     [float("nan"), 1.0], [[0.0]])


def _linear_grid(rng, n_theta=21, n_psi=7):
    tn = np.linspace(-3, 3, n_theta)[:, None]
    pn = np.linspace(-3, 3, n_psi)[:, None]
    tm = np.exp(-0.5 * tn[:, 0] ** 2)
    pm = np.exp(-0.5 * pn[:, 0] ** 2)
    return ParameterGrid(tn, pn, tm / tm.sum(), pm / pm.sum())


class TestRefineRelevance:
    def test_zero_iterations_equal_plain_weights(self):
        rng = np.random.default_rng(RNG_SEED)
        model = linear_model()
        grid = _linear_grid(rng)
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(5)]))
        result = refine_relevance(GridProblem(model, data, grid), np.zeros(grid.n_psi), 0)
        assert result.iterations == 0
        assert_allclose(result.theta_belief, grid.theta_prior_mass, rtol=0, atol=0)
        want = prior_expected_relevance(model, data, grid.theta_nodes,
                                        grid.theta_prior_mass, grid.psi_nodes)
        assert_array_equal(result.weights_per_psi, want.T)

    def test_theta_blind_model_has_fixed_point_at_prior(self):
        """When the likelihood ignores theta, every posterior theta marginal
        equals the prior, so refinement cannot move the belief."""
        rng = np.random.default_rng(RNG_SEED)
        row = rng.dirichlet(np.full(3, 2.0), size=2)
        table = np.stack([row, row])                      # identical theta slices
        model = discrete_toy_model(table)
        grid = toy_grid(2, 2, theta_prior=[0.4, 0.6])
        data = _toy_obs(0, 1, 2)
        shallow = refine_relevance(GridProblem(model, data, grid), np.zeros(grid.n_psi), 0)
        deep = refine_relevance(GridProblem(model, data, grid), np.zeros(grid.n_psi), 5)
        assert_allclose(deep.theta_belief, [0.4, 0.6], rtol=0, atol=1e-12)
        assert_allclose(deep.weights_per_psi, shallow.weights_per_psi,
                        rtol=0, atol=1e-12)

    def test_informative_data_moves_the_belief(self):
        rng = np.random.default_rng(RNG_SEED)
        model = linear_model()
        grid = _linear_grid(rng)
        data = SourceData(np.tile([1.0, 0.1], (6, 1)), [-1.0 + 0.05 * i for i in range(6)])
        result = refine_relevance(GridProblem(model, data, grid), np.zeros(grid.n_psi), 3)
        assert result.iterations == 3
        moved = np.abs(result.theta_belief - grid.theta_prior_mass).sum()
        assert moved > 0.1
        post_mean = result.theta_belief @ grid.theta_nodes[:, 0]
        prior_mean = grid.theta_prior_mass @ grid.theta_nodes[:, 0]
        assert post_mean < prior_mean - 0.2

    def test_refinement_is_deterministic(self):
        rng = np.random.default_rng(RNG_SEED)
        model = linear_model()
        grid = _linear_grid(rng)
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(5)]))
        r1 = refine_relevance(GridProblem(model, data, grid), np.zeros(grid.n_psi), 3)
        r2 = refine_relevance(GridProblem(model, data, grid), np.zeros(grid.n_psi), 3)
        assert_allclose(r1.weights_per_psi, r2.weights_per_psi, rtol=0, atol=0)
        assert_allclose(r1.theta_belief, r2.theta_belief, rtol=0, atol=0)

    def test_missing_mode_density_scores_unnormalized(self):
        """Without a predictive mode density each round's weights are the
        belief-averaged pmf itself: w[b, i] = sum_a belief[a] p(d_i | a, b)."""
        rng = np.random.default_rng(RNG_SEED)
        table = rng.dirichlet(np.full(3, 2.0), size=(2, 2))
        model = discrete_toy_model(table)
        data = _toy_obs(0, 2, 2)
        result = refine_relevance(GridProblem(model, data, toy_grid(2, 2)), np.zeros(2))
        outcomes = [0, 2, 2]
        want = np.einsum("a,abi->bi", result.theta_belief, table[:, :, outcomes])
        assert_allclose(result.weights_per_psi, want, rtol=1e-13, atol=0)


def _count_calls(monkeypatch, original) -> list:
    """Replace `original` in every relbayes namespace that binds it with a
    wrapper that appends to the returned list on each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "relbayes":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestComputeOnce:
    """A simulation builds its log-likelihood tensor once, in one GridProblem
    that both engines read, and evaluates its proxy once, at the psi nodes;
    refine_relevance takes that vector and evaluates no proxy itself,
    whatever the number of rounds."""

    def _instance(self):
        inst = gen_linear_instance(
            LinearScenario(multicollinearity=2.0, n_outcome=20, n_proxy_prompts=10,
                           contamination_pct=20.0), task_rng(5, 0))
        return linear_model(), inst.source, _linear_grid(np.random.default_rng(RNG_SEED)), \
            inst.proxy

    def test_one_tensor_and_one_proxy_vector_per_call(self, monkeypatch):
        model, data, grid, proxy = self._instance()
        proxy_ll = proxy_loglik_vector(proxy, grid.psi_nodes)
        tensors = _count_calls(monkeypatch, models.loglik_tensor)
        vectors = _count_calls(monkeypatch, inference.proxy_loglik_vector)
        engines = _count_calls(monkeypatch, inference.r_weighted_posterior)
        result = refine_relevance(GridProblem(model, data, grid), proxy_ll, 3)
        assert result.iterations == 3
        assert len(tensors) == 1
        assert len(vectors) == 0
        # three rounds and the final posterior, each through the public engine
        assert len(engines) == 4

    @pytest.mark.parametrize("experiment, calls", [("linear", 1), ("gp", 3)])
    def test_tensor_calls_per_simulation(self, monkeypatch, experiment, calls):
        """linear: the shared grid tensor only.  gp: the shared grid tensor,
        and the expert prompts' tensor twice, at the true target task when
        the ratings are drawn and over the psi grid in the proxy likelihood.
        Either way the proxy is evaluated once."""
        tensors = _count_calls(monkeypatch, models.loglik_tensor)
        vectors = _count_calls(monkeypatch, inference.proxy_loglik_vector)
        config = ExperimentConfig(experiment=experiment, n_simulations=1,
                                  grid_resolution=21 if experiment == "linear" else 10)
        runner._SIM_BODIES[experiment](config, 0)
        assert len(tensors) == calls
        assert len(vectors) == 1

    def test_tensor_is_read_only(self):
        model, data, grid, _ = self._instance()
        problem = GridProblem(model, data, grid)
        with pytest.raises(ValueError):
            problem.tensor[0, 0, 0] = 0.0
        assert_array_equal(problem.tensor,
                           loglik_tensor(model, data, grid.theta_nodes, grid.psi_nodes))

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_posterior_is_the_weighted_posterior_of_the_final_weights(self, iterations):
        model, data, grid, proxy = self._instance()
        problem = GridProblem(model, data, grid)
        proxy_ll = proxy_loglik_vector(proxy, grid.psi_nodes)
        result = refine_relevance(problem, proxy_ll, iterations)
        want = r_weighted_posterior(problem, result.weights_per_psi, proxy_ll)
        assert_allclose(result.posterior.joint_mass, want.joint_mass, rtol=0, atol=1e-12)
        assert_allclose(result.posterior.log_evidence, want.log_evidence,
                        rtol=0, atol=1e-12)


def _gp_problem(seed=RNG_SEED, resolution=8):
    """A small gp instance on a build_grid lengthscale grid, with its expert proxy."""
    scenario = GpScenario(n_trajectories=6, m_target=3, m_source=2, resolution=6)
    rng = np.random.default_rng(seed)
    inst = gen_gp_trajectories(scenario, rng)
    model = gp_model(inst.x_grid)
    grid = build_grid(model.theta_support, model.psi_support,
                      lambda t: -0.5 * (np.log(t[:, 0]) - 0.5) ** 2,
                      lambda p: -0.5 * (np.log(p[:, 0]) - 0.5) ** 2, resolution)
    proxy = gen_expert_proxy(model, inst.prompts, inst.psi_target_star, 0.0, rng,
                             theta_nodes=grid.theta_nodes,
                             theta_prior=grid.theta_prior_mass)
    return GridProblem(model, inst.source, grid), proxy


def _with_zeros(rng, size, zeros):
    """A random mass vector with exact zeros at the given indices."""
    belief = rng.dirichlet(np.full(size, 0.5))
    belief[list(zeros)] = 0.0
    return belief / belief.sum()


class TestBeliefAverage:
    """The exponentiate-once belief average against the per-round
    log-sum-exp it replaced (prior_expected_matrix in _scalar_reference)."""

    def _linear(self, rng):
        grid = _linear_grid(rng)
        data = SourceData(*zip(*[(rng.normal(size=2), 3.0 * rng.normal()) for _ in range(7)]))
        problem = GridProblem(linear_model(), data, grid)
        return problem.tensor, lambda belief: _predictive_mode_matrix(
            problem.model, data, grid.theta_nodes, grid.psi_nodes, belief)

    def _shifted(self, rng):
        """The linear tensor with every other (i, b) column moved down by
        about 800, past where exp underflows, and the normalizer moved with
        it: the weights are the linear ones, and only a per-(i, b) peak keeps
        those columns from underflowing to 0."""
        tensor, log_mode_of = self._linear(rng)
        n, _, n_psi = tensor.shape
        offset = np.where(np.add.outer(np.arange(n), np.arange(n_psi)) % 2 == 1,
                          rng.uniform(-850.0, -760.0, size=(n, n_psi)), 0.0)
        return tensor + offset[:, None, :], lambda belief: log_mode_of(belief) + offset

    def _gp(self, rng):
        problem, _ = _gp_problem()
        grid = problem.grid
        return problem.tensor, lambda belief: _predictive_mode_matrix(
            problem.model, problem.data, grid.theta_nodes, grid.psi_nodes, belief)

    def _binomial(self, rng):
        thetas = rng.normal(scale=1.5, size=(9, 4))
        psis = np.linspace(-3.0, 3.0, 6)[:, None]
        data = SourceData(*zip(*[(rng.integers(0, 2, size=4).astype(float),
                                  int(rng.integers(0, 31)), 30) for _ in range(5)]))
        tensor = loglik_tensor(binomial_logit_model(), data, thetas, psis)
        return tensor, lambda belief: np.zeros((data.n, psis.shape[0]))

    def _toy(self, rng):
        table = rng.dirichlet(np.full(3, 1.0), size=(4, 3))
        table[:, 0, 2] = 0.0                # outcome 2 impossible at psi node 0
        table[1, 2, 0] = table[3, 1, 1] = 0.0
        table /= table.sum(axis=2, keepdims=True)
        data = _toy_obs(2, 0, 1, 2, 0)
        tensor = loglik_tensor(discrete_toy_model(table), data,
                               toy_grid(4, 3).theta_nodes, toy_grid(4, 3).psi_nodes)
        assert np.isneginf(tensor[0, :, 0]).all()   # one all -inf (i, ., b) column
        return tensor, lambda belief: np.zeros((data.n, 3))

    @pytest.mark.parametrize("kind", ["linear", "shifted", "gp", "binomial", "toy"])
    def test_weights_match_full_logsumexp(self, kind):
        rng = np.random.default_rng(RNG_SEED)
        tensor, log_mode_of = getattr(self, "_" + kind)(rng)
        n_theta = tensor.shape[1]
        log_average = _belief_averager(tensor)
        point = np.zeros(n_theta)
        point[n_theta // 2] = 1.0
        beliefs = [np.full(n_theta, 1.0 / n_theta), point,
                   _with_zeros(rng, n_theta, [0, 2]),
                   _with_zeros(rng, n_theta, range(1, n_theta, 2))]
        for belief in beliefs:
            log_mode = log_mode_of(belief)
            want = prior_expected_matrix(tensor, log_mode, belief)
            got = np.exp(log_average(belief) - log_mode).T
            assert_allclose(got, want, rtol=1e-12, atol=0)
            assert (got[want == 0.0] == 0.0).all()
        if kind == "toy":
            assert (want == 0.0).any()

    @pytest.mark.parametrize("kind", ["linear", "gp"])
    def test_grid_101_tensors_match_full_logsumexp(self, kind):
        """At the sweeps' grid-101 shapes, where the per-observation products
        run over 101 psi nodes, the (n, A, B) exponentiated array still
        averages to the per-round log-sum-exp."""
        rng = task_rng(RNG_SEED, 0)
        if kind == "linear":
            inst = gen_linear_instance(LinearScenario(), rng)
            normal, box = runner._standard_normal_log_pdf, runner.LINEAR_BOX
            problem = GridProblem(linear_model(), inst.source,
                                  build_grid(box, box, normal, normal, 101))
        else:
            inst = gen_gp_trajectories(GpScenario(), rng)
            model = gp_model(inst.x_grid)
            grid = build_grid(model.theta_support, model.psi_support,
                              lambda t: -0.5 * (np.log(t[:, 0]) - 0.5) ** 2,
                              lambda p: -0.5 * (np.log(p[:, 0]) - 0.5) ** 2, 101)
            problem = GridProblem(model, inst.source, grid)
        grid = problem.grid
        assert problem.tensor.shape[1:] == (101, 101)
        log_average = _belief_averager(problem.tensor)
        for belief in (grid.theta_prior_mass, _with_zeros(rng, 101, range(0, 101, 3))):
            log_mode = _predictive_mode_matrix(problem.model, problem.data,
                                               grid.theta_nodes, grid.psi_nodes, belief)
            want = prior_expected_matrix(problem.tensor, log_mode, belief)
            got = np.exp(log_average(belief) - log_mode).T
            assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["linear", "gp"])
    def test_refinement_matches_full_logsumexp_rounds(self, kind):
        if kind == "linear":
            model, data, grid, proxy = TestComputeOnce()._instance()
            problem = GridProblem(model, data, grid)
        else:
            problem, proxy = _gp_problem()
        result = refine_relevance(problem, proxy_loglik_vector(proxy, problem.grid.psi_nodes), 3)
        weights, belief, posterior = refine_prior_expected(problem, proxy, 3)
        assert_allclose(result.weights_per_psi, weights, rtol=1e-12, atol=0)
        assert_allclose(result.theta_belief, belief, rtol=1e-12, atol=0)
        assert_allclose(result.posterior.joint_mass, posterior.joint_mass,
                        rtol=1e-12, atol=0)
        assert_allclose(result.posterior.log_evidence, posterior.log_evidence,
                        rtol=1e-12)


class TestValidation:
    @staticmethod
    def _weighted(weights):
        problem = GridProblem(discrete_toy_model(np.array([[[0.5, 0.5]]])),
                              _toy_obs(0, 1), toy_grid(1, 1))
        return r_weighted_posterior(problem, np.array(weights), np.zeros(1))

    def test_weights_must_be_unit_interval(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            self._weighted([[0.5, 1.5]])
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            self._weighted([[-0.1, 0.5]])

    def test_weights_must_be_finite_vector(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            self._weighted([[np.nan, 0.5]])
        with pytest.raises(ValueError, match="shape"):
            self._weighted([0.5, 0.5])

    def test_config_bounds_refinement_iterations(self):
        problem = GridProblem(linear_model(), SourceData([[1.0, 0.0]], [0.5]),
                              _linear_grid(np.random.default_rng(RNG_SEED)))
        for bad in (11, -1, 1.5):
            with pytest.raises(ValueError, match=r"integer in \[0, 10\]"):
                refine_relevance(problem, np.zeros(problem.grid.n_psi), bad)
