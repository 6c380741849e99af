"""Synthetic data protocols: determinism, layout, and distributional checks.

Moment checks run on fixed seeds, with bands wide enough to cover the
sampling noise measured across many seeds (the x2 column is heavy-tailed
because of the inverse-latent construction, so its band is generous and
the dependence check uses rank correlation).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.special import expit, logsumexp

import _scalar_reference as scalar
from relbayes.grids import build_grid
from relbayes.models import LOG_2PI, SourceData, binomial_logit_model, gp_model, \
    linear_model, loglik_tensor
from relbayes.relevance import prior_expected_relevance
from relbayes.synthetic import (GP_PSI_SCALE, GP_PSI_SHAPE, GpScenario, LinearScenario,
                                gen_expert_proxy,
                                gen_gp_trajectories, gen_imprecise_estimate_proxy,
                                gen_linear_covariates, gen_linear_instance,
                                prompt_agreement, task_rng)

RNG_SEED = 20260817


class TestTaskRng:
    def test_same_key_reproduces_stream(self):
        a = task_rng(123, 4).standard_normal(16)
        b = task_rng(123, 4).standard_normal(16)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_different_indices_are_distinct_streams(self):
        a = task_rng(123, 0).standard_normal(16)
        b = task_rng(123, 1).standard_normal(16)
        assert np.max(np.abs(a - b)) > 0.1

    def test_different_master_seeds_are_distinct(self):
        a = task_rng(1, 0).standard_normal(16)
        b = task_rng(2, 0).standard_normal(16)
        assert np.max(np.abs(a - b)) > 0.1

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            task_rng(-1, 0)
        with pytest.raises(ValueError):
            task_rng(0, -2)


class TestLinearCovariates:
    def test_shape_and_determinism(self):
        x = gen_linear_covariates(1.0, 50, task_rng(7, 0))
        assert x.shape == (50, 2)
        again = gen_linear_covariates(1.0, 50, task_rng(7, 0))
        assert_allclose(x, again, rtol=0, atol=0)

    def test_independent_columns_at_zero_collinearity(self):
        x = gen_linear_covariates(0.0, 100_000, task_rng(3, 0))
        assert_allclose(x[:, 0].mean(), 0.0, atol=0.02)
        assert_allclose(x[:, 1].mean(), 0.0, atol=0.02)
        # x2 is pure N(0, 0.25) noise here
        assert_allclose(x[:, 1].var(), 0.25, atol=0.01)
        assert abs(np.corrcoef(x.T)[0, 1]) < 0.02

    def test_collinear_regime_first_column_moments(self):
        x = gen_linear_covariates(2.0, 100_000, task_rng(7, 0))
        assert_allclose(x[:, 0].mean(), 2.0, atol=0.05)
        # latent variance plus observation noise
        assert_allclose(x[:, 0].var(), 0.5, atol=0.02)

    def test_collinear_regime_second_column_mean(self):
        """E[x2] = E[-4 / x'] with x' ~ N(2, 0.25), about -2.157; the
        inverse latent is heavy-tailed so the band stays wide."""
        x = gen_linear_covariates(2.0, 100_000, task_rng(7, 0))
        assert -2.4 < x[:, 1].mean() < -2.0

    def test_collinear_regime_couples_the_columns(self):
        """Both columns increase with the latent, so the dependence is
        strongly positive; rank correlation is used because occasional
        near-zero latents make the Pearson statistic unstable."""
        x = gen_linear_covariates(2.0, 10_000, task_rng(5, 0))
        rho = stats.spearmanr(x[:, 0], x[:, 1]).statistic
        assert rho > 0.4

    def test_values_always_finite(self):
        for rho_c in (0.0, 0.5, 2.0):
            x = gen_linear_covariates(rho_c, 5000, task_rng(11, 0))
            assert np.all(np.isfinite(x))

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            gen_linear_covariates(1.0, 0, task_rng(0, 0))


def _scalar_agreement(model, prompt, psi, theta_nodes=None, theta_prior=None):
    """Reference agreement of one prompt, a one-row SourceData, at one psi
    value: the linear closed
    form, otherwise (the GP model) a per-theta-node loop over the scalar
    reference likelihood divided by the prior-mixed mode heights, each the
    scalar reference density of the zero trajectory."""
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    if model.name == "linear":
        x1, x2 = prompt.covariates[0]
        resid = float(prompt.outcomes[0]) - psi[0] * x2
        return float(np.exp(-0.5 * resid ** 2 / (1.0 + x1 ** 2)))
    lls = np.array([scalar.gp(prompt, th, psi) for th in theta_nodes])
    zero = SourceData(prompt.covariates, np.zeros_like(prompt.outcomes))
    log_mode = np.array([scalar.gp(zero, th, psi) for th in theta_nodes])
    with np.errstate(divide="ignore"):
        log_prior = np.log(theta_prior)
    log_p = logsumexp(lls + log_prior) - logsumexp(log_mode + log_prior)
    return float(min(1.0, np.exp(log_p)))


def _gp_prompt_setup(seed=5):
    inst = gen_gp_trajectories(GpScenario(), task_rng(seed, 0))
    nodes = np.linspace(0.2, 3.0, 8)[:, None]
    prior = np.random.default_rng(RNG_SEED).dirichlet(np.full(8, 3.0))
    return gp_model(inst.x_grid), inst.prompts, nodes, prior


class TestPromptAgreement:
    def test_linear_closed_form(self):
        """Marginalizing theta ~ N(0,1) gives y ~ N(psi x2, 1 + x1^2); the
        agreement is that density over its own mode, a pure exponential."""
        model = linear_model()
        prompt = SourceData([[1.5, -2.0]], [0.7])
        psi = 0.4
        got = prompt_agreement(model, prompt, np.array([[psi]]))
        assert got.shape == (1, 1)
        var = 1.0 + 1.5 ** 2
        resid = 0.7 - psi * -2.0
        want = np.exp(-0.5 * resid ** 2 / var)
        assert_allclose(got[0, 0], want, rtol=0, atol=1e-15)

    def test_perfect_prompt_scores_one(self):
        # x1 = 0 removes the theta variance, and a zero residual hits the mode
        model = linear_model()
        prompt = SourceData([[0.0, 2.0]], [1.0])
        assert prompt_agreement(model, prompt, np.array([[0.5]]))[0, 0] == 1.0

    def test_agreement_decreases_with_residual(self):
        model = linear_model()
        prompts = SourceData(np.ones((4, 2)), [0.0, 1.0, 2.0, 4.0])
        vals = prompt_agreement(model, prompts, np.array([[0.0]]))[:, 0]
        assert np.all(np.diff(vals) < 0)

    def test_grid_marginalization_path(self):
        x = np.linspace(0, 1, 5)
        model = gp_model(x)
        rng = np.random.default_rng(RNG_SEED)
        prompt = SourceData([x], [rng.normal(size=5) * 0.5])
        nodes = np.array([[0.5], [1.0], [2.0]])
        prior = np.array([0.2, 0.5, 0.3])
        got = prompt_agreement(model, prompt, np.array([[1.5]]), theta_nodes=nodes,
                               theta_prior=prior)[0, 0]
        lls = np.array([scalar.gp(prompt, th, np.array([1.5])) for th in nodes])
        # every component peaks at the zero trajectory
        mode = np.array([scalar.gp(SourceData([x], [np.zeros(5)]), th, np.array([1.5]))
                         for th in nodes])
        # prior-mixed density over the prior-mixed mode heights
        want = float(prior @ np.exp(lls)) / float(prior @ np.exp(mode))
        assert_allclose(got, want, rtol=1e-12)
        assert 0.0 <= got <= 1.0

    def test_non_linear_model_requires_grid(self):
        x = np.linspace(0, 1, 4)
        model = gp_model(x)
        with pytest.raises(ValueError, match="theta_nodes"):
            prompt_agreement(model, SourceData([x], [np.zeros(4)]), np.array([[1.0]]))

    def test_binomial_agreement_is_prior_expected_relevance(self):
        """A pmf model has no mode density to normalize with, so a prompt's
        agreement is its prior-averaged pmf, as relevance scores it."""
        model = binomial_logit_model()
        rng = np.random.default_rng(RNG_SEED)
        prompts = SourceData(np.eye(4)[[0, 2, 1]], [3, 0, 5], [5, 4, 5])
        nodes = rng.normal(size=(6, 4))
        prior = rng.dirichlet(np.full(6, 2.0))
        psi_nodes = np.linspace(-2.0, 2.0, 5)[:, None]
        got = prompt_agreement(model, prompts, psi_nodes, nodes, prior)
        assert_array_equal(got, prior_expected_relevance(model, prompts, nodes, prior,
                                                         psi_nodes))
        assert np.all((got >= 0.0) & (got <= 1.0))
        p = expit(nodes[:, 2] + psi_nodes[3, 0])
        assert_allclose(got[1, 3], prior @ stats.binom.pmf(0, 4, p), rtol=1e-12)

    def test_psi_nodes_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="psi_nodes"):
            prompt_agreement(linear_model(), SourceData([[1.0, 1.0]], [0.0]), 0.5)


class TestVectorisedAgreementEquivalence:
    """The (J, B) agreement array against the per-prompt, per-psi reference."""

    def test_linear_matches_scalar_reference(self):
        model = linear_model()
        rng = np.random.default_rng(RNG_SEED)
        prompts = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(6)]))
        psi_nodes = np.linspace(-3.0, 3.0, 7)[:, None]
        got = prompt_agreement(model, prompts, psi_nodes)
        want = np.array([[_scalar_agreement(model, p, psi) for psi in psi_nodes]
                         for p in scalar.rows(prompts)])
        assert got.shape == (6, 7)
        assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_gp_matches_scalar_reference(self):
        """The reference solves one trajectory at a time and the batch solves
        all prompts at once; on kernel matrices of condition number up to
        about 1e8 the two orders round differently, by up to 1.1e-11 in the
        log-agreement here (measured), so rtol is 1e-10 rather than the
        linear case's 1e-12."""
        model, prompts, nodes, prior = _gp_prompt_setup()
        psi_nodes = np.array([[0.1], [0.3], [0.6], [0.9], [1.7], [4.0], [11.0]])
        got = prompt_agreement(model, prompts, psi_nodes, nodes, prior)
        want = np.array([[_scalar_agreement(model, p, psi, nodes, prior)
                          for psi in psi_nodes] for p in scalar.rows(prompts)])
        assert got.shape == (prompts.n, 7)
        assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_gp_equals_the_log_sum_exp_formula_on_grid_101(self):
        """The gp agreement was once its own copy of the prior-expected
        score: a log-sum-exp over the log prior mass, minus the mode
        density, capped at 1.  The exp-domain belief average rounds apart
        from it by 7.3e-15 relative at most (measured over seeds 0-19 at
        grids 10 and 101), on agreements from 1e-10 to near 1."""
        inst = gen_gp_trajectories(GpScenario(), task_rng(3, 0))
        model = gp_model(inst.x_grid)
        grid = build_grid(
            model.theta_support, model.psi_support,
            lambda t: -np.log(t[:, 0]) - 0.5 * (np.log(t[:, 0]) - 1.0) ** 2,
            lambda p: (GP_PSI_SHAPE - 1.0) * np.log(p[:, 0]) - p[:, 0] / GP_PSI_SCALE, 101)
        thetas, prior = grid.theta_nodes, grid.theta_prior_mass
        psis = np.vstack([grid.psi_nodes, inst.psi_target_star[None, :]])
        got = prompt_agreement(model, inst.prompts, psis, thetas, prior)
        lls = loglik_tensor(model, inst.prompts, thetas, psis)
        with np.errstate(divide="ignore"):
            log_prior = np.log(prior)
        log_p = (logsumexp(lls + log_prior[None, :, None], axis=1)
                 - model.log_predictive_mode_density(inst.prompts, thetas, psis, prior))
        want = np.minimum(1.0, np.exp(log_p))
        assert want.min() < 1e-9 and want.max() > 0.9
        assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_gp_zero_prior_mass_nodes_drop_out(self):
        model, prompts, nodes, prior = _gp_prompt_setup()
        prior = prior.copy()
        prior[[0, 5]] = 0.0
        prior /= prior.sum()
        psi_nodes = np.array([[0.5], [2.0]])
        got = prompt_agreement(model, prompts, psi_nodes, nodes, prior)
        keep = prior > 0
        want = prompt_agreement(model, prompts, psi_nodes, nodes[keep], prior[keep])
        assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("which", ["linear", "gp"])
    def test_expert_proxy_vector_is_summed_binomial_logpmf(self, which):
        if which == "linear":
            model = linear_model()
            rng = np.random.default_rng(RNG_SEED + 1)
            prompts = SourceData(*zip(*[(rng.normal(size=2), rng.normal())
                                        for _ in range(9)]))
            grid_kw = {}
            psi_nodes = np.linspace(-2.0, 2.0, 6)[:, None]
        else:
            model, prompts, nodes, prior = _gp_prompt_setup(seed=8)
            grid_kw = {"theta_nodes": nodes, "theta_prior": prior}
            psi_nodes = np.array([[0.4], [1.0], [2.5], [6.0]])
        proxy = gen_expert_proxy(model, prompts, 0.8, 30.0, task_rng(4, 0), **grid_kw)
        got = proxy.proxy_log_likelihood(proxy.payload, psi_nodes)
        assert got.shape == (psi_nodes.shape[0],)
        want = np.zeros(psi_nodes.shape[0])
        for prompt, z in zip(scalar.rows(prompts), proxy.payload):
            for b, psi in enumerate(psi_nodes):
                p = _scalar_agreement(model, prompt, psi, grid_kw.get("theta_nodes"),
                                      grid_kw.get("theta_prior"))
                p = min(max(p, 1e-9), 1 - 1e-9)
                want[b] += stats.binom.logpmf(z, 7, p)
        assert_allclose(got, want, rtol=1e-12, atol=0)


class TestExpertProxy:
    def _perfect_prompts(self, psi, count):
        # agreement probability exactly 1 at this psi
        return SourceData(np.tile([0.0, 1.0], (count, 1)), np.full(count, float(psi)))

    def test_one_observation_with_one_rating_per_prompt(self):
        model = linear_model()
        prompts = SourceData([[1.0, 0.5], [0.5, 1.0]], [0.2, -0.4])
        proxy = gen_expert_proxy(model, prompts, 0.1, 0.0, task_rng(6, 0))
        assert isinstance(proxy.payload, tuple) and len(proxy.payload) == 2
        assert all(isinstance(z, int) and 0 <= z <= 7 for z in proxy.payload)

    def test_clean_ratings_of_perfect_prompts_max_out(self):
        model = linear_model()
        prompts = self._perfect_prompts(0.5, 40)
        proxy = gen_expert_proxy(model, prompts, 0.5, 0.0, task_rng(1, 0))
        assert proxy.payload == (7,) * 40

    def test_full_contamination_flips_perfect_prompts_to_zero(self):
        model = linear_model()
        prompts = self._perfect_prompts(0.5, 40)
        proxy = gen_expert_proxy(model, prompts, 0.5, 100.0, task_rng(1, 0))
        assert proxy.payload == (0,) * 40

    def test_contaminated_count_is_exact(self):
        model = linear_model()
        prompts = self._perfect_prompts(0.0, 10)
        for pct, expect in ((40.0, 4), (25.0, 2), (75.0, 8), (0.0, 0)):
            proxy = gen_expert_proxy(model, prompts, 0.0, pct, task_rng(2, 0))
            zeros = sum(1 for z in proxy.payload if z == 0)
            # round(pct * 10 / 100), and flipped perfect prompts give z = 0
            assert zeros == expect

    def test_half_agreement_rating_mean(self):
        """Residual sqrt(2 ln 2) at x1 = 0 puts the agreement probability at
        exactly one half, so ratings average 3.5."""
        model = linear_model()
        r = np.sqrt(2 * np.log(2))
        prompts = SourceData(np.tile([0.0, 1.0], (10_000, 1)), np.full(10_000, r))
        proxy = gen_expert_proxy(model, prompts, 0.0, 0.0, task_rng(3, 0))
        z = np.array(proxy.payload, dtype=float)
        assert_allclose(z.mean(), 3.5, atol=0.06)

    def test_learner_likelihood_matches_binomial_pmf(self):
        model = linear_model()
        prompt = SourceData([[1.0, -0.5]], [0.3])
        proxy = gen_expert_proxy(model, prompt, 0.2, 0.0, task_rng(4, 0))
        pll = proxy.proxy_log_likelihood
        psi = np.array([[0.8]])
        p = prompt_agreement(model, prompt, psi)[0, 0]
        p = min(max(p, 1e-9), 1 - 1e-9)
        for z in range(8):
            assert_allclose(pll((z,), psi)[0], stats.binom.logpmf(z, 7, p),
                            rtol=1e-12)

    def test_likelihood_finite_at_extreme_agreement(self):
        model = linear_model()
        perfect_and_hopeless = SourceData([[0.0, 1.0], [0.0, 1.0]], [0.0, 500.0])
        proxy = gen_expert_proxy(model, perfect_and_hopeless, 0.0, 0.0,
                                 task_rng(5, 0))
        for z_perfect in (0, 7):
            for z_hopeless in (0, 7):
                ll = proxy.proxy_log_likelihood((z_perfect, z_hopeless),
                                                np.array([[0.0]]))
                assert np.all(np.isfinite(ll))

    def test_payload_must_rate_every_prompt(self):
        model = linear_model()
        prompts = SourceData([[1.0, 0.5], [0.5, 1.0]], [0.2, -0.4])
        pll = gen_expert_proxy(model, prompts, 0.1, 0.0, task_rng(6, 0)).proxy_log_likelihood
        psi = np.array([[0.0], [1.0]])
        for payload in ((3,), (3, 4, 5), (3, 8), (-1, 2)):
            with pytest.raises(ValueError, match="payload"):
                pll(payload, psi)

    def test_deterministic_given_seed(self):
        model = linear_model()
        prompts = SourceData([[1.0, 0.5], [0.5, 1.0]], [0.2, -0.4])
        a = gen_expert_proxy(model, prompts, 0.1, 50.0, task_rng(6, 0))
        b = gen_expert_proxy(model, prompts, 0.1, 50.0, task_rng(6, 0))
        assert a.payload == b.payload

    def test_pinned_ratings(self):
        """The draw order (contamination positions first, then one binomial
        per prompt in order) fixes every rating for a given stream."""
        inst = gen_linear_instance(
            LinearScenario(multicollinearity=2.0, contamination_pct=25.0), task_rng(11, 0))
        assert inst.proxy.payload == (5, 2, 7, 5, 7, 4, 6, 4, 7, 7, 5, 1, 2, 0, 3,
                                      7, 1, 2, 3, 0, 6, 4, 6, 3, 2)
        model, prompts, nodes, _ = _gp_prompt_setup()
        proxy = gen_expert_proxy(model, prompts, 1.0, 50.0, task_rng(6, 0),
                                 theta_nodes=nodes, theta_prior=np.full(8, 1 / 8))
        assert proxy.payload == (0, 7, 6, 0, 7, 7, 1, 0)

    def test_empty_prompt_list_rejected(self):
        with pytest.raises(ValueError, match="at least one observation"):
            gen_expert_proxy(linear_model(), SourceData(np.empty((0, 2)), np.empty(0)),
                             0.0, 0.0, task_rng(0, 0))


class TestLinearInstance:
    def test_default_scenario_layout(self):
        inst = gen_linear_instance(LinearScenario(), task_rng(42, 0))
        assert inst.source.n == 75
        assert inst.prompts.n == 25
        assert len(inst.proxy.payload) == 25
        assert inst.psi_star.shape == (75, 1)
        assert inst.theta_star.shape == (1,) and inst.theta_star[0] == -1.0

    def test_full_resemblance_copies_target_everywhere(self):
        inst = gen_linear_instance(LinearScenario(target_resemblance_pct=100.0), task_rng(7, 0))
        assert np.all(inst.psi_star[:, 0] == inst.psi_target_star[0])

    def test_zero_resemblance_keeps_sources_at_prior_mean(self):
        inst = gen_linear_instance(LinearScenario(target_resemblance_pct=0.0), task_rng(7, 0))
        assert np.all(inst.psi_star[:, 0] == 0.0)

    def test_partial_resemblance_count_is_exact(self):
        inst = gen_linear_instance(LinearScenario(target_resemblance_pct=40.0), task_rng(9, 0))
        n_like = np.count_nonzero(inst.psi_star[:, 0] == inst.psi_target_star[0])
        assert n_like == 30                       # round(0.4 * 75)

    def test_instances_are_deterministic(self):
        a = gen_linear_instance(LinearScenario(multicollinearity=2.0), task_rng(11, 0))
        b = gen_linear_instance(LinearScenario(multicollinearity=2.0), task_rng(11, 0))
        assert_allclose(a.source.outcomes, b.source.outcomes, rtol=0, atol=0)
        assert a.proxy.payload == b.proxy.payload

    def test_different_seeds_differ(self):
        a = gen_linear_instance(LinearScenario(), task_rng(1, 0))
        b = gen_linear_instance(LinearScenario(), task_rng(2, 0))
        assert a.psi_target_star[0] != b.psi_target_star[0]

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            LinearScenario(target_resemblance_pct=120.0)
        with pytest.raises(ValueError):
            LinearScenario(contamination_pct=-5.0)
        with pytest.raises(ValueError):
            LinearScenario(n_outcome=0)


class TestGpTrajectories:
    def test_default_layout(self):
        inst = gen_gp_trajectories(GpScenario(), task_rng(3, 0))
        assert inst.prompts.n == 8
        assert inst.source.n == 8
        assert inst.psi_star.shape == (8, 1)
        assert inst.x_grid.shape == (10,)
        assert_allclose(inst.x_grid, np.linspace(0, 1, 10), rtol=0, atol=0)
        assert inst.theta_star.shape == (1,) and inst.theta_star[0] == 1.0

    def test_prompts_come_from_target_task(self):
        """m_target = 12 covers the first 8 trajectories, which become the
        prompts, while the last 8 (indices 16..23) are source tasks with
        their own task draws."""
        inst = gen_gp_trajectories(GpScenario(), task_rng(3, 0))
        assert np.all(inst.psi_star[:, 0] != inst.psi_target_star[0])

    def test_all_target_scenario_floods_the_source(self):
        inst = gen_gp_trajectories(GpScenario(n_trajectories=10, m_target=10,
                                              m_source=4, resolution=5), task_rng(3, 0))
        assert np.all(inst.psi_star[:, 0] == inst.psi_target_star[0])
        assert inst.source.n == 4

    def test_zero_source_rejected(self):
        """The expert proxy is drawn from the m_source prompts, so a scenario
        without one is refused before anything is drawn."""
        with pytest.raises(ValueError, match=r"m_source must lie in \[1, n_trajectories=6\], "
                                             "got 0"):
            GpScenario(n_trajectories=6, m_target=3, m_source=0, resolution=5)

    def test_trajectory_marginal_variance_is_unit(self):
        scenario = GpScenario(n_trajectories=1, m_target=1, m_source=1,
                              resolution=5)
        draws = np.stack([
            gen_gp_trajectories(scenario, task_rng(s, 0)).source.outcomes[0]
            for s in range(400)])
        assert_allclose(draws.var(axis=0), 1.0, atol=0.15)

    def test_deterministic(self):
        a = gen_gp_trajectories(GpScenario(), task_rng(17, 0))
        b = gen_gp_trajectories(GpScenario(), task_rng(17, 0))
        assert_allclose(a.source.outcomes[0], b.source.outcomes[0], rtol=0, atol=0)
        assert a.psi_target_star[0] == b.psi_target_star[0]

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            GpScenario(m_source=30)
        with pytest.raises(ValueError):
            GpScenario(theta_star=0.0)
        with pytest.raises(ValueError):
            GpScenario(resolution=1)
        with pytest.raises(ValueError):
            GpScenario(n_trajectories=0)


class TestImpreciseEstimateProxy:
    def test_unbiased_estimates_track_the_target(self):
        draws = np.array([
            gen_imprecise_estimate_proxy(1.3, 0.1, False, task_rng(s, 0)).payload
            for s in range(10_000)])
        assert_allclose(draws.mean(), 1.3, atol=0.005)
        assert_allclose(draws.std(), 0.1, atol=0.01)

    def test_bias_inflates_variance(self):
        draws = np.array([
            gen_imprecise_estimate_proxy(0.0, 0.5, True, task_rng(s, 0)).payload
            for s in range(4000)])
        # variance sigma^2 + 3^2 once the bias draw is included
        assert_allclose(draws.var(), 9.25, atol=1.0)

    def test_likelihood_is_exact_normal_density(self):
        proxy = gen_imprecise_estimate_proxy(0.7, 3.0, False, task_rng(0, 0))
        z = proxy.payload
        at_center = proxy.proxy_log_likelihood(z, np.array([[z]]))[0]
        assert_allclose(at_center, -0.5 * LOG_2PI - np.log(3.0), rtol=0,
                        atol=1e-15)
        off = proxy.proxy_log_likelihood(z, np.array([[z + 1.5]]))[0]
        assert_allclose(at_center - off, 0.5 * (1.5 / 3.0) ** 2, rtol=1e-12)

    def test_learner_model_ignores_the_bias(self):
        """The bias corrupts the draw, never the learner's likelihood."""
        clean = gen_imprecise_estimate_proxy(0.0, 1.0, False, task_rng(5, 0))
        biased = gen_imprecise_estimate_proxy(0.0, 1.0, True, task_rng(5, 0))
        psi = np.array([[0.4]])
        want = -0.5 * LOG_2PI - 0.5 * (clean.payload - 0.4) ** 2
        assert_allclose(clean.proxy_log_likelihood(clean.payload, psi), want,
                        rtol=1e-12)
        want_b = -0.5 * LOG_2PI - 0.5 * (biased.payload - 0.4) ** 2
        assert_allclose(biased.proxy_log_likelihood(biased.payload, psi),
                        want_b, rtol=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            gen_imprecise_estimate_proxy(0.0, 0.0, False, task_rng(0, 0))
        with pytest.raises(ValueError):
            gen_imprecise_estimate_proxy(0.0, -1.0, False, task_rng(0, 0))

    def test_deterministic(self):
        a = gen_imprecise_estimate_proxy(0.2, 0.5, True, task_rng(9, 0))
        b = gen_imprecise_estimate_proxy(0.2, 0.5, True, task_rng(9, 0))
        assert a.payload == b.payload
