"""Posterior engines against brute-force high-precision oracles.

Every grid posterior here is checked against an independent mpmath
enumeration of the same normalized sums at 50 decimal digits, so the
tolerances can sit at 1e-12 without slack for float error in the oracle.
"""

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.special import expit

from _scalar_reference import r_weighted_likelihood
from relbayes.grids import ParameterGrid, box_nodes, midpoint_nodes, toy_grid
from relbayes.inference import (DegenerateProxyError, GridProblem, McmcInitError,
                                PosteriorTable, ProxyObservation, _source_mixture,
                                _zero_weight_safe, chain_grid_tv, classic_posterior,
                                metropolis_posterior, proxy_loglik_vector,
                                r_weighted_posterior)
from relbayes.models import SourceData, discrete_toy_model, linear_model, logsumexp

mp.mp.dps = 50

RNG_SEED = 20260817


def _toy_setup(seed=RNG_SEED, n_theta=3, n_psi=2, n_out=3, n_obs=4):
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.full(n_out, 2.0), size=(n_theta, n_psi))
    model = discrete_toy_model(table)
    theta_prior = rng.dirichlet(np.full(n_theta, 5.0))
    psi_prior = rng.dirichlet(np.full(n_psi, 5.0))
    grid = toy_grid(n_theta, n_psi, theta_prior=theta_prior, psi_prior=psi_prior)
    data = SourceData(np.empty((n_obs, 0)), rng.integers(0, n_out, size=n_obs))
    return model, grid, data, table, rng


def _normal_proxy(z, sigma=0.8):
    """Gaussian proxy likelihood on a scalar task parameter."""

    def pll(payload, psi_nodes):
        return (-0.5 * np.log(2 * np.pi * sigma ** 2)
                - (payload - psi_nodes[:, 0]) ** 2 / (2 * sigma ** 2))

    return ProxyObservation(payload=float(z), proxy_log_likelihood=pll)


def _proxy_posterior(grid, proxy_ll):
    """The posterior given the proxy alone: the r-weighted posterior with
    every weight zero, whose psi marginal is the proxy likelihood times the
    psi prior, normalized by exp(log_evidence)."""
    data = SourceData([[0.0, 0.0]], [0.0])
    return r_weighted_posterior(GridProblem(linear_model(), data, grid),
                                np.zeros((grid.n_psi, 1)), proxy_ll)


class TestProxyPosterior:
    def test_matches_mpmath_enumeration(self):
        """Binomial endorsement counts over a 50-node psi grid."""
        nodes = np.linspace(-3, 3, 50)[:, None]
        prior = np.exp(-0.5 * nodes[:, 0] ** 2)
        prior /= prior.sum()
        grid = ParameterGrid(np.zeros((1, 1)), nodes, np.array([1.0]), prior)

        def pll(payload, psi_nodes):
            return stats.binom.logpmf(payload, 7, expit(psi_nodes[:, 0]))

        proxy = ProxyObservation(payload=5, proxy_log_likelihood=pll)
        post = _proxy_posterior(grid, proxy_loglik_vector(proxy, grid.psi_nodes))

        unnorm = []
        for j in range(50):
            p = 1 / (1 + mp.e ** (-mp.mpf(float(nodes[j, 0]))))
            lik = mp.binomial(7, 5) * p ** 5 * (1 - p) ** 2
            unnorm.append(lik * mp.mpf(float(prior[j])))
        total = mp.fsum(unnorm)
        want = np.array([float(u / total) for u in unnorm])
        assert_allclose(post.psi_marginal(), want, rtol=0, atol=1e-13)
        assert_allclose(post.log_evidence, float(mp.log(total)), atol=1e-12)

    def test_uninformative_proxy_returns_prior(self):
        _, grid, _, _, _ = _toy_setup()
        post = _proxy_posterior(grid, np.zeros(grid.n_psi))
        assert_allclose(post.psi_marginal(), grid.psi_prior_mass, rtol=0, atol=1e-15)
        assert_allclose(post.log_evidence, 0.0, atol=1e-12)

    def test_zero_everywhere_raises(self):
        _, grid, _, _, _ = _toy_setup()
        dead = ProxyObservation(
            payload=None,
            proxy_log_likelihood=lambda z, psi_nodes: np.full(len(psi_nodes), -np.inf))
        with pytest.raises(DegenerateProxyError):
            _proxy_posterior(grid, proxy_loglik_vector(dead, grid.psi_nodes))


class TestProxyLoglikVector:
    """proxy_loglik_vector is the one entry point to a proxy, and its check
    holds as strictly for a vector a caller passes to r_weighted_posterior."""

    NODES = np.linspace(-2, 2, 5)[:, None]
    GRID = ParameterGrid(np.zeros((1, 1)), NODES, np.array([1.0]), np.full(5, 0.2))

    def test_returns_one_value_per_node(self):
        got = proxy_loglik_vector(_normal_proxy(0.3), self.NODES)
        want = (-0.5 * np.log(2 * np.pi * 0.64)
                - (0.3 - self.NODES[:, 0]) ** 2 / (2 * 0.64))
        assert got.shape == (5,)
        assert_allclose(got, want, rtol=1e-15)

    def test_uninformative_proxy_is_zeros(self):
        """A flat proxy gives the zero vector, which grid callers pass for
        no proxy."""
        flat = ProxyObservation(payload=None,
                                proxy_log_likelihood=lambda z, psi_nodes: np.zeros(len(psi_nodes)))
        got = proxy_loglik_vector(flat, self.NODES)
        assert_allclose(got, np.zeros(5), rtol=0, atol=0)

    def test_scalar_callback_rejected(self):
        """A leftover per-node callback returns a scalar; it must not
        broadcast over the grid."""
        legacy = ProxyObservation(payload=0.3,
                                  proxy_log_likelihood=lambda z, psi: -0.5)
        with pytest.raises(ValueError, match="shape"):
            proxy_loglik_vector(legacy, self.NODES)
        with pytest.raises(ValueError, match="shape"):
            _proxy_posterior(self.GRID, -0.5)

    def test_wrong_length_rejected(self):
        short = ProxyObservation(
            payload=None, proxy_log_likelihood=lambda z, psi_nodes: np.zeros(len(psi_nodes) - 1))
        with pytest.raises(ValueError, match="expected \\(5,\\)"):
            proxy_loglik_vector(short, self.NODES)
        with pytest.raises(ValueError, match="expected \\(5,\\)"):
            _proxy_posterior(self.GRID, np.zeros(4))
        column = ProxyObservation(
            payload=None, proxy_log_likelihood=lambda z, psi_nodes: np.zeros((len(psi_nodes), 1)))
        with pytest.raises(ValueError, match="shape"):
            proxy_loglik_vector(column, self.NODES)
        with pytest.raises(ValueError, match="shape"):
            _proxy_posterior(self.GRID, np.zeros((5, 1)))

    def test_nan_rejected(self):
        def pll(payload, psi_nodes):
            out = np.zeros(len(psi_nodes))
            out[3] = np.nan
            return out

        with pytest.raises(FloatingPointError, match="index 3"):
            proxy_loglik_vector(ProxyObservation(None, pll), self.NODES)
        with pytest.raises(FloatingPointError, match="index 3"):
            _proxy_posterior(self.GRID, pll(None, self.NODES))

    def test_first_nan_named_after_infinities(self):
        """The check finds a NaN with one reduction, which +inf and -inf
        together must not fool, and names the first NaN's index."""
        values = np.array([np.inf, -np.inf, np.nan, 0.0, np.nan])
        with pytest.raises(FloatingPointError, match="psi node index 2$"):
            _proxy_posterior(self.GRID, values)

    def test_infinities_are_not_nan(self):
        values = np.array([0.0, np.inf, -np.inf, 1.0, -np.inf])
        mixed = ProxyObservation(None, lambda z, psi_nodes: values.copy())
        assert proxy_loglik_vector(mixed, self.NODES).tobytes() == values.tobytes()
        for value in (np.inf, -np.inf):
            flat = np.full(5, value)
            assert proxy_loglik_vector(
                ProxyObservation(None, lambda z, psi_nodes: flat), self.NODES
            ).tobytes() == flat.tobytes()

    def test_neg_inf_allowed(self):
        dead = ProxyObservation(
            payload=None,
            proxy_log_likelihood=lambda z, psi_nodes: np.full(len(psi_nodes), -np.inf))
        assert np.all(np.isneginf(proxy_loglik_vector(dead, self.NODES)))

    def test_nodes_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="psi_nodes"):
            proxy_loglik_vector(_normal_proxy(0.3), self.NODES[:, 0])


class TestPosteriorTable:
    def test_nan_joint_mass_rejected(self):
        """A NaN passes the sign test and fails the sum test."""
        with pytest.raises(ValueError, match="joint_mass sums to"):
            PosteriorTable(toy_grid(2, 2), [[np.nan, 0.5], [0.25, 0.25]], 0.0)

    def test_negative_joint_mass_rejected(self):
        with pytest.raises(ValueError, match="joint_mass has negative entries"):
            PosteriorTable(toy_grid(2, 2), [[-0.25, 0.5], [0.5, 0.25]], 0.0)


class TestSourceMixture:
    """The classic mixture's in-place log-sum-exp against scipy's."""

    @staticmethod
    def _compare(lls, prior):
        before = lls.copy()
        got = _source_mixture(lls, prior)
        with np.errstate(divide="ignore"):
            want = scipy.special.logsumexp(lls + np.log(prior), axis=-1)
        assert_array_equal(lls, before)
        assert_array_equal(np.isfinite(got), np.isfinite(want))
        assert_array_equal(got[~np.isfinite(want)], want[~np.isfinite(want)])
        assert_allclose(got[np.isfinite(want)], want[np.isfinite(want)], rtol=1e-12)
        return got

    def test_prior_with_zero_masses(self):
        rng = np.random.default_rng(RNG_SEED)
        prior = rng.dirichlet(np.ones(7))
        prior[[0, 3]] = 0.0
        prior /= prior.sum()
        lls = rng.normal(scale=40.0, size=(5, 6, 7))
        lls[:, :, 0] = 500.0        # the peak sits on a zero mass and drops out
        self._compare(lls, prior)

    def test_all_neginf_and_posinf_slices(self):
        rng = np.random.default_rng(RNG_SEED)
        prior = np.array([0.25, 0.0, 0.5, 0.25])
        lls = rng.normal(scale=5.0, size=(3, 4, 4))
        lls[0, 1] = -np.inf
        lls[1, 2, [0, 2, 3]] = -np.inf      # finite only on the zero mass
        lls[2, 0, 2] = np.inf
        lls[2, 3, [0, 3]] = [np.inf, -np.inf]
        got = self._compare(lls, prior)
        assert got[0, 1] == got[1, 2] == -np.inf
        assert got[2, 0] == got[2, 3] == np.inf


class TestClassicPosterior:
    def test_toy_matches_mpmath_brute_force(self):
        model, grid, data, table, rng = _toy_setup()
        src = rng.dirichlet(np.full(grid.n_psi, 3.0))
        post = classic_posterior(GridProblem(model, data, grid), src)

        outcomes = [int(y) for y in data.outcomes]
        unnorm = []
        for a in range(grid.n_theta):
            term = mp.mpf(float(grid.theta_prior_mass[a]))
            for o in outcomes:
                term *= mp.fsum(mp.mpf(float(src[b])) * mp.mpf(float(table[a, b, o]))
                                for b in range(grid.n_psi))
            unnorm.append(term)
        total = mp.fsum(unnorm)
        want = np.array([float(u / total) for u in unnorm])
        assert_allclose(post.theta_marginal(), want, rtol=0, atol=1e-13)
        assert_allclose(post.log_evidence, float(mp.log(total)), atol=1e-12)

    def test_linear_matches_mpmath_brute_force(self):
        model = linear_model()
        rng = np.random.default_rng(RNG_SEED + 1)
        theta_nodes = np.linspace(-2, 2, 5)[:, None]
        psi_nodes = np.linspace(-1.5, 1.5, 4)[:, None]
        tmass = rng.dirichlet(np.full(5, 4.0))
        pmass = rng.dirichlet(np.full(4, 4.0))
        grid = ParameterGrid(theta_nodes, psi_nodes, tmass, pmass)
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(3)]))

        post = classic_posterior(GridProblem(model, data, grid), pmass)

        def dens(x, y, th, ps):
            resid = mp.mpf(float(y)) - th * mp.mpf(float(x[0])) - ps * mp.mpf(float(x[1]))
            return mp.e ** (-resid ** 2 / 2) / mp.sqrt(2 * mp.pi)

        unnorm = []
        for a in range(5):
            th = mp.mpf(float(theta_nodes[a, 0]))
            term = mp.mpf(float(tmass[a]))
            for x, y in zip(data.covariates, data.outcomes):
                term *= mp.fsum(mp.mpf(float(pmass[b]))
                                * dens(x, y, th, mp.mpf(float(psi_nodes[b, 0])))
                                for b in range(4))
            unnorm.append(term)
        total = mp.fsum(unnorm)
        want = np.array([float(u / total) for u in unnorm])
        assert_allclose(post.theta_marginal(), want, rtol=0, atol=1e-13)
        assert_allclose(post.log_evidence, float(mp.log(total)), atol=1e-12)

    def test_joint_factorizes_into_marginal_times_psi_prior(self):
        model, grid, data, _, rng = _toy_setup()
        src = rng.dirichlet(np.full(grid.n_psi, 3.0))
        post = classic_posterior(GridProblem(model, data, grid), src)
        want = post.theta_marginal()[:, None] * grid.psi_prior_mass[None, :]
        assert_allclose(post.joint_mass, want, rtol=0, atol=1e-15)

    def test_source_prior_length_checked(self):
        model, grid, data, _, _ = _toy_setup()
        with pytest.raises(ValueError):
            classic_posterior(GridProblem(model, data, grid),
                              np.array([0.2, 0.3, 0.5]))


    def test_nan_source_prior_rejected(self):
        model, grid, data, _, _ = _toy_setup()
        with pytest.raises(ValueError, match="source_psi_prior sums to"):
            classic_posterior(GridProblem(model, data, grid), np.array([np.nan, 1.0]))


class TestRWeightedPosterior:
    def test_matches_mpmath_triple_loop(self):
        model, grid, data, table, rng = _toy_setup()
        weights = rng.uniform(0, 1, size=(grid.n_psi, data.n))
        endorse = rng.uniform(0.2, 0.8, size=grid.n_psi)

        def pll(payload, psi_nodes):
            p = endorse[psi_nodes[:, 0].astype(int)]
            return np.log(p) if payload == 1 else np.log1p(-p)

        proxy = ProxyObservation(payload=1, proxy_log_likelihood=pll)
        post = r_weighted_posterior(GridProblem(model, data, grid), weights,
                                    proxy_loglik_vector(proxy, grid.psi_nodes))

        outcomes = [int(y) for y in data.outcomes]
        unnorm = mp.zeros(grid.n_theta, grid.n_psi)
        for a in range(grid.n_theta):
            for b in range(grid.n_psi):
                lw = mp.fsum(mp.mpf(float(weights[b, i]))
                             * mp.log(mp.mpf(float(table[a, b, o])))
                             for i, o in enumerate(outcomes))
                term = (mp.e ** lw * mp.mpf(float(endorse[b]))
                        * mp.mpf(float(grid.theta_prior_mass[a]))
                        * mp.mpf(float(grid.psi_prior_mass[b])))
                unnorm[a, b] = term
        total = mp.fsum(unnorm[a, b] for a in range(grid.n_theta)
                        for b in range(grid.n_psi))
        want = np.array([[float(unnorm[a, b] / total) for b in range(grid.n_psi)]
                         for a in range(grid.n_theta)])
        assert_allclose(post.joint_mass, want, rtol=0, atol=1e-13)
        assert_allclose(post.log_evidence, float(mp.log(total)), atol=1e-12)

    def test_zero_weight_kills_impossible_observation(self):
        """A zero-probability outcome contributes -inf log-likelihood; with
        weight zero it must drop out instead of poisoning the posterior."""
        table = np.array([[[1.0, 0.0], [0.4, 0.6]],
                          [[0.5, 0.5], [0.2, 0.8]]])
        model = discrete_toy_model(table)
        grid = toy_grid(2, 2)
        data = SourceData(np.empty((2, 0)), [1, 0])
        weights = np.array([[0.0, 1.0], [0.5, 0.5]])
        post = r_weighted_posterior(GridProblem(model, data, grid), weights,
                                    np.zeros(grid.n_psi))
        assert np.all(np.isfinite(post.joint_mass))
        assert post.joint_mass[0, 0] > 0

    def test_out_of_range_weights_rejected(self):
        model, grid, data, _, _ = _toy_setup()
        problem = GridProblem(model, data, grid)
        bad = np.full((grid.n_psi, data.n), 0.5)
        bad[0, 0] = 1.0 + 1e-6
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            r_weighted_posterior(problem, bad, np.zeros(grid.n_psi))
        bad[0, 0] = -1e-6
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            r_weighted_posterior(problem, bad, np.zeros(grid.n_psi))

    def test_weight_shape_checked(self):
        model, grid, data, _, _ = _toy_setup()
        with pytest.raises(ValueError, match="shape"):
            r_weighted_posterior(GridProblem(model, data, grid),
                                 np.ones((grid.n_psi, data.n + 1)),
                                 np.zeros(grid.n_psi))

    def test_all_zero_weights_give_proxy_times_prior(self):
        model, grid, data, _, rng = _toy_setup()
        endorse = rng.uniform(0.2, 0.8, size=grid.n_psi)

        def pll(payload, psi_nodes):
            return np.log(endorse[psi_nodes[:, 0].astype(int)])

        proxy = ProxyObservation(payload=1, proxy_log_likelihood=pll)
        post = r_weighted_posterior(GridProblem(model, data, grid),
                                    np.zeros((grid.n_psi, data.n)),
                                    proxy_loglik_vector(proxy, grid.psi_nodes))
        psi_want = endorse * grid.psi_prior_mass
        psi_want /= psi_want.sum()
        assert_allclose(post.psi_marginal(), psi_want, rtol=1e-12)
        assert_allclose(post.theta_marginal(), grid.theta_prior_mass, rtol=1e-12)


    @staticmethod
    def _every_call_table(tensor, grid, mat, proxy_vec):
        """The engine with the zero-weight-safe copy rebuilt on every call."""
        safe = np.where(np.isneginf(tensor) & (mat.T[:, None, :] == 0.0), 0.0, tensor)
        log_joint = (np.einsum("bi,iab->ab", mat, safe) + proxy_vec[None, :]
                     + grid.log_theta_prior()[:, None] + grid.log_psi_prior()[None, :])
        log_evidence = float(logsumexp(log_joint))
        joint = np.exp(log_joint - log_evidence)
        return joint / joint.sum(), log_evidence

    def test_zero_weight_rule_equals_every_call_formula(self):
        """On a toy tensor holding -inf under zero weights the table is
        exactly the one of the mask formed afresh on every call."""
        table = np.array([[[1.0, 0.0, 0.0], [0.4, 0.6, 0.0]],
                          [[0.5, 0.2, 0.3], [0.2, 0.0, 0.8]],
                          [[0.1, 0.1, 0.8], [0.3, 0.3, 0.4]]])
        model = discrete_toy_model(table)
        grid = toy_grid(3, 2)
        data = SourceData(np.empty((4, 0)), [1, 2, 0, 1])
        problem = GridProblem(model, data, grid)
        assert np.isneginf(problem.tensor).any()
        rng = np.random.default_rng(RNG_SEED)
        proxy_vec = np.log(rng.uniform(0.2, 0.8, size=grid.n_psi))
        weights = np.array([[0.0, 0.0, 0.7, 0.0], [0.3, 0.0, 1.0, 0.5]])
        for round_weights in (weights, weights[::-1], np.zeros_like(weights)):
            post = r_weighted_posterior(problem, round_weights, proxy_vec)
            joint, log_evidence = self._every_call_table(problem.tensor, grid,
                                                         round_weights, proxy_vec)
            assert_array_equal(post.joint_mass, joint)
            assert post.log_evidence == log_evidence

    def test_finite_tensor_skips_the_mask(self):
        rng = np.random.default_rng(RNG_SEED)
        model = linear_model()
        nodes = midpoint_nodes(-3.0, 3.0, 9)[:, None]
        grid = ParameterGrid(nodes, nodes, np.full(9, 1 / 9), np.full(9, 1 / 9))
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(6)]))
        problem = GridProblem(model, data, grid)
        weights = rng.uniform(0, 1, size=(9, 6))
        weights[:, 2] = 0.0
        assert _zero_weight_safe(problem.tensor, weights.T[:, None, :]) is problem.tensor
        post = r_weighted_posterior(problem, weights, np.zeros(9))
        joint, log_evidence = self._every_call_table(problem.tensor, grid, weights,
                                                     np.zeros(9))
        assert_array_equal(post.joint_mass, joint)
        assert post.log_evidence == log_evidence


class TestZeroWeightSafe:
    """_zero_weight_safe, the one statement of the zero-weight rule."""

    LLS = np.array([[np.log(0.5), -np.inf, np.log(0.2)],
                    [-np.inf, np.log(0.3), 0.0]])

    def test_no_zero_weight_returns_the_input(self):
        lls = self.LLS.copy()
        assert _zero_weight_safe(lls, np.full(lls.shape, 0.4)) is lls
        assert _zero_weight_safe(lls, np.array([0.1, 1.0, 0.5])) is lls

    def test_no_neginf_term_returns_the_input(self):
        lls = np.where(np.isneginf(self.LLS), -700.0, self.LLS)
        weights = np.array([[0.0, 0.0, 0.3], [0.0, 0.9, 0.0]])
        assert _zero_weight_safe(lls, weights) is lls

    def test_zero_weight_on_neginf_equals_the_every_call_formula(self):
        lls = self.LLS.copy()
        for weights in (np.array([[0.2, 0.0, 0.0], [0.0, 0.7, 1.0]]),
                        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5]]),
                        np.array([0.0, 0.6, 0.0])):
            want = np.where((weights == 0.0) & np.isneginf(lls), 0.0, lls)
            got = _zero_weight_safe(lls, weights)
            assert got is not lls
            assert_array_equal(got, want)
            assert_array_equal(lls, self.LLS)                             # not written
        with np.errstate(all="raise"):
            # each dropped term adds exactly 0, and no 0 * -inf is formed
            weights = np.array([[0.2, 0.0, 0.3], [0.0, 0.7, 1.0]])
            assert_array_equal((weights * _zero_weight_safe(lls, weights)).sum(axis=1),
                               [0.2 * np.log(0.5) + 0.3 * np.log(0.2), 0.7 * np.log(0.3)])


class TestEngineEquivalence:
    """Unit weights, a point-mass source task prior, and a proxy that pins
    the target node reduce the weighted engine to the classic one."""

    def test_toy_theta_marginals_agree(self):
        model, grid0, data, table, rng = _toy_setup()
        target = 1
        psi_prior = np.zeros(grid0.n_psi)
        psi_prior[target] = 1.0
        grid = toy_grid(grid0.n_theta, grid0.n_psi,
                        theta_prior=grid0.theta_prior_mass, psi_prior=psi_prior)

        def pll(payload, psi_nodes):
            return np.where(psi_nodes[:, 0].astype(int) == target, 0.0, -np.inf)

        proxy = ProxyObservation(payload=None, proxy_log_likelihood=pll)
        problem = GridProblem(model, data, grid)
        weighted = r_weighted_posterior(problem, np.ones((grid.n_psi, data.n)),
                                        proxy_loglik_vector(proxy, grid.psi_nodes))
        classic = classic_posterior(problem, psi_prior)
        assert_allclose(weighted.theta_marginal(), classic.theta_marginal(),
                        rtol=0, atol=1e-14)
        assert_allclose(weighted.log_evidence, classic.log_evidence, atol=1e-12)


class TestRWeightedLikelihood:
    def test_sum_of_scaled_loglikelihoods(self):
        model, _, data, table, rng = _toy_setup()
        w = rng.uniform(0, 1, size=data.n)
        got = r_weighted_likelihood(model, data, 1.0, 0.0, w)
        want = sum(wi * np.log(table[1, 0, int(y)])
                   for wi, y in zip(w, data.outcomes))
        assert_allclose(got, want, rtol=1e-13)

    def test_rejects_out_of_range(self):
        model, _, data, _, _ = _toy_setup()
        w = np.full(data.n, 0.5)
        w[-1] = 1.2
        with pytest.raises(ValueError):
            r_weighted_likelihood(model, data, 0.0, 0.0, w)

    def test_zero_weight_suppresses_neg_inf(self):
        table = np.array([[[1.0, 0.0]]])
        model = discrete_toy_model(table)
        data = SourceData(np.empty((1, 0)), [1])
        got = r_weighted_likelihood(model, data, 0.0, 0.0, np.array([0.0]))
        assert got == 0.0

    def test_engine_cells_match_oracle(self):
        model, grid, data, _, rng = _toy_setup()
        weights = rng.uniform(0, 1, size=(grid.n_psi, data.n))
        table = r_weighted_posterior(GridProblem(model, data, grid), weights,
                                     np.zeros(grid.n_psi))
        log_joint = np.array([[r_weighted_likelihood(model, data, th, ps, weights[b])
                               for b, ps in enumerate(grid.psi_nodes)]
                              for th in grid.theta_nodes])
        log_joint += grid.log_theta_prior()[:, None] + grid.log_psi_prior()[None, :]
        want = np.exp(log_joint - log_joint.max())
        assert_allclose(table.joint_mass, want / want.sum(), rtol=1e-12)


class TestMetropolis:
    @staticmethod
    def _std_normal_prior(theta, psi):
        return float(-0.5 * (theta @ theta + psi @ psi))

    def test_recovers_prior_when_likelihood_is_flat(self):
        """Covariates [0, 0] make the likelihood, and so the sigmoid-ratio
        weighted likelihood, flat in theta and psi, so the chain must sample
        the prior; mean and variance are checked loosely against N(0, 1)."""
        model = linear_model()
        data = SourceData([[0.0, 0.0]], [0.3])
        chain = metropolis_posterior(model, data, self._std_normal_prior,
                                     n_samples=40000, seed=5)
        assert_allclose(chain.theta_samples.mean(), 0.0, atol=0.08)
        assert_allclose(chain.theta_samples.var(), 1.0, atol=0.12)
        assert_allclose(chain.psi_samples.var(), 1.0, atol=0.12)

    def test_conjugate_normal_posterior(self):
        """The fixed-effects target with one group and covariates [1, 0]
        makes theta | y conjugate: two observations and a standard normal
        prior give N(ybar*2/3, 1/3)."""
        model = linear_model()
        data = SourceData([[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
        chain = metropolis_posterior(model, data, self._std_normal_prior,
                                     n_samples=60000, seed=11, groups=[[0, 1]])
        assert_allclose(chain.theta_samples.mean(), 1.0 / 3.0, atol=0.04)
        assert_allclose(chain.theta_samples.var(), 1.0 / 3.0, atol=0.05)
        # psi never touches the likelihood here, so it keeps its prior
        assert_allclose(chain.psi_samples.mean(), 0.0, atol=0.08)
        assert 0.1 <= chain.acceptance_rate <= 0.6

    def test_proxy_shifts_target_parameter(self):
        """Covariates [1, 0] keep psi out of the likelihood and of the
        sigmoid-ratio weights, so psi sees only its prior and the proxy,
        whose log-likelihood in psi the prior density carries."""
        model = linear_model()
        data = SourceData([[1.0, 0.0]], [0.0])
        proxy = _normal_proxy(2.0, sigma=0.5)

        def prior_with_proxy(theta, psi):
            return (self._std_normal_prior(theta, psi)
                    + float(proxy_loglik_vector(proxy, psi[None, :])[0]))

        chain = metropolis_posterior(model, data, prior_with_proxy, n_samples=40000, seed=7)
        # N(0,1) prior times N(2, 0.25) likelihood: mean 2/(1 + 0.25)
        assert_allclose(chain.psi_samples.mean(), 1.6, atol=0.06)

    def test_known_groups_state_has_one_psi_per_group(self):
        model = linear_model()
        rng = np.random.default_rng(RNG_SEED)
        data = SourceData(*zip(*[(rng.normal(size=2), rng.normal()) for _ in range(4)]))
        chain = metropolis_posterior(model, data, self._std_normal_prior,
                                     n_samples=2000, seed=3, groups=[[0, 1], [2], [3]])
        assert chain.psi_samples.shape == (1500, 3)
        assert chain.theta_samples.shape == (1500, 1)

    def test_groups_must_partition(self):
        model = linear_model()
        data = SourceData([[1.0, 0.0], [0.5, 1.0]], [0.0, 0.2])
        with pytest.raises(ValueError, match="partition"):
            metropolis_posterior(model, data, self._std_normal_prior,
                                 n_samples=1000, seed=0, groups=[[0], [0, 1]])

    def test_groups_overlap_or_gap_rejected(self):
        """Four observations: an index in two groups, or in none, is refused."""
        model = linear_model()
        data = SourceData([[1.0, 0.5 * i] for i in range(4)], [0.1 * i for i in range(4)])
        for groups in ([[0, 1], [1, 2, 3]], [[0, 1], [3]]):
            with pytest.raises(ValueError, match="partition"):
                metropolis_posterior(model, data, self._std_normal_prior,
                                     n_samples=1000, seed=0, groups=groups)

    @pytest.mark.parametrize("groups", [[[0.0, 1.0], [2.0, 3.0]], [[0, 1], [2, 3.0]],
                                        [[False, True], [2, 3]], [[0, np.True_], [2, 3]]],
                             ids=["floats", "one-float", "bools", "numpy-bool"])
    def test_group_members_must_be_integers(self, groups):
        """Whole-number floats and bools compare equal to the indices they
        stand for, so they pass the partition test; they cannot index, and
        are refused with ValueError before any indexing."""
        model = linear_model()
        data = SourceData([[1.0, 0.5 * i] for i in range(4)], [0.1 * i for i in range(4)])
        with pytest.raises(ValueError, match="integer"):
            metropolis_posterior(model, data, self._std_normal_prior,
                                 n_samples=1000, seed=0, groups=groups)

    def test_numpy_integer_group_members_are_accepted(self):
        model = linear_model()
        data = SourceData([[1.0, 0.5 * i] for i in range(4)], [0.1 * i for i in range(4)])
        plain = metropolis_posterior(model, data, self._std_normal_prior,
                                     n_samples=1000, seed=0, groups=[[0, 1], [2, 3]])
        arrays = metropolis_posterior(model, data, self._std_normal_prior, n_samples=1000,
                                      seed=0, groups=[np.arange(2), np.arange(2, 4)])
        assert plain.psi_samples.tobytes() == arrays.psi_samples.tobytes()

    def test_init_must_be_finite(self):
        model = linear_model()
        data = SourceData([[1.0, 0.0]], [0.0])
        with pytest.raises(McmcInitError):
            metropolis_posterior(model, data, lambda t, p: -np.inf, n_samples=2000, seed=0)

    def test_minimum_iterations_enforced(self):
        model = linear_model()
        data = SourceData([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError, match="1000"):
            metropolis_posterior(model, data, self._std_normal_prior, n_samples=500, seed=0)

    def test_warns_on_pathological_acceptance(self):
        model = linear_model()
        data = SourceData([[1.0, 0.0]], [0.0])
        with pytest.warns(RuntimeWarning, match="acceptance"):
            chain = metropolis_posterior(model, data, self._std_normal_prior,
                                         n_samples=1000, seed=0, proposal_scale=1e7)
        assert chain.warning is not None

    def test_same_seed_reproduces_chain(self):
        model = linear_model()
        data = SourceData([[1.0, 0.5]], [0.2])
        kwargs = dict(n_samples=2000, seed=42)
        c1 = metropolis_posterior(model, data, self._std_normal_prior, **kwargs)
        c2 = metropolis_posterior(model, data, self._std_normal_prior, **kwargs)
        assert_allclose(c1.theta_samples, c2.theta_samples, rtol=0, atol=0)
        assert_allclose(c1.psi_samples, c2.psi_samples, rtol=0, atol=0)


class TestChainGridTv:
    def _table(self):
        rng = np.random.default_rng(RNG_SEED)
        tn = np.linspace(-2, 2, 8)[:, None]
        pn = np.linspace(-2, 2, 8)[:, None]
        joint = rng.dirichlet(np.full(64, 5.0)).reshape(8, 8)
        grid = ParameterGrid(tn, pn, joint.sum(axis=1), joint.sum(axis=0))
        return PosteriorTable(grid=grid, joint_mass=joint, log_evidence=0.0)

    def test_exact_draws_give_small_distance(self):
        table = self._table()
        rng = np.random.default_rng(RNG_SEED)
        flat = table.joint_mass.ravel()
        idx = rng.choice(64, size=60000, p=flat)
        a, b = np.divmod(idx, 8)
        chain = McmcChainStub(table.grid.theta_nodes[a],
                              table.grid.psi_nodes[b])
        tv = chain_grid_tv(chain, table)
        assert tv < 0.02

    def test_wrong_distribution_is_detected(self):
        table = self._table()
        rng = np.random.default_rng(RNG_SEED)
        chain = McmcChainStub(np.full((5000, 1), 2.0), np.full((5000, 1), -2.0))
        tv = chain_grid_tv(chain, table)
        assert tv > 0.5

    def test_theta_marginal_mode(self):
        table = self._table()
        rng = np.random.default_rng(RNG_SEED)
        idx = rng.choice(8, size=60000, p=table.theta_marginal())
        chain = McmcChainStub(table.grid.theta_nodes[idx],
                              np.zeros((60000, 1)))
        tv = chain_grid_tv(chain, table, marginal="theta")
        assert tv < 0.02

    @pytest.mark.parametrize("marginal", [None, "theta"])
    def test_samples_off_the_grid_count_in_full(self, marginal):
        """90% of the chain sits far outside the grid, where the table has
        no mass, so the distance is at least 0.9."""
        grid = ParameterGrid(np.linspace(-2, 2, 8)[:, None], np.linspace(-2, 2, 8)[:, None],
                             np.full(8, 1 / 8), np.full(8, 1 / 8))
        table = PosteriorTable(grid=grid, joint_mass=np.full((8, 8), 1 / 64), log_evidence=0.0)
        a, b = np.divmod(np.random.default_rng(RNG_SEED).integers(64, size=20000), 8)
        chain = McmcChainStub(
            np.concatenate([grid.theta_nodes[a], np.full((180000, 1), 50.0)]),
            np.concatenate([grid.psi_nodes[b], np.full((180000, 1), 50.0)]))
        # 0.9 exactly when no bin holds more than its table mass; allow rounding
        assert chain_grid_tv(chain, table, marginal=marginal) >= 0.9 - 1e-12

    @pytest.mark.parametrize("marginal", [None, "theta"])
    def test_vector_parameters_rejected(self, marginal):
        """The histograms bin one coordinate per parameter.  Binned on its
        first coordinate alone, a chain drawn uniformly on [-1, 1]^2 reads a
        joint and theta TV of 0.556 against a uniform 3 x 3 theta grid, not
        about 0, so two coordinates on either side raise."""
        theta_nodes = box_nodes([[-1.0, 1.0], [-1.0, 1.0]], 3)
        grid = ParameterGrid(theta_nodes, np.zeros((1, 1)), np.full(9, 1 / 9), [1.0])
        table = PosteriorTable(grid=grid, joint_mass=np.full((9, 1), 1 / 9),
                               log_evidence=0.0)
        rng = np.random.default_rng(RNG_SEED)
        chain = McmcChainStub(rng.uniform(-1.0, 1.0, size=(20000, 2)), np.zeros((20000, 1)))
        with pytest.raises(ValueError, match="scalar theta"):
            chain_grid_tv(chain, table, marginal=marginal)
        scalar = self._table()
        chain = McmcChainStub(np.zeros((10, 1)), np.zeros((10, 2)))
        with pytest.raises(ValueError, match="scalar psi"):
            chain_grid_tv(chain, scalar, marginal=marginal)

    def test_unknown_marginal_rejected(self):
        """A misspelt marginal must not fall through to the joint, and the
        psi marginal, which no criterion compares, is not offered."""
        table = self._table()
        chain = McmcChainStub(np.zeros((10, 1)), np.zeros((10, 1)))
        for marginal in ("Theta", "psi"):
            with pytest.raises(ValueError, match="'theta' or None"):
                chain_grid_tv(chain, table, marginal=marginal)

    def test_nodes_must_increase_evenly(self):
        """Cells are one node step wide, so nodes [0, 1, 3, 7] would be binned
        with the first gap's width and unsorted nodes would fail inside
        np.histogram: both raise, on either axis.  Midpoint nodes, uneven
        only by rounding, are accepted."""
        even = np.linspace(0.0, 3.0, 4)
        chain = McmcChainStub(np.ones((10, 1)), np.ones((10, 1)))
        for name, bad in (("theta", [0.0, 1.0, 3.0, 7.0]), ("psi", [0.0, 2.0, 1.0, 3.0]),
                          ("theta", [3.0, 2.0, 1.0, 0.0])):
            nodes = {"theta": even, "psi": even, name: np.array(bad)}
            grid = ParameterGrid(nodes["theta"][:, None], nodes["psi"][:, None],
                                 np.full(4, 0.25), np.full(4, 0.25))
            table = PosteriorTable(grid=grid, joint_mass=np.full((4, 4), 1 / 16),
                                   log_evidence=0.0)
            with pytest.raises(ValueError, match=f"evenly spaced {name} nodes"):
                chain_grid_tv(chain, table)
        nodes = midpoint_nodes(-4.0, 4.0, 41)[:, None]
        grid = ParameterGrid(nodes, nodes, np.full(41, 1 / 41), np.full(41, 1 / 41))
        table = PosteriorTable(grid=grid, joint_mass=np.full((41, 41), 1 / 41 ** 2),
                               log_evidence=0.0)
        assert 0.0 <= chain_grid_tv(McmcChainStub(np.zeros((10, 1)), np.zeros((10, 1))),
                                    table) <= 1.0


class McmcChainStub:
    """Bare sample holder so distance tests need no actual chain run."""

    def __init__(self, theta_samples, psi_samples):
        self.theta_samples = np.asarray(theta_samples, dtype=float)
        self.psi_samples = np.asarray(psi_samples, dtype=float)
