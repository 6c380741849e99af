"""Acceptance gate: every stated criterion, one timed verdict per test.

Each test prints a PASS or FAIL line carrying the measured quantity and the
elapsed time, then asserts on both.  Budgets are the stated ceilings; on a
single sandbox core the measured times sit far below them.

The trajectory-model directional check is a known red, with three measured
causes (50 simulations at grid 10).  Mode-normalized agreement for a
10-point trajectory concentrates near exp(-chi2(10)/2) whatever the
lengthscales, so expert ratings saturate at zero (389 of 400) and carry no
task signal.  The relevance weights collapse: the median sum of the 8
source weights at a psi node is about 1e-10, yet the smallest GP
log-likelihood on the grid is -2.6e5 in the median simulation, so the tiny
weights still steer theta.  And the weighted learner itself transfers
negatively: ig_rweighted < 0 in 50 of 50 simulations, while the exact grid
learner it competes with has the source mixture correctly specified.  The
test states the required direction and reports the measured median rather
than hiding it.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relbayes.diagnostics import ToyEnumeration, check_prop55, check_theorem24
from relbayes.grids import ParameterGrid, midpoint_nodes
from relbayes.harness.cli import main as cli_main
from relbayes.harness.config import parse_config_text
from relbayes.harness.runner import run_experiment, toy_verify_instance
from relbayes.inference import (GridProblem, ProxyObservation, chain_grid_tv,
                                classic_posterior, metropolis_posterior,
                                proxy_loglik_vector, r_weighted_posterior)
from relbayes.models import (SourceData, binomial_logit_model,
                             gp_model, linear_model)
from relbayes.relevance import sigmoid_ratio_relevance
from relbayes.synthetic import gen_imprecise_estimate_proxy, task_rng

IDENTITY_TOL = 1e-9
MARGINAL_TOL = 1e-10
TV_BUDGET = 0.05
REPO_ROOT = Path(__file__).resolve().parents[1]


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {tag} ({detail})"
    print(line)
    assert ok, line


def _onehot_proxy_ll(grid: ParameterGrid, pinned_value: float) -> np.ndarray:
    """The (B,) log-likelihood at the psi nodes of a proxy that pins psi."""
    def pll(payload, psi_nodes):
        return np.where(np.abs(psi_nodes[:, 0] - pinned_value) < 1e-12, 0.0, -np.inf)

    return proxy_loglik_vector(ProxyObservation(payload=None, proxy_log_likelihood=pll),
                               grid.psi_nodes)


def _normal_mass(nodes: np.ndarray) -> np.ndarray:
    logs = -0.5 * nodes[:, 0] ** 2
    mass = np.exp(logs - logs.max())
    return mass / mass.sum()


def _median_advantage(config_text: str) -> tuple[float, int]:
    results = run_experiment(parse_config_text(config_text))
    adv = np.array([r.advantage for r in results if r.error is None])
    return float(np.median(adv)), adv.size


def test_criterion_1_decomposition_identity_on_random_toys():
    """The weighted-risk decomposition closes exactly on 100 enumerated
    instances with data-dependent random weights."""
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        model, truth, grid, weight_table, _ = toy_verify_instance(rng)
        result = check_prop55(ToyEnumeration(model, truth, grid), weight_table)
        worst = max(worst, abs(result.residual))
    elapsed = time.perf_counter() - start
    _verdict("criterion 1, decomposition identity",
             worst < IDENTITY_TOL and elapsed < 30.0,
             f"worst |residual| {worst:.2e} over 100 instances, {elapsed:.1f}s")


def test_criterion_2_negative_transfer_bound_on_random_toys():
    """The excluded-mass bound on classic information gain holds exactly on
    100 enumerated instances."""
    start = time.perf_counter()
    holds = 0
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        model, truth, grid, _, _ = toy_verify_instance(rng)
        result = check_theorem24(ToyEnumeration(model, truth, grid), grid.psi_prior_mass)
        holds += bool(result.satisfied)
    elapsed = time.perf_counter() - start
    _verdict("criterion 2, negative-transfer bound",
             holds == 100 and elapsed < 60.0,
             f"{holds}/100 instances satisfied, {elapsed:.1f}s")


class TestCriterion3EngineCrossValidation:
    """Unit weights, a one-hot proxy, and a point-mass task prior collapse
    the weighted engine onto the classic one, on every model."""

    def test_toy_marginals_agree(self):
        rng = np.random.default_rng(3000)
        model, truth, grid0, _, _ = toy_verify_instance(rng)
        target = grid0.n_psi - 1
        psi_prior = np.zeros(grid0.n_psi)
        psi_prior[target] = 1.0
        grid = ParameterGrid(grid0.theta_nodes, grid0.psi_nodes,
                             grid0.theta_prior_mass, psi_prior)
        data = SourceData(np.empty((4, 0)), [
            model.simulate(np.empty(0), truth.theta_star, truth.psi_star[0], rng)
            for _ in range(4)])
        problem = GridProblem(model, data, grid)
        weighted = r_weighted_posterior(problem,
                                        np.ones((grid.n_psi, data.n)),
                                        _onehot_proxy_ll(grid, float(target)))
        classic = classic_posterior(problem, psi_prior)
        gap = float(np.abs(weighted.theta_marginal()
                           - classic.theta_marginal()).max())
        _verdict("criterion 3, toy engines", gap < MARGINAL_TOL,
                 f"max marginal gap {gap:.2e}")

    def test_linear_marginals_agree(self):
        model = linear_model()
        rng = task_rng(77, 0)
        x = rng.normal(size=(8, 2))
        data = SourceData(x, [-xi[0] + 0.8 * xi[1] + rng.standard_normal() for xi in x])
        nodes = midpoint_nodes(-4.0, 4.0, 41)[:, None]
        mass = _normal_mass(nodes)
        b_star = 24
        psi_prior = np.zeros(41)
        psi_prior[b_star] = 1.0
        grid = ParameterGrid(nodes, nodes, mass, psi_prior)
        problem = GridProblem(model, data, grid)
        weighted = r_weighted_posterior(problem,
                                        np.ones((grid.n_psi, data.n)),
                                        _onehot_proxy_ll(grid, float(nodes[b_star, 0])))
        classic = classic_posterior(problem, psi_prior)
        gap = float(np.abs(weighted.theta_marginal()
                           - classic.theta_marginal()).max())
        _verdict("criterion 3, linear engines", gap < MARGINAL_TOL,
                 f"max marginal gap {gap:.2e}")

    def test_binomial_logit_marginals_agree(self):
        model = binomial_logit_model()
        rng = task_rng(31, 0)
        theta_nodes = rng.normal(0.0, 0.8, size=(16, 4))
        theta_mass = rng.dirichlet(np.full(16, 5.0))
        psi_nodes = midpoint_nodes(-2.0, 2.0, 9)[:, None]
        b_star = 4
        psi_prior = np.zeros(9)
        psi_prior[b_star] = 1.0
        grid = ParameterGrid(theta_nodes, psi_nodes, theta_mass, psi_prior)
        designs = np.eye(4)
        data = SourceData(designs[np.arange(6) % 4], [
            model.simulate(designs[i % 4], theta_nodes[0], psi_nodes[b_star],
                           rng, trial_count=20)
            for i in range(6)], np.full(6, 20))
        problem = GridProblem(model, data, grid)
        weighted = r_weighted_posterior(problem,
                                        np.ones((grid.n_psi, data.n)),
                                        _onehot_proxy_ll(grid, float(psi_nodes[b_star, 0])))
        classic = classic_posterior(problem, psi_prior)
        gap = float(np.abs(weighted.theta_marginal()
                           - classic.theta_marginal()).max())
        _verdict("criterion 3, binomial-logit engines", gap < MARGINAL_TOL,
                 f"max marginal gap {gap:.2e}")

    def test_gp_marginals_agree(self):
        x = np.linspace(0.0, 1.0, 6)
        model = gp_model(x)
        rng = task_rng(53, 0)
        theta_nodes = np.array([[0.5], [1.0], [2.0], [4.0]])
        theta_mass = np.full(4, 0.25)
        psi_nodes = np.array([[0.7], [1.5], [3.0]])
        b_star = 1
        psi_prior = np.zeros(3)
        psi_prior[b_star] = 1.0
        grid = ParameterGrid(theta_nodes, psi_nodes, theta_mass, psi_prior)
        data = SourceData(np.tile(x, (2, 1)), [
            model.simulate(x, np.array([1.0]), np.array([1.5]), rng)
            for _ in range(2)])
        problem = GridProblem(model, data, grid)
        weighted = r_weighted_posterior(problem,
                                        np.ones((grid.n_psi, data.n)),
                                        _onehot_proxy_ll(grid, float(psi_nodes[b_star, 0])))
        classic = classic_posterior(problem, psi_prior)
        gap = float(np.abs(weighted.theta_marginal()
                           - classic.theta_marginal()).max())
        _verdict("criterion 3, trajectory engines", gap < MARGINAL_TOL,
                 f"max marginal gap {gap:.2e}")

    def test_metropolis_leg_matches_classic_marginal(self):
        """The sampler cannot hold a point mass, so the pin becomes a tight
        normal (sd 1e-4, well under the grid cell width) around the node.
        The chain runs the production "sigmoid-ratio" kind, whose weights
        are all 1.0 at the pinned node, so its target is the unit-weight
        likelihood the classic posterior collapses to."""
        model = linear_model()
        rng = task_rng(77, 0)
        x = rng.normal(size=(8, 2))
        data = SourceData(x, [-xi[0] + 0.8 * xi[1] + rng.standard_normal() for xi in x])
        nodes = midpoint_nodes(-4.0, 4.0, 41)[:, None]
        mass = _normal_mass(nodes)
        b_star = 24
        node = float(nodes[b_star, 0])
        psi_prior = np.zeros(41)
        psi_prior[b_star] = 1.0
        grid = ParameterGrid(nodes, nodes, mass, psi_prior)
        classic = classic_posterior(GridProblem(model, data, grid), psi_prior)

        assert (sigmoid_ratio_relevance(model, data, [node]) == 1.0).all()
        pin_sd = 1e-4

        def pin_ld(psi):
            return -0.5 * ((psi[0] - node) / pin_sd) ** 2

        def prior_ld(theta, psi):
            # the pin's term twice: in the prior, and as the proxy term the
            # prior density carries
            return float(-0.5 * theta[0] ** 2 + pin_ld(psi)) + pin_ld(psi)

        chain = metropolis_posterior(
            model, data, prior_ld, n_samples=40_000, seed=5,
            init_psi=[node], proposal_scale=np.array([0.4, pin_sd]))
        tv = chain_grid_tv(chain, classic, marginal="theta")
        _verdict("criterion 3, sampler leg", tv < TV_BUDGET,
                 f"theta-marginal TV {tv:.4f}")


@pytest.mark.slow
def test_criterion_4_sampler_matches_grid_table():
    """Full joint comparison on a 2-dim grid-computable weighted posterior
    at 200000 iterations.

    The chain runs the production "sigmoid-ratio" kind.  Its weights read
    only psi, so with scalar theta the exact answer is the r-weighted grid
    posterior whose (41, 8) weights are sigmoid_ratio_relevance at each psi
    node.  On these 8 linear observations those weights are all 1.0, where
    the prior-expected weights this criterion once sampled spanned 7e-15 to
    1; the weighting formula itself is pinned bit for bit, at states whose
    weights lie below 1, by the step-versus-oracle test of the sigmoid-ratio
    kind in test_metropolis_step.py."""
    start = time.perf_counter()
    model = linear_model()
    rng = task_rng(77, 0)
    x = rng.normal(size=(8, 2))
    data = SourceData(x, [-xi[0] + 0.8 * xi[1] + rng.standard_normal() for xi in x])
    proxy = gen_imprecise_estimate_proxy(0.8, 1.0, False, rng)
    nodes = midpoint_nodes(-4.0, 4.0, 41)[:, None]
    mass = _normal_mass(nodes)
    grid = ParameterGrid(nodes, nodes, mass, mass)

    w_matrix = np.vstack([sigmoid_ratio_relevance(model, data, grid.psi_nodes[b])
                          for b in range(grid.n_psi)])
    table = r_weighted_posterior(GridProblem(model, data, grid), w_matrix,
                                 proxy_loglik_vector(proxy, grid.psi_nodes))

    def prior_ld(theta, psi):
        # the proxy's log-likelihood in psi is one more term of the prior
        return (float(-0.5 * (theta[0] ** 2 + psi[0] ** 2))
                + float(proxy_loglik_vector(proxy, psi[None, :])[0]))

    chain = metropolis_posterior(model, data, prior_ld, n_samples=200_000, seed=99,
                                 init_psi=[0.0])
    tv = chain_grid_tv(chain, table)
    elapsed = time.perf_counter() - start
    _verdict("criterion 4, sampler against grid table",
             tv < TV_BUDGET and elapsed < 300.0,
             f"joint TV {tv:.4f} at 2e5 samples, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_linear_direction_across_collinearity():
    """Collinear designs give the weighted learner a positive median edge;
    orthogonal designs leave nothing to transfer."""
    start = time.perf_counter()
    median_2, n_2 = _median_advantage(
        "experiment = linear\nn_simulations = 50\nmulticollinearity = 2.0\n"
        "target_resemblance_pct = 100.0\n")
    median_0, n_0 = _median_advantage(
        "experiment = linear\nn_simulations = 50\nmulticollinearity = 0.0\n"
        "target_resemblance_pct = 100.0\n")
    elapsed = time.perf_counter() - start
    ok = median_2 > 0.0 and abs(median_0) < median_2 and elapsed < 900.0
    _verdict("criterion 5, collinearity direction", ok,
             f"median advantage {median_2:+.4f} at collinearity 2 (n={n_2}), "
             f"{median_0:+.4f} at 0 (n={n_0}), {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_advantage_survives_contamination():
    """The median edge stays positive at every adversarial-rating share."""
    start = time.perf_counter()
    medians = {}
    for pct in (0, 25, 50, 75):
        medians[pct], _ = _median_advantage(
            "experiment = linear\nn_simulations = 50\n"
            "multicollinearity = 2.0\ntarget_resemblance_pct = 100.0\n"
            f"contamination_pct = {pct}.0\n")
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{pct}%: {m:+.4f}" for pct, m in medians.items())
    _verdict("criterion 6, contamination robustness",
             all(m > 0.0 for m in medians.values()) and elapsed < 1800.0,
             f"medians {detail}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_7_trajectory_direction_at_left_tail_lengthscale():
    """Desk-scale trajectory experiment at the left-tail shared lengthscale.

    Known red: see the module docstring.  The required direction is stated
    as-is and the measured median is reported in the verdict.
    """
    start = time.perf_counter()
    median, n = _median_advantage(
        "experiment = gp\nn_simulations = 50\ntheta_star = 1.0\n")
    elapsed = time.perf_counter() - start
    _verdict("criterion 7, trajectory direction",
             median > 0.0 and elapsed < 1800.0,
             f"median advantage {median:+.4f} (n={n}), {elapsed:.1f}s")


class TestCriterion8Determinism:
    def _run_cli_pair(self, tmp_path, config_text, jobs_a, jobs_b):
        cfg = tmp_path / "experiment.cfg"
        cfg.write_text(config_text)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", str(cfg), "--out", str(out_a),
                         "--jobs", str(jobs_a)]) == 0
        assert cli_main(["run", str(cfg), "--out", str(out_b),
                         "--jobs", str(jobs_b)]) == 0
        return ((out_a / "results.csv").read_bytes(),
                (out_b / "results.csv").read_bytes(),
                (out_a / "summary.csv").read_bytes(),
                (out_b / "summary.csv").read_bytes())

    def test_toy_verify_rows_identical_across_jobs(self, tmp_path):
        ra, rb, sa, sb = self._run_cli_pair(
            tmp_path,
            "experiment = toy-verify\nn_simulations = 6\nmaster_seed = 11\n",
            1, 3)
        ok = ra == rb and sa == sb
        _verdict("criterion 8, toy-verify determinism", ok,
                 f"results.csv {len(ra)} bytes, jobs 1 vs 3")

    def test_linear_rows_identical_across_jobs(self, tmp_path):
        ra, rb, sa, sb = self._run_cli_pair(
            tmp_path,
            "experiment = linear\nn_simulations = 4\nmulticollinearity = 2.0\n"
            "grid_resolution = 31\nmaster_seed = 11\n",
            1, 2)
        ok = ra == rb and sa == sb
        _verdict("criterion 8, linear determinism", ok,
                 f"results.csv {len(ra)} bytes, jobs 1 vs 2")

    def test_gp_rows_identical_across_jobs(self, tmp_path):
        ra, rb, sa, sb = self._run_cli_pair(
            tmp_path,
            "experiment = gp\nn_simulations = 4\ngrid_resolution = 10\n"
            "master_seed = 11\n",
            1, 2)
        ok = ra == rb and sa == sb
        _verdict("criterion 8, gp determinism", ok,
                 f"results.csv {len(ra)} bytes, jobs 1 vs 2")


@pytest.mark.slow
def test_criterion_9_fast_suite_within_budget():
    """The whole fast suite, as a user would run it, inside five minutes."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "not slow",
         "--ignore=tests/test_acceptance.py", "-q"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    _verdict("criterion 9, fast suite budget",
             proc.returncode == 0 and elapsed < 300.0,
             f"{tail}, {elapsed:.1f}s")
