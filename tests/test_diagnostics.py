"""Diagnostics against independent enumeration oracles.

The toy-model expectations here are re-derived from scratch (mpmath sums
or direct loops over every dataset), never by calling back into the
module under test, so agreement at 1e-12 is meaningful.  The per-dataset
loops that the gather-and-reduce enumeration replaced live in
_scalar_reference and are checked against it field by field.
"""

import itertools
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import _scalar_reference as ref
from relbayes import inference
from relbayes.diagnostics import (DeltaRweighted, DiagnosticsReport,
                                  ToyEnumeration, TrueProcess,
                                  check_prop55, check_theorem24,
                                  delta_classic, delta_rweighted, entropy,
                                  info_gain_classic, info_gain_rweighted,
                                  kl_divergence, toy_diagnostics_report)
from relbayes.grids import ParameterGrid, toy_grid
from relbayes.harness.runner import toy_verify_instance
from relbayes.models import discrete_toy_model, linear_model, loglik_tensor

mp.mp.dps = 50

RNG_SEED = 20260817


class TestEntropyAndDivergences:
    def test_entropy_exact_values(self):
        assert_allclose(entropy([0.5, 0.5]), np.log(2), rtol=0, atol=1e-15)
        assert entropy([1.0, 0.0]) == 0.0
        assert_allclose(entropy(np.full(4, 0.25)), np.log(4), rtol=0, atol=1e-15)

    def test_entropy_against_mpmath(self):
        rng = np.random.default_rng(RNG_SEED)
        p = rng.dirichlet(np.full(6, 1.5))
        want = float(-mp.fsum(mp.mpf(float(pi)) * mp.log(mp.mpf(float(pi)))
                              for pi in p))
        assert_allclose(entropy(p), want, rtol=0, atol=1e-14)

    def test_kl_exact_value(self):
        want = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        assert_allclose(kl_divergence([0.5, 0.5], [0.25, 0.75]), want,
                        rtol=0, atol=1e-15)

    def test_kl_of_identical_distributions_is_zero(self):
        rng = np.random.default_rng(RNG_SEED)
        p = rng.dirichlet(np.full(5, 2.0))
        assert kl_divergence(p, p) == 0.0

    def test_kl_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            p = rng.dirichlet(np.full(4, 0.8))
            q = rng.dirichlet(np.full(4, 0.8))
            assert kl_divergence(p, q) >= 0.0

    def test_absolute_continuity_violation_warns_and_returns_inf(self):
        with pytest.warns(RuntimeWarning, match="absolute continuity"):
            v = kl_divergence([0.5, 0.5], [1.0, 0.0])
        assert v == np.inf

    def test_zero_p_entries_do_not_probe_q(self):
        # 0 log(0/0) = 0 by convention: q may vanish wherever p does
        assert kl_divergence([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_kl_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            kl_divergence([0.5, 0.5], [1.0])


def _toy_instance(seed, n_theta=2, n_psi=2, n_out=2, n_obs=2, a_star=0):
    """Random toy model, grid, and truth whose psi stars sit on grid nodes."""
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.full(n_out, 2.0), size=(n_theta, n_psi))
    model = discrete_toy_model(table)
    grid = toy_grid(n_theta, n_psi,
                    theta_prior=rng.dirichlet(np.full(n_theta, 5.0)),
                    psi_prior=rng.dirichlet(np.full(n_psi, 5.0)))
    psi_star = [float(rng.integers(0, n_psi)) for _ in range(n_obs)]
    truth = TrueProcess(theta_star=float(a_star),
                        psi_star=psi_star,
                        psi_target_star=float(rng.integers(0, n_psi)))
    return model, grid, truth, table, rng


def _endorse_proxy(rng, n_psi):
    """(Z, B) table of a two-payload proxy whose endorsement rate depends on
    the psi node: payload 0 rejects, payload 1 endorses."""
    probs = rng.uniform(0.2, 0.8, size=n_psi)
    return np.stack([np.log1p(-probs), np.log(probs)]), probs


def _outcome_weights(g, n_obs):
    """(B, n, |O|) weight table keyed by outcome alone: w[b, i, o] = g[b, o],
    so dataset d weighs observation i by g[b, d_i]."""
    return np.repeat(g[:, None, :], n_obs, axis=1)


def _constant_weights(model, grid, truth, value):
    """(B, n, |O|) weight table holding one value."""
    return np.full((grid.n_psi, truth.n, len(model.outcome_space)), value)


class TestToyEnumeration:
    def test_tables_are_the_outcome_log_pmfs(self):
        model, grid, truth, table, _ = _toy_instance(RNG_SEED, n_out=3, n_obs=3)
        record = ToyEnumeration(model, truth, grid)
        stars = truth.psi_star[:, 0].astype(int)
        assert_allclose(record.table, np.log(table).transpose(2, 0, 1), rtol=0, atol=1e-15)
        assert_allclose(record.at_theta_star, np.log(table[0]).T, rtol=0, atol=1e-15)
        assert_allclose(record.star, np.log(table[0, stars]), rtol=0, atol=1e-15)
        assert record.datasets.shape == (27, 3)
        assert record.datasets[1].tolist() == [0, 0, 1]       # the last index varies fastest
        want = [np.log(table[0, stars, list(d)]).sum()
                for d in itertools.product(range(3), repeat=3)]
        assert_allclose(record.log_pstar, want, rtol=0, atol=1e-14)
        for name in ("datasets", "log_pstar", "table", "at_theta_star", "star"):
            assert not getattr(record, name).flags.writeable, name

    def test_theta_star_snaps_to_nearest_node(self):
        model, grid, _, _, rng = _toy_instance(RNG_SEED)
        src = rng.dirichlet(np.full(grid.n_psi, 3.0))
        truth = TrueProcess(0.4, [0.0], 0.0)
        record = ToyEnumeration(model, truth, grid)
        assert record.a_star == 0
        assert_allclose(record.theta_snap_distance, 0.4, rtol=0, atol=1e-12)
        snapped = TrueProcess(0.0, [0.0], 0.0)
        on_node = ToyEnumeration(model, snapped, grid)
        assert on_node.theta_snap_distance == 0.0
        assert_allclose(info_gain_classic(record, src), info_gain_classic(on_node, src),
                        rtol=0, atol=0)

    def test_theta_star_outside_span_raises(self):
        model, grid, _, _, _ = _toy_instance(RNG_SEED)
        truth = TrueProcess(5.0, [0.0], 0.0)
        with pytest.raises(ValueError, match="span"):
            ToyEnumeration(model, truth, grid)

    def test_continuous_model_rejected_as_not_enumerable(self):
        model = linear_model()
        grid = ParameterGrid(np.linspace(-2, 2, 5)[:, None],
                             np.zeros((1, 1)), np.full(5, 0.2), np.array([1.0]))
        truth = TrueProcess(0.0, [0.0], 0.0)
        with pytest.raises(ValueError, match="enumerable"):
            ToyEnumeration(model, truth, grid)


class TestSourcePsiPrior:
    """A source prior of the wrong length or not summing to one is rejected,
    as classic_posterior rejects it, instead of broadcasting into a negative
    divergence."""

    @pytest.mark.parametrize("diagnostic", [info_gain_classic, delta_classic,
                                            check_theorem24])
    def test_wrong_length_and_unnormalized_priors_raise(self, diagnostic):
        model, truth, grid, *_ = toy_verify_instance(np.random.default_rng(0))
        record = ToyEnumeration(model, truth, grid)
        assert grid.n_psi == 3
        with pytest.raises(ValueError, match="length"):
            diagnostic(record, [1.0])
        with pytest.raises(ValueError, match="sums to"):
            diagnostic(record, 5.0 * grid.psi_prior_mass)


class TestInfoGainClassic:
    def test_matches_mpmath_enumeration(self):
        model, grid, truth, table, rng = _toy_instance(RNG_SEED)
        src = rng.dirichlet(np.full(grid.n_psi, 3.0))
        got = info_gain_classic(ToyEnumeration(model, truth, grid), src)

        a_star = 0
        stars = truth.psi_star[:, 0].astype(int)
        value = mp.mpf(0)
        for d in itertools.product(range(2), repeat=2):
            pd = mp.fprod(mp.mpf(float(table[a_star, stars[i], d[i]]))
                          for i in range(2))
            post = []
            for a in range(grid.n_theta):
                term = mp.mpf(float(grid.theta_prior_mass[a]))
                for o in d:
                    term *= mp.fsum(mp.mpf(float(src[b])) * mp.mpf(float(table[a, b, o]))
                                    for b in range(grid.n_psi))
                post.append(term)
            ratio = mp.log(post[a_star] / mp.fsum(post)) \
                - mp.log(mp.mpf(float(grid.theta_prior_mass[a_star])))
            value += pd * ratio
        assert_allclose(got, float(value), rtol=0, atol=1e-13)


class TestInfoGainRweighted:
    def test_zero_weights_and_flat_proxy_give_zero_gain(self):
        """No data and no proxy information leaves the posterior at the
        prior, so the expected log-ratio is exactly zero."""
        model, grid, truth, _, rng = _toy_instance(RNG_SEED)
        flat = np.zeros((1, grid.n_psi))
        got = info_gain_rweighted(
            ToyEnumeration(model, truth, grid), flat,
            weight_table=_constant_weights(model, grid, truth, 0.0))
        assert_allclose(got, 0.0, rtol=0, atol=1e-14)

    def test_single_psi_node_reduces_to_classic(self):
        """With one candidate task and unit weights the weighted engine is
        the classic engine, so the gains must agree exactly."""
        rng = np.random.default_rng(RNG_SEED + 3)
        table = rng.dirichlet(np.full(3, 2.0), size=(2, 1))
        model = discrete_toy_model(table)
        grid = toy_grid(2, 1, theta_prior=rng.dirichlet(np.full(2, 5.0)))
        truth = TrueProcess(1.0, [0.0, 0.0], 0.0)
        flat = np.zeros((1, grid.n_psi))
        record = ToyEnumeration(model, truth, grid)
        ig_r = info_gain_rweighted(record, flat,
                                   weight_table=_constant_weights(model, grid, truth, 1.0))
        ig_c = info_gain_classic(record, np.array([1.0]))
        assert_allclose(ig_r, ig_c, rtol=0, atol=1e-13)

    def test_matches_direct_enumeration_with_proxy(self):
        model, grid, truth, table, rng = _toy_instance(RNG_SEED + 1)
        proxy_table, probs = _endorse_proxy(rng, grid.n_psi)
        g = rng.uniform(0.1, 0.9, size=(grid.n_psi, 2))
        got = info_gain_rweighted(ToyEnumeration(model, truth, grid), proxy_table,
                                  weight_table=_outcome_weights(g, 2))

        a_star = 0
        stars = truth.psi_star[:, 0].astype(int)
        value = 0.0
        for z in (0, 1):
            z_lik = np.where(z == 1, probs, 1 - probs)           # (B,)
            z_mass = float(z_lik @ grid.psi_prior_mass)
            for d in itertools.product(range(2), repeat=2):
                pd = float(np.prod([table[a_star, stars[i], d[i]]
                                    for i in range(2)]))
                w = g[:, list(d)]
                joint = np.zeros((grid.n_theta, grid.n_psi))
                for a in range(grid.n_theta):
                    for b in range(grid.n_psi):
                        ll = sum(w[b, i] * np.log(table[a, b, d[i]])
                                 for i in range(2))
                        joint[a, b] = (np.exp(ll) * z_lik[b]
                                       * grid.theta_prior_mass[a]
                                       * grid.psi_prior_mass[b])
                marg = joint.sum(axis=1) / joint.sum()
                value += z_mass * pd * (np.log(marg[a_star])
                                        - np.log(grid.theta_prior_mass[a_star]))
        assert_allclose(got, value, rtol=1e-11)

    def test_true_expectation_reweights_proxy(self):
        model, grid, truth, _, rng = _toy_instance(RNG_SEED + 2)
        proxy_table, probs = _endorse_proxy(rng, grid.n_psi)
        record = ToyEnumeration(model, truth, grid)
        kwargs = dict(weight_table=_constant_weights(model, grid, truth, 1.0))
        subj = info_gain_rweighted(record, proxy_table, **kwargs)
        true = info_gain_rweighted(record, proxy_table, proxy_expectation="true", **kwargs)
        # endorsement rates differ across nodes, so the two z-averages differ
        assert abs(subj - true) > 1e-12

    def test_unknown_expectation_mode_raises(self):
        model, grid, truth, _, rng = _toy_instance(RNG_SEED)
        proxy_table, _ = _endorse_proxy(rng, grid.n_psi)
        with pytest.raises(ValueError, match="proxy_expectation"):
            info_gain_rweighted(ToyEnumeration(model, truth, grid), proxy_table,
                                proxy_expectation="both")

    def test_refinement_builds_one_grid_problem_per_dataset(self, monkeypatch):
        """Both payloads refine on the same dataset's grid problem: 16
        datasets of n = 4 binary outcomes make 16 model evaluations, not 32."""
        model, grid, truth, _, rng = _toy_instance(RNG_SEED + 13, n_out=2, n_obs=4)
        proxy_table, _ = _endorse_proxy(rng, grid.n_psi)
        record = ToyEnumeration(model, truth, grid)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return loglik_tensor(*args, **kwargs)

        for module in ("inference", "relevance", "diagnostics"):
            monkeypatch.setattr(f"relbayes.{module}.loglik_tensor", counting)
        got = info_gain_rweighted(record, proxy_table)
        monkeypatch.undo()
        assert len(proxy_table) == 2 and record.datasets.shape == (16, 4)
        assert len(calls) == 16
        want = ref.info_gain_rweighted(model, truth, grid, proxy_table)
        assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_refinement_reads_the_table_and_evaluates_no_proxy(self, monkeypatch):
        """Every (payload, dataset) refinement reads its payload's row of the
        (Z, B) proxy table the caller passes, so no proxy is evaluated."""
        model, grid, truth, _, rng = _toy_instance(RNG_SEED + 13, n_out=2, n_obs=4)
        proxy_table, _ = _endorse_proxy(rng, grid.n_psi)
        record = ToyEnumeration(model, truth, grid)
        original = inference.proxy_loglik_vector
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "relbayes" and \
                    getattr(module, "proxy_loglik_vector", None) is original:
                monkeypatch.setattr(module, "proxy_loglik_vector", counting)
        got = info_gain_rweighted(record, proxy_table)
        monkeypatch.undo()
        assert calls == []
        want = ref.info_gain_rweighted(model, truth, grid, proxy_table)
        assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mode", ["subjective", "true"])
    def test_refined_sigmoid_ratio_matches_loop_oracle(self, mode):
        """Without a weight table each (payload, dataset) pair runs the
        prior-expected refinement, the one the grid learners run; the loop
        oracle runs refine_relevance on one SourceData per dataset."""
        model, grid, truth, _, rng = _toy_instance(RNG_SEED + 12, n_theta=3, n_psi=3,
                                                   n_out=3, n_obs=3)
        proxy_table, _ = _endorse_proxy(rng, grid.n_psi)
        got = info_gain_rweighted(ToyEnumeration(model, truth, grid), proxy_table,
                                  proxy_expectation=mode)
        want = ref.info_gain_rweighted(model, truth, grid, proxy_table,
                                       proxy_expectation=mode)
        assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_weight_table_checked(self):
        """The (B, n, |O|) table is checked before it is gathered, by
        info_gain_rweighted and check_prop55 alike; a callable is no table."""
        model, grid, truth, _, rng = _toy_instance(RNG_SEED, n_out=3)
        proxy_table, _ = _endorse_proxy(rng, grid.n_psi)
        record = ToyEnumeration(model, truth, grid)
        good = _constant_weights(model, grid, truth, 0.5)
        high, nan = good.copy(), good.copy()
        high[1, 0, 2] = 1.5
        nan[0, 1, 1] = np.nan
        bad_tables = [
            (good[:, :, 0], r"weights shape \(2, 2\), expected \(2, 2, 3\)"),
            (np.full((9, 2, 2), 0.5), r"weights shape \(9, 2, 2\), expected \(2, 2, 3\)"),
            (good[:, :, :-1], r"weights shape \(2, 2, 2\), expected \(2, 2, 3\)"),
            (high, r"must lie in \[0, 1\]"),
            (nan, r"must lie in \[0, 1\]"),
        ]
        for bad, match in bad_tables:
            with pytest.raises(ValueError, match=match):
                info_gain_rweighted(record, proxy_table, weight_table=bad)
            with pytest.raises(ValueError, match=match):
                check_prop55(record, bad)
        with pytest.raises(TypeError):
            check_prop55(record, lambda datasets: good)

    def test_proxy_table_rows_checked(self):
        """Each row is checked as a grid engine checks its proxy vector."""
        model, grid, truth, _, rng = _toy_instance(RNG_SEED, n_psi=3)
        record = ToyEnumeration(model, truth, grid)
        table, _ = _endorse_proxy(rng, grid.n_psi)
        nan = table.copy()
        nan[1, 2] = np.nan
        for bad, error, match in [
                (0.0, ValueError, r"shape \(\), expected \(3,\)"),
                (table[0], ValueError, r"shape \(\), expected \(3,\)"),
                (table[:, :-1], ValueError, r"shape \(2,\), expected \(3,\)"),
                (nan, FloatingPointError, "NaN proxy log-likelihood at psi node index 2")]:
            with pytest.raises(error, match=match):
                info_gain_rweighted(record, bad,
                                    weight_table=_constant_weights(model, grid, truth, 1.0))

    def test_true_expectation_needs_target_on_a_psi_node(self):
        model, grid, truth, _, rng = _toy_instance(RNG_SEED)
        off_node = TrueProcess(truth.theta_star, truth.psi_star, 0.5)
        table, _ = _endorse_proxy(rng, grid.n_psi)
        record = ToyEnumeration(model, off_node, grid)
        with pytest.raises(ValueError, match="not a psi node"):
            info_gain_rweighted(record, table, proxy_expectation="true",
                                weight_table=_constant_weights(model, grid, truth, 1.0))
        # the subjective expectation never reads the target
        info_gain_rweighted(record, table,
                            weight_table=_constant_weights(model, grid, truth, 1.0))


class TestDeltaClassic:
    def test_matches_joint_enumeration(self):
        """The per-observation sum must equal the KL between the full joint
        distributions, since both sides factorize."""
        model, grid, truth, table, rng = _toy_instance(RNG_SEED, n_out=3,
                                                       n_obs=2)
        src = rng.dirichlet(np.full(grid.n_psi, 3.0))
        got = delta_classic(ToyEnumeration(model, truth, grid), src)

        a_star = 0
        stars = truth.psi_star[:, 0].astype(int)
        value = mp.mpf(0)
        for d in itertools.product(range(3), repeat=2):
            pd = mp.fprod(mp.mpf(float(table[a_star, stars[i], d[i]]))
                          for i in range(2))
            qd = mp.fprod(
                mp.fsum(mp.mpf(float(src[b])) * mp.mpf(float(table[a_star, b, o]))
                        for b in range(grid.n_psi))
                for o in d)
            if pd > 0:
                value += pd * mp.log(pd / qd)
        assert_allclose(got, float(value), rtol=0, atol=1e-13)

    def test_zero_when_source_prior_matches_truth(self):
        model, grid, _, table, rng = _toy_instance(RNG_SEED)
        truth = TrueProcess(0.0, [1.0, 1.0], 0.0)
        src = np.array([0.0, 1.0])
        assert_allclose(delta_classic(ToyEnumeration(model, truth, grid), src), 0.0,
                        rtol=0, atol=1e-15)

    def test_nonnegative_on_random_instances(self):
        for k in range(20):
            model, grid, truth, _, rng = _toy_instance(RNG_SEED + k,
                                                       n_theta=3, n_out=3)
            src = rng.dirichlet(np.full(grid.n_psi, 1.0))
            assert delta_classic(ToyEnumeration(model, truth, grid), src) >= 0.0


class TestDeltaRweighted:
    def test_zero_weights_closed_forms(self):
        """All-zero weights make the weighted density flat: the normalized
        reading is n log|O| - H(P*), the unnormalized reading -H(P*)."""
        model, grid, truth, table, _ = _toy_instance(RNG_SEED, n_out=3,
                                                     n_obs=2)
        stars = truth.psi_star[:, 0].astype(int)
        h_star = sum(entropy(table[0, s]) for s in stars)
        got = delta_rweighted(ToyEnumeration(model, truth, grid),
                              np.zeros((grid.n_psi, truth.n)))
        assert_allclose(got.unnormalized, -h_star, rtol=0, atol=1e-13)
        assert_allclose(got.normalized, 2 * np.log(3) - h_star, rtol=0,
                        atol=1e-13)

    def test_matches_mpmath_oracle(self):
        model, grid, truth, table, rng = _toy_instance(RNG_SEED + 4, n_out=3,
                                                       n_obs=3)
        w = rng.uniform(0, 1, size=(grid.n_psi, truth.n))
        got = delta_rweighted(ToyEnumeration(model, truth, grid), w)

        stars = truth.psi_star[:, 0].astype(int)
        unnorm = mp.mpf(0)
        norm = mp.mpf(0)
        for b in range(grid.n_psi):
            qb = mp.mpf(float(grid.psi_prior_mass[b]))
            cross = mp.mpf(0)
            log_z = mp.mpf(0)
            h = mp.mpf(0)
            for i, s in enumerate(stars):
                wi = mp.mpf(float(w[b, i]))
                z_i = mp.fsum(mp.mpf(float(table[0, b, o])) ** wi
                              for o in range(3))
                log_z += mp.log(z_i)
                for o in range(3):
                    p = mp.mpf(float(table[0, s, o]))
                    cross += p * wi * mp.log(mp.mpf(float(table[0, b, o])))
                    h += -p * mp.log(p)
            unnorm += qb * (-h - cross)
            norm += qb * (-h - cross + log_z)
        assert_allclose(got.unnormalized, float(unnorm), rtol=0, atol=1e-12)
        assert_allclose(got.normalized, float(norm), rtol=0, atol=1e-12)

    def test_normalized_reading_is_nonnegative(self):
        for k in range(20):
            model, grid, truth, _, rng = _toy_instance(RNG_SEED + k, n_out=3,
                                                       n_obs=2)
            w = rng.uniform(0, 1, size=(grid.n_psi, truth.n))
            got = delta_rweighted(ToyEnumeration(model, truth, grid), w)
            assert got.normalized >= -1e-13

    def test_weights_shape_validated(self):
        model, grid, truth, _, _ = _toy_instance(RNG_SEED)
        with pytest.raises(ValueError, match="shape"):
            delta_rweighted(ToyEnumeration(model, truth, grid), np.ones((grid.n_psi, 5)))


class TestRhoFidelity:
    """The rho term of check_prop55: the expected covariance between the
    weights and the pseudo-intervened log-likelihoods."""

    def test_constant_weights_have_zero_covariance(self):
        model, grid, truth, _, _ = _toy_instance(RNG_SEED)
        check = check_prop55(ToyEnumeration(model, truth, grid),
                             _constant_weights(model, grid, truth, 0.7))
        assert check.rho_fidelity == 0.0

    def test_matches_direct_enumeration(self):
        model, grid, truth, table, rng = _toy_instance(RNG_SEED + 5, n_out=3,
                                                       n_obs=3)
        g = rng.uniform(0, 1, size=(grid.n_psi, 3))
        rho = check_prop55(ToyEnumeration(model, truth, grid),
                           _outcome_weights(g, 3)).rho_fidelity

        stars = truth.psi_star[:, 0].astype(int)
        total = 0.0
        for b in range(grid.n_psi):
            for d in itertools.product(range(3), repeat=3):
                pd = np.prod([table[0, stars[i], d[i]] for i in range(3)])
                w = g[b, list(d)]
                lls = np.log(table[0, b, list(d)])
                cov = np.mean((w - w.mean()) * (lls - lls.mean()))
                total += grid.psi_prior_mass[b] * pd * cov
        assert_allclose(rho, total, rtol=0, atol=1e-14)


class TestCheckProp55:
    def test_residual_vanishes_on_random_instances(self):
        """The decomposition is algebra, so it must hold to accumulation
        error even when each weight depends on its observation's outcome."""
        rng_sizes = np.random.default_rng(RNG_SEED)
        for k in range(30):
            n_theta = int(rng_sizes.integers(2, 4))
            n_psi = int(rng_sizes.integers(2, 4))
            n_out = int(rng_sizes.integers(2, 5))
            n_obs = int(rng_sizes.integers(2, 5))
            model, grid, truth, _, rng = _toy_instance(
                RNG_SEED + 100 + k, n_theta=n_theta, n_psi=n_psi,
                n_out=n_out, n_obs=n_obs)
            g = rng.uniform(0, 1, size=(n_psi, n_out))
            check = check_prop55(ToyEnumeration(model, truth, grid),
                                 _outcome_weights(g, n_obs))
            assert abs(check.residual) < 1e-10

    def test_components_match_standalone_operations(self):
        model, grid, truth, table, rng = _toy_instance(RNG_SEED + 6, n_out=3,
                                                       n_obs=3)
        g = rng.uniform(0, 1, size=(grid.n_psi, 3))
        record = ToyEnumeration(model, truth, grid)
        check = check_prop55(record, _outcome_weights(g, 3))

        stars = truth.psi_star[:, 0].astype(int)
        rows = table[0, stars]                                    # (n, O)
        h_true = sum(entropy(row) for row in rows)
        assert_allclose(check.entropy_true, h_true, rtol=0, atol=1e-12)

        # E[ESS * DIS] from its definition
        want = 0.0
        for b in range(grid.n_psi):
            for d in itertools.product(range(3), repeat=3):
                pd = np.prod([rows[i, d[i]] for i in range(3)])
                w = g[b, list(d)]
                dis = -np.log(table[0, b, list(d)]).sum()
                want += grid.psi_prior_mass[b] * pd * w.sum() * dis
        assert_allclose(check.ess_dis_expectation, want, rtol=1e-12)

    def test_constant_weights_still_decompose(self):
        model, grid, truth, _, _ = _toy_instance(RNG_SEED + 7)
        check = check_prop55(ToyEnumeration(model, truth, grid),
                             _constant_weights(model, grid, truth, 0.5))
        assert abs(check.residual) < 1e-12
        assert check.rho_fidelity == 0.0

    @pytest.mark.parametrize("n_obs", [6, 7, 8])
    def test_residual_vanishes_at_larger_n(self, n_obs):
        """Up to 4**8 = 65,536 datasets, at the criterion-1 tolerance."""
        model, grid, truth, _, rng = _toy_instance(RNG_SEED + 300 + n_obs, n_theta=3,
                                                   n_psi=3, n_out=4, n_obs=n_obs)
        g = rng.uniform(0, 1, size=(grid.n_psi, 4))
        check = check_prop55(ToyEnumeration(model, truth, grid), _outcome_weights(g, n_obs))
        assert abs(check.residual) < 1e-9


class TestCheckTheorem24:
    def test_never_violated_on_random_instances(self):
        for k in range(50):
            rng_sizes = np.random.default_rng(RNG_SEED + 200 + k)
            model, grid, truth, _, rng = _toy_instance(
                RNG_SEED + 200 + k,
                n_theta=int(rng_sizes.integers(2, 4)),
                n_psi=int(rng_sizes.integers(2, 4)),
                n_out=int(rng_sizes.integers(2, 4)),
                n_obs=int(rng_sizes.integers(1, 4)))
            src = rng.dirichlet(np.full(grid.n_psi, 1.0))
            check = check_theorem24(ToyEnumeration(model, truth, grid), src)
            assert check.satisfied

    @pytest.mark.parametrize("n_obs", [6, 7, 8])
    def test_bound_holds_at_larger_n(self, n_obs):
        model, grid, truth, _, rng = _toy_instance(RNG_SEED + 400 + n_obs, n_theta=3,
                                                   n_psi=3, n_out=4, n_obs=n_obs)
        src = rng.dirichlet(np.full(grid.n_psi, 1.0))
        check = check_theorem24(ToyEnumeration(model, truth, grid), src)
        assert not check.degenerate
        assert check.satisfied

    def test_point_mass_prior_is_degenerate(self):
        model, _, truth, _, rng = _toy_instance(RNG_SEED)
        grid = toy_grid(2, 2, theta_prior=[1.0, 0.0])
        src = rng.dirichlet(np.full(2, 3.0))
        check = check_theorem24(ToyEnumeration(model, truth, grid), src)
        assert check.degenerate
        assert check.satisfied
        assert check.prior_mass_excluded == 0.0
        assert np.isnan(check.kl_excluded_mixture)

    def test_theta_blind_table_achieves_equality(self):
        """A likelihood that ignores theta gives zero gain, and the excluded
        mixture equals the classic marginal, so both sides vanish."""
        rng = np.random.default_rng(RNG_SEED)
        row = rng.dirichlet(np.full(3, 2.0), size=2)
        table = np.stack([row, row, row])
        model = discrete_toy_model(table)
        grid = toy_grid(3, 2, theta_prior=[0.5, 0.3, 0.2])
        truth = TrueProcess(0.0, [0.0, 1.0], 0.0)
        src = np.array([0.4, 0.6])
        check = check_theorem24(ToyEnumeration(model, truth, grid), src)
        assert_allclose(check.info_gain, 0.0, rtol=0, atol=1e-12)
        assert_allclose(check.kl_excluded_mixture, check.delta_classic,
                        rtol=0, atol=1e-12)
        assert check.satisfied

    def test_classic_loglik_formed_once(self, monkeypatch):
        """The bound and the gain it calls read one (A, M) classic table."""
        import relbayes.diagnostics as diagnostics
        model, grid, truth, _, rng = _toy_instance(RNG_SEED + 8, n_out=3, n_obs=2)
        src = rng.dirichlet(np.full(grid.n_psi, 3.0))
        record = ToyEnumeration(model, truth, grid)
        want = check_theorem24(record, src)
        original = diagnostics._classic_theta_loglik
        calls = []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(diagnostics, "_classic_theta_loglik", counting)
        assert check_theorem24(record, src) == want
        assert len(calls) == 1

    def test_bound_components_match_manual_construction(self):
        model, grid, truth, table, rng = _toy_instance(RNG_SEED + 8, n_out=3,
                                                       n_obs=2)
        src = rng.dirichlet(np.full(grid.n_psi, 3.0))
        record = ToyEnumeration(model, truth, grid)
        check = check_theorem24(record, src)

        assert_allclose(check.prior_mass_excluded,
                        1.0 - grid.theta_prior_mass[0], rtol=0, atol=1e-15)
        assert_allclose(check.delta_classic, delta_classic(record, src), rtol=0, atol=0)
        assert_allclose(check.info_gain, info_gain_classic(record, src), rtol=0, atol=0)

        stars = truth.psi_star[:, 0].astype(int)
        excl_w = grid.theta_prior_mass[1:] / grid.theta_prior_mass[1:].sum()
        b_want = mp.mpf(0)
        for d in itertools.product(range(3), repeat=2):
            pd = mp.fprod(mp.mpf(float(table[0, stars[i], d[i]]))
                          for i in range(2))
            mix = mp.fsum(
                mp.mpf(float(excl_w[a - 1]))
                * mp.fprod(
                    mp.fsum(mp.mpf(float(src[b])) * mp.mpf(float(table[a, b, o]))
                            for b in range(grid.n_psi))
                    for o in d)
                for a in range(1, grid.n_theta))
            if pd > 0:
                b_want += pd * mp.log(pd / mix)
        assert_allclose(check.kl_excluded_mixture, float(b_want), rtol=0,
                        atol=1e-12)


class TestToyDiagnosticsReport:
    def _report(self, seed):
        model, grid, truth, _, rng = _toy_instance(seed, n_out=3, n_obs=2)
        src = rng.dirichlet(np.full(grid.n_psi, 3.0))
        proxy_table, _ = _endorse_proxy(rng, grid.n_psi)
        g = rng.uniform(0, 1, size=(grid.n_psi, 3))
        return toy_diagnostics_report(model, truth, grid, src, proxy_table,
                                      _outcome_weights(g, truth.n))

    def test_report_is_internally_consistent(self):
        report = self._report(RNG_SEED + 9)
        assert abs(report.decomposition_residual) < 1e-10
        assert report.delta_classic >= 0.0
        assert report.delta_rweighted >= 0.0
        assert report.bound_classic.satisfied
        assert np.isfinite(report.ig_classic)
        assert np.isfinite(report.ig_rweighted)
        assert report.entropy_true > 0.0
        assert_allclose(report.delta_classic, report.bound_classic.delta_classic,
                        rtol=0, atol=0)

    def test_tiny_negative_divergences_clamp_to_zero(self):
        check = self._report(RNG_SEED + 9).bound_classic
        report = DiagnosticsReport(
            ig_classic=0.0, ig_rweighted=0.0, delta_classic=-5e-10,
            delta_rweighted=0.0, rho_fidelity=0.0, ess_dis_expectation=0.0,
            entropy_true=0.0, decomposition_residual=0.0, bound_classic=check)
        assert report.delta_classic == 0.0

    def test_large_negative_divergence_rejected(self):
        check = self._report(RNG_SEED + 9).bound_classic
        with pytest.raises(ValueError, match="nonnegative"):
            DiagnosticsReport(
                ig_classic=0.0, ig_rweighted=0.0, delta_classic=-0.5,
                delta_rweighted=0.0, rho_fidelity=0.0, ess_dis_expectation=0.0,
                entropy_true=0.0, decomposition_residual=0.0,
                bound_classic=check)


class TestImpossibleOutcome:
    """Outcome 2 has probability 0 at theta*, so every dataset holding it
    has P*(d) = 0 and must add exactly 0 to each expectation."""

    TABLE = np.array([[[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]],
                      [[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]]])

    def _instance(self):
        model = discrete_toy_model(self.TABLE)
        grid = toy_grid(2, 2)
        truth = TrueProcess(0.0, [0.0, 1.0], 0.0)
        return model, grid, truth

    def test_classic_gain_matches_direct_sum(self):
        model, grid, truth = self._instance()
        src = grid.psi_prior_mass
        want = 0.0
        for d in itertools.product(range(3), repeat=2):
            pd = self.TABLE[0, 0, d[0]] * self.TABLE[0, 1, d[1]]
            if pd == 0.0:
                continue
            post = [grid.theta_prior_mass[a] * np.prod([src @ self.TABLE[a, :, o] for o in d])
                    for a in range(2)]
            want += pd * np.log(post[0] / sum(post) / grid.theta_prior_mass[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = info_gain_classic(ToyEnumeration(model, truth, grid), src)
        assert_allclose(got, want, rtol=0, atol=1e-14)
        assert_allclose(got, ref.info_gain_classic(model, truth, grid, src), rtol=0, atol=1e-14)

    def test_every_diagnostic_stays_finite_and_matches_loops(self):
        model, grid, truth = self._instance()
        rng = np.random.default_rng(RNG_SEED)
        weights = _outcome_weights(rng.uniform(0.1, 0.9, size=(2, 3)), truth.n)
        proxy_table, _ = _endorse_proxy(rng, 2)
        src = grid.psi_prior_mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = ToyEnumeration(model, truth, grid)
            check = check_prop55(record, weights)
            bound = check_theorem24(record, src)
            report = toy_diagnostics_report(model, truth, grid, src, proxy_table, weights)
            ig_r = info_gain_rweighted(record, proxy_table, weight_table=weights)
        for field, value in ref.check_prop55(model, truth, grid, weights).items():
            assert_allclose(getattr(check, field), value, rtol=0, atol=1e-13)
        assert abs(check.residual) < 1e-9
        assert np.isfinite(bound.info_gain) and np.isfinite(bound.kl_excluded_mixture)
        assert bound.satisfied
        assert_allclose(ig_r, ref.info_gain_rweighted(
            model, truth, grid, proxy_table, weight_table=weights),
            rtol=0, atol=1e-13)
        assert all(np.isfinite(getattr(report, f)) for f in (
            "ig_classic", "ig_rweighted", "delta_classic", "delta_rweighted",
            "rho_fidelity", "ess_dis_expectation", "entropy_true",
            "decomposition_residual"))


def test_enumeration_matches_per_dataset_loops_on_toy_verify_instances():
    """Every field of the gather-and-reduce diagnostics against the loops it
    replaced, on the 100 criterion-1 instances of toy_verify_instance."""
    for i in range(100):
        model, truth, grid, weights, proxy_table = \
            toy_verify_instance(np.random.default_rng(1000 + i))
        src = grid.psi_prior_mass
        record = ToyEnumeration(model, truth, grid)
        check = check_prop55(record, weights)
        for field, value in ref.check_prop55(model, truth, grid, weights).items():
            assert_allclose(getattr(check, field), value, rtol=0, atol=1e-13,
                            err_msg=f"instance {i}, {field}")
        for mode in ("subjective", "true"):
            got = info_gain_rweighted(record, proxy_table,
                                      weight_table=weights, proxy_expectation=mode)
            want = ref.info_gain_rweighted(model, truth, grid, proxy_table,
                                           weight_table=weights, proxy_expectation=mode)
            assert_allclose(got, want, rtol=0, atol=1e-13,
                            err_msg=f"instance {i}, {mode}")
        w_first = weights[:, :, 0]
        got = delta_rweighted(record, w_first)
        want = ref.delta_rweighted(model, truth, grid, w_first)
        assert_allclose([got.normalized, got.unnormalized], want, rtol=0, atol=1e-13,
                        err_msg=f"instance {i}")
        assert_allclose(info_gain_classic(record, src),
                        ref.info_gain_classic(model, truth, grid, src), rtol=0, atol=1e-13,
                        err_msg=f"instance {i}")
