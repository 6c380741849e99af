"""The traced benchmark run's bindings to the library.

perfbench/tracer.py wraps library functions by module and name, so a
rename in the library would otherwise surface only when
`perfbench/run.py --trace 1` fails.  The tracer is imported unchanged
through sys.path, installed in this process around one toy diagnostics
report, and uninstalled.  A second test traces one short smoking partition
the way the benchmark narrows a unit, through perfbench/workloads.py, and
checks what the tracer reads of the sampler: n_samples, a keyword-only
argument, and the cells of every model evaluation.  A third traces the
all-data intercept fit the smoking workload runs as set-up.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

# the tracer finds its target modules in sys.modules
import relbayes.diagnostics
import relbayes.harness.runner
import relbayes.harness.smoking  # noqa: F401
import relbayes.inference  # noqa: F401
import relbayes.relevance  # noqa: F401
import relbayes.synthetic  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_binds_every_target_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer_module = importlib.import_module("tracer")
    originals = {(mod, name): getattr(sys.modules[mod], name)
                 for mod, names in tracer_module.TARGETS.values() for name in names}
    cholesky = np.linalg.cholesky

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        model, truth, grid, weight_table, proxy_table = \
            relbayes.harness.runner.toy_verify_instance(np.random.default_rng(1000))
        relbayes.diagnostics.toy_diagnostics_report(model, truth, grid, grid.psi_prior_mass,
                                                    proxy_table, weight_table)
    finally:
        tracer.uninstall()
        monkeypatch.delitem(sys.modules, "tracer", raising=False)

    assert set(tracer.bindings) == set(tracer_module.TARGETS) | {"models.cholesky"}
    # the refinement rounds the grid learners run call the traced engine
    assert "relbayes.relevance.r_weighted_posterior" in \
        tracer.bindings["inference.r_weighted_posterior"]
    for (mod, name), original in originals.items():
        assert getattr(sys.modules[mod], name) is original, f"{mod}.{name} still wrapped"
    assert np.linalg.cholesky is cholesky
    stats = tracer.stats
    assert stats["diagnostics.report"].calls == 1
    # one report enumerates the classic gain once, inside the bound check
    assert stats["diagnostics.info_gain_classic"].calls == 1
    for name in ("check_prop55", "check_theorem24", "info_gain_rweighted",
                 "delta_rweighted", "delta_classic"):
        assert stats[f"diagnostics.{name}"].calls == 1, name
    # one enumeration record per report: the full-grid table, the theta* row
    # and the theta*, psi*_i table, one model evaluation each
    assert stats["models.loglik_tensor"].calls == 3
    # the report reads the proxy as the (Z, B) table it is passed
    assert stats["inference.proxy_loglik_vector"].calls == 0


@pytest.mark.filterwarnings("ignore:acceptance rate")
def test_traced_smoking_partition_counts_one_evaluation_per_step(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer_module = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    smoking = relbayes.harness.smoking
    records = smoking.ingest_smoking_csv(smoking.packaged_smoking_path())
    intercepts = {study: 0.0 for study in smoking.arms_by_study(records)}

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with workloads._only_partition("01"):
            results = smoking.run_smoking_comparison(records, "weak", 3, 1000,
                                                     intercepts=intercepts)
    finally:
        tracer.uninstall()
        for name in ("tracer", "workloads"):
            monkeypatch.delitem(sys.modules, name, raising=False)

    assert [r.held_out_study for r in results] == ["01"]
    metrics = {name: value for name, (value, _) in tracer.metrics(1, 1.0, 0).items()}
    assert tracer.counts["mcmc_chains"] == 2
    assert metrics["inference.metropolis_posterior.iters_per_unit"] == 2000
    # each chain evaluates its initial state, then one proposal per iteration:
    # the weighted chain at the state's theta only for 47 arms, 47 cells
    # (with 47 >= N_UNIT arms every sigmoid-ratio weight is 1.0, so the null
    # column is not evaluated), and the fixed-effects chain one cell per arm
    # at its own study's intercept, 47;
    # then each predictive scores study 01's 3 arms at the 750 kept draws,
    # the classic one at 40 quadrature intercepts per draw
    assert metrics["models.loglik_tensor.calls_per_unit"] == 2 * 1001 + 2
    assert metrics["models.loglik_tensor.cells_per_unit"] == \
        1001 * (47 + 47) + 3 * 750 * (1 + 40)
    # the weighted chain forms the sigmoid-ratio weights without the public call
    assert metrics["relevance.sigmoid_ratio_relevance.calls_per_unit"] == 0
    # and reads its proxy through its prior density, not the proxy entry point
    assert metrics["inference.proxy_loglik_vector.calls_per_unit"] == 0


@pytest.mark.filterwarnings("ignore:acceptance rate")
def test_traced_intercept_fit_counts_one_chain(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer_module = importlib.import_module("tracer")
    smoking = relbayes.harness.smoking
    records = smoking.ingest_smoking_csv(smoking.packaged_smoking_path())

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        smoking.fit_study_intercepts(records, 1000, 5)
    finally:
        tracer.uninstall()
        monkeypatch.delitem(sys.modules, "tracer", raising=False)

    assert tracer.counts["mcmc_chains"] == 1
    assert tracer.counts["mcmc_iters"] == 1000
