"""The traced benchmark run's bindings to the library.

perfbench/tracer.py wraps library functions by module and name, so a
rename in the library would otherwise surface only when
`perfbench/run.py --trace 1` fails.  The tracer is imported unchanged
through sys.path, installed in this process around one toy diagnostics
report, and uninstalled.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

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
        model, truth, grid, _, provider, proxy_model = \
            relbayes.harness.runner.toy_verify_instance(np.random.default_rng(1000))
        relbayes.diagnostics.toy_diagnostics_report(model, truth, grid, grid.psi_prior_mass,
                                                    proxy_model, provider)
    finally:
        tracer.uninstall()
        monkeypatch.delitem(sys.modules, "tracer", raising=False)

    assert set(tracer.bindings) == set(tracer_module.TARGETS) | {"models.cholesky"}
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
