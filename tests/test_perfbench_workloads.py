"""The benchmark's workloads against the library, run as the benchmark runs them.

perfbench/run.py reports `outputs_incorrect` when a unit's result leaves
its stored reference or its output files do not read back, and it reports
that only after the harness has changed.  Here each workload of
perfbench/workloads.py is built, and one linear, one gp and one
toy-verify unit is run, checked, written and read back in this process,
so such a change fails the test suite first.  perfbench/ is imported
through sys.path and left as it is; outputs go to a temporary directory.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    yield importlib.import_module("workloads")
    monkeypatch.delitem(sys.modules, "workloads", raising=False)


@pytest.mark.filterwarnings("ignore:acceptance rate")
def test_every_workload_builds(workloads):
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 1)
        assert next(workload.batches()), name


@pytest.mark.parametrize("name", ["linear", "gp", "toy-verify"])
def test_one_unit_matches_its_reference_and_writes_outputs(workloads, tmp_path, name):
    workload = workloads.make(name, 1)
    (unit,) = next(workload.batches())
    result = workload.run(unit)
    assert workload.check(unit, result) is None
    workload.write([result], tmp_path / name)
    assert workload.check_outputs(tmp_path / name, 1) is None
