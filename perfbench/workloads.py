"""The benchmark's four workloads.

Each workload turns a seed into an endless sequence of batches of units
(the first batch is the warm-up), runs one unit through the library the way
the CLI does, writes the CLI's outputs for a list of results, and checks
each result.  linear, gp and smoking units are drawn from a pool whose
reference outputs are stored beside this file (`ref_<workload>.json`,
regenerated by make_references.py); toy-verify is checked by the
`relbayes verify` rule, so any instance can be drawn.

Library functions are looked up on their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from relbayes import inference, synthetic
from relbayes.harness import config as hconfig, csvio, runner, smoking, svgplot

HERE = Path(__file__).resolve().parent

# linear / gp: ig values may move only at rounding level (summation order)
IG_RTOL = 1e-8
IG_ATOL = 1e-9
# toy-verify: the `relbayes verify` rule
RESIDUAL_TOL = 1e-9
# smoking: a changed chain may move log_ratio by Monte-Carlo error only
SMOKING_SE_FACTOR = 5.0

SIMULATION_SPECS = {
    # criterion-5/6 setting: ratings discriminate, every grid layer works
    "linear": {"grid_resolution": 101, "multicollinearity": 2.0,
               "contamination_pct": 25.0},
    # paper-scale grid, desk defaults otherwise (8 sources, 8 prompts, T = 3)
    "gp": {"grid_resolution": 101},
}
SMOKING_SPEC = {"proxy_mode": "weak", "chain_length": 6000, "intercept_seed": 20240}
# toy_verify_instance draws n_theta, n_psi in {2, 3} and n_out, n_obs in {2, 3, 4}
TOY_SHAPES = frozenset(itertools.product((2, 3), (2, 3), (2, 3, 4), (2, 3, 4)))
TOY_SCAN_LIMIT = 100_000
# the warm-up instance has this shape whatever the seed, so set-up does the
# same work every run
TOY_WARM_SHAPE = (3, 3, 3, 3)
# units per timed batch; unit_s is a median over batches, and four ~0.25 s
# linear units make a batch of about a second
BATCH_UNITS = {"linear": 4, "gp": 1}


def _load_reference(name: str, spec: dict) -> list[dict]:
    ref = json.loads((HERE / f"ref_{name}.json").read_text())
    if ref["spec"] != spec:
        raise RuntimeError(f"ref_{name}.json was made for {ref['spec']}, the workload "
                           f"is {spec}; rerun perfbench/make_references.py")
    return ref["units"]


def _pool_batches(pool: list[dict], seed: int, size: int = 1):
    """The warm-up unit, then batches of `size` units, in a seeded order."""
    order = np.random.default_rng(seed).permutation(len(pool))
    units = (pool[order[i % len(pool)]] for i in itertools.count())
    yield [next(units)]
    while True:
        yield [next(units) for _ in range(size)]


def _close(value: float, ref: float) -> bool:
    return value == ref or math.isclose(value, ref, rel_tol=IG_RTOL, abs_tol=IG_ATOL)


class SimulationWorkload:
    """linear and gp: a unit is one `run_experiment` simulation."""

    def __init__(self, name: str, seed: int, pool=None):
        self.name = name
        self.seed = seed
        self.spec = SIMULATION_SPECS[name]
        self.config = hconfig.ExperimentConfig(experiment=name, n_simulations=1, **self.spec)
        self.pool = _load_reference(name, self.spec) if pool is None else pool

    def batches(self):
        return _pool_batches(self.pool, self.seed, BATCH_UNITS[self.name])

    def run(self, unit: dict):
        cfg = replace(self.config, master_seed=unit["master_seed"])
        return runner.run_experiment(cfg)[0]

    def record(self, unit: dict, result) -> dict:
        return {**unit, "ig_classic": result.ig_classic, "ig_rweighted": result.ig_rweighted}

    def check(self, unit: dict, result) -> str | None:
        if result.error is not None:
            return result.error
        for key in ("ig_classic", "ig_rweighted"):
            value = getattr(result, key)
            if not _close(value, unit[key]):
                return f"{key} = {value!r}, reference {unit[key]!r}"
        return None

    def write(self, results: list, out: Path) -> None:
        cfg = replace(self.config, output_dir=str(out), n_simulations=max(len(results), 1))
        runner.write_run_outputs(cfg, results)

    def check_outputs(self, out: Path, count: int) -> str | None:
        rows = csvio.read_csv(out / "results.csv")
        return None if len(rows) == count else f"results.csv has {len(rows)} rows, want {count}"


class ToyVerifyWorkload(SimulationWorkload):
    """toy-verify: a unit is one exact-diagnostics instance.

    Instance cost spans 30x with its shape, so the warm-up is an instance of
    TOY_WARM_SHAPE and every later batch holds one instance of each of the
    36 shapes, found by scanning the seed's master seeds.  Every batch then
    does the same mix of work.
    """

    def __init__(self, name: str, seed: int, pool=None):
        self.name = name
        self.seed = seed
        self.config = hconfig.ExperimentConfig(experiment="toy-verify", n_simulations=1)

    def _unit(self, master_seed: int) -> tuple[tuple, dict]:
        model, truth, grid, *_ = runner.toy_verify_instance(synthetic.task_rng(master_seed, 0))
        n_out = int(model.outcome_space.size)
        shape = (grid.n_theta, grid.n_psi, n_out, truth.n)
        return shape, {"master_seed": master_seed, "datasets": n_out ** truth.n}

    def batches(self):
        seeds = itertools.count(self.seed * 10 ** 6)
        for _ in range(TOY_SCAN_LIMIT):
            shape, unit = self._unit(next(seeds))
            if shape == TOY_WARM_SHAPE:
                break
        else:
            raise RuntimeError(f"toy shape {TOY_WARM_SHAPE} not found")
        yield [unit]
        while True:
            batch = {}
            for _ in range(TOY_SCAN_LIMIT):
                shape, unit = self._unit(next(seeds))
                batch.setdefault(shape, unit)
                if len(batch) == len(TOY_SHAPES):
                    break
            if set(batch) != TOY_SHAPES:
                raise RuntimeError(f"toy shapes {sorted(set(batch) ^ TOY_SHAPES)} not "
                                   "found; toy_verify_instance's ranges changed")
            yield list(batch.values())

    def check(self, unit: dict, result) -> str | None:
        if result.error is not None:
            return result.error
        d = result.diagnostics
        ok = (abs(d.decomposition_residual) < RESIDUAL_TOL and d.bound_classic.satisfied
              and d.delta_classic >= 0.0 and d.delta_rweighted >= 0.0
              and d.entropy_true >= 0.0)
        return None if ok else (f"residual {d.decomposition_residual:.2e}, bound "
                                f"{d.bound_classic.satisfied}, deltas {d.delta_classic}, "
                                f"{d.delta_rweighted}")


class _HeldOutStudies(dict):
    """Study map whose loop visits only the chosen held-out studies.

    Lookups, items() and len() still see every study, so each partition
    trains on all the other studies exactly as in the full sweep.
    """

    def __init__(self, full: dict, held: list):
        super().__init__(full)
        self._held = held

    def __iter__(self):
        return iter(self._held)


@contextmanager
def _only_partition(study: str):
    original = smoking.arms_by_study
    smoking.arms_by_study = lambda records: _HeldOutStudies(original(records), [study])
    try:
        yield
    finally:
        smoking.arms_by_study = original


class SmokingWorkload:
    """smoking: a unit is one leave-one-study-out partition (two Metropolis chains).

    `run_smoking_comparison` sweeps every study; the unit runs it with its
    loop narrowed to one held-out study.  The intercept fit that the CLI
    shares across proxy modes is part of set-up.
    """

    def __init__(self, name: str, seed: int, pool=None):
        self.name = name
        self.seed = seed
        self.pool = _load_reference(name, SMOKING_SPEC) if pool is None else pool
        self.records = smoking.ingest_smoking_csv(smoking.packaged_smoking_path())
        self.intercepts = smoking.fit_study_intercepts(
            self.records, SMOKING_SPEC["chain_length"], SMOKING_SPEC["intercept_seed"])

    def studies(self) -> list:
        return list(smoking.arms_by_study(self.records))

    def batches(self):
        return _pool_batches(self.pool, self.seed)

    def run(self, unit: dict):
        study = unit["held_out_study"]
        with _only_partition(study):
            results = smoking.run_smoking_comparison(
                self.records, SMOKING_SPEC["proxy_mode"], unit["seed"],
                SMOKING_SPEC["chain_length"], intercepts=self.intercepts)
        if [r.held_out_study for r in results] != [study]:
            raise RuntimeError("run_smoking_comparison no longer loops over its study "
                               "map; update the partition selector in perfbench")
        return results[0]

    def record(self, unit: dict, result) -> dict:
        return {**unit, "log_ratio": result.log_ratio, "se_rweighted": result.se_rweighted,
                "se_classic": result.se_classic, "accept_rweighted": result.accept_rweighted,
                "accept_classic": result.accept_classic}

    def check(self, unit: dict, result) -> str | None:
        if not math.isfinite(result.log_ratio):
            return f"log_ratio = {result.log_ratio}"
        tol = SMOKING_SE_FACTOR * math.hypot(result.se_rweighted, result.se_classic)
        if abs(result.log_ratio - unit["log_ratio"]) > tol:
            return (f"log_ratio = {result.log_ratio:.4f}, reference "
                    f"{unit['log_ratio']:.4f} +- {tol:.4f}")
        lo, hi = inference.ACCEPT_BAND
        for key in ("accept_rweighted", "accept_classic"):
            if not lo <= getattr(result, key) <= hi:
                return f"{key} = {getattr(result, key):.3f} outside {inference.ACCEPT_BAND}"
        return None

    def write(self, results: list, out: Path) -> None:
        """The files `relbayes smoking` writes."""
        out.mkdir(parents=True, exist_ok=True)
        mode = SMOKING_SPEC["proxy_mode"]
        rows = smoking.partition_rows(results)
        csvio.emit_csv(rows, out / "partitions.csv", columns=smoking.PARTITION_COLUMNS)
        csvio.emit_csv(runner.summary_rows(rows, value_column="log_ratio",
                                           group_column="proxy_mode"),
                       out / "summary.csv",
                       columns=["proxy_mode", "count", "q1", "median", "q3",
                                "whisker_lo", "whisker_hi", "n_outliers"])
        svgplot.emit_boxplot_svg({mode: [r.log_ratio for r in results]}, out / "boxplot.svg",
                                 title="held-out predictive comparison",
                                 y_label="log predictive ratio (weighted / classic)")
        csvio.emit_metadata(out / "run_metadata.txt", [
            f"mcmc_samples = {SMOKING_SPEC['chain_length']}", f"modes = {mode}",
            smoking.BASELINE_NOTE])

    def check_outputs(self, out: Path, count: int) -> str | None:
        rows = csvio.read_csv(out / "partitions.csv")
        return None if len(rows) == count else f"partitions.csv has {len(rows)} rows, want {count}"


WORKLOADS = {
    "linear": SimulationWorkload,
    "gp": SimulationWorkload,
    "smoking": SmokingWorkload,
    "toy-verify": ToyVerifyWorkload,
}
# batches measured by the traced run (both passes): a fixed list, so counts repeat
TRACE_BATCHES = {"linear": 4, "gp": 1, "smoking": 2, "toy-verify": 3}


def make(name: str, seed: int, pool=None):
    return WORKLOADS[name](name, seed, pool)
