"""Parallel seeded simulation sweeps, and the output files of every run.

Each simulation draws everything it needs from its own counter-based RNG
stream keyed by (master_seed, index), so results are identical whatever the
parallelism degree.  Per-simulation exceptions are caught and recorded; a
run with more than 20 percent failures raises.

The gp learner's model is memoised per process (`_gp_learner`, one entry,
keyed on the covariate grid), so its grid kernel factors are computed once
per process, or once per worker under a process pool, not once per
simulation.  The kernels depend only on the covariate grid and the
parameter nodes, never on the data, and a kept factor is exactly the one a
fresh model computes, so results do not depend on the memo: a simulation
gives the same bytes run alone or after any others.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Optional

import numpy as np

from .. import __version__
from ..diagnostics import DiagnosticsReport, TrueProcess, toy_diagnostics_report
from ..grids import ParameterGrid, _quadrature_mass, build_grid, midpoint_nodes
from ..inference import GridProblem, classic_posterior, proxy_loglik_vector
from ..models import ModelSpec, discrete_toy_model, gp_model, linear_model
from ..relevance import refine_relevance
from ..synthetic import GP_PSI_SCALE, GP_PSI_SHAPE, LINEAR_THETA_STAR, \
    gen_expert_proxy, gen_gp_trajectories, gen_linear_instance, task_rng
from .config import ConfigError, ExperimentConfig, config_echo
from .csvio import emit_csv, emit_metadata
from .svgplot import box_stats, emit_boxplot_svg

FAILURE_THRESHOLD = 0.2


class RunFailureError(RuntimeError):
    """More than the tolerated share of simulations failed."""


@dataclass(frozen=True)
class SimulationResult:
    seed: int
    ig_classic: float
    ig_rweighted: float
    diagnostics: Optional[DiagnosticsReport]
    wall_time_ms: int
    error: Optional[str] = None

    @property
    def advantage(self) -> float:
        return self.ig_rweighted - self.ig_classic


# ---------------------------------------------------------------------------
# per-experiment simulation bodies
# ---------------------------------------------------------------------------

def _normal_prior_grid(resolution: int) -> ParameterGrid:
    """Midpoint grid over [-4, 4] with standard normal quadrature mass."""
    nodes = midpoint_nodes(-4.0, 4.0, resolution)[:, None]
    mass = _quadrature_mass(nodes, lambda t: -0.5 * t[:, 0] ** 2, "normal log-density")
    return ParameterGrid(theta_nodes=nodes, psi_nodes=nodes,
                         theta_prior_mass=mass, psi_prior_mass=mass)


def _log_ratio_at(grid: ParameterGrid, theta_marginal: np.ndarray, a_star: int) -> float:
    with np.errstate(divide="ignore"):
        return float(np.log(theta_marginal[a_star]) - np.log(grid.theta_prior_mass[a_star]))


def _grid_gains(model, source, grid: ParameterGrid, proxy, theta_star: float,
                refinement_iterations: int = 3):
    """(ig_classic, ig_rweighted, None) of one simulation: the classic and
    the refined r-weighted posterior on one GridProblem, each scored by its
    log posterior-to-prior ratio at the grid node nearest theta_star.  The
    proxy is evaluated once, at the grid's psi nodes."""
    a_star, _ = grid.nearest_theta(np.array([theta_star]))
    problem = GridProblem(model, source, grid)
    classic = classic_posterior(problem, grid.psi_prior_mass)
    refined = refine_relevance(problem, proxy_loglik_vector(proxy, grid.psi_nodes),
                               refinement_iterations)
    return (_log_ratio_at(grid, classic.theta_marginal(), a_star),
            _log_ratio_at(grid, refined.posterior.theta_marginal(), a_star), None)


def _linear_sim(config: ExperimentConfig, index: int):
    rng = task_rng(config.master_seed, index)
    inst = gen_linear_instance(config.scenario, rng)
    return _grid_gains(linear_model(), inst.source, _normal_prior_grid(config.grid_resolution),
                       inst.proxy, LINEAR_THETA_STAR)


@lru_cache(maxsize=1)
def _gp_learner(x_bytes: bytes) -> ModelSpec:
    """The learner's gp model on the covariate grid with these float64
    bytes, one per process, so it keeps the grid's kernel factors across
    simulations.  gen_gp_trajectories draws from a model of its own."""
    return gp_model(np.frombuffer(x_bytes))


def _gp_sim(config: ExperimentConfig, index: int):
    rng = task_rng(config.master_seed, index)
    scenario = config.scenario
    inst = gen_gp_trajectories(scenario, rng)
    model = _gp_learner(inst.x_grid.tobytes())

    def log_theta_prior(t):
        return -np.log(t[:, 0]) - 0.5 * (np.log(t[:, 0]) - 1.0) ** 2

    def log_psi_prior(p):
        return (GP_PSI_SHAPE - 1.0) * np.log(p[:, 0]) - p[:, 0] / GP_PSI_SCALE

    grid = build_grid(model, log_theta_prior, log_psi_prior, config.grid_resolution)
    # drawn before the grid problem is built: building its tensor first
    # raised peak memory
    proxy = gen_expert_proxy(model, inst.prompts, inst.psi_target_star,
                             scenario.contamination_pct, rng,
                             theta_nodes=grid.theta_nodes,
                             theta_prior=grid.theta_prior_mass)
    return _grid_gains(model, inst.source, grid, proxy, scenario.theta_star,
                       scenario.refinement_T)


def toy_verify_instance(rng: np.random.Generator):
    """A random small discrete instance with everything the report needs:
    (model, truth, grid, weight_table, proxy_table), with the (B, n, |O|)
    relevance weight table and the (Z, B) proxy log-likelihood table."""
    n_theta = int(rng.integers(2, 4))
    n_psi = int(rng.integers(2, 4))
    n_out = int(rng.integers(2, 5))
    n_obs = int(rng.integers(2, 5))
    table = rng.dirichlet(np.ones(n_out), size=(n_theta, n_psi))
    model = discrete_toy_model(table)

    from ..grids import toy_grid
    grid = toy_grid(n_theta, n_psi,
                    theta_prior=rng.dirichlet(np.full(n_theta, 5.0)),
                    psi_prior=rng.dirichlet(np.full(n_psi, 5.0)))
    truth = TrueProcess(
        theta_star=float(rng.integers(n_theta)),
        psi_star=[float(rng.integers(n_psi)) for _ in range(n_obs)],
        psi_target_star=float(rng.integers(n_psi)),
    )
    weight_table = rng.uniform(0.0, 1.0, size=(n_psi, n_obs, n_out))
    endorse = rng.uniform(0.2, 0.8, size=n_psi)
    # the proxy's (Z, B) log-likelihood table: payload 0 rejects, 1 endorses
    proxy_table = np.log(np.stack([1.0 - endorse, endorse]))
    return model, truth, grid, weight_table, proxy_table


def _toy_verify_sim(config: ExperimentConfig, index: int):
    rng = task_rng(config.master_seed, index)
    model, truth, grid, weight_table, proxy_table = toy_verify_instance(rng)
    report = toy_diagnostics_report(model, truth, grid, grid.psi_prior_mass,
                                    proxy_table, weight_table)
    return report.ig_classic, report.ig_rweighted, report


_SIM_BODIES = {
    "linear": _linear_sim,
    "gp": _gp_sim,
    "toy-verify": _toy_verify_sim,
}


def _run_single(config: ExperimentConfig, index: int) -> SimulationResult:
    start = time.perf_counter()
    try:
        ig_c, ig_r, diagnostics = _SIM_BODIES[config.experiment](config, index)
        return SimulationResult(
            seed=index, ig_classic=ig_c, ig_rweighted=ig_r, diagnostics=diagnostics,
            wall_time_ms=int(1000 * (time.perf_counter() - start)))
    except Exception as exc:
        return SimulationResult(
            seed=index, ig_classic=float("nan"), ig_rweighted=float("nan"),
            diagnostics=None,
            wall_time_ms=int(1000 * (time.perf_counter() - start)),
            error=f"{type(exc).__name__}: {exc}")


def map_jobs(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], in order, for a sequence of items: in
    process for one job or one item, else in min(jobs, len(items)) workers."""
    if jobs == 1 or len(items) == 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def run_experiment(config: ExperimentConfig) -> list[SimulationResult]:
    """All simulations of one scenario, order-stable and seed-deterministic."""
    if config.experiment not in _SIM_BODIES:
        raise ConfigError(f"experiment {config.experiment!r} does not run through "
                          "run_experiment; use run_smoking_comparison")
    results = map_jobs(partial(_run_single, config), range(config.n_simulations),
                       config.parallelism)
    failures = [r for r in results if r.error is not None]
    if len(failures) > FAILURE_THRESHOLD * len(results):
        first = failures[0]
        raise RunFailureError(
            f"{len(failures)} of {len(results)} simulations failed "
            f"(first: seed {first.seed}: {first.error})")
    return results


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_CORE_COLUMNS = ["seed", "ig_classic", "ig_rweighted", "advantage", "label", "error"]
_DIAG_COLUMNS = ["decomposition_residual", "bound_satisfied", "delta_classic",
                 "delta_rweighted", "rho_fidelity", "ess_dis_expectation",
                 "entropy_true"]


def _diag_value(report: DiagnosticsReport, column: str):
    """The report's value for one of _DIAG_COLUMNS."""
    if column == "bound_satisfied":
        return report.bound_classic.satisfied
    return getattr(report, column)


def results_rows(results: list[SimulationResult], label: str) -> list[dict]:
    """CSV rows for a sweep.  wall_time_ms is deliberately not persisted,
    keeping output bytes identical across reruns."""
    rows = []
    with_diag = any(r.diagnostics is not None for r in results)
    for r in results:
        row = {"seed": r.seed, "ig_classic": r.ig_classic,
               "ig_rweighted": r.ig_rweighted, "advantage": r.advantage,
               "label": label, "error": r.error}
        if with_diag:
            d = r.diagnostics
            row.update({c: None if d is None else _diag_value(d, c) for c in _DIAG_COLUMNS})
        rows.append(row)
    return rows


def finite_groups(rows: list[dict], value_column: str, group_column: str) -> dict:
    """The finite numbers in value_column, as floats, grouped by group_column
    in order of first appearance; a failed row's NaN value drops out."""
    groups: dict = {}
    for row in rows:
        v = row.get(value_column)
        if isinstance(v, (int, float)) and np.isfinite(v):
            groups.setdefault(row[group_column], []).append(float(v))
    return groups


def summary_rows(rows: list[dict], value_column: str = "advantage",
                 group_column: str = "label") -> list[dict]:
    out = []
    for label, vals in finite_groups(rows, value_column, group_column).items():
        s = box_stats(vals)
        out.append({group_column: label, "count": s.count, "q1": s.q1,
                    "median": s.median, "q3": s.q3, "whisker_lo": s.whisker_lo,
                    "whisker_hi": s.whisker_hi, "n_outliers": len(s.outliers)})
    return out


def write_outputs(out, table: str, rows: list[dict], columns: list[str],
                  value_column: str, group_column: str, plot_title: str, y_label: str,
                  notes: list[str]) -> list[dict]:
    """Write a run's table, summary.csv, boxplot.svg and run_metadata.txt; return the summary."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(rows, out / table, columns=columns)
    summary = summary_rows(rows, value_column, group_column)
    emit_csv(summary, out / "summary.csv")
    # summary.csv is refused when it is empty, so the plot has a group
    emit_boxplot_svg(finite_groups(rows, value_column, group_column), out / "boxplot.svg",
                     title=plot_title, y_label=y_label)
    emit_metadata(out / "run_metadata.txt", notes)
    return summary


def write_run_outputs(config: ExperimentConfig, results: list[SimulationResult]) -> list[dict]:
    """A sweep's results.csv, summary.csv, boxplot.svg and run_metadata.txt,
    written into config.output_dir; returns the summary rows."""
    columns = _CORE_COLUMNS + (_DIAG_COLUMNS if config.experiment == "toy-verify" else [])
    notes = [
        f"relbayes {__version__}",
        f"numpy {np.__version__}",
        "",
        "configuration:",
        *(f"  {line}" for line in config_echo(config)),
        "",
        "seed derivation: simulation i draws from a Philox stream keyed "
        "(master_seed, i); results are independent of parallelism.",
        "wall_time_ms is not persisted so outputs are byte-stable.",
        f"failed simulations: {sum(1 for r in results if r.error is not None)} "
        f"of {len(results)}",
    ]
    return write_outputs(config.output_dir, "results.csv",
                         results_rows(results, config.group_label()), columns,
                         "advantage", "label", f"{config.experiment} sweep",
                         "IG advantage (weighted - classic)", notes)
