"""Per-module timing wrappers for the traced benchmark run.

The wrappers sit outside the library: each traced function is replaced, in
every `relbayes` module namespace that bound it (by definition or by
`from ... import`), with a wrapper that records a span.  A span's self time
is its duration minus the time covered by the spans it directly encloses,
so the self times of all spans add up to the traced wall time.
numpy.linalg.cholesky is wrapped in the numpy.linalg namespace, which is
where the models look it up at call time.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("models", "synthetic", "inference", "relevance", "diagnostics", "harness")

# span name -> (module, function names); a span name may cover several functions
TARGETS = {
    "models.loglik_tensor": ("relbayes.models", ["loglik_tensor"]),
    "synthetic.prompt_agreement": ("relbayes.synthetic", ["prompt_agreement"]),
    "synthetic.generate": ("relbayes.synthetic", [
        "gen_linear_instance", "gen_gp_trajectories", "gen_expert_proxy",
        "gen_imprecise_estimate_proxy"]),
    "inference.proxy_loglik_vector": ("relbayes.inference", ["proxy_loglik_vector"]),
    "inference.classic_posterior": ("relbayes.inference", ["classic_posterior"]),
    "inference.r_weighted_posterior": ("relbayes.inference", ["r_weighted_posterior"]),
    "inference.metropolis_posterior": ("relbayes.inference", ["metropolis_posterior"]),
    "relevance.refine_relevance": ("relbayes.relevance", ["refine_relevance"]),
    "relevance.sigmoid_ratio_relevance": ("relbayes.relevance", ["sigmoid_ratio_relevance"]),
    "diagnostics.report": ("relbayes.diagnostics", ["toy_diagnostics_report"]),
    "diagnostics.info_gain_classic": ("relbayes.diagnostics", ["info_gain_classic"]),
    "diagnostics.info_gain_rweighted": ("relbayes.diagnostics", ["info_gain_rweighted"]),
    "diagnostics.delta_classic": ("relbayes.diagnostics", ["delta_classic"]),
    "diagnostics.delta_rweighted": ("relbayes.diagnostics", ["delta_rweighted"]),
    "diagnostics.check_prop55": ("relbayes.diagnostics", ["check_prop55"]),
    "diagnostics.check_theorem24": ("relbayes.diagnostics", ["check_theorem24"]),
    "harness.runner": ("relbayes.harness.runner", ["run_experiment"]),
    "harness.smoking": ("relbayes.harness.smoking", ["run_smoking_comparison"]),
}
POSTERIOR_SPANS = ("inference.classic_posterior", "inference.r_weighted_posterior")


class _Stat:
    __slots__ = ("calls", "incl", "self", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.depth = 0


class Tracer:
    """Install wrappers with `install()`, run the traced work, then `uninstall()`."""

    def __init__(self):
        self.stats = {name: _Stat() for name in [*TARGETS, "models.cholesky",
                                                 "harness.write_outputs"]}
        self.counts = {"cells": 0, "chol_matrices": 0, "chol_flops": 0.0,
                       "mcmc_iters": 0, "mcmc_accept_sum": 0.0, "mcmc_chains": 0,
                       "diag_posteriors": 0}
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, stat: _Stat) -> float:
        stat.depth += 1
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, stat: _Stat, start: float) -> None:
        dt = perf_counter() - start
        child = self._stack.pop()
        stat.depth -= 1
        stat.calls += 1
        stat.self += dt - child
        if stat.depth == 0:
            stat.incl += dt
        if self._stack:
            self._stack[-1] += dt

    @contextmanager
    def span(self, name: str):
        stat = self.stats[name]
        start = self._enter(stat)
        try:
            yield
        finally:
            self._exit(stat, start)

    def _observe(self, name, args, kwargs, result) -> None:
        c = self.counts
        if name == "models.loglik_tensor":
            c["cells"] += int(np.size(result))
        elif name == "inference.metropolis_posterior":
            c["mcmc_iters"] += int(kwargs["n_samples"] if "n_samples" in kwargs else args[5])
            c["mcmc_accept_sum"] += float(result.acceptance_rate)
            c["mcmc_chains"] += 1
        if name in POSTERIOR_SPANS and self._diag_active():
            c["diag_posteriors"] += 1

    def _diag_active(self) -> bool:
        return any(s.depth for n, s in self.stats.items() if n.startswith("diagnostics."))

    def _wrap(self, name: str, fn):
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(stat, start)
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_cholesky(self, fn):
        stat = self.stats["models.cholesky"]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            batch = int(np.prod(shape[:-2], dtype=np.int64))
            counts["chol_matrices"] += batch
            counts["chol_flops"] += batch * shape[-1] ** 3 / 3.0
            start = self._enter(stat)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._exit(stat, start)

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch_everywhere(self, original, wrapper, name: str) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "relbayes" or mod_name.startswith("relbayes.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
                    self.bindings.setdefault(name, []).append(f"{mod_name}.{attr}")

    def install(self) -> None:
        originals = []
        for name, (mod_name, fn_names) in TARGETS.items():
            mod = sys.modules[mod_name]
            for fn_name in fn_names:
                original = getattr(mod, fn_name)
                originals.append(original)
                self._patch_everywhere(original, self._wrap(name, original), name)
        linalg = sys.modules["numpy.linalg"]
        original = linalg.cholesky
        linalg.cholesky = self._wrap_cholesky(original)
        self._patched.append((linalg, "cholesky", original))
        self.bindings["models.cholesky"] = ["numpy.linalg.cholesky"]
        # self-check: no relbayes namespace may still reach an unwrapped target
        for mod_name, mod in sys.modules.items():
            if mod is not None and mod_name.startswith("relbayes"):
                for attr, value in vars(mod).items():
                    if any(value is o for o in originals):
                        raise RuntimeError(f"{mod_name}.{attr} escaped the trace wrappers")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, units: int, traced_s: float, datasets: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}; 0 where a layer was bypassed."""
        s, c = self.stats, self.counts
        per = 1.0 / units
        out = {
            "models.loglik_tensor.calls_per_unit": (s["models.loglik_tensor"].calls * per, "count"),
            "models.loglik_tensor.self_s_per_unit": (s["models.loglik_tensor"].self * per, "s"),
            "models.loglik_tensor.cells_per_unit": (c["cells"] * per, "count"),
            "models.loglik_tensor.computed_bytes_per_unit": (8 * c["cells"] * per, "B"),
            "models.cholesky.calls_per_unit": (s["models.cholesky"].calls * per, "count"),
            "models.cholesky.matrices_per_unit": (c["chol_matrices"] * per, "count"),
            "models.cholesky.computed_flops_per_unit": (c["chol_flops"] * per, "flop"),
            "models.cholesky.self_s_per_unit": (s["models.cholesky"].self * per, "s"),
            "synthetic.prompt_agreement.calls_per_unit":
                (s["synthetic.prompt_agreement"].calls * per, "count"),
            "synthetic.prompt_agreement.self_s_per_unit":
                (s["synthetic.prompt_agreement"].self * per, "s"),
            "synthetic.generate.s_per_unit": (s["synthetic.generate"].incl * per, "s"),
            "inference.proxy_loglik_vector.calls_per_unit":
                (s["inference.proxy_loglik_vector"].calls * per, "count"),
            "inference.proxy_loglik_vector.self_s_per_unit":
                (s["inference.proxy_loglik_vector"].self * per, "s"),
            "inference.classic_posterior.self_s_per_unit":
                (s["inference.classic_posterior"].self * per, "s"),
            "inference.r_weighted_posterior.calls_per_unit":
                (s["inference.r_weighted_posterior"].calls * per, "count"),
            "inference.r_weighted_posterior.self_s_per_unit":
                (s["inference.r_weighted_posterior"].self * per, "s"),
            "inference.metropolis_posterior.us_per_iter":
                (1e6 * s["inference.metropolis_posterior"].incl / c["mcmc_iters"]
                 if c["mcmc_iters"] else 0.0, "us"),
            "inference.metropolis_posterior.iters_per_unit": (c["mcmc_iters"] * per, "count"),
            "inference.metropolis_posterior.acceptance":
                (c["mcmc_accept_sum"] / c["mcmc_chains"] if c["mcmc_chains"] else 0.0, "ratio"),
            "relevance.refine_relevance.self_s_per_unit":
                (s["relevance.refine_relevance"].self * per, "s"),
            "relevance.sigmoid_ratio_relevance.calls_per_unit":
                (s["relevance.sigmoid_ratio_relevance"].calls * per, "count"),
            "relevance.sigmoid_ratio_relevance.self_s_per_unit":
                (s["relevance.sigmoid_ratio_relevance"].self * per, "s"),
            "diagnostics.posteriors_per_unit": (c["diag_posteriors"] * per, "count"),
            "diagnostics.s_per_dataset":
                (s["diagnostics.report"].incl / datasets if datasets else 0.0, "s"),
            "diagnostics.info_gain_rweighted.self_s_per_unit":
                (s["diagnostics.info_gain_rweighted"].self * per, "s"),
            "diagnostics.check_prop55.self_s_per_unit":
                (s["diagnostics.check_prop55"].self * per, "s"),
            "diagnostics.check_theorem24.s_per_unit":
                (s["diagnostics.check_theorem24"].incl * per, "s"),
            "harness.runner.self_s_per_unit": (s["harness.runner"].self * per, "s"),
            "harness.smoking.self_s_per_unit": (s["harness.smoking"].self * per, "s"),
            "harness.write_outputs.s_per_unit": (s["harness.write_outputs"].incl * per, "s"),
        }
        total_self = 0.0
        for layer in LAYERS:
            layer_self = sum(st.self for n, st in s.items() if n.startswith(layer + "."))
            out[f"{layer}.self_s_per_unit"] = (layer_self * per, "s")
            total_self += layer_self
        out["trace.unit_s"] = (traced_s * per, "s")
        out["trace.accounted_frac"] = (total_self / traced_s, "ratio")
        return out
