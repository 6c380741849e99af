"""Self-check of the traced run.

    python3 perfbench/selfcheck.py --seed 1

For every workload it runs run.py --trace 1 twice at one seed and checks:
the counts repeat exactly; the wrappers reached every module binding of
`loglik_tensor` and `r_weighted_posterior`; the known call structure of
the library reads back; layers the workload bypasses read 0; and the layer
self times add up to the traced unit time within the trace overhead (at
least 1%).
The known-structure figures describe the library as it was when the
benchmark was defined; a change that restructures those calls updates them
here.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SMOKING_SPEC, WORKLOADS  # noqa: E402

EXACT_UNITS = ("count", "B", "flop")
EXPECTED_BINDINGS = {
    "models.loglik_tensor": ["models", "inference", "relevance", "diagnostics"],
    "inference.r_weighted_posterior": ["inference", "relevance", "diagnostics",
                                       "harness.runner"],
}
STRUCTURE = {
    "linear": {"models.loglik_tensor.calls_per_unit": 6.0},
    "gp": {"inference.proxy_loglik_vector.calls_per_unit": 4.0},
    "smoking": {"inference.metropolis_posterior.iters_per_unit":
                2.0 * SMOKING_SPEC["chain_length"]},
    "toy-verify": {},
}
BYPASSED = {
    "linear": ["models.cholesky", "inference.metropolis_posterior",
               "relevance.sigmoid_ratio_relevance", "diagnostics", "harness.smoking"],
    "gp": ["inference.metropolis_posterior", "relevance.sigmoid_ratio_relevance",
           "diagnostics", "harness.smoking"],
    "smoking": ["models.cholesky", "synthetic.prompt_agreement",
                "inference.proxy_loglik_vector", "inference.r_weighted_posterior",
                "inference.classic_posterior", "relevance.refine_relevance",
                "diagnostics", "harness.runner"],
    "toy-verify": ["models.cholesky", "synthetic", "inference.classic_posterior",
                   "inference.metropolis_posterior", "relevance", "harness.smoking"],
}


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "10", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    bindings = next(json.loads(line[10:]) for line in lines if line.startswith("bindings: "))
    return json.loads(lines[-1]), bindings


def check(workload: str, seed: int) -> list[str]:
    (first, bindings), (second, _) = traced(workload, seed), traced(workload, seed)
    problems = []
    if not (first["correct"] and second["correct"]):
        problems.append("output check failed")
    m1, m2 = first["metrics"], second["metrics"]
    for name, metric in m1.items():
        exact = metric["unit"] in EXACT_UNITS or name.endswith(".acceptance")
        if exact and metric["value"] != m2[name]["value"]:
            problems.append(f"{name} {metric['value']} then {m2[name]['value']}")
    for name, modules in EXPECTED_BINDINGS.items():
        attr = name.split(".")[-1]
        missing = [m for m in modules if f"relbayes.{m}.{attr}" not in bindings[name]]
        if missing:
            problems.append(f"{name} not wrapped in {missing}")
    for name, want in STRUCTURE[workload].items():
        if m1[name]["value"] != want:
            problems.append(f"{name} = {m1[name]['value']}, expected {want}")
    for prefix in BYPASSED[workload]:
        nonzero = [n for n, m in m1.items() if n.startswith(prefix) and m["value"] != 0]
        if nonzero:
            problems.append(f"bypassed but nonzero: {nonzero}")
    # the measured overhead is raw CPU seconds and can read below its true
    # value, even below 0, on a noisy machine; 1% is the floor
    gap = abs(1.0 - m1["trace.accounted_frac"]["value"])
    allowed = max(abs(m1["trace.overhead_frac"]["value"]), 0.01)
    if gap > allowed:
        problems.append(f"self times miss {gap:.4f} of the traced time, more than {allowed:.4f}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failed = False
    for workload in WORKLOADS:
        problems = check(workload, args.seed)
        failed |= bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
