"""Measure every workload at several seeds and summarise the figures.

    python3 perfbench/baseline.py --seeds 1-10

Runs run.py untraced once per (workload, seed) for every workload in
BENCHMARK.json, one process at a time, then traced once per workload at the
first seed, and writes perfbench/baseline.json.  For each workload and
end-to-end metric it reports the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the number of runs and the
spread (q3 - q1) / median, and marks spreads wider than a third of the
metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, env, ok = {}, None, True
    for workload in (w["name"] for w in bench["workloads"]):
        values, failures = {}, 0
        for seed in args.seeds:
            result, env = run(workload, seed, bench["run_seconds"], 0)
            failures += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in values.items()}, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            wide = spread >= bounds[name] / 3
            ok &= not wide
            rows[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                          "spread": spread, "values": vals}
            print(f"  {workload:10s} {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  n {len(vals)}  spread {spread:.4f}"
                  f"  (bound {bounds[name]}){'  WIDE' if wide else ''}")
        traced, _ = run(workload, args.seeds[0], bench["run_seconds"], 1)
        failures += traced["failed"] + (not traced["correct"])
        ok &= failures == 0
        summary[workload] = {"seeds": args.seeds, "failed": failures, "end_to_end": rows,
                             "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}}
    OUT.write_text(json.dumps({"env": env, "run_seconds": bench["run_seconds"],
                               "workloads": summary}, indent=1) + "\n")
    print("all spreads below a third of their bounds, no failures" if ok
          else "SOME SPREADS TOO WIDE OR UNITS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
