"""Regenerate the stored reference outputs of a pooled workload.

    python3 perfbench/make_references.py --workload linear --count 400

Writes perfbench/ref_<workload>.json: the workload's spec and, per pool
unit, its inputs and the library's outputs at this commit.  The benchmark
checks every unit it runs against these values, so rerun this only when a
workload's definition changes, never to make a failing check pass.
"""

import argparse
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def pool_units(name: str, wl, count: int) -> list[dict]:
    if name == "smoking":
        studies = wl.studies()
        return [{"seed": p, "held_out_study": studies[p % len(studies)]}
                for p in range(count)]
    return [{"master_seed": p} for p in range(count)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["linear", "gp", "smoking"])
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    wl = workloads.make(args.workload, 0, pool=[])
    spec = workloads.SMOKING_SPEC if args.workload == "smoking" else wl.spec
    units = []
    for unit in pool_units(args.workload, wl, args.count):
        result = wl.run(unit)
        if getattr(result, "error", None):
            raise RuntimeError(f"{unit} failed: {result.error}")
        units.append(wl.record(unit, result))
        print(units[-1], flush=True)
    path = workloads.HERE / f"ref_{args.workload}.json"
    lines = ",\n".join(json.dumps(unit) for unit in units)
    path.write_text(f'{{"spec": {json.dumps(spec)}, "units": [\n{lines}\n]}}\n')
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
