"""relbayes benchmark: one workload in one process.

    python3 perfbench/run.py --workload linear --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 it reports the end-to-end metrics: seconds per unit of the
timed phase (units, then the CLI's output files), set-up seconds (imports,
the median of three workload set-ups, one warm-up unit) and peak RSS.
Seconds are CPU seconds scaled to a reference machine speed by probe.py.
With --trace 1 it runs a fixed list of units twice, untraced and then with
timing wrappers around each module's public functions, and reports the
per-layer metrics.  Every unit's output is checked; the last line of
standard output is the JSON result.  See NOTES.md.
"""

import os
import sys
from time import perf_counter

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import relbayes  # noqa: E402

if Path(relbayes.__file__).resolve().parent != ROOT / "src" / "relbayes":
    sys.exit(f"relbayes imported from {relbayes.__file__}, not from {ROOT / 'src'}")

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
IMPORT_PAIRS = 7
IMPORT_REF_S = 0.5  # CPU seconds of REFERENCE_IMPORTS at the reference speed
OUT_ROOT = ROOT / ".bench_out"
LIBRARY_IMPORTS = "import numpy, scipy.special, relbayes.harness"
REFERENCE_IMPORTS = "import numpy, scipy.special"


def _interpreter_seconds(imports: str) -> float:
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); {imports}; "
            "print(time.process_time())")
    return float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, timeout=120).stdout)


def import_seconds() -> float:
    """Reference seconds a fresh interpreter takes to start and import the
    library.  IMPORT_PAIRS interpreters that import the library alternate
    with as many that import only numpy and scipy.special, which no change
    to the library can speed up or slow down; the median CPU seconds of the
    first are scaled by IMPORT_REF_S over the median of the second.  All
    start after this process has imported the library, so the file cache is
    warm for each."""
    library, reference = [], []
    for _ in range(IMPORT_PAIRS):
        reference.append(_interpreter_seconds(REFERENCE_IMPORTS))
        library.append(_interpreter_seconds(LIBRARY_IMPORTS))
    return statistics.median(library) * IMPORT_REF_S / statistics.median(reference)


def run_units(wl, batches, out: Path, probe: SpeedProbe, seconds=None, tracer=None) -> dict:
    """Run batches until `seconds` of wall time (all of them if None), then
    write the outputs.  unit_s is the median over batches of reference
    seconds per unit, plus the output writing's reference seconds per unit;
    cpu_s, ref_s and wall_s are the whole pass in CPU, reference and wall
    seconds."""
    done, per_unit, cpu_total, ref_total, wall = [], [], 0.0, 0.0, 0.0
    for batch in batches:
        mark, wall0 = probe.mark(), perf_counter()
        for unit in batch:
            try:
                done.append((unit, wl.run(unit), None))
            except Exception as exc:  # a failed unit is counted, not fatal
                done.append((unit, None, f"{type(exc).__name__}: {exc}"))
        wall += perf_counter() - wall0
        cpu, ref = probe.since(mark)
        cpu_total += cpu
        ref_total += ref
        per_unit.append(ref / len(batch))
        if seconds is not None and wall >= seconds:
            break
    ok = [r for _, r, err in done if err is None]
    mark, wall0 = probe.mark(), perf_counter()
    if tracer is None:
        wl.write(ok, out)
    else:
        with tracer.span("harness.write_outputs"):
            wl.write(ok, out)
    wall += perf_counter() - wall0
    write_cpu, write_ref = probe.since(mark)
    error = wl.check_outputs(out, len(ok))
    shutil.rmtree(out)
    return {"unit_s": statistics.median(per_unit) + write_ref / len(done),
            "cpu_s": cpu_total + write_cpu, "ref_s": ref_total + write_ref, "wall_s": wall,
            "done": done, "error": error}


def check(wl, run: dict) -> list[str]:
    errors = [run["error"]] if run["error"] else []
    for unit, result, err in run["done"]:
        err = err or wl.check(unit, result)
        if err:
            errors.append(f"{unit}: {err}")
    return errors


def environment(seed: int) -> dict:
    cache = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            cache[f"L{level}"] = (index / "size").read_text().strip()
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "not a git checkout"
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, check=True,
                                   timeout=30).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu, **cache, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "seed": seed, "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    probe = SpeedProbe()  # started only for the end-to-end run: no probe in spans
    if not args.trace:
        import_s = import_seconds()
        probe.start()

    out = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    prepare = []  # (start, end) marks of each workload set-up
    for _ in range(SETUP_REPEATS):
        mark = probe.mark()
        wl = workloads.make(args.workload, args.seed)
        prepare.append((mark, probe.mark()))
    batches = wl.batches()
    mark = probe.mark()
    warm = run_units(wl, [next(batches)], out, probe)
    warm_marks = (mark, probe.mark())
    runs = [warm]

    if args.trace:
        fixed = [next(batches) for _ in range(workloads.TRACE_BATCHES[args.workload])]
        base = run_units(wl, fixed, out, probe)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_units(wl, fixed, out, probe, tracer=tracer)
        finally:
            tracer.uninstall()
        runs += [base, traced]
        units = len(traced["done"])
        datasets = sum(unit.get("datasets", 0) for unit, _, _ in traced["done"])
        metrics = tracer.metrics(units, traced["wall_s"], datasets)
        metrics["trace.overhead_frac"] = (traced["cpu_s"] / base["cpu_s"] - 1.0, "ratio")
        print("bindings: " + json.dumps(tracer.bindings, sort_keys=True))
    else:
        timed = run_units(wl, batches, out, probe, seconds=args.seconds)
        probe.stop()
        # scaled now, so the kernels nearest a short set-up include later ones
        setup_parts = (import_s, statistics.median(probe.since(*m)[1] for m in prepare),
                       probe.since(*warm_marks)[1])
        setup_s = sum(setup_parts)
        runs.append(timed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"unit_s": (timed["unit_s"], "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        units = len(timed["done"])
        imports, prepared, warmed = setup_parts
        print(f"not gated: {timed['cpu_s'] / units:.6g} CPU s and {timed['wall_s'] / units:.6g} "
              f"wall s per unit; the machine ran at {timed['cpu_s'] / timed['ref_s']:.4f} "
              f"x the reference speed; set-up: imports {imports:.4g} s, workload "
              f"{prepared:.4g} s, warm-up {warmed:.4g} s")
    errors = [e for run in runs for e in check(wl, run)]
    attempted = sum(len(run["done"]) for run in runs)

    print("env: " + json.dumps(environment(args.seed)))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed = min(len(errors), attempted)
    print(f"failed_frac = {failed / attempted:.6g} ratio")
    for err in errors[:10]:
        print(f"FAIL {err}")
    print(f"check: {'pass' if not errors else 'FAIL'} ({failed} of {attempted} units failed)")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
