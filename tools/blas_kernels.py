"""Run the Tier-1 suite once per OpenBLAS kernel and print each kernel's failing tests.

numpy's bundled OpenBLAS is a DYNAMIC_ARCH build: OPENBLAS_CORETYPE, read
when the library loads, picks its kernel.  Each kernel's suite runs in a
child process whose environment alone sets the variable, so this process
and the other runs keep their own kernel.  Before each run a child reports
the kernel OpenBLAS actually loaded, which can differ from the request (a
name it does not know loads the CPU's own kernel), and that name is
printed beside the request.

    python tools/blas_kernels.py

Runs are sequential, one suite at a time.  To check a subset of kernels,
edit KERNELS, or run pytest with OPENBLAS_CORETYPE set.  The exit status is
0 when every kernel fails the same tests, 1 otherwise.
"""

import os
import subprocess
import sys
from pathlib import Path

KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["--continue-on-collection-errors"]

# the name of the kernel numpy's OpenBLAS loaded, or "unknown"
CORENAME = """
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
name = "unknown"
for path in glob.glob(os.path.join(libs, "*openblas*")):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        name = get().decode()
print(name)
"""


def _env(kernel: str) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_kernel(kernel: str) -> tuple:
    """(loaded kernel, pytest's summary line, sorted failing test ids)."""
    env = _env(kernel)
    loaded = subprocess.run([sys.executable, "-c", CORENAME], env=env, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                           "no:cacheprovider", *TIER1],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = sorted(line.split()[1] for line in lines
                    if line.startswith(("FAILED ", "ERROR ")))
    return loaded, (lines[-1] if lines else proc.stderr.strip()), failed


def main() -> int:
    failures = {}
    for kernel in KERNELS:
        loaded, summary, failed = run_kernel(kernel)
        failures[kernel] = failed
        print(f"{kernel} (loaded {loaded}): {summary}")
        for test in failed:
            print(f"    {test}")
        sys.stdout.flush()
    return 0 if len({tuple(f) for f in failures.values()}) <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
