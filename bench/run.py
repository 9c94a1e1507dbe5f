"""Benchmark launcher: runs one workload in its own single-threaded process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fit-m5 --seed 1 --seconds 25 --trace 0

Workloads are ``fit-m5``, ``fit-m20`` and ``score-long`` (see
``BENCHMARK.json`` and ``bench/baseline.json``). ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones. The last line of standard
output is the JSON result. The package is imported from ``src/`` of the
same checkout; without it the launcher exits with code 2.
"""

import os
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 175


def main() -> int:
    bench = Path(__file__).resolve().parent
    root = bench.parent
    if not (root / "src" / "tppkit" / "__init__.py").is_file():
        print(f"error: no tppkit package under {root / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(bench / "worker.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, cwd=root, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed the worker and waited for it
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
