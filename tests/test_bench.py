"""The bench's contract with the program, checked by bench solves.

``bench/solve.py`` binds the arguments of ``tt_right_gmres`` by name (``a``,
``m`` and ``b``) and wraps ``cli.verify_bounds`` by name to take the bound
report.  One traced solve of the workload that runs the report, in a fresh
process with one BLAS thread as the bench runs it, fails here when a change
to the program breaks either.  One untraced solve each of the large-mode
workload, whose roundings take the Gram sweep of tt_round_sum, and of the
restarted workload is judged by the bench's own eta_Ab check from outside
the solver.  The bench files are only read.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bench_solve(workload: str, out_dir: Path, trace: bool) -> dict:
    env = {**os.environ, **{var: "1" for var in PIN_VARS},
           "PYTHONDONTWRITEBYTECODE": "1"}
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "solve.py"), "solve",
         workload, "1", str(out_dir), repr(t_spawn), "1" if trace else "0"],
        capture_output=True, text=True, env=env, timeout=300)
    record = json.loads(done.stdout.splitlines()[-1])
    assert "error" not in record, record.get("error")
    return record


def test_bench_solves_the_bound_workload(tmp_path):
    record = bench_solve("param-convdiff-bounds", tmp_path, trace=True)
    assert record["check"]["passed"], record["check"]["reasons"]
    assert record["check"]["bound_violations"] == 0


def test_bench_solves_the_large_mode_workload(tmp_path):
    record = bench_solve("convdiff-prec-n127", tmp_path, trace=False)
    assert record["check"]["passed"], record["check"]["reasons"]


def test_bench_solves_the_restarted_workload(tmp_path):
    # 68 iterations at config seed 1, which restart twice at m = 25
    record = bench_solve("poisson-n31", tmp_path, trace=False)
    assert record["check"]["passed"], record["check"]["reasons"]
    assert record["cycles"] == 3
