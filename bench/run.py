"""ttkrylov benchmark: time to a backward-error-certified TT-GMRES solution.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each solve runs ``cli.run_experiment`` on a preset config in a fresh
process (bench/solve.py) with one BLAS thread.  The load is closed-loop:
one solve at a time, the next started when the previous one has ended,
until the next one would overrun ``--seconds``; at least three run.
Every solution is checked from outside (bench/check.py).  Solve j of a
run uses the config seed ``config_seed(--seed, j)``.

--trace 0 prints the end-to-end metrics, medians over the solves.
--trace 1 alternates untraced and traced solves and prints the per-layer
metrics of the traced ones (bench/tracer.py, map in bench/workloads.py),
with the tracing overhead against the untraced total_s of the same run.

The line before the last holds the details: environment record, input
size, every solve's record and the trace fingerprints.  The last line is
the result object.  Without the program next to it (src/ttkrylov) the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LAYER_METRICS, NOT_MEASURED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SOLVE = Path(__file__).resolve().parent / "solve.py"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PIN_REASON = ("TT cores are small, so BLAS threads mostly wait on each "
              "other: on 2 cores default OpenBLAS threading ran poisson-n31 "
              "in 12.7-13.2 s against 8.1-8.4 s with one thread, i.e. the "
              "default measures the scheduler")
MIN_SOLVES = 3
#: No solve starts after this many seconds, so a run ends within 180 s.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "total_s": "s", "setup_s": "s", "solve_s": "s", "iterations": "count",
    "eta_Ab": "1", "peak_rank_x": "rank", "peak_rss_mb": "MB",
    "pass_share": "ratio",
}


def config_seed(seed: int, index: int) -> int:
    """The config ``seed`` of solve `index` of a run with ``--seed`` `seed`.

    The solver's norm estimate draws its samples from seeds ``s, s+1, ...,
    s+9``, so neighbouring config seeds share nine of ten samples and one
    large sample moves the stopping point of ten neighbours at once.  On
    param-convdiff-bounds about 4% of seeds stop one iteration early, with
    an eta_Ab 1.74 times larger.  Hashing keeps the samples of different
    solves and runs apart, so the median over a run's solves is steady.
    """
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in PIN_VARS})
    return env


def run_child(args, env, timeout) -> dict:
    """Run solve.py and return its record; failures become {"error": ...}."""
    proc = subprocess.Popen([sys.executable, str(SOLVE), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"solve exceeded {timeout:.0f} s"}
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"error": f"exit code {proc.returncode}: {err.strip()[-500:]}"}
    return record


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(probe: dict, seed: int) -> dict:
    return {**probe, "blas_threads": BLAS_THREADS,
            "blas_pin": {var: str(BLAS_THREADS) for var in PIN_VARS},
            "blas_pin_reason": PIN_REASON, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "seed": seed}


def solve_loop(workload, seed, seconds, trace, env) -> list[dict]:
    """Closed loop of solves; in a traced run they alternate untraced and
    traced, starting untraced."""
    records, opnorm, costs = [], None, []
    start = clock()
    while True:
        elapsed = clock() - start
        est = statistics.median(costs) if costs else 0.0
        if len(records) >= MIN_SOLVES and elapsed + est > seconds:
            break
        if elapsed + est > LAST_START_S:
            break
        traced = trace and len(records) % 2 == 1
        out_dir = OUT / f"{workload}-{seed}-{os.getpid()}-{len(records)}"
        cseed = config_seed(seed, len(records))
        extra = [] if opnorm is None else [repr(opnorm)]
        t0 = clock()
        record = run_child(["solve", workload, str(cseed), str(out_dir),
                            repr(t0), "1" if traced else "0", *extra], env,
                           max(10.0, CHILD_TIMEOUT_S - elapsed))
        record["config_seed"] = cseed
        costs.append(clock() - t0 - record.get("refnorm_s", 0.0))
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append(record)
        if opnorm is None and "check" in record:
            opnorm = record["check"]["reference_opnorm"]
    return records


def passed(record) -> bool:
    return record.get("check", {}).get("passed", False)


def median_of(records, key) -> float:
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    probe = run_child(["probe"], env, CHILD_TIMEOUT_S)
    if "error" in probe:
        print(f"error: cannot import the program from {ROOT / 'src'}:\n"
              f"{probe['error']}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    records = solve_loop(args.workload, args.seed, args.seconds,
                         bool(args.trace), env)
    done = [r for r in records if "error" not in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no solve completed\n"
              + "\n".join(r.get("error", "") for r in records),
              file=sys.stderr)
        return 1
    failed = sum(not passed(r) for r in records)

    if args.trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in LAYER_METRICS
                   if name != "trace.overhead_share"}
        metrics["trace.overhead_share"] = (
            median_of(traced, "total_s") / median_of(plain, "total_s") - 1.0)
        units = {name: row[0] for name, row in LAYER_METRICS.items()}
    else:
        metrics = {name: median_of(plain, name) for name in END_TO_END
                   if name != "pass_share"}
        metrics["pass_share"] = (len(records) - failed) / len(records)
        units = END_TO_END

    spec = WORKLOADS[args.workload]
    detail = {
        "workload": args.workload, "preset": spec["preset"],
        "set": spec["set"], "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, one solve at a time",
        "input": {"modes": done[0]["modes"],
                  "unknowns": math.prod(done[0]["modes"])},
        "environment": environment(probe, args.seed),
        "fail_share": failed / len(records),
        "fingerprints": [{"config_seed": r["config_seed"],
                          **r["fingerprint"]} for r in done],
        "solves": records,
    }
    if args.trace:
        detail["layer_map"] = {name: row[2]
                               for name, row in LAYER_METRICS.items()}
        detail["not_measured"] = NOT_MEASURED
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
