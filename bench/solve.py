"""One solve of one benchmark workload in a fresh process.

    python3 bench/solve.py probe
    python3 bench/solve.py solve WORKLOAD SEED OUT_DIR T_SPAWN TRACE [OPNORM]

run.py starts it with the BLAS thread count pinned in the environment, so
the pin is in force before numpy is imported.  ``probe`` imports the
program and reports the environment; ``solve`` runs the workload through
``cli.run_experiment`` as ``ttkrylov run`` does, times it, checks the
solution from outside and prints one JSON record as its last line.
T_SPAWN is the CLOCK_MONOTONIC reading taken just before the process was
started, so setup_s and total_s include interpreter start and imports.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Trace columns the fingerprint hashes; columns added later are ignored.
TRACE_FIELDS = ("iter", "eta_b", "eta_Ab", "eta_AMb", "eta_tilde_b",
                "lsq_residual", "true_residual", "max_rank_v", "max_rank_x",
                "cr_last_vec", "cr_basis", "delta_used")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from ttkrylov import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"ttkrylov imported from {cli.__file__}, "
                          "not from this checkout")
    return cli


def probe() -> dict:
    import numpy as np
    import_cli()
    import check, tracer, workloads  # noqa: F401  (fills the bytecode cache)
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "python": platform.python_version()}


def _finite(x):
    return x if isinstance(x, float) and math.isfinite(x) else None


def fingerprint(trace_path: Path) -> dict:
    """Hash of the per-iteration trace rows plus the final etas."""
    with open(trace_path, newline="") as f:
        rows = list(csv.DictReader(f))
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(row.get(c, "") for c in TRACE_FIELDS)
                  + "\n").encode())
    last = rows[-1] if rows else {}
    return {"trace_sha256": h.hexdigest()[:16], "rows": len(rows),
            **{f"final_{c}": _finite(float(last.get(c, "nan")))
               for c in ("eta_b", "eta_Ab", "eta_AMb")}}


def capture(module, name: str, into: dict) -> None:
    """Rebind module.name so each call stores (arguments, result, start,
    end, CPU seconds) in into[name]."""
    fn = getattr(module, name)
    signature = inspect.signature(fn)

    def capturing(*args, **kwargs):
        t0, c0 = clock(), time.process_time()
        out = fn(*args, **kwargs)
        into[name] = (signature.bind(*args, **kwargs).arguments, out,
                      t0, clock(), time.process_time() - c0)
        return out
    setattr(module, name, capturing)


def solve(workload: str, seed: int, out_dir: Path, t_spawn: float,
          trace: bool, opnorm: float | None) -> dict:
    cli = import_cli()
    from check import reference_opnorm, verdict
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    preset = cli.presets_dir() / f"{spec['preset']}.cfg"
    pairs = cli.parse_config_text(preset.read_text())
    pairs.update(spec["set"], seed=str(seed), output=workload)
    cfg = cli.build_config(pairs)

    tracer = None
    if trace:
        import ttkrylov
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install(ttkrylov)
    # The solver's inputs and outcome, and the bound report, are taken at
    # the names run_experiment calls them by.
    captured = {}
    for name in ("tt_right_gmres", "verify_bounds"):
        capture(cli, name, captured)

    manifest = cli.run_experiment(cfg, out_dir)
    t_end = clock()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    args, outcome, solve_t0, solve_t1, solve_cpu = captured["tt_right_gmres"]
    report = captured["verify_bounds"][1] if "verify_bounds" in captured \
        else None
    record = {
        "setup_s": solve_t0 - t_spawn,
        "solve_s": solve_t1 - solve_t0,
        "solve_cpu_s": solve_cpu,
        "total_s": t_end - t_spawn,
        "peak_rss_mb": rss_mb,
        "iterations": outcome.iterations,
        "peak_rank_x": outcome.solution.max_rank,
        "cycles": outcome.meta.get("cycles"),
        "modes": list(args["b"].modes),
        "traced": trace,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, outcome, args["m"],
                                         report)

    t0 = clock()
    if opnorm is None:
        opnorm = reference_opnorm(args["a"])
        record["refnorm_s"] = clock() - t0
    record["check"] = verdict(args["a"], args["b"], outcome, report,
                              cfg.bounds, cfg.epsilon, opnorm)
    record["eta_Ab"] = record["check"]["eta_Ab"]
    trace_csv = next(f for f in manifest["files"] if f.endswith("_trace.csv"))
    record["fingerprint"] = fingerprint(Path(trace_csv))
    record["check_s"] = clock() - t0
    return record


def main(argv) -> int:
    try:
        if argv[0] == "probe":
            out = probe()
        else:
            workload, seed, out_dir, t_spawn, trace = argv[1:6]
            opnorm = float(argv[6]) if len(argv) > 6 else None
            out = solve(workload, int(seed), Path(out_dir), float(t_spawn),
                        trace == "1", opnorm)
    except Exception:
        print(json.dumps({"error": traceback.format_exc(limit=-3)}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
