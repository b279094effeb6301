"""dfan benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {fan_grid,sb_random,param_strata}
                         --seed N --seconds S --trace {0,1} [--scale F]

Run from the root of a checkout that holds ``src/dfan``.  Every
measurement happens in a fresh interpreter (bench/worker.py) started from
here, one at a time, each on one thread.

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh interpreters), the median time of one pass over the workload's whole
input set, the 90th-percentile op latency over all passes, and the
worker's peak resident memory.

--trace 1 runs an untraced and then a traced worker for a third of
--seconds each, and reports the per-layer metrics of the traced one, per
pass, with the tracing overhead as the ratio of their pass times.

--scale shrinks each pass and the minimum op count (for the smoke test);
the default, 1, is the full workload.

The last line of stdout is the JSON result.  The line before it holds the
environment, the per-pass times, the op counts, the failures, and two
ungated figures: the median op latency and the failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("fan_grid", "sb_random", "param_strata")
SETUP_PROBES = 6
MIN_OPS = 100          # so that p90 has at least ten samples beyond it
WORKER_TIMEOUT_S = 170
HASH_SEED = "0"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms_p90": "ms",
                    "peak_rss_mb": "MB"}

# per-layer metric -> span name whose calls it counts
CALL_COUNTS = {
    "cones.lp_feasible.calls": "cones.lp_feasible",
    "cones.solve.calls": "cones.solve",
    "cones.same_cone.calls": "cones.RelOpenCone.same_cone",
    "newton.vertex_set.calls": "newton.vertex_set",
    "newton.minkowski_sum.calls": "newton.minkowski_sum",
    "fan.cell_at.calls": "fan.cell_at",
    "orders.leading_data.calls": "orders.leading_data",
    "standard.spairs": "standard.spair",
    "division.calls": "division.divide",
    "operators.mul.calls": "operators.HOperator.__mul__",
    "params.normal_form.calls": "params.ParamIdeal.normal_form",
    "params.gcd.calls": "params.poly_gcd",
    "params.factor.calls": "params.factor_squarefree",
}


PER_LAYER_UNITS = dict(
    {f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in CALL_COUNTS},
    **{"fan.cells": "count", "fan.cell_useful_frac": "ratio",
       "standard.spair_useful_frac": "ratio", "division.reductions": "count",
       "params.sympy_calls": "count", "parametric.strata": "count",
       "trace.overhead_frac": "ratio"})


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def start_worker(args, mode, seconds, min_ops):
    """Start a worker; returns (process, seconds from spawn to 'ready')."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), args.workload,
           str(args.seed), repr(seconds), str(min_ops), repr(args.scale), mode]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{mode} worker did not start: {line!r}")
    return proc, setup


def finish_worker(proc):
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    if not out.strip():
        return None
    return json.loads(out.strip().splitlines()[-1])


def run_worker(args, mode, seconds, min_ops=0):
    proc, setup = start_worker(args, mode, seconds, min_ops)
    return finish_worker(proc), setup


def end_to_end(args):
    setups = [run_worker(args, "probe", 0)[1] for _ in range(SETUP_PROBES)]
    min_ops = max(1, round(MIN_OPS * args.scale))
    res, setup = run_worker(args, "plain", args.seconds, min_ops)
    setups.append(setup)
    ms = [t for _, t in res["op_ms"]]
    p90 = (statistics.quantiles(ms, n=10, method="inclusive")[8]
           if len(ms) > 1 else ms[0])
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(res["pass_s"]),
               "op_ms_p90": p90,
               "peak_rss_mb": res["peak_rss_mb"]}
    info = {"pass_s": res["pass_s"], "ops": len(ms),
            "setup_samples_s": setups,
            "ungated": {"op_ms_p50": statistics.median(ms)}}
    return metrics, [res], info


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(args):
    # a third each: the traced worker is slower, and the whole run should
    # take about as long as an untraced one
    plain, _ = run_worker(args, "plain", args.seconds / 3)
    traced, _ = run_worker(args, "traced", args.seconds / 3)
    tr = traced["trace"]
    npass = len(traced["pass_s"])
    calls, res = tr["calls"], tr["results"]
    metrics = {f"{layer}.self_s": tr["self_s"].get(layer, 0.0) / npass
               for layer in LAYERS}
    for metric, span in CALL_COUNTS.items():
        metrics[metric] = calls.get(span, 0) / npass
    for key in ("fan.cells", "division.reductions", "parametric.strata"):
        metrics[key] = res.get(key, 0) / npass
    metrics["fan.cell_useful_frac"] = _ratio(res.get("fan.cells", 0),
                                             tr["cell_at_in_traversal"])
    metrics["standard.spair_useful_frac"] = _ratio(
        res.get("standard.growth", 0), tr["spair_in_completion"])
    metrics["params.sympy_calls"] = sum(tr["sympy_calls"].values()) / npass
    metrics["trace.overhead_frac"] = (statistics.median(traced["pass_s"])
                                      / statistics.median(plain["pass_s"]) - 1)
    total_self = sum(tr["self_s"].values())
    info = {"traced_passes": npass, "plain_passes": len(plain["pass_s"]),
            "self_share": {k: round(v / total_self, 4)
                           for k, v in sorted(tr["self_s"].items(),
                                              key=lambda kv: -kv[1])},
            "sympy_calls": tr["sympy_calls"]}
    return metrics, [plain, traced], info


def environment(worker_env_doc):
    """The worker's interpreter and sympy set-up, plus this machine and the
    size of the code measured (informational, not a gated metric)."""
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "dfan").glob("*.py")))
    return dict(worker_env_doc, nproc=len(os.sched_getaffinity(0)),
                PYTHONHASHSEED=HASH_SEED, src_lines=src_lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)
    if not (SRC / "dfan" / "__init__.py").is_file():
        print(f"bench: no dfan sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, runs, info = per_layer(args)
        units = PER_LAYER_UNITS
    else:
        metrics, runs, info = end_to_end(args)
        units = END_TO_END_UNITS
    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(len(r["op_ms"]) for r in runs)
    kinds = {}
    for r in runs:
        for kind, _ in r["op_ms"]:
            kinds[kind] = kinds.get(kind, 0) + 1
    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "scale": args.scale,
                 "op_counts": kinds,
                 "failures": failures[:20], "env": environment(runs[-1]["env"])})
    info.setdefault("ungated", {})["fail_frac"] = len(failures) / attempted
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
