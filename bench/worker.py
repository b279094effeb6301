"""One benchmark process: set up one workload, then run passes over it.

Started by run.py in a fresh interpreter with ``src`` on the path, so the
sympy cache, dfan's lru caches and its display state start the same way in
every run.  The process runs on one thread.

    python3 bench/worker.py WORKLOAD SEED SECONDS MIN_OPS SCALE MODE

MODE is ``probe`` (set up, report ready, exit), ``plain`` (untimed checks,
timed ops) or ``traced`` (the same with the span tracer installed).  The
worker prints ``ready`` when set-up is done and the first op is about to
start, then one JSON line with the raw measurements.
"""

import importlib.util
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import dfan
import sympy  # dfan.params imports sympy lazily; set-up pays for it here
import sympy.external.gmpy

import workloads

BENCH_DIR = Path(__file__).resolve().parent


def run_passes(wl, seconds, min_ops, tracer=None):
    """Run whole passes while another one fits in `seconds`, and until at
    least `min_ops` ops are done.  Returns per-pass timed totals, per-op
    (kind, ms), and the failures."""
    pass_s, op_ms, failures = [], [], []
    t_start = time.perf_counter()
    k = 0
    while True:
        total = 0.0
        for op in wl.pass_ops(k):
            err = None
            t0 = time.perf_counter()
            try:
                res = op.run()
            except Exception as exc:  # a raising op is a failed op
                err = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            total += dt
            op_ms.append((op.kind, dt * 1000.0))
            if tracer is not None:
                tracer.on = False
            try:
                if err is None and not op.check(res):
                    err = "check failed"
            except Exception:
                err = "check raised: " + traceback.format_exc(limit=2)
            if tracer is not None:
                tracer.on = True
            if err is not None:
                failures.append(f"pass {k} {op.kind} {op.key}: {err}")
        pass_s.append(total)
        k += 1
        # stop before a pass that would likely end after the deadline
        left = seconds - (time.perf_counter() - t_start)
        if len(op_ms) >= min_ops and left < pass_s[-1]:
            break
    return pass_s, op_ms, failures


def environment():
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "sympy_ground_types": sympy.external.gmpy.GROUND_TYPES,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "python_flint": importlib.util.find_spec("flint") is not None}


def main(argv):
    name, seed, seconds, min_ops, scale, mode = argv
    src = Path(dfan.__file__).resolve().parent
    if src != (BENCH_DIR.parent / "src" / "dfan").resolve():
        raise SystemExit(f"dfan imported from {src}, not from this checkout")
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    wl = workloads.build(name, int(seed), float(scale), golden)
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if mode == "probe":
        return
    pass_s, op_ms, failures = run_passes(wl, float(seconds), int(min_ops),
                                         tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"pass_s": pass_s, "op_ms": op_ms, "failures": failures,
           "peak_rss_mb": rss_kb / 1024.0, "env": environment()}
    if tracer is not None:
        tracer.on = False
        out["trace"] = tracer.summary()
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{name}.spans")
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
