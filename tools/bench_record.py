"""Record a committed benchmark comparison: BENCH_<label>.json.

    python3 tools/bench_record.py --parent DIR --change DIR --label NAME
                                  --seeds 6201-6210 [--workloads a,b]
                                  [--seconds 30] [--out DIR]

Runs `bench/run.py --trace 0` of each checkout on every seed and workload,
one run at a time, as alternating pairs: on even-numbered seeds of the list
the parent runs first, on odd-numbered ones the change.  Each run measures
the checkout it is started in.  The record holds every pair's end-to-end
metrics and failure counts, and per workload and metric the medians and
quartiles of both sides and the pairs the change won, read with the
direction `BENCHMARK.json` gives each metric.  It also holds the
environment the bench reports and the `src/dfan` line count of each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run(stdout):
    """(result, info) from the output of one `bench/run.py` run: the last
    line is the result, the line before it the info."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("bench output has no result line")
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def run_bench(checkout, workload, seed, seconds):
    """One bench run in checkout: (result, info)."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(out.stdout)


def side_record(result, info):
    """What a pair keeps of one run."""
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "src_lines": info["env"]["src_lines"]}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, directions):
    """Per metric of directions ({name: "lower" or "higher"}): both sides'
    medians, the parent's quartiles and the pairs the change won (ties
    count for neither side)."""
    out = {}
    for name, better in directions.items():
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        won = sum((c < p) if better == "lower" else (c > p)
                  for p, c in zip(par, chg))
        q1, _, q3 = quartiles(par)
        out[name] = {"parent_median": statistics.median(par),
                     "change_median": statistics.median(chg),
                     "parent_quartiles": [q1, q3], "change_won": won,
                     "pairs": len(pairs), "better": better}
    return out


def directions_of(benchmark):
    """{metric: better} of the end-to-end metrics of a BENCHMARK.json."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def build_record(label, seconds, seeds, runs, directions):
    """The BENCH_<label>.json document from runs: {workload: [pair]},
    each pair {"seed", "first", "parent", "change", "env"}."""
    doc = {"label": label, "command": f"bench/run.py --seconds {seconds} --trace 0",
           "seeds": list(seeds), "workloads": {}}
    for workload, pairs in runs.items():
        doc["workloads"][workload] = {
            "pairs": [{k: p[k] for k in ("seed", "first", "parent", "change")}
                      for p in pairs],
            "summary": summarize(pairs, directions)}
    first = next(iter(runs.values()))[0]
    env = dict(first["env"])
    env.pop("src_lines", None)
    doc["env"] = env
    doc["src_lines"] = {"parent": first["parent"]["src_lines"],
                        "change": first["change"]["src_lines"]}
    return doc


def parse_seeds(text):
    """'6201-6210' or '1,5,9' -> list of ints."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 6201-6210 or 1,5,9")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every workload of BENCHMARK.json")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", default=".", help="directory of the record")
    args = ap.parse_args(argv)
    benchmark = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    seeds = parse_seeds(args.seeds)
    sides = {"parent": args.parent, "change": args.change}
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result, info = run_bench(sides[side], workload, seed, args.seconds)
                pair[side] = side_record(result, info)
                pair["env"] = info["env"]
            runs[workload].append(pair)
            print(json.dumps({"workload": workload, "seed": seed,
                              "parent": pair["parent"]["metrics"],
                              "change": pair["change"]["metrics"]}), flush=True)
    doc = build_record(args.label, args.seconds, seeds, runs,
                       directions_of(benchmark))
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
