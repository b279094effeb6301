"""Record bench/golden.json: the expected result of every op the benchmark
can run, computed by the current code.

    PYTHONPATH=src python3 bench/record_golden.py

Run it only when a change to dfan's output is intended; the benchmark
counts every op whose result differs from this file as failed.
"""

import json
from pathlib import Path

import workloads
from dfan import fan, orders, standard

OUT = Path(__file__).resolve().parent / "golden.json"


def main():
    golden = {"fan_grid": [], "sb_random": [], "param_strata": {}}
    for gens in workloads.fan_ideals():
        res = fan.enumerate_fan(gens, cap=workloads.CAP_FAN)
        golden["fan_grid"].append({"cells": len(res.cells),
                                   "digest": workloads.fan_digest(res)})
    for n, gens in workloads.sb_pool():
        sb = standard.standard_basis(gens, orders.OrderSpec(n),
                                     cap=workloads.CAP_SB)
        golden["sb_random"].append(workloads.basis_digest(sb))
    for name, c1, c2, text in workloads.param_problems():
        for verb in workloads.verbs_for(text):
            rc, out = workloads.run_cli(verb, text)
            if rc != 0:
                raise SystemExit(f"{name} {c1} {c2} {verb}: exit code {rc}")
            key = workloads.param_key(name, c1, c2, verb)
            golden["param_strata"][key] = workloads.digest(out)
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}: {len(golden['param_strata'])} CLI digests")


if __name__ == "__main__":
    main()
