"""Smoke test of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q bench/test_smoke.py

Runs each workload at a tiny scale, checks that every metric of
BENCHMARK.json is printed with its unit, and that a corrupted golden digest
makes ops fail, so the correctness checks are shown to bite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.05"

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import worker  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
           "--scale", TINY]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
    assert info["ungated"]["fail_frac"] == 0
    if not trace:
        assert info["ungated"]["op_ms_p50"] > 0
    assert sum(info["op_counts"].values()) == result["attempted"]
    assert {"python", "sympy", "sympy_ground_types", "nproc",
            "PYTHONHASHSEED", "src_lines"} <= set(info["env"])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _corrupt(golden, name):
    golden = json.loads(json.dumps(golden))
    if name == "fan_grid":
        for entry in golden[name]:
            entry["digest"] = "0" * 64
    elif name == "sb_random":
        golden[name] = ["0" * 64] * len(golden[name])
    else:
        golden[name] = {k: "0" * 64 for k in golden[name]}
    return golden


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_golden_fails_ops(workload):
    golden = json.loads((BENCH / "golden.json").read_text())
    wl = workloads.build(workload, 3, float(TINY), _corrupt(golden, workload))
    _, op_ms, failures = worker.run_passes(wl, 0, 1)
    assert 0 < len(failures) <= len(op_ms)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("sb_random", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
