"""The benchmark recorder `tools/bench_record.py` on canned bench output."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record",
                                               ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

ENV = {"python": "3.11.7", "sympy": "1.14.0", "sympy_ground_types": "python",
       "gmpy2": False, "python_flint": False, "nproc": 2, "PYTHONHASHSEED": "0"}


def canned_output(wall_s, src_lines, failed=0):
    """What `bench/run.py --trace 0` prints last: the info line, then the
    result line."""
    info = {"info": {"pass_s": [wall_s], "ops": 120, "workload": "sb_random",
                     "env": dict(ENV, src_lines=src_lines)}}
    result = {"correct": not failed, "attempted": 120, "failed": failed,
              "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                          "wall_s": {"value": wall_s, "unit": "s"},
                          "op_ms_p90": {"value": 10 * wall_s, "unit": "ms"},
                          "peak_rss_mb": {"value": 57.0, "unit": "MB"}}}
    return f"progress\n{json.dumps(info)}\n{json.dumps(result)}\n"


def test_parse_run_reads_the_last_two_lines():
    result, info = bench_record.parse_run(canned_output(0.17, 3233))
    assert result["metrics"]["wall_s"]["value"] == 0.17
    assert info["env"]["src_lines"] == 3233
    with pytest.raises(ValueError):
        bench_record.parse_run("only one line\n")


def test_main_alternates_pairs_and_writes_the_record(tmp_path, monkeypatch):
    """Three seeds, the change faster on two: the sides alternate which
    runs first, and BENCH_<label>.json holds every pair, the medians, the
    parent's quartiles and the wins, read with the directions of
    BENCHMARK.json, the environment and both line counts."""
    walls = {("parent", 1): 0.20, ("change", 1): 0.17, ("parent", 2): 0.21,
             ("change", 2): 0.18, ("parent", 3): 0.19, ("change", 3): 0.19}
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "parent" if checkout == "P" else "change"
        calls.append((side, workload, seed, seconds))
        return bench_record.parse_run(
            canned_output(walls[side, seed], 3233 if side == "parent" else 3200))

    monkeypatch.setattr(bench_record, "run_bench", fake_run)
    assert bench_record.main(["--parent", "P", "--change", str(ROOT),
                              "--label", "demo", "--seeds", "1-3",
                              "--workloads", "sb_random", "--seconds", "5",
                              "--out", str(tmp_path)]) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent",
                                     "parent", "change"]
    assert {c[1:] for c in calls} == {("sb_random", s, 5.0) for s in (1, 2, 3)}
    doc = json.loads((tmp_path / "BENCH_demo.json").read_text())
    wall = doc["workloads"]["sb_random"]["summary"]["wall_s"]
    assert wall["parent_median"] == 0.20 and wall["change_median"] == 0.18
    assert wall["change_won"] == 2 and wall["pairs"] == 3
    assert wall["better"] == "lower"
    assert wall["parent_quartiles"] == pytest.approx([0.195, 0.205])
    assert doc["workloads"]["sb_random"]["summary"]["peak_rss_mb"]["change_won"] == 0
    pairs = doc["workloads"]["sb_random"]["pairs"]
    assert [(p["seed"], p["first"]) for p in pairs] == [
        (1, "parent"), (2, "change"), (3, "parent")]
    assert pairs[0]["change"]["metrics"]["wall_s"] == 0.17
    assert doc["src_lines"] == {"parent": 3233, "change": 3200}
    assert doc["env"] == ENV and doc["seeds"] == [1, 2, 3]


def test_seed_lists():
    assert bench_record.parse_seeds("6201-6203") == [6201, 6202, 6203]
    assert bench_record.parse_seeds("1,5,9") == [1, 5, 9]
