"""scripts/bench_record.py: paired perfbench runs into a BENCH_<n>.json record."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _run_output(workload, seed, wall, failed=0):
    result = {
        "correct": failed == 0, "attempted": 3, "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": 0.07, "unit": "s"},
            "peak_rss_mb": {"value": 26.0, "unit": "MiB"},
        },
    }
    return "\n".join([
        f"workload={workload} seed={seed} trace=0 passes=3+0 digest=abc",
        "pass_wall_s=1.000 1.100 0.900",
        "nproc=2 python=3.11.7 loadavg=0.50 0.40 0.30",
        "failed_ratio=0.0000",
        json.dumps(result),
    ]) + "\n"


def test_pairs_runs_in_order_per_workload_and_seed(tmp_path):
    parent_walls = [1.0, 1.2, 0.9, 1.1]
    change_walls = [0.6, 0.5, 1.0, 0.55]
    parent = "".join(_run_output("absolute-large", 1, w) for w in parent_walls)
    change = "".join(_run_output("absolute-large", 1, w) for w in change_walls)
    # a workload measured on one side only has no pairs and is left out
    parent += _run_output("paper-suite", 1, 2.0)
    (tmp_path / "parent.log").write_text(parent)
    (tmp_path / "change.log").write_text(change)
    out = tmp_path / "BENCH_0.json"
    assert bench_record.main([str(tmp_path / "parent.log"), str(tmp_path / "change.log"),
                              "--out", str(out), "--parent-rev", "abc123"]) == 0
    doc = json.loads(out.read_text())
    assert doc["parent_rev"] == "abc123"
    assert doc["host"] == {"nproc": 2, "python": "3.11.7"}
    assert list(doc["workloads"]) == ["absolute-large@1"]
    entry = doc["workloads"]["absolute-large@1"]
    assert [p["parent"]["wall_s"] for p in entry["pairs"]] == parent_walls
    assert [p["change"]["wall_s"] for p in entry["pairs"]] == change_walls
    wall = entry["metrics"]["wall_s"]
    assert wall["change_wins"] == 3 and wall["pairs"] == 4
    assert wall["parent"]["median"] == 1.05
    assert wall["parent"]["iqr"] == round(wall["parent"]["q3"] - wall["parent"]["q1"], 4)
    assert entry["metrics"]["setup_s"]["change_wins"] == 0


def test_no_common_runs_is_an_error(tmp_path):
    (tmp_path / "parent.log").write_text(_run_output("paper-suite", 1, 2.0))
    (tmp_path / "change.log").write_text(_run_output("relative-ext", 1, 1.0))
    code = bench_record.main([str(tmp_path / "parent.log"), str(tmp_path / "change.log"),
                              "--out", str(tmp_path / "out.json")])
    assert code == 2 and not (tmp_path / "out.json").exists()
