"""Turn paired perfbench runs into a BENCH_<n>.json record.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py PARENT_LOG CHANGE_LOG --out BENCH_<n>.json \
        [--parent-rev REV] [--note TEXT]

Each log holds the stdout of several ``perfbench/run.py`` runs, one after
the other, in the order they were made: a run starts at its
``workload=... seed=...`` line and ends at its JSON result line; other
lines are kept only for the host description.  The i-th run of a
workload and seed in PARENT_LOG is paired with the i-th run of the same
workload and seed in CHANGE_LOG, so alternate the two sides while
measuring, and switch which side runs first from one pair to the next.

For every workload and seed the record lists each pair's end-to-end
metrics and failures, and per metric each side's median, quartiles
(``statistics.quantiles(n=4)``, as in ``perfbench/baseline.json``) and
interquartile range, and how many pairs the change won (lower is better
for every end-to-end metric).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

_HEADER = re.compile(r"^workload=(\S+) seed=(-?\d+) trace=(\d)")
_HOST = re.compile(r"^nproc=(\d+) python=(\S+)")


def parse_runs(text: str) -> tuple[list[dict], dict]:
    """(runs, host) from the concatenated output of perfbench/run.py."""
    runs: list[dict] = []
    host: dict = {}
    current = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            current = {"workload": header[1], "seed": int(header[2]), "trace": int(header[3])}
            continue
        match = _HOST.match(line)
        if match:
            host = {"nproc": int(match[1]), "python": match[2]}
            continue
        if current is not None and line.startswith("{"):
            result = json.loads(line)
            current["failed"] = result["failed"]
            current["attempted"] = result["attempted"]
            current["metrics"] = {
                name: entry["value"] for name, entry in result["metrics"].items()
            }
            runs.append(current)
            current = None
    return runs, host


def _group(runs: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for run in runs:
        if run["trace"] == 0:
            groups.setdefault(f"{run['workload']}@{run['seed']}", []).append(run)
    return groups


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def record(parent_runs: list[dict], change_runs: list[dict]) -> dict:
    parent, change = _group(parent_runs), _group(change_runs)
    out = {}
    for key in sorted(parent.keys() & change.keys()):
        pairs = list(zip(parent[key], change[key]))
        names = sorted(set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair)))
        metrics = {}
        for name in names:
            before = [p["metrics"][name] for p, _ in pairs]
            after = [c["metrics"][name] for _, c in pairs]
            metrics[name] = {
                "parent": _summary(before),
                "change": _summary(after),
                "change_wins": sum(a < b for b, a in zip(before, after)),
                "pairs": len(pairs),
            }
        out[key] = {
            "pairs": [
                {side: {"failed": r["failed"], "attempted": r["attempted"], **r["metrics"]}
                 for side, r in (("parent", p), ("change", c))}
                for p, c in pairs
            ],
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_log", type=Path)
    parser.add_argument("change_log", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-rev", default="", help="commit the parent runs measured")
    parser.add_argument("--note", default="", help="free text kept in the record")
    args = parser.parse_args(argv)
    parent_runs, host = parse_runs(args.parent_log.read_text())
    change_runs, _ = parse_runs(args.change_log.read_text())
    workloads = record(parent_runs, change_runs)
    if not workloads:
        print("error: no workload and seed has runs on both sides", file=sys.stderr)
        return 2
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "parent_rev": args.parent_rev,
        "host": host,
        "note": args.note,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
