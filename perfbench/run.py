"""liecoh benchmark: exact-cohomology workloads timed in fresh worker processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each one exists):

* ``paper-suite``     ``verify-paper --json`` once (ignores the seed);
* ``absolute-large``  sl3 with adjoint and sl4 with trivial coefficients,
                      both in a seeded monomial basis, with representatives;
* ``relative-ext``    three seeded ``fivedim_ext`` slopes in relative mode
                      with adjoint and coadjoint coefficients, plus
                      ``verify_vanishing`` on a seeded rank-2 extension.

Each pass runs in a fresh interpreter, so the library's caches start cold
as they do for every CLI call.  Passes repeat until ``--seconds`` have gone
by (at least one).  With ``--trace 0`` the last line reports the median
wall time of a pass, the median import time of liecoh over every worker
started (``setup_s``) and the median peak resident memory.  With
``--trace 1`` untraced and traced passes alternate, and the last line
reports the per-layer metrics of the traced passes and the tracing
overhead; the spans of the last traced pass go to ``.perfbench-out/``.
Every answer is checked against a closed-form oracle; for the default seed
the digest of the answers must also match the stored one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"  # spans of the last traced pass of each workload
DEFAULT_SEED = 1
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402
import workloads  # noqa: E402


class Run:
    """Workers started for one run of one workload, and what they reported."""

    def __init__(self, spec_path: Path, spec: dict, started: float):
        self.spec_path = spec_path
        self.spec = spec
        self.started = started
        self.setup_s: list[float] = []
        self.walls = {0: [], 1: []}
        self.rss: list[float] = []
        self.layers: list[dict] = []
        self.absent: set[str] = set()
        self.digests: set[str] = set()
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def worker(self, *flags: str) -> tuple[dict | None, str]:
        """Start one worker; (its report, "") or (None, why it gave none)."""
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.spec_path), *flags]
        left = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            return None, "worker timed out"
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return None, f"worker exit code {proc.returncode}"
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup_s.append(out["setup_s"])
        return out, ""

    def measure(self, trace: int) -> None:
        n_queries = len(workloads.queries(self.spec))
        self.attempted += n_queries
        flags = ["--trace", str(trace)]
        if trace:
            SPANS_DIR.mkdir(exist_ok=True)
            name = f"spans-{self.spec['workload']}-seed{self.spec['seed']}.json"
            flags += ["--spans", str(SPANS_DIR / name)]
        out, why = self.worker(*flags)
        if out is None:
            self.failures += [f"pass: {why}"] * n_queries
            return
        self.walls[trace].append(out["wall_s"])
        self.failures += [f"{label}: {why}" for label, why in out["failures"].items()]
        self.digests.add(out["digest"])
        if trace:
            self.layers.append(out["layers"])
            self.absent.update(out["absent"])
        else:
            self.rss.append(out["peak_rss_mb"])

    def check_digest(self, workload: str, seed: int) -> None:
        """Answers must be identical across passes, and stored ones for the default seed."""
        if len(self.digests) > 1:
            self.attempted += 1
            self.failures.append(f"digest: passes disagree {sorted(self.digests)}")
            return
        stored = json.loads((HERE / "digests.json").read_text())
        key = workload if workload == "paper-suite" else f"{workload}@{DEFAULT_SEED}"
        if self.digests and (workload == "paper-suite" or seed == DEFAULT_SEED):
            self.attempted += 1
            if self.digests != {stored.get(key)}:
                self.failures.append(f"digest: {sorted(self.digests)} != stored {stored.get(key)}")

    def metrics(self, trace: int) -> dict:
        if not trace:
            return metrics.end_to_end({
                "wall_s": statistics.median(self.walls[0]),
                "setup_s": statistics.median(self.setup_s),
                "peak_rss_mb": statistics.median(self.rss),
            })
        layers = {key: statistics.median(s[key] for s in self.layers) for key in self.layers[0]}
        layers["trace.overhead_s"] = (
            statistics.median(self.walls[1]) - statistics.median(self.walls[0])
        )
        return metrics.per_layer(layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "liecoh" / "__init__.py").is_file():
        print(f"error: no liecoh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        spec = inputs.generate(args.workload, args.seed, workdir)
        run = Run(workdir / "spec.json", spec, started)
        for _ in range(SETUP_PROBES):
            run.worker("--setup-only")
        measure_from = time.perf_counter()
        while True:
            run.measure(0)
            if args.trace:
                run.measure(1)
            if run.failures or time.perf_counter() - measure_from >= args.seconds:
                break
        run.check_digest(args.workload, args.seed)
        complete = run.walls[0] and (run.layers or not args.trace)
        values = run.metrics(args.trace) if complete else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(run.walls[0])}+{len(run.walls[1])} digest={','.join(sorted(run.digests))}")
    print("pass_wall_s=" + " ".join(f"{w:.3f}" for w in run.walls[0] + run.walls[1]))
    print(f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    if spec.get("slopes"):
        print(f"slopes={','.join(spec['slopes'])}")
    print(f"failed_ratio={failed / max(run.attempted, 1):.4f}")
    for why in run.failures:
        print(f"FAILED {why}")
    if run.absent:
        print(f"absent={','.join(sorted(run.absent))}")
    print(json.dumps({"correct": failed == 0, "attempted": max(run.attempted, 1),
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
