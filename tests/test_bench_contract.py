"""The names perfbench reads from the library, and the per-layer metrics they give.

``perfbench/tracer.py`` wraps the functions of its ``LAYERS`` by name and
reads the hit ratio of every ``metrics.CACHED`` function through its
``lru_cache``.  A name the library has lost is reported as absent, and its
metrics are left out of a traced run's summary; the checks below catch
that from the test suite, without running a workload.
"""

import json
import sys
from pathlib import Path

import liecoh.cli  # noqa: F401  (the tracer wraps only modules already imported)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import metrics  # noqa: E402
import tracer  # noqa: E402


def test_every_traced_name_and_cache_is_in_the_library():
    t = tracer.Tracer()
    t.install()
    try:
        summary = t.summary(wall_s=1.0)
    finally:
        t.uninstall()
    assert t.absent == []
    assert set(metrics.CACHED) <= set(t.caches)
    # run.py adds trace.overhead_s itself, from the walls of the plain and traced passes
    reported = metrics.per_layer({**summary, "trace.overhead_s": 0.0})
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"] if m["name"] not in reported] == []
