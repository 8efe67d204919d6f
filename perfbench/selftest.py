"""Tests of the benchmark itself: python3 perfbench/selftest.py (from the repo root).

They cover the tracer's self-time arithmetic, the oracles' power to fail a
wrong answer, the determinism of the input generator, and the agreement of
BENCHMARK.json with the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Each reading advances time by one unit, so span lengths are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        t = tracer.Tracer(clock=FakeClock())
        leaf = t.wrap("leaf", lambda: None)

        def middle_body():
            leaf()
            leaf()

        middle = t.wrap("middle", middle_body)
        outer = t.wrap("outer", lambda: (middle(), leaf()))
        outer()
        # clock readings: outer 1..10, middle 2..7, leaves 3..4, 5..6 and 8..9
        s = t.summary(wall_s=9.0)
        self.assertEqual(s["leaf.calls"], 3)
        self.assertEqual(s["leaf.self_s"], 3.0)
        self.assertEqual(s["middle.self_s"], 5.0 - 2.0)
        self.assertEqual(s["outer.self_s"], 9.0 - 5.0 - 1.0)
        self.assertEqual(s["outer.total_s"], 9.0)

    def test_recursive_calls_count_once_in_total(self):
        t = tracer.Tracer(clock=FakeClock())
        holder = {}

        def body(n):
            if n:
                holder["f"](n - 1)

        holder["f"] = t.wrap("f", body)
        holder["f"](2)
        s = t.summary(wall_s=5.0)
        self.assertEqual(s["f.calls"], 3)
        self.assertEqual(s["f.total_s"], 5.0)
        self.assertEqual(s["f.self_s"], 5.0)

    def test_self_times_helper(self):
        # span 0 covers 0..10 and holds spans 1 (1..4) and 2 (5..6)
        got = tracer.self_times([0, 1, 1], [0.0, 1.0, 5.0], [10.0, 4.0, 6.0], [-1, 0, 0], 2)
        self.assertEqual(got, [6.0, 4.0])

    def test_missing_function_is_absent_not_fatal(self):
        import liecoh  # noqa: F401

        saved = tracer.FUNCTIONS
        tracer.FUNCTIONS = saved + ("ratlin.no_such_function", "nomodule.f")
        t = tracer.Tracer()
        try:
            t.install()
        finally:
            t.uninstall()
            tracer.FUNCTIONS = saved
        self.assertEqual(t.absent, ["ratlin.no_such_function", "nomodule.f"])
        self.assertNotIn("ratlin.no_such_function.calls", t.summary(wall_s=1.0))

    def test_uninstall_restores_every_reference(self):
        import liecoh
        import liecoh.cohomology
        from liecoh.ratlin import Matrix

        before = (liecoh.cohomology, sys.modules["liecoh.cohomology"].cohomology, Matrix.rank)
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(liecoh.cohomology, before[0])
        t.uninstall()
        after = (liecoh.cohomology, sys.modules["liecoh.cohomology"].cohomology, Matrix.rank)
        self.assertEqual(before, after)


class OracleTest(unittest.TestCase):
    def _cheap_sl4_results(self, directory: Path):
        spec = inputs.generate("absolute-large", 1, directory)
        qs = [q for q in workloads.queries(spec) if q.label in
              ("sl4:trivial:0", "sl4:trivial:1", "sl4:trivial:3")]
        return spec, workloads.execute(qs)

    def test_wrong_expected_betti_fails_a_query(self):
        with tempfile.TemporaryDirectory() as d:
            spec, results = self._cheap_sl4_results(Path(d))
        good = workloads.check(spec, {}, results)
        self.assertEqual(good.failures, {})
        bad = workloads.check(spec, {"sl4:trivial:3": {3: 2}}, results)
        self.assertEqual(list(bad.failures), ["sl4:trivial:3"])
        self.assertGreater(len(bad.failures) / bad.attempted, 0)

    def test_nonzero_exit_and_exception_fail(self):
        results = {"sl4:trivial:0": (1, "liecoh-report 1\nbetti[0] = 1\n"),
                   "sl4:trivial:1": ValueError("boom")}
        outcome = workloads.check({}, {}, results)
        self.assertEqual(sorted(outcome.failures), ["sl4:trivial:0", "sl4:trivial:1"])

    def test_poincare_polynomials(self):
        self.assertEqual(workloads.poincare_sl(2), [1, 0, 0, 1])
        self.assertEqual(workloads.poincare_sl(4)[:5], [1, 0, 0, 1, 0])
        self.assertEqual(sum(workloads.poincare_sl(4)), 8)


class GeneratorTest(unittest.TestCase):
    def _files(self, workload: str, seed: int) -> dict:
        with tempfile.TemporaryDirectory() as d:
            inputs.generate(workload, seed, Path(d))
            return {p.name: p.read_bytes().replace(d.encode(), b"")
                    for p in sorted(Path(d).iterdir())}

    def test_same_seed_same_inputs(self):
        for workload in ("absolute-large", "relative-ext"):
            self.assertEqual(self._files(workload, 7), self._files(workload, 7))
            self.assertNotEqual(self._files(workload, 7), self._files(workload, 8))

    def test_draws_are_valid(self):
        for seed in range(1, 6):
            slopes = inputs.draw_slopes(seed)
            self.assertEqual(len(set(slopes)), 3)
            m = inputs.draw_mixing(seed)
            self.assertNotEqual(m[0][0] * m[1][1] - m[0][1] * m[1][0], 0)
            g, cartan = inputs.seeded_sl(3, seed)
            self.assertEqual((g.dim, len(cartan)), (8, 2))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_printed_metrics(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
