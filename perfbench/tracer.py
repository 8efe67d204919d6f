"""Outside-in span recorder for the public functions of the liecoh layers.

The tracer replaces every reference that a ``liecoh.*`` module holds to a
listed function (and the class attribute, for methods) with a wrapper that
records one span per call: which function, start, end and the enclosing
span.  Spans live in flat arrays while the workload runs; self time,
layer totals and counters are worked out afterwards.  A listed function
that the library no longer has is reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# layer -> functions, each named "<module>.<qualified name>" inside liecoh
LAYERS = {
    "assembly": (
        "cecomplex.differential_matrix",
        "cecomplex.interior_product_matrix",
        "cecomplex.lie_derivative_matrix",
        "cecomplex.j_map_matrix",
        "cecomplex.wedge_one_form_matrix",
    ),
    "relative": ("cecomplex.relative_subspace",),
    "elimination": (
        "ratlin.Matrix.rank",
        "ratlin.Matrix.kernel_basis",
        "ratlin.Matrix.rref",
        "ratlin.echelon_basis",
        "ratlin.span_rank",
        "ratlin.quotient_dim",
    ),
    "dense": ("ratlin.Matrix.__mul__", "ratlin.Matrix.apply", "ratlin.Matrix.__eq__"),
    "cohomology": (
        "cohomology.cohomology",
        "ratlin.EchelonSpan.add",
        "cohomology.duality_report",
        "cohomology.invariant_volume_form",
    ),
    "suite": (
        "suite.run_suite",
        "suite.run_operator_identity_suite",
        "suite.check_operator_identities",
    ),
    "catalog": (
        "extensions.builtin",
        "extensions.central_extension",
        "extensions.verify_vanishing",
        "liealg.validate",
        "liealg.subalgebra",
        "gmod.module_from_spec",
    ),
    "io": ("files.load_algebra", "files.Report.machine_text", "cli.main"),
}
FUNCTIONS = tuple(name for names in LAYERS.values() for name in names)
COUNT_SPAN = "trace.count"  # time spent in the tracer's own counters


def self_times(fids, starts, ends, parents, n_ids: int) -> list[float]:
    """Per-id self time: each span's duration minus its direct children's.

    Calls are strictly nested (one thread), so the children of a span cover
    disjoint parts of it and their durations can simply be subtracted.
    """
    child = [0.0] * len(fids)
    for i in range(len(fids)):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out = [0.0] * n_ids
    for i, fid in enumerate(fids):
        out[fid] += ends[i] - starts[i] - child[i]
    return out


def _count_nnz(m) -> int:
    return sum(1 for row in m.entries for x in row if x)


class Tracer:
    """Records spans for the functions in FUNCTIONS; see module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = [COUNT_SPAN]
        self.fids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.outermost = array("b")  # 1 when no enclosing span has the same function
        self.stack: list[int] = []
        self.depth: list[int] = [0]
        self.counters = {
            "cecomplex.assembled_cells": 0,
            "cecomplex.assembled_nnz": 0,
            "ratlin.elim_cells": 0,
            "ratlin.elim_rank": 0,
        }
        self._relative_dim = 0
        self._relative_space = 0
        self.absent: list[str] = []
        self.caches: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.fids)
        self.fids.append(fid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.outermost.append(self.depth[fid] == 0)
        self.depth[fid] += 1
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts[idx] = self.clock()
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()
        self.depth[self.fids[idx]] -= 1

    def wrap(self, name: str, fn, counter=None):
        """A wrapper that records a span named `name` around each call of fn."""
        fid = len(self.names)
        self.names.append(name)
        self.depth.append(0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                cidx = self._open(0)
                try:
                    counter(args, result)
                finally:
                    self._close(cidx)
            return result

        return traced

    # -- installing ----------------------------------------------------

    def _counter_for(self, name: str, original):
        c = self.counters
        if name in LAYERS["assembly"]:
            info = getattr(original, "cache_info", None)
            misses = [info().misses] if info else None

            def count_matrix(args, m):
                if misses is not None:
                    now = info().misses
                    if now == misses[0]:
                        return  # a cache hit assembles nothing
                    misses[0] = now
                c["cecomplex.assembled_cells"] += m.rows * m.cols
                c["cecomplex.assembled_nnz"] += _count_nnz(m)

            return count_matrix
        if name == "cecomplex.relative_subspace":
            info = original.cache_info
            misses = [info().misses]

            def count_relative(args, basis):
                now = info().misses
                if now != misses[0]:
                    misses[0] = now
                    self._relative_dim += len(basis)
                    self._relative_space += args[0].space_dim

            return count_relative
        if name in ("ratlin.Matrix.rank", "ratlin.Matrix.kernel_basis", "ratlin.Matrix.rref"):
            method = name.rsplit(".", 1)[1]

            def count_elimination(args, result):
                m = args[0]
                c["ratlin.elim_cells"] += m.rows * m.cols
                if method == "rank":
                    c["ratlin.elim_rank"] += result
                elif method == "kernel_basis":
                    c["ratlin.elim_rank"] += m.cols - len(result)
                else:
                    c["ratlin.elim_rank"] += len(result[1])

            return count_elimination
        return None

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "liecoh" or n.startswith("liecoh.")) and m is not None]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and hasattr(obj, "cache_info")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    self.caches[attr] = obj
        for name in FUNCTIONS:
            module_name, _, qualname = name.partition(".")
            owner = sys.modules.get(f"liecoh.{module_name}")
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, self._counter_for(name, original))
            if len(parts) > 1:
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary -------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-function calls and times, layer shares of wall_s, counters, cache ratios."""
        n = len(self.names)
        selfs = self_times(self.fids, self.starts, self.ends, self.parents, n)
        calls = [0] * n
        total = [0.0] * n  # outermost spans only, so recursion is not counted twice
        nested = [0.0] * n
        for i, fid in enumerate(self.fids):
            calls[fid] += 1
            if self.outermost[i]:
                total[fid] += self.ends[i] - self.starts[i]
            else:
                nested[fid] += self.ends[i] - self.starts[i]

        def share(seconds: float) -> float:
            return 100.0 * seconds / wall_s if wall_s else 0.0

        out: dict[str, float] = {}
        for fid, name in enumerate(self.names):
            if fid == 0:
                continue
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.self_s"] = selfs[fid]
            out[f"{name}.total_s"] = total[fid]
            out[f"{name}.total_share"] = share(total[fid])
        for layer, names in LAYERS.items():
            busy = sum(out.get(f"{name}.self_s", 0.0) for name in names)
            out[f"layer.{layer}.self_s"] = busy
            out[f"layer.{layer}.share"] = share(busy)
        out.update(self.counters)
        out["cecomplex.relative_keep_ratio"] = (
            self._relative_dim / self._relative_space if self._relative_space else 0.0
        )
        if "suite.run_suite" in self.names:
            rerun = nested[self.names.index("suite.run_suite")]
            out["suite.mutation_rerun_s"] = rerun
            out["suite.mutation_rerun_share"] = share(rerun)
        out["trace.count_s"] = selfs[0]
        out["trace.spans"] = len(self.fids)
        for attr, fn in sorted(self.caches.items()):
            info = fn.cache_info()
            looked_up = info.hits + info.misses
            out[f"cache.{attr}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        return out

    def dump(self, path, summary: dict) -> None:
        """Write the spans, column by column, with their summary as JSON."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fid": self.fids.tolist(),
                       "start": self.starts.tolist(), "end": self.ends.tolist(),
                       "parent": self.parents.tolist(), "summary": summary}, fh)
