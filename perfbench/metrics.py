"""Names and units of the metrics the benchmark prints; BENCHMARK.json lists the same.

Per-layer time metrics are listed only for functions and layers that every
workload reaches, so none of them reads 0 on every run of some workload;
layers that a workload skips are covered by call counts and shares of the
pass's wall time.  The spans file of a traced run holds every function's
self and total time.
"""

from tracer import FUNCTIONS, LAYERS

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

TIMED_FUNCTIONS = (
    "cecomplex.differential_matrix",
    "ratlin.Matrix.rank",
    "ratlin.Matrix.kernel_basis",
    "ratlin.span_rank",
    "ratlin.quotient_dim",
    "ratlin.Matrix.__mul__",
    "ratlin.EchelonSpan.add",
    "cohomology.cohomology",
    "liealg.validate",
    "gmod.module_from_spec",
    "files.Report.machine_text",
    "cli.main",
)
TIMED_LAYERS = ("assembly", "elimination", "dense", "cohomology", "catalog", "io")
CACHED = (
    "adjoint_module", "builtin", "coadjoint_module", "differential_matrix", "killing_form",
    "relative_subspace", "structure_report", "trivial_module", "tuple_basis",
)

PER_LAYER = {
    **{f"{name}.calls": "count" for name in FUNCTIONS},
    **{f"{name}.self_s": "s" for name in TIMED_FUNCTIONS},
    **{f"layer.{layer}.self_s": "s" for layer in TIMED_LAYERS},
    **{f"layer.{layer}.share": "%" for layer in LAYERS},
    "cecomplex.relative_subspace.total_share": "%",
    "suite.mutation_rerun_share": "%",
    "cecomplex.assembled_cells": "count",
    "cecomplex.assembled_nnz": "count",
    "cecomplex.relative_keep_ratio": "ratio",
    "ratlin.elim_cells": "count",
    "ratlin.elim_rank": "count",
    **{f"cache.{name}.hit_ratio": "ratio" for name in CACHED},
    "trace.overhead_s": "s",
    "trace.count_s": "s",
    "trace.spans": "count",
}


def _report(values: dict, units: dict) -> dict:
    # a metric whose function is gone from the library is left out, not faked
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values}


def end_to_end(values: dict) -> dict:
    return _report(values, END_TO_END)


def per_layer(values: dict) -> dict:
    return _report(values, PER_LAYER)
