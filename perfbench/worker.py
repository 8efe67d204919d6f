"""One pass of one workload in a fresh interpreter, so every cache starts cold.

Usage: python3 perfbench/worker.py SPEC.json [--trace 0|1 [--spans OUT.json]] [--setup-only]

Prints one JSON object: set-up time (importing liecoh and liecoh.cli),
wall time of the queries, peak resident memory, the failed queries, the
answer digest and, with --trace 1, the per-layer summary; --spans also
writes the recorded spans there.  Oracles are checked after the clock stops.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    import liecoh  # noqa: F401
    import liecoh.cli  # noqa: F401
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import workloads

    qs = workloads.queries(spec)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    results = workloads.execute(qs)
    wall_s = time.perf_counter() - start
    out = {"setup_s": setup_s, "wall_s": wall_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary(wall_s)
        out["absent"] = tracer.absent
        if args.spans:
            tracer.dump(args.spans, out["layers"])
    outcome = workloads.check(spec, {}, results)
    out.update(attempted=outcome.attempted, failures=outcome.failures, digest=outcome.digest)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
