"""Microbenchmark harness for the simulator's hot paths.

``repro perf`` times the paths that dominate wall-clock in large
sweeps -- the event heap, cryptographic aggregation, the fabric
multicast fast path, the task layer's CPU and receive waits, and full
Kauri runs up to N = 1000 -- and writes
``BENCH_core.json`` so the numbers accumulate across PRs and CI can
fail on regressions (see ``benchmarks/perf/``).
"""

from repro.perf.micro import (
    BENCH_SCHEMA_NOTE,
    GUARDED_BENCHES,
    BenchResult,
    bench_aggregation,
    bench_capacity_ingest,
    bench_end_to_end,
    bench_event_loop,
    bench_multicast_fanout,
    bench_process_layer,
    compare_to_baseline,
    load_results,
    run_benches,
    write_results,
)

__all__ = [
    "BENCH_SCHEMA_NOTE",
    "BenchResult",
    "GUARDED_BENCHES",
    "bench_aggregation",
    "bench_capacity_ingest",
    "bench_end_to_end",
    "bench_event_loop",
    "bench_multicast_fanout",
    "bench_process_layer",
    "compare_to_baseline",
    "load_results",
    "run_benches",
    "write_results",
]
