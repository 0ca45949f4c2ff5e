"""One repetition of one workload, in a fresh single-threaded process.

    python3 perfbench/rep.py --workload kauri-n400 --seed 1 [--trace-out FILE] [--fidelity]

Builds the deployment ``setups_per_rep`` times (each build timed, the last
one kept), runs it, checks its outputs and prints one JSON object with the
host timings, simulated metrics, exact work counts and check failures.
With ``--trace-out`` the simulation phase runs under the span wrappers
and the layer profiler; the spans are written to FILE. ``--fidelity``
re-runs the workload through ``run_experiment`` after everything is
measured and fails the rep if its simulated metrics differ.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

def layer_metrics(counts, spans, profile, scale: float) -> dict:
    """Per-layer metrics of a traced rep: counts, and self time per block
    in nominal milliseconds (``scale`` converts host seconds)."""
    from repro.sim.process import Task

    blocks = counts["blocks"]
    own = profile.self_seconds()
    layers = set(profile.module_to_layer.values()) | {"bench", "other", "unmapped"}
    out = {
        f"{layer}.self_ms_per_block": own.get(layer, 0.0) * scale * 1e3 / blocks
        for layer in layers
    }
    combines = spans.get("BlsCollection.combine", {}).get("count", 0)
    out.update({
        "engine.events_per_block": counts["events"] / blocks,
        "process.resumptions_per_block": profile.calls(Task._step) / blocks,
        "process.tasks_per_block": profile.calls(Task.__init__) / blocks,
        "cpu.jobs_per_block": counts["cpu_jobs"] / blocks,
        "cpu.jobs_cancelled": counts["cpu_jobs_cancelled"],
        "cpu.sim_busy_s_per_block": counts["cpu_busy_s"] / blocks,
        "net.msgs_per_block": counts["msgs_sent"] / blocks,
        "net.bytes_per_block": counts["bytes_sent"] / blocks,
        "net.dropped_frac": counts["msgs_dropped"] / max(1, counts["msgs_sent"]),
        "nic.sim_queue_ms_per_msg": counts["nic_queueing_s"] * 1e3 / max(1, counts["nic_msgs"]),
        "bls.merges_per_block": combines / blocks,
        "bls.slots_shared_per_block": counts["bls_slots_shared"] / blocks,
        "smr.view_changes": counts["view_changes"],
        "smr.instance_failures": counts["instance_failures"],
        "topology.reconfigs": counts["max_view"],
        "workload.generated": counts["generated"],
        "mempool.admitted_frac": counts["admitted"] / counts["offered"] if counts["offered"] else 0.0,
        "kv.ops_recorded": counts["ops_recorded"],
        "kv.ops_applied_per_block": counts["ops_applied"] / blocks,
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument(
        "--fidelity", action="store_true",
        help="also compare the simulated metrics with run_experiment's (untimed)",
    )
    args = parser.parse_args()

    from probe import NOMINAL_S, Probe, SpeedSampler
    from repro.crypto.bls import MERGE_STATS
    from workloads import SPEC, Deployment

    probe = Probe()
    before_setup = probe.time()
    setup_s = []
    for _ in range(SPEC["setups_per_rep"]):
        deployment = None  # free the previous build outside the timed region
        gc.collect()
        start = time.perf_counter()
        deployment = Deployment(args.workload, args.seed)
        setup_s.append(time.perf_counter() - start)
    gc.collect()
    before_run = probe.time()
    MERGE_STATS.reset()

    spans = profile = None
    if args.trace_out:
        # No speed sampling here: the profiler would charge the probe to
        # the layers.
        from tracing import LayerProfile, SpanRecorder

        spans = SpanRecorder()
        spans.install(SPEC["trace"]["span_entry_points"])
        profile = LayerProfile(SPEC["module_to_layer"])
        profile.start()
        try:
            walls = deployment.run()
        finally:
            profile.stop()
            spans.uninstall()
        speeds = []
    else:
        with SpeedSampler(probe) as sampler:
            walls = deployment.run()
        walls["sim_wall_s"] -= sampler.spent
        speeds = sampler.speeds
    after_run = probe.time()

    out = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s, **walls}
    # Host seconds -> nominal seconds: mean host speed over the probes
    # taken around and during each phase.
    out["setup_scale"] = statistics.fmean(NOMINAL_S / t for t in (before_setup, before_run))
    out["run_scale"] = statistics.fmean(
        [NOMINAL_S / before_run, *speeds, NOMINAL_S / after_run]
    )
    out["failures"] = deployment.check()
    out.update(deployment.measure())
    if spans is not None:
        span_summary = spans.summary()
        spans.write(args.trace_out)
        out["spans"] = span_summary
        out["span_count"] = len(spans.names)
        if out["counts"]["blocks"]:
            out["layers"] = layer_metrics(
                out["counts"], span_summary, profile, out["run_scale"]
            )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.fidelity:
        out["failures"] += deployment.experiment_mismatches()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
