"""Benchmark runner: repeats one workload in fresh processes and reports it.

    python3 perfbench/run.py --workload kauri-n400 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` runs reps (``rep.py``, one fresh process each, one after the
other) until the next rep would overrun ``--seconds``, at least
``min_reps`` of them, and reports the end-to-end metrics: host timings
in nominal seconds (see probe.py) as medians over reps, simulated
metrics from the reps, which must agree exactly. ``--trace 1`` runs one untraced and two traced reps and reports
the per-layer metrics plus the tracing overhead. ``--workload all`` runs
every workload both ways. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"
OUT_DIR = ROOT / ".perfbench_out"
REP_TIMEOUT_S = 170

#: Samples behind each end-to-end metric, as printed next to it.
SAMPLE_KEYS = {
    "sim_tput_txs": ("sim_tput_txs", "blocks in window"),
    "sim_latency_p50_s": ("sim_latency_p50_s", "block latencies in window"),
    "sim_outage_s": ("sim_outage_s", "crash gaps / commit gaps"),
    "client_latency_p50_s": ("client_latency", "tx latencies"),
    "client_latency_p999_s": ("client_latency", "tx latencies"),
    "client_slo_frac": ("client_slo_frac", "txs"),
}


def run_rep(
    workload: str, seed: int, trace_out: str = None, fidelity: bool = False
) -> Dict[str, Any]:
    """One rep in a fresh process; a crash or bad output becomes a failure."""
    command = [sys.executable, str(REP), "--workload", workload, "--seed", str(seed)]
    if trace_out:
        command += ["--trace-out", trace_out]
    if fidelity:
        command.append("--fidelity")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"rep timed out after {REP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
    return {"failures": [f"rep exited with code {proc.returncode} without a result: {tail}"]}


def check_determinism(reps: List[Dict[str, Any]]) -> None:
    """Every correct rep of one seed must reproduce the first one's
    simulated metrics and exact counts; a mismatch fails the rep."""
    good = [rep for rep in reps if not rep["failures"]]
    if not good:
        return
    reference = good[0]
    for rep in good[1:]:
        differ = sorted(
            f"{part}.{key}"
            for part in ("sim", "counts")
            for key in set(reference[part]) | set(rep[part])
            if reference[part].get(key) != rep[part].get(key)
        )
        if differ:
            rep["failures"].append(f"determinism: differs from first rep in {differ}")


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Host timings in nominal seconds (see probe.py), medians over reps;
    simulated metrics from the first rep (all reps agree exactly)."""
    good = [rep for rep in reps if not rep["failures"]]
    values = {
        "blocks_per_wall_s": statistics.median(
            rep["counts"]["blocks"] / (rep["sim_wall_s"] * rep["run_scale"]) for rep in good
        ),
        "txs_per_wall_s": statistics.median(
            rep["samples"]["client_txs"]
            / ((rep["sim_wall_s"] + rep["summary_wall_s"]) * rep["run_scale"])
            for rep in good
        ),
        "setup_s": statistics.median(
            s * rep["setup_scale"] for rep in good for s in rep["setup_s"]
        ),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in good),
    }
    values.update(good[0]["sim"])
    return values


def beyond(count: int, p: float) -> int:
    """Samples lying beyond the nearest-rank percentile ``p``."""
    return count - max(1, math.ceil(p / 100.0 * count))


def report_end_to_end(
    name: str, reps: List[Dict[str, Any]], values: Dict[str, float], units: Dict[str, str]
) -> None:
    good = [rep for rep in reps if not rep["failures"]]
    samples = good[0]["samples"]
    for metric, unit in units.items():
        if metric in SAMPLE_KEYS:
            key, what = SAMPLE_KEYS[metric]
            note = f"n={samples[key]} {what}"
            if metric == "client_latency_p999_s":
                tail = beyond(samples[key], 99.9)
                note += f", {tail} beyond p99.9" + ("" if tail >= 10 else " (unsupported: fewer than 10)")
        elif metric == "setup_s":
            note = f"median of {sum(len(rep['setup_s']) for rep in good)} set-ups"
        else:
            note = f"median of {len(good)} reps"
        print(f"  {metric:24s} {values[metric]:>14.6g} {unit:10s} {note}")
    raw = statistics.median(rep["counts"]["blocks"] / rep["sim_wall_s"] for rep in good)
    scale = statistics.median(rep["run_scale"] for rep in good)
    print(f"  (unscaled: {raw:.6g} blocks per host second; host-to-nominal scale {scale:.4g})")
    failed = sum(1 for rep in reps if rep["failures"])
    print(f"  {'failed_frac':24s} {failed / len(reps):>14.6g} {'ratio':10s} {failed} of {len(reps)} reps")


def report_checks(params: Dict[str, Any], reps: List[Dict[str, Any]], traced: bool) -> None:
    good = [rep for rep in reps if not rep["failures"]]
    checks = ["agreement", "a commit after warm-up"]
    if "crashes" in params:
        checks += ["crash plan applied", "commit after the last crash"]
    if "workload" in params:
        checks += ["offered == ingested + dropped + deferred", "kv digests agree"]
    checks.append(f"determinism across {len(reps)} reps of one seed")
    if traced and "crashes" not in params:
        checks.append("simulated metrics match run_experiment")
    status = "ok" if len(good) == len(reps) else "FAILED"
    print(f"  checks {status}: {', '.join(checks)}")
    for index, rep in enumerate(reps):
        for failure in rep["failures"]:
            print(f"  rep {index + 1} failed: {failure}")


def measure(name: str, seed: int, seconds: float, min_reps: int) -> List[Dict[str, Any]]:
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(name, seed))
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def trace(name: str, seed: int) -> List[Dict[str, Any]]:
    """One untraced rep, which also checks the deployment against
    ``run_experiment``, then two traced ones: the second traced rep checks
    that the counts only the profiler sees repeat exactly too."""
    spans_path = str(OUT_DIR / f"{name}-seed{seed}-spans.csv.gz")
    reps = [run_rep(name, seed, fidelity=True)]
    reps += [run_rep(name, seed, trace_out=spans_path) for _ in range(2)]
    first, second = reps[1], reps[2]
    if not first["failures"] and not second["failures"]:
        differ = sorted(
            key for key in first["layers"]
            if not is_host_time(key) and first["layers"][key] != second["layers"][key]
        ) + sorted(
            f"span {span}" for span in first["spans"]
            if first["spans"][span]["count"] != second["spans"].get(span, {}).get("count")
        )
        if differ:
            second["failures"].append(f"determinism: traced counts differ in {differ}")
    return reps


def is_host_time(metric: str) -> bool:
    return metric.endswith("self_ms_per_block") or metric.startswith("trace.overhead")


def per_layer(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Counts from the traced reps (identical by check); host times are
    the mean of the two traced reps."""
    untraced, traced = reps[0], reps[1:]
    values = {
        key: statistics.fmean(rep["layers"][key] for rep in traced) if is_host_time(key) else value
        for key, value in traced[0]["layers"].items()
    }
    traced_wall = statistics.fmean(rep["sim_wall_s"] * rep["run_scale"] for rep in traced)
    untraced_wall = untraced["sim_wall_s"] * untraced["run_scale"]
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced_wall
    values["trace.spans"] = traced[0]["span_count"]
    return values


def report_trace(name: str, seed: int, reps: List[Dict[str, Any]], values, units) -> None:
    untraced, traced = reps[0], reps[1]
    print(
        f"  traced sim wall {traced['sim_wall_s']:.3f} s (first traced rep) vs untraced "
        f"{untraced['sim_wall_s']:.3f} s; spans in "
        f"{(OUT_DIR / f'{name}-seed{seed}-spans.csv.gz').relative_to(ROOT)}"
    )
    for metric, unit in units.items():
        print(f"  {metric:32s} {values[metric]:>14.6g} {unit}")
    print("  spans (count, total ms, self ms):")
    spans = sorted(traced["spans"].items(), key=lambda item: -item[1]["self_ms"])
    for span, entry in spans:
        print(
            f"    {span:40s} {entry['count']:>9d} {entry['total_ms']:>12.1f} "
            f"{entry['self_ms']:>12.1f}"
        )


def run_workload(name: str, seed: int, seconds: float, traced: bool, bench, spec):
    units_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    mode = "traced" if traced else "end-to-end"
    print(f"workload {name} seed {seed} ({mode})")
    reps = trace(name, seed) if traced else measure(name, seed, seconds, spec["min_reps"])
    check_determinism(reps)
    report_checks(spec["workloads"][name], reps, traced)
    good = [rep for rep in reps if not rep["failures"]]
    if not good or (traced and len(good) != len(reps)):
        return reps, None
    if traced:
        values = per_layer(reps)
        report_trace(name, seed, reps, values, units_layer)
        units = units_layer
    else:
        values = end_to_end(reps)
        report_end_to_end(name, reps, values, units_e2e)
        units = units_e2e
    return reps, {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the perfbench benchmark.")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2
    seed = spec["seeds"]["development"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    if args.workload == "all":
        runs = [(name, traced) for name in names for traced in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    metrics: Dict[str, Any] = {}
    for name, traced in runs:
        reps, values = run_workload(name, seed, seconds, traced, bench, spec)
        attempted += len(reps)
        failed += sum(1 for rep in reps if rep["failures"])
        if values is not None:
            prefix = f"{name}/" if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in values.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
