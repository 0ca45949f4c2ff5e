"""Benchmark workloads: build a deployment from a seed, run it, check it, measure it.

Everything here goes through the repository's public API (``Cluster``,
``WorkloadHarness``, ``attach_kv_application``, ``Metrics``). Workload
parameters come from ``spec.json`` so the recorded description and the
code that runs cannot drift apart.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

SPEC: Dict[str, Any] = json.loads(
    (Path(__file__).resolve().parent / "spec.json").read_text()
)
WORKLOADS: Dict[str, Dict[str, Any]] = SPEC["workloads"]


class Deployment:
    """One built deployment plus the handles the checks and metrics need."""

    def __init__(self, name: str, seed: int):
        from repro.config import ProtocolConfig
        from repro.runtime.cluster import Cluster

        self.seed = seed
        self.params = WORKLOADS[name]
        deployment = self.params["deployment"]
        config = ProtocolConfig()
        workload_factory = None
        self.workload_spec = None
        if "workload" in self.params:
            from repro.runtime.workload import WorkloadSpec, make_workload_factory

            self.workload_spec = WorkloadSpec.from_mapping(self.params["workload"])
            workload_factory = make_workload_factory(self.workload_spec, config)
        self.cluster = Cluster(
            n=deployment["n"],
            mode=deployment["mode"],
            scenario=self.params["network"]["scenario"],
            config=config,
            height=deployment["height"],
            seed=seed,
            workload_factory=workload_factory,
        )
        self.registry = None
        self.machines: Dict[int, Any] = {}
        self.harness = None
        if self.workload_spec is not None:
            from repro.app.kvstore import OpRegistry, attach_kv_application
            from repro.runtime.workload import WorkloadHarness

            self.registry = OpRegistry()
            self.machines = attach_kv_application(self.cluster, self.registry)
            self.harness = WorkloadHarness(
                self.cluster, self.workload_spec, registry=self.registry, seed=seed
            )
        self.crash_times: List[float] = []
        crashes = self.params.get("crashes")
        if crashes:
            self._plan_crashes(crashes)
        self.summary: Optional[Dict[str, Any]] = None
        # Booting into view 0 is set-up: no simulated time passes, and it is
        # where every replica builds its view-0 tree state. Timed with the
        # run, it would charge topology with work that is not reconfiguration.
        self.cluster.start()
        if self.harness is not None:
            self.harness.start()

    def _plan_crashes(self, crashes: Dict[str, Any]) -> None:
        """Crash the view-0 leader, then one internal non-root node of the
        tree in effect at each later crash instant (seeded choice)."""
        cluster = self.cluster
        cluster.crash_at(cluster.policy.leader_of(0), crashes["leader_at"])
        self.crash_times.append(crashes["leader_at"])
        rng = random.Random(f"crash:{self.seed}")

        def crash_internal() -> None:
            view = max(node.view for node in cluster.correct_nodes())
            tree = cluster.policy.configuration(view)
            victims = [
                node for node in tree.internal_nodes
                if node != tree.root and node not in cluster.faults.faulty
            ]
            cluster.crash_at(rng.choice(victims), cluster.sim.now)

        for when in crashes["internal_at"]:
            cluster.sim.schedule_at(when, crash_internal)
            self.crash_times.append(when)

    def run(self) -> Dict[str, float]:
        """Run the simulation phase; returns its host seconds."""
        stop = self.params["stop"]
        start = time.perf_counter()
        self.cluster.run(duration=stop["duration"], max_commits=stop["max_commits"])
        sim_wall = time.perf_counter() - start
        summary_wall = 0.0
        if self.harness is not None:
            start = time.perf_counter()
            self.summary = self.harness.summary()
            summary_wall = time.perf_counter() - start
        return {"sim_wall_s": sim_wall, "summary_wall_s": summary_wall}

    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """Output checks; returns the failures (empty when the run is correct)."""
        from repro.errors import ConsensusError

        failures = []
        cluster = self.cluster
        try:
            cluster.check_agreement()
        except ConsensusError as exc:
            failures.append(f"agreement: {exc}")
        warmup = self.window()[0]
        if cluster.metrics.throughput_blocks(start=warmup) == 0:
            failures.append("no commit after warm-up")
        if self.crash_times:
            if len(cluster.faults.faulty) != len(self.crash_times):
                failures.append(
                    f"crash plan: {len(cluster.faults.faulty)} nodes down, "
                    f"{len(self.crash_times)} planned"
                )
            if cluster.metrics.commit_gap_after(max(self.crash_times)) is None:
                failures.append("no commit after the last crash")
        if self.harness is not None:
            failures.extend(self._check_clients())
        return failures

    def _check_clients(self) -> List[str]:
        from repro.app.kvstore import KvStateMachine

        failures = []
        cluster = self.cluster
        for node in cluster.nodes:
            pool = node.workload
            if pool.offered != pool.ingested + pool.dropped + pool.deferred_txs:
                failures.append(
                    f"conservation at node {node.node_id}: offered {pool.offered} "
                    f"!= ingested {pool.ingested} + dropped {pool.dropped} "
                    f"+ deferred {pool.deferred_txs}"
                )
        totals = self.summary["totals"]
        if totals["generated"] < totals["offered"]:
            failures.append("mempools were offered more txs than clients generated")
        correct = cluster.correct_nodes()
        by_height: Dict[int, set] = {}
        for node in correct:
            machine = self.machines[node.node_id]
            if machine.unknown_txs:
                failures.append(
                    f"kv at node {node.node_id}: {machine.unknown_txs} txs without an op"
                )
            by_height.setdefault(machine.applied_height, set()).add(machine.digest())
        for height, digests in by_height.items():
            if len(digests) != 1:
                failures.append(f"kv digests differ at height {height}: {sorted(digests)}")
        # Replicas that stopped at different heights must still agree on
        # their common prefix.
        common = min(by_height)
        replayed = set()
        for node in correct:
            machine = KvStateMachine(self.registry)
            machine.replay(node.store.commit_log[:common])
            replayed.add(machine.digest())
        if len(replayed) != 1:
            failures.append(f"kv digests differ at common height {common}")
        return failures

    # ------------------------------------------------------------------
    def measure(self) -> Dict[str, Any]:
        """Simulated metrics, their sample counts, and exact work counts."""
        from repro.crypto.bls import MERGE_STATS
        from repro.runtime.metrics import percentile

        cluster = self.cluster
        metrics = cluster.metrics
        warmup, end = self.window()
        records = [r for r in metrics.records() if warmup <= r.time < end]
        block_latencies = metrics.latencies(start=warmup)
        sim = {
            "sim_tput_txs": metrics.throughput_txs(start=warmup),
            "sim_latency_p50_s": metrics.latency_stats(start=warmup)["p50"],
            "sim_outage_s": self._outage(warmup),
        }
        samples = {
            "sim_tput_txs": len(records),
            "sim_latency_p50_s": len(block_latencies),
            "sim_outage_s": len(self.crash_times) or max(0, len(records) - 1),
        }
        if self.summary is not None:
            totals = self.summary["totals"]
            within = sum(
                entry["slo"]["attainment"] * entry["committed"]
                for entry in self.summary["classes"]
            )
            sim["client_latency_p50_s"] = totals["latency"]["p50"]
            sim["client_latency_p999_s"] = totals["latency"]["p999"]
            sim["client_slo_frac"] = within / totals["generated"]
            samples["client_latency"] = totals["committed"]
            samples["client_slo_frac"] = totals["generated"]
            samples["client_txs"] = totals["generated"]
        else:
            # Saturated leader: each tx is created when its block is
            # filled, so it waits exactly its block's commit latency.
            tx_latencies = sorted(
                latency for r in records for latency in [r.latency] * r.num_txs
            )
            slo_s = self.params["slo_ms"] / 1000.0
            if not tx_latencies:  # check() reports the empty window
                tx_latencies = [0.0]
            sim["client_latency_p50_s"] = percentile(tx_latencies, 50)
            sim["client_latency_p999_s"] = percentile(tx_latencies, 99.9)
            sim["client_slo_frac"] = sum(
                1 for latency in tx_latencies if latency <= slo_s
            ) / len(tx_latencies)
            samples["client_latency"] = len(tx_latencies)
            samples["client_slo_frac"] = len(tx_latencies)
            samples["client_txs"] = sum(r.num_txs for r in metrics.records())

        nics = [cluster.network.nic(node_id) for node_id in cluster.network.nics]
        cpus = [node.cpu for node in cluster.nodes]
        pools = [node.workload for node in cluster.nodes if node.workload is not None]
        counts = {
            "blocks": metrics.committed_blocks,
            "events": cluster.sim.events_processed,
            "msgs_sent": cluster.network.messages_sent,
            "msgs_delivered": cluster.network.messages_delivered,
            "msgs_dropped": cluster.faults.dropped_messages,
            "bytes_sent": sum(nic.bytes_sent for nic in nics),
            "nic_msgs": sum(nic.messages_sent for nic in nics),
            "nic_queueing_s": sum(nic.total_queueing_delay for nic in nics),
            "cpu_jobs": sum(cpu.jobs_completed for cpu in cpus),
            "cpu_jobs_cancelled": sum(cpu.jobs_cancelled for cpu in cpus),
            "cpu_busy_s": sum(cpu.busy_time for cpu in cpus),
            "view_changes": len(metrics.view_changes),
            "max_view": metrics.max_view,
            "instance_failures": sum(node.instance_failures for node in cluster.nodes),
            "bls_slots_shared": MERGE_STATS.slots_shared,
            "bls_slot_copies": MERGE_STATS.slot_copies,
            "bls_entries_examined": MERGE_STATS.entries_examined,
            "generated": self.summary["totals"]["generated"] if self.summary else 0,
            "offered": sum(pool.offered for pool in pools),
            "admitted": sum(pool.ingested for pool in pools),
            "ops_recorded": len(self.registry) if self.registry is not None else 0,
            "ops_applied": sum(m.ops_applied for m in self.machines.values()),
        }
        return {"sim": sim, "samples": samples, "counts": counts}

    def experiment_mismatches(self) -> List[str]:
        """Run the same workload through ``run_experiment`` (the path
        ``repro run``/``repro capacity`` take) and compare its simulated
        metrics with this deployment's. The crash workload is skipped:
        its internal-node victims are chosen while it runs, which
        ``run_experiment``'s static crash list cannot express."""
        from repro.runtime.experiment import run_experiment

        if self.crash_times:
            return []
        deployment, stop = self.params["deployment"], self.params["stop"]
        result = run_experiment(
            mode=deployment["mode"],
            scenario=self.params["network"]["scenario"],
            n=deployment["n"],
            height=deployment["height"],
            duration=stop["duration"],
            max_commits=stop["max_commits"],
            warmup_fraction=SPEC["warmup_fraction"],
            seed=self.seed,
            workload=self.params.get("workload"),
        )
        theirs = {
            "sim_tput_txs": result.throughput_txs,
            "sim_latency_p50_s": result.latency["p50"],
        }
        if result.workload is not None:
            theirs["client_latency_p50_s"] = result.workload["totals"]["latency"]["p50"]
            theirs["client_latency_p999_s"] = result.workload["totals"]["latency"]["p999"]
        ours = self.measure()["sim"]
        return [
            f"fidelity: {key} {ours[key]} != run_experiment's {value}"
            for key, value in theirs.items()
            if ours[key] != value
        ]

    def window(self):
        """The measurement window ``[warmup, end)``, as ExperimentResult uses."""
        end = self.cluster.sim.now
        return min(end * SPEC["warmup_fraction"], end), end

    def _outage(self, warmup: float) -> float:
        metrics = self.cluster.metrics
        end = self.cluster.sim.now
        if self.crash_times:
            gaps = [metrics.commit_gap_after(when) for when in self.crash_times]
            return max(end - when if gap is None else gap
                       for when, gap in zip(self.crash_times, gaps))
        times = [r.time for r in metrics.records() if r.time >= warmup]
        return max((b - a for a, b in zip(times, times[1:])), default=0.0)
