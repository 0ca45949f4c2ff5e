"""Per-tick KV recording and run-wise latency accounting.

The workload engine records one ``OpRegistry`` run per class tick and
builds each ``KvOp`` only when a committed block applies it; commits are
accounted one tick run at a time with counted histogram adds. These
tests hold both against the per-transaction paths they replaced, which
are kept here as oracles.
"""

from bisect import bisect_right
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, ProtocolConfig
from repro.app.kvstore import (
    KvOp,
    KvStateMachine,
    OpRegistry,
    attach_kv_application,
)
from repro.consensus.block import Block
from repro.errors import ConfigError
from repro.runtime import LatencyHistogram
from repro.runtime.metrics import E2E_PERCENTILES
from repro.runtime.workload import (
    ClientClassSpec,
    WorkloadHarness,
    WorkloadSpec,
    make_workload_factory,
)


# ---------------------------------------------------------------------------
# Oracles: the per-transaction paths
# ---------------------------------------------------------------------------
class PerTxRecordingHarness(WorkloadHarness):
    """Records one explicit ``KvOp`` per generated transaction."""

    def _record_ops(self, state, seq, count):
        record = self.registry.record
        name = state.spec.name
        client_id = state.client_id
        for offset, key_index in enumerate(self._zipf.sample_batch(count)):
            tx_seq = seq + offset
            record(
                (client_id, tx_seq),
                KvOp(kind="set", key=f"k{key_index}", value=f"{name}s{tx_seq}"),
            )


def per_tx_on_commit(harness, record, block):
    """Two single histogram adds per committed workload transaction."""
    commit_time = record.time
    for tx_id in block.tx_ids:
        state = harness._class_by_client.get(tx_id[0])
        if state is None:
            continue
        index = bisect_right(state.submit_seqs, tx_id[1]) - 1
        if index < 0:
            continue
        latency = commit_time - state.submit_times[index]
        state.hist.add(latency)
        if latency <= state.slo_target_s:
            state.within_slo += 1
        harness._latency_hist.add(latency)


def hist_state(hist):
    return (dict(hist.counts), hist.count, hist.min, hist.max, hist.total)


# ---------------------------------------------------------------------------
# Registry: lazy runs vs per-tx records
# ---------------------------------------------------------------------------
def zipf_spec(keyspace):
    return WorkloadSpec(
        classes=(
            ClientClassSpec(name="mobile", population=40_000,
                            rate_per_user=0.01,
                            mmpp=((0.5, 0.5), (2.0, 0.3))),
            ClientClassSpec(name="api", population=10_000,
                            rate_per_user=0.02, slo_ms=400.0),
            ClientClassSpec(name="batch", population=500,
                            rate_per_user=0.1),
        ),
        keyspace=keyspace,
        zipf_s=0.99,
        capacity_txs=300,
        policy="drop",
        batch_interval=0.05,
        jitter=True,
    )


def run_kv(harness_cls, keyspace, seed=5, duration=3.0):
    spec = zipf_spec(keyspace)
    config = ProtocolConfig()
    cluster = Cluster(
        n=7, mode="kauri", scenario="national", config=config, seed=seed,
        workload_factory=make_workload_factory(spec, config),
    )
    registry = OpRegistry()
    machines = attach_kv_application(cluster, registry)
    harness = harness_cls(cluster, spec, registry=registry, seed=seed)
    cluster.start()
    harness.start()
    cluster.run(duration=duration)
    return cluster, harness, registry, machines


@pytest.fixture(scope="module", params=[16, 50_000], ids=["small-keys", "large-keys"])
def lazy_and_oracle(request):
    lazy = run_kv(WorkloadHarness, request.param)
    oracle = run_kv(PerTxRecordingHarness, request.param)
    return lazy, oracle


class TestRegistryDifferential:
    def test_every_generated_id_matches_the_per_tx_oracle(self, lazy_and_oracle):
        (_, harness, lazy, _), (_, oracle_harness, oracle, _) = lazy_and_oracle
        assert harness.summary() == oracle_harness.summary()
        generated = 0
        for state in harness.classes:
            assert state.generated > 0
            generated += state.generated
            for seq in range(state.generated):
                tx_id = (state.client_id, seq)
                assert lazy.get(tx_id) == oracle.get(tx_id), tx_id
        assert len(lazy) == len(oracle) == generated

    def test_ids_outside_every_run(self, lazy_and_oracle):
        (_, harness, lazy, _), (_, _, oracle, _) = lazy_and_oracle
        unknown_client = max(state.client_id for state in harness.classes) + 1000
        for state in harness.classes:
            for tx_id in (
                (state.client_id, -1),                 # before the first tick
                (state.client_id, state.generated),    # after the last tick
                (unknown_client, 0),                   # no such client
            ):
                assert lazy.get(tx_id) is None
                assert oracle.get(tx_id) is None
        assert len(lazy) == len(oracle)

    def test_replayed_digests_match(self, lazy_and_oracle):
        (cluster, _, lazy, machines), (oracle_cluster, _, oracle, _) = lazy_and_oracle
        log = cluster.nodes[0].store.commit_log
        assert log == oracle_cluster.nodes[0].store.commit_log
        assert machines[0].ops_applied > 0
        replayed = KvStateMachine(lazy)
        replayed.replay(log)
        reference = KvStateMachine(oracle)
        reference.replay(log)
        assert replayed.digest() == reference.digest() == machines[0].digest()
        assert replayed.state == reference.state
        assert replayed.unknown_txs == reference.unknown_txs == 0


class TestRegistryUnit:
    def test_built_op_is_memoised_and_counted_once(self):
        registry = OpRegistry()
        registry.record_run(3, 10, "web", [4, 0, 4])
        assert len(registry) == 3
        op = registry.get((3, 11))
        assert op == KvOp("set", "k0", "webs11")
        assert registry.get((3, 11)) is op
        assert len(registry) == 3
        assert registry.get((3, 9)) is None
        assert registry.get((3, 13)) is None

    def test_explicit_records_and_runs_coexist(self):
        registry = OpRegistry()
        registry.record((1, 0), KvOp("delete", "k2"))
        registry.record_run(2, 0, "c", [2])
        assert len(registry) == 2
        assert registry.get((1, 0)) == KvOp("delete", "k2")
        assert registry.get((2, 0)) == KvOp("set", "k2", "cs0")
        assert len(registry) == 2

    def test_gaps_between_runs_have_no_op(self):
        registry = OpRegistry()
        registry.record_run(0, 0, "a", [1, 2])
        registry.record_run(0, 5, "a", [3])
        assert registry.get((0, 1)) == KvOp("set", "k2", "as1")
        assert registry.get((0, 3)) is None
        assert registry.get((0, 5)) == KvOp("set", "k3", "as5")

    def test_overlapping_run_rejected(self):
        registry = OpRegistry()
        registry.record_run(0, 0, "a", [1, 2, 3])
        with pytest.raises(ConfigError):
            registry.record_run(0, 2, "a", [1])


# ---------------------------------------------------------------------------
# Latency accounting
# ---------------------------------------------------------------------------
latencies = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


class TestCountedHistogramAdd:
    @settings(max_examples=200, deadline=None)
    @given(
        prefix=st.lists(latencies, max_size=20),
        value=latencies,
        count=st.integers(min_value=1, max_value=300),
    )
    def test_counted_add_equals_repeated_single_adds(self, prefix, value, count):
        counted, repeated = LatencyHistogram(), LatencyHistogram()
        for earlier in prefix:
            counted.add(earlier)
            repeated.add(earlier)
        counted.add(value, count)
        for _ in range(count):
            repeated.add(value)
        assert hist_state(counted) == hist_state(repeated)
        assert counted.summary(E2E_PERCENTILES) == repeated.summary(E2E_PERCENTILES)

    def test_rejects_non_positive_count(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.add(0.5, 0)
        assert hist.count == 0 and not hist.counts


def accounting_harness(seed=0):
    """A harness whose per-tick submit arrays are filled by hand."""
    spec = WorkloadSpec(
        classes=(
            ClientClassSpec(name="a", population=10, rate_per_user=1.0,
                            slo_ms=250.0),
            ClientClassSpec(name="b", population=10, rate_per_user=1.0,
                            slo_ms=600.0),
        ),
    )
    config = ProtocolConfig()
    cluster = Cluster(
        n=4, mode="kauri", scenario="national", config=config, seed=seed,
        workload_factory=make_workload_factory(spec, config),
    )
    harness = WorkloadHarness(cluster, spec, seed=seed)
    # Ticks of class a start at seqs 0, 5, 9 (tick 2 open-ended); b at 0, 3.
    a, b = harness.classes
    a.submit_seqs[:] = [0, 5, 9]
    a.submit_times[:] = [0.1, 0.2, 0.35]
    b.submit_seqs[:] = [0, 3]
    b.submit_times[:] = [0.15, 0.3]
    return harness


def block_of(tx_ids, height=1):
    return Block.create(
        height=height, view=0, parent="p", proposer=0, payload_size=0,
        num_txs=len(tx_ids), created_at=0.0, tx_ids=tx_ids,
    )


class TestRunWiseCommit:
    def assert_same_accounting(self, blocks):
        runwise, per_tx = accounting_harness(), accounting_harness()
        for time, tx_ids in blocks:
            record = SimpleNamespace(time=time)
            block = block_of(tx_ids)
            runwise._on_commit(record, block)
            per_tx_on_commit(per_tx, record, block)
        for left, right in zip(runwise.classes, per_tx.classes):
            assert hist_state(left.hist) == hist_state(right.hist)
            assert left.within_slo == right.within_slo
        assert hist_state(runwise._latency_hist) == hist_state(per_tx._latency_hist)
        assert runwise.summary() == per_tx.summary()

    def test_interleaved_clients_split_ticks_and_foreign_ids(self):
        a, b = (state.client_id for state in accounting_harness().classes)
        foreign = 10_000
        self.assert_same_accounting([
            # tick a0 split across two blocks; b interleaved; foreign ids.
            (0.4, [(a, 0), (a, 1), (a, 2), (b, 0), (foreign, 7), (b, 1),
                   (a, 3)]),
            (0.55, [(a, 4), (a, 5), (a, 6), (a, 7), (a, 8), (a, 9), (a, 10),
                    (foreign, 8), (b, 2), (b, 3), (b, 4)]),
            # out-of-order and gapped seqs within one tick, a seq before
            # the first tick, and one far past the last tick.
            (0.9, [(a, 12), (a, 11), (a, 14), (b, -1), (b, 3), (a, 10**6)]),
        ])

    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.sampled_from([0, 1, 2]), st.integers(-2, 14)),
            max_size=40,
        ),
        cut=st.integers(0, 40),
        times=st.tuples(
            st.floats(0.36, 2.0, allow_nan=False),
            st.floats(0.36, 2.0, allow_nan=False),
        ),
    )
    def test_random_blocks_match_per_tx_accounting(self, entries, cut, times):
        harness = accounting_harness()
        client_ids = [state.client_id for state in harness.classes] + [999]
        tx_ids = [(client_ids[which], seq) for which, seq in entries]
        self.assert_same_accounting([
            (times[0], tx_ids[:cut]),
            (times[1], tx_ids[cut:]),
        ])
