"""A replicated key-value store driven by committed blocks.

Clients submit ``set``/``delete`` operations through the normal client
path (:class:`~repro.runtime.clients.ClientHarness`); operations ride
inside the blocks' modeled payload bytes. Since the simulator accounts
payload *sizes* rather than payload *bytes*, the operation contents live
in an :class:`OpRegistry` shared by construction (the stand-in for block
-body deserialization -- the bytes were charged to every link the block
traversed).

The workload engine records its Zipf-keyed writes one *tick* at a time
(a run of consecutive sequence numbers plus their key indices); the
registry builds a :class:`KvOp` only when a committed block applies the
transaction, so recording costs O(ticks) objects, not O(generated txs),
and op construction scales with committed work.

Each replica owns a :class:`KvStateMachine` fed by its node's commit path;
determinism is checked by comparing state digests across replicas after a
run (see ``tests/test_app_kvstore.py``).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.consensus.block import Block
from repro.errors import ConfigError
from repro.runtime.clients import ClientHarness, Tx


@dataclass(frozen=True)
class KvOp:
    """One state-machine operation."""

    kind: str  # "set" | "delete"
    key: str
    value: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("set", "delete"):
            raise ConfigError(f"unknown op kind {self.kind!r}")
        if self.kind == "set" and self.value is None:
            raise ConfigError("set requires a value")


class OpRegistry:
    """The modeled block body: the operation each transaction carries.

    Two ways in. :meth:`record` stores one explicit op per tx id (the
    per-transaction client harnesses). :meth:`record_run` stores one tick
    of the workload engine as ``(client_id, first_seq, label, keys)``:
    transaction ``(client_id, first_seq + i)`` is
    ``KvOp("set", f"k{keys[i]}", f"{label}s{first_seq + i}")``. A run's op
    is built the first time :meth:`get` asks for it (when a committed
    block applies the tx) and memoised, so every replica shares one
    object. Run ids and explicitly recorded ids are expected to be
    disjoint; ``len()`` counts every recorded transaction.
    """

    def __init__(self):
        #: Explicit records plus memoised run ops (``_memoised`` of them).
        self._ops: Dict[Tuple[int, int], KvOp] = {}
        self._memoised = 0
        #: client id -> (first seqs ascending, matching (label, keys) runs).
        self._runs: Dict[int, Tuple[List[int], List[Tuple[str, Sequence[int]]]]] = {}
        self._run_txs = 0

    def record(self, tx_id: Tuple[int, int], op: KvOp) -> None:
        self._ops[tx_id] = op

    def record_run(
        self, client_id: int, first_seq: int, label: str, keys: Sequence[int]
    ) -> None:
        """Record ``len(keys)`` consecutive ``set`` ops of one client tick.

        Runs of one client must arrive in sequence order, without overlap.
        """
        starts, runs = self._runs.setdefault(client_id, ([], []))
        if starts and first_seq < starts[-1] + len(runs[-1][1]):
            raise ConfigError(
                f"run for client {client_id} at seq {first_seq} overlaps or "
                f"precedes the previous run"
            )
        starts.append(first_seq)
        runs.append((label, keys))
        self._run_txs += len(keys)

    def get(self, tx_id: Tuple[int, int]) -> Optional[KvOp]:
        try:
            return self._ops[tx_id]
        except KeyError:
            return self._build(tx_id)

    def _build(self, tx_id: Tuple[int, int]) -> Optional[KvOp]:
        """Materialise (and memoise) the op of a tx covered by a run."""
        entry = self._runs.get(tx_id[0])
        if entry is None:
            return None
        starts, runs = entry
        seq = tx_id[1]
        index = bisect_right(starts, seq) - 1
        if index < 0:
            return None
        label, keys = runs[index]
        offset = seq - starts[index]
        if offset >= len(keys):
            return None
        op = KvOp("set", f"k{keys[offset]}", f"{label}s{seq}")
        self._ops[tx_id] = op
        self._memoised += 1
        return op

    def __len__(self) -> int:
        return len(self._ops) - self._memoised + self._run_txs


class KvStateMachine:
    """Deterministic KV state, advanced one committed block at a time."""

    def __init__(self, registry: OpRegistry):
        self.registry = registry
        self.state: Dict[str, str] = {}
        self.applied_height = 0
        self.ops_applied = 0
        self.unknown_txs = 0

    def apply_block(self, block: Block) -> None:
        if block.height != self.applied_height + 1:
            raise ConfigError(
                f"out-of-order apply: {block.height} after {self.applied_height}"
            )
        for tx_id in block.tx_ids:
            op = self.registry.get(tx_id)
            if op is None:
                self.unknown_txs += 1
                continue
            if op.kind == "set":
                self.state[op.key] = op.value
            else:
                self.state.pop(op.key, None)
            self.ops_applied += 1
        self.applied_height = block.height

    def replay(self, commit_log: List[Block]) -> None:
        for block in commit_log:
            self.apply_block(block)

    def get(self, key: str) -> Optional[str]:
        return self.state.get(key)

    def digest(self) -> str:
        """Canonical digest of the full state (cross-replica comparison)."""
        canonical = "|".join(
            f"{key}={self.state[key]}" for key in sorted(self.state)
        )
        payload = f"h{self.applied_height}:{canonical}".encode()
        return hashlib.sha256(payload).hexdigest()[:16]


class KvClientHarness(ClientHarness):
    """Clients issuing KV writes: round-robin keys, monotone values."""

    def __init__(self, cluster, registry: OpRegistry, keyspace: int = 64, **kwargs):
        super().__init__(cluster, **kwargs)
        self.registry = registry
        self.keyspace = keyspace

    def _make_tx(self, client_id: int, seq: int, now: float) -> Tx:
        tx = super()._make_tx(client_id, seq, now)
        op = KvOp(
            kind="set",
            key=f"k{(client_id * 7 + seq) % self.keyspace}",
            value=f"c{client_id}s{seq}",
        )
        self.registry.record(tx.tx_id, op)
        return tx


def attach_kv_application(cluster, registry: OpRegistry) -> Dict[int, KvStateMachine]:
    """Give every node a live state machine fed by its own commit path.

    Must be called before ``cluster.start()``. Returns the per-node
    machines (keyed by node id).
    """
    machines: Dict[int, KvStateMachine] = {}
    for node in cluster.nodes:
        machine = KvStateMachine(registry)
        machines[node.node_id] = machine
        node.app = machine
    return machines
