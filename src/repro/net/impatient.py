"""Impatient channels (paper §3.3.1, Algorithm 1).

An impatient channel wraps a perfect point-to-point channel with a blocking
``receive`` that *always* returns: either the value sent by the peer, or the
special value ⊥ (:data:`BOTTOM`) if nothing arrives within the known bound
Δ on worst-case network latency.

Properties (verified in ``tests/test_impatient.py``):

- **Validity**: a delivered value ``v ≠ ⊥`` was sent by the peer.
- **Termination**: a correct receiver's ``receive`` always returns.
- **Conditional Accuracy**: after GST, with correct sender and receiver,
  ``receive`` returns the value actually sent.

Single-use semantics come from tagging: each consensus (instance, round)
uses a fresh tag, so a receive never observes stale values from earlier
instances.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.net.message import Message
from repro.net.network import Endpoint, Network
from repro.sim.process import TIMEOUT


class _Bottom:
    """Singleton ⊥ returned when the sender is faulty or the net unstable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"

    def __bool__(self) -> bool:
        return False


BOTTOM = _Bottom()


class ImpatientChannel:
    """Directed channel from ``peer`` to the local endpoint, with bound Δ.

    One instance per tree edge and direction; ``receive(tag)`` and
    ``send(tag, ...)`` implement the ``ic.receive``/``ic.send`` primitives
    of Algorithms 1-3.
    """

    def __init__(self, network: Network, local: int, peer: int, delta: float):
        if delta <= 0:
            raise ValueError(f"impatient-channel bound must be positive: {delta}")
        self.network = network
        self.local = local
        self.peer = peer
        self.delta = delta
        self._endpoint: Endpoint = network.endpoint(local)

    def receive(self, tag: Hashable):
        """Coroutine (Algorithm 1): the peer's value, or ⊥ after Δ."""
        result = yield self._endpoint.receive(
            tag, timeout=self.delta, match=self._from_peer
        )
        if result is TIMEOUT:
            return BOTTOM
        return result.payload

    def send(self, tag: Hashable, payload: Any, size: int) -> None:
        """Send ``payload`` to the peer over the underlying perfect channel."""
        self.network.send(self.local, self.peer, tag, payload, size)

    def _from_peer(self, msg: Message) -> bool:
        return msg.src == self.peer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ImpatientChannel({self.peer}->{self.local}, delta={self.delta})"
