"""Perfect point-to-point channels over lossy links (paper §2).

The paper assumes perfect channels "implemented using mechanisms for
message re-transmission and detection and suppression of duplicates"
(citing Cachin et al.). The experiment fast path uses lossless simulated
links directly (equivalent post-GST behaviour at far lower event cost);
this module provides the explicit stubborn-retransmission construction and
is exercised by the test suite against injected loss to demonstrate the
equivalence:

- **Validity**: a delivered value was previously sent.
- **Termination**: if sender and receiver are correct, every sent value is
  eventually delivered exactly once, for any finite number of losses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Set, Tuple

from repro.net.network import Network
from repro.net.message import Message
from repro.sim.engine import EventHandle

_DATA = "__rl_data__"
_ACK = "__rl_ack__"


class ReliableLink:
    """Stubborn retransmission with acknowledgements and deduplication.

    One instance per directed (src, dst) pair and logical stream. Sends are
    retransmitted every ``resend_interval`` until acknowledged; receivers
    suppress duplicates by sequence number and re-ack (acks may be lost
    too). Delivery is in-order per link.
    """

    def __init__(
        self,
        network: Network,
        src: int,
        dst: int,
        resend_interval: float,
        stream: Hashable = 0,
        on_deliver: Optional[Callable[[Any], None]] = None,
    ):
        self.network = network
        self.sim = network.sim
        self.src = src
        self.dst = dst
        self.stream = stream
        self.resend_interval = resend_interval
        self.on_deliver = on_deliver
        # Sender state
        self._next_seq = 0
        self._unacked: Dict[int, Tuple[Any, int]] = {}
        self._resend_timers: Dict[int, EventHandle] = {}
        self.retransmissions = 0
        # Receiver state
        self._delivered_seqs: Set[int] = set()
        self._next_deliver = 0
        self._out_of_order: Dict[int, Any] = {}
        self.delivered: list = []
        self._install_receivers()

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def send(self, payload: Any, size: int) -> int:
        """Reliably send ``payload``; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = (payload, size)
        self._transmit(seq)
        return seq

    def _transmit(self, seq: int) -> None:
        if seq not in self._unacked:
            return
        payload, size = self._unacked[seq]
        self.network.send(
            self.src, self.dst, (_DATA, self.stream, self.src, self.dst),
            (seq, payload), size,
        )
        self._resend_timers[seq] = self.sim.schedule(
            self.resend_interval, self._retransmit, seq
        )

    def _retransmit(self, seq: int) -> None:
        if seq in self._unacked:
            self.retransmissions += 1
            self._transmit(seq)

    def _on_ack(self, msg: Message) -> None:
        seq = msg.payload
        self._unacked.pop(seq, None)
        timer = self._resend_timers.pop(seq, None)
        if timer is not None:
            timer.cancel()

    @property
    def pending(self) -> int:
        """Number of sends not yet acknowledged."""
        return len(self._unacked)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_data(self, msg: Message) -> None:
        seq, payload = msg.payload
        # Always (re-)ack: the previous ack may have been lost.
        self.network.send(
            self.dst, self.src, (_ACK, self.stream, self.src, self.dst), seq, 16
        )
        if seq in self._delivered_seqs:
            return  # duplicate suppression
        self._delivered_seqs.add(seq)
        self._out_of_order[seq] = payload
        while self._next_deliver in self._out_of_order:
            value = self._out_of_order.pop(self._next_deliver)
            self._next_deliver += 1
            self.delivered.append(value)
            if self.on_deliver is not None:
                self.on_deliver(value)

    # ------------------------------------------------------------------
    def _install_receivers(self) -> None:
        """Register persistent dispatchers on both endpoints."""
        from repro.sim.process import spawn

        def data_loop():
            endpoint = self.network.endpoint(self.dst)
            while True:
                msg = yield endpoint.receive(
                    (_DATA, self.stream, self.src, self.dst)
                )
                self._on_data(msg)

        def ack_loop():
            endpoint = self.network.endpoint(self.src)
            while True:
                msg = yield endpoint.receive(
                    (_ACK, self.stream, self.src, self.dst)
                )
                self._on_ack(msg)

        self._data_task = spawn(
            self.sim, data_loop(), name=f"rl-data-{self.src}->{self.dst}"
        )
        self._ack_task = spawn(
            self.sim, ack_loop(), name=f"rl-ack-{self.src}->{self.dst}"
        )

    def close(self) -> None:
        """Stop the dispatcher tasks (tests use this to drain the heap)."""
        self._data_task.cancel()
        self._ack_task.cancel()
        for timer in self._resend_timers.values():
            timer.cancel()
        self._resend_timers.clear()
        self._unacked.clear()
