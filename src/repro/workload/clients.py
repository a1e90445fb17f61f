"""Closed-loop gTPC-C clients for the discrete-event simulator.

§5.3: "Clients operate in a closed loop issuing one transaction at a time and
are deployed in the same region as their home warehouse."  Each simulated
client therefore:

1. asks the gTPC-C generator for a transaction homed at its region,
2. multicasts it through whatever protocol is under test (the protocol decides
   whether that means one entry group or all destinations),
3. waits until **every** destination has responded, recording the latency of
   the 1st/2nd/3rd response (the paper's per-destination latency metric),
4. optionally waits a think time, then goes back to 1.

Clients stop issuing new transactions when the configured experiment duration
has elapsed; in-flight transactions are allowed to finish so the simulation
drains cleanly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core.client import MulticastCall, MulticastClient
from ..core.message import ClientRequest, ClientResponse
from ..overlay.base import GroupId
from ..protocols.base import AtomicMulticastProtocol
from ..sim.network import Network, NodeId
from .gtpcc import GTPCCWorkload, Transaction


@dataclass
class CompletedTransaction:
    """One finished transaction, as recorded for the metrics pipeline."""

    client_id: str
    home: GroupId
    destinations: int
    submitted_at: float
    completed_at: float
    #: Latency of the 1st, 2nd, ... response (ms), sorted by arrival.
    latencies_by_arrival: List[float] = field(default_factory=list)
    is_global: bool = True


class BoundedResubmitter:
    """Bounded resubmit-on-timeout for fire-and-forget submissions.

    The fuzz harness's crash profiles submit requests without waiting for
    responses; a request addressed to a replica that crashes before ordering
    it would simply vanish.  This helper re-arms a timer per tracked key and
    re-sends while the key is unsettled, up to ``max_retries`` attempts —
    bounded, so a genuinely undeliverable request cannot spin forever.
    Safe against over-delivery because the whole submission path is
    idempotent: the SMR layer's shared reported watermark and the protocol's
    duplicate absorption turn a re-submission of an already-delivered
    request into a no-op.

    Decoupled from transport and clock: ``resend(key)`` performs the
    re-submission, ``is_settled(key)`` checks delivery, and
    ``schedule(delay_ms, callback)`` arms timers (the simulator's event loop
    in fuzzing; anything with the same shape elsewhere).
    """

    def __init__(
        self,
        resend: Callable[[str], None],
        is_settled: Callable[[str], bool],
        schedule: Callable[[float, Callable[[], None]], object],
        timeout_ms: float,
        max_retries: int = 4,
    ) -> None:
        if timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._resend = resend
        self._is_settled = is_settled
        self._schedule = schedule
        self._timeout_ms = timeout_ms
        self._max_retries = max_retries
        #: Total re-submissions performed (stats/tests).
        self.retries = 0
        #: Keys still unsettled after the retry budget ran out.
        self.exhausted: List[str] = []

    def track(self, key: str) -> None:
        """Start watching ``key``; first timeout check fires in one period."""
        self._arm(key, attempt=0)

    def _arm(self, key: str, attempt: int) -> None:
        self._schedule(self._timeout_ms, lambda: self._check(key, attempt))

    def _check(self, key: str, attempt: int) -> None:
        if self._is_settled(key):
            return
        if attempt >= self._max_retries:
            self.exhausted.append(key)
            return
        self.retries += 1
        self._resend(key)
        self._arm(key, attempt + 1)


class ClosedLoopClient:
    """A closed-loop gTPC-C client living at one region of the simulated WAN."""

    def __init__(
        self,
        client_id: str,
        home: GroupId,
        protocol: AtomicMulticastProtocol,
        workload: GTPCCWorkload,
        network: Network,
        rng: random.Random,
        group_node: Callable[[GroupId], NodeId],
        on_complete: Callable[[CompletedTransaction], None],
        stop_after_ms: float,
        think_time_ms: float = 0.0,
        start_jitter_ms: float = 5.0,
    ) -> None:
        self.client_id = client_id
        self.home = home
        self._protocol = protocol
        self._workload = workload
        self._network = network
        self._rng = rng
        self._on_complete = on_complete
        self._stop_after_ms = stop_after_ms
        self._think_time_ms = think_time_ms
        self._start_jitter_ms = start_jitter_ms
        self.issued = 0
        self.completed = 0
        self._active = False
        self._current: Optional[Transaction] = None

        # A plain function, not a bound method: the multicast client this
        # client owns must not lead back to it.
        def send_request(group: GroupId, request: ClientRequest) -> None:
            network.send(client_id, group_node(group), request)

        self._mc = MulticastClient(
            client_id=client_id,
            protocol=protocol,
            send_request=send_request,
            clock=lambda: network.loop.now,
        )
        network.register(client_id, site=home, handler=self._on_network_message)

    # ------------------------------------------------------------------ wiring
    def _on_network_message(self, sender: NodeId, payload: object) -> None:
        if not isinstance(payload, ClientResponse):
            return
        call = self._mc.on_response(payload.group, payload.msg_id)
        if call is not None:
            self._finish(call)

    # ------------------------------------------------------------------ running
    def start(self) -> None:
        """Schedule the first transaction (with a small per-client jitter so
        that all clients do not fire at exactly the same virtual instant)."""
        self._active = True
        jitter = self._rng.uniform(0.0, self._start_jitter_ms)
        self._network.loop.schedule(jitter, self._issue_next)

    def stop(self) -> None:
        """Stop issuing new transactions (in-flight ones still complete)."""
        self._active = False

    def _issue_next(self) -> None:
        if not self._active or self._network.loop.now >= self._stop_after_ms:
            return
        txn = self._workload.next_transaction(self.home, self._rng)
        self._current = txn
        self.issued += 1
        self._mc.multicast(
            destinations=txn.destinations, payload_bytes=txn.payload_bytes
        )

    def _finish(self, call: MulticastCall) -> None:
        self.completed += 1
        txn = self._current
        record = CompletedTransaction(
            client_id=self.client_id,
            home=self.home,
            destinations=len(call.message.dst),
            submitted_at=call.submitted_at,
            completed_at=self._network.loop.now,
            latencies_by_arrival=call.latencies_by_arrival(),
            is_global=len(call.message.dst) > 1,
        )
        self._on_complete(record)
        if txn is not None and self._think_time_ms > 0:
            self._network.loop.schedule(self._think_time_ms, self._issue_next)
        else:
            self._issue_next()

    # --------------------------------------------------------------- inspection
    @property
    def outstanding(self) -> int:
        return self._mc.outstanding
