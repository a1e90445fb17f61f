"""Asyncio hosting for the epoch coordinator.

The coordinator logic itself (:class:`~repro.reconfig.coordinator.EpochCoordinator`)
is transport-agnostic; this module gives it a network identity in the asyncio
runtime: a :class:`~repro.runtime.node.FrameServer` that feeds incoming
frames to ``coordinator.on_message`` and an
:class:`~repro.runtime.transport.AsyncioTransport` for its outbound control
envelopes and timers.  Together with the codec entries for the epoch control
envelopes, this makes a live overlay switch work over real sockets exactly as
it does in the simulator.
"""

from __future__ import annotations

import asyncio
from typing import Any, Hashable, Optional, Tuple

from ..runtime.node import FrameServer
from ..runtime.transport import AddressBook, AsyncioTransport
from .coordinator import EpochCoordinator, SwitchRecord
from .group import ReconfigurableFlexCastProtocol
from .monitor import WorkloadMonitor
from .planner import Planner


class ReconfigCoordinatorServer(FrameServer):
    """An :class:`EpochCoordinator` listening on a localhost TCP port."""

    def __init__(
        self,
        protocol: ReconfigurableFlexCastProtocol,
        addresses: AddressBook,
        node_id: Hashable = "reconfig-coordinator",
        host: str = "127.0.0.1",
        port: int = 0,
        monitor: Optional[WorkloadMonitor] = None,
        planner: Optional[Planner] = None,
        check_interval_ms: float = 500.0,
        quiesce_interval_ms: float = 50.0,
    ) -> None:
        super().__init__(host=host, port=port)
        self.node_id = node_id
        self.transport = AsyncioTransport(node_id=node_id, addresses=addresses)
        self.coordinator = EpochCoordinator(
            node_id=node_id,
            transport=self.transport,
            protocol=protocol,
            monitor=monitor,
            planner=planner,
            check_interval_ms=check_interval_ms,
            quiesce_interval_ms=quiesce_interval_ms,
        )

    # ----------------------------------------------------------------- server
    async def start(self) -> Tuple[str, int]:
        host, port = await super().start()
        self.transport.register_address(self.node_id, host, port)
        return host, port

    async def stop(self) -> None:
        self.coordinator.stop()
        await super().stop()

    def handle_frame(self, sender: Hashable, envelope: Any) -> None:
        self.coordinator.on_message(sender, envelope)

    # ------------------------------------------------------------ convenience
    async def switch_and_wait(
        self, new_order, timeout_s: float = 10.0, poll_s: float = 0.01
    ) -> SwitchRecord:
        """Trigger a manual switch and wait until every group resumed."""
        record = self.coordinator.trigger_switch(new_order)
        deadline = asyncio.get_event_loop().time() + timeout_s
        while record.completed_ms is None:
            if asyncio.get_event_loop().time() > deadline:
                raise TimeoutError(
                    f"epoch switch did not complete (state={self.coordinator.state})"
                )
            await asyncio.sleep(poll_s)
        return record
