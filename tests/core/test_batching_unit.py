"""Unit tests for :class:`repro.core.batching.BatchingClient` and the batch
message/envelope model (:meth:`Message.batch_of`, :class:`FlexCastBatch`)."""

import pytest

from repro.core.batching import BatchingClient
from repro.core.message import ClientRequest, FlexCastBatch, Message
from repro.core.flexcast import FlexCastProtocol
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.transport import RecordingTransport


def make_message(i, dst=(0, 1), **kwargs):
    return Message.create(destinations=dst, msg_id=f"m{i}", **kwargs)


# ------------------------------------------------------------- message model
class TestBatchOf:
    def test_carrier_shape(self):
        members = [make_message(i, payload_bytes=32) for i in range(3)]
        carrier = Message.batch_of(members, batch_id="b0")
        assert carrier.is_batch and carrier.msg_id == "b0"
        assert carrier.dst == frozenset({0, 1})
        assert carrier.members == tuple(members)
        assert carrier.payload_bytes == 96
        assert not carrier.is_flush

    def test_size_amortizes_headers(self):
        members = [make_message(i, payload_bytes=64) for i in range(16)]
        carrier = Message.batch_of(members, batch_id="b0")
        assert carrier.size_bytes() < sum(m.size_bytes() for m in members)

    def test_rejects_mixed_destinations(self):
        with pytest.raises(ValueError, match="destination set"):
            Message.batch_of(
                [make_message(0, dst=(0, 1)), make_message(1, dst=(0, 2))],
                batch_id="b0",
            )

    def test_rejects_flush_members(self):
        flush = Message.create(destinations=(0, 1), msg_id="f0", is_flush=True)
        with pytest.raises(ValueError, match="flush"):
            Message.batch_of([make_message(0), flush], batch_id="b0")

    def test_rejects_nesting_and_empty(self):
        inner = Message.batch_of([make_message(0)], batch_id="b-in")
        with pytest.raises(ValueError, match="nested"):
            Message.batch_of([inner], batch_id="b0")
        with pytest.raises(ValueError, match="at least one"):
            Message.batch_of([], batch_id="b0")

    def test_batch_envelope_is_a_client_request(self):
        # Submission validation and idempotent re-submission of batches
        # rest on this subtyping.
        envelope = FlexCastBatch(message=Message.batch_of([make_message(0)], batch_id="b0"))
        assert isinstance(envelope, ClientRequest)
        assert envelope.kind == "batch"


# ------------------------------------------------------------------ client
def make_client(max_batch=4, max_delay_ms=10.0, schedule="transport"):
    protocol = FlexCastProtocol(CDagOverlay([0, 1, 2]))
    transport = RecordingTransport("client")
    client = BatchingClient(
        "client",
        protocol,
        send_request=transport.send,
        clock=transport.now,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        schedule=transport.schedule if schedule == "transport" else schedule,
    )
    return client, transport


class TestBatchingClient:
    def test_size_trigger_ships_one_batch(self):
        client, transport = make_client(max_batch=3)
        for i in range(3):
            client.multicast((0, 1), payload=i)
        [(dst, envelope)] = transport.sent
        assert dst == 0  # the lca of {0, 1}
        assert isinstance(envelope, FlexCastBatch)
        assert len(envelope.message.members) == 3
        assert client.buffered == 0
        assert client.stats["batches_sent"] == 1
        assert client.stats["messages_batched"] == 3

    def test_time_trigger_flushes_partial_window(self):
        client, transport = make_client(max_batch=16, max_delay_ms=5.0)
        client.multicast((0, 1), payload="a")
        client.multicast((0, 1), payload="b")
        assert transport.sent == [] and client.buffered == 2
        transport.advance(5.0)
        [(_, envelope)] = transport.sent
        assert isinstance(envelope, FlexCastBatch)
        assert len(envelope.message.members) == 2

    def test_single_message_window_ships_plain_request(self):
        client, transport = make_client(max_batch=16, max_delay_ms=5.0)
        client.multicast((0, 1), payload="solo")
        transport.advance(5.0)
        [(_, envelope)] = transport.sent
        assert type(envelope) is ClientRequest  # not a FlexCastBatch
        assert client.batch_log == []

    def test_windows_are_per_destination_set(self):
        client, transport = make_client(max_batch=2)
        client.multicast((0, 1), payload=1)
        client.multicast((1, 2), payload=2)
        assert transport.sent == []  # two open windows, neither full
        client.multicast((0, 1), payload=3)
        assert len(transport.sent) == 1  # only the {0,1} window closed
        assert client.buffered == 1

    def test_flush_messages_bypass_batching(self):
        client, transport = make_client(max_batch=16)
        client.multicast((0, 1), payload="app")
        flush = Message.create(destinations=(0, 1, 2), msg_id="f0", is_flush=True)
        client.submit(flush)
        # The flush left immediately as its own request; the app message is
        # still buffered behind it.
        [(_, envelope)] = transport.sent
        assert type(envelope) is ClientRequest and envelope.message.is_flush
        assert client.buffered == 1

    def test_window_of_one_dispatches_immediately(self):
        client, transport = make_client(max_batch=1)
        client.multicast((0, 1), payload="x")
        [(_, envelope)] = transport.sent
        assert type(envelope) is ClientRequest
        assert client.buffered == 0

    def test_explicit_flush_and_deterministic_ids(self):
        client, transport = make_client(max_batch=16, schedule=None)
        for i in range(2):
            client.multicast((0, 1), payload=i)
        for i in range(2):
            client.multicast((1, 2), payload=i)
        client.flush()
        batch_ids = [e.message.msg_id for _, e in transport.sent]
        assert batch_ids == ["client-b1", "client-b2"]
        assert [len(e.message.members) for _, e in transport.sent] == [2, 2]

    def test_member_and_carrier_ids_never_collide(self):
        client, transport = make_client(max_batch=3, schedule=None)
        for i in range(20):
            client.multicast((0, 1) if i % 3 else (1, 2), payload=i)
        client.flush()
        carriers = [e.message.msg_id for _, e in transport.sent if e.message.is_batch]
        members = [
            m.msg_id
            for _, e in transport.sent
            for m in (e.message.members or (e.message,))
        ]
        assert carriers == [f"client-b{n}" for n in range(1, 7)]
        assert sorted(members) == sorted(f"client-{n}" for n in range(1, 21))
        assert not set(carriers) & set(members)

    def test_response_tracking_is_per_member(self):
        client, transport = make_client(max_batch=2)
        first = client.multicast((0, 1), payload="a")
        second = client.multicast((0, 1), payload="b")
        assert client.outstanding == 2
        for msg in (first, second):
            for group in (0, 1):
                client.on_response(group, msg.msg_id)
        assert client.outstanding == 0
        assert {c.message.msg_id for c in client.completed} == {
            first.msg_id,
            second.msg_id,
        }


class TestBatchFanOutAtGate:
    def test_lca_fans_batch_into_member_deliveries(self):
        overlay = CDagOverlay([0, 1, 2])
        sink = RecordingSink()
        transport = RecordingTransport(0)
        group = FlexCastProtocol(overlay).create_group(0, transport, sink)
        members = [make_message(i, dst=(0, 1)) for i in range(3)]
        carrier = Message.batch_of(members, batch_id="b0")
        group.on_envelope("client", FlexCastBatch(message=carrier))
        # Members delivered in order; the carrier never reaches the sink.
        assert sink.sequence(0) == ["m0", "m1", "m2"]
        # One ordering unit: a single history vertex and one msg envelope
        # (to destination 1) for the whole batch.
        assert group.history_size() == 1
        assert "b0" in group.history
        assert len(transport.sent_to(1)) == 1

    def test_duplicate_msg_after_gc_leaks_no_state(self, seq):
        # A FlexCastMsg for a carrier the group already delivered *and
        # garbage-collected* must not resurrect pending state: forgotten ids
        # never re-enter the history, so an entry (or member-index row)
        # created by it could never be pruned by any later GC pass.  It
        # comes on a new number, so the channel does not absorb it first.
        from dataclasses import replace

        from repro.core.message import EMPTY_DELTA, FlexCastMsg

        overlay = CDagOverlay([0, 1, 2])
        sink = RecordingSink()
        group = FlexCastProtocol(overlay).create_group(
            1, RecordingTransport(1), sink
        )
        members = [make_message(i, dst=(0, 1)) for i in range(2)]
        carrier = Message.batch_of(members, batch_id="b0")
        envelope = FlexCastMsg(message=carrier, history=EMPTY_DELTA, seq=seq(0, 1))
        group.on_envelope(0, envelope)
        assert sink.sequence(1) == ["m0", "m1"]
        # A flush addressed to this group collects the carrier.
        group.on_client_request(
            Message.create(destinations=(1,), msg_id="f0", is_flush=True)
        )
        assert group.history.is_forgotten("b0")
        assert "b0" not in group.pending
        # A late copy of the pruned batch.
        group.on_envelope(0, replace(envelope, seq=seq(0, 1)))
        assert sink.sequence(1) == ["m0", "m1", "f0"]  # nothing re-delivered
        assert "b0" not in group.pending
        assert not group._batch_members

    def test_duplicate_batch_absorbed(self):
        overlay = CDagOverlay([0, 1, 2])
        sink = RecordingSink()
        group = FlexCastProtocol(overlay).create_group(
            0, RecordingTransport(0), sink
        )
        carrier = Message.batch_of([make_message(0, dst=(0, 1))], batch_id="b0")
        envelope = FlexCastBatch(message=carrier)
        group.on_envelope("client", envelope)
        group.on_envelope("client", envelope)  # duplicated submission
        assert sink.sequence(0) == ["m0"]
        assert group.has_delivered("b0")  # carrier id recorded for idempotence

    def test_member_retry_after_batch_delivery_absorbed(self):
        # A client that lost a ClientResponse may retry one *member* as a
        # plain request.  Members have no history vertex of their own, so
        # the enqueue guard must fall back to the permanent delivery record
        # — the retry is absorbed, exactly like an unbatched re-submission.
        overlay = CDagOverlay([0, 1, 2])
        sink = RecordingSink()
        group = FlexCastProtocol(overlay).create_group(
            0, RecordingTransport(0), sink
        )
        members = [make_message(i, dst=(0, 1)) for i in range(2)]
        carrier = Message.batch_of(members, batch_id="b0")
        group.on_envelope("client", FlexCastBatch(message=carrier))
        assert sink.sequence(0) == ["m0", "m1"]
        group.on_envelope("client", ClientRequest(message=members[1]))  # retry
        assert sink.sequence(0) == ["m0", "m1"]  # absorbed, no double delivery
        # Absorption must not leak pending state: members never gain history
        # vertices, so an entry created here could never be GC'd.
        assert "m1" not in group.pending

