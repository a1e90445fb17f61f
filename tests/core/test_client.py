"""Tests for the client-side multicast helpers."""

import pytest

from repro.core.client import MulticastCall, MulticastClient
from repro.core.flexcast import FlexCastProtocol
from repro.core.batching import BatchingClient
from repro.core.message import ClientRequest, FlexCastBatch, Message
from repro.overlay.cdag import CDagOverlay


class TestMulticastCall:
    def _call(self):
        return MulticastCall(
            message=Message.create(["A", "B"], msg_id="m1"), submitted_at=100.0
        )

    def test_incomplete_until_all_destinations_respond(self):
        call = self._call()
        assert not call.complete
        assert not call.record_response("A", 150.0)
        assert call.record_response("B", 180.0)
        assert call.complete

    def test_latencies_sorted_by_arrival(self):
        call = self._call()
        call.record_response("B", 180.0)
        call.record_response("A", 150.0)
        assert call.latencies_by_arrival() == [50.0, 80.0]

    def test_duplicate_response_ignored(self):
        call = self._call()
        call.record_response("A", 150.0)
        call.record_response("A", 170.0)
        assert call.responses["A"] == 150.0

    def test_response_from_non_destination_rejected(self):
        call = self._call()
        with pytest.raises(ValueError):
            call.record_response("Z", 120.0)


class TestMulticastClient:
    def _client(self, client_id="c1"):
        overlay = CDagOverlay(["A", "B", "C"])
        protocol = FlexCastProtocol(overlay)
        sent = []
        clock = {"now": 0.0}
        client = MulticastClient(
            client_id=client_id,
            protocol=protocol,
            send_request=lambda group, req: sent.append((group, req)),
            clock=lambda: clock["now"],
        )
        return client, sent, clock

    def test_multicast_routes_request_to_lca_only(self):
        client, sent, clock = self._client()
        message = client.multicast(["B", "C"], payload_bytes=10)
        assert [group for group, _ in sent] == ["B"]
        assert isinstance(sent[0][1], ClientRequest)
        assert client.outstanding == 1
        assert message.sender == "c1"

    def test_a_client_names_its_messages_whatever_others_minted_first(self):
        other, _, _ = self._client("c1")
        for _ in range(3):
            other.multicast(["A", "B"])
        client, _, _ = self._client("c")
        names = [client.multicast(["B", "C"]).msg_id for _ in range(3)]
        assert names == ["c-1", "c-2", "c-3"]
        assert other.multicast(["A"]).msg_id == "c1-4"

    def test_responses_complete_the_call(self):
        client, sent, clock = self._client()
        message = client.multicast(["B", "C"])
        clock["now"] = 40.0
        assert client.on_response("B", message.msg_id) is None
        clock["now"] = 90.0
        call = client.on_response("C", message.msg_id)
        assert call is not None and call.complete
        assert call.latencies_by_arrival() == [40.0, 90.0]
        assert client.outstanding == 0
        assert client.completed == [call]

    def test_a_duplicate_after_completion_is_not_counted_again(self):
        client, sent, clock = self._client()
        message = client.multicast(["B", "C"])
        client.on_response("B", message.msg_id)
        call = client.on_response("C", message.msg_id)
        assert client.on_response("C", message.msg_id) is None
        assert client.on_response("B", message.msg_id) is None
        assert client.completed == [call]

    def test_unknown_response_ignored(self):
        client, sent, clock = self._client()
        assert client.on_response("B", "not-a-message") is None

    def test_submit_prebuilt_message(self):
        client, sent, clock = self._client()
        message = Message.create(["A", "C"], sender="c1", msg_id="c1-x")
        client.submit(message)
        assert [group for group, _ in sent] == ["A"]

    def test_a_batch_names_tracks_and_ships_its_members_in_one_carrier(self):
        client, sent, clock = self._client()
        client.multicast(["B", "C"])
        members = client.multicast_batch(["B", "C"], payloads=["x", "y", "z"])
        assert [m.msg_id for m in members] == ["c1-2", "c1-3", "c1-4"]
        assert [m.payload for m in members] == ["x", "y", "z"]
        [(group, request)] = sent[1:]
        assert group == "B" and type(request) is FlexCastBatch
        assert request.message.msg_id == "c1-b1"
        assert request.message.members == tuple(members)
        assert set(client.inflight) == {"c1-1", "c1-2", "c1-3", "c1-4"}
        for group in ("B", "C"):
            client.on_response(group, "c1-3")
        assert [call.message for call in client.completed] == [members[1]]

    def test_batching_windows_and_explicit_batches_share_one_carrier_counter(self):
        sent = []
        client = BatchingClient(
            "c1", FlexCastProtocol(CDagOverlay(["A", "B", "C"])),
            send_request=lambda group, req: sent.append(req),
            clock=lambda: 0.0, max_batch=2,
        )
        client.multicast(["B", "C"])  # idle set: ships at once
        client.multicast(["B", "C"])
        client.multicast(["B", "C"])  # window of two: a carrier
        client.multicast_batch(["A", "B"], payloads=[1, 2])
        assert [r.message.msg_id for r in sent] == ["c1-1", "c1-b1", "c1-b2"]
        assert client.batch_log == [
            ("c1-b1", ("c1-2", "c1-3")), ("c1-b2", ("c1-4", "c1-5"))
        ]
        assert client.stats["batches_sent"] == 2
