"""Unit tests for messages and protocol envelopes."""

import pytest

from repro.core.message import (
    ClientRequest,
    ClientResponse,
    EMPTY_DELTA,
    FlexCastAck,
    FlexCastMsg,
    FlexCastNotif,
    HistoryDelta,
    Message,
    PAYLOAD_KINDS,
    SkeenTimestamp,
    TreeForward,
)


class TestMessage:
    def test_create_and_batch_of_require_an_id(self):
        # The sender names every message; there is no id to fall back on.
        with pytest.raises(TypeError):
            Message.create([1, 2])
        member = Message.create([1, 2], msg_id="m1")
        with pytest.raises(TypeError):
            Message.batch_of([member])
        assert Message.create([1, 2], msg_id="c-1").msg_id == "c-1"
        assert Message.batch_of([member], batch_id="c-b1").msg_id == "c-b1"

    def test_local_vs_global(self):
        assert Message.create([3], msg_id="m1").is_local
        assert not Message.create([3], msg_id="m1").is_global
        assert Message.create([3, 4], msg_id="m1").is_global

    def test_empty_destination_rejected(self):
        with pytest.raises(ValueError):
            Message.create([], msg_id="m1")

    def test_destinations_normalised_to_frozenset(self):
        m = Message.create([2, 1, 2], msg_id="m1")
        assert m.dst == frozenset({1, 2})

    def test_size_grows_with_payload_and_destinations(self):
        small = Message.create([1], payload_bytes=10, msg_id="m1")
        large = Message.create([1, 2, 3], payload_bytes=500, msg_id="m2")
        assert large.size_bytes() > small.size_bytes()

    def test_flush_flag_and_repr(self):
        flush = Message.create([1, 2], msg_id="f1", is_flush=True)
        assert flush.is_flush
        assert "flush" in repr(flush)

    def test_messages_are_immutable(self):
        m = Message.create([1], msg_id="m1")
        with pytest.raises(AttributeError):
            m.msg_id = "other"


class TestHistoryDelta:
    def test_empty_delta(self):
        assert EMPTY_DELTA.is_empty
        assert len(EMPTY_DELTA) == 0
        assert EMPTY_DELTA.size_bytes() == 0

    def test_size_scales_with_content(self):
        delta = HistoryDelta(
            vertices=(("m1", frozenset({1})), ("m2", frozenset({1, 2}))),
            edges=(("m1", "m2"),),
        )
        assert not delta.is_empty
        assert len(delta) == 3
        assert delta.size_bytes() > 0

    def test_size_counts_vertices_and_edges_only(self):
        # A first contact's whole live history is priced like any slice of
        # the same entries: nothing rides along beside them.
        vertex = HistoryDelta(vertices=(("m1", frozenset({1})),))
        edge = HistoryDelta(edges=(("m1", "m2"),))
        delta = HistoryDelta(
            vertices=(("m1", frozenset({1})), ("m2", frozenset({1, 2}))),
            edges=(("m1", "m2"),),
        )
        assert delta.size_bytes() == 2 * vertex.size_bytes() + edge.size_bytes()
        assert vertex.size_bytes() > 0 and edge.size_bytes() > 0


class TestEnvelopes:
    def test_kinds(self):
        m = Message.create([1, 2], msg_id="m1")
        assert ClientRequest(message=m).kind == "request"
        assert ClientResponse(msg_id=m.msg_id, group=1).kind == "response"
        assert FlexCastMsg(message=m, history=EMPTY_DELTA, seq=1).kind == "msg"
        ack = FlexCastAck(message=m, history=EMPTY_DELTA, from_group=1, seq=1)
        notif = FlexCastNotif(message=m, history=EMPTY_DELTA, from_group=1, seq=1)
        assert ack.kind == "ack"
        assert notif.kind == "notif"
        assert SkeenTimestamp(msg_id=m.msg_id, timestamp=1, from_group=1).kind == "timestamp"
        assert TreeForward(message=m, sequence=1).kind == "msg"

    def test_payload_kinds_cover_payload_carriers_only(self):
        # request/batch are the client submission forms (single/coalesced);
        # msg is the only group-to-group envelope that ships payloads.
        assert PAYLOAD_KINDS == {"request", "msg", "batch"}

    def test_flexcast_msg_size_includes_history(self):
        m = Message.create([1, 2], payload_bytes=50, msg_id="m1")
        delta = HistoryDelta(
            vertices=tuple((f"m{i}", frozenset({1})) for i in range(10)),
            edges=tuple((f"m{i}", f"m{i+1}") for i in range(9)),
        )
        with_history = FlexCastMsg(message=m, history=delta, seq=1)
        without = FlexCastMsg(message=m, history=EMPTY_DELTA, seq=1)
        assert with_history.size_bytes() > without.size_bytes()

    def test_ack_smaller_than_msg_with_same_history(self):
        m = Message.create([1, 2], payload_bytes=300, msg_id="m1")
        assert (
            FlexCastAck(message=m, history=EMPTY_DELTA, from_group=1, seq=1).size_bytes()
            < FlexCastMsg(message=m, history=EMPTY_DELTA, seq=1).size_bytes()
        )

    def test_all_envelopes_report_positive_size(self):
        m = Message.create([1, 2], msg_id="m1")
        envelopes = [
            ClientRequest(message=m),
            ClientResponse(msg_id=m.msg_id, group=1),
            FlexCastMsg(message=m, history=EMPTY_DELTA, seq=1),
            FlexCastAck(message=m, history=EMPTY_DELTA, from_group=1, seq=1),
            FlexCastNotif(message=m, history=EMPTY_DELTA, from_group=1, seq=1),
            SkeenTimestamp(msg_id=m.msg_id, timestamp=3, from_group=2),
            TreeForward(message=m, sequence=7),
        ]
        assert all(e.size_bytes() > 0 for e in envelopes)
