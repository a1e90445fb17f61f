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
    fresh_message_id,
    scoped_message_ids,
)


class TestMessage:
    def test_create_assigns_unique_ids(self):
        m1 = Message.create([1, 2])
        m2 = Message.create([1, 2])
        assert m1.msg_id != m2.msg_id

    def test_ids_restart_at_zero_in_each_test(self):
        # The autouse fixture runs every test in a scope of its own.
        assert Message.create([1]).msg_id == "m0"

    def test_scoped_ids_start_at_zero_and_the_outer_counter_resumes(self):
        assert [Message.create([1]).msg_id for _ in range(3)] == ["m0", "m1", "m2"]
        with scoped_message_ids():
            assert Message.create([1]).msg_id == "m0"
            with scoped_message_ids():
                assert fresh_message_id("b") == "b0"
            assert Message.create([1]).msg_id == "m1"
        assert Message.create([1]).msg_id == "m3"

    def test_local_vs_global(self):
        assert Message.create([3]).is_local
        assert not Message.create([3]).is_global
        assert Message.create([3, 4]).is_global

    def test_empty_destination_rejected(self):
        with pytest.raises(ValueError):
            Message.create([])

    def test_destinations_normalised_to_frozenset(self):
        m = Message.create([2, 1, 2])
        assert m.dst == frozenset({1, 2})

    def test_size_grows_with_payload_and_destinations(self):
        small = Message.create([1], payload_bytes=10)
        large = Message.create([1, 2, 3], payload_bytes=500)
        assert large.size_bytes() > small.size_bytes()

    def test_flush_flag_and_repr(self):
        flush = Message.create([1, 2], is_flush=True)
        assert flush.is_flush
        assert "flush" in repr(flush)

    def test_messages_are_immutable(self):
        m = Message.create([1])
        with pytest.raises(AttributeError):
            m.msg_id = "other"

    def test_fresh_message_id_prefix(self):
        assert fresh_message_id("x").startswith("x")


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
        m = Message.create([1, 2])
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
        m = Message.create([1, 2], payload_bytes=50)
        delta = HistoryDelta(
            vertices=tuple((f"m{i}", frozenset({1})) for i in range(10)),
            edges=tuple((f"m{i}", f"m{i+1}") for i in range(9)),
        )
        with_history = FlexCastMsg(message=m, history=delta, seq=1)
        without = FlexCastMsg(message=m, history=EMPTY_DELTA, seq=1)
        assert with_history.size_bytes() > without.size_bytes()

    def test_ack_smaller_than_msg_with_same_history(self):
        m = Message.create([1, 2], payload_bytes=300)
        assert (
            FlexCastAck(message=m, history=EMPTY_DELTA, from_group=1, seq=1).size_bytes()
            < FlexCastMsg(message=m, history=EMPTY_DELTA, seq=1).size_bytes()
        )

    def test_all_envelopes_report_positive_size(self):
        m = Message.create([1, 2])
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
