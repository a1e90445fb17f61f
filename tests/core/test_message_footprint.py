"""Memory-footprint regression tests for the slotted message core.

The per-``Message`` budget is the point of ``slots=True``: a history holds
|H| of these between GC flushes and every envelope carries at least one, so
an accidental ``__dict__`` (one stray non-slotted subclass or a removed
``slots=True``) multiplies resident memory by several times.  These tests
pin the structural properties rather than profiling a whole run:
``sys.getsizeof`` of the bare object, absence of per-instance dicts across
the envelope hierarchy, and the id interning that makes history indexes
share one string per message id.
"""

import copy
import dataclasses
import pickle
import sys

import pytest

from repro.core import message as msg
from repro.core.message import HistoryDelta, Message
from repro.smr import multipaxos, paxos, replica

#: Upper bound on the bare Message object (CPython 3.10-3.12 measures 96
#: bytes with 10 slots; the headroom absorbs interpreter layout changes
#: without letting a __dict__ (+56 bytes, plus the dict itself) sneak in).
MESSAGE_SIZE_BUDGET = 120


def sample():
    return Message(msg_id="m1", dst=frozenset({1, 3}))


class TestSlottedCore:
    def test_message_fits_size_budget(self):
        assert sys.getsizeof(sample()) <= MESSAGE_SIZE_BUDGET

    def test_message_has_no_instance_dict(self):
        with pytest.raises(AttributeError):
            sample().__dict__

    def test_message_rejects_ad_hoc_attributes(self):
        # Protocol state must live in the protocol group, never be stashed
        # on the shared message object (the docstring's contract); slots
        # enforce it mechanically.
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(sample(), "scratch", 1)

    def test_every_envelope_class_is_slotted(self):
        # One non-slotted subclass reintroduces __dict__ for the whole
        # instance; sweep the module so a future envelope cannot regress.
        classes = [
            obj
            for obj in vars(msg).values()
            if isinstance(obj, type)
            and issubclass(obj, (msg.Envelope, Message, HistoryDelta))
        ]
        assert len(classes) > 10
        for cls in classes:
            assert "__slots__" in cls.__dict__ or not hasattr(
                cls, "__dict__"
            ), f"{cls.__name__} is not slotted"
            instance_dict = getattr(cls, "__dictoffset__", 0)
            assert instance_dict == 0, f"{cls.__name__} instances carry a __dict__"

    def test_msg_ids_are_interned(self):
        # Equal ids constructed from different string objects must collapse
        # to one object, so |H| index entries share a single string.
        a = Message(msg_id="inter" + "ned-id", dst=frozenset({1}))
        b = Message(msg_id="interned" + "-id", dst=frozenset({1}))
        assert a.msg_id is b.msg_id

    def test_batch_members_are_interned_too(self):
        members = [Message(msg_id=f"mm{i}", dst=frozenset({1})) for i in range(3)]
        carrier = Message.batch_of(members, batch_id="b1")
        assert carrier.members[0].msg_id is sys.intern("mm0")


# ------------------------------------------------------------ record semantics
# Every record class builds through one compiled ``__new__`` (``record`` in
# core/message.py) instead of the dataclass ``__init__``; what a frozen
# slotted dataclass promises must hold for each of them all the same.
M = Message("m7", frozenset({1, 2}), "c", "p", 3)
B0, B1 = paxos.Ballot(0, 1), paxos.Ballot(2, 0)
DELTA = HistoryDelta((("m7", frozenset({1, 2})),), (("m6", "m7"),))

#: One sample per record class: its constructor's arguments, in field order.
RECORDS = {
    Message: ("m1", frozenset({1}), "c", "p", 3, False, "t1", ()),
    HistoryDelta: DELTA.__getnewargs__(),
    msg.ClientRequest: (M,),
    msg.FlexCastBatch: (Message.batch_of([M], batch_id="b1"),),
    msg.ClientResponse: ("m7", 2),
    msg.NodeHello: ("n1", "127.0.0.1", 4000),
    msg.FlexCastMsg: (M, DELTA, 5, frozenset({(3, 1)})),
    msg.FlexCastAck: (M, DELTA, 2, 6, 1, frozenset({(3, 2)})),
    msg.FlexCastNotif: (M, DELTA, 1, 3),
    msg.SkeenTimestamp: ("m7", 7, 1),
    msg.TreeForward: (M, 9),
    paxos.Ballot: (3, 1),
    paxos.Prepare: (4, B1),
    paxos.Promise: (4, B1, ((4, B0, "v"),), "r1"),
    paxos.Accept: (4, B1, "v"),
    paxos.Accepted: (4, B1, "r1"),
    paxos.Nack: (4, B0, B1, "r1"),
    multipaxos.ClientCommand: ("v",),
    multipaxos.Commit: (4, B1),
    multipaxos.Heartbeat: ("r0",),
    multipaxos.CatchupRequest: (4, "r2"),
    multipaxos.CatchupReply: (((4, "v"),),),
    replica.OrderedEnvelope: ("c", msg.ClientResponse("m7", 2)),
}


def init_names(cls):
    return [f.name for f in dataclasses.fields(cls) if f.init]


def keywords(cls):
    return dict(zip(init_names(cls), RECORDS[cls]))


record_classes = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def test_the_sweep_covers_every_record_class():
    defined = {
        obj
        for module in (msg, paxos, multipaxos, replica)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    }
    assert defined == set(RECORDS)


@record_classes
class TestRecordSemantics:
    def test_construction_builds_the_class_itself_without_a_dict(self, cls):
        obj = cls(*RECORDS[cls])
        assert type(obj) is cls
        assert not hasattr(obj, "__dict__")

    def test_every_field_is_frozen(self, cls):
        obj = cls(*RECORDS[cls])
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)

    def test_positional_and_keyword_construction_agree(self, cls):
        by_position, by_name = cls(*RECORDS[cls]), cls(**keywords(cls))
        assert by_position == by_name
        assert hash(by_position) == hash(by_name)
        for name, value in keywords(cls).items():
            assert getattr(by_position, name) == value

    def test_replace_round_trips(self, cls):
        obj = cls(*RECORDS[cls])
        copy_ = dataclasses.replace(obj)
        assert copy_ == obj and copy_ is not obj and type(copy_) is cls
        first = init_names(cls)[0]
        changed = dataclasses.replace(obj, **{first: RECORDS[cls][0]})
        assert changed == obj

    def test_copy_and_pickle_round_trip(self, cls):
        obj = cls(*RECORDS[cls])
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj

    def test_init_false_fields_hold_their_default(self, cls):
        obj = cls(*RECORDS[cls])
        for f in dataclasses.fields(cls):
            if not f.init:
                assert getattr(obj, f.name) == f.default

    def test_missing_or_unknown_arguments_raise_type_error(self, cls):
        args = RECORDS[cls]
        with pytest.raises(TypeError):
            cls(*args, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*args, None)  # one more than the constructor takes
        required = [
            f for f in dataclasses.fields(cls)
            if f.init and f.default is dataclasses.MISSING
        ]
        if required:
            with pytest.raises(TypeError):
                cls()


def test_equality_depends_on_the_class():
    carrier = Message.batch_of([M], batch_id="b1")
    assert msg.FlexCastBatch(carrier) != msg.ClientRequest(carrier)
    assert paxos.Accepted(4, B1, "r1") != multipaxos.Commit(4, B1)


def test_message_ids_are_interned_on_both_paths():
    # Ids joined at run time: the compiler would share equal literals.
    def fresh(text):
        return "".join(list(text))

    by_position = Message(fresh("by-position"), frozenset({1}))
    by_name = Message(msg_id=fresh("by-name"), dst=frozenset({1}))
    replaced = dataclasses.replace(M, msg_id=fresh("by-replace"))
    for message in (by_position, by_name, replaced):
        assert message.msg_id is sys.intern(fresh(message.msg_id))
