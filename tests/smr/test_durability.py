"""SMR durability: acceptor stable storage, commit-log replay, rejoin catch-up."""

from __future__ import annotations

import json
import os
import re
import shutil

import pytest

from repro.core.flexcast import FlexCastProtocol
from repro.overlay.cdag import CDagOverlay
from repro.runtime.codec import CodecError, turn_entries, turn_text
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import SimTransport
from repro.smr.multipaxos import MultiPaxosReplica, UnreadableValue
from repro.smr.paxos import (
    ZERO_BALLOT, Accept, Acceptor, Ballot, Nack, Prepare, Promise, json_text, stored_text,
)
from repro.smr.replica import GroupReplica, replica_node
from repro.storage import FileStorage, InMemoryStorage
from repro.storage.file import _encode_record, _payloads, _scan_frames


# ----------------------------------------------------------------- acceptor WAL
class TestAcceptorDurability:
    def test_restarted_acceptor_never_repromises_below_durable_ballot(self):
        """The Paxos stable-storage requirement, pinned.

        An acceptor that promised ballot (5, 1) before crashing must keep
        refusing lower ballots after a restart — otherwise two proposers can
        both believe they own the instance and safety is gone.
        """
        storage = InMemoryStorage()
        acceptor = Acceptor("r0", wal=storage.wal("r0.acceptor"))
        high = Ballot(round=5, proposer=1)
        assert isinstance(acceptor.on_prepare(Prepare(instance=0, ballot=high)), Promise)

        # Crash: the object dies, the storage survives.
        restarted = Acceptor("r0", wal=storage.wal("r0.acceptor"))
        assert restarted.promised_ballot(0) == high
        low = Ballot(round=3, proposer=0)
        assert isinstance(restarted.on_prepare(Prepare(instance=0, ballot=low)), Nack)
        assert isinstance(
            restarted.on_accept(Accept(instance=0, ballot=low, value="v")), Nack
        )

    def test_accepted_value_survives_restart_and_feeds_recovery(self):
        storage = InMemoryStorage()
        acceptor = Acceptor("r0", wal=storage.wal("w"))
        ballot = Ballot(round=2, proposer=0)
        acceptor.on_prepare(Prepare(instance=3, ballot=ballot))
        acceptor.on_accept(Accept(instance=3, ballot=ballot, value={"cmd": "x"}))

        restarted = Acceptor("r0", wal=storage.wal("w"))
        assert restarted.accepted_value(3) == {"cmd": "x"}
        # A later prepare must report the accepted value (Paxos adoption rule).
        promise = restarted.on_prepare(Prepare(instance=3, ballot=Ballot(9, 1)))
        assert isinstance(promise, Promise)
        assert promise.accepted == ((3, ballot, {"cmd": "x"}),)

    def test_persist_happens_before_reply(self):
        """The WAL already holds the promise when on_prepare returns."""
        storage = InMemoryStorage()
        acceptor = Acceptor("r0", wal=storage.wal("w"))
        acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(1, 0)))
        assert ["p", [1, 0]] in storage.wal("w").records()
        acceptor.on_accept(Accept(instance=0, ballot=Ballot(1, 0), value="v"))
        assert ["a", 0, [1, 0], b'"v"'] in storage.wal("w").records()

    def test_restart_after_many_reaccepts_keeps_the_last_accept_and_highest_promise(self):
        storage = InMemoryStorage()
        wal = storage.wal("w")
        acceptor = Acceptor("r0", wal=wal)
        # Many generations of retried ballots re-accepting a few instances,
        # each with a value of its generation.
        for round_no in range(120):
            ballot = Ballot(round_no, round_no % 2)
            acceptor.on_prepare(Prepare(instance=0, ballot=ballot))
            acceptor.on_accept(Accept(round_no % 3, ballot, f"v{round_no}"))
        acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(200, 1)))
        # Append-only: nothing is folded away, whatever the log's length.
        assert len(wal) == 2 * 120 + 1

        restarted = Acceptor("r0", wal=storage.wal("w"))
        assert restarted.promised == acceptor.promised == Ballot(200, 1)
        for instance in range(3):
            assert restarted.accepted(instance) == acceptor.accepted(instance)
        assert [restarted.accepted_value(i) for i in range(3)] == ["v117", "v118", "v119"]

    def test_value_codec_round_trips_through_wal(self):
        storage = InMemoryStorage()
        acceptor = Acceptor(
            "r0",
            wal=storage.wal("w"),
            encode_value=lambda v: json_text({"wire": v}),
            decode_value=lambda text: json.loads(text)["wire"],
        )
        ballot = Ballot(0, 0)
        acceptor.on_accept(Accept(instance=0, ballot=ballot, value="native"))
        assert storage.wal("w").records() == [["a", 0, [0, 0], b'{"wire":"native"}']]
        restarted = Acceptor(
            "r0",
            wal=storage.wal("w"),
            encode_value=lambda v: json_text({"wire": v}),
            decode_value=lambda text: json.loads(text)["wire"],
        )
        assert restarted.accepted_value(0) == "native"

    def test_unknown_wal_record_rejected(self):
        storage = InMemoryStorage()
        storage.wal("w").append(["z", 0, [0, 0]])
        with pytest.raises(ValueError):
            Acceptor("r0", wal=storage.wal("w"))


# ------------------------------------------------------------------- multipaxos
def deploy(storage_by_id=None, n=3):
    loop = EventLoop()
    matrix = LatencyMatrix(
        matrix=[[1.0 if a != b else 0.1 for b in range(n)] for a in range(n)],
        names=[f"s{i}" for i in range(n)],
    )
    network = Network(loop, matrix)
    ids = [f"r{i}" for i in range(n)]
    applied = {rid: [] for rid in ids}
    replicas = {}
    for i, rid in enumerate(ids):
        storage = (storage_by_id or {}).get(rid)
        replicas[rid] = MultiPaxosReplica(
            rid,
            ids,
            SimTransport(network, rid),
            apply=lambda inst, value, rid=rid: applied[rid].append(value),
            acceptor_wal=storage.wal(f"{rid}.acceptor") if storage else None,
            log_wal=storage.wal(f"{rid}.log") if storage else None,
        )
        network.register(rid, site=i, handler=replicas[rid].on_message)
    return loop, network, replicas, applied


class TestCommitLogReplay:
    def test_restart_replays_applied_prefix_without_network(self):
        storage = {"r0": InMemoryStorage()}
        loop, _, replicas, applied = deploy(storage)
        for i in range(4):
            replicas["r0"].submit(f"cmd-{i}")
        loop.run_until_idle()
        assert applied["r0"] == [f"cmd-{i}" for i in range(4)]

        # Rebuild r0 from its WALs alone: fresh loop, no peers reachable.
        replay = []
        rebuilt = MultiPaxosReplica(
            "r0",
            ["r0"],
            SimTransport(Network(EventLoop(), LatencyMatrix([[0.1]], ["s0"])), "r0"),
            apply=lambda inst, value: replay.append(value),
            acceptor_wal=storage["r0"].wal("r0.acceptor"),
            log_wal=storage["r0"].wal("r0.log"),
        )
        assert replay == applied["r0"]
        assert rebuilt.recovered_instances == 4
        assert rebuilt.log == applied["r0"]
        assert rebuilt._next_instance == 4

    def test_unknown_commit_record_rejected(self):
        storage = InMemoryStorage()
        storage.wal("log").append(["x", 0, "v"])
        with pytest.raises(ValueError):
            deploy_one_with_log(storage)

    def test_rejoin_catches_up_on_missed_decisions(self):
        storage = {"r2": InMemoryStorage()}
        loop, network, replicas, applied = deploy(storage)
        replicas["r0"].submit("before")
        loop.run_until_idle()

        # r2 crashes after applying "before".
        network.unregister("r2")
        for rid in ("r0", "r1"):
            replicas[rid].mark_failed("r2")
        replicas["r0"].submit("while-down-1")
        replicas["r0"].submit("while-down-2")
        loop.run_until_idle()
        assert applied["r0"] == ["before", "while-down-1", "while-down-2"]

        # Restart r2 from its WALs; rejoin() pulls the missed suffix.
        rebuilt_applied = []
        rebuilt = MultiPaxosReplica(
            "r2",
            ["r0", "r1", "r2"],
            SimTransport(network, "r2"),
            apply=lambda inst, value: rebuilt_applied.append(value),
            acceptor_wal=storage["r2"].wal("r2.acceptor"),
            log_wal=storage["r2"].wal("r2.log"),
        )
        assert rebuilt_applied == ["before"]  # local replay only
        network.register("r2", site=2, handler=rebuilt.on_message)
        rebuilt.rejoin()
        loop.run_until_idle()
        assert rebuilt_applied == ["before", "while-down-1", "while-down-2"]
        # Peers re-admitted the restarted replica.
        assert "r2" in replicas["r0"].alive

    def test_rejoined_replica_keeps_ordering_with_new_commands(self):
        storage = {"r1": InMemoryStorage()}
        loop, network, replicas, applied = deploy(storage)
        replicas["r0"].submit("a")
        loop.run_until_idle()
        network.unregister("r1")
        for rid in ("r0", "r2"):
            replicas[rid].mark_failed("r1")
        replicas["r0"].submit("b")
        loop.run_until_idle()

        rebuilt_applied = []
        rebuilt = MultiPaxosReplica(
            "r1",
            ["r0", "r1", "r2"],
            SimTransport(network, "r1"),
            apply=lambda inst, value: rebuilt_applied.append(value),
            acceptor_wal=storage["r1"].wal("r1.acceptor"),
            log_wal=storage["r1"].wal("r1.log"),
        )
        network.register("r1", site=1, handler=rebuilt.on_message)
        rebuilt.rejoin()
        loop.run_until_idle()
        replicas["r0"].submit("c")
        loop.run_until_idle()
        assert rebuilt_applied == ["a", "b", "c"]
        assert applied["r0"] == ["a", "b", "c"]


@pytest.fixture
def open_storage():
    """``FileStorage`` factory; what it opened is closed at teardown (under the
    CI leak gate a WAL file left open is an error)."""
    opened = []

    def factory(directory):
        opened.append(FileStorage(str(directory)))
        return opened[-1]

    yield factory
    for storage in opened:
        storage.close()


def copy_corpus(data, tmp_path):
    """Copy a corpus to where a replica may open it; returns its expected.json."""
    for name in os.listdir(data):
        shutil.copy(os.path.join(data, name), tmp_path / name)
    with open(os.path.join(data, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


#: The instance of the retired ``history-snapshot`` frame that ends the older
#: corpora.  No binary reads it any more: a replay cuts the commit WAL before
#: it, as at a torn tail, and catch-up would refill the rest.
FRAME = 10


def replay_cut(data, tmp_path, open_storage, caplog, index=0, cut=1):
    """Replay replica ``index`` of corpus ``data``; returns it and
    ``expected.json``.  A corpus that ends with the frame (``cut=1``) loses
    that instance, with one warning naming it; ``cut=0`` loses none."""
    expected = copy_corpus(data, tmp_path)
    caplog.clear()
    with caplog.at_level("WARNING", logger="repro.smr.multipaxos"):
        replica = replay(open_storage(tmp_path), index=index)
    cuts = [r.getMessage() for r in caplog.records if "commit WAL cut" in r.getMessage()]
    assert len(cuts) == cut
    assert all(f"commit WAL cut before instance {FRAME}," in c for c in cuts)
    return replica, expected


def replay(storage, index=0):
    """Replica ``index`` of the corpora's group, rebuilt from ``storage`` alone."""
    network = Network(EventLoop(), LatencyMatrix([[0.1]], ["s0"]))
    replica_ids = [replica_node(0, i) for i in range(3)]
    return GroupReplica(
        group_id=0,
        replica_id=replica_ids[index],
        peer_replicas=replica_ids,
        protocol=FlexCastProtocol(CDagOverlay([0, 1])),
        transport=SimTransport(network, replica_ids[index]),
        sink=lambda group, message: None,
        storage=storage,
    )


def wal_records(directory, name):
    """The records of a corpus file, and the payload bytes of each."""
    with open(os.path.join(directory, f"{name}.wal"), "rb") as fh:
        data = fh.read()
    records, good_end = _scan_frames(data)
    assert good_end == len(data) and records
    return records, [payload for payload, _ in _payloads(data)]


def unstamped(text):
    """``text`` less what its envelopes carried and no envelope has any more:
    the ``"epoch":0`` of the overlay-epoch stamp every FlexCast envelope in a
    value once had, and a history delta's journal ``"seq"`` and
    ``"last_delivered"``."""
    text = re.sub(rb',"last_delivered":("[^"]*"|null)', b"", text)
    return re.sub(rb',"seq":(\d+|null)', b"", text.replace(b',"epoch":0', b""))


def assert_value_texts_unchanged(records, payloads):
    """What a corpus written before a value had a line of its own still pins.

    A record without a value is written as it always was.  A record with one
    is written as the same fields, a newline and the value's text, which
    this commit makes as a row (decoded, then serialised again) of the same
    entries as the text the old record held; up to the commit that made
    envelopes rows it was that text byte for byte, less its envelopes'
    epoch stamps.  The value of instance :data:`FRAME`, the retired
    ``history-snapshot`` frame, no longer decodes at all.  Returns how many
    records carried a value that does.
    """
    valued = 0
    for record, payload in zip(records, payloads):
        if not (len(record) > 2 and record[0] in "ac"):
            assert _encode_record(record)[8:] == payload
        elif record[1] == FRAME:
            with pytest.raises(UnreadableValue) as refused:
                turn_entries(stored_text(record[-1]))
            assert isinstance(refused.value.__cause__, CodecError)
            assert "history-snapshot" in str(refused.value.__cause__)
        else:
            entries = turn_entries(stored_text(record[-1]))
            head, text = json_text(record[:-1]), turn_text(entries)
            assert turn_entries(text) == entries and text.startswith(b'["__oe__",')
            assert _encode_record(record[:-1] + [text])[8:] == head + b"\n" + text
            valued += 1
    return valued


class TestParentCommitWal:
    """``data/parent_wal`` was written by the commit before the codec became
    a registry and ``FileWAL`` stopped mirroring its records (replica 0 of a
    3-replica FlexCast group: ten requests, a peer crash, its restart and the
    snapshot frame ordered for it).  New code must replay old files, as far
    as the frame."""

    DATA = os.path.join(os.path.dirname(__file__), "data", "parent_wal")
    #: Instances a replay cuts: the snapshot frame's.
    CUT = 1

    def test_replica_replays_a_wal_written_by_the_parent_commit(
        self, tmp_path, open_storage, caplog
    ):
        replica, expected = replay_cut(
            self.DATA, tmp_path, open_storage, caplog, cut=self.CUT
        )
        assert replica.local_deliveries == expected["local_deliveries"]
        assert replica.smr.applied_count == expected["applied"] - self.CUT
        assert replica.smr.recovered_instances == expected["applied"] - self.CUT

    def test_log_entries_re_encode_to_the_parent_commits_bytes(self):
        # Restated when the value got a line of its own: the value text is
        # the parent commit's, byte for byte (every record here is a full
        # c), but for the snapshot frame's, which decoding refuses.
        records, payloads = wal_records(self.DATA, "group-0-replica-0.log")
        assert assert_value_texts_unchanged(records, payloads) == len(records) - 1


LEADERSHIP_WAL = os.path.join(os.path.dirname(__file__), "data", "leadership_wal")
#: The prepare after which the acceptor WAL compaction of earlier binaries
#: folded the corpus rejoiner's acceptor WAL (it held 7 + 70 records, past
#: twice its 6 accepts + 64).
FOLDED_AT = 70


def fold(wal):
    """Rewrite an acceptor WAL as that compaction left it: the last accept
    of every instance, in instance order, then the promise.  Nothing writes
    such a file any more (a commit log's references point into the acceptor
    WAL, which is therefore only appended to); the corpora keep one, and it
    must replay."""
    records = wal.records()
    accepts = {record[1]: record for record in records if record[0] == "a"}
    promised = max(
        Ballot(*(record[2] if record[0] == "a" else record[-1])) for record in records
    )
    wal.reset(
        [accepts[i] for i in sorted(accepts)] + [["p", [promised.round, promised.proposer]]]
    )


def write_corpus(directory):
    """Write a WAL corpus: the scenario of ``parent_wal`` (a 3-replica
    FlexCast group on the simulator: six requests, replica 2 crashes, four
    more requests, its restart and catch-up, and last 79 prepares at the
    rejoiner, its acceptor WAL folded after the 70th as earlier binaries
    did: :func:`fold`), the two WAL files of replica 0 and of the rejoiner
    as this commit writes them, and what a replay of them must rebuild.

    Every request reaches the leader in a turn of its own — one log value
    each, the records ``leadership_wal`` pins — except the last, which shares
    its turn with a client's retry of ``b0``: a value of two entries, an
    array in replica 0's ``a`` record and in the full ``c`` record of the
    rejoiner, which learns it by catch-up (``turns_wal``; since
    ``snapshot_frame_wal`` every value is a line of text after its record).
    The older corpora end with one more instance, the ``history-snapshot``
    frame a restart used to order, which a replay now cuts
    (:func:`replay_cut`); ``text_wal`` has none.

    ``python tests/smr/test_durability.py --write-corpus DIR``; the output is
    a function of the commit alone, and CI diffs it against the newest
    committed corpus (``text_wal``).  Regenerate that one only for a
    deliberate change of the WAL format, and keep the old one under another
    name if old files must stay readable.
    """
    import tempfile

    from repro.core.message import ClientRequest, Message
    from repro.smr.replica import ReplicatedGroup

    loop = EventLoop()
    network = Network(loop, LatencyMatrix([[0.5, 5], [5, 0.5]], ["x", "y"]))
    with tempfile.TemporaryDirectory() as scratch:
        storage = FileStorage(scratch)
        group = ReplicatedGroup(
            group_id=0, protocol=FlexCastProtocol(CDagOverlay([0, 1])),
            network=network, site=0, sink=lambda group, message: None,
            replication_factor=3, storage=storage,
        )
        network.register("client", site=1, handler=lambda sender, payload: None)
        leader = group.replicas[0]

        def submit(*turns):
            # What is sent at one instant arrives at one instant: one turn.
            for ids in turns:
                for msg_id in ids:
                    message = Message(msg_id=msg_id, dst=frozenset({0}), sender="client")
                    network.send("client", leader.replica_id, ClientRequest(message=message))
                loop.run_until_idle()

        submit(*([f"a{i}"] for i in range(6)))
        group.crash_replica(2, network)
        submit(["b0"], ["b1"], ["b2"], ["b3", "b0"])
        rejoiner = group.restart_replica(2, network)
        loop.run_until_idle()
        for round_no in range(1, 80):
            rejoiner.on_message(
                group.replicas[1].replica_id, Prepare(instance=0, ballot=Ballot(round_no, 1))
            )
            if round_no == FOLDED_AT:
                fold(storage.wal(f"{rejoiner.replica_id}.acceptor"))
        loop.run_until_idle()
        storage.close()
        os.makedirs(directory, exist_ok=True)
        for replica in (leader, rejoiner):
            for kind in ("acceptor", "log"):
                name = f"{replica.replica_id}.{kind}.wal"
                shutil.copy(os.path.join(scratch, name), os.path.join(directory, name))
    expected = {
        "local_deliveries": leader.local_deliveries,
        "applied": leader.smr.applied_count,
        "rejoiner_applied": rejoiner.smr.applied_count,
    }
    with open(os.path.join(directory, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")


class TestLeadershipWal:
    """``data/leadership_wal`` was written by the commit that made the log a
    Multi-Paxos (:func:`write_corpus`): one ``p`` record per leadership, one
    ``a`` per instance, and a commit log of references into them."""

    DATA = LEADERSHIP_WAL
    CUT = 1

    def _records(self, kind):
        return wal_records(LEADERSHIP_WAL, f"group-0-replica-0.{kind}")

    # The same replay as for the parent commit's files; only the corpus differs.
    test_replica_replays_its_own_format = (
        TestParentCommitWal.test_replica_replays_a_wal_written_by_the_parent_commit
    )

    def test_the_value_is_on_disk_once(self):
        accepts, _ = self._records("acceptor")
        commits, _ = self._records("log")
        assert commits == [["c", instance] for instance in range(11)]
        assert [r[:2] for r in accepts if r[0] == "a"] == [["a", i] for i in range(11)]
        assert [r for r in accepts if r[0] == "p"] == [["p", [0, 0]]]

    def test_records_re_encode_to_identical_bytes(self):
        # Restated: value texts identical, value-free records identical, and
        # the snapshot frame's accepted value refused.
        assert assert_value_texts_unchanged(*self._records("acceptor")) == 10
        assert assert_value_texts_unchanged(*self._records("log")) == 0

    def test_the_writer_still_produces_a_replayable_corpus(self, tmp_path):
        # Not byte-compared with the committed files (those pin *this*
        # commit's bytes; a later protocol change may legitimately order the
        # scenario differently) — only that the entry point runs and agrees
        # with itself.
        write_corpus(str(tmp_path))
        with open(tmp_path / "expected.json", encoding="utf-8") as fh:
            assert len(json.load(fh)["local_deliveries"]) == 10
        # One commit per request's turn: no snapshot frame follows the restart.
        records, _ = _scan_frames((tmp_path / "group-0-replica-0.log.wal").read_bytes())
        assert len(records) == 10


TURNS_WAL = os.path.join(os.path.dirname(__file__), "data", "turns_wal")


class TestTurnsWal:
    """``data/turns_wal`` was written by the commit that made a log value the
    turn a replica received (:func:`write_corpus`): where a turn held one
    entry, the records of ``leadership_wal`` byte for byte; where it held
    several, an array — in the leader's ``a`` record and in the full ``c``
    record of the rejoiner that learned the decision by catch-up."""

    DATA = TURNS_WAL
    SEVERAL = 9  # the instance whose turn held two requests
    CUT = 1

    test_replica_replays_its_own_format = (
        TestParentCommitWal.test_replica_replays_a_wal_written_by_the_parent_commit
    )

    def test_the_rejoiner_replays_its_full_records(self, tmp_path, open_storage, caplog):
        rejoiner, expected = replay_cut(
            self.DATA, tmp_path, open_storage, caplog, index=2, cut=self.CUT
        )
        assert rejoiner.local_deliveries == expected["local_deliveries"]
        assert rejoiner.smr.recovered_instances == expected["rejoiner_applied"] - self.CUT
        assert len(rejoiner.smr.log[self.SEVERAL].entries) == 2

    def test_a_turn_of_one_is_the_leadership_corpus_byte_for_byte(self):
        for kind in ("acceptor", "log"):
            ours, _ = wal_records(TURNS_WAL, f"group-0-replica-0.{kind}")
            theirs, _ = wal_records(LEADERSHIP_WAL, f"group-0-replica-0.{kind}")
            differing = [
                a[1] for a, b in zip(ours, theirs)
                if _encode_record(a) != _encode_record(b)
            ]
            assert len(ours) == len(theirs)
            assert differing == ([self.SEVERAL] if kind == "acceptor" else [])

    def test_a_turn_of_several_is_an_array_in_both_record_kinds(self):
        accepts, _ = wal_records(TURNS_WAL, "group-0-replica-0.acceptor")
        learned, _ = wal_records(TURNS_WAL, "group-0-replica-2.log")
        (accept,) = [r for r in accepts if r[:2] == ["a", self.SEVERAL]]
        (commit,) = [r for r in learned if r[:2] == ["c", self.SEVERAL]]
        assert accept[3] == commit[2] and isinstance(commit[2], list)
        assert [e["envelope"]["message"]["msg_id"] for e in commit[2]] == ["b3", "b0"]
        # Every other value on disk is the one-entry object, never an array.
        others = [r[-1] for r in accepts + learned if len(r) > 2 and r[0] in "ac"]
        assert sum(isinstance(value, list) for value in others) == 2

    def test_records_re_encode_to_identical_bytes(self):
        # Restated: value texts identical, value-free records identical, and
        # the snapshot frame's value refused.
        valued = {
            (index, kind): assert_value_texts_unchanged(
                *wal_records(TURNS_WAL, f"group-0-replica-{index}.{kind}")
            )
            for index in (0, 2) for kind in ("acceptor", "log")
        }
        assert valued[0, "acceptor"] == 10 and valued[0, "log"] == 0
        assert valued[2, "log"] >= 1  # what the rejoiner learned by catch-up


SNAPSHOT_FRAME_WAL = os.path.join(os.path.dirname(__file__), "data", "snapshot_frame_wal")
DICT_FORM_WAL = os.path.join(os.path.dirname(__file__), "data", "dict_form_wal")
TEXT_WAL = os.path.join(os.path.dirname(__file__), "data", "text_wal")
CORPUS_FILES = [f"group-0-replica-{i}.{kind}" for i in (0, 2) for kind in ("acceptor", "log")]


class TestSnapshotFrameWal:
    """``data/snapshot_frame_wal`` was written by the commit that made a log
    value text below the state machine (:func:`write_corpus`): the records
    of ``turns_wal``, each value moved out of its record's JSON onto a line
    of its own, and the rejoiner's acceptor WAL folded once.  Its last
    instance is the ``history-snapshot`` frame a restart then ordered through
    the log; nothing writes or reads one any more, and a replay cuts it."""

    DATA = SNAPSHOT_FRAME_WAL
    SEVERAL = TestTurnsWal.SEVERAL
    CUT = 1

    test_replica_replays_its_own_format = (
        TestParentCommitWal.test_replica_replays_a_wal_written_by_the_parent_commit
    )
    test_the_rejoiner_replays_its_full_records = (
        TestTurnsWal.test_the_rejoiner_replays_its_full_records
    )

    def test_a_replay_cuts_the_snapshot_frame_from_the_commit_log(
        self, tmp_path, open_storage, caplog
    ):
        replica, _ = replay_cut(self.DATA, tmp_path, open_storage, caplog)
        records, _ = wal_records(str(tmp_path), "group-0-replica-0.log")
        assert [record[1] for record in records] == list(range(FRAME))
        assert len(replica.smr.log) == FRAME
        assert set(replica.protocol_state.history.message_ids()) == set(
            replica.local_deliveries
        )

    def test_a_value_is_a_line_of_json_text_after_its_record(self):
        seen = set()
        for index in (0, 2):
            for kind in ("acceptor", "log"):
                records, payloads = wal_records(self.DATA, f"group-0-replica-{index}.{kind}")
                for record, payload in zip(records, payloads):
                    valued = len(record) > 2 and record[0] in "ac"
                    assert (type(record[-1]) is bytes) == valued
                    if valued:
                        assert payload == json_text(record[:-1]) + b"\n" + record[-1]
                        assert b"\n" not in record[-1] and json.loads(record[-1])
                        value = json.loads(record[-1])
                        if isinstance(value, list) and value[:1] == ["__oe__"]:
                            value = value[1:]  # a row turn's entries
                        # Before rows one entry was an object, several an array.
                        seen.add((record[0], isinstance(value, list) and len(value) > 1))
        # a and full c records, of turns of one and of several: all four.
        assert seen == {("a", False), ("a", True), ("c", False), ("c", True)}

    def test_the_value_texts_are_the_ones_inside_the_turns_corpus(self):
        for index, kind in ((0, "acceptor"), (2, "log")):
            ours, _ = wal_records(self.DATA, f"group-0-replica-{index}.{kind}")
            theirs, _ = wal_records(TURNS_WAL, f"group-0-replica-{index}.{kind}")
            assert [
                r[:-1] + [unstamped(stored_text(r[-1]))] if len(r) > 2 else r
                for r in theirs
            ] == [r[:-1] + [unstamped(r[-1])] if len(r) > 2 else r for r in ours]

    def test_the_rejoiners_acceptor_wal_was_folded(self):
        records, _ = wal_records(self.DATA, "group-0-replica-2.acceptor")
        accepts = [r[1] for r in records if r[0] == "a"]
        folded = records.index(next(r for r in records if r[0] == "p"))
        assert accepts and accepts[:folded] == sorted(set(accepts[:folded]))
        assert len(records) < 79  # the prepares alone were more


class TestDictFormWal:
    """``data/dict_form_wal`` was written by :func:`write_corpus` from the
    commit that made a restarted replica recover from the log alone to the
    one before envelopes became rows: the records of ``snapshot_frame_wal``
    less the snapshot frame's instance, in the same format."""

    DATA = DICT_FORM_WAL
    SEVERAL = TestTurnsWal.SEVERAL
    CUT = 0

    test_replica_replays_its_own_format = (
        TestParentCommitWal.test_replica_replays_a_wal_written_by_the_parent_commit
    )
    test_the_rejoiner_replays_its_full_records = (
        TestTurnsWal.test_the_rejoiner_replays_its_full_records
    )
    test_a_value_is_a_line_of_json_text_after_its_record = (
        TestSnapshotFrameWal.test_a_value_is_a_line_of_json_text_after_its_record
    )
    test_the_rejoiners_acceptor_wal_was_folded = (
        TestSnapshotFrameWal.test_the_rejoiners_acceptor_wal_was_folded
    )

    def test_the_records_are_the_snapshot_frame_corpus_less_the_frame(self):
        for name in CORPUS_FILES:
            ours, _ = wal_records(DICT_FORM_WAL, name)
            theirs, _ = wal_records(SNAPSHOT_FRAME_WAL, name)
            frame = (["a", FRAME], ["c", FRAME])
            assert ours == [r for r in theirs if r[:2] not in frame], name

    def test_records_re_encode_to_rows_of_the_same_entries(self):
        for name in CORPUS_FILES:
            assert_value_texts_unchanged(*wal_records(DICT_FORM_WAL, name))


class TestTextWal:
    """``data/text_wal`` is what :func:`write_corpus` writes since envelopes
    became rows: the records of ``dict_form_wal``, each value the row form
    of the same entries."""

    DATA = TEXT_WAL
    SEVERAL = TestTurnsWal.SEVERAL
    CUT = 0

    test_replica_replays_its_own_format = (
        TestParentCommitWal.test_replica_replays_a_wal_written_by_the_parent_commit
    )
    test_the_rejoiner_replays_its_full_records = (
        TestTurnsWal.test_the_rejoiner_replays_its_full_records
    )
    test_a_value_is_a_line_of_json_text_after_its_record = (
        TestSnapshotFrameWal.test_a_value_is_a_line_of_json_text_after_its_record
    )
    test_the_rejoiners_acceptor_wal_was_folded = (
        TestSnapshotFrameWal.test_the_rejoiners_acceptor_wal_was_folded
    )

    def test_the_writer_reproduces_the_committed_files_byte_for_byte(self, tmp_path):
        write_corpus(str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(TEXT_WAL))
        for name in os.listdir(TEXT_WAL):
            with open(os.path.join(TEXT_WAL, name), "rb") as ours:
                assert (tmp_path / name).read_bytes() == ours.read(), name

    def test_the_records_are_the_dict_form_corpus_with_each_value_a_row(self):
        def entries(record):
            return record[:-1] + [turn_entries(record[-1])] if len(record) > 2 else record

        for name in CORPUS_FILES:
            ours, _ = wal_records(TEXT_WAL, name)
            theirs, _ = wal_records(DICT_FORM_WAL, name)
            assert [entries(r) for r in ours] == [entries(r) for r in theirs], name
            assert all(r[-1].startswith(b'["__oe__",') for r in ours if len(r) > 2), name

    @pytest.mark.parametrize("index", [0, 2])
    def test_the_dict_form_corpus_replays_to_the_same_state(
        self, index, tmp_path, open_storage
    ):
        replicas = []
        for data in (TEXT_WAL, DICT_FORM_WAL):
            directory = tmp_path / os.path.basename(data)
            directory.mkdir()
            copy_corpus(data, directory)
            replicas.append(replay(open_storage(directory), index=index))
        ours, theirs = replicas
        assert ours.local_deliveries == theirs.local_deliveries
        assert ours.delivery_hash.hexdigest() == theirs.delivery_hash.hexdigest()
        assert ours.smr.applied_count == theirs.smr.applied_count > 0
        assert [value.entries for value in ours.smr.log] == [
            value.entries for value in theirs.smr.log
        ]


def deploy_one_with_log(storage):
    loop = EventLoop()
    network = Network(loop, LatencyMatrix([[0.1]], ["s0"]))
    return MultiPaxosReplica(
        "r0",
        ["r0"],
        SimTransport(network, "r0"),
        apply=lambda inst, value: None,
        log_wal=storage.wal("log"),
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=write_corpus.__doc__)
    parser.add_argument("--write-corpus", metavar="DIR", required=True)
    write_corpus(parser.parse_args().write_corpus)
