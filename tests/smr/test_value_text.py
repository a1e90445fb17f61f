"""A log value is text below the state machine (``smr/replica.py::Turn``).

Exact counts, in the style of ``test_replica_turns.TestTurnCost``, for what a
value costs now: it is serialised by the replica that received it and by
nobody else, and one byte string is what the leader's WAL, the ``Accept`` and
every follower's WAL hold.  Then what is left once a value is applied
(nothing in memory: the WALs hold it), the rare paths that must work from
that state, and what a damaged frame, a damaged record and an oversized value
do.

Every frame here crosses the real codec (:class:`WireDeployment`): on the
simulator replicas share Python objects, and sharing would hide exactly what
these tests are about.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from test_replica_turns import Deployment, request

import repro.runtime.codec as codec
import repro.storage.file as file_module
from repro.runtime.codec import MAX_FRAME_BYTES, CodecError, decode_frame, encode_frame
from repro.runtime.proc import ClusterSpec, ReplicaServer
from repro.sim.transport import RecordingTransport
from repro.smr import multipaxos
from repro.smr.multipaxos import CatchupRequest, Commit, MultiPaxosReplica
from repro.smr.paxos import Accept, Ballot, Prepare, Promise
from repro.smr.replica import OrderedEnvelope, Turn, replica_node
from repro.storage import FileStorage, InMemoryStorage, StorageError
from repro.storage.file import MAX_RECORD_BYTES, FileWAL, _encode_record, _scan_frames


class WireDeployment(Deployment):
    """The corpora's 3-replica group with every message encoded and decoded
    on its way, as between processes; ``bodies`` keeps what was sent."""

    def __init__(self, storage=None):
        super().__init__(storage=storage)
        self.bodies = []
        send = self.network.send

        def through_the_codec(src, dst, payload):
            body = encode_frame(src, payload)[4:]
            self.bodies.append((dst, body))
            return send(src, dst, decode_frame(body)[1])

        self.network.send = through_the_codec

    def hashes(self):
        return {replica.delivery_hash.hexdigest() for replica in self.replicas}


@pytest.fixture
def serialised(monkeypatch):
    """Calls of the one function that makes value text, by who asked."""
    calls = []
    turn_text = codec.turn_text

    def counting(entries):
        calls.append([
            entry.envelope.message.msg_id if hasattr(entry.envelope, "message")
            else entry.envelope.kind for entry in entries
        ])
        return turn_text(entries)

    monkeypatch.setattr(codec, "turn_text", counting)
    return calls


@pytest.fixture
def files(tmp_path):
    storage = FileStorage(str(tmp_path))
    yield storage
    storage.close()


def value_records(storage, replica, kind="acceptor"):
    with open(storage.wal(f"{replica.replica_id}.{kind}").path, "rb") as fh:
        records, _ = _scan_frames(fh.read())
    return [record for record in records if type(record[-1]) is bytes]


# ------------------------------------------------------------ what a value costs
class TestValueTextCost:
    def test_a_value_is_serialised_once_and_stored_and_sent_as_those_bytes(
        self, files, serialised
    ):
        d = WireDeployment(storage=files)
        d.warm_up()
        for i in range(5):
            del serialised[:], d.bodies[:]
            d.send(request(f"m{i}"), request(f"n{i}"))
            d.run()
            # One serialisation per decided instance — the proposer's; the
            # followers', the Commits and the reference records cost none.
            assert serialised == [[f"m{i}", f"n{i}"]]
            accepts = [body for _, body in d.bodies if b'"paxos-accept"' in body]
            commits = [body for _, body in d.bodies if b'"smr-commit"' in body]
            assert len(accepts) == len(commits) == 2 and not any(b"\n" in c for c in commits)
            (line,) = {body.split(b"\n", 1)[1] for body in accepts}
            # Three files, one frame line: one byte string.
            assert [value_records(files, r)[-1][3] for r in d.replicas] == [line] * 3
            assert all(not value_records(files, r, "log") for r in d.replicas)

    def test_a_forwarded_value_is_serialised_by_the_follower_only(self, files, serialised):
        d = WireDeployment(storage=files)
        d.warm_up()
        del serialised[:]
        d.send(request("f0"), request("f1"), to=1)
        d.run()
        assert serialised == [["f0", "f1"]]
        assert all(r.local_deliveries == ["warm", "f0", "f1"] for r in d.replicas)

    def test_catch_up_of_applied_instances_serialises_nothing(self, files, serialised):
        d = WireDeployment(storage=files)
        d.warm_up()
        for i in range(6):
            d.send(request(f"m{i}"))
            d.run()
        del serialised[:], d.bodies[:]
        asker = d.replicas[2].replica_id
        d.replicas[0].smr.on_message(asker, CatchupRequest(from_instance=0, from_replica=asker))
        d.run()
        (reply,) = [body for _, body in d.bodies if b'"smr-catchup-reply"' in body]
        assert reply.split(b"\n")[1:] == [r[3] for r in value_records(files, d.replicas[0])]
        assert serialised == []

    def test_a_restart_parses_each_record_once_and_each_value_when_applied(
        self, files, monkeypatch
    ):
        d = WireDeployment(storage=files)
        d.warm_up()
        for i in range(6):
            d.send(request(f"m{i}"))
            d.run()
        d.group.crash_replica(2, d.network)
        files.sync()
        parsed, decoded = [], []
        json_value, entries = file_module.json_value, codec.turn_entries
        monkeypatch.setattr(
            file_module, "json_value", lambda text: (parsed.append(text), json_value(text))[1])
        monkeypatch.setattr(
            codec, "turn_entries", lambda text: (decoded.append(text), entries(text))[1])
        # The dead replica's process is gone and so are its file handles: the
        # new incarnation opens the two files anew.
        d.group._storage = reopened = FileStorage(files.root)
        try:
            rejoiner = d.group.restart_replica(2, d.network)
        finally:
            reopened.close()
        # 7 accepts + 1 promise, 7 references: each record's own JSON, once;
        # no value text among them, and each value decoded as it was applied.
        assert len(parsed) == 15 and not any(b"__oe__" in text for text in parsed)
        assert len(decoded) == rejoiner.smr.recovered_instances == 7
        assert rejoiner.delivery_hash.hexdigest() in d.hashes() and len(d.hashes()) == 1


def test_opening_a_wal_checks_sums_and_parses_nothing(tmp_path, monkeypatch):
    path = str(tmp_path / "log.wal")
    wal = FileWAL(path)
    for i in range(4):
        wal.append(["c", i, b'{"k":1}'])
    wal.close()
    with open(path, "ab") as fh:
        fh.write(_encode_record(["c", 4, b"{}"])[:-1])  # torn
    monkeypatch.setattr(file_module, "json_value", None)
    reopened = FileWAL(path)
    assert len(reopened) == 4
    monkeypatch.undo()
    assert reopened.records() == [["c", i, b'{"k":1}'] for i in range(4)]
    reopened.close()


# ------------------------------------------------- what is left of an applied value
class TestTextOnlyOnceApplied:
    def run(self):
        d = WireDeployment(storage=InMemoryStorage())
        applied = {id(replica): [] for replica in d.replicas}
        for replica in d.replicas:
            apply = replica.smr._apply
            replica.smr._apply = lambda instance, turn, apply=apply, log=applied[id(replica)]: (
                log.append(turn.entries), apply(instance, turn)
            )
        d.warm_up()
        d.send(*(request(f"m{i}") for i in range(4)))
        d.send(request("f0"), to=1)
        d.run()
        return d, applied

    def test_with_a_commit_log_an_applied_value_is_held_nowhere(self, serialised):
        d, applied = self.run()
        del serialised[:]
        for replica in d.replicas:
            smr = replica.smr
            assert smr.applied_count == 3
            assert smr._decided == {} and smr.acceptor._accepted == {}
            # The rare reader gets it back from the WALs, parsed anew,
            # serialised by nobody.
            assert [turn.entries for turn in smr.log] == applied[id(replica)]
        assert serialised == []


# ------------------------------------------------------ rare paths, from text only
class TestRarePathsFromText:
    def test_catch_up_is_served_by_a_leader_that_holds_text_only(self, serialised):
        d = WireDeployment(storage=InMemoryStorage())
        d.warm_up()
        d.group.crash_replica(2, d.network)
        for i in range(5):
            d.send(request(f"m{i}"), request(f"n{i}"))
            d.run()
        assert d.replicas[0].smr._decided == {}  # the WALs hold the log
        del serialised[:]
        rejoiner = d.group.restart_replica(2, d.network)
        d.run()
        assert rejoiner.smr.stats["catchup_entries_applied"] >= 5
        # Catch-up ships the texts the leader's WALs hold: nothing is serialised.
        assert serialised == []
        assert len(d.hashes()) == 1 and len(rejoiner.local_deliveries) == 11

    def test_phase_one_brings_back_a_value_a_restarted_acceptor_holds_as_text(
        self, serialised
    ):
        d = WireDeployment(storage=InMemoryStorage())
        d.warm_up()
        leader, survivor, restarted = (replica.replica_id for replica in d.replicas)
        d.send(request("pending"))
        while not all(r.smr.acceptor.accepted(1) for r in d.replicas[1:]):
            assert d.loop.step()
        # The leader is cut off with instance 1 accepted everywhere, decided nowhere.
        d.network.set_drop_filter(lambda src, dst, payload: leader in (src, dst))
        d.group.crash_replica(2, d.network)
        d.group.restart_replica(2, d.network)
        d.run()  # the survivor hears of the restart; the leader's Commit is lost
        held = d.replicas[2].smr.acceptor.accepted_value(1)
        assert held._entries is None and 1 not in d.replicas[2].smr._decided
        del serialised[:], d.bodies[:]
        d.group.crash_replica(0, d.network)
        d.run()
        (promise,) = [
            decode_frame(body)[1] for dst, body in d.bodies
            if dst == survivor and b'"paxos-promise"' in body
        ]
        assert isinstance(promise, Promise) and [i for i, _, _ in promise.accepted] == [1]
        assert serialised == []  # reported, adopted and re-proposed as stored text
        for replica in d.replicas[1:]:
            assert replica.local_deliveries == ["warm", "pending"]
        assert len({r.delivery_hash.hexdigest() for r in d.replicas[1:]}) == 1

    def test_an_acceptor_wal_of_many_promises_replays_to_the_same_state(self, serialised):
        storage = InMemoryStorage()
        d = WireDeployment(storage=storage)
        d.warm_up()
        for i in range(4):
            d.send(request(f"m{i}"))
            d.run()
        follower = d.replicas[2]
        wal = storage.wal(f"{follower.replica_id}.acceptor")
        before = [record for record in wal.records() if record[0] == "a"]
        length = len(wal)
        del serialised[:]
        for round_no in range(1, 80):
            follower.on_message(d.replicas[1].replica_id, Prepare(0, Ballot(round_no, 1)))
        d.run()
        # Appended, never folded: the commit log's references point into it.
        assert len(wal) == length + 79 and serialised == []
        assert [record for record in wal.records() if record[0] == "a"] == before
        d.group.crash_replica(2, d.network)
        rejoiner = d.group.restart_replica(2, d.network)
        d.run()
        assert len(d.hashes()) == 1 and rejoiner.smr.recovered_instances == 5

    def test_crash_and_restart_of_every_replica_in_turn(self):
        d = WireDeployment(storage=InMemoryStorage())
        d.warm_up()
        for index in (2, 1, 0):
            d.send(request(f"before-{index}"), to=d.replicas.index(d.group.leader))
            d.run()
            d.group.crash_replica(index, d.network)
            d.send(request(f"during-{index}"), to=d.replicas.index(d.group.leader))
            d.run()
            d.group.restart_replica(index, d.network)
            d.run()
            assert len(d.hashes()) == 1
        assert len(d.replicas[0].local_deliveries) == 7


# ---------------------------------------------------------------- hostile input
GOOD = encode_frame(
    "r0", Accept(3, Ballot(1, 0), Turn((OrderedEnvelope("client", request("m0")),)))
)[4:]


class TestDamagedFrames:
    HEAD, TEXT = GOOD.split(b"\n")

    @pytest.mark.parametrize("body", [
        HEAD + b"\n" + TEXT[:-9],                          # truncated value text
        HEAD + b"\n" + b"<not json>",
        HEAD + b"\n" + TEXT[:40] + b"\n" + TEXT[40:],      # a raw newline inside it
        HEAD + b"\n" + TEXT + b"\n" + TEXT,                # a line too many
        HEAD.replace(b"paxos-accept", b"smr-commit") + b"\n" + TEXT,
        b'{"sender":"r0","envelope":{"type":"smr-catchup-reply","entries":[[1],[2]]}}\n"v"',
        b'{"sender":"r0","envelope":{"type":"smr-catchup-reply","entries":[[1]]}}\n\xff\xfe',
    ])
    def test_a_frame_whose_value_lines_are_damaged_is_a_codec_error(self, body):
        assert decode_frame(GOOD)[1].value.text == self.TEXT
        with pytest.raises(CodecError):
            decode_frame(body)

    def test_the_connection_closes_and_the_replica_keeps_serving(self, tmp_path):
        spec = ClusterSpec(
            groups=[0], replication=1, storage_root=str(tmp_path),
            addresses=[(replica_node(0, 0), "127.0.0.1", 0)],
        )
        bad = self.HEAD + b"\n" + self.TEXT[:-9]

        async def scenario():
            server = ReplicaServer(spec, 0, 0)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame("client", request("m0")))
                writer.write(len(bad).to_bytes(4, "big") + bad)
                writer.write(encode_frame("client", request("never-read")))
                await writer.drain()
                closed = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                _, again = await asyncio.open_connection(host, port)
                again.write(encode_frame("client", request("m1")))
                await again.drain()
                for _ in range(200):
                    if len(server.replica.local_deliveries) == 2:
                        break
                    await asyncio.sleep(0.01)
                again.close()
                return closed, list(server.replica.local_deliveries)
            finally:
                await server.stop()

        closed, delivered = asyncio.run(scenario())
        assert closed == b"" and delivered == ["m0", "m1"]


class TestDamagedRecords:
    def corrupt(self, storage, replica_id, kind, record):
        wal = storage.wal(f"{replica_id}.{kind}")
        wal._frames.append(_encode_record(record))  # its checksum holds
        return wal

    @pytest.mark.parametrize("text", [
        b'{"__oe__":1,"sender":"cli', b"<not json>", b'"plain"',
        # JSON of the wrong shape, as a schema that gained a required key
        # would see a record written before it: an entry without its
        # envelope, a response without its msg_id.
        b'{"__oe__":1,"sender":"c"}',
        b'{"__oe__":1,"sender":"c","envelope":{"type":"response","group":1}}',
    ])
    def test_a_full_record_with_a_bad_value_text_is_a_torn_tail(self, text, caplog):
        storage = InMemoryStorage()
        d = WireDeployment(storage=storage)
        d.warm_up()
        d.send(request("m0"))
        d.run()
        d.group.crash_replica(2, d.network)
        victim = d.replicas[2].replica_id
        log = self.corrupt(storage, victim, "log", ["c", 2, text])
        log.append(["c", 3, b'"beyond"'])
        assert len(log.records()) == 4  # CRC-valid, every one

        with caplog.at_level("WARNING", logger="repro.smr.multipaxos"):
            rejoiner = d.group.restart_replica(2, d.network)
        assert rejoiner.local_deliveries == ["warm", "m0"]
        assert rejoiner.smr.recovered_instances == 2
        assert log.records() == [["c", 0], ["c", 1]]  # the log ends before it
        # ... and the replica says so: the cut drops decisions the file held.
        (cut,) = [r.getMessage() for r in caplog.records if "commit WAL cut" in r.getMessage()]
        assert f"replica {victim}: commit WAL cut before instance 2, 2 of 4 records" in cut
        d.send(request("m1"))
        d.run()
        assert len(d.hashes()) == 1 and rejoiner.local_deliveries == ["warm", "m0", "m1"]

    def test_so_is_a_reference_to_an_accept_with_a_bad_value_text(self):
        storage = InMemoryStorage()
        d = WireDeployment(storage=storage)
        d.warm_up()
        d.group.crash_replica(2, d.network)
        victim = d.replicas[2].replica_id
        self.corrupt(storage, victim, "acceptor", ["a", 1, [0, 0], b"<not json>"])
        log = self.corrupt(storage, victim, "log", ["c", 1])
        rejoiner = d.group.restart_replica(2, d.network)
        assert rejoiner.local_deliveries == ["warm"] and log.records() == [["c", 0]]

    def test_a_record_whose_own_json_is_bad_ends_what_the_file_says(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = FileWAL(path)
        wal.append(["c", 0, b'"v"'])
        wal.close()
        with open(path, "ab") as fh:
            payload = b'["c",1\n"v"'
            fh.write(file_module._HEADER.pack(len(payload), file_module.zlib.crc32(payload)))
            fh.write(payload)
        reopened = FileWAL(path)
        assert reopened.records() == [["c", 0, b'"v"']]
        reopened.close()


class TestOversizedValues:
    def test_a_spliced_record_over_the_cap_is_refused_at_encode(self):
        text = b'"' + b"x" * MAX_RECORD_BYTES + b'"'
        with pytest.raises(StorageError, match="too large"):
            _encode_record(["a", 0, [0, 0], text])
        wal = InMemoryStorage().wal("w")
        with pytest.raises(StorageError):
            wal.append(["c", 0, text])
        assert len(wal) == 0

    def test_a_spliced_frame_over_the_cap_is_refused_at_encode(self):
        turn = Turn(text=b'"' + b"x" * MAX_FRAME_BYTES + b'"')
        with pytest.raises(CodecError, match="exceeds"):
            encode_frame("r0", Accept(0, Ballot(0, 0), turn))
        with pytest.raises(CodecError, match="exceeds"):
            encode_frame("r0", multipaxos.CatchupReply(entries=((0, turn),)))

    def test_catch_up_chunks_close_on_real_bytes_under_the_frame_cap(self):
        # 40 values of half a MiB of text each: 20 MiB, past the frame cap.
        values = [f"<{i}>".ljust(512 * 1024, "x") for i in range(40)]
        assert sum(len(json.dumps(v)) for v in values) > MAX_FRAME_BYTES
        outbox = RecordingTransport()
        server = MultiPaxosReplica(
            "r1", ["r0", "r1"], outbox, apply=lambda i, v: None, storage=InMemoryStorage()
        )
        server.on_message("r0", multipaxos.CatchupReply(entries=tuple(enumerate(values))))
        server.on_message("r0", CatchupRequest(from_instance=0, from_replica="r0"))
        frames = [encode_frame("r1", reply) for _, reply in outbox.sent]
        bound = multipaxos.CATCHUP_CHUNK_BYTES
        assert len(frames) == 10  # four values reach the bound, by their real bytes
        for frame in frames:
            assert bound <= len(frame) < bound + 512 * 1024 + 1024 < MAX_FRAME_BYTES
        rejoiner = MultiPaxosReplica(
            "r0", ["r0", "r1"], RecordingTransport(), apply=lambda i, v: None,
            storage=InMemoryStorage(),
        )
        for frame in frames:
            rejoiner.on_message(*decode_frame(frame[4:]))
        assert rejoiner.log == values


def test_commit_and_reference_records_carry_no_value():
    assert b"\n" not in encode_frame("r0", Commit(instance=3, ballot=Ballot(0, 0)))
    assert _encode_record(["c", 3])[8:] == b'["c",3]'
