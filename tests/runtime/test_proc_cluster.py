"""Process-cluster integration tests: real OS processes over real TCP.

Three layers, each sized for tier-1 wall-clock budgets:

- lifecycle: a 2×3 cluster starts, reports ready, serves multicasts and
  metrics, and shuts down cleanly; its replica handles answer like
  ``Popen``, and no process of it (template or replica) outlives it;
- crash/restart: one follower is SIGKILL'd mid-stream and restarted; the
  PR-6 recovery oracle (:func:`repro.checker.recovery.check_recovery`)
  checks its post-rejoin sequence against its own pre-crash prefix and a
  survivor's reference sequence;
- soak: ``benchmarks/run_soak.py`` for two seconds — the end-to-end
  benchmark's ``rejoin`` round, its oracle and the leak gauges.

The 500-second soak lives in the nightly workflow, not here — see
docs/OPERATIONS.md.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.checker.recovery import check_recovery
from repro.core.message import ClientRequest, Message
from repro.runtime.proc import (
    ClusterSpec,
    ProcessCluster,
    ReplicaServer,
    _pid_gone,
    _sequence_digest,
)
from repro.smr.multipaxos import CATCHUP_CHUNK_BYTES
from repro.smr.replica import replica_node

SOAK = Path(__file__).resolve().parents[2] / "benchmarks" / "run_soak.py"
#: A quarter MiB of payload: ten such messages outgrow one catch-up chunk.
PAD = "x" * (256 * 1024)


def run(coro):
    return asyncio.run(coro)


def metric(scraped, name):
    """The value of an unlabelled-or-single series ``name`` in Prometheus text."""
    (value,) = [
        float(line.rpartition(" ")[2]) for line in scraped.splitlines()
        if line.split("{", 1)[0].split(" ", 1)[0] == name
    ]
    return value


class TestClusterLifecycle:
    def test_start_multicast_scrape_stop(self, tmp_path):
        async def scenario():
            async with ProcessCluster(
                groups=2, replication=3, storage_root=str(tmp_path)
            ) as cluster:
                assert sorted(cluster.replica_coords()) == [
                    (g, i) for g in (0, 1) for i in (0, 1, 2)
                ]
                client = await cluster.new_client("lifecycle-client")
                global_lat = await client.multicast([0, 1], payload={"op": "a"})
                assert set(global_lat) == {0, 1}
                local_lat = await client.multicast([0], payload={"op": "b"})
                assert set(local_lat) == {0}
                batch = await client.multicast_batch([0, 1], ["c", "d", "e"])
                assert len(batch) == 3
                # Group 0 saw all five messages; group 1 everything but the
                # group-0-only multicast.
                for gid, expected in ((0, 5), (1, 4)):
                    agreed = await cluster.await_group_convergence(
                        gid, min_count=expected
                    )
                    assert agreed["count"] == expected
                # A follower serves Prometheus text on its frame port.
                scraped = await cluster.scrape(0, 1)
                assert "server_delivered" in scraped
            for proc in cluster.processes.values():
                assert proc.poll() is not None

        run(scenario())
        # A child imports its module once: run as ``__main__`` a second time,
        # it would open its log with a RuntimeWarning (and hold two copies of
        # every class in it).
        logs = sorted((tmp_path / "logs").glob("*.log"))
        assert len(logs) == 6
        for log in logs:
            assert "RuntimeWarning" not in log.read_text(), log.name

    def test_dead_child_surfaces_log_path(self, tmp_path):
        async def scenario():
            cluster = ProcessCluster(
                groups=1, replication=1, storage_root=str(tmp_path)
            )
            # Sabotage the spawn so the child dies at import time: readiness
            # polling must fail fast with a pointer at the child's log.
            original = cluster._spawn

            def broken_spawn(gid, index):
                original(gid, index)
                cluster.processes[(gid, index)].kill()

            cluster._spawn = broken_spawn
            with pytest.raises(RuntimeError, match="log"):
                await cluster.start(ready_timeout=5.0)
            await cluster.stop()

        run(scenario())


class TestReplicaHandles:
    """``cluster.processes`` answers the part of ``Popen`` its callers use."""

    def test_kill_poll_wait_and_answers_after_stop(self, tmp_path):
        async def scenario():
            async with ProcessCluster(
                groups=1, replication=2, storage_root=str(tmp_path)
            ) as cluster:
                live, victim = cluster.processes[(0, 0)], cluster.processes[(0, 1)]
                with pytest.raises(subprocess.TimeoutExpired):
                    live.wait(timeout=0.1)
                assert live.poll() is None
                victim.kill()
                assert victim.wait(timeout=10.0) == -signal.SIGKILL
                assert victim.poll() == victim.returncode == -signal.SIGKILL
            return live, victim

        live, victim = run(scenario())
        # stop() ended the template; the handles answer from its reports.
        assert live.poll() == live.wait(timeout=0.0) == 0
        assert victim.poll() == -signal.SIGKILL

    def test_handles_answer_after_the_template_was_killed(self, tmp_path):
        async def scenario():
            cluster = ProcessCluster(groups=1, replication=2, storage_root=str(tmp_path))
            await cluster.start()
            first, second = cluster.processes.values()
            os.kill(cluster._template.process.pid, signal.SIGKILL)
            try:
                # The replicas run on, with nobody left to report their exits.
                with pytest.raises(subprocess.TimeoutExpired):
                    first.wait(timeout=0.2)
                assert first.poll() is None
                first.kill()
                assert first.wait(timeout=10.0) is not None
                await cluster.stop()
                assert second.poll() is not None
                assert second.wait(timeout=0.0) == second.returncode
            finally:
                for proc in (first, second):
                    if not _pid_gone(proc.pid):
                        os.kill(proc.pid, signal.SIGKILL)

        run(scenario())


def _repro_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    return env


#: Starts a 1×2 cluster, prints the template's pid and the replicas', and
#: exits without calling ``stop()``.
ABANDONING_SUPERVISOR = """
import asyncio, json, os, sys
from repro.runtime.proc import ProcessCluster

async def main():
    cluster = ProcessCluster(groups=1, replication=2, storage_root=sys.argv[1])
    await cluster.start()
    pids = [cluster._template.process.pid, *(p.pid for p in cluster.processes.values())]
    print(json.dumps(pids), flush=True)

asyncio.run(main())
os._exit(0)
"""


class TestNoProcessOutlivesACluster:
    def test_stop_leaves_no_pid_not_even_a_zombie(self, tmp_path):
        async def scenario():
            async with ProcessCluster(
                groups=1, replication=2, storage_root=str(tmp_path)
            ) as cluster:
                pids = [cluster._template.process.pid]
                pids += [proc.pid for proc in cluster.processes.values()]
                await cluster.kill_replica(0, 1)
                await cluster.restart_replica(0, 1)
                pids.append(cluster.processes[(0, 1)].pid)
            return pids

        for pid in run(scenario()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_template_ends_with_the_replicas_of_a_vanished_supervisor(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-c", ABANDONING_SUPERVISOR, str(tmp_path)],
            env=_repro_env(), stdout=subprocess.PIPE, text=True, timeout=120,
        )
        assert done.returncode == 0
        template, *replicas = json.loads(done.stdout)
        try:
            # Its supervisor is gone; the template stays to reap the replicas.
            time.sleep(0.5)
            assert not _pid_gone(template)
            for pid in replicas:
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while not _pid_gone(template):
                assert time.monotonic() < deadline, "the template outlived its replicas"
                time.sleep(0.05)
        finally:
            for pid in (template, *replicas):
                if not _pid_gone(pid):
                    os.kill(pid, signal.SIGKILL)


class TestGracefulStop:
    def test_stop_fsyncs_and_closes_the_wals(self, tmp_path):
        spec = ClusterSpec(
            groups=[0],
            replication=1,
            storage_root=str(tmp_path),
            addresses=[(replica_node(0, 0), "127.0.0.1", 0)],
        )
        ids = [f"m{i}" for i in range(5)]

        async def scenario():
            server = ReplicaServer(spec, 0, 0)
            await server.start()
            for msg_id in ids:
                server.handle_frame(
                    "client",
                    ClientRequest(
                        message=Message.create([0], sender="client", msg_id=msg_id)
                    ),
                )
                # One frame per event-loop turn, so one log instance each
                # (frames of one turn would share an instance).
                while server.replica._turn:
                    await asyncio.sleep(0)
            assert server.replica.local_deliveries == ids
            wals = list(server._storage._open_wals.values())
            # Fewer records than one fsync batch: nothing is on disk for sure.
            assert wals and all(0 < len(wal) == wal._unsynced for wal in wals)
            fsyncs = server._storage._fsync_hist
            before = fsyncs.total
            await server.stop()
            assert fsyncs.total == before + len(wals)
            assert all(wal._file.closed for wal in wals)

            reborn = ReplicaServer(spec, 0, 0)
            assert reborn.replica.smr.recovered_instances == len(ids)
            assert reborn.replica.local_deliveries == ids
            await reborn.stop()

        run(scenario())


class TestKillRestart:
    def test_sigkill_follower_rejoins_consistently(self, tmp_path):
        async def scenario():
            async with ProcessCluster(
                groups=2, replication=3, storage_root=str(tmp_path)
            ) as cluster:
                client = await cluster.new_client("crash-client")
                for i in range(10):
                    await client.multicast([0, 1], payload={"seq": i})
                await cluster.await_group_convergence(0, min_count=10)
                pre_crash = await cluster.delivered_sequence(0, 2)

                await cluster.kill_replica(0, 2)
                assert cluster.live_replicas(0) == [0, 1]
                # What it misses is more value text than one catch-up chunk
                # holds, read back from the survivors' WAL files.
                missed = range(10, 20)
                assert len(missed) * len(PAD) > 1.2 * CATCHUP_CHUNK_BYTES
                for i in missed:
                    await client.multicast([0, 1], payload={"seq": i, "pad": PAD})

                await cluster.restart_replica(0, 2)
                agreed = await cluster.await_group_convergence(0, min_count=20)
                assert agreed["count"] == 20
                caught = await cluster.scrape(0, 2)
                assert metric(caught, "smr_catchup_entries_applied_total") >= len(missed)

                rejoined = await cluster.delivered_sequence(0, 2)
                survivor = await cluster.delivered_sequence(0, 0)
                # The served digest is a running hash; after a WAL replay and
                # a catch-up it must still be the digest of the sequence.
                assert agreed["digest"] == _sequence_digest(rejoined)
                check_recovery(
                    pre_crash,
                    rejoined,
                    reference=survivor,
                    replica="group-0-replica-2",
                ).raise_if_failed()
                # The untouched group converged on all 20 as well.
                await cluster.await_group_convergence(1, min_count=20)

        run(scenario())


class TestSoak:
    def test_short_soak_is_clean_and_the_victim_catches_up(self, tmp_path):
        report_path = tmp_path / "soak.json"
        done = subprocess.run(
            [sys.executable, str(SOAK), "--seconds", "2", "--output", str(report_path)],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        report = json.loads(report_path.read_text())
        assert report["violations"] == []
        assert report["failed"] == 0
        assert report["completed"] == report["attempted"] > 0
        assert report["fault"]["caught_up"] > report["fault"]["restart_called"]
