"""Process-cluster integration tests: real OS processes over real TCP.

Three layers, each sized for tier-1 wall-clock budgets:

- lifecycle: a 2×3 cluster starts, reports ready, serves multicasts and
  metrics, and shuts down cleanly;
- crash/restart: one follower is SIGKILL'd mid-stream and restarted; the
  PR-6 recovery oracle (:func:`repro.checker.recovery.check_recovery`)
  checks its post-rejoin sequence against its own pre-crash prefix and a
  survivor's reference sequence;
- soak smoke: a few hundred messages through the full soak harness with
  the deep (full-sequence) oracle enabled.

The 1M-message acceptance soak lives in the nightly workflow, not here —
see docs/OPERATIONS.md.
"""

import asyncio

import pytest

from repro.checker.recovery import check_recovery
from repro.core.message import ClientRequest, Message
from repro.runtime.proc import (
    ClusterSpec,
    ProcessCluster,
    ReplicaServer,
    _sequence_digest,
)
from repro.smr.replica import replica_node
from repro.workload.soak import SoakConfig, run_soak


def run(coro):
    return asyncio.run(coro)


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
                for i in range(10, 20):
                    await client.multicast([0, 1], payload={"seq": i})

                await cluster.restart_replica(0, 2)
                agreed = await cluster.await_group_convergence(0, min_count=20)
                assert agreed["count"] == 20

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


class TestSoakSmoke:
    def test_short_soak_oracle_clean(self, tmp_path):
        config = SoakConfig(
            groups=2,
            replication=3,
            storage_root=str(tmp_path),
            messages=600,
            clients=50,
            inflight_per_client=2,
            max_batch=32,
            max_delay_ms=5.0,
            flush_every_ms=200.0,
            sample_every_s=0.5,
            drain_timeout=60.0,
        )
        assert config.resolved_deep_check()  # <=100k messages: full oracle
        report = run(run_soak(config))
        assert report["schema"] == "BENCH_soak/v1"
        assert report["oracle"]["violations"] == []
        assert report["oracle"]["deep_check"] is True
        totals = report["totals"]
        assert totals["completed"] == totals["issued"] == 600
        assert totals["exhausted"] == 0
        assert report["latency_ms"]["delivery"]["count"] == 600
        for info in report["per_group"].values():
            assert info["converged"]
        assert report["watermarks"]  # sampled at least once
