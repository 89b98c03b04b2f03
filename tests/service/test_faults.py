"""Fault-injection tests: the self-healing serving stack under scripted chaos.

Every scenario here follows the same shape: inject a seeded fault (dropped
connection, refused connection, mid-frame truncation, reply slower than the
deadline, killed placement), let the stack recover on its own, and then
assert the strongest property the repo has -- the answers are
**bit-identical** to direct ``ReadoutEngine.serve()`` -- plus that the
matching ``ServiceStats`` / transport counters recorded the recovery, so a
silently-skipped fault cannot masquerade as resilience.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.engine import ReadoutRequest

from repro.service import (
    AllReplicasDownError,
    ChaosProxy,
    ChaosTransport,
    FaultSchedule,
    ReadoutServer,
    ReadoutService,
    RemoteEngineClient,
    RetryPolicy,
    TcpShardTransport,
    TransportConnectError,
    TransportError,
    spawn_server,
)

#: Fast, deterministic retrying for fault scenarios: no jitter, tiny
#: backoff, a per-try deadline short enough that a stalled reply fails
#: over in test time.
FAST_RETRY = RetryPolicy(
    attempts=3, try_timeout_s=5.0, backoff_base_s=0.01, jitter_s=0.0
)


@pytest.fixture()
def chaos_server(service_bundle):
    """A fresh in-process server per test, so reply-cache counters start at 0."""
    with ReadoutServer(service_bundle) as server:
        yield server


def proxied_transport(proxy: ChaosProxy, retry: RetryPolicy = FAST_RETRY):
    """A single-replica transport dialing through ``proxy`` (seeded backoff)."""
    return TcpShardTransport(
        0, [0, 1, 2], [proxy.address], retry=retry, seed=11
    )


class TestFaultSchedule:
    def test_plan_is_consumed_in_order_then_default(self):
        schedule = FaultSchedule(["stall", "pass", "drop"])
        assert [schedule.next() for _ in range(5)] == [
            "stall",
            "pass",
            "drop",
            "pass",
            "pass",
        ]
        assert schedule.exhausted
        assert schedule.counters["pass"] == 3

    def test_rates_are_seeded_and_reproducible(self):
        draws = []
        for _ in range(2):
            schedule = FaultSchedule(rates={"stall": 0.3}, seed=5)
            draws.append([schedule.next() for _ in range(20)])
        assert draws[0] == draws[1]
        assert "stall" in draws[0] and "pass" in draws[0]

    def test_event_names_are_counted(self):
        schedule = FaultSchedule(["truncate"])
        schedule.next("reply")
        assert schedule.counters["reply:truncate"] == 1

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSchedule(rates={"stall": 1.5})


class TestCloseRace:
    @pytest.mark.parametrize(
        "try_timeout_s", [1.0, None], ids=["per_try_deadline", "default_timeouts"]
    )
    def test_close_during_redispatch_neither_hangs_nor_strands_futures(
        self, chaos_server, service_bundle, try_timeout_s
    ):
        """close() must not wait for the retry budget while the batcher
        fails a shard over and over, nor for the reply it is blocked on:
        every reply stalls -- past a 1 s per-try deadline, or for the whole
        default 30 s ``remote_timeout`` -- so waiting either out would take
        minutes or 30 s.  close() shuts the shard sockets down, the blocked
        read fails into the failover loop, the closing flag aborts it, and
        the in-flight future resolves exactly once, with the abort error."""
        schedule = FaultSchedule(default="stall")
        with ChaosProxy(chaos_server.address, schedule, stall_s=600.0) as proxy:
            service = ReadoutService(
                bundle_dir=service_bundle,
                shard_hosts=[proxy.address],
                retry=RetryPolicy(
                    attempts=120,
                    try_timeout_s=try_timeout_s,
                    backoff_base_s=0.0,
                    jitter_s=0.0,
                ),
            )
            try:
                future = service.submit(
                    ReadoutRequest(raw=np.zeros((2, 3, 40, 2), dtype=np.int32))
                )
                resolutions: list = []
                future.add_done_callback(resolutions.append)
                time.sleep(1.5)  # let the batcher block on a stalled reply
                started = time.monotonic()
                service.close()
                elapsed = time.monotonic() - started
                assert elapsed < 5.0, f"close() took {elapsed:.1f}s"
                assert future.done()
                with pytest.raises(TransportError, match="closing"):
                    future.result(timeout=0)
                assert len(resolutions) == 1
            finally:
                service.close()
            assert proxy.counters["stalled"] >= 1


class TestFaultMatrix:
    """Seeded ChaosProxy scenarios, each recovering to bit-identical replies."""

    def _serve_twice_through(self, proxy, service_engine, service_carriers):
        """Serve two jobs through ``proxy``; return (results, direct)."""
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
        transport = proxied_transport(proxy)
        try:
            transport.submit(1, ReadoutRequest(raw=service_carriers))
            first = transport.collect(1)
            transport.submit(2, ReadoutRequest(raw=service_carriers))
            second = transport.collect(2)
        finally:
            transport.close()
        return (first, second), direct, transport

    def test_dropped_connection_recovers_via_reply_cache(
        self, chaos_server, service_engine, service_carriers
    ):
        # connect, reply#1, reply#2 dropped, refused redial, redial, replay
        schedule = FaultSchedule(["pass", "pass", "drop", "refuse", "pass", "pass"])
        with ChaosProxy(chaos_server.address, schedule) as proxy:
            results, direct, transport = self._serve_twice_through(
                proxy, service_engine, service_carriers
            )
            assert proxy.counters["dropped"] == 1
            assert proxy.counters["refused"] == 1
        for result in results:
            np.testing.assert_array_equal(result.states, direct.states)
        assert transport.counters["failovers"] >= 1
        # The upstream served job 2 before the proxy dropped the reply: the
        # resend must be answered from the reply cache, not recomputed.
        assert chaos_server.deduplicated_replies >= 1

    def test_transport_side_drop_fails_over_bit_identically(
        self, chaos_server, service_engine, service_carriers
    ):
        """ChaosTransport drops the active connection between submit and
        collect: the collect fails over and resends the unanswered frame."""
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
        schedule = FaultSchedule(["pass", "drop"])  # submit passes, collect drops
        transport = ChaosTransport(
            TcpShardTransport(
                0, [0, 1, 2], chaos_server.address, retry=FAST_RETRY, seed=11
            ),
            schedule,
        )
        try:
            transport.submit(1, ReadoutRequest(raw=service_carriers))
            result = transport.collect(1)
        finally:
            transport.close()
        np.testing.assert_array_equal(result.states, direct.states)
        assert schedule.counters["collect:drop"] == 1
        assert transport.counters == {"failovers": 1, "resubmissions": 1}

    def test_mid_frame_truncation_recovers(
        self, chaos_server, service_engine, service_carriers
    ):
        schedule = FaultSchedule(["pass", "pass", "truncate", "pass", "pass"])
        with ChaosProxy(chaos_server.address, schedule) as proxy:
            results, direct, transport = self._serve_twice_through(
                proxy, service_engine, service_carriers
            )
            assert proxy.counters["truncated"] == 1
        for result in results:
            np.testing.assert_array_equal(result.states, direct.states)
        assert transport.counters["failovers"] >= 1
        assert chaos_server.deduplicated_replies >= 1

    def test_reply_slower_than_deadline_fails_over(
        self, chaos_server, service_engine, service_carriers
    ):
        schedule = FaultSchedule(["pass", "pass", "stall", "pass", "pass"])
        with ChaosProxy(
            chaos_server.address, schedule, stall_s=30.0
        ) as proxy:
            direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
            transport = TcpShardTransport(
                0,
                [0, 1, 2],
                [proxy.address],
                retry=RetryPolicy(
                    attempts=3,
                    try_timeout_s=0.7,
                    backoff_base_s=0.01,
                    jitter_s=0.0,
                ),
                seed=11,
            )
            try:
                transport.submit(1, ReadoutRequest(raw=service_carriers))
                first = transport.collect(1)
                transport.submit(2, ReadoutRequest(raw=service_carriers))
                started = time.monotonic()
                second = transport.collect(2)
                elapsed = time.monotonic() - started
            finally:
                transport.close()
            assert proxy.counters["stalled"] == 1
        np.testing.assert_array_equal(first.states, direct.states)
        np.testing.assert_array_equal(second.states, direct.states)
        assert elapsed < 10.0  # recovered within the bounded deadline
        assert transport.counters["failovers"] >= 1
        assert chaos_server.deduplicated_replies >= 1

    def test_refused_placement_fails_over_to_live_replica(
        self, chaos_server, service_engine, service_carriers
    ):
        """A replica that refuses from the start is skipped at construction."""
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
        transport = TcpShardTransport(
            0,
            [0, 1, 2],
            [("127.0.0.1", 1), chaos_server.address],  # port 1: refused
            retry=FAST_RETRY,
            timeout=60.0,
            connect_timeout=2.0,
            seed=11,
        )
        try:
            transport.submit(1, ReadoutRequest(raw=service_carriers))
            result = transport.collect(1)
        finally:
            transport.close()
        np.testing.assert_array_equal(result.states, direct.states)
        host, port = chaos_server.address
        assert transport.address == f"{host}:{port}"

    @pytest.mark.parametrize("attempts", [1, 2, 3])
    def test_a_frame_reaches_servers_at_most_attempts_times(
        self, chaos_server, service_carriers, attempts
    ):
        """``RetryPolicy.attempts`` counts total tries: with every reply
        dropped, the upstream sees the frame exactly ``attempts`` times."""
        with ChaosProxy(chaos_server.address, FaultSchedule(default="drop")) as proxy:
            transport = proxied_transport(
                proxy,
                RetryPolicy(attempts=attempts, backoff_base_s=0.01, jitter_s=0.0),
            )
            try:
                transport.submit(1, ReadoutRequest(raw=service_carriers[:2]))
                with pytest.raises(AllReplicasDownError):
                    transport.collect(1)
            finally:
                transport.close()
            assert proxy.counters["dropped"] == attempts

    def test_every_replica_down_is_a_typed_bounded_failure(self):
        started = time.monotonic()
        with pytest.raises(TransportConnectError, match="replica"):
            TcpShardTransport(
                0,
                [0],
                [("127.0.0.1", 1), ("127.0.0.1", 1)],
                retry=FAST_RETRY,
                connect_timeout=1.0,
            )
        assert time.monotonic() - started < 10.0


class TestRemoteClientReconnect:
    """Satellite: RemoteEngineClient reconnects and resends transparently."""

    def test_dropped_pooled_connection_is_resent_not_duplicated(
        self, chaos_server, service_engine, service_carriers
    ):
        schedule = FaultSchedule(["pass", "pass", "drop", "pass", "pass"])
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
        with ChaosProxy(chaos_server.address, schedule) as proxy:
            with RemoteEngineClient(proxy.address, timeout=60.0) as client:
                first = client.serve(ReadoutRequest(raw=service_carriers))
                second = client.serve(ReadoutRequest(raw=service_carriers))
                assert client.reconnects == 1
        np.testing.assert_array_equal(first.states, direct.states)
        np.testing.assert_array_equal(second.states, direct.states)
        # The drop happened after the upstream served: the resent frame was
        # answered from the reply cache (idempotent request id), served once.
        assert chaos_server.deduplicated_replies == 1

    def test_connect_refusal_is_not_retried(self, service_carriers):
        client = RemoteEngineClient(
            "127.0.0.1", 1, connect_timeout=1.0, retries=5
        )
        with pytest.raises(TransportConnectError):
            client.serve(ReadoutRequest(raw=service_carriers[:2]))
        assert client.reconnects == 0
        client.close()

    def test_retries_zero_surfaces_the_drop(
        self, chaos_server, service_carriers
    ):
        schedule = FaultSchedule(["pass", "drop"])
        with ChaosProxy(chaos_server.address, schedule) as proxy:
            with RemoteEngineClient(
                proxy.address, timeout=60.0, retries=0
            ) as client:
                from repro.service import TransportError

                with pytest.raises(TransportError):
                    client.serve(ReadoutRequest(raw=service_carriers[:2]))


class TestShardFailure:
    def _two_shard_service(self, service_bundle, handles):
        hosts = [handle.address for handle in handles]
        return ReadoutService(
            bundle_dir=service_bundle,
            shard_hosts=hosts,
            retry=RetryPolicy(
                attempts=2, try_timeout_s=2.0, backoff_base_s=0.01, jitter_s=0.0
            ),
            remote_timeout=60.0,
            connect_timeout=2.0,
            failover_seed=5,
        )

    def test_a_dead_shard_fails_the_request_bounded(
        self, service_bundle, service_carriers
    ):
        handles = [spawn_server(service_bundle) for _ in range(2)]
        try:
            with self._two_shard_service(service_bundle, handles) as service:
                handles[1].process.kill()
                handles[1].process.join(10.0)
                future = service.submit(ReadoutRequest(raw=service_carriers))
                with pytest.raises(AllReplicasDownError):
                    future.result(timeout=60)
        finally:
            for handle in handles:
                handle.close()

    def test_failed_shard_never_desyncs_a_healthy_one(
        self, service_bundle, service_engine, service_carriers
    ):
        """A failed dispatch still collects every shard it reached, so the
        healthy shard's FIFO stays in step: once the dead shard's server is
        back, the next answer is bit-identical on every column."""
        request = ReadoutRequest(raw=service_carriers, output="both")
        direct = service_engine.serve(request)
        handles = [spawn_server(service_bundle) for _ in range(2)]
        try:
            with self._two_shard_service(service_bundle, handles) as service:
                assert service.shard_groups == [[0, 1], [2]]
                handles[1].process.kill()
                handles[1].process.join(10.0)
                for _ in range(2):
                    with pytest.raises(AllReplicasDownError):
                        service.serve(request)
                handles.append(
                    spawn_server(service_bundle, port=handles[1].address[1])
                )
                result = service.serve(request)
        finally:
            for handle in handles:
                handle.close()
        np.testing.assert_array_equal(result.states, direct.states)
        np.testing.assert_array_equal(result.logits, direct.logits)


class TestChaosHeadline:
    """The pinned guarantee: kill one shard's replica process AND shut the
    other shard's replica mid-load; every request completes bit-identical
    to direct serve()."""

    def test_replicated_service_survives_dual_kill_under_load(
        self, service_bundle, service_engine, service_carriers
    ):
        direct = service_engine.serve(
            ReadoutRequest(raw=service_carriers, output="both")
        )
        # Two shards, two replica placements each: four server processes.
        replicas = [
            [spawn_server(service_bundle) for _ in range(2)] for _ in range(2)
        ]
        flat = [handle for pair in replicas for handle in pair]
        try:
            shard_hosts = [
                [f"{host}:{port}" for host, port in (h.address for h in pair)]
                for pair in replicas
            ]
            with ReadoutService(
                bundle_dir=service_bundle,
                shard_hosts=shard_hosts,
                retry=RetryPolicy(
                    attempts=4,
                    try_timeout_s=10.0,
                    backoff_base_s=0.02,
                    jitter_s=0.0,
                ),
                remote_timeout=60.0,
                connect_timeout=5.0,
                failover_seed=17,
                max_wait_ms=0.0,
            ) as service:
                futures = [
                    service.submit(ReadoutRequest(raw=service_carriers, output="both"))
                    for _ in range(4)
                ]
                # Mid-load: kill shard 0's first placement (the worker
                # process dies hard) and shut shard 1's first placement.
                replicas[0][0].process.kill()
                replicas[1][0].close()
                futures += [
                    service.submit(ReadoutRequest(raw=service_carriers, output="both"))
                    for _ in range(4)
                ]
                results = [future.result(timeout=120) for future in futures]
                stats = service.stats
            # Zero lost requests, all bit-identical.
            assert len(results) == 8
            for result in results:
                np.testing.assert_array_equal(result.states, direct.states)
                np.testing.assert_array_equal(result.logits, direct.logits)
            assert stats.requests_served == 8
            assert stats.failovers >= 2  # one per killed placement
        finally:
            for handle in flat:
                handle.close()

    def test_concurrent_load_with_kill_is_lossless(
        self, service_bundle, service_engine, service_carriers
    ):
        """Same guarantee under genuinely concurrent submitters."""
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers[:8]))
        replicas = [spawn_server(service_bundle) for _ in range(2)]
        try:
            hosts = [
                [f"{h}:{p}" for h, p in (r.address for r in replicas)]
            ]  # one shard, two replicas
            with ReadoutService(
                bundle_dir=service_bundle,
                shard_hosts=hosts,
                shard_groups=[[0, 1, 2]],
                retry=RetryPolicy(
                    attempts=4,
                    try_timeout_s=10.0,
                    backoff_base_s=0.02,
                    jitter_s=0.0,
                ),
                remote_timeout=60.0,
                failover_seed=23,
            ) as service:
                results: list = [None] * 12
                errors: list = []

                def submitter(index: int) -> None:
                    try:
                        results[index] = service.serve(
                            ReadoutRequest(raw=service_carriers[:8])
                        )
                    except Exception as exc:  # noqa: BLE001 - asserted below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=submitter, args=(i,)) for i in range(12)
                ]
                for thread in threads[:6]:
                    thread.start()
                replicas[0].process.kill()
                for thread in threads[6:]:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                stats = service.stats
            assert not errors
            for result in results:
                assert result is not None
                np.testing.assert_array_equal(result.states, direct.states)
            assert stats.requests_served == 12
            assert stats.failovers >= 1
        finally:
            for handle in replicas:
                handle.close()
