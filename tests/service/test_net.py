"""Tests for the TCP serving tier: server, client, remote shard placement.

The acceptance criterion: loopback TCP serving and
``TcpShardTransport``-backed ``ReadoutService`` -- single-address and
replicated placements -- are **bit-identical** to direct
``ReadoutEngine.serve()`` and pinned against the golden fixed-point
snapshot -- the socket is a transport, never a datapath.
"""

from __future__ import annotations

import json
import shutil
import threading

import numpy as np
import pytest

from make_golden import CASES, GOLDEN_PATH, build_parameters, build_traces

from repro.engine import FixedPointBackend, ReadoutEngine, ReadoutRequest
from repro.readout.preprocessing import digitize_traces
from repro.service import (
    ChaosTransport,
    FaultSchedule,
    ReadoutServer,
    ReadoutService,
    RemoteEngineClient,
    TcpShardTransport,
    TransportConnectError,
    TransportError,
    TransportTimeoutError,
    spawn_server,
)

#: 127.0.0.1:1 -- reserved port nothing listens on; loopback connects to it
#: fail fast with a refusal (connecting to a *freed ephemeral* port instead
#: can self-connect on Linux and hang the test).
DEAD_ADDRESS = ("127.0.0.1", 1)


class InFlightProbe(ChaosTransport):
    """A pass-through shard wrapper that records its peak frames in flight."""

    def __init__(self, inner) -> None:
        super().__init__(inner, FaultSchedule())
        self._count_lock = threading.Lock()
        self.inflight = 0
        self.peak = 0
        self.frames = 0

    def _enter(self) -> None:
        with self._count_lock:
            self.inflight += 1
            self.frames += 1
            self.peak = max(self.peak, self.inflight)

    def _leave(self) -> None:
        with self._count_lock:
            self.inflight -= 1

    def submit(self, job_id, request, wire_meta=None) -> None:
        self._enter()
        super().submit(job_id, request, wire_meta)

    def collect(self, job_id):
        try:
            return super().collect(job_id)
        finally:
            self._leave()

    def swap(self, bundle_dir, expected_bundle_id=None) -> dict:
        self._enter()
        try:
            return self.inner.swap(bundle_dir, expected_bundle_id)
        finally:
            self._leave()


@pytest.fixture(scope="module")
def server(service_bundle):
    """A loopback ReadoutServer (in this process) serving the bundle."""
    with ReadoutServer(service_bundle) as server:
        yield server


@pytest.fixture()
def client(server):
    host, port = server.address
    with RemoteEngineClient(host, port, timeout=60.0) as client:
        yield client


class TestLoopbackServing:
    def test_bit_identical_to_direct_serve(
        self, client, service_engine, service_traces, service_carriers
    ):
        for request in (
            ReadoutRequest(raw=service_carriers, output="both"),
            ReadoutRequest(traces=service_traces, output="both"),
            ReadoutRequest(raw=service_carriers.astype(np.int64), output="logits"),
            ReadoutRequest(
                raw=service_carriers[:, [2, 0]], qubits=(2, 0), output="logits"
            ),
        ):
            remote = client.serve(request)
            direct = service_engine.serve(request)
            assert remote.qubits == direct.qubits
            assert remote.n_shots == direct.n_shots
            for mine, theirs in (
                (remote.states, direct.states),
                (remote.logits, direct.logits),
            ):
                if theirs is None:
                    assert mine is None
                else:
                    assert mine.dtype == theirs.dtype
                    np.testing.assert_array_equal(mine, theirs)

    def test_bulk_frame_survives_partial_socket_writes(
        self, client, service_engine, service_carriers
    ):
        """Multi-megabyte frames exceed one send() on an unbuffered socket;
        the framing layer must loop, not truncate (regression: a 6 MB
        carrier batch used to hang the server mid-frame)."""
        bulk = np.tile(service_carriers, (80, 1, 1, 1))  # ~6 MB of int32
        request = ReadoutRequest(raw=bulk, output="states")
        np.testing.assert_array_equal(
            client.serve(request).states, service_engine.serve(request).states
        )

    def test_connection_is_reused_across_requests(self, client, service_carriers):
        first = client.serve(ReadoutRequest(raw=service_carriers[:4]))
        second = client.serve(ReadoutRequest(raw=service_carriers[4:8]))
        assert first.n_shots == second.n_shots == 4
        assert client._conn.connected

    def test_result_meta_records_backend_and_transport(
        self, client, service_carriers
    ):
        meta = client.serve(ReadoutRequest(raw=service_carriers[:2])).meta
        assert meta["backend"] == "fpga"
        assert meta["transport"] == "tcp"

    def test_remote_errors_reraise_with_local_types_and_messages(
        self, client, service_engine, service_carriers
    ):
        bad = ReadoutRequest(raw=service_carriers[:, :2])
        with pytest.raises(ValueError) as remote_err:
            client.serve(bad)
        with pytest.raises(ValueError) as local_err:
            service_engine.serve(bad)
        assert str(remote_err.value) == str(local_err.value)
        with pytest.raises(IndexError, match="out of range"):
            client.serve(
                ReadoutRequest(raw=service_carriers[:, [0]], qubits=(9,))
            )
        # The connection survives served errors.
        assert client.serve(ReadoutRequest(raw=service_carriers[:2])).n_shots == 2

    def test_info_describes_the_deployment(self, client, service_engine):
        info = client.info()
        assert info["n_qubits"] == service_engine.n_qubits
        assert info["backend"] == "fpga"
        assert info["supports_raw"] is True
        assert info["shard_layout"]["qubit_groups"] == [[0], [1], [2]]


class TestClientErrors:
    def test_connect_refused_is_typed(self, service_carriers):
        client = RemoteEngineClient(*DEAD_ADDRESS, connect_timeout=2.0)
        with pytest.raises(TransportConnectError, match="Cannot connect"):
            client.serve(ReadoutRequest(raw=service_carriers[:2]))

    def test_accepts_host_port_string(self, server, service_carriers):
        host, port = server.address
        with RemoteEngineClient(f"{host}:{port}") as client:
            assert client.serve(ReadoutRequest(raw=service_carriers[:2])).n_shots == 2

    def test_closed_client_raises(self, server, service_carriers):
        client = RemoteEngineClient(*server.address)
        client.close()
        with pytest.raises(RuntimeError, match="closed"):
            client.serve(ReadoutRequest(raw=service_carriers[:2]))

    def test_timeout_is_typed_and_drops_the_connection(self, service_bundle):
        """A server that accepts but never answers trips the request timeout."""
        import socket as socket_module

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            client = RemoteEngineClient(
                *listener.getsockname()[:2], timeout=0.3, connect_timeout=2.0
            )
            with pytest.raises(TransportTimeoutError, match="did not answer"):
                client.serve(
                    ReadoutRequest(raw=np.zeros((1, 3, 4, 2), dtype=np.int32))
                )
            assert not client._conn.connected
        finally:
            listener.close()


class TestGracefulShutdown:
    def test_drain_then_refuse(self, service_bundle, service_carriers):
        server = ReadoutServer(service_bundle).start()
        host, port = server.address
        client = RemoteEngineClient(host, port)
        assert client.serve(ReadoutRequest(raw=service_carriers[:2])).n_shots == 2
        server.close()
        server.close()  # idempotent
        # The drained connection is gone and new connections are refused.
        with pytest.raises(TransportError):
            client.serve(ReadoutRequest(raw=service_carriers[:2]))
        client.close()

    def test_spawned_server_process_round_trip(
        self, service_bundle, service_engine, service_carriers
    ):
        handle = spawn_server(service_bundle)
        try:
            with RemoteEngineClient(*handle.address) as client:
                np.testing.assert_array_equal(
                    client.serve(ReadoutRequest(raw=service_carriers)).states,
                    service_engine.serve(
                        ReadoutRequest(raw=service_carriers)
                    ).states,
                )
        finally:
            handle.close()
        assert not handle.process.is_alive()


class TestTcpShardTransport:
    def test_fifo_protocol_and_out_of_sync_detection(self, server, service_carriers):
        transport = TcpShardTransport(0, [0, 1, 2], server.address, timeout=60.0)
        try:
            request = ReadoutRequest(raw=service_carriers[:4])
            transport.submit(11, request)
            transport.submit(12, request)
            assert transport.collect(11).n_shots == 4
            with pytest.raises(RuntimeError, match="out of sync"):
                transport.collect(99)  # 12 was next
        finally:
            transport.close()

    def test_submit_after_close_raises(self, server, service_carriers):
        transport = TcpShardTransport(1, [0, 1, 2], server.address)
        transport.close()
        assert not transport.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            transport.submit(1, ReadoutRequest(raw=service_carriers[:2]))

    def test_placement_failure_surfaces_at_construction(self):
        with pytest.raises(TransportConnectError):
            TcpShardTransport(0, [0], DEAD_ADDRESS, connect_timeout=2.0)

    def test_dead_server_mid_collect_is_typed(self, service_bundle, service_carriers):
        handle = spawn_server(service_bundle)
        transport = TcpShardTransport(0, [0, 1, 2], handle.address, timeout=60.0)
        try:
            transport.submit(1, ReadoutRequest(raw=service_carriers[:2]))
            assert transport.collect(1).n_shots == 2
            handle.close()
            transport.submit(2, ReadoutRequest(raw=service_carriers[:2]))
            with pytest.raises(TransportError, match="died"):
                transport.collect(2)
        except TransportError:
            pass  # the submit itself may already see the closed socket
        finally:
            transport.close()
            handle.close()


class TestRemoteShardedService:
    def test_shard_hosts_bit_identical_to_direct_serve(
        self, service_bundle, service_engine, service_traces, service_carriers
    ):
        servers = [spawn_server(service_bundle) for _ in range(2)]
        try:
            hosts = [f"{host}:{port}" for host, port in (s.address for s in servers)]
            with ReadoutService(
                bundle_dir=service_bundle, shard_hosts=hosts, remote_timeout=60.0
            ) as service:
                assert service.sharded
                assert service.transport_name == "tcp"
                assert service.n_shards == 2
                direct = service_engine.serve(
                    ReadoutRequest(raw=service_carriers, output="both")
                )
                served = service.serve(
                    ReadoutRequest(raw=service_carriers, output="both")
                )
                float_served = service.serve(
                    ReadoutRequest(traces=service_traces, output="both")
                )
                subset = service.serve(
                    ReadoutRequest(
                        raw=service_carriers[:, [2, 0]], qubits=(2, 0), output="logits"
                    )
                )
            np.testing.assert_array_equal(served.states, direct.states)
            np.testing.assert_array_equal(served.logits, direct.logits)
            np.testing.assert_array_equal(float_served.states, direct.states)
            np.testing.assert_array_equal(float_served.logits, direct.logits)
            np.testing.assert_array_equal(subset.logits[:, 0], direct.logits[:, 2])
            np.testing.assert_array_equal(subset.logits[:, 1], direct.logits[:, 0])
            assert {
                k: served.meta[k] for k in ("backend", "shards", "transport")
            } == {"backend": "fpga", "shards": 2, "transport": "tcp"}
            assert served.meta["trace_id"]
            stats = service.stats
            assert stats.transport == "tcp"
            assert stats.placements == 2
            assert stats.backend == "fpga"
        finally:
            for handle in servers:
                handle.close()

    def test_layout_fetched_from_server_without_local_bundle(
        self, service_bundle, service_engine, service_carriers
    ):
        """shard_hosts alone suffices: the partition comes from server info."""
        servers = [spawn_server(service_bundle) for _ in range(2)]
        try:
            hosts = [s.address for s in servers]
            with ReadoutService(shard_hosts=hosts, remote_timeout=60.0) as service:
                assert service.n_qubits == service_engine.n_qubits
                assert service.shard_groups == [[0, 1], [2]]
                np.testing.assert_array_equal(
                    service.serve(ReadoutRequest(raw=service_carriers)).states,
                    service_engine.serve(
                        ReadoutRequest(raw=service_carriers)
                    ).states,
                )
        finally:
            for handle in servers:
                handle.close()

    def test_single_remote_placement_stays_remote(
        self, service_bundle, service_engine, service_carriers
    ):
        handle = spawn_server(service_bundle)
        try:
            with ReadoutService(
                shard_hosts=[handle.address], remote_timeout=60.0
            ) as service:
                assert service.sharded and service.n_shards == 1
                result = service.serve(ReadoutRequest(raw=service_carriers[:8]))
                np.testing.assert_array_equal(
                    result.states,
                    service_engine.serve(
                        ReadoutRequest(raw=service_carriers[:8])
                    ).states,
                )
                assert result.meta["transport"] == "tcp"
        finally:
            handle.close()

    def test_no_shard_ever_has_two_frames_in_flight(
        self, tmp_path, service_bundle, service_engine, service_carriers
    ):
        """The batcher thread is the only dispatcher and collects every shard
        before its next dispatch, so a shard carries at most one frame at a
        time -- through concurrent mixed-priority submitters and a hot swap
        landing in the middle of them."""
        swapped = tmp_path / "readout-v2"
        shutil.copytree(service_bundle, swapped)
        request = ReadoutRequest(raw=service_carriers[:4])
        direct = service_engine.serve(request)
        n_threads, per_thread = 4, 12
        halfway = threading.Barrier(n_threads + 1, timeout=60.0)
        futures: list = []
        errors: list = []
        with ReadoutServer(service_bundle) as first, ReadoutServer(
            service_bundle
        ) as second, ReadoutService(
            bundle_dir=service_bundle,
            shard_hosts=[first.address, second.address],
            max_batch=4,
            max_wait_ms=1.0,
            remote_timeout=60.0,
        ) as service:
            probes = [InFlightProbe(shard) for shard in service._shards]
            service._shards[:] = probes

            def submitter(index: int) -> None:
                try:
                    for k in range(per_thread):
                        if k == per_thread // 2:
                            halfway.wait()
                        priority = "feedback" if (index + k) % 3 == 0 else "bulk"
                        futures.append(
                            service.submit(
                                ReadoutRequest(raw=request.raw, priority=priority)
                            )
                        )
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            halfway.wait()
            service.swap_bundle(bundle_dir=swapped)
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            results = [future.result(timeout=120.0) for future in futures]
            stats = service.stats
        assert errors == []
        assert len(results) == n_threads * per_thread
        for result in results:
            np.testing.assert_array_equal(result.states, direct.states)
        assert stats.bundle_swaps == 1
        # Every shard saw every dispatch plus the swap, one frame at a time.
        for probe in probes:
            assert probe.frames >= stats.batches + 1
            assert probe.peak == 1

    def test_engine_and_shard_hosts_are_mutually_exclusive(self, service_engine):
        with pytest.raises(ValueError, match="shard_hosts"):
            ReadoutService(engine=service_engine, shard_hosts=[DEAD_ADDRESS])

    def test_conflicting_n_shards_rejected(self, service_bundle):
        with pytest.raises(ValueError, match="conflicts"):
            ReadoutService(
                bundle_dir=service_bundle,
                n_shards=3,
                shard_hosts=[DEAD_ADDRESS, DEAD_ADDRESS],
            )

    def test_more_groups_than_hosts_rejected(self, service_bundle):
        """An unplaced qubit group must be a loud error, never silent columns
        of uninitialized memory."""
        with pytest.raises(ValueError, match="shard_hosts"):
            ReadoutService(
                bundle_dir=service_bundle,
                shard_hosts=[DEAD_ADDRESS, DEAD_ADDRESS],
                shard_groups=[[0], [1], [2]],
            )

    def test_excess_hosts_clamped_with_warning(self, tmp_path, service_carriers):
        """More hosts than qubit groups: the extras are left unused, loudly."""
        engine = ReadoutEngine(
            [FixedPointBackend(build_parameters(CASES["q16_16"]))]
        )
        bundle = tmp_path / "one-qubit"
        engine.save(bundle)
        solo = spawn_server(bundle)
        try:
            with pytest.warns(UserWarning, match="left unused"):
                service = ReadoutService(
                    bundle_dir=bundle,
                    shard_hosts=[solo.address, DEAD_ADDRESS],
                    remote_timeout=60.0,
                )
            with service:
                assert service.n_shards == 1  # the dead extra host is never dialed
                result = service.serve(
                    ReadoutRequest(raw=service_carriers[:4, [0]])
                )
                assert result.states.shape == (4, 1)
        finally:
            solo.close()
            engine.close()


class TestGoldenThroughTcp:
    def test_loopback_tcp_reproduces_golden_snapshot(self, tmp_path):
        """End-to-end pinning: bundle -> server process -> TCP -> client must
        land exactly on the golden raw-integer snapshot."""
        golden = np.array(
            json.loads(GOLDEN_PATH.read_text())["q16_16"], dtype=np.int64
        )
        expected = golden.astype(np.float64) / CASES["q16_16"].scale
        engine = ReadoutEngine(
            [FixedPointBackend(build_parameters(CASES["q16_16"])) for _ in range(2)]
        )
        bundle = tmp_path / "golden-bundle"
        engine.save(bundle)
        carriers = digitize_traces(np.stack([build_traces()] * 2, axis=1))
        request = ReadoutRequest(raw=carriers, output="logits")
        handle = spawn_server(bundle)
        try:
            with RemoteEngineClient(*handle.address, timeout=60.0) as client:
                result = client.serve(request)
            with ReadoutService(
                shard_hosts=[handle.address, handle.address], remote_timeout=60.0
            ) as service:
                sharded = service.serve(request)
            with ReadoutServer(bundle) as replica, ReadoutService(
                shard_hosts=[
                    [handle.address, replica.address],
                    [replica.address, handle.address],
                ],
                remote_timeout=60.0,
            ) as service:
                replicated = service.serve(request)
        finally:
            handle.close()
        for logits in (result.logits, sharded.logits, replicated.logits):
            np.testing.assert_array_equal(logits[:, 0], expected)
            np.testing.assert_array_equal(logits[:, 1], expected)
        engine.close()
