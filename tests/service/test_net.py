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
import socket
import threading

import numpy as np
import pytest

from make_golden import CASES, GOLDEN_PATH, build_parameters, build_traces

from repro.engine import FixedPointBackend, ReadoutEngine, ReadoutRequest
from repro.engine import wire
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
from repro.service.net import FrameAssembler

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

    def test_every_output_mode_round_trips_with_its_label(
        self, client, service_engine, service_traces, service_carriers
    ):
        for output in ("states", "logits", "both"):
            for request in (
                ReadoutRequest(traces=service_traces, output=output),
                ReadoutRequest(
                    raw=service_carriers[:, [2, 0]], qubits=(2, 0), output=output
                ),
            ):
                remote = client.serve(request)
                direct = service_engine.serve(request)
                assert remote.output == direct.output == output
                assert remote.qubits == direct.qubits
                for mine, theirs in (
                    (remote.states, direct.states),
                    (remote.logits, direct.logits),
                ):
                    if theirs is None:
                        assert mine is None
                    else:
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

    def test_every_path_through_the_server_is_labelled_tcp(
        self, server, client, service_carriers
    ):
        """The server stamps the label, so the client, a shard transport and
        a bare socket all read the same one."""
        request = ReadoutRequest(raw=service_carriers[:4])
        metas = [client.serve(request).meta]
        transport = TcpShardTransport(0, [0, 1, 2], server.address, timeout=60.0)
        try:
            transport.submit(1, request)
            metas.append(transport.collect(1).meta)
        finally:
            transport.close()
        with socket.create_connection(server.address, timeout=30.0) as sock:
            sock.sendall(wire.encode_request(request))
            metas.append(wire.decode_reply(wire.read_frame(sock.makefile("rb"))).meta)
        for meta in metas:
            assert meta["transport"] == "tcp"
            assert meta["backend"] == "fpga"

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

    def test_error_reply_keeps_its_place_in_the_fifo(
        self, server, service_engine, service_traces
    ):
        """A request that fails between two that succeed, all in one write:
        its typed error comes back second, between their results."""
        good = ReadoutRequest(traces=service_traces, output="both")
        bad = ReadoutRequest(traces=service_traces, qubits=(0, 99))
        burst = [good, bad, good]
        with socket.create_connection(server.address, timeout=30.0) as sock:
            sock.sendall(b"".join(wire.encode_request(r) for r in burst))
            stream = sock.makefile("rb")
            replies = [wire.read_frame(stream) for _ in burst]
        assert [wire.frame_kind(r) for r in replies] == [
            wire.RESULT,
            wire.ERROR,
            wire.RESULT,
        ]
        with pytest.raises(IndexError):
            wire.decode_reply(replies[1])
        direct = service_engine.serve(good)
        for reply in (replies[0], replies[2]):
            result = wire.decode_reply(reply)
            np.testing.assert_array_equal(result.states, direct.states)
            np.testing.assert_array_equal(result.logits, direct.logits)

    def test_control_frames_keep_their_place_in_the_fifo(
        self, server, service_engine, service_carriers
    ):
        """INFO and METRICS requests pipelined behind a bulk request are
        answered after it and before the request that follows them."""
        bulk = ReadoutRequest(raw=service_carriers, output="logits")
        small = ReadoutRequest(raw=service_carriers[:2], output="logits")
        burst = [
            wire.encode_request(bulk),
            wire.encode_info_request(),
            wire.encode_metrics_request(),
            wire.encode_request(small),
        ]
        with socket.create_connection(server.address, timeout=30.0) as sock:
            sock.sendall(b"".join(burst))
            stream = sock.makefile("rb")
            replies = [wire.read_frame(stream) for _ in burst]
        assert [wire.frame_kind(r) for r in replies] == [
            wire.RESULT,
            wire.INFO,
            wire.METRICS,
            wire.RESULT,
        ]
        for reply, request in ((replies[0], bulk), (replies[3], small)):
            np.testing.assert_array_equal(
                wire.decode_reply(reply).logits, service_engine.serve(request).logits
            )
        info = wire.decode_info(replies[1])
        assert info["n_qubits"] == 3
        assert info["backend"] == "fpga"
        metrics = wire.decode_metrics(replies[2])
        assert metrics["source"] == "readout-server"
        assert metrics["connections_open"] >= 1
        assert metrics["connections_accepted"] >= 1

    def test_blocking_client_reuses_one_server_connection(
        self, server, client, service_engine, service_traces
    ):
        request = ReadoutRequest(traces=service_traces[:32], output="both")
        direct = service_engine.serve(request)
        before = server.metrics()["connections_accepted"]
        for _ in range(3):
            result = client.serve(request)
            np.testing.assert_array_equal(result.states, direct.states)
            np.testing.assert_array_equal(result.logits, direct.logits)
        assert server.metrics()["connections_accepted"] == before + 1
        assert client.reconnects == 0

    def test_info_describes_the_deployment(self, client, service_engine):
        info = client.info()
        assert info["n_qubits"] == service_engine.n_qubits
        assert info["backend"] == "fpga"
        assert info["supports_raw"] is True
        assert info["shard_layout"]["qubit_groups"] == [[0], [1], [2]]

    def test_trace_id_minted_and_echoed(self, client, service_carriers):
        result = client.serve(ReadoutRequest(raw=service_carriers[:8]))
        assert len(result.meta["trace_id"]) == 32
        supplied = client.serve(
            ReadoutRequest(raw=service_carriers[:8]), trace_id="feed" * 8
        )
        assert supplied.meta["trace_id"] == "feed" * 8

    def test_metrics_count_requests_and_gauge_connections(
        self, server, client, service_carriers
    ):
        before = client.metrics()["stages"]
        client.serve(ReadoutRequest(raw=service_carriers[:8]))
        metrics = client.metrics()
        assert metrics["source"] == "readout-server"
        for stage in ("compute", "handle"):
            assert metrics["stages"][stage]["count"] == before[stage]["count"] + 1
        assert metrics["connections_open"] >= 1
        assert metrics["connections_accepted"] >= 1
        with RemoteEngineClient(*server.address) as second:
            second.info()
            assert (
                second.metrics()["connections_accepted"]
                >= metrics["connections_accepted"] + 1
            )

    def test_threads_sharing_one_client_get_their_own_answers(
        self, client, service_engine, service_carriers
    ):
        """The FIFO wire carries no job ids, so the client must not let two
        threads interleave a send/receive pair and swap each other's replies."""
        requests = [
            ReadoutRequest(raw=service_carriers[: 4 + index], output="logits")
            for index in range(8)
        ]
        failures: list[Exception] = []

        def worker(request) -> None:
            try:
                expected = service_engine.serve(request).logits
                for _ in range(3):
                    np.testing.assert_array_equal(
                        client.serve(request).logits, expected
                    )
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(request,)) for request in requests
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
        assert failures == []

    @pytest.mark.parametrize(
        "header", [b'{"x":"\xff"}', b"[1,2]"], ids=["not-utf8", "not-an-object"]
    )
    def test_undecodable_header_answered_with_a_typed_error(
        self, server, service_engine, service_carriers, header
    ):
        """A well-framed REQUEST whose header is not a UTF-8 JSON object gets
        an ERROR reply naming WireFormatError; the connection keeps serving."""
        garbage = (
            wire._PREFIX.pack(
                wire.MAGIC, wire.WIRE_VERSION, wire.REQUEST, len(header), 0
            )
            + header
        )
        request = ReadoutRequest(raw=service_carriers[:4])
        with socket.create_connection(server.address, timeout=30.0) as sock:
            stream = sock.makefile("rb")
            sock.sendall(garbage)
            reply = wire.read_frame(stream)
            assert wire.frame_kind(reply) == wire.ERROR
            with pytest.raises(wire.RemoteServingError, match="^WireFormatError: "):
                wire.decode_reply(reply)
            sock.sendall(wire.encode_request(request))
            result = wire.decode_reply(wire.read_frame(stream))
        np.testing.assert_array_equal(
            result.states, service_engine.serve(request).states
        )


class TestClientErrors:
    def test_connect_refused_is_typed(self, service_carriers):
        client = RemoteEngineClient(*DEAD_ADDRESS, connect_timeout=2.0)
        with pytest.raises(TransportConnectError, match="Cannot connect"):
            client.serve(ReadoutRequest(raw=service_carriers[:2]))

    def test_refused_connect_does_not_wedge_the_client(
        self, service_bundle, service_carriers
    ):
        """Once a server listens where the refusal came from, the same
        client serves."""
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))  # bound but not listening: refused
        host, port = holder.getsockname()
        client = RemoteEngineClient(host, port, timeout=60.0, connect_timeout=2.0)
        try:
            with pytest.raises(TransportConnectError, match="Cannot connect"):
                client.serve(ReadoutRequest(raw=service_carriers[:2]))
            assert not client._conn.connected
            holder.close()
            with ReadoutServer(service_bundle, host=host, port=port):
                result = client.serve(ReadoutRequest(raw=service_carriers[:2]))
            assert result.n_shots == 2
        finally:
            client.close()
            holder.close()

    def test_accepts_host_port_string(self, server, service_carriers):
        host, port = server.address
        with RemoteEngineClient(f"{host}:{port}") as client:
            assert client.serve(ReadoutRequest(raw=service_carriers[:2])).n_shots == 2

    def test_serve_rejects_non_request(self, client):
        with pytest.raises(TypeError, match="ReadoutRequest"):
            client.serve(np.zeros((1, 1, 4, 2)))

    def test_server_restart_on_the_same_port_is_redialed(
        self, service_bundle, service_engine, service_carriers
    ):
        request = ReadoutRequest(raw=service_carriers[:8])
        direct = service_engine.serve(request)
        server = ReadoutServer(service_bundle).start()
        host, port = server.address
        client = RemoteEngineClient(host, port, timeout=60.0)
        try:
            np.testing.assert_array_equal(client.serve(request).states, direct.states)
            server.close()
            with pytest.raises(TransportError):
                client.serve(request)
            # The next call redials instead of staying wedged.
            with ReadoutServer(service_bundle, host=host, port=port):
                np.testing.assert_array_equal(
                    client.serve(request).states, direct.states
                )
            assert client.reconnects >= 1
        finally:
            client.close()
            server.close()

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

    def test_late_reply_after_timeout_never_answers_next_call(
        self, service_engine, service_carriers
    ):
        """Replies carry no job ids, so the answer to a timed-out request
        must die with the dropped connection, not answer the next call."""
        stale = ReadoutRequest(raw=service_carriers[:4], output="logits")
        fresh = ReadoutRequest(raw=service_carriers[4:12], output="logits")
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(30.0)
        gave_up = threading.Event()

        def answer(conn, late: bool) -> None:
            with conn:
                request = wire.decode_request(wire.read_frame(conn.makefile("rb")))
                if late:
                    gave_up.wait(30.0)
                try:
                    conn.sendall(wire.encode_result(service_engine.serve(request)))
                except OSError:
                    pass  # the client already closed its end

        def slow_server() -> None:
            answer(listener.accept()[0], late=True)
            answer(listener.accept()[0], late=False)

        thread = threading.Thread(target=slow_server, daemon=True)
        thread.start()
        client = RemoteEngineClient(
            *listener.getsockname()[:2], timeout=0.3, connect_timeout=2.0
        )
        try:
            with pytest.raises(TransportTimeoutError):
                client.serve(stale)
            gave_up.set()
            client._conn.timeout = 60.0
            result = client.serve(fresh)
            assert result.n_shots == 8
            np.testing.assert_array_equal(
                result.logits, service_engine.serve(fresh).logits
            )
        finally:
            gave_up.set()
            client.close()
            thread.join(60.0)
            listener.close()
        assert not thread.is_alive()


class TestFrameAssembler:
    def _frames(self, service_carriers) -> list[bytes]:
        return [
            wire.encode_request(ReadoutRequest(raw=service_carriers[:4])),
            wire.encode_info_request(),
        ]

    def test_reassembles_across_arbitrary_chunking(self, service_carriers):
        frames = self._frames(service_carriers)
        stream = b"".join(frames)
        for step in (1, 7, 18, 1024, len(stream)):
            assembler = FrameAssembler()
            out: list[bytes] = []
            offset = 0
            while offset < len(stream):
                view = assembler.get_buffer(65536)
                take = min(step, len(view), len(stream) - offset)
                view[:take] = stream[offset : offset + take]
                offset += take
                frame = assembler.buffer_updated(take)
                if frame is not None:
                    out.append(bytes(frame))
            assert out == frames

    def test_bad_magic_raises_unresyncable(self):
        assembler = FrameAssembler()
        view = assembler.get_buffer(65536)
        garbage = b"XXXX" + bytes(wire.PREFIX_SIZE - 4)
        view[: len(garbage)] = garbage
        with pytest.raises(wire.WireFormatError):
            assembler.buffer_updated(len(garbage))

    def test_oversized_frame_rejected_before_allocation(self):
        assembler = FrameAssembler(max_bytes=1024)
        oversized = bytearray(wire.encode_info_request()[: wire.PREFIX_SIZE])
        # Rewrite the length field far beyond the cap.
        oversized[-8:] = (1 << 30).to_bytes(8, "big")
        view = assembler.get_buffer(65536)
        view[: wire.PREFIX_SIZE] = oversized
        with pytest.raises(wire.WireFormatError, match="exceeds"):
            assembler.buffer_updated(wire.PREFIX_SIZE)


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


class TestHotSwapOverTcp:
    def test_swap_wire_frames_flip_the_served_bundle(
        self, tmp_path, service_traces
    ):
        old, new = (
            ReadoutEngine(
                [
                    FixedPointBackend(
                        build_parameters(CASES["q16_16"], seed=seed + q)
                    )
                    for q in range(3)
                ]
            )
            for seed in (2025, 4025)
        )
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old.save(old_dir)
        new.save(new_dir)
        request = ReadoutRequest(traces=service_traces, output="logits")
        with ReadoutServer(old_dir) as server:
            with RemoteEngineClient(*server.address, timeout=60.0) as client:
                pre = client.serve(request)
                old_id = client.info()["bundle_id"]
                ack = client.swap(new_dir)
                post = client.serve(request)
                new_id = client.info()["bundle_id"]
                assert client.reconnects == 0
        assert ack["swapped"] is True
        assert ack["bundle_id"] == new_id != old_id
        np.testing.assert_array_equal(pre.logits, old.serve(request).logits)
        np.testing.assert_array_equal(post.logits, new.serve(request).logits)
        old.close()
        new.close()


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
                assert service.stats.placements == 2
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
                assert service.sharded and service.stats.placements == 1
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
                # The dead extra host is never dialed.
                assert service.stats.placements == 1
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
                shard_hosts=[handle.address], remote_timeout=60.0
            ) as service:
                single = service.serve(request)
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
        for logits in (
            result.logits, single.logits, sharded.logits, replicated.logits
        ):
            np.testing.assert_array_equal(logits[:, 0], expected)
            np.testing.assert_array_equal(logits[:, 1], expected)
        engine.close()

    def test_in_process_server_golden_from_float_traces(self, tmp_path):
        golden = np.array(
            json.loads(GOLDEN_PATH.read_text())["q16_16"], dtype=np.int64
        )
        expected = golden.astype(np.float64) / CASES["q16_16"].scale
        engine = ReadoutEngine(
            [FixedPointBackend(build_parameters(CASES["q16_16"]))]
        )
        bundle = tmp_path / "golden-bundle"
        engine.save(bundle)
        request = ReadoutRequest(traces=build_traces()[:, np.newaxis], output="logits")
        with ReadoutServer(bundle) as server:
            with RemoteEngineClient(*server.address, timeout=60.0) as client:
                result = client.serve(request)
        engine.close()
        np.testing.assert_array_equal(result.logits[:, 0], expected)
