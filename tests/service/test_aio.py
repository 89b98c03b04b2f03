"""Tests for the event-loop readout server and the multiplexed client.

The acceptance criterion mirrors the blocking client's: the
``ReadoutServer`` behind an ``AsyncRemoteEngineClient`` -- pipelined or
one request at a time -- and behind the blocking ``RemoteEngineClient`` is
**bit-identical** to direct ``ReadoutEngine.serve()`` and pinned against
the golden fixed-point snapshot, with trace ids and stage histograms intact
through the event loop.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from make_golden import CASES, GOLDEN_PATH, build_parameters, build_traces

from repro.engine import FixedPointBackend, ReadoutEngine, ReadoutRequest
from repro.engine import wire
from repro.service import (
    AsyncRemoteEngineClient,
    ReadoutServer,
    RemoteEngineClient,
    TransportConnectError,
    TransportError,
    TransportTimeoutError,
    run_closed_loop,
    run_open_loop,
    run_soak,
)
from repro.service.net import FrameAssembler

#: Reserved port nothing listens on (see tests/service/test_net.py).
DEAD_ADDRESS = ("127.0.0.1", 1)


@pytest.fixture(scope="module")
def server(service_bundle):
    """A loopback ReadoutServer (in this process) serving the bundle."""
    with ReadoutServer(service_bundle) as server:
        yield server


@pytest.fixture()
def client(server):
    host, port = server.address
    with AsyncRemoteEngineClient(host, port, timeout=60.0) as client:
        yield client


class TestAsyncLoopbackServing:
    def test_bit_identical_to_direct_serve(
        self, client, service_engine, service_traces, service_carriers
    ):
        for request in (
            ReadoutRequest(traces=service_traces, output="both"),
            ReadoutRequest(raw=service_carriers, output="both"),
            ReadoutRequest(raw=service_carriers.astype(np.int64), output="logits"),
            ReadoutRequest(
                raw=service_carriers[:, [2, 0]], qubits=(2, 0), output="states"
            ),
        ):
            direct = service_engine.serve(request)
            remote = client.serve(request)
            assert remote.qubits == direct.qubits
            assert remote.output == direct.output
            if direct.states is not None:
                assert np.array_equal(remote.states, direct.states)
            if direct.logits is not None:
                assert np.array_equal(remote.logits, direct.logits)

    def test_reproduces_golden_snapshot(self, tmp_path):
        """Trained-shape logits served through the event loop land exactly on
        the golden raw-integer snapshot."""
        golden = np.array(
            json.loads(GOLDEN_PATH.read_text())["q16_16"], dtype=np.int64
        )
        expected = golden.astype(np.float64) / CASES["q16_16"].scale
        engine = ReadoutEngine(
            [FixedPointBackend(build_parameters(CASES["q16_16"]))]
        )
        bundle = tmp_path / "golden-bundle"
        engine.save(bundle)
        traces = build_traces()[:, np.newaxis]
        with ReadoutServer(bundle) as server:
            host, port = server.address
            with AsyncRemoteEngineClient(host, port) as client:
                result = client.serve(
                    ReadoutRequest(traces=traces, output="logits")
                )
        engine.close()
        assert np.array_equal(result.logits[:, 0], expected)

    def test_result_meta_labels_the_async_transport(self, client, service_traces):
        # One server, one label: the multiplexed client rides TCP too.
        result = client.serve(ReadoutRequest(traces=service_traces[:16]))
        assert result.meta["transport"] == "tcp"

    def test_trace_id_minted_and_echoed(self, client, service_traces):
        result = client.serve(ReadoutRequest(traces=service_traces[:8]))
        assert len(result.meta["trace_id"]) == 32
        supplied = client.serve(
            ReadoutRequest(traces=service_traces[:8]), trace_id="feed" * 8
        )
        assert supplied.meta["trace_id"] == "feed" * 8

    def test_stage_histograms_populate_through_the_async_path(
        self, server, client, service_traces
    ):
        before = server.metrics()["stages"]["compute"]["count"]
        client.serve(ReadoutRequest(traces=service_traces[:8]))
        snapshot = server.metrics()
        assert snapshot["stages"]["compute"]["count"] == before + 1
        assert snapshot["stages"]["handle"]["count"] >= before + 1
        assert snapshot["source"] == "readout-server"

    def test_remote_errors_reraise_typed(self, client, service_traces):
        # Wrong qubit subset -> the shared formatter's IndexError, remotely.
        with pytest.raises(IndexError):
            client.serve(
                ReadoutRequest(traces=service_traces, qubits=(0, 99))
            )

    def test_info_and_metrics_frames(self, client):
        info = client.info()
        assert info["n_qubits"] == 3
        assert info["backend"] == "fpga"
        metrics = client.metrics()
        assert metrics["source"] == "readout-server"
        assert metrics["connections_open"] >= 1
        assert metrics["connections_accepted"] >= 1


class TestPipelining:
    def test_serve_many_pipelined_bit_identical_and_ordered(
        self, client, service_engine, service_traces, service_carriers
    ):
        requests = [
            ReadoutRequest(traces=service_traces[: 8 * (index + 1)])
            for index in range(4)
        ] + [
            ReadoutRequest(raw=service_carriers[: 8 * (index + 1)], output="both")
            for index in range(4)
        ]
        results = client.serve_many(requests, max_inflight=5)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            direct = service_engine.serve(request)
            assert result.n_shots == direct.n_shots
            if direct.states is not None:
                assert np.array_equal(result.states, direct.states)
            if direct.logits is not None:
                assert np.array_equal(result.logits, direct.logits)

    def test_concurrent_threads_share_one_connection(
        self, client, service_engine, service_traces
    ):
        request = ReadoutRequest(traces=service_traces[:32])
        direct = service_engine.serve(request)
        failures: list[Exception] = []

        def worker() -> None:
            try:
                result = client.serve(request)
                assert np.array_equal(result.states, direct.states)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_duplicate_inflight_seq_rejected_siblings_survive(
        self, server, service_traces
    ):
        """Two frames with the same tag in one segment: the duplicate is
        answered with a tagged error, the original still completes."""
        host, port = server.address
        chunks_a = wire.encode_request_chunks(
            ReadoutRequest(traces=service_traces), wire_meta={"seq": 1}
        )
        chunks_b = wire.encode_request_chunks(
            ReadoutRequest(traces=service_traces[:4]), wire_meta={"seq": 1}
        )
        with socket.create_connection((host, port), timeout=30.0) as sock:
            sock.sendall(
                b"".join(bytes(c) for c in chunks_a)
                + b"".join(bytes(c) for c in chunks_b)
            )
            stream = sock.makefile("rb")
            first = wire.read_frame(stream)
            second = wire.read_frame(stream)
        # The duplicate's error is written synchronously, so it lands first.
        assert wire.frame_kind(first) == wire.ERROR
        assert wire.frame_wire_meta(first)["seq"] == 1
        with pytest.raises(wire.RemoteServingError, match="already in"):
            wire.decode_reply(first)
        # The admitted request is untouched by its duplicate's rejection.
        assert wire.frame_kind(second) == wire.RESULT
        assert wire.frame_wire_meta(second)["seq"] == 1
        result = wire.decode_reply(second)
        assert result.n_shots == service_traces.shape[0]

    def test_timeout_is_typed_and_discards_the_tag(self, service_traces):
        """A server that never answers: the round trip times out with the
        typed error and the abandoned tag leaves the registry clean."""
        with socket.create_server(("127.0.0.1", 0)) as silent:
            host, port = silent.getsockname()
            with AsyncRemoteEngineClient(host, port, timeout=0.2) as client:
                with pytest.raises(TransportTimeoutError):
                    client.serve(ReadoutRequest(traces=service_traces[:4]))
                assert len(client._conn.demux) == 0

    def test_abandoned_tag_late_reply_dropped_siblings_served(
        self, server, service_engine, service_traces
    ):
        host, port = server.address
        request = ReadoutRequest(traces=service_traces)
        direct = service_engine.serve(request)
        with AsyncRemoteEngineClient(host, port, timeout=60.0) as client:
            # Fire one tagged request and abandon it before its reply lands
            # (what a caller timeout does under the hood).
            conn, seq, _future = client._begin()
            client._send(conn, seq, client._request_chunks(request, seq, None))
            assert conn.demux.discard(seq)
            # Its sibling on the same connection is served bit-identically.
            result = client.serve(request)
            assert np.array_equal(result.states, direct.states)
            # The abandoned tag's late reply was dropped, not misrouted.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if conn.demux.late_replies >= 1:
                    break
                time.sleep(0.01)
            assert conn.demux.late_replies >= 1


class TestInterop:
    def test_threaded_client_against_async_server(
        self, server, service_engine, service_traces
    ):
        """Untagged requests ride the server's FIFO chain, so the blocking
        client works against it unchanged."""
        request = ReadoutRequest(traces=service_traces[:32], output="both")
        direct = service_engine.serve(request)
        host, port = server.address
        with RemoteEngineClient(host, port, timeout=60.0) as client:
            for _ in range(3):
                result = client.serve(request)
                assert np.array_equal(result.states, direct.states)
                assert np.array_equal(result.logits, direct.logits)


class TestTransportErrors:
    def test_connect_refused_is_typed(self):
        client = AsyncRemoteEngineClient(*DEAD_ADDRESS, connect_timeout=2.0)
        with pytest.raises(TransportConnectError):
            client.serve(ReadoutRequest(traces=np.zeros((1, 1, 4))))
        client.close()

    def test_server_close_fails_inflight_then_client_redials(
        self, service_bundle, service_engine, service_traces
    ):
        request = ReadoutRequest(traces=service_traces[:8])
        direct = service_engine.serve(request)
        server = ReadoutServer(service_bundle).start()
        host, port = server.address
        client = AsyncRemoteEngineClient(host, port, timeout=60.0)
        try:
            assert np.array_equal(client.serve(request).states, direct.states)
            server.close()
            with pytest.raises((TransportError, TransportTimeoutError)):
                client.serve(request)
            # The next call redials instead of staying wedged.
            server2 = ReadoutServer(service_bundle, host=host, port=port).start()
            try:
                assert np.array_equal(
                    client.serve(request).states, direct.states
                )
                assert client.reconnects >= 1
            finally:
                server2.close()
        finally:
            client.close()
            server.close()

    def test_serve_rejects_non_request(self, client):
        with pytest.raises(TypeError, match="ReadoutRequest"):
            client.serve(np.zeros((1, 1, 4)))


class TestLoadGenerator:
    def test_closed_loop_reports_exact_percentiles(self, server, service_traces):
        host, port = server.address
        report = run_closed_loop(
            f"{host}:{port}",
            ReadoutRequest(traces=service_traces[:16]),
            connections=4,
            inflight=4,
            requests_per_connection=5,
        )
        assert report.mode == "closed"
        assert report.completed == 20
        assert report.drops == 0
        latency = report.latency
        assert latency["count"] == 20
        assert (
            latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
            <= latency["max_ms"]
        )
        assert report.throughput_rps > 0
        assert report.as_dict()["latency"]["count"] == 20

    def test_open_loop_measures_from_scheduled_arrival(
        self, server, service_traces
    ):
        host, port = server.address
        report = run_open_loop(
            f"{host}:{port}",
            ReadoutRequest(traces=service_traces[:16]),
            rate_rps=200.0,
            n_requests=40,
            connections=4,
        )
        assert report.mode == "open"
        assert report.target_rps == 200.0
        assert report.completed == 40
        assert report.drops == 0
        assert report.latency["count"] == 40

    def test_soak_many_connections_zero_drops(self, server, service_traces):
        host, port = server.address
        before = server.metrics()["connections_accepted"]
        report = run_soak(
            f"{host}:{port}",
            ReadoutRequest(traces=service_traces[:8]),
            connections=200,
            requests_per_connection=1,
        )
        assert report.requests == 200
        assert report.completed == 200
        assert report.drops == 0
        assert server.metrics()["connections_accepted"] >= before + 200


class TestFrameAssembler:
    def _frames(self, service_traces) -> list[bytes]:
        request_chunks = wire.encode_request_chunks(
            ReadoutRequest(traces=service_traces[:4]), wire_meta={"seq": 3}
        )
        return [
            b"".join(bytes(chunk) for chunk in request_chunks),
            wire.encode_info_request(),
        ]

    def test_reassembles_across_arbitrary_chunking(self, service_traces):
        frames = self._frames(service_traces)
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
        frame = wire.encode_info_request()
        oversized = bytearray(frame[: wire.PREFIX_SIZE])
        # Rewrite the length field far beyond the cap.
        oversized[-8:] = (1 << 30).to_bytes(8, "big")
        view = assembler.get_buffer(65536)
        view[: wire.PREFIX_SIZE] = oversized
        with pytest.raises(wire.WireFormatError, match="exceeds"):
            assembler.buffer_updated(wire.PREFIX_SIZE)


class TestHotSwapOverAsync:
    def test_swap_wire_frames_flip_the_served_bundle(
        self, tmp_path, service_traces
    ):
        old = ReadoutEngine(
            [
                FixedPointBackend(build_parameters(CASES["q16_16"], seed=2025 + q))
                for q in range(3)
            ]
        )
        new = ReadoutEngine(
            [
                FixedPointBackend(build_parameters(CASES["q16_16"], seed=4025 + q))
                for q in range(3)
            ]
        )
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old.save(old_dir)
        new.save(new_dir)
        request = ReadoutRequest(traces=service_traces, output="logits")
        with ReadoutServer(old_dir) as server:
            host, port = server.address
            with AsyncRemoteEngineClient(host, port, timeout=60.0) as client:
                pre = client.serve(request)
                assert np.array_equal(pre.logits, old.serve(request).logits)
                ack = client.swap(new_dir)
                assert ack["swapped"] is True
                post = client.serve(request)
                assert np.array_equal(post.logits, new.serve(request).logits)
        old.close()
        new.close()
