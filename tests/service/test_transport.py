"""Tests for the shard-transport layer (the local worker-process transport).

The refactor contract: :class:`LocalProcessTransport` re-implements the PR-4
pipe + shared-memory shard protocol *on the wire codec* and must keep its
semantics exactly -- FIFO submit/collect, bit-identity to in-process
serving, worker-death detection, close/submit races -- while the service
layer drives it only through the :class:`ShardTransport` protocol surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ReadoutRequest
from repro.service.transport import (
    SHM_THRESHOLD_BYTES,
    ShardTransport,
    _pack_frame,
    _unpack_frame,
    spawn_local_shards,
)


@pytest.fixture
def shard(service_bundle):
    """One worker transport owning every qubit of the service bundle."""
    (transport,) = spawn_local_shards(service_bundle, [[0, 1, 2]])
    yield transport
    transport.close()


class TestProtocolSurface:
    def test_local_transport_satisfies_the_protocol(self, shard):
        for member in ("submit", "collect", "close", "is_alive"):
            assert callable(getattr(shard, member))
        assert shard.name == "local"
        assert shard.qubits == [0, 1, 2]
        assert shard.qubit_set == frozenset({0, 1, 2})
        assert isinstance(shard, ShardTransport)


class TestFramePacking:
    def test_small_frames_stay_inline(self):
        descriptor, segment = _pack_frame([b"tiny ", b"frame"])
        assert segment is None
        assert descriptor == ("inline", b"tiny frame")
        data, mapping = _unpack_frame(descriptor)
        assert bytes(data) == b"tiny frame" and mapping is None

    def test_bulk_frames_ride_shared_memory(self):
        chunks = [b"head", bytes(range(256)) * (SHM_THRESHOLD_BYTES // 256 + 1)]
        frame = b"".join(chunks)
        descriptor, segment = _pack_frame(chunks)
        assert segment is not None
        try:
            assert descriptor[0] == "shm" and descriptor[2] == len(frame)
            data, mapping = _unpack_frame(descriptor)
            assert bytes(data) == frame
            del data
            mapping.close()
        finally:
            segment.close()
            segment.unlink()


class TestRoundTrip:
    def test_bit_identical_to_in_process_serving(
        self, shard, service_engine, service_carriers, service_traces
    ):
        for request in (
            ReadoutRequest(raw=service_carriers, output="both"),
            ReadoutRequest(traces=service_traces, output="logits"),
            ReadoutRequest(raw=service_carriers[:, [2, 0]], qubits=(2, 0)),
        ):
            shard.submit(1, request)
            result = shard.collect(1)
            direct = service_engine.serve(request)
            if direct.states is not None:
                np.testing.assert_array_equal(result.states, direct.states)
            if direct.logits is not None:
                np.testing.assert_array_equal(result.logits, direct.logits)
            assert result.qubits == direct.qubits

    def test_bulk_payload_crosses_shm_bit_identically(
        self, shard, service_engine, service_carriers
    ):
        """A payload past SHM_THRESHOLD_BYTES takes the segment path."""
        bulk = np.tile(service_carriers, (40, 1, 1, 1))  # ~3 MB of int32
        request = ReadoutRequest(raw=bulk, output="logits")
        assert bulk.nbytes >= SHM_THRESHOLD_BYTES
        shard.submit(7, request)
        result = shard.collect(7)
        np.testing.assert_array_equal(
            result.logits, service_engine.serve(request).logits
        )
        assert not shard._inflight  # the segment was reaped with the response

    def test_remote_error_reraises_with_local_type_and_message(self, shard):
        bad = ReadoutRequest(raw=np.zeros((2, 3, 2, 2), dtype=np.int32))
        shard.submit(3, bad)
        with pytest.raises(ValueError):
            shard.collect(3)
        # The FIFO stays usable after a served error.
        ok = ReadoutRequest(raw=np.zeros((1, 3, 40, 2), dtype=np.int32))
        shard.submit(4, ok)
        assert shard.collect(4).states.shape == (1, 3)


class TestCloseAndLiveness:
    def test_submit_after_close_raises(self, service_bundle, service_carriers):
        (transport,) = spawn_local_shards(service_bundle, [[0, 1, 2]])
        assert transport.is_alive()
        transport.close()
        assert not transport.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            transport.submit(1, ReadoutRequest(raw=service_carriers[:2]))

    def test_close_is_idempotent(self, service_bundle):
        (transport,) = spawn_local_shards(service_bundle, [[0, 1, 2]])
        transport.close()
        transport.close()
        assert not transport.process.is_alive()

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path, service_carriers):
        (transport,) = spawn_local_shards(tmp_path / "not-a-bundle", [[0, 1, 2]])
        try:
            transport.submit(1, ReadoutRequest(raw=service_carriers[:2]))
            with pytest.raises(RuntimeError, match="worker died"):
                transport.collect(1)
        finally:
            transport.close()

    def test_worker_death_is_the_typed_subclass(self, tmp_path, service_carriers):
        """WorkerDiedError subclasses RuntimeError: the supervisor catches
        the type while ``match='worker died'`` callers keep passing."""
        from repro.service.transport import WorkerDiedError

        (transport,) = spawn_local_shards(tmp_path / "not-a-bundle", [[0, 1, 2]])
        try:
            transport.submit(1, ReadoutRequest(raw=service_carriers[:2]))
            with pytest.raises(WorkerDiedError):
                transport.collect(1)
        finally:
            transport.close()


class TestRespawn:
    def test_respawn_revives_a_killed_worker_bit_identically(
        self, service_bundle, service_engine, service_carriers
    ):
        (transport,) = spawn_local_shards(service_bundle, [[0, 1, 2]])
        try:
            assert transport.can_respawn
            request = ReadoutRequest(raw=service_carriers)
            transport.submit(1, request)
            first = transport.collect(1)
            transport.process.kill()
            transport.process.join(10.0)
            assert not transport.is_alive()
            transport.respawn()
            assert transport.is_alive()
            assert transport.respawns == 1
            transport.submit(2, request)
            second = transport.collect(2)
        finally:
            transport.close()
        direct = service_engine.serve(request)
        np.testing.assert_array_equal(first.states, direct.states)
        np.testing.assert_array_equal(second.states, direct.states)

    def test_respawn_clears_inflight_jobs_for_a_clean_fifo(
        self, service_bundle, service_carriers
    ):
        """A job in flight at the moment of death is abandoned by respawn()
        (its caller re-dispatches); the fresh worker starts with an empty
        FIFO instead of inheriting half-answered state."""
        (transport,) = spawn_local_shards(service_bundle, [[0, 1, 2]])
        try:
            transport.process.kill()
            transport.process.join(10.0)
            transport.submit(5, ReadoutRequest(raw=service_carriers[:2]))
            transport.respawn()
            assert not transport._inflight
            transport.submit(6, ReadoutRequest(raw=service_carriers[:2]))
            assert transport.collect(6).n_shots == 2
        finally:
            transport.close()

    def test_respawn_after_close_is_refused(self, service_bundle):
        (transport,) = spawn_local_shards(service_bundle, [[0, 1, 2]])
        transport.close()
        with pytest.raises(RuntimeError, match="closed"):
            transport.respawn()
