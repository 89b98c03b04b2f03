"""Tests for ReadoutService: micro-batching, sharding, bit-identity.

The two load-bearing guarantees:

* the **in-process** placement (and micro-batch coalescing) is
  bit-identical to calling ``engine.serve()`` directly, pinned against the
  golden fixed-point snapshot, and
* **sharded** serving over ``shard_hosts`` (servers each loading the same
  artifact bundle) reassembles exactly the same arrays.

Sharded tests place their qubit groups on in-process loopback
:class:`~repro.service.ReadoutServer`\\ s; construction tests that only
plan the groups point at an address nothing listens on, because planning
from a local bundle never dials.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from make_golden import CASES, GOLDEN_PATH, build_parameters, build_traces

from repro.engine import FixedPointBackend, ReadoutEngine, ReadoutRequest
from repro.readout.preprocessing import digitize_traces
from repro.service import ReadoutServer, ReadoutService, partition_qubits

#: 127.0.0.1:1 -- a reserved port nothing listens on.  A service built with
#: ``bundle_dir`` plans its shard groups from the local manifest at
#: construction and, with ``autostart=False``, never dials its hosts.
DEAD_ADDRESS = ("127.0.0.1", 1)


@pytest.fixture(scope="module")
def two_servers(service_bundle):
    """Two loopback servers on the service bundle: one per shard."""
    with ReadoutServer(service_bundle) as first, ReadoutServer(
        service_bundle
    ) as second:
        yield [first.address, second.address]


class TestPartitioning:
    def test_balanced_contiguous_split(self):
        assert partition_qubits(5, 2) == [[0, 1, 2], [3, 4]]
        assert partition_qubits(5, 5) == [[0], [1], [2], [3], [4]]
        assert partition_qubits(3, 8) == [[0], [1], [2]]  # clipped, never empty

    def test_more_shards_than_qubits_never_yields_empty_shards(self):
        """Degenerate n_shards > n_qubits: only non-empty shards come back."""
        for n_qubits in (1, 2, 3, 5):
            for n_shards in (n_qubits + 1, 2 * n_qubits, 17):
                groups = partition_qubits(n_qubits, n_shards)
                assert len(groups) == n_qubits
                assert all(groups)
                assert sorted(q for g in groups for q in g) == list(range(n_qubits))

    def test_empty_atomic_groups_are_dropped_not_propagated(self):
        groups = partition_qubits(3, 4, atomic_groups=[[0], [], [1], [2], []])
        assert groups == [[0], [1], [2]]
        assert all(groups)

    def test_atomic_groups_are_not_split(self):
        groups = partition_qubits(4, 2, atomic_groups=[[0, 1], [2], [3]])
        assert groups == [[0, 1], [2, 3]]

    def test_rejects_non_covering_hint(self):
        with pytest.raises(ValueError, match="exactly once"):
            partition_qubits(3, 2, atomic_groups=[[0], [1]])

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            partition_qubits(0, 1)
        with pytest.raises(ValueError):
            partition_qubits(3, 0)


class TestConstruction:
    def test_needs_engine_or_bundle(self):
        with pytest.raises(ValueError, match="engine or a bundle_dir"):
            ReadoutService()

    def test_shard_groups_must_cover_qubits(self, service_bundle):
        with pytest.raises(ValueError, match="every qubit"):
            ReadoutService(
                bundle_dir=service_bundle,
                shard_hosts=[DEAD_ADDRESS, DEAD_ADDRESS],
                shard_groups=[[0], [1]],
            )

    def test_invalid_batching_parameters(self, service_engine):
        with pytest.raises(ValueError, match="max_batch"):
            ReadoutService(engine=service_engine, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ReadoutService(engine=service_engine, max_wait_ms=-1)
        with pytest.raises(ValueError, match="max_pending"):
            ReadoutService(engine=service_engine, max_pending=0)

    def test_shard_groups_derived_from_manifest_hints(self, service_bundle):
        service = ReadoutService(
            bundle_dir=service_bundle,
            shard_hosts=[DEAD_ADDRESS, DEAD_ADDRESS],
            autostart=False,
        )
        assert service.shard_groups == [[0, 1], [2]]
        assert service.sharded
        service.close()

    def test_oversubscribed_shard_count_clamps_with_warning(self, service_bundle):
        """More hosts than qubits must clamp loudly, not plan idle
        placements (the bundle has 3 qubits)."""
        with pytest.warns(UserWarning, match="left unused"):
            service = ReadoutService(
                bundle_dir=service_bundle,
                shard_hosts=[DEAD_ADDRESS] * 8,
                autostart=False,
            )
        assert service.stats.placements == 3
        assert service.shard_groups == [[0], [1], [2]]
        assert len(service.shard_hosts) == 3
        service.close()

    def test_empty_explicit_shard_groups_dropped_with_warning(self, service_bundle):
        with pytest.warns(UserWarning, match="empty groups"):
            service = ReadoutService(
                bundle_dir=service_bundle,
                shard_hosts=[DEAD_ADDRESS, DEAD_ADDRESS],
                shard_groups=[[0, 1], [], [2]],
                autostart=False,
            )
        assert service.shard_groups == [[0, 1], [2]]
        assert service.stats.placements == 2
        service.close()


class TestInProcessServing:
    def test_bit_identical_to_direct_serve(
        self, service_engine, service_traces, service_carriers
    ):
        direct_float = service_engine.serve(
            ReadoutRequest(traces=service_traces, output="both")
        )
        direct_raw = service_engine.serve(
            ReadoutRequest(raw=service_carriers, output="both")
        )
        with ReadoutService(engine=service_engine) as service:
            served_float = service.serve(
                ReadoutRequest(traces=service_traces, output="both")
            )
            served_raw = service.serve(
                ReadoutRequest(raw=service_carriers, output="both")
            )
        np.testing.assert_array_equal(served_float.states, direct_float.states)
        np.testing.assert_array_equal(served_float.logits, direct_float.logits)
        np.testing.assert_array_equal(served_raw.states, direct_raw.states)
        np.testing.assert_array_equal(served_raw.logits, direct_raw.logits)

    def test_microbatch_coalescing_is_exact(self, service_engine, service_carriers):
        """Queue a backlog first, then start: the batcher drains it in one
        coalesced dispatch whose sliced results must equal per-request serving."""
        direct = service_engine.serve(
            ReadoutRequest(raw=service_carriers, output="both")
        )
        chunk = 8
        service = ReadoutService(
            engine=service_engine, max_batch=64, max_wait_ms=50.0, autostart=False
        )
        futures = [
            service.submit(
                ReadoutRequest(raw=service_carriers[start : start + chunk], output="both")
            )
            for start in range(0, service_carriers.shape[0], chunk)
        ]
        service.start()
        results = [future.result(timeout=30) for future in futures]
        service.close()
        np.testing.assert_array_equal(
            np.concatenate([result.states for result in results]), direct.states
        )
        np.testing.assert_array_equal(
            np.concatenate([result.logits for result in results]), direct.logits
        )
        stats = service.stats
        assert stats.requests_served == len(futures)
        assert stats.batches < len(futures)
        assert stats.coalesced_requests > 0
        assert results[0].meta["microbatch_requests"] > 1

    def test_incompatible_requests_group_separately(
        self, service_engine, service_traces, service_carriers
    ):
        """A mixed backlog (float vs raw, different outputs) must coalesce only
        within compatibility groups and still serve every request exactly."""
        service = ReadoutService(
            engine=service_engine, max_batch=64, max_wait_ms=50.0, autostart=False
        )
        float_req = ReadoutRequest(traces=service_traces[:6], output="logits")
        raw_req = ReadoutRequest(raw=service_carriers[:6], output="states")
        sub_req = ReadoutRequest(
            raw=service_carriers[6:12, [1]], qubits=(1,), output="states"
        )
        futures = [service.submit(r) for r in (float_req, raw_req, sub_req)]
        service.start()
        results = [future.result(timeout=30) for future in futures]
        service.close()
        np.testing.assert_array_equal(
            results[0].logits, service_engine.serve(float_req).logits
        )
        np.testing.assert_array_equal(
            results[1].states, service_engine.serve(raw_req).states
        )
        np.testing.assert_array_equal(
            results[2].states, service_engine.serve(sub_req).states
        )

    def test_bad_request_fails_fast_and_service_survives(
        self, service_engine, service_carriers
    ):
        with ReadoutService(engine=service_engine) as service:
            with pytest.raises(ValueError, match="must have shape"):
                service.submit(ReadoutRequest(raw=service_carriers[:, :2]))
            with pytest.raises(IndexError, match="out of range"):
                service.submit(
                    ReadoutRequest(raw=service_carriers[:, [0]], qubits=(5,))
                )
            with pytest.raises(TypeError, match="ReadoutRequest"):
                service.submit(service_carriers)
            # The service still serves after rejected submissions.
            result = service.serve(ReadoutRequest(raw=service_carriers[:4]))
            np.testing.assert_array_equal(
                result.states,
                service_engine.serve(ReadoutRequest(raw=service_carriers[:4])).states,
            )

    def test_submit_after_close_raises(self, service_engine, service_carriers):
        service = ReadoutService(engine=service_engine)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(ReadoutRequest(raw=service_carriers[:2]))

    def test_bundle_loaded_in_process_fallback(self, service_bundle, service_carriers):
        """bundle_dir without shard_hosts loads the engine in-process."""
        with ReadoutService(bundle_dir=service_bundle) as service:
            assert not service.sharded
            reference = ReadoutEngine.load(service_bundle)
            np.testing.assert_array_equal(
                service.serve(ReadoutRequest(raw=service_carriers)).states,
                reference.serve(ReadoutRequest(raw=service_carriers)).states,
            )
            reference.close()

    def test_aserve_in_asyncio_loop(self, service_engine, service_carriers):
        async def run(service):
            return await service.aserve(ReadoutRequest(raw=service_carriers[:8]))

        with ReadoutService(engine=service_engine) as service:
            result = asyncio.run(run(service))
        np.testing.assert_array_equal(
            result.states,
            service_engine.serve(ReadoutRequest(raw=service_carriers[:8])).states,
        )

    def test_aserve_cancellation_drops_the_request(
        self, service_engine, service_carriers
    ):
        """A cancelled aserve() task leaves its batch before dispatch: the
        neighbours still serve exactly, and the cancellation is counted."""

        async def run(service):
            doomed = asyncio.ensure_future(
                service.aserve(ReadoutRequest(raw=service_carriers[:8]))
            )
            survivor = asyncio.ensure_future(
                service.aserve(ReadoutRequest(raw=service_carriers[8:16]))
            )
            await asyncio.sleep(0)  # let both submissions queue
            doomed.cancel()
            # Give the loop a tick to propagate the cancellation onto the
            # wrapped concurrent future before the batcher claims it.
            await asyncio.sleep(0.05)
            service.start()  # drain the backlog only now
            result = await survivor
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return result

        service = ReadoutService(
            engine=service_engine, max_batch=64, max_wait_ms=50.0, autostart=False
        )
        result = asyncio.run(run(service))
        service.close()
        np.testing.assert_array_equal(
            result.states,
            service_engine.serve(ReadoutRequest(raw=service_carriers[8:16])).states,
        )
        assert service.stats.cancelled_requests == 1
        assert service.stats.requests_served == 1

    def test_cancelled_future_before_start_is_skipped(
        self, service_engine, service_carriers
    ):
        """Direct submit() + Future.cancel(): the batcher must neither serve
        the entry nor die on its claimed future."""
        service = ReadoutService(engine=service_engine, autostart=False)
        doomed = service.submit(ReadoutRequest(raw=service_carriers[:4]))
        survivor = service.submit(ReadoutRequest(raw=service_carriers[4:8]))
        assert doomed.cancel()
        service.start()
        np.testing.assert_array_equal(
            survivor.result(timeout=30).states,
            service_engine.serve(ReadoutRequest(raw=service_carriers[4:8])).states,
        )
        service.close()
        assert doomed.cancelled()

    def test_submit_after_close_races_are_loud(self, service_engine, service_carriers):
        """submit() strictly after close() raises; a future caught mid-race is
        failed rather than left unresolved (regression guard for the drain)."""
        service = ReadoutService(engine=service_engine)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(ReadoutRequest(raw=service_carriers[:2]))
        # And the close() drain path also fails an already-queued future.
        racing = ReadoutService(engine=service_engine, autostart=False)
        future = racing.submit(ReadoutRequest(raw=service_carriers[:2]))
        racing.close()
        with pytest.raises(RuntimeError, match="closed"):
            future.result(timeout=5)


class TestShardedServing:
    def test_sharded_bit_identical_to_direct_serve(
        self,
        service_bundle,
        service_engine,
        service_traces,
        service_carriers,
        two_servers,
    ):
        """The loopback recipe with two replicas per shard: every answer is
        bit-identical whichever replica is active."""
        first, second = two_servers
        direct = service_engine.serve(
            ReadoutRequest(raw=service_carriers, output="both")
        )
        with ReadoutService(
            bundle_dir=service_bundle,
            shard_hosts=[[first, second], [second, first]],
            remote_timeout=60.0,
        ) as service:
            assert service.stats.placements == 2
            served = service.serve(ReadoutRequest(raw=service_carriers, output="both"))
            float_served = service.serve(
                ReadoutRequest(traces=service_traces, output="both")
            )
            # A subset that spans the shard boundary, in non-natural order.
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
        assert served.meta["shards"] == 2
        assert subset.meta["shards"] == 2

    def test_single_shard_subset_touches_one_worker(
        self, service_bundle, service_engine, service_carriers, two_servers
    ):
        with ReadoutService(
            bundle_dir=service_bundle, shard_hosts=two_servers, remote_timeout=60.0
        ) as service:
            result = service.serve(
                ReadoutRequest(raw=service_carriers[:, [2]], qubits=(2,))
            )
        np.testing.assert_array_equal(
            result.states[:, 0],
            service_engine.serve(
                ReadoutRequest(raw=service_carriers, output="states")
            ).states[:, 2],
        )
        assert result.meta["shards"] == 1

    def test_sharded_microbatching_is_exact(
        self, service_bundle, service_engine, service_carriers, two_servers
    ):
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
        service = ReadoutService(
            bundle_dir=service_bundle,
            shard_hosts=two_servers,
            max_batch=16,
            max_wait_ms=50.0,
            remote_timeout=60.0,
            autostart=False,
        )
        chunk = 16
        futures = [
            service.submit(ReadoutRequest(raw=service_carriers[start : start + chunk]))
            for start in range(0, service_carriers.shape[0], chunk)
        ]
        service.start()
        results = [future.result(timeout=60) for future in futures]
        service.close()
        np.testing.assert_array_equal(
            np.concatenate([result.states for result in results]), direct.states
        )
        assert service.stats.batches < len(futures)
        assert service.stats.coalesced_requests > 0

    def test_worker_error_propagates_and_service_survives(
        self, service_bundle, service_carriers, two_servers
    ):
        with ReadoutService(
            bundle_dir=service_bundle, shard_hosts=two_servers, remote_timeout=60.0
        ) as service:
            # Traces shorter than the matched-filter envelope fail inside the
            # server's datapath; the error must surface on this side.
            bad = np.zeros((4, 3, 2, 2), dtype=np.int32)
            with pytest.raises(ValueError):
                service.serve(ReadoutRequest(raw=bad))
            result = service.serve(ReadoutRequest(raw=service_carriers[:4]))
            assert result.states.shape == (4, 3)


class TestObservability:
    """Every dispatch path records backend kind, shard count, transport name."""

    def test_engine_serve_meta_records_backend(self, service_engine, service_carriers):
        meta = service_engine.serve(ReadoutRequest(raw=service_carriers[:2])).meta
        assert meta["backend"] == "fpga"

    def test_in_process_dispatch_meta(self, service_engine, service_carriers):
        with ReadoutService(engine=service_engine) as service:
            meta = service.serve(ReadoutRequest(raw=service_carriers[:2])).meta
        assert meta["backend"] == "fpga"
        assert meta["shards"] == 0
        assert meta["transport"] == "inprocess"
        stats = service.stats
        assert stats.transport == "inprocess"
        assert stats.placements == 1
        assert stats.backend == "fpga"

    def test_sharded_dispatch_meta(
        self, service_bundle, service_carriers, two_servers
    ):
        with ReadoutService(
            bundle_dir=service_bundle, shard_hosts=two_servers, remote_timeout=60.0
        ) as service:
            meta = service.serve(ReadoutRequest(raw=service_carriers[:2])).meta
            stats = service.stats
        # Telemetry adds trace_id / stage_ms on top of the dispatch meta.
        assert {k: meta[k] for k in ("backend", "shards", "transport")} == {
            "backend": "fpga", "shards": 2, "transport": "tcp"
        }
        assert set(meta["stage_ms"]) == {"queue", "batch", "shard", "wire", "compute"}
        assert meta["trace_id"]
        assert stats.transport == "tcp"
        assert stats.placements == 2
        assert stats.backend == "fpga"

    def test_microbatch_meta_extends_the_dispatch_meta(
        self, service_engine, service_carriers
    ):
        service = ReadoutService(
            engine=service_engine, max_batch=8, max_wait_ms=50.0, autostart=False
        )
        futures = [
            service.submit(ReadoutRequest(raw=service_carriers[i : i + 4]))
            for i in range(0, 16, 4)
        ]
        service.start()
        metas = [future.result(timeout=30).meta for future in futures]
        service.close()
        for meta in metas:
            assert meta["transport"] == "inprocess"
            assert meta["backend"] == "fpga"
            assert meta["microbatch_requests"] == len(futures)


class TestGoldenThroughService:
    def test_in_process_service_matches_golden_snapshot(self, tmp_path):
        """End-to-end pinning: bundle -> in-process service -> coalesced raw
        serving must land exactly on the golden raw-integer snapshot."""
        golden = np.array(
            json.loads(GOLDEN_PATH.read_text())["q16_16"], dtype=np.int64
        )
        expected = golden.astype(np.float64) / CASES["q16_16"].scale
        engine = ReadoutEngine(
            [FixedPointBackend(build_parameters(CASES["q16_16"])) for _ in range(2)]
        )
        bundle = tmp_path / "golden-bundle"
        engine.save(bundle)
        engine.close()
        carriers = digitize_traces(np.stack([build_traces()] * 2, axis=1))
        # Queue the carriers as several requests before starting, so the
        # batcher coalesces them into shared dispatches.
        service = ReadoutService(
            bundle_dir=bundle, max_batch=64, max_wait_ms=50.0, autostart=False
        )
        futures = [
            service.submit(ReadoutRequest(raw=chunk, output="logits"))
            for chunk in np.array_split(carriers, 4)
        ]
        service.start()
        logits = np.concatenate(
            [future.result(timeout=30).logits for future in futures]
        )
        service.close()
        assert service.stats.coalesced_requests > 0
        np.testing.assert_array_equal(logits[:, 0], expected)
        np.testing.assert_array_equal(logits[:, 1], expected)
