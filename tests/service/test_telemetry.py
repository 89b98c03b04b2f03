"""Tests for the traffic-tier telemetry subsystem.

Covers the :mod:`repro.service.telemetry` primitives (lock-cheap log-bucket
histograms, the recorder), the service-level surfaces built on them
(``metrics()``, priority-ordered dispatch, atomic stats snapshots), and the
METRICS wire surface a remote server exposes.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.engine import ReadoutRequest
from repro.service import (
    LatencyHistogram,
    ReadoutService,
    RemoteEngineClient,
    STAGES,
    ServiceStats,
    TelemetryRecorder,
    spawn_server,
)
from repro.service import telemetry as telemetry_mod


# --------------------------------------------------------------------------
# LatencyHistogram
# --------------------------------------------------------------------------


class TestLatencyHistogram:
    def test_records_and_counts(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.004, 0.008):
            hist.record(value)
        assert hist.count == 4
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["mean_ms"] == pytest.approx(3.75, rel=0.01)

    def test_percentiles_are_ordered_and_clamped_to_observed_range(self):
        hist = LatencyHistogram()
        values = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
        for value in values:
            hist.record(value)
        p50, p95, p99 = (hist.percentile(p) for p in (50.0, 95.0, 99.0))
        assert p50 <= p95 <= p99
        # Interpolation may not be exact, but it must stay in the observed
        # range and land near the true quantile within bucket resolution.
        assert min(values) <= p50 <= max(values)
        assert p99 <= max(values)
        assert p50 == pytest.approx(0.050, rel=0.15)
        assert p99 == pytest.approx(0.099, rel=0.15)

    def test_empty_histogram_is_all_zeros(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(99.0) == 0.0
        summary = hist.summary()
        assert summary == {
            "count": 0, "mean_ms": 0.0, "max_ms": 0.0,
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }

    def test_out_of_range_values_clamp_to_edge_buckets(self):
        hist = LatencyHistogram(floor_s=1e-6, ceiling_s=60.0)
        hist.record(0.0)       # below the floor
        hist.record(1e9)       # above the ceiling
        assert hist.count == 2
        assert hist.percentile(99.0) >= hist.percentile(1.0)

    def test_merge_folds_counts_and_moments(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for value in (0.001, 0.002):
            a.record(value)
        for value in (0.004, 0.008):
            b.record(value)
        a.merge(b)
        assert a.count == 4
        assert a.summary()["max_ms"] == pytest.approx(8.0, rel=0.01)

    def test_merge_accepts_snapshots_and_round_trips(self):
        a = LatencyHistogram()
        for value in (0.001, 0.004, 0.016):
            a.record(value)
        snap = a.snapshot()
        rebuilt = LatencyHistogram.from_snapshot(snap)
        assert rebuilt.count == a.count
        assert rebuilt.summary() == a.summary()
        b = LatencyHistogram()
        b.merge(snap)
        assert b.count == a.count

    def test_merge_rejects_mismatched_layouts(self):
        a = LatencyHistogram(buckets_per_decade=20)
        b = LatencyHistogram(buckets_per_decade=10)
        b.record(0.001)
        with pytest.raises(ValueError, match="layout"):
            a.merge(b)

    def test_concurrent_records_are_never_lost(self):
        hist = LatencyHistogram()
        per_thread, n_threads = 2000, 8
        barrier = threading.Barrier(n_threads)

        def hammer(seed: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                hist.record((seed + i % 97 + 1) * 1e-5)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == per_thread * n_threads


# --------------------------------------------------------------------------
# TelemetryRecorder
# --------------------------------------------------------------------------


class TestTelemetryRecorder:
    def test_snapshot_has_every_stage(self):
        recorder = TelemetryRecorder()
        recorder.record("queue", 0.001)
        recorder.count("bundle_swaps")
        snap = recorder.snapshot()
        assert snap["enabled"] is True
        assert set(snap["stages"]) == set(STAGES)
        assert snap["stages"]["queue"]["count"] == 1
        assert snap["counters"] == {"bundle_swaps": 1}

    def test_disabled_recorder_is_a_no_op(self):
        recorder = TelemetryRecorder(enabled=False)
        recorder.record("queue", 0.5)
        recorder.count("anything")
        snap = recorder.snapshot()
        assert snap["enabled"] is False
        assert all(s["count"] == 0 for s in snap["stages"].values())
        assert snap["counters"] == {}

    def test_unknown_stage_is_rejected(self):
        with pytest.raises(KeyError):
            TelemetryRecorder().record("warp-drive", 0.1)

    def test_merge_snapshot_folds_remote_counts(self):
        local, remote = TelemetryRecorder(), TelemetryRecorder()
        local.record("compute", 0.002)
        remote.record("compute", 0.004)
        remote.count("deduplicated_replies")
        snapshot = remote.snapshot()
        snapshot["stages"]["nonexistent-stage"] = {"count": 1}  # ignored
        local.merge_snapshot(snapshot)
        merged = local.snapshot()
        assert merged["stages"]["compute"]["count"] == 2
        assert merged["counters"]["deduplicated_replies"] == 1


# --------------------------------------------------------------------------
# Service metrics surface
# --------------------------------------------------------------------------


class TestServiceMetrics:
    def test_inprocess_metrics_report_every_stage(
        self, service_engine, service_carriers
    ):
        with ReadoutService(engine=service_engine, max_wait_ms=0) as service:
            for _ in range(3):
                service.serve(ReadoutRequest(raw=service_carriers[:4]))
            metrics = service.metrics()
        assert metrics["source"] == "readout-service"
        assert metrics["transport"] == "inprocess"
        assert set(metrics["stages"]) == set(STAGES)
        for stage in STAGES:
            summary = metrics["stages"][stage]
            assert summary["count"] == 3
            for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"):
                assert summary[key] >= 0.0
        assert metrics["stats"]["requests_served"] == 3

    def test_remote_server_serves_the_same_snapshot_over_metrics_frames(
        self, service_bundle, service_carriers
    ):
        handle = spawn_server(service_bundle)
        try:
            address = "%s:%d" % handle.address
            with ReadoutService(
                shard_hosts=[address], max_wait_ms=0, remote_timeout=60.0
            ) as service:
                service.serve(ReadoutRequest(raw=service_carriers[:4]))
                folded = service.metrics()
                with RemoteEngineClient(address, timeout=30.0) as client:
                    direct = client.metrics()
        finally:
            handle.close()
        assert direct["source"] == "readout-server"
        assert direct["requests_served"] >= 1
        assert direct["stages"]["compute"]["count"] >= 1
        # The service's folded view carries the very snapshot the server
        # answers with (modulo requests arriving in between).
        assert address in folded["placements_metrics"]
        remote_view = folded["placements_metrics"][address]
        assert remote_view["source"] == "readout-server"
        assert remote_view["requests_served"] >= 1

    def test_metrics_cli_pretty_prints_a_live_server(
        self, service_bundle, service_carriers, capsys
    ):
        handle = spawn_server(service_bundle)
        try:
            address = "%s:%d" % handle.address
            with ReadoutService(
                shard_hosts=[address], max_wait_ms=0, remote_timeout=60.0
            ) as service:
                service.serve(ReadoutRequest(raw=service_carriers[:4]))
            rc = telemetry_mod.main([address])
        finally:
            handle.close()
        out = capsys.readouterr().out
        assert rc == 0
        assert "readout-server" in out
        assert "compute" in out and "p99_ms" in out

    def test_telemetry_off_still_answers_metrics(
        self, service_engine, service_carriers
    ):
        with ReadoutService(
            engine=service_engine, max_wait_ms=0, telemetry=False
        ) as service:
            service.serve(ReadoutRequest(raw=service_carriers[:4]))
            metrics = service.metrics()
        assert metrics["enabled"] is False
        assert metrics["stats"]["requests_served"] == 1


# --------------------------------------------------------------------------
# Priority classes
# --------------------------------------------------------------------------


class TestPriorityOrdering:
    def test_feedback_preempts_queued_bulk(self, service_engine, service_carriers):
        service = ReadoutService(
            engine=service_engine, max_batch=1, autostart=False
        )
        completion_order: list[str] = []
        try:
            request = ReadoutRequest(raw=service_carriers[:2])
            futures = []
            for name in ("bulk-0", "bulk-1", "bulk-2"):
                future = service.submit(request)
                future.add_done_callback(
                    lambda _f, name=name: completion_order.append(name)
                )
                futures.append(future)
            feedback = service.submit(
                ReadoutRequest(raw=service_carriers[:2], priority="feedback")
            )
            feedback.add_done_callback(
                lambda _f: completion_order.append("feedback")
            )
            service.start()
            for future in [*futures, feedback]:
                future.result()
        finally:
            service.close()
        # Submitted last, dispatched first; bulk keeps its FIFO order.
        assert completion_order == ["feedback", "bulk-0", "bulk-1", "bulk-2"]

    def test_priority_never_changes_the_bits(self, service_engine, service_carriers):
        request = ReadoutRequest(raw=service_carriers, output="both")
        direct = service_engine.serve(request)
        with ReadoutService(engine=service_engine, max_wait_ms=0) as service:
            served = service.serve(
                ReadoutRequest(
                    raw=service_carriers, output="both", priority="feedback"
                )
            )
        np.testing.assert_array_equal(served.states, direct.states)
        np.testing.assert_array_equal(served.logits, direct.logits)


# --------------------------------------------------------------------------
# Atomic stats snapshots
# --------------------------------------------------------------------------


class TestAtomicStats:
    def test_snapshot_is_frozen(self, service_engine, service_carriers):
        with ReadoutService(engine=service_engine, max_wait_ms=0) as service:
            service.serve(ReadoutRequest(raw=service_carriers[:2]))
            stats = service.stats
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.requests_served = 999

    def test_metrics_blocks_share_one_stats_snapshot(
        self, service_engine, monkeypatch
    ):
        """A swap between two reads of ``stats`` must not tear
        ``metrics()``: its stats and lifecycle blocks agree even when every
        read of ``stats`` returns newer counters."""
        reads = iter(range(1, 1_000))

        def advancing(_service) -> ServiceStats:
            n = next(reads)
            return ServiceStats(bundle_swaps=n, active_version=f"v{n:04d}")

        with ReadoutService(engine=service_engine, autostart=False) as service:
            monkeypatch.setattr(ReadoutService, "stats", property(advancing))
            snapshot = service.metrics()
            monkeypatch.undo()
        stats = snapshot["stats"]
        assert snapshot["lifecycle"]["bundle_swaps"] == stats["bundle_swaps"]
        assert snapshot["lifecycle"]["active_version"] == stats["active_version"]
