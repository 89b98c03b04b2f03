"""Tests for the traffic-tier telemetry subsystem.

Covers the :mod:`repro.service.telemetry` primitives (lock-cheap log-bucket
histograms, the EWMA admission predictor, the recorder), the service-level
surfaces built on them (``metrics()``, priority-ordered dispatch,
SLO-bounded admission, atomic stats snapshots), and the METRICS wire
surface a remote server exposes.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.engine import ReadoutRequest
from repro.service import (
    AdmissionController,
    AdmissionError,
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
# AdmissionController
# --------------------------------------------------------------------------


class TestAdmissionController:
    def test_cold_start_predicts_zero(self):
        controller = AdmissionController()
        assert controller.cost_s is None
        assert controller.predicted_wait_s(100) == 0.0

    def test_seeded_cost_predicts_linearly_in_depth(self):
        controller = AdmissionController(initial_cost_s=0.010)
        assert controller.predicted_wait_s(0) == 0.0
        assert controller.predicted_wait_s(5) == pytest.approx(0.050)

    def test_observations_move_the_ewma_toward_the_samples(self):
        controller = AdmissionController(alpha=0.5, initial_cost_s=0.001)
        for _ in range(20):
            controller.observe(1, 0.009)
        assert controller.observations == 20
        assert controller.cost_s == pytest.approx(0.009, rel=0.05)

    def test_batched_observation_divides_by_request_count(self):
        controller = AdmissionController(alpha=1.0)
        controller.observe(8, 0.080)  # 8 requests in 80 ms -> 10 ms each
        assert controller.cost_s == pytest.approx(0.010)


# --------------------------------------------------------------------------
# TelemetryRecorder
# --------------------------------------------------------------------------


class TestTelemetryRecorder:
    def test_snapshot_has_every_stage(self):
        recorder = TelemetryRecorder()
        recorder.record("queue", 0.001)
        recorder.count("shed_requests")
        snap = recorder.snapshot()
        assert snap["enabled"] is True
        assert set(snap["stages"]) == set(STAGES)
        assert snap["stages"]["queue"]["count"] == 1
        assert snap["counters"] == {"shed_requests": 1}

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
        assert metrics["slo"]["budget_ms"] is None

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
# SLO-bounded admission
# --------------------------------------------------------------------------


class TestAdmission:
    def _queue_blocked_service(self, service_engine, **kwargs):
        """A stopped service with one queued request: depth is deterministic."""
        return ReadoutService(
            engine=service_engine,
            autostart=False,
            slo_budget_ms=5.0,
            slo_initial_cost_ms=1000.0,  # any queued entry blows the budget
            **kwargs,
        )

    def test_predicted_overrun_sheds_with_admission_error(
        self, service_engine, service_carriers
    ):
        service = self._queue_blocked_service(service_engine)
        try:
            request = ReadoutRequest(raw=service_carriers[:2])
            admitted = service.submit(request)  # depth 0: always admitted
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(request)
            assert excinfo.value.predicted_wait_ms > excinfo.value.budget_ms
            assert excinfo.value.budget_ms == pytest.approx(5.0)
            assert excinfo.value.trace_id
            service.start()
            assert admitted.result().n_shots == 2
            assert service.stats.shed_requests == 1
            assert service.metrics()["counters"]["shed_requests"] == 1
        finally:
            service.close()

    def test_feedback_sheds_later_than_bulk(self, service_engine, service_carriers):
        service = self._queue_blocked_service(service_engine)
        try:
            request = ReadoutRequest(raw=service_carriers[:2])
            service.submit(request)  # one queued bulk entry
            with pytest.raises(AdmissionError):
                service.submit(request)
            # Same queue state: feedback ignores the bulk backlog it will
            # jump over, so it is admitted where bulk was shed.
            feedback = service.submit(
                ReadoutRequest(raw=service_carriers[:2], priority="feedback")
            )
            service.start()
            assert feedback.result().n_shots == 2
        finally:
            service.close()

    def test_degraded_ok_downgrades_to_states_instead_of_shedding(
        self, service_engine, service_carriers
    ):
        service = self._queue_blocked_service(service_engine, degraded_ok=True)
        try:
            request = ReadoutRequest(raw=service_carriers[:2], output="both")
            service.submit(request)
            degraded = service.submit(request)  # over budget: degrade, not shed
            service.start()
            result = degraded.result()
            assert result.output == "states"
            assert result.logits is None
            assert result.meta["admission"]["degraded_to"] == "states"
            assert result.meta["admission"]["original_output"] == "both"
            assert result.meta["admission"]["predicted_wait_ms"] > 5.0
            assert service.stats.degraded_admissions == 1
            assert service.stats.shed_requests == 0
        finally:
            service.close()

    def test_states_only_requests_are_shed_even_with_degraded_ok(
        self, service_engine, service_carriers
    ):
        service = self._queue_blocked_service(service_engine, degraded_ok=True)
        try:
            request = ReadoutRequest(raw=service_carriers[:2], output="states")
            service.submit(request)
            with pytest.raises(AdmissionError):
                service.submit(request)  # nothing left to degrade away
        finally:
            service.close()

    def test_invalid_budget_rejected(self, service_engine):
        with pytest.raises(ValueError, match="slo_budget_ms"):
            ReadoutService(engine=service_engine, slo_budget_ms=0.0)

    def test_overload_keeps_accepted_queue_waits_bounded(
        self, service_engine, service_carriers
    ):
        """Flood an SLO-bounded service: sheds happen, accepted waits stay sane.

        The predictor admits a request only when depth x cost fits the
        budget, so an accepted request's *measured* queue wait should stay
        within a small multiple of the budget (the slack covers cost-EWMA
        drift and scheduler noise on a loaded CI box) -- while an unbounded
        twin sheds nothing and lets the same flood queue up, so its accepted
        p99 wait ends far above the bounded one (about 4-20x on 2 vCPUs).
        """
        budget_ms = 25.0
        request = ReadoutRequest(raw=service_carriers[:2])

        def p99_queue_ms(results) -> float:
            waits = sorted(result.meta["stage_ms"]["queue"] for result in results)
            return waits[int(0.99 * (len(waits) - 1))]

        with ReadoutService(
            engine=service_engine,
            max_batch=1,
            max_wait_ms=0.0,
            slo_budget_ms=budget_ms,
            slo_initial_cost_ms=2.0,
        ) as service:
            futures = []
            shed = 0
            for _ in range(300):
                try:
                    futures.append(service.submit(request))
                except AdmissionError:
                    shed += 1
            results = [future.result() for future in futures]
            stats = service.stats
        assert shed > 0
        assert stats.shed_requests == shed
        assert len(results) + shed == 300
        p99 = p99_queue_ms(results)
        assert p99 <= budget_ms * 5.0

        with ReadoutService(
            engine=service_engine, max_batch=1, max_wait_ms=0.0
        ) as unbounded:
            flooded = [unbounded.submit(request) for _ in range(300)]
            unbounded_results = [future.result() for future in flooded]
            assert unbounded.stats.shed_requests == 0
        assert p99 < p99_queue_ms(unbounded_results)


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

    def test_concurrent_shed_counting_loses_no_updates(
        self, service_engine, service_carriers
    ):
        """Many threads shed at once; the lock-guarded replace drops none.

        With one entry parked on the stopped batcher and an absurd seeded
        cost, every concurrent submit is shed -- the counter must land on
        exactly the number of sheds, which an unlocked read-modify-write
        of the frozen dataclass would miss under contention.
        """
        service = ReadoutService(
            engine=service_engine,
            autostart=False,
            slo_budget_ms=1.0,
            slo_initial_cost_ms=10_000.0,
        )
        request = ReadoutRequest(raw=service_carriers[:2])
        n_threads, per_thread = 8, 50
        try:
            parked = service.submit(request)  # depth 1 for everyone else
            barrier = threading.Barrier(n_threads)
            errors: list[Exception] = []

            def hammer() -> None:
                barrier.wait()
                for _ in range(per_thread):
                    try:
                        service.submit(request)
                    except AdmissionError:
                        pass
                    except Exception as exc:  # noqa: BLE001 - fail the test
                        errors.append(exc)

            threads = [
                threading.Thread(target=hammer) for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            readers_done = threading.Event()

            def reader() -> None:
                while not readers_done.is_set():
                    snapshot = service.stats
                    # Torn or lost updates would break these invariants.
                    assert snapshot.shed_requests <= n_threads * per_thread
                    assert snapshot.requests_served == 0
                    time.sleep(0.0005)

            reader_thread = threading.Thread(target=reader)
            reader_thread.start()
            for thread in threads:
                thread.join()
            readers_done.set()
            reader_thread.join()
            assert not errors
            assert service.stats.shed_requests == n_threads * per_thread
            service.start()
            assert parked.result().n_shots == 2
        finally:
            service.close()

    def test_metrics_blocks_share_one_stats_snapshot(
        self, service_engine, monkeypatch
    ):
        """A shed or swap between two reads of ``stats`` must not tear
        ``metrics()``: its stats, slo and lifecycle blocks agree even when
        every read of ``stats`` returns newer counters."""
        reads = iter(range(1, 1_000))

        def advancing(_service) -> ServiceStats:
            n = next(reads)
            return ServiceStats(
                shed_requests=n,
                degraded_admissions=n,
                bundle_swaps=n,
                active_version=f"v{n:04d}",
            )

        with ReadoutService(engine=service_engine, autostart=False) as service:
            monkeypatch.setattr(ReadoutService, "stats", property(advancing))
            snapshot = service.metrics()
            monkeypatch.undo()
        stats = snapshot["stats"]
        assert snapshot["slo"]["shed_requests"] == stats["shed_requests"]
        assert snapshot["slo"]["degraded_admissions"] == stats["degraded_admissions"]
        assert snapshot["lifecycle"]["bundle_swaps"] == stats["bundle_swaps"]
        assert snapshot["lifecycle"]["active_version"] == stats["active_version"]
