"""Tests for the zero-downtime model lifecycle.

Registry publish/resolve/gc, staging-watcher adoption, hot swaps and swaps
back under concurrent load on both placements (with pre/post bit-identity
and zero dropped requests), and the swap edge cases: swaps before
``start()``, swaps queued behind in-flight micro-batches, swaps racing
``close()``, failed candidate loads, and idempotent retries answered across
a swap.
"""

from __future__ import annotations

import contextlib
import json
import threading

import numpy as np
import pytest

from make_golden import CASES, build_parameters

from repro.engine import (
    FixedPointBackend,
    MANIFEST_NAME,
    ReadoutEngine,
    ReadoutRequest,
    wire,
)
from repro.service import (
    BundleRegistry,
    ReadoutServer,
    ReadoutService,
    RegistryError,
    RegistryWatcher,
    RemoteEngineClient,
    TransportError,
    spawn_server,
)
from repro.service.lifecycle import STAGING_DIR_NAME


def _make_engine(seed_base: int) -> ReadoutEngine:
    """A three-qubit fixed-point engine; different seeds => different logits."""
    return ReadoutEngine(
        [
            FixedPointBackend(build_parameters(CASES["q16_16"], seed=seed_base + q))
            for q in range(3)
        ]
    )


@pytest.fixture(scope="module")
def engine_v2() -> ReadoutEngine:
    """A 'retrained' deployment: same shape as ``service_engine``, new weights."""
    return _make_engine(4025)


@pytest.fixture(scope="module")
def bundle_v2(engine_v2, tmp_path_factory):
    directory = tmp_path_factory.mktemp("lifecycle-v2") / "readout-v2"
    engine_v2.save(directory)
    return directory


@pytest.fixture()
def registry(service_bundle, tmp_path) -> BundleRegistry:
    """A fresh registry with ``service_bundle`` published as v0001."""
    registry = BundleRegistry(tmp_path / "registry")
    registry.publish(service_bundle)
    return registry


def _reference(engine, request: ReadoutRequest):
    result = engine.serve(request)
    return result.states, result.logits


class TestBundleRegistry:
    def test_publish_resolve_round_trip(self, service_bundle, tmp_path):
        registry = BundleRegistry(tmp_path / "reg")
        assert registry.latest is None
        name = registry.publish(service_bundle)
        assert name == "v0001"
        assert registry.latest == "v0001"
        assert registry.versions() == ["v0001"]
        resolved = registry.resolve()
        assert resolved == registry.root / "v0001"
        loaded = ReadoutEngine.load(resolved)
        assert loaded.n_qubits == 3

    def test_index_records_provenance(self, registry, service_bundle):
        manifest = json.loads((service_bundle / MANIFEST_NAME).read_text())
        entry = registry.describe("v0001")
        assert entry["bundle_id"] == manifest["bundle_id"]
        assert registry.bundle_id("v0001") == manifest["bundle_id"]
        assert entry["created_utc"] == manifest["created_utc"]
        assert entry["published_utc"]
        assert entry["n_qubits"] == 3

    def test_explicit_version_names_and_immutability(self, registry, bundle_v2):
        assert registry.publish(bundle_v2, version="cal-2026-08-08") == "cal-2026-08-08"
        assert registry.latest == "cal-2026-08-08"
        with pytest.raises(RegistryError, match="immutable"):
            registry.publish(bundle_v2, version="cal-2026-08-08")

    @pytest.mark.parametrize(
        "name", ["", "../evil", "a/b", ".hidden", STAGING_DIR_NAME, "index.json"]
    )
    def test_invalid_version_names_rejected(self, registry, bundle_v2, name):
        with pytest.raises(RegistryError, match="[Ii]nvalid"):
            registry.publish(bundle_v2, version=name)

    def test_auto_versions_increment(self, registry, bundle_v2):
        assert registry.publish(bundle_v2) == "v0002"
        assert registry.versions() == ["v0001", "v0002"]

    def test_resolve_unknown_version(self, registry):
        with pytest.raises(RegistryError, match="no version"):
            registry.resolve("v9999")

    def test_resolve_reverifies_checksums(self, registry):
        directory = registry.resolve()
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        victim = directory / sorted(manifest["files"])[0]
        payload = bytearray(victim.read_bytes())
        payload[0] ^= 0xFF
        victim.write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="[Cc]hecksum"):
            registry.resolve("v0001")

    def test_torn_source_never_becomes_a_version(self, registry, bundle_v2, tmp_path):
        import shutil

        torn = tmp_path / "torn"
        shutil.copytree(bundle_v2, torn)
        manifest = json.loads((torn / MANIFEST_NAME).read_text())
        (torn / sorted(manifest["files"])[0]).unlink()
        with pytest.raises(FileNotFoundError):
            registry.publish(torn)
        assert registry.versions() == ["v0001"]
        leftovers = [
            p.name for p in registry.root.iterdir() if p.name.startswith(".publish")
        ]
        assert leftovers == []

    def test_index_survives_reopen(self, registry, bundle_v2):
        registry.publish(bundle_v2)
        reopened = BundleRegistry(registry.root)
        assert reopened.versions() == ["v0001", "v0002"]
        assert reopened.latest == "v0002"
        assert reopened.bundle_id("v0002") == registry.bundle_id("v0002")

    def test_gc_protects_latest_and_pinned(self, registry, bundle_v2, service_bundle):
        registry.publish(bundle_v2)  # v0002
        registry.publish(service_bundle, version="v0003")
        removed = registry.gc(keep=1, protect=("v0002",))
        assert removed == ["v0001"]
        assert registry.versions() == ["v0002", "v0003"]
        assert not (registry.root / "v0001").exists()
        assert (registry.root / "v0002").exists()
        with pytest.raises(ValueError, match=">= 1"):
            registry.gc(keep=0)


class TestRegistryWatcher:
    @staticmethod
    def _stage(registry, bundle_dir, name="candidate"):
        import shutil

        staged = registry.staging_dir / name
        shutil.copytree(bundle_dir, staged)
        return staged

    def test_staged_bundle_adopted_and_hook_fired(self, registry, bundle_v2):
        loadable: list[str] = []
        watcher = RegistryWatcher(registry, on_loadable=loadable.append)
        self._stage(registry, bundle_v2)
        assert watcher.poll_once() == ["v0002"]
        assert watcher.adopted == ["v0002"]
        assert loadable == ["v0002"]
        assert registry.latest == "v0002"
        assert not (registry.staging_dir / "candidate").exists()
        # Adopted-by-rename: the version loads.
        assert ReadoutEngine.load(registry.resolve("v0002")).n_qubits == 3

    def test_partial_copy_skipped_then_adopted(self, registry, bundle_v2):
        import shutil

        staged = registry.staging_dir / "slow-copy"
        staged.mkdir()
        # Payloads land first; no manifest yet -- must not be adopted.
        for path in bundle_v2.iterdir():
            if path.name == MANIFEST_NAME:
                continue
            if path.is_dir():
                shutil.copytree(path, staged / path.name)
            else:
                shutil.copy2(path, staged / path.name)
        watcher = RegistryWatcher(registry)
        assert watcher.poll_once() == []
        assert "slow-copy" in watcher.skipped
        # The copy completes; the next poll adopts it.
        shutil.copy2(bundle_v2 / MANIFEST_NAME, staged / MANIFEST_NAME)
        assert watcher.poll_once() == ["v0002"]
        assert "slow-copy" not in watcher.skipped

    def test_tampered_staged_bundle_never_adopted(self, registry, bundle_v2):
        staged = self._stage(registry, bundle_v2, name="tampered")
        manifest = json.loads((staged / MANIFEST_NAME).read_text())
        victim = staged / sorted(manifest["files"])[0]
        victim.write_bytes(b"corrupt")
        watcher = RegistryWatcher(registry)
        assert watcher.poll_once() == []
        assert "checksum" in watcher.skipped["tampered"].lower()
        assert registry.versions() == ["v0001"]
        assert staged.exists()  # left in staging for the pipeline to fix

    def test_background_thread_adopts(self, registry, bundle_v2):
        adopted = threading.Event()
        with RegistryWatcher(
            registry, poll_interval_s=0.05, on_loadable=lambda _v: adopted.set()
        ):
            self._stage(registry, bundle_v2)
            assert adopted.wait(timeout=30.0)
        assert registry.latest == "v0002"

    def test_bad_poll_interval(self, registry):
        with pytest.raises(ValueError, match="poll_interval"):
            RegistryWatcher(registry, poll_interval_s=0.0)


def _swap_once(service, registry, version, request, ref_old, ref_new) -> int:
    """Swap to ``version`` under concurrent load; returns the requests served.

    Pre-swap submissions are queued ahead of the swap barrier, so they must
    be answered bit-identically by the old engine; post-swap submissions by
    the new; a racing submitter thread's requests may land on either side
    of the barrier but must match exactly one of the two -- never a blend,
    never an error.
    """
    pre = [service.submit(request) for _ in range(12)]
    racing: list = []
    stop = threading.Event()

    def _racer():
        while not stop.is_set():
            racing.append(service.submit(request))

    racer = threading.Thread(target=_racer)
    racer.start()
    try:
        summary = service.swap_bundle(version)
    finally:
        stop.set()
        racer.join(timeout=60.0)
    post = [service.submit(request) for _ in range(12)]

    assert summary["swapped"] is True
    assert summary["version"] == version
    assert summary["bundle_id"] == registry.bundle_id(version)
    for future in pre:
        result = future.result(timeout=60.0)
        np.testing.assert_array_equal(result.states, ref_old[0])
        np.testing.assert_array_equal(result.logits, ref_old[1])
    for future in post:
        result = future.result(timeout=60.0)
        np.testing.assert_array_equal(result.states, ref_new[0])
        np.testing.assert_array_equal(result.logits, ref_new[1])
    for future in racing:
        result = future.result(timeout=60.0)  # zero dropped requests
        expected = ref_old if np.array_equal(result.logits, ref_old[1]) else ref_new
        np.testing.assert_array_equal(result.states, expected[0])
        np.testing.assert_array_equal(result.logits, expected[1])
    return len(pre) + len(post) + len(racing)


def _swap_under_load(service, registry, request, ref_v1, ref_v2):
    """Swap to v0002 and back to v0001, each under concurrent load.

    Swapping back is the rollback: it takes the same drain barrier, so it
    drops nothing and answers with v1's bits again.
    """
    served = _swap_once(service, registry, "v0002", request, ref_v1, ref_v2)
    served += _swap_once(service, registry, "v0001", request, ref_v2, ref_v1)
    stats = service.stats
    assert stats.bundle_swaps == 2
    assert stats.active_version == "v0001"
    assert stats.requests_served == served


class TestHotSwap:
    @pytest.fixture()
    def loaded_registry(self, registry, bundle_v2):
        registry.publish(bundle_v2)  # v0002 becomes latest
        return registry

    def test_inprocess_swap_under_concurrent_load(
        self, loaded_registry, service_engine, engine_v2, service_carriers
    ):
        request = ReadoutRequest(raw=service_carriers, output="both")
        ref_v1 = _reference(service_engine, request)
        ref_v2 = _reference(engine_v2, request)
        assert not np.array_equal(ref_v1[1], ref_v2[1])  # the swap is observable
        with ReadoutService(
            registry=loaded_registry, bundle_dir=loaded_registry.resolve("v0001")
        ) as service:
            assert service.stats.active_version == ""
            _swap_under_load(service, loaded_registry, request, ref_v1, ref_v2)
            snapshot = service.metrics()
        assert snapshot["lifecycle"]["active_version"] == "v0001"
        assert snapshot["lifecycle"]["bundle_swaps"] == 2
        assert snapshot["counters"]["bundle_swaps"] == 2

    def test_tcp_swap_under_concurrent_load(
        self, loaded_registry, service_engine, engine_v2, service_carriers
    ):
        request = ReadoutRequest(raw=service_carriers, output="both")
        ref_v1 = _reference(service_engine, request)
        ref_v2 = _reference(engine_v2, request)
        servers = [spawn_server(loaded_registry.resolve("v0001")) for _ in range(2)]
        try:
            hosts = [f"{host}:{port}" for host, port in (s.address for s in servers)]
            with ReadoutService(
                registry=loaded_registry,
                bundle_dir=loaded_registry.resolve("v0001"),
                shard_hosts=hosts,
                remote_timeout=60.0,
            ) as service:
                _swap_under_load(service, loaded_registry, request, ref_v1, ref_v2)
        finally:
            for handle in servers:
                handle.close()

    @pytest.mark.parametrize("placement", ["inprocess", "tcp"])
    def test_pre_start_swap_reaches_every_placement(
        self,
        placement,
        service_bundle,
        bundle_v2,
        service_engine,
        engine_v2,
        service_carriers,
    ):
        """A swap before start() takes the one drain barrier: the request
        queued ahead of it is answered by v1, the next one by v2 -- on the
        in-process placement and on every TCP shard alike."""
        request = ReadoutRequest(raw=service_carriers, output="logits")
        with contextlib.ExitStack() as stack:
            shard_hosts = None
            if placement == "tcp":
                shard_hosts = [
                    stack.enter_context(ReadoutServer(service_bundle)).address
                    for _ in range(2)
                ]
            service = ReadoutService(
                bundle_dir=service_bundle,
                shard_hosts=shard_hosts,
                remote_timeout=60.0,
                autostart=False,
            )
            stack.callback(service.close)
            queued = service.submit(request)
            summary = service.swap_bundle(bundle_dir=bundle_v2)
            service.start()
            post = service.serve(request)
            stats = service.stats
            queued_logits = queued.result(timeout=60.0).logits
        assert summary["swapped"] is True
        np.testing.assert_array_equal(
            queued_logits, service_engine.serve(request).logits
        )
        np.testing.assert_array_equal(post.logits, engine_v2.serve(request).logits)
        assert stats.bundle_swaps == 1

    def test_swap_without_registry_needs_bundle_dir(self, service_engine):
        with ReadoutService(engine=service_engine) as service:
            with pytest.raises(ValueError, match="registry"):
                service.swap_bundle("v0002")

    def test_swap_rejects_shape_change(self, service_engine, tmp_path):
        narrow = ReadoutEngine(
            [FixedPointBackend(build_parameters(CASES["q16_16"], seed=1))]
        )
        narrow.save(tmp_path / "narrow")
        with ReadoutService(engine=service_engine) as service:
            with pytest.raises(ValueError, match="shape"):
                service.swap_bundle(bundle_dir=tmp_path / "narrow")

    def test_failed_candidate_load_rolls_back(
        self, service_engine, bundle_v2, service_carriers, tmp_path
    ):
        """A corrupt candidate raises and the old engine keeps serving."""
        import shutil

        request = ReadoutRequest(raw=service_carriers, output="logits")
        ref = service_engine.serve(request).logits
        corrupt = tmp_path / "corrupt"
        shutil.copytree(bundle_v2, corrupt)
        manifest = json.loads((corrupt / MANIFEST_NAME).read_text())
        (corrupt / sorted(manifest["files"])[0]).write_bytes(b"junk")
        with ReadoutService(engine=service_engine) as service:
            with pytest.raises(ValueError, match="[Cc]hecksum"):
                service.swap_bundle(bundle_dir=corrupt)
            result = service.serve(request)
            assert service.stats.bundle_swaps == 0
        np.testing.assert_array_equal(result.logits, ref)

    def test_sharded_failed_candidate_keeps_workers_serving(
        self, service_bundle, bundle_v2, service_engine, service_carriers, tmp_path
    ):
        """A server that cannot load the candidate keeps its old engine."""
        import shutil

        request = ReadoutRequest(raw=service_carriers, output="logits")
        ref = service_engine.serve(request).logits
        corrupt = tmp_path / "corrupt"
        shutil.copytree(bundle_v2, corrupt)
        manifest = json.loads((corrupt / MANIFEST_NAME).read_text())
        (corrupt / sorted(manifest["files"])[0]).write_bytes(b"junk")
        with ReadoutServer(service_bundle) as first, ReadoutServer(
            service_bundle
        ) as second, ReadoutService(
            bundle_dir=service_bundle,
            shard_hosts=[first.address, second.address],
            remote_timeout=60.0,
        ) as service:
            with pytest.raises(TransportError, match="[Cc]hecksum"):
                service.swap_bundle(bundle_dir=corrupt)
            assert service.stats.bundle_swaps == 0
            result = service.serve(request)
        np.testing.assert_array_equal(result.logits, ref)

    def test_swap_racing_close_is_loud_not_hung(
        self, loaded_registry, service_carriers
    ):
        """close() while a swap barrier is queued fails the swap cleanly."""
        service = ReadoutService(
            registry=loaded_registry, bundle_dir=loaded_registry.resolve("v0001")
        )
        service.start()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.swap_bundle()

    def test_swap_queued_behind_in_flight_microbatch(
        self, loaded_registry, service_engine, engine_v2, service_carriers
    ):
        """Requests queued before the swap drain first, on the old engine."""
        request = ReadoutRequest(raw=service_carriers, output="both")
        ref_v1 = _reference(service_engine, request)
        ref_v2 = _reference(engine_v2, request)
        service = ReadoutService(
            registry=loaded_registry,
            bundle_dir=loaded_registry.resolve("v0001"),
            max_batch=4,
            max_wait_ms=20,
        )
        with service:
            pre = [service.submit(request) for _ in range(8)]
            service.swap_bundle()
            post = service.serve(request)
        for future in pre:
            np.testing.assert_array_equal(future.result().logits, ref_v1[1])
        np.testing.assert_array_equal(post.logits, ref_v2[1])


class TestReplyCacheAcrossSwap:
    def test_idempotent_retry_answered_by_original_engine(
        self, service_bundle, bundle_v2, service_engine, engine_v2, service_carriers
    ):
        """A retried request that was answered pre-swap replays the original
        (old-engine) bytes from the reply cache; fresh requests get the new
        engine."""
        request = ReadoutRequest(raw=service_carriers[:8], output="both")
        with ReadoutServer(service_bundle) as server:
            host, port = server.address
            with RemoteEngineClient(host, port, timeout=60.0) as client:
                frame = wire.encode_request(
                    request, wire_meta={"request_id": "retry-across-swap"}
                )
                first = wire.decode_reply(client._roundtrip_idempotent(frame))
                info = client.swap(bundle_v2)
                assert info["swapped"] is True
                assert info["swaps"] == 1
                retried = wire.decode_reply(client._roundtrip_idempotent(frame))
                fresh = client.serve(request)
            metrics = server.metrics()
        np.testing.assert_array_equal(
            first.logits, service_engine.serve(request).logits
        )
        # Byte-replay: the retry is the *original* engine's answer.
        np.testing.assert_array_equal(retried.states, first.states)
        np.testing.assert_array_equal(retried.logits, first.logits)
        np.testing.assert_array_equal(fresh.logits, engine_v2.serve(request).logits)
        assert server.deduplicated_replies >= 1
        assert metrics["bundle_swaps"] == 1

    def test_server_swap_pins_bundle_id(self, service_bundle, bundle_v2):
        with ReadoutServer(service_bundle) as server:
            host, port = server.address
            with RemoteEngineClient(host, port, timeout=60.0) as client:
                with pytest.raises(ValueError, match="pinned"):
                    client.swap(bundle_v2, expected_bundle_id="0" * 64)
                info = client.info()
        # The refused swap left the original deployment in place.
        manifest = json.loads((service_bundle / MANIFEST_NAME).read_text())
        assert info["bundle_id"] == manifest["bundle_id"]


class TestLifecycleEndToEnd:
    """The full scenario: calibration drift degrades the deployed model, a
    retrain on drifted data recovers it, the new bundle lands in the
    registry's staging area, the watcher adopts it, and a hot swap under
    concurrent load rolls it out with zero dropped requests and pre/post
    bit-identity."""

    def test_drift_retrain_publish_watch_swap(
        self,
        small_dataset,
        trained_student,
        tiny_teacher_architecture,
        student_architecture,
        fast_training,
        fast_distillation,
        tmp_path,
    ):
        from repro.core.distillation import DistillationTrainer
        from repro.core.student import StudentModel
        from repro.core.teacher import TeacherModel
        from repro.readout.trace_generator import CalibrationDrift

        view = small_dataset.qubit_view(0)

        def accuracy(engine, traces):
            states = engine.serve(
                ReadoutRequest(traces=traces[:, None, :, :], output="states")
            ).states[:, 0]
            return float(np.mean(states == view.test_labels))

        # 1. The deployed model (v1) works on clean traces...
        engine_v1 = ReadoutEngine.from_students([trained_student], backend="float")
        acc_clean = accuracy(engine_v1, view.test_traces)
        assert acc_clean > 0.8

        # 2. ...but calibration drift degrades it measurably.
        drift = CalibrationDrift(
            amplitude=(0.45, 0.45), offset_i=(6.0, 6.0), offset_q=(-6.0, -6.0)
        )
        drifted_test = drift.apply(view.test_traces)
        acc_drifted = accuracy(engine_v1, drifted_test)
        assert acc_drifted < acc_clean - 0.05

        # 3. Retrain on drifted data (teacher -> distilled student).
        drifted_train = drift.apply(view.train_traces)
        teacher = TeacherModel(
            tiny_teacher_architecture, n_samples=view.n_samples, seed=11
        )
        teacher.fit(drifted_train, view.train_labels, fast_training)
        student = StudentModel(
            student_architecture, n_samples=view.n_samples, seed=13
        )
        DistillationTrainer(teacher, student, fast_distillation).fit(
            drifted_train, view.train_labels
        )
        engine_v2 = ReadoutEngine.from_students([student], backend="float")
        acc_retrained = accuracy(engine_v2, drifted_test)
        assert acc_retrained > acc_drifted

        # 4. The retrain pipeline drops the bundle into staging; the
        #    watcher verifies and adopts it.
        registry = BundleRegistry(tmp_path / "registry")
        engine_v1.save(tmp_path / "train-out-v1")
        registry.publish(tmp_path / "train-out-v1", version="clean-cal")
        engine_v2.save(registry.staging_dir / "drift-cal")
        loadable: list[str] = []
        watcher = RegistryWatcher(registry, on_loadable=loadable.append)
        assert watcher.poll_once() == ["v0001"]
        assert loadable == ["v0001"]
        assert registry.latest == "v0001"

        # 5. Hot swap under concurrent load: zero drops, bit-identity on
        #    both sides of the barrier.
        request = ReadoutRequest(traces=drifted_test[:, None, :, :], output="both")
        ref_v1 = _reference(engine_v1, request)
        ref_v2 = _reference(engine_v2, request)
        with ReadoutService(
            registry=registry, bundle_dir=registry.resolve("clean-cal")
        ) as service:
            pre = [service.submit(request) for _ in range(8)]
            summary = service.swap_bundle(loadable[0])
            post = [service.submit(request) for _ in range(8)]
            for future in pre:
                result = future.result(timeout=60.0)
                np.testing.assert_array_equal(result.logits, ref_v1[1])
            for future in post:
                result = future.result(timeout=60.0)
                np.testing.assert_array_equal(result.logits, ref_v2[1])
            stats = service.stats
        assert summary["swapped"] is True
        assert summary["version"] == "v0001"
        assert stats.bundle_swaps == 1
        assert stats.active_version == "v0001"
        assert stats.requests_served == 16
