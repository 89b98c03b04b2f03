"""Tests for engine artifact bundles: round trips, tampering, versioning."""

from __future__ import annotations

import json

import numpy as np
import pytest

from make_golden import CASES, GOLDEN_PATH, build_parameters, build_traces

from repro.engine import (
    BUNDLE_FORMAT_VERSION,
    FixedPointBackend,
    MANIFEST_NAME,
    ReadoutEngine,
    ReadoutRequest,
    bundle_id_of,
    compute_bundle_id,
    load_engine,
    save_engine,
)


def _logits(engine: ReadoutEngine, traces: np.ndarray) -> np.ndarray:
    return engine.serve(ReadoutRequest(traces=traces, output="logits")).logits


def _states(engine: ReadoutEngine, traces: np.ndarray) -> np.ndarray:
    return engine.serve(ReadoutRequest(traces=traces, output="states")).states


@pytest.fixture
def fpga_bundle(synthetic_fpga_engine, tmp_path):
    directory = tmp_path / "bundle"
    save_engine(synthetic_fpga_engine, directory)
    return directory


class TestRoundTrip:
    def test_fpga_engine_round_trip_bit_identical(
        self, synthetic_fpga_engine, synthetic_traces, fpga_bundle
    ):
        loaded = load_engine(fpga_bundle)
        assert loaded.n_qubits == synthetic_fpga_engine.n_qubits
        assert loaded.backend_kind == "fpga"
        np.testing.assert_array_equal(
            _logits(loaded, synthetic_traces),
            _logits(synthetic_fpga_engine, synthetic_traces),
        )
        np.testing.assert_array_equal(
            _states(loaded, synthetic_traces),
            _states(synthetic_fpga_engine, synthetic_traces),
        )

    def test_fpga_round_trip_still_pinned_to_golden(self, tmp_path):
        """Save→load must land exactly on the seed datapath's raw logits."""
        engine = ReadoutEngine([FixedPointBackend(build_parameters(CASES["q16_16"]))])
        engine.save(tmp_path / "pinned")
        loaded = ReadoutEngine.load(tmp_path / "pinned")
        golden = json.loads(GOLDEN_PATH.read_text())["q16_16"]
        np.testing.assert_array_equal(
            loaded.backends[0].predict_logits_raw(build_traces()),
            np.array(golden, dtype=np.int64),
        )

    def test_float_engine_round_trip_bit_identical(
        self, trained_student, small_dataset, tmp_path
    ):
        engine = ReadoutEngine.from_students([trained_student] * 2, backend="float")
        view = small_dataset.qubit_view(0)
        traces = np.stack([view.test_traces[:80]] * 2, axis=1)
        reference = _logits(engine, traces)
        engine.save(tmp_path / "float-bundle")
        loaded = ReadoutEngine.load(tmp_path / "float-bundle")
        assert loaded.backend_kind == "float"
        np.testing.assert_array_equal(_logits(loaded, traces), reference)
        np.testing.assert_array_equal(
            _states(loaded, traces), _states(engine, traces)
        )

    def test_fpga_bundle_from_student_carries_both_representations(
        self, trained_student, tmp_path
    ):
        """``to_engine(backend="fpga")``-style bundles keep the float student."""
        engine = ReadoutEngine.from_students([trained_student], backend="fpga")
        save_engine(engine, tmp_path / "both")
        manifest = json.loads((tmp_path / "both" / MANIFEST_NAME).read_text())
        assert manifest["qubits"][0]["student"] is True
        assert manifest["qubits"][0]["quantized"] is True
        assert manifest["qubits"][0]["architecture"] == trained_student.architecture.name
        loaded = load_engine(tmp_path / "both")
        assert loaded.backends[0].student is not None
        assert loaded.backends[0].student.is_fitted

    def test_manifest_contents(self, fpga_bundle, synthetic_fpga_engine):
        manifest = json.loads((fpga_bundle / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == BUNDLE_FORMAT_VERSION
        assert manifest["backend"] == "fpga"
        assert manifest["n_qubits"] == synthetic_fpga_engine.n_qubits
        assert len(manifest["qubits"]) == synthetic_fpga_engine.n_qubits
        # Every payload file is listed with a SHA-256 digest.
        assert manifest["files"]
        for relative, digest in manifest["files"].items():
            assert (fpga_bundle / relative).exists()
            assert len(digest) == 64

    def test_manifest_records_carrier_dtype(
        self, fpga_bundle, trained_student, small_dataset, tmp_path
    ):
        """fpga entries carry the raw ADC carrier dtype; float entries None."""
        manifest = json.loads((fpga_bundle / MANIFEST_NAME).read_text())
        for entry in manifest["qubits"]:
            assert entry["carrier_dtype"] == "int32"  # Q16.16 word fits int32
        float_engine = ReadoutEngine.from_students([trained_student], backend="float")
        save_engine(float_engine, tmp_path / "float-bundle")
        manifest = json.loads((tmp_path / "float-bundle" / MANIFEST_NAME).read_text())
        assert manifest["qubits"][0]["carrier_dtype"] is None

    def test_raw_serving_survives_round_trip(
        self, synthetic_fpga_engine, synthetic_traces, fpga_bundle
    ):
        from repro.readout.preprocessing import digitize_traces

        carriers = digitize_traces(synthetic_traces)
        loaded = load_engine(fpga_bundle)
        np.testing.assert_array_equal(
            loaded.serve(ReadoutRequest(raw=carriers, output="logits")).logits,
            synthetic_fpga_engine.serve(
                ReadoutRequest(raw=carriers, output="logits")
            ).logits,
        )


class TestIntegrity:
    def test_checksum_tampering_detected(self, fpga_bundle):
        manifest = json.loads((fpga_bundle / MANIFEST_NAME).read_text())
        victim = fpga_bundle / sorted(manifest["files"])[0]
        payload = bytearray(victim.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        victim.write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="[Cc]hecksum"):
            load_engine(fpga_bundle)

    def test_missing_payload_file_detected(self, fpga_bundle):
        manifest = json.loads((fpga_bundle / MANIFEST_NAME).read_text())
        (fpga_bundle / sorted(manifest["files"])[0]).unlink()
        with pytest.raises(FileNotFoundError, match="missing"):
            load_engine(fpga_bundle)

    def test_version_mismatch_rejected(self, fpga_bundle):
        manifest_path = fpga_bundle / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = BUNDLE_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            load_engine(fpga_bundle)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_engine(tmp_path / "nowhere")

    def test_unknown_backend_kind_rejected(self, fpga_bundle):
        manifest_path = fpga_bundle / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["qubits"][0]["backend"] = "asic"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown backend"):
            load_engine(fpga_bundle)

    def test_carrier_dtype_mismatch_rejected(self, fpga_bundle):
        """A manifest whose declared carrier dtype contradicts the payload fails."""
        manifest_path = fpga_bundle / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["qubits"][0]["carrier_dtype"] = "int64"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="carrier"):
            load_engine(fpga_bundle)

    def test_legacy_manifest_without_carrier_dtype_loads(self, fpga_bundle):
        """Bundles written before the dtype field must keep loading."""
        manifest_path = fpga_bundle / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["qubits"]:
            entry.pop("carrier_dtype")
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_engine(fpga_bundle)
        assert loaded.supports_raw


class TestProvenance:
    """``bundle_id`` + ``created_utc`` manifest fields and legacy manifests."""

    def test_manifest_records_bundle_id_and_created_utc(self, fpga_bundle):
        from datetime import datetime

        manifest = json.loads((fpga_bundle / MANIFEST_NAME).read_text())
        assert manifest["bundle_id"] == compute_bundle_id(manifest["files"])
        assert len(manifest["bundle_id"]) == 64
        # created_utc is ISO-8601 with an explicit UTC offset.
        stamp = datetime.fromisoformat(manifest["created_utc"])
        assert stamp.utcoffset() is not None

    def test_bundle_id_is_content_addressed(self, fpga_bundle, tmp_path):
        """Saving the same engine twice yields the same id; different
        payloads yield different ids."""
        manifest = json.loads((fpga_bundle / MANIFEST_NAME).read_text())
        resaved = tmp_path / "resaved"
        save_engine(load_engine(fpga_bundle), resaved)
        again = json.loads((resaved / MANIFEST_NAME).read_text())
        assert again["bundle_id"] == manifest["bundle_id"]
        tampered = dict(manifest["files"])
        first = sorted(tampered)[0]
        tampered[first] = "0" * 64
        assert compute_bundle_id(tampered) != manifest["bundle_id"]

    def test_legacy_manifest_without_provenance_loads_warning_free(
        self, fpga_bundle, synthetic_traces
    ):
        """Pre-provenance bundles load with warnings-as-errors, and their
        identity is still derivable from the checksum table."""
        import warnings

        manifest_path = fpga_bundle / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        recorded = manifest.pop("bundle_id")
        manifest.pop("created_utc")
        manifest_path.write_text(json.dumps(manifest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_engine(fpga_bundle)
            states = _states(loaded, synthetic_traces)
        assert states.shape == (synthetic_traces.shape[0], loaded.n_qubits)
        assert bundle_id_of(manifest) == recorded


class TestShardLayout:
    """Manifest shard-layout hints + legacy (pre-hint) manifest compatibility."""

    def test_manifest_records_shard_layout_hints(
        self, fpga_bundle, synthetic_fpga_engine
    ):
        manifest = json.loads((fpga_bundle / MANIFEST_NAME).read_text())
        layout = manifest["shard_layout"]
        assert layout["max_shards"] == synthetic_fpga_engine.n_qubits
        assert layout["qubit_groups"] == [
            [qubit] for qubit in range(synthetic_fpga_engine.n_qubits)
        ]

    @staticmethod
    def _strip_shard_layout(bundle) -> None:
        manifest_path = bundle / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("shard_layout")
        manifest_path.write_text(json.dumps(manifest))

    def test_legacy_manifest_loads_into_engine_without_warnings(
        self, fpga_bundle, synthetic_traces
    ):
        """Pre-shard-hint bundles load warning-free (warnings-as-errors)."""
        import warnings

        self._strip_shard_layout(fpga_bundle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_engine(fpga_bundle)
            states = _states(loaded, synthetic_traces)
        assert states.shape == (synthetic_traces.shape[0], loaded.n_qubits)

    def test_legacy_manifest_loads_into_service_without_warnings(
        self, fpga_bundle, synthetic_fpga_engine, synthetic_traces
    ):
        """ReadoutService (in-process and sharded) falls back to per-qubit
        groups when the manifest predates shard hints -- warning-free."""
        import warnings

        from repro.engine import ReadoutRequest
        from repro.service import ReadoutServer, ReadoutService

        self._strip_shard_layout(fpga_bundle)
        reference = synthetic_fpga_engine.serve(
            ReadoutRequest(traces=synthetic_traces, output="states")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ReadoutService(bundle_dir=fpga_bundle) as in_process:
                served = in_process.serve(ReadoutRequest(traces=synthetic_traces))
            with ReadoutServer(fpga_bundle) as first, ReadoutServer(
                fpga_bundle
            ) as second, ReadoutService(
                bundle_dir=fpga_bundle,
                shard_hosts=[first.address, second.address],
                remote_timeout=60.0,
            ) as sharded:
                assert sharded.shard_groups == [[0, 1], [2]]
                sharded_result = sharded.serve(
                    ReadoutRequest(traces=synthetic_traces)
                )
        np.testing.assert_array_equal(served.states, reference.states)
        np.testing.assert_array_equal(sharded_result.states, reference.states)
