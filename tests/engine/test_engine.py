"""Tests for ReadoutEngine: per-qubit serving, parallel/sequential equality."""

from __future__ import annotations

import numpy as np
import pytest

from make_golden import CASES, build_parameters

from repro.engine import (
    FixedPointBackend,
    FloatStudentBackend,
    ReadoutEngine,
    ReadoutRequest,
    serve_traces,
)
from repro.fpga.fixed_point import Q16_16
from repro.readout.preprocessing import digitize_traces


class TestConstruction:
    def test_requires_backends(self):
        with pytest.raises(ValueError, match="at least one backend"):
            ReadoutEngine([])

    def test_rejects_non_protocol_objects(self):
        with pytest.raises(TypeError, match="ReadoutBackend protocol"):
            ReadoutEngine([object()])

    def test_rejects_non_positive_workers(self, synthetic_fpga_engine):
        with pytest.raises(ValueError, match="max_workers"):
            ReadoutEngine(synthetic_fpga_engine.backends, max_workers=0)

    def test_from_students(self, trained_student):
        engine = ReadoutEngine.from_students([trained_student] * 2, backend="float")
        assert engine.n_qubits == 2
        assert engine.backend_kind == "float"
        assert not engine.is_bit_exact

    def test_backend_kind_mixed(self, trained_student):
        engine = ReadoutEngine(
            [
                FloatStudentBackend(trained_student),
                FixedPointBackend.from_student(trained_student),
            ]
        )
        assert engine.backend_kind == "mixed"
        assert not engine.is_bit_exact


class TestServing:
    def test_discriminate_all_shape(self, synthetic_fpga_engine, synthetic_traces):
        states = synthetic_fpga_engine.serve(ReadoutRequest(traces=synthetic_traces)).states
        assert states.shape == (synthetic_traces.shape[0], 3)
        assert set(np.unique(states)).issubset({0, 1})

    def test_parallel_and_sequential_bit_identical_fpga(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        request = ReadoutRequest(traces=synthetic_traces, output="both")
        sequential = synthetic_fpga_engine.serve(request, parallel=False)
        parallel = synthetic_fpga_engine.serve(request, parallel=True)
        np.testing.assert_array_equal(sequential.states, parallel.states)
        np.testing.assert_array_equal(sequential.logits, parallel.logits)

    def test_parallel_and_sequential_bit_identical_float(
        self, trained_student, small_dataset
    ):
        engine = ReadoutEngine.from_students([trained_student] * 2, backend="float")
        view = small_dataset.qubit_view(0)
        request = ReadoutRequest(traces=np.stack([view.test_traces[:60]] * 2, axis=1))
        np.testing.assert_array_equal(
            engine.serve(request, parallel=False).states,
            engine.serve(request, parallel=True).states,
        )

    def test_single_qubit_matches_joint_column(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        joint = synthetic_fpga_engine.serve(ReadoutRequest(traces=synthetic_traces))
        for qubit in range(synthetic_fpga_engine.n_qubits):
            solo = synthetic_fpga_engine.serve(
                ReadoutRequest(traces=synthetic_traces[:, [qubit]], qubits=(qubit,))
            )
            np.testing.assert_array_equal(joint.states[:, qubit], solo.states[:, 0])

    def test_single_trace_discrimination(self, synthetic_fpga_engine, synthetic_traces):
        state = synthetic_fpga_engine._serve_single_qubit(synthetic_traces[0, 0], 0)
        assert state in (0, 1)
        logit = synthetic_fpga_engine._serve_single_qubit(
            synthetic_traces[0, 0], 0, output="logits"
        )
        assert np.ndim(logit) == 0

    def test_qubit_index_out_of_range(self, synthetic_fpga_engine, synthetic_traces):
        with pytest.raises(IndexError):
            synthetic_fpga_engine.serve(
                ReadoutRequest(traces=synthetic_traces[:, [0]], qubits=(3,))
            )

    def test_wrong_multiplexed_shape_rejected(self, synthetic_fpga_engine, synthetic_traces):
        with pytest.raises(ValueError, match="shape"):
            synthetic_fpga_engine.serve(ReadoutRequest(traces=synthetic_traces[:, :2]))

    def test_max_workers_one_forces_sequential_path(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        capped = ReadoutEngine(synthetic_fpga_engine.backends, max_workers=1)
        request = ReadoutRequest(traces=synthetic_traces)
        assert capped.worker_count == 1
        np.testing.assert_array_equal(
            capped.serve(request).states,
            synthetic_fpga_engine.serve(request, parallel=False).states,
        )
        assert capped._executor is None  # the automatic choice never pooled

    def test_explicit_parallel_with_many_workers(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        """Force a real thread pool even on single-core hosts."""
        pooled = ReadoutEngine(synthetic_fpga_engine.backends, max_workers=3)
        request = ReadoutRequest(traces=synthetic_traces)
        np.testing.assert_array_equal(
            pooled.serve(request, parallel=True).states,
            synthetic_fpga_engine.serve(request, parallel=False).states,
        )

    def test_executor_is_reused_across_calls(self, synthetic_fpga_engine, synthetic_traces):
        engine = ReadoutEngine(synthetic_fpga_engine.backends, max_workers=3)
        request = ReadoutRequest(traces=synthetic_traces)
        engine.serve(request, parallel=True)
        first = engine._executor
        assert first is not None
        engine.serve(request, parallel=True)
        assert engine._executor is first
        engine.close()

    def test_closed_engine_serves_sequentially(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        request = ReadoutRequest(traces=synthetic_traces)
        reference = synthetic_fpga_engine.serve(request, parallel=False).states
        with ReadoutEngine(synthetic_fpga_engine.backends, max_workers=3) as engine:
            np.testing.assert_array_equal(
                engine.serve(request, parallel=True).states, reference
            )
        # Context exit closed the pool; the engine still serves (sequentially).
        np.testing.assert_array_equal(
            engine.serve(request, parallel=True).states, reference
        )
        assert engine._executor is None
        engine.close()  # idempotent

    def test_worker_exception_propagates(self, synthetic_fpga_engine):
        bad = np.full((4, 3, 2, 2), 0.5)  # traces shorter than the MF envelope
        with pytest.raises(ValueError):
            ReadoutEngine(synthetic_fpga_engine.backends, max_workers=3).serve(
                ReadoutRequest(traces=bad), parallel=True
            )


class TestRawServing:
    """The raw-carrier path: digitize once, serve integers end-to-end."""

    def test_supports_raw_flags(self, synthetic_fpga_engine, trained_student):
        assert synthetic_fpga_engine.supports_raw
        mixed = ReadoutEngine(
            [
                FloatStudentBackend(trained_student),
                FixedPointBackend.from_student(trained_student),
            ]
        )
        assert not mixed.supports_raw

    def test_raw_bit_identical_to_float_path(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        """int32 and int64 carriers reproduce the float-trace fpga path exactly."""
        carriers = digitize_traces(synthetic_traces)
        assert carriers.dtype == np.int32
        float_result = synthetic_fpga_engine.serve(
            ReadoutRequest(traces=synthetic_traces, output="both"), parallel=False
        )
        for dtype in (np.int32, np.int64):
            raw_result = synthetic_fpga_engine.serve(
                ReadoutRequest(raw=carriers.astype(dtype), output="both"),
                parallel=False,
            )
            np.testing.assert_array_equal(float_result.logits, raw_result.logits)
            np.testing.assert_array_equal(float_result.states, raw_result.states)

    def test_raw_parallel_equals_sequential(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        request = ReadoutRequest(raw=digitize_traces(synthetic_traces), output="both")
        pooled = ReadoutEngine(synthetic_fpga_engine.backends, max_workers=3)
        parallel = pooled.serve(request, parallel=True)
        sequential = synthetic_fpga_engine.serve(request, parallel=False)
        np.testing.assert_array_equal(parallel.states, sequential.states)
        np.testing.assert_array_equal(parallel.logits, sequential.logits)
        pooled.close()

    def test_single_qubit_raw_matches_joint_column(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        carriers = digitize_traces(synthetic_traces)
        joint = synthetic_fpga_engine.serve(ReadoutRequest(raw=carriers))
        for qubit in range(synthetic_fpga_engine.n_qubits):
            solo = synthetic_fpga_engine.serve(
                ReadoutRequest(raw=carriers[:, [qubit]], qubits=(qubit,))
            )
            np.testing.assert_array_equal(joint.states[:, qubit], solo.states[:, 0])

    def test_single_raw_trace_convention(self, synthetic_fpga_engine, synthetic_traces):
        carriers = digitize_traces(synthetic_traces)
        state = synthetic_fpga_engine._serve_single_qubit(carriers[0, 0], 0, raw=True)
        assert state in (0, 1)
        logit = synthetic_fpga_engine._serve_single_qubit(
            carriers[0, 0], 0, output="logits", raw=True
        )
        assert np.ndim(logit) == 0

    def test_float_traces_rejected_loudly(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        with pytest.raises(TypeError, match="integer"):
            synthetic_fpga_engine.serve(ReadoutRequest(raw=synthetic_traces))
        with pytest.raises(TypeError, match="integer"):
            synthetic_fpga_engine._serve_single_qubit(
                synthetic_traces[:, 0], 0, raw=True
            )

    def test_wrong_raw_shape_rejected(self, synthetic_fpga_engine, synthetic_traces):
        carriers = digitize_traces(synthetic_traces)
        with pytest.raises(ValueError, match="shape"):
            synthetic_fpga_engine.serve(ReadoutRequest(raw=carriers[:, :2]))

    def test_mismatched_carrier_format_rejected(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        """Carriers digitized in a foreign format must not be misread silently."""
        from repro.fpga.fixed_point import FixedPointFormat

        q8_8 = FixedPointFormat(integer_bits=8, fractional_bits=8)
        carriers = digitize_traces(synthetic_traces, fmt=q8_8)
        with pytest.raises(ValueError, match="re-digitize"):
            synthetic_fpga_engine.serve(ReadoutRequest(raw=carriers, fmt=q8_8))
        # Matching declaration (or none at all) serves normally.
        matching = digitize_traces(synthetic_traces, fmt=Q16_16)
        np.testing.assert_array_equal(
            synthetic_fpga_engine.serve(ReadoutRequest(raw=matching, fmt=Q16_16)).states,
            synthetic_fpga_engine.serve(ReadoutRequest(raw=matching)).states,
        )

    def test_mixed_engine_rejects_raw_without_dequantize(
        self, trained_student, small_dataset
    ):
        engine = ReadoutEngine(
            [
                FloatStudentBackend(trained_student),
                FixedPointBackend.from_student(trained_student),
            ]
        )
        view = small_dataset.qubit_view(0)
        carriers = digitize_traces(np.stack([view.test_traces[:20]] * 2, axis=1))
        with pytest.raises(TypeError, match="dequantize"):
            engine.serve(ReadoutRequest(raw=carriers))
        with pytest.raises(TypeError, match="dequantize"):
            engine.serve(ReadoutRequest(raw=carriers, output="logits"))
        with pytest.raises(TypeError, match="dequantize"):
            engine._serve_single_qubit(carriers[:, 0], 0, raw=True)

    def test_dequantize_fallback_is_explicit_and_correct(
        self, trained_student, small_dataset
    ):
        """With dequantize=True the float backend serves fmt-quantized traces."""
        engine = ReadoutEngine(
            [
                FloatStudentBackend(trained_student),
                FixedPointBackend.from_student(trained_student),
            ]
        )
        view = small_dataset.qubit_view(0)
        traces = np.stack([view.test_traces[:20]] * 2, axis=1)
        carriers = digitize_traces(traces)
        states = engine.serve(ReadoutRequest(raw=carriers, dequantize=True)).states
        # Float column: the student fed the dequantized (grid-quantized) traces.
        np.testing.assert_array_equal(
            states[:, 0],
            trained_student.predict_states(Q16_16.from_raw(carriers[:, 0])),
        )
        # Fpga column: still the integer-only path, untouched by the fallback.
        np.testing.assert_array_equal(
            states[:, 1],
            engine.backends[1].predict_states_from_raw(carriers[:, 1]),
        )

    def test_dequantize_format_derived_from_raw_backends(
        self, trained_student, small_dataset
    ):
        """With fmt omitted, the fallback reads carriers in the fpga backends'
        format, not a hardcoded Q16.16."""
        from repro.fpga.fixed_point import FixedPointFormat

        q12_12 = FixedPointFormat(integer_bits=12, fractional_bits=12)
        engine = ReadoutEngine(
            [
                FloatStudentBackend(trained_student),
                FixedPointBackend.from_student(trained_student, fmt=q12_12),
            ]
        )
        view = small_dataset.qubit_view(0)
        carriers = digitize_traces(
            np.stack([view.test_traces[:20]] * 2, axis=1), fmt=q12_12
        )
        states = engine.serve(ReadoutRequest(raw=carriers, dequantize=True)).states
        np.testing.assert_array_equal(
            states[:, 0],
            trained_student.predict_states(q12_12.from_raw(carriers[:, 0])),
        )

    def test_dequantize_with_ambiguous_formats_rejected(self, trained_student):
        """Raw-capable backends in several formats make the default an error."""
        from repro.fpga.fixed_point import FixedPointFormat

        engine = ReadoutEngine(
            [
                FloatStudentBackend(trained_student),
                FixedPointBackend.from_student(
                    trained_student, fmt=FixedPointFormat(12, 12)
                ),
                FixedPointBackend.from_student(
                    trained_student, fmt=FixedPointFormat(10, 10)
                ),
            ]
        )
        carriers = np.zeros((4, 3, 40, 2), dtype=np.int32)
        with pytest.raises(ValueError, match="multiple formats"):
            engine.serve(ReadoutRequest(raw=carriers, dequantize=True))

    def test_golden_snapshot_through_raw_path(self):
        """Raw serving must land exactly on the golden raw-integer snapshot."""
        import json

        from make_golden import GOLDEN_PATH, build_traces

        golden = np.array(
            json.loads(GOLDEN_PATH.read_text())["q16_16"], dtype=np.int64
        )
        engine = ReadoutEngine(
            [FixedPointBackend(build_parameters(CASES["q16_16"])) for _ in range(2)]
        )
        carriers = digitize_traces(np.stack([build_traces()] * 2, axis=1))
        logits = engine.serve(
            ReadoutRequest(raw=carriers, output="logits"), parallel=True
        ).logits
        expected = golden.astype(np.float64) / CASES["q16_16"].scale
        np.testing.assert_array_equal(logits[:, 0], expected)
        np.testing.assert_array_equal(logits[:, 1], expected)


class TestServeTraces:
    def test_integer_dtype_and_precision_preserved(self):
        """Regression: the old unconditional float64 coercion silently destroyed
        int64 raw values above 2**53."""
        seen = {}

        def record(batch):
            seen["dtype"] = batch.dtype
            return batch[:, 0, 0]

        value = 2**53 + 1  # not representable in float64
        batch = np.full((2, 3, 2), value, dtype=np.int64)
        out = serve_traces(record, batch)
        assert seen["dtype"] == np.dtype(np.int64)
        assert int(out[0]) == value

    def test_single_integer_trace_wrapped(self):
        single = np.arange(8, dtype=np.int32).reshape(4, 2)
        out = serve_traces(lambda b: b.sum(axis=(1, 2)), single)
        assert np.ndim(out) == 0
        assert int(out) == int(single.sum())


class TestWorkerCount:
    def test_respects_scheduler_affinity(self, synthetic_fpga_engine, monkeypatch):
        """A CPU-restricted container must not overspawn worker threads."""
        import repro.engine.engine as engine_module

        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            engine_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        engine = ReadoutEngine(synthetic_fpga_engine.backends)  # 3 qubits
        assert engine.worker_count == 2

    def test_explicit_max_workers_still_wins(self, synthetic_fpga_engine, monkeypatch):
        import repro.engine.engine as engine_module

        monkeypatch.setattr(
            engine_module.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        engine = ReadoutEngine(synthetic_fpga_engine.backends, max_workers=2)
        assert engine.worker_count == 2


class TestGoldenThroughEngine:
    def test_engine_column_reproduces_golden_snapshot(self):
        """Engine-level pinning: serving must not perturb the datapath."""
        import json

        from make_golden import GOLDEN_PATH, build_traces

        golden = np.array(
            json.loads(GOLDEN_PATH.read_text())["q16_16"], dtype=np.int64
        )
        engine = ReadoutEngine(
            [FixedPointBackend(build_parameters(CASES["q16_16"])) for _ in range(2)]
        )
        traces = np.stack([build_traces()] * 2, axis=1)
        logits = engine.serve(
            ReadoutRequest(traces=traces, output="logits"), parallel=True
        ).logits
        expected = golden.astype(np.float64) / CASES["q16_16"].scale
        np.testing.assert_array_equal(logits[:, 0], expected)
        np.testing.assert_array_equal(logits[:, 1], expected)
