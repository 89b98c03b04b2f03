"""Unit and integration tests for the bit-accurate FPGA student emulator."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.fpga.emulator import FpgaStudentEmulator
from repro.fpga.fixed_point import FixedPointFormat, Q16_16
from repro.fpga.quantize import quantize_student

from make_golden import CASES, GOLDEN_PATH, build_parameters, build_traces


@pytest.fixture(scope="module")
def emulator(trained_student):
    return FpgaStudentEmulator.from_student(trained_student, Q16_16)


class TestEmulatorConstruction:
    def test_from_student(self, emulator, trained_student):
        assert len(emulator.layers) == 3
        assert emulator.parameters.input_dimension == trained_student.input_dim

    def test_from_parameters(self, trained_student):
        params = quantize_student(trained_student)
        emulator = FpgaStudentEmulator(params)
        assert emulator.matched_filter is not None

    def test_last_layer_has_no_relu(self, emulator):
        assert emulator.layers[-1].relu is False
        assert all(layer.relu for layer in emulator.layers[:-1])


class TestEmulatorInference:
    def test_feature_vector_matches_float_pipeline(self, emulator, trained_student, small_dataset):
        """The fixed-point feature extraction closely tracks the float features."""
        traces = small_dataset.qubit_view(0).test_traces[:50]
        fixed = Q16_16.from_raw(emulator.features_raw(traces))
        float_features = trained_student.features(traces)
        assert np.max(np.abs(fixed - float_features)) < 0.02

    def test_logits_match_float_student(self, emulator, trained_student, small_dataset):
        traces = small_dataset.qubit_view(0).test_traces[:100]
        fixed_logits = emulator.predict_logits(traces)
        float_logits = trained_student.predict_logits(traces)
        assert np.max(np.abs(fixed_logits - float_logits)) < 0.05

    def test_decision_agreement_is_near_perfect(self, emulator, trained_student, small_dataset):
        """The paper's central hardware claim: Q16.16 preserves the discrimination decisions."""
        view = small_dataset.qubit_view(0)
        report = emulator.agreement_with_float(trained_student, view.test_traces, view.test_labels)
        assert report.agreement >= 0.99
        assert abs(report.fixed_fidelity - report.float_fidelity) < 0.01

    def test_fidelity_close_to_float(self, emulator, trained_student, small_dataset):
        view = small_dataset.qubit_view(0)
        fixed = emulator.fidelity(view.test_traces, view.test_labels)
        float_fidelity = trained_student.fidelity(view.test_traces, view.test_labels)
        assert fixed == pytest.approx(float_fidelity, abs=0.01)

    def test_predict_states_binary(self, emulator, small_dataset):
        states = emulator.predict_states(small_dataset.qubit_view(0).test_traces[:20])
        assert set(np.unique(states)).issubset({0, 1})

    def test_single_trace(self, emulator, small_dataset):
        trace = small_dataset.qubit_view(0).test_traces[0]
        logits = emulator.predict_logits_raw(trace)
        assert logits.shape == (1,)

    def test_agreement_without_labels(self, emulator, trained_student, small_dataset):
        traces = small_dataset.qubit_view(0).test_traces[:30]
        report = emulator.agreement_with_float(trained_student, traces)
        assert report.n_shots == 30
        assert np.isnan(report.float_fidelity) and np.isnan(report.fixed_fidelity)

    def test_report_as_dict(self, emulator, trained_student, small_dataset):
        view = small_dataset.qubit_view(0)
        report = emulator.agreement_with_float(
            trained_student, view.test_traces[:10], view.test_labels[:10]
        )
        assert set(report.as_dict()) == {
            "n_shots", "agreement", "float_fidelity", "fixed_fidelity", "max_logit_error",
        }


class TestGoldenBitExactness:
    """The datapath must stay bit-identical to the seed implementation.

    ``golden_logits.json`` was generated by the original (pre-vectorization)
    emulator on a fixed-seed trace set that includes saturation-edge shots;
    every optimization of the fixed-point engine is held to it raw-integer
    for raw-integer (see ``make_golden.py``).
    """

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads(Path(GOLDEN_PATH).read_text())

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_predict_logits_raw_matches_seed_snapshot(self, golden, case):
        emulator = FpgaStudentEmulator(build_parameters(CASES[case]))
        logits = emulator.predict_logits_raw(build_traces())
        np.testing.assert_array_equal(logits, np.array(golden[case], dtype=np.int64))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tiled_snapshot_at_1025_shots(self, golden, case):
        """1025 shots: one shot past the 1024-shot chunk (the snapshot's 10
        windows take the ``reduceat`` tree; the slot adds are pinned in
        ``test_kernels.py``).  Shots are independent, so the tiled traces
        give the tiled snapshot, from float traces and from int32 carriers
        in the strided ``payload[:, q]`` view the engine hands a backend."""
        fmt = CASES[case]
        emulator = FpgaStudentEmulator(build_parameters(fmt))
        traces = build_traces()
        reps = -(-1025 // len(traces))
        tiled = np.tile(traces, (reps, 1, 1))[:1025]
        expected = np.tile(np.array(golden[case], dtype=np.int64), reps)[:1025]
        np.testing.assert_array_equal(emulator.predict_logits_raw(tiled), expected)
        raw = fmt.to_raw(tiled).astype(fmt.raw_carrier_dtype)
        payload = np.stack([np.zeros_like(raw), raw], axis=1)
        np.testing.assert_array_equal(emulator.predict_logits_from_raw(payload[:, 1]), expected)

    def test_snapshot_covers_saturation(self, golden):
        """The fixed trace set genuinely drives the datapath into saturation."""
        logits = np.array(golden["q16_16"], dtype=np.int64)
        assert logits.min() == Q16_16.min_raw

    def test_chunked_and_unchunked_evaluation_identical(self):
        """Internal batch chunking must not change a single raw logit."""
        from repro.fpga import emulator as emulator_module

        fpga = FpgaStudentEmulator(build_parameters(CASES["q16_16"]))
        traces = np.tile(build_traces(), (3, 1, 1))
        whole = fpga.predict_logits_raw(traces)
        original = emulator_module._BATCH_CHUNK
        emulator_module._BATCH_CHUNK = 50
        try:
            chunked = fpga.predict_logits_raw(traces)
            chunked_raw = fpga.predict_logits_from_raw(fpga.fmt.to_raw(traces))
        finally:
            emulator_module._BATCH_CHUNK = original
        np.testing.assert_array_equal(whole, chunked)
        np.testing.assert_array_equal(whole, chunked_raw)

    def test_raw_entry_point_matches_float_entry_point(self):
        fpga = FpgaStudentEmulator(build_parameters(CASES["q16_16"]))
        traces = build_traces()
        np.testing.assert_array_equal(
            fpga.predict_logits_raw(traces),
            fpga.predict_logits_from_raw(fpga.fmt.to_raw(traces)),
        )

    def test_chunked_multi_output_network_flattens_like_unchunked(self):
        """Chunk buffers are sized from the final layer width, so networks
        with more than one output neuron chunk correctly too."""
        from repro.fpga import emulator as emulator_module

        params = build_parameters(CASES["q16_16"])
        params.layer_weights[-1] = np.tile(params.layer_weights[-1], (1, 2))
        params.layer_biases[-1] = np.tile(params.layer_biases[-1], 2)
        fpga = FpgaStudentEmulator(params)
        traces = np.tile(build_traces(), (3, 1, 1))
        whole = fpga.predict_logits_raw(traces)
        assert whole.shape == (traces.shape[0] * 2,)
        original = emulator_module._BATCH_CHUNK
        emulator_module._BATCH_CHUNK = 50
        try:
            chunked = fpga.predict_logits_raw(traces)
        finally:
            emulator_module._BATCH_CHUNK = original
        np.testing.assert_array_equal(whole, chunked)

    def test_out_of_range_raw_inputs_saturate_not_wrap(self):
        """Raw entry points model the ADC capture register: absurd int64
        samples saturate to the word length instead of wrapping the int64
        accumulators into silently wrong logits."""
        fpga = FpgaStudentEmulator(build_parameters(CASES["q16_16"]))
        traces = build_traces()
        wild = fpga.fmt.to_raw(traces)
        wild[0] = 1 << 45
        wild[1] = -(1 << 45)
        saturated = fpga.fmt.to_raw(traces)
        saturated[0] = Q16_16.max_raw
        saturated[1] = Q16_16.min_raw
        np.testing.assert_array_equal(
            fpga.predict_logits_from_raw(wild),
            fpga.predict_logits_from_raw(saturated),
        )
        np.testing.assert_array_equal(
            fpga.features_from_raw(wild), fpga.features_from_raw(saturated)
        )


class TestInt32TraceCarrier:
    """Raw Q16.16 samples fit int32; storing traces as int32, read in place
    by the adder-tree and MF-MAC kernels, must be bit-identical to the
    all-int64 path."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_int32_and_int64_raw_inputs_bit_identical(self, case):
        fmt = CASES[case]
        fpga = FpgaStudentEmulator(build_parameters(fmt))
        raw64 = fmt.to_raw(build_traces())
        raw32 = raw64.astype(np.int32)  # in range for both 32- and 16-bit words
        np.testing.assert_array_equal(
            fpga.predict_logits_from_raw(raw64),
            fpga.predict_logits_from_raw(raw32),
        )
        np.testing.assert_array_equal(
            fpga.features_from_raw(raw64), fpga.features_from_raw(raw32)
        )

    def test_carrier_dtype_matches_word_length(self):
        assert FpgaStudentEmulator(
            build_parameters(CASES["q16_16"])
        ).carrier_dtype == np.dtype(np.int32)
        assert Q16_16.raw_carrier_dtype == np.dtype(np.int32)
        wide = FixedPointFormat(integer_bits=20, fractional_bits=20)
        assert wide.raw_carrier_dtype == np.dtype(np.int64)

    def test_int32_inputs_saturate_for_narrow_words(self):
        """A 16-bit (q8_8) datapath must still clip out-of-range int32 samples."""
        fmt = CASES["q8_8"]
        fpga = FpgaStudentEmulator(build_parameters(fmt))
        raw = fmt.to_raw(build_traces()).astype(np.int32)
        wild = raw.copy()
        wild[0] = np.int32(1) << 24
        wild[1] = -(np.int32(1) << 24)
        clipped = raw.copy()
        clipped[0] = fmt.max_raw
        clipped[1] = fmt.min_raw
        np.testing.assert_array_equal(
            fpga.predict_logits_from_raw(wild),
            fpga.predict_logits_from_raw(clipped),
        )

    def test_chunked_int32_path_matches_unchunked(self):
        from repro.fpga import emulator as emulator_module

        fpga = FpgaStudentEmulator(build_parameters(CASES["q16_16"]))
        raw32 = Q16_16.to_raw(np.tile(build_traces(), (3, 1, 1))).astype(np.int32)
        whole = fpga.predict_logits_from_raw(raw32)
        original = emulator_module._BATCH_CHUNK
        emulator_module._BATCH_CHUNK = 50
        try:
            chunked = fpga.predict_logits_from_raw(raw32)
        finally:
            emulator_module._BATCH_CHUNK = original
        np.testing.assert_array_equal(whole, chunked)


class TestNarrowFormats:
    def test_narrow_format_degrades_agreement(self, trained_student, small_dataset):
        """Very narrow fixed-point formats visibly hurt, wide ones do not (word-length ablation)."""
        view = small_dataset.qubit_view(0)
        traces = view.test_traces[:200]
        narrow = FpgaStudentEmulator.from_student(
            trained_student, FixedPointFormat(integer_bits=6, fractional_bits=2)
        )
        wide = FpgaStudentEmulator.from_student(trained_student, Q16_16)
        agreement_narrow = narrow.agreement_with_float(trained_student, traces).agreement
        agreement_wide = wide.agreement_with_float(trained_student, traces).agreement
        assert agreement_wide >= agreement_narrow
        assert agreement_wide >= 0.99

    def test_q8_8_still_reasonable(self, trained_student, small_dataset):
        view = small_dataset.qubit_view(0)
        emulator = FpgaStudentEmulator.from_student(
            trained_student, FixedPointFormat(integer_bits=8, fractional_bits=8)
        )
        report = emulator.agreement_with_float(
            trained_student, view.test_traces[:200], view.test_labels[:200]
        )
        assert report.agreement > 0.9
