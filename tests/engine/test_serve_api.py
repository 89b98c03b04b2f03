"""Tests for the unified request-based serving API.

Three jobs:

* **request/result semantics** -- validation, qubit subsets, output kinds,
  timing metadata;
* **legacy-mapping parity** -- each ``serve()`` call the README maps a
  removed ``discriminate*`` / ``predict_logits*`` method onto computes
  exactly what that method computed, per backend column (float and raw
  carriers, parallel and sequential), pinned against the golden fixed-point
  snapshot;
* **the shared error path** -- single-qubit and multiplexed shape errors
  report expected vs. actual shape through one formatter.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from make_golden import CASES, GOLDEN_PATH, build_parameters, build_traces

from repro.engine import (
    FixedPointBackend,
    FloatStudentBackend,
    ReadoutEngine,
    ReadoutRequest,
    ReadoutResult,
    states_from_logits,
)
from repro.fpga.fixed_point import Q16_16
from repro.readout.preprocessing import digitize_traces

@pytest.fixture(scope="module")
def carriers(synthetic_traces) -> np.ndarray:
    return digitize_traces(synthetic_traces)


class TestRequestValidation:
    def test_requires_exactly_one_carrier(self, synthetic_traces):
        with pytest.raises(ValueError, match="exactly one carrier"):
            ReadoutRequest()
        with pytest.raises(ValueError, match="exactly one carrier"):
            ReadoutRequest(
                traces=synthetic_traces, raw=digitize_traces(synthetic_traces)
            )

    def test_rejects_unknown_output(self, synthetic_traces):
        with pytest.raises(ValueError, match="output"):
            ReadoutRequest(traces=synthetic_traces, output="probabilities")

    def test_rejects_float_raw_carrier(self, synthetic_traces):
        with pytest.raises(TypeError, match="integer"):
            ReadoutRequest(raw=synthetic_traces)

    def test_rejects_dequantize_on_float_traces(self, synthetic_traces):
        with pytest.raises(ValueError, match="dequantize"):
            ReadoutRequest(traces=synthetic_traces, dequantize=True)
        with pytest.raises(ValueError, match="raw"):
            ReadoutRequest(traces=synthetic_traces, fmt=Q16_16)

    def test_rejects_duplicate_and_empty_qubit_selections(self, synthetic_traces):
        with pytest.raises(ValueError, match="duplicate"):
            ReadoutRequest(traces=synthetic_traces, qubits=(0, 0))
        with pytest.raises(ValueError, match="at least one"):
            ReadoutRequest(traces=synthetic_traces[:, :0], qubits=())

    def test_out_of_range_qubit_raises_index_error(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        request = ReadoutRequest(traces=synthetic_traces[:, :1], qubits=(7,))
        with pytest.raises(IndexError, match="out of range"):
            synthetic_fpga_engine.serve(request)

    def test_serve_rejects_non_request(self, synthetic_fpga_engine, synthetic_traces):
        with pytest.raises(TypeError, match="ReadoutRequest"):
            synthetic_fpga_engine.serve(synthetic_traces)


class TestSharedErrorPath:
    """Satellite: one formatter for every shape error, single or multiplexed."""

    def test_multiplexed_float_and_raw_messages_match(
        self, synthetic_fpga_engine, synthetic_traces, carriers
    ):
        with pytest.raises(ValueError) as float_err:
            synthetic_fpga_engine.serve(ReadoutRequest(traces=synthetic_traces[:, :2]))
        with pytest.raises(ValueError) as raw_err:
            synthetic_fpga_engine.serve(ReadoutRequest(raw=carriers[:, :2]))
        expected = "must have shape (shots, 3, samples, 2), got"
        assert expected in str(float_err.value)
        assert expected in str(raw_err.value)
        assert str(raw_err.value).startswith("raw traces")
        assert str(float_err.value).startswith("traces")

    def test_single_qubit_messages_share_the_formatter(
        self, synthetic_fpga_engine, synthetic_traces, carriers
    ):
        bad = synthetic_traces[:, 0, :, 0]  # trailing axis is not 2
        with pytest.raises(ValueError) as float_err:
            synthetic_fpga_engine._serve_single_qubit(bad, 0)
        with pytest.raises(ValueError) as raw_err:
            synthetic_fpga_engine._serve_single_qubit(carriers[:, 0, :, 0], 0, raw=True)
        expected = "must have shape (shots, samples, 2) or (samples, 2), got"
        assert expected in str(float_err.value)
        assert expected in str(raw_err.value)

    @pytest.mark.parametrize("output", ["states", "logits"])
    def test_serve_reports_expected_subset_width(
        self, synthetic_fpga_engine, synthetic_traces, output
    ):
        request = ReadoutRequest(
            traces=synthetic_traces, qubits=(0, 2), output=output
        )  # 3 columns supplied, 2 selected
        with pytest.raises(ValueError, match=r"\(shots, 2, samples, 2\)"):
            synthetic_fpga_engine.serve(request)


class TestShimParity:
    """The README's table maps each removed legacy method onto a ``serve()``
    call; those calls must compute exactly what the method computed -- each
    backend's own answer for its column."""

    @staticmethod
    def _per_backend(engine, answer, carrier) -> np.ndarray:
        """``answer(backend, column)`` for every qubit, stacked as columns."""
        return np.stack(
            [
                answer(backend, carrier[:, qubit])
                for qubit, backend in enumerate(engine.backends)
            ],
            axis=1,
        )

    @pytest.mark.parametrize("parallel", [False, True])
    def test_float_multiplexed_shims(
        self, synthetic_fpga_engine, synthetic_traces, parallel
    ):
        states = synthetic_fpga_engine.serve(
            ReadoutRequest(traces=synthetic_traces, output="states"), parallel=parallel
        ).states
        logits = synthetic_fpga_engine.serve(
            ReadoutRequest(traces=synthetic_traces, output="logits"), parallel=parallel
        ).logits
        np.testing.assert_array_equal(
            states,
            self._per_backend(
                synthetic_fpga_engine,
                lambda backend, column: backend.predict_states(column),
                synthetic_traces,
            ),
        )
        np.testing.assert_array_equal(
            logits,
            self._per_backend(
                synthetic_fpga_engine,
                lambda backend, column: backend.predict_logits(column),
                synthetic_traces,
            ),
        )

    @pytest.mark.parametrize("parallel", [False, True])
    def test_raw_multiplexed_shims(self, synthetic_fpga_engine, carriers, parallel):
        states = synthetic_fpga_engine.serve(
            ReadoutRequest(raw=carriers, output="states"), parallel=parallel
        ).states
        logits = synthetic_fpga_engine.serve(
            ReadoutRequest(raw=carriers, output="logits"), parallel=parallel
        ).logits
        np.testing.assert_array_equal(
            states,
            self._per_backend(
                synthetic_fpga_engine,
                lambda backend, column: backend.predict_states_from_raw(column),
                carriers,
            ),
        )
        np.testing.assert_array_equal(
            logits,
            self._per_backend(
                synthetic_fpga_engine,
                lambda backend, column: backend.fmt.from_raw(
                    backend.predict_logits_from_raw(column)
                ),
                carriers,
            ),
        )

    def test_single_qubit_shims(self, synthetic_fpga_engine, synthetic_traces, carriers):
        """The single-qubit mappings equal the bare-trace adapter
        ``KlinqReadout.discriminate`` serves through."""
        engine = synthetic_fpga_engine
        for qubit in range(engine.n_qubits):
            request = ReadoutRequest(
                traces=synthetic_traces[:, [qubit]], qubits=(qubit,), output="both"
            )
            result = engine.serve(request)
            np.testing.assert_array_equal(
                result.states[:, 0],
                engine._serve_single_qubit(synthetic_traces[:, qubit], qubit),
            )
            np.testing.assert_array_equal(
                result.logits[:, 0],
                engine._serve_single_qubit(
                    synthetic_traces[:, qubit], qubit, output="logits"
                ),
            )
            raw_request = ReadoutRequest(
                raw=carriers[:, [qubit]], qubits=(qubit,), output="both"
            )
            raw_result = engine.serve(raw_request)
            np.testing.assert_array_equal(
                raw_result.states[:, 0],
                engine._serve_single_qubit(carriers[:, qubit], qubit, raw=True),
            )
            np.testing.assert_array_equal(
                raw_result.logits[:, 0],
                engine._serve_single_qubit(
                    carriers[:, qubit], qubit, output="logits", raw=True
                ),
            )

    def test_float_backend_shims(self, trained_student, small_dataset):
        engine = ReadoutEngine.from_students([trained_student] * 2, backend="float")
        view = small_dataset.qubit_view(0)
        traces = np.stack([view.test_traces[:40]] * 2, axis=1)
        result = engine.serve(ReadoutRequest(traces=traces, output="both"))
        for qubit in range(2):
            np.testing.assert_array_equal(
                result.states[:, qubit], trained_student.predict_states(traces[:, qubit])
            )
            np.testing.assert_array_equal(
                result.logits[:, qubit], trained_student.predict_logits(traces[:, qubit])
            )

    def test_dequantize_opt_in_through_serve(self, trained_student, small_dataset):
        engine = ReadoutEngine(
            [
                FloatStudentBackend(trained_student),
                FixedPointBackend.from_student(trained_student),
            ]
        )
        view = small_dataset.qubit_view(0)
        mixed_carriers = digitize_traces(np.stack([view.test_traces[:20]] * 2, axis=1))
        with pytest.raises(TypeError, match="dequantize"):
            engine.serve(ReadoutRequest(raw=mixed_carriers))
        served = engine.serve(ReadoutRequest(raw=mixed_carriers, dequantize=True))
        np.testing.assert_array_equal(
            served.states[:, 0],
            trained_student.predict_states(Q16_16.from_raw(mixed_carriers[:, 0])),
        )
        np.testing.assert_array_equal(
            served.states[:, 1],
            engine.backends[1].predict_states_from_raw(mixed_carriers[:, 1]),
        )


class TestServeSemantics:
    def test_both_output_single_pass_matches_individual_calls(
        self, synthetic_fpga_engine, synthetic_traces, carriers
    ):
        """output='both' derives states by the shared zero-threshold rule and
        must reproduce each backend's own predict_states bit-for-bit."""
        for both, states_only in (
            (
                ReadoutRequest(traces=synthetic_traces, output="both"),
                ReadoutRequest(traces=synthetic_traces, output="states"),
            ),
            (
                ReadoutRequest(raw=carriers, output="both"),
                ReadoutRequest(raw=carriers, output="states"),
            ),
        ):
            result = synthetic_fpga_engine.serve(both)
            assert result.output == "both"
            np.testing.assert_array_equal(
                result.states, states_from_logits(result.logits)
            )
            np.testing.assert_array_equal(
                result.states, synthetic_fpga_engine.serve(states_only).states
            )

    def test_qubit_subset_columns_match_full_serve(
        self, synthetic_fpga_engine, synthetic_traces
    ):
        full = synthetic_fpga_engine.serve(
            ReadoutRequest(traces=synthetic_traces, output="logits")
        )
        subset = synthetic_fpga_engine.serve(
            ReadoutRequest(
                traces=synthetic_traces[:, [2, 0]], qubits=(2, 0), output="logits"
            )
        )
        assert subset.qubits == (2, 0)
        np.testing.assert_array_equal(subset.logits[:, 0], full.logits[:, 2])
        np.testing.assert_array_equal(subset.logits[:, 1], full.logits[:, 0])
        np.testing.assert_array_equal(subset.logits_for(0), full.logits_for(0))

    def test_result_metadata(self, synthetic_fpga_engine, synthetic_traces):
        result = synthetic_fpga_engine.serve(ReadoutRequest(traces=synthetic_traces))
        assert isinstance(result, ReadoutResult)
        assert result.n_shots == synthetic_traces.shape[0]
        assert result.qubits == (0, 1, 2)
        assert result.n_qubits == 3
        assert result.elapsed_s >= 0.0
        assert result.logits is None
        with pytest.raises(ValueError, match="no logits"):
            result.logits_for(0)
        with pytest.raises(KeyError, match="not served"):
            result.states_for(9)

    def test_with_payload_preserves_the_question(self, carriers):
        request = ReadoutRequest(raw=carriers, output="logits", qubits=(0, 1, 2))
        rebound = request.with_payload(carriers[:4])
        assert rebound.output == "logits"
        assert rebound.qubits == (0, 1, 2)
        assert rebound.is_raw
        np.testing.assert_array_equal(rebound.payload, carriers[:4])


class TestGoldenThroughServe:
    """serve() must land exactly on the golden raw-integer snapshot."""

    def test_float_and_raw_requests_reproduce_golden(self):
        golden = np.array(
            json.loads(GOLDEN_PATH.read_text())["q16_16"], dtype=np.int64
        )
        expected = golden.astype(np.float64) / CASES["q16_16"].scale
        engine = ReadoutEngine(
            [FixedPointBackend(build_parameters(CASES["q16_16"])) for _ in range(2)]
        )
        traces = np.stack([build_traces()] * 2, axis=1)
        raw = digitize_traces(traces)
        for parallel in (False, True):
            float_result = engine.serve(
                ReadoutRequest(traces=traces, output="both"), parallel=parallel
            )
            raw_result = engine.serve(
                ReadoutRequest(raw=raw, output="both"), parallel=parallel
            )
            for result in (float_result, raw_result):
                np.testing.assert_array_equal(result.logits[:, 0], expected)
                np.testing.assert_array_equal(result.logits[:, 1], expected)
                np.testing.assert_array_equal(
                    result.states, states_from_logits(result.logits)
                )
