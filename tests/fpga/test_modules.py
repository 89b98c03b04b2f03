"""Unit tests for the individual FPGA datapath modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fpga.fixed_point import Q16_16
from repro.fpga.modules import (
    AverageModule,
    DenseLayerModule,
    MatchedFilterModule,
    NormalizeModule,
    ThresholdModule,
)


class TestAverageModule:
    def test_matches_float_average(self):
        rng = np.random.default_rng(0)
        traces = rng.uniform(-3, 3, size=(5, 32, 2))
        module = AverageModule(Q16_16, 8, int(Q16_16.to_raw(1.0 / 8)))
        raw_out = module.forward(Q16_16.to_raw(traces))
        float_avg = traces.reshape(5, 4, 8, 2).mean(axis=2).reshape(5, -1)
        np.testing.assert_allclose(Q16_16.from_raw(raw_out), float_avg, atol=1e-3)

    def test_window_of_one_passthrough(self):
        traces = np.random.default_rng(1).uniform(-2, 2, size=(3, 10, 2))
        module = AverageModule(Q16_16, 1, int(Q16_16.to_raw(1.0)))
        out = Q16_16.from_raw(module.forward(Q16_16.to_raw(traces)))
        np.testing.assert_allclose(out, traces.reshape(3, -1), atol=1e-4)

    def test_single_trace(self):
        trace = np.ones((8, 2))
        module = AverageModule(Q16_16, 4, int(Q16_16.to_raw(0.25)))
        out = module.forward(Q16_16.to_raw(trace))
        assert out.shape == (4,)

    def test_interleaving_order_is_iq_per_interval(self):
        trace = np.zeros((4, 2))
        trace[:, 0] = 1.0  # I channel
        trace[:, 1] = 2.0  # Q channel
        module = AverageModule(Q16_16, 2, int(Q16_16.to_raw(0.5)))
        out = Q16_16.from_raw(module.forward(Q16_16.to_raw(trace)))
        np.testing.assert_allclose(out, [1.0, 2.0, 1.0, 2.0], atol=1e-4)

    def test_window_too_large_rejected(self):
        module = AverageModule(Q16_16, 100, int(Q16_16.to_raw(0.01)))
        with pytest.raises(ValueError):
            module.forward(Q16_16.to_raw(np.zeros((2, 10, 2))))

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            AverageModule(Q16_16, 0, 1)


class TestNormalizeModule:
    def test_matches_float_shift_normalization(self):
        rng = np.random.default_rng(2)
        features = rng.uniform(-4, 4, size=(6, 5))
        minimum = features.min(axis=0)
        shift_bits = np.array([1, 2, 0, 3, 1])
        module = NormalizeModule(Q16_16, Q16_16.to_raw(minimum), shift_bits)
        raw_out = module.forward(Q16_16.to_raw(features))
        expected = (features - minimum) / (2.0 ** shift_bits)
        np.testing.assert_allclose(Q16_16.from_raw(raw_out), expected, atol=1e-3)

    def test_negative_shift_is_left_shift(self):
        features = np.array([[1.0, 2.0]])
        module = NormalizeModule(
            Q16_16, Q16_16.to_raw(np.zeros(2)), np.array([-1, -2])
        )
        out = Q16_16.from_raw(module.forward(Q16_16.to_raw(features)))
        np.testing.assert_allclose(out, [[2.0, 8.0]], atol=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            NormalizeModule(Q16_16, np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))

    def test_wrong_feature_count_rejected(self):
        module = NormalizeModule(Q16_16, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            module.forward(np.zeros((2, 4), dtype=np.int64))


class TestMatchedFilterModule:
    def test_matches_float_projection(self):
        rng = np.random.default_rng(3)
        envelope = rng.uniform(-0.5, 0.5, size=(20, 2))
        traces = rng.uniform(-3, 3, size=(4, 20, 2))
        threshold = 1.2
        scale = 2.5
        module = MatchedFilterModule(
            Q16_16,
            Q16_16.to_raw(envelope),
            int(Q16_16.to_raw(threshold)),
            int(Q16_16.to_raw(1.0 / scale)),
        )
        raw_out = module.forward(Q16_16.to_raw(traces))
        expected = (np.einsum("nsq,sq->n", traces, envelope) - threshold) / scale
        np.testing.assert_allclose(Q16_16.from_raw(raw_out), expected, atol=2e-2)

    def test_single_trace_scalar(self):
        envelope = np.ones((5, 2)) * 0.1
        module = MatchedFilterModule(Q16_16, Q16_16.to_raw(envelope), 0, int(Q16_16.to_raw(1.0)))
        out = module.forward(Q16_16.to_raw(np.ones((5, 2))))
        assert np.ndim(out) == 0

    def test_trace_shorter_than_envelope_rejected(self):
        envelope = np.ones((10, 2))
        module = MatchedFilterModule(Q16_16, Q16_16.to_raw(envelope), 0, int(Q16_16.to_raw(1.0)))
        with pytest.raises(ValueError):
            module.forward(Q16_16.to_raw(np.ones((2, 5, 2))))

    def test_invalid_envelope_shape(self):
        with pytest.raises(ValueError):
            MatchedFilterModule(Q16_16, np.zeros((10, 3), dtype=np.int64), 0, 1)


class TestDenseLayerModule:
    def test_matches_float_layer_with_relu(self):
        rng = np.random.default_rng(4)
        weights = rng.uniform(-1, 1, size=(12, 6))
        biases = rng.uniform(-0.5, 0.5, size=6)
        inputs = rng.uniform(-2, 2, size=(7, 12))
        module = DenseLayerModule(Q16_16, Q16_16.to_raw(weights), Q16_16.to_raw(biases), relu=True)
        raw_out = module.forward(Q16_16.to_raw(inputs))
        expected = np.maximum(inputs @ weights + biases, 0.0)
        np.testing.assert_allclose(Q16_16.from_raw(raw_out), expected, atol=1e-2)

    def test_no_relu_on_output_layer(self):
        weights = np.array([[1.0], [1.0]])
        biases = np.array([-10.0])
        module = DenseLayerModule(Q16_16, Q16_16.to_raw(weights), Q16_16.to_raw(biases), relu=False)
        out = Q16_16.from_raw(module.forward(Q16_16.to_raw(np.array([[1.0, 1.0]]))))
        assert out[0, 0] == pytest.approx(-8.0, abs=1e-3)

    def test_relu_clamps_negative_accumulator(self):
        weights = np.array([[1.0], [1.0]])
        biases = np.array([-10.0])
        module = DenseLayerModule(Q16_16, Q16_16.to_raw(weights), Q16_16.to_raw(biases), relu=True)
        out = module.forward(Q16_16.to_raw(np.array([[1.0, 1.0]])))
        assert out[0, 0] == 0

    def test_properties(self):
        module = DenseLayerModule(
            Q16_16, np.zeros((31, 16), dtype=np.int64), np.zeros(16, dtype=np.int64)
        )
        assert module.n_inputs == 31
        assert module.n_neurons == 16

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DenseLayerModule(Q16_16, np.zeros((4, 2), dtype=np.int64), np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            DenseLayerModule(Q16_16, np.zeros(4, dtype=np.int64), np.zeros(1, dtype=np.int64))

    def test_wrong_input_width_rejected(self):
        module = DenseLayerModule(
            Q16_16, np.zeros((4, 2), dtype=np.int64), np.zeros(2, dtype=np.int64)
        )
        with pytest.raises(ValueError):
            module.forward(np.zeros((1, 5), dtype=np.int64))


class TestThresholdModule:
    def test_sign_decision(self):
        module = ThresholdModule()
        np.testing.assert_array_equal(
            module.forward(np.array([-5, 0, 7], dtype=np.int64)), [0, 1, 1]
        )


def _dense_reference(module: DenseLayerModule, inputs_raw: np.ndarray) -> np.ndarray:
    """Per-neuron big-integer reference for a dense layer (the seed semantics)."""
    fmt = module.fmt
    outputs = np.empty((inputs_raw.shape[0], module.n_neurons), dtype=np.int64)
    for neuron in range(module.n_neurons):
        outputs[:, neuron] = fmt.multiply_accumulate_exact_reference(
            inputs_raw, module.weights_raw[:, neuron], bias=int(module.biases_raw[neuron])
        )
    if module.relu:
        outputs = np.where(outputs < 0, 0, outputs)
    return outputs


class TestVectorizedDenseEquivalence:
    """The batched matmul path is bit-identical to the per-neuron reference."""

    def test_random_in_range_inputs(self):
        rng = np.random.default_rng(21)
        weights = rng.integers(-(1 << 18), 1 << 18, size=(31, 16))
        biases = rng.integers(-(1 << 20), 1 << 20, size=16)
        module = DenseLayerModule(Q16_16, weights, biases, relu=True)
        assert module._vectorized
        inputs = rng.integers(Q16_16.min_raw, Q16_16.max_raw + 1, size=(40, 31))
        np.testing.assert_array_equal(
            module.forward(inputs), _dense_reference(module, inputs)
        )

    def test_saturation_edge_inputs(self):
        rng = np.random.default_rng(22)
        weights = rng.integers(-(1 << 18), 1 << 18, size=(12, 6))
        biases = rng.integers(-(1 << 16), 1 << 16, size=6)
        module = DenseLayerModule(Q16_16, weights, biases, relu=False)
        edges = np.array([Q16_16.min_raw, Q16_16.max_raw, 0, -1, 1])
        inputs = edges[rng.integers(0, edges.size, size=(30, 12))]
        np.testing.assert_array_equal(
            module.forward(inputs), _dense_reference(module, inputs)
        )

    def test_overflowing_static_bound_uses_layer_fallback(self):
        """Weights too large for the int64 margin switch the whole layer to the
        exact path, and the results still match the reference bit for bit."""
        weights = np.full((4, 2), Q16_16.max_raw, dtype=np.int64)
        biases = np.zeros(2, dtype=np.int64)
        module = DenseLayerModule(Q16_16, weights, biases, relu=True)
        assert not module._vectorized
        rng = np.random.default_rng(23)
        inputs = rng.integers(Q16_16.min_raw, Q16_16.max_raw + 1, size=(9, 4))
        np.testing.assert_array_equal(
            module.forward(inputs), _dense_reference(module, inputs)
        )

    def test_static_bound_covers_all_neurons(self):
        rng = np.random.default_rng(24)
        weights = rng.integers(-(1 << 17), 1 << 17, size=(10, 5))
        module = DenseLayerModule(Q16_16, weights, np.zeros(5, dtype=np.int64))
        per_neuron = [Q16_16.mac_static_bound(weights[:, n]) for n in range(5)]
        assert module._mac_bound == max(per_neuron)


class TestVectorizedAverageEquivalence:
    def test_adder_tree_matches_manual_group_sums(self):
        rng = np.random.default_rng(25)
        traces = rng.integers(Q16_16.min_raw, Q16_16.max_raw + 1, size=(6, 37, 2))
        module = AverageModule(Q16_16, 8, int(Q16_16.to_raw(1.0 / 8)))
        out = module.forward(traces)
        groups = traces[:, :32, :].reshape(6, 4, 8, 2)
        expected = Q16_16.multiply_exact_reference(
            groups.sum(axis=2), np.int64(int(Q16_16.to_raw(1.0 / 8)))
        ).reshape(6, -1)
        np.testing.assert_array_equal(out, expected)

    def test_many_interval_matmul_branch_matches_reference(self):
        """spi=5 over 500 samples takes the slot-add branch (>64 intervals)."""
        rng = np.random.default_rng(26)
        traces = rng.integers(Q16_16.min_raw, Q16_16.max_raw + 1, size=(4, 500, 2))
        recip = int(Q16_16.to_raw(1.0 / 5))
        module = AverageModule(Q16_16, 5, recip)
        out = module.forward(traces)
        groups = traces.reshape(4, 100, 5, 2)
        expected = Q16_16.multiply_exact_reference(
            groups.sum(axis=2), np.int64(recip)
        ).reshape(4, -1)
        np.testing.assert_array_equal(out, expected)

    def test_huge_window_beyond_guard_uses_reference_branch(self):
        """Windows wider than the multiply headroom stay exact via big integers."""
        guard = Q16_16.multiply_guard_bits
        spi = (1 << guard) * 2
        module = AverageModule(Q16_16, spi, int(Q16_16.to_raw(1.0 / spi)))
        assert not module._scale_exactly
        traces = np.full((2, spi, 2), Q16_16.max_raw, dtype=np.int64)
        out = module.forward(traces)
        sums = traces.reshape(2, 1, spi, 2).sum(axis=2)
        expected = Q16_16.multiply_exact_reference(
            sums, np.int64(int(Q16_16.to_raw(1.0 / spi)))
        ).reshape(2, -1)
        np.testing.assert_array_equal(out, expected)


class TestMatchedFilterStaticBound:
    def test_forward_matches_probe_free_reference(self):
        rng = np.random.default_rng(27)
        envelope = rng.integers(-(1 << 16), 1 << 16, size=(25, 2))
        module = MatchedFilterModule(Q16_16, envelope, 321, int(Q16_16.to_raw(0.4)))
        traces = rng.integers(Q16_16.min_raw, Q16_16.max_raw + 1, size=(12, 25, 2))
        out = module.forward(traces)
        scores = Q16_16.multiply_accumulate_exact_reference(
            traces.reshape(12, -1), envelope.reshape(-1)
        )
        expected = Q16_16.multiply_exact_reference(
            scores - 321, np.int64(int(Q16_16.to_raw(0.4)))
        )
        np.testing.assert_array_equal(out, expected)

    def test_static_bound_is_precomputed_from_envelope(self):
        envelope = np.full((10, 2), 1 << 15, dtype=np.int64)
        module = MatchedFilterModule(Q16_16, envelope, 0, 1)
        assert module._mac_bound == Q16_16.mac_static_bound(envelope.reshape(-1))
