"""Unit tests for the Q-format fixed-point arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.fixed_point import FixedPointFormat, FixedPointOverflowError, Q16_16


class TestFormatMetadata:
    def test_q16_16_properties(self):
        assert Q16_16.word_length == 32
        assert Q16_16.scale == 65_536
        assert Q16_16.resolution == pytest.approx(1.0 / 65_536)
        assert Q16_16.max_value == pytest.approx(32_768 - 1.0 / 65_536)
        assert Q16_16.min_value == pytest.approx(-32_768)

    def test_str(self):
        assert str(Q16_16) == "Q16.16"

    def test_invalid_formats(self):
        with pytest.raises(ValueError):
            FixedPointFormat(integer_bits=0, fractional_bits=16)
        with pytest.raises(ValueError):
            FixedPointFormat(integer_bits=-1, fractional_bits=4)
        with pytest.raises(ValueError):
            FixedPointFormat(integer_bits=40, fractional_bits=40)


class TestConversion:
    def test_roundtrip_error_bounded_by_resolution(self):
        values = np.random.default_rng(0).uniform(-100, 100, size=1000)
        recovered = Q16_16.from_raw(Q16_16.to_raw(values))
        assert np.max(np.abs(recovered - values)) <= Q16_16.resolution / 2 + 1e-12

    def test_quantize_idempotent(self):
        values = np.random.default_rng(1).uniform(-10, 10, size=100)
        once = Q16_16.quantize(values)
        np.testing.assert_array_equal(Q16_16.quantize(once), once)

    def test_saturation_on_overflow(self):
        raw = Q16_16.to_raw(np.array([1e9, -1e9]))
        np.testing.assert_array_equal(raw, [Q16_16.max_raw, Q16_16.min_raw])

    def test_strict_overflow_raises(self):
        with pytest.raises(FixedPointOverflowError):
            Q16_16.to_raw(np.array([1e9]), strict=True)

    def test_representable(self):
        assert Q16_16.representable(np.array([100.0, -100.0]))
        assert not Q16_16.representable(np.array([1e6]))

    def test_exact_representation_of_grid_values(self):
        fmt = FixedPointFormat(integer_bits=8, fractional_bits=4)
        values = np.array([0.0625, -1.5, 3.25])  # all multiples of 1/16
        np.testing.assert_array_equal(fmt.quantize(values), values)


class TestArithmetic:
    def test_add(self):
        a = Q16_16.to_raw(1.5)
        b = Q16_16.to_raw(2.25)
        np.testing.assert_array_equal(Q16_16.add(a, b), Q16_16.to_raw(3.75))

    def test_add_saturates(self):
        a = np.array([Q16_16.max_raw])
        result = Q16_16.add(a, a)
        np.testing.assert_array_equal(result, [Q16_16.max_raw])

    def test_add_strict_raises(self):
        a = np.array([Q16_16.max_raw])
        with pytest.raises(FixedPointOverflowError):
            Q16_16.add(a, a, strict=True)

    def test_multiply_known_values(self):
        a = Q16_16.to_raw(3.0)
        b = Q16_16.to_raw(-2.5)
        product = Q16_16.multiply(a, b)
        assert Q16_16.from_raw(product) == pytest.approx(-7.5, abs=Q16_16.resolution)

    def test_multiply_small_values_keeps_precision(self):
        a = Q16_16.to_raw(0.125)
        b = Q16_16.to_raw(0.25)
        assert Q16_16.from_raw(Q16_16.multiply(a, b)) == pytest.approx(0.03125, abs=Q16_16.resolution)

    def test_multiply_accumulate_matches_float(self):
        rng = np.random.default_rng(2)
        inputs = rng.uniform(-2, 2, size=(8, 30))
        weights = rng.uniform(-1, 1, size=30)
        raw = Q16_16.multiply_accumulate(Q16_16.to_raw(inputs), Q16_16.to_raw(weights))
        expected = (Q16_16.quantize(inputs) @ Q16_16.quantize(weights))
        np.testing.assert_allclose(Q16_16.from_raw(raw), expected, atol=30 * Q16_16.resolution)

    def test_multiply_accumulate_single_vector(self):
        raw = Q16_16.multiply_accumulate(Q16_16.to_raw(np.ones(4)), Q16_16.to_raw(np.ones(4)))
        assert Q16_16.from_raw(raw) == pytest.approx(4.0, abs=4 * Q16_16.resolution)

    def test_multiply_accumulate_with_bias(self):
        bias = int(Q16_16.to_raw(1.5))
        raw = Q16_16.multiply_accumulate(
            Q16_16.to_raw(np.ones(2)), Q16_16.to_raw(np.ones(2)), bias=bias
        )
        assert Q16_16.from_raw(raw) == pytest.approx(3.5, abs=3 * Q16_16.resolution)

    def test_multiply_accumulate_length_mismatch(self):
        with pytest.raises(ValueError):
            Q16_16.multiply_accumulate(np.zeros((2, 3), dtype=np.int64), np.zeros(4, dtype=np.int64))

    def test_mac_saturates_not_wraps(self):
        """An overflowing accumulation clamps at the maximum instead of wrapping negative."""
        big = Q16_16.to_raw(np.full(100, 100.0))
        weights = Q16_16.to_raw(np.full(100, 100.0))
        result = Q16_16.multiply_accumulate(big, weights)
        assert result == Q16_16.max_raw

    def test_mac_strict_overflow_raises(self):
        big = Q16_16.to_raw(np.full(100, 100.0))
        with pytest.raises(FixedPointOverflowError):
            Q16_16.multiply_accumulate(big, big, strict=True)

    def test_shift_right_is_arithmetic(self):
        raw = np.array([-65536, 65536])  # -1.0 and 1.0 in Q16.16
        shifted = Q16_16.shift_right(raw, 1)
        np.testing.assert_array_equal(Q16_16.from_raw(shifted), [-0.5, 0.5])

    def test_shift_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            Q16_16.shift_right(np.array([1]), -1)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(-1000, 1000, allow_nan=False), min_size=1, max_size=20),
)
def test_property_quantization_error_bounded(values):
    """Quantization error never exceeds half a least-significant bit."""
    values = np.asarray(values)
    error = np.abs(Q16_16.quantize(values) - values)
    assert np.all(error <= Q16_16.resolution / 2 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-100, 100, allow_nan=False),
    b=st.floats(-100, 100, allow_nan=False),
)
def test_property_multiplication_error_bounded(a, b):
    """Fixed-point products stay within a small multiple of the resolution of the float product."""
    raw = Q16_16.multiply(Q16_16.to_raw(a), Q16_16.to_raw(b))
    exact = Q16_16.quantize(a) * Q16_16.quantize(b)
    assert abs(Q16_16.from_raw(raw) - exact) <= (abs(a) + abs(b) + 2) * Q16_16.resolution


#: Formats covering every multiply strategy: direct (narrow words), limb
#: (the paper's Q16.16 and friends), reference (too wide for int64 limbs).
EQUIVALENCE_FORMATS = [
    FixedPointFormat(integer_bits=8, fractional_bits=8),
    FixedPointFormat(integer_bits=4, fractional_bits=12),
    FixedPointFormat(integer_bits=16, fractional_bits=16),
    FixedPointFormat(integer_bits=12, fractional_bits=20),
    FixedPointFormat(integer_bits=30, fractional_bits=30),
]


def _edge_raws(fmt: FixedPointFormat) -> list[int]:
    """Saturation-edge raw operands for a format."""
    return [fmt.min_raw, fmt.min_raw + 1, -1, 0, 1, fmt.max_raw - 1, fmt.max_raw]


class TestMultiplyStrategySelection:
    def test_q16_16_uses_limb_with_headroom(self):
        assert Q16_16.multiply_mode == "limb"
        assert Q16_16.multiply_guard_bits >= 8

    def test_narrow_format_uses_direct(self):
        assert FixedPointFormat(integer_bits=8, fractional_bits=8).multiply_mode == "direct"

    def test_wide_format_falls_back_to_reference(self):
        assert FixedPointFormat(integer_bits=30, fractional_bits=30).multiply_mode == "reference"

    def test_every_mode_has_documented_headroom(self):
        for fmt in EQUIVALENCE_FORMATS:
            if fmt.multiply_mode != "reference":
                assert fmt.multiply_guard_bits >= 1


class TestVectorizedMultiplyEquivalence:
    """The fast multiply paths are bit-identical to the big-integer reference."""

    @pytest.mark.parametrize("fmt", EQUIVALENCE_FORMATS, ids=str)
    def test_randomized_in_range_operands(self, fmt):
        rng = np.random.default_rng(99)
        a = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=2000)
        b = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=2000)
        np.testing.assert_array_equal(
            fmt.multiply(a, b), fmt.multiply_exact_reference(a, b)
        )

    @pytest.mark.parametrize("fmt", EQUIVALENCE_FORMATS, ids=str)
    def test_saturation_edge_grid(self, fmt):
        edges = _edge_raws(fmt)
        a, b = np.meshgrid(np.array(edges), np.array(edges))
        np.testing.assert_array_equal(
            fmt.multiply(a.ravel(), b.ravel()),
            fmt.multiply_exact_reference(a.ravel(), b.ravel()),
        )

    @pytest.mark.parametrize("fmt", EQUIVALENCE_FORMATS, ids=str)
    def test_guard_band_operands(self, fmt):
        """Exactness extends to the documented operand headroom (adder-tree sums)."""
        if fmt.multiply_mode == "reference":
            pytest.skip("reference mode is the oracle itself")
        guard = fmt.multiply_guard_bits
        limit = 1 << (fmt.word_length - 1 + guard)
        rng = np.random.default_rng(7)
        a = rng.integers(-limit, limit, size=2000)
        b = rng.integers(-limit, limit, size=2000)
        np.testing.assert_array_equal(
            fmt.multiply(a, b), fmt.multiply_exact_reference(a, b)
        )
        extremes = np.array([-limit, -limit + 1, limit - 1])
        for edge in extremes:
            np.testing.assert_array_equal(
                fmt.multiply(extremes, np.full_like(extremes, edge)),
                fmt.multiply_exact_reference(extremes, np.full_like(extremes, edge)),
            )

    def test_scalar_operand_split(self):
        """The scalar fast path (reciprocal multiplies) matches the reference."""
        rng = np.random.default_rng(5)
        sums = rng.integers(Q16_16.min_raw * 32, Q16_16.max_raw * 32, size=(50, 10, 2))
        for scalar in (0, 1, -1, 2048, -2048, Q16_16.max_raw, Q16_16.min_raw):
            np.testing.assert_array_equal(
                Q16_16.multiply(sums, np.int64(scalar)),
                Q16_16.multiply_exact_reference(sums, np.int64(scalar)),
            )

    def test_strict_overflow_raises_on_fast_path(self):
        big = np.array([Q16_16.max_raw])
        with pytest.raises(FixedPointOverflowError):
            Q16_16.multiply(big, big, strict=True)
        with pytest.raises(FixedPointOverflowError):
            Q16_16.multiply_exact_reference(big, big, strict=True)


class TestMacEquivalence:
    """multiply_accumulate (probe and static-bound paths) matches the reference."""

    def test_randomized_batches_match_reference(self):
        rng = np.random.default_rng(11)
        inputs = rng.integers(Q16_16.min_raw, Q16_16.max_raw + 1, size=(16, 40))
        weights = rng.integers(-(1 << 18), 1 << 18, size=40)
        bias = int(rng.integers(-(1 << 20), 1 << 20))
        np.testing.assert_array_equal(
            Q16_16.multiply_accumulate(inputs, weights, bias=bias),
            Q16_16.multiply_accumulate_exact_reference(inputs, weights, bias=bias),
        )

    def test_static_bound_path_matches_probe_path(self):
        rng = np.random.default_rng(12)
        inputs = rng.integers(Q16_16.min_raw, Q16_16.max_raw + 1, size=(8, 25))
        weights = rng.integers(-(1 << 17), 1 << 17, size=25)
        bound = Q16_16.mac_static_bound(weights)
        np.testing.assert_array_equal(
            Q16_16.multiply_accumulate(inputs, weights, static_bound=bound),
            Q16_16.multiply_accumulate(inputs, weights),
        )

    def test_saturating_inputs_match_reference(self):
        inputs = np.array([[Q16_16.max_raw] * 30, [Q16_16.min_raw] * 30])
        weights = np.full(30, Q16_16.max_raw, dtype=np.int64)
        np.testing.assert_array_equal(
            Q16_16.multiply_accumulate(inputs, weights),
            Q16_16.multiply_accumulate_exact_reference(inputs, weights),
        )

    def test_oversized_static_bound_falls_back_exactly(self):
        """A bound past the int64 margin must route to the exact big-int path."""
        rng = np.random.default_rng(13)
        inputs = rng.integers(Q16_16.min_raw, Q16_16.max_raw + 1, size=(4, 6))
        weights = rng.integers(-(1 << 16), 1 << 16, size=6)
        np.testing.assert_array_equal(
            Q16_16.multiply_accumulate(inputs, weights, static_bound=1 << 63),
            Q16_16.multiply_accumulate_exact_reference(inputs, weights),
        )

    def test_probe_reads_int64_min_as_a_positive_magnitude(self):
        """``np.abs(INT64_MIN)`` is INT64_MIN; a probe built on it bounds the
        accumulator negatively, takes the int64 path and wraps to 0."""
        inputs = [[-(2**63)]]
        expected = Q16_16.multiply_accumulate_exact_reference(inputs, [2])
        np.testing.assert_array_equal(expected, [Q16_16.min_raw])
        np.testing.assert_array_equal(Q16_16.multiply_accumulate(inputs, [2]), expected)

    def test_probe_reads_int32_min_of_narrow_operands(self):
        """int32 operands are read in place, so INT32_MIN reaches the probe
        unwidened: 2 * (-2**31)**2 = 2**63 must take the exact path."""
        inputs = np.full((1, 2), np.iinfo(np.int32).min, dtype=np.int32)
        weights = np.full(2, np.iinfo(np.int32).min, dtype=np.int32)
        expected = Q16_16.multiply_accumulate_exact_reference(inputs, weights)
        np.testing.assert_array_equal(expected, [Q16_16.max_raw])
        np.testing.assert_array_equal(Q16_16.multiply_accumulate(inputs, weights), expected)

    def test_static_bound_reads_int64_min_as_a_positive_magnitude(self):
        """The same defect in the static bound: a negative bound for an
        INT64_MIN weight would take the int64 path and wrap to 0."""
        weights = [-(2**63)]
        bound = Q16_16.mac_static_bound(weights)
        assert bound == 2**63 * 2**31
        expected = Q16_16.multiply_accumulate_exact_reference([[2]], weights)
        np.testing.assert_array_equal(expected, [Q16_16.min_raw])
        np.testing.assert_array_equal(
            Q16_16.multiply_accumulate([[2]], weights, static_bound=bound), expected
        )

    @pytest.mark.parametrize("inputs", [[[2**63]], [[-1, 2**63]]])
    def test_operands_outside_int64_raise_like_the_reference(self, inputs):
        """Python ints past int64 are refused, not wrapped, by the fast path
        and its oracle alike."""
        weights = [2] * len(inputs[0])
        with pytest.raises(OverflowError):
            Q16_16.multiply_accumulate_exact_reference(inputs, weights)
        with pytest.raises(OverflowError):
            Q16_16.multiply_accumulate(inputs, weights)

    def test_mac_static_bound_dominates_probe(self):
        """The static bound is a true upper bound for any in-range inputs."""
        rng = np.random.default_rng(14)
        weights = rng.integers(-(1 << 20), 1 << 20, size=33)
        bound = Q16_16.mac_static_bound(weights)
        inputs = rng.integers(Q16_16.min_raw, Q16_16.max_raw + 1, size=(64, 33))
        observed = np.abs(inputs.astype(object) * weights.astype(object)).sum(axis=1).max()
        assert int(observed) <= bound


@settings(max_examples=120, deadline=None)
@given(
    a=st.integers(Q16_16.min_raw, Q16_16.max_raw),
    b=st.integers(Q16_16.min_raw, Q16_16.max_raw),
)
def test_property_limb_multiply_bit_exact(a, b):
    """Property: the Q16.16 limb multiply equals the big-integer reference."""
    fast = Q16_16.multiply(np.array([a]), np.array([b]))
    exact = Q16_16.multiply_exact_reference(np.array([a]), np.array([b]))
    np.testing.assert_array_equal(fast, exact)
