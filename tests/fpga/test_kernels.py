"""Property tests: the carrier-reading kernels against their oracles.

The average layer's adder tree and the matched filter's MAC read the int32
carrier in place and form their sums and products in int64 inside the
kernel.  Each kernel is compared with two oracles:

* the int64 computation it replaced -- widen the trace to int64, then
  ``reduceat`` / the summing matmul / ``@``, exactly as the modules did
  before they read the carrier in place;
* the big-integer references (``multiply_accumulate_exact_reference``,
  ``multiply_exact_reference`` on object-array sums), on a subset of shots
  (shots are independent, so a subset pins the kernel as well as the whole
  batch would).

Carriers span the full word range with runs of the extreme values
(INT32_MIN/MAX for Q16.16), arrive as the strided ``payload[:, q]`` views
the engine hands each backend, and include int64 carriers of a 40-bit
format.  Windows of 1, 4, 5 and 32 samples, up to and past 64 windows, and
1, 31, 32, 1024 and 1025 shots pin every kernel of the adder tree and the
edges of its 128-shot slot blocks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fpga.fixed_point import FixedPointFormat, Q16_16
from repro.fpga.modules import AverageModule, MatchedFilterModule

#: A format wider than 32 bits: its carrier is int64, not int32.
Q20_20 = FixedPointFormat(integer_bits=20, fractional_bits=20)
FORMATS = {"q16_16": Q16_16, "q20_20": Q20_20}

#: Shots the exact (object-array) oracles check: the first and last 16.
EXACT_SHOTS = 16

#: One shot, a partial slot block either side of 32 shots, the 1024-shot
#: chunk (eight full slot blocks) and one past it (a 1-shot last block).
SHOTS = st.sampled_from([1, 31, 32, 1024, 1025])


def _carrier(fmt, shots, samples, seed, layout, qubits=2):
    """Full-range raw samples in ``fmt``'s carrier, with runs of both extremes.

    ``layout="strided"`` returns ``payload[:, 1]`` of a ``(shots, qubits,
    samples, 2)`` payload, as ``ReadoutEngine`` hands a backend its column.
    """
    rng = np.random.default_rng(seed)
    dtype = fmt.raw_carrier_dtype
    payload = rng.integers(
        fmt.min_raw, fmt.max_raw, size=(shots, qubits, samples, 2), endpoint=True, dtype=dtype
    )
    edges = rng.random(payload.shape) < 0.1
    payload[edges] = np.where(rng.random(int(edges.sum())) < 0.5, fmt.min_raw, fmt.max_raw)
    payload[0, :, : samples // 2] = fmt.min_raw  # one shot's windows sum to the extremes
    payload[-1, :, samples // 2 :] = fmt.max_raw
    view = payload[:, 1]
    return view if layout == "strided" else np.ascontiguousarray(view)


def _exact_rows(n_shots):
    """Row indices the big-integer oracles check."""
    if n_shots <= 2 * EXACT_SHOTS:
        return np.arange(n_shots)
    return np.r_[0:EXACT_SHOTS, n_shots - EXACT_SHOTS : n_shots]


# ----------------------------------------------------------- average layer
def _int64_average(module, trace):
    """The adder tree and scaling as they ran on a widened int64 trace."""
    fmt, window = module.fmt, module.samples_per_interval
    trace = np.asarray(trace, dtype=np.int64)
    n_shots, n_intervals = trace.shape[0], trace.shape[1] // window
    usable = n_intervals * window
    if n_intervals > 64:
        summing = np.zeros((2 * window, 2), dtype=np.int64)
        summing[0::2, 0] = 1
        summing[1::2, 1] = 1
        flat = trace[:, :usable, :].reshape(n_shots * n_intervals, -1)
        sums = (flat @ summing).reshape(n_shots, n_intervals, 2)
    else:
        sums = np.add.reduceat(trace[:, :usable, :], np.arange(0, usable, window), axis=1)
    return _scale(module, sums)


def _exact_average(module, trace):
    """Window sums as Python ints, scaled by the big-integer multiply."""
    window = module.samples_per_interval
    n_intervals = trace.shape[1] // window
    groups = trace[:, : n_intervals * window, :].reshape(trace.shape[0], n_intervals, window, 2)
    sums = groups.astype(object).sum(axis=2)
    if window == 1:
        return sums.astype(np.int64).reshape(trace.shape[0], -1)
    # |sum| <= window * 2**(w-1) < 2**62: the int64 view of the exact sums is exact.
    return module.fmt.multiply_exact_reference(
        sums.astype(np.int64), np.int64(module.reciprocal_raw)
    ).reshape(trace.shape[0], -1)


def _scale(module, sums):
    fmt = module.fmt
    if module.samples_per_interval == 1:
        averaged = sums
    elif module.samples_per_interval <= (1 << fmt.multiply_guard_bits):
        averaged = fmt.multiply(sums, np.int64(module.reciprocal_raw))
    else:
        averaged = fmt.multiply_exact_reference(sums, np.int64(module.reciprocal_raw))
    return averaged.reshape(averaged.shape[0], -1)


def _check_average(fmt_name, window, n_intervals, shots, tail, layout, seed):
    fmt = FORMATS[fmt_name]
    module = AverageModule(fmt, window, int(fmt.to_raw(1.0 / window)))
    tail %= window  # samples past the last full window, which the tree drops
    trace = _carrier(fmt, shots, n_intervals * window + tail, seed, layout)
    out = module.forward(trace)
    assert out.dtype == np.int64 and out.shape == (shots, 2 * n_intervals)
    np.testing.assert_array_equal(out, _int64_average(module, trace))
    rows = _exact_rows(shots)
    np.testing.assert_array_equal(out[rows], _exact_average(module, trace[rows]))


@settings(max_examples=25, deadline=None)
@given(
    fmt_name=st.sampled_from(sorted(FORMATS)),
    window=st.sampled_from([1, 4, 5, 32]),
    n_intervals=st.sampled_from([1, 10, 15, 64, 65, 100]),
    shots=SHOTS,
    tail=st.sampled_from([0, 3]),
    layout=st.sampled_from(["strided", "contiguous"]),
    seed=st.integers(0, 2**32 - 1),
)
# FNN-B (100 windows of 5) through the slot adds at every batch size.
@example("q16_16", 5, 100, 1, 0, "strided", 1)
@example("q16_16", 5, 100, 31, 0, "strided", 2)
@example("q16_16", 5, 100, 32, 0, "strided", 3)
@example("q16_16", 5, 100, 1024, 0, "strided", 4)
@example("q16_16", 5, 100, 1025, 0, "strided", 5)
# FNN-A (15 windows of 32, 20 samples left over) through reduceat.
@example("q16_16", 32, 15, 1025, 20, "strided", 6)
# One-sample windows past 64 intervals: no slots to add.
@example("q16_16", 1, 100, 31, 0, "strided", 7)
@example("q16_16", 1, 100, 1025, 0, "strided", 8)
# Wide slot adds (31 per channel) and exactly 64 windows (still reduceat).
@example("q16_16", 32, 65, 32, 0, "contiguous", 9)
@example("q16_16", 4, 64, 1025, 1, "strided", 10)
# int64 carriers of a 40-bit format, through the slot adds and reduceat.
@example("q20_20", 5, 100, 1025, 0, "strided", 11)
@example("q20_20", 5, 100, 31, 0, "contiguous", 12)
@example("q20_20", 32, 15, 32, 0, "strided", 13)
def test_average_matches_int64_and_exact_oracles(
    fmt_name, window, n_intervals, shots, tail, layout, seed
):
    if shots > 32 and window * n_intervals > 600:
        # Bound the carrier (and the test's time and memory): large batches
        # of long traces add nothing the 32-shot case and FNN-B do not.
        shots = 32
    _check_average(fmt_name, window, n_intervals, shots, tail, layout, seed)


# ---------------------------------------------------------- matched filter
def _int64_mac(fmt, window, envelope):
    """The MAC as it ran on a widened window: probe, then ``@`` or big ints."""
    window = np.asarray(window, dtype=np.int64)
    envelope = np.asarray(envelope, dtype=np.int64)
    bound = fmt.mac_static_bound(envelope)
    if bound >= 1 << 62:
        return fmt.multiply_accumulate_exact_reference(window, envelope)
    accumulator = window @ envelope
    accumulator >>= fmt.fractional_bits
    return np.clip(accumulator, fmt.min_raw, fmt.max_raw)


def _mf_tail(module, scores):
    return module.fmt.multiply_exact_reference(
        scores - module.threshold_raw, np.int64(module.scale_reciprocal_raw)
    )


@settings(max_examples=25, deadline=None)
@given(
    fmt_name=st.sampled_from(sorted(FORMATS)),
    n_envelope=st.sampled_from([1, 5, 32, 500]),
    tail=st.sampled_from([0, 7]),
    shots=SHOTS,
    envelope_bits=st.integers(1, 30),
    layout=st.sampled_from(["strided", "contiguous"]),
    seed=st.integers(0, 2**32 - 1),
)
@example("q16_16", 500, 0, 1024, 16, "strided", 1)
@example("q16_16", 500, 0, 1025, 16, "strided", 2)
@example("q16_16", 500, 0, 1, 16, "strided", 3)
# Envelope too large for the int64 margin: the exact fallback.
@example("q16_16", 32, 0, 31, 30, "strided", 4)
@example("q20_20", 500, 0, 1025, 10, "strided", 5)
def test_matched_filter_matches_int64_and_exact_oracles(
    fmt_name, n_envelope, tail, shots, envelope_bits, layout, seed
):
    fmt = FORMATS[fmt_name]
    rng = np.random.default_rng(seed)
    envelope = rng.integers(-(1 << envelope_bits), 1 << envelope_bits, size=(n_envelope, 2))
    module = MatchedFilterModule(fmt, envelope, int(rng.integers(-1000, 1000)), int(fmt.to_raw(0.4)))
    if module._mac_bound >= 1 << 62:
        shots = min(shots, 32)  # the exact fallback runs on Python ints
    trace = _carrier(fmt, shots, n_envelope + tail, seed, layout)
    out = module.forward(trace)
    window = np.asarray(trace[:, :n_envelope, :], dtype=np.int64).reshape(shots, -1)
    flat = envelope.reshape(-1)
    np.testing.assert_array_equal(out, _mf_tail(module, _int64_mac(fmt, window, flat)))
    rows = _exact_rows(shots)
    exact = fmt.multiply_accumulate_exact_reference(window[rows], flat)
    np.testing.assert_array_equal(out[rows], _mf_tail(module, exact))


# ------------------------------------------------------ multiply_accumulate
@settings(max_examples=40, deadline=None)
@given(
    fmt_name=st.sampled_from(sorted(FORMATS)),
    shots=SHOTS,
    n=st.sampled_from([1, 2, 64, 1000]),
    weight_bits=st.integers(0, 31),
    weights_int32=st.booleans(),
    static=st.booleans(),
    bias=st.integers(-(2**31), 2**31 - 1),
    seed=st.integers(0, 2**32 - 1),
)
# Full-range int32 weights against full-range int32 inputs: the exact path.
@example("q16_16", 31, 2, 31, True, False, 0, 1)
@example("q16_16", 1025, 64, 16, True, True, -5, 2)
@example("q16_16", 1, 1000, 16, False, False, 7, 3)
def test_multiply_accumulate_matches_int64_and_exact_oracles(
    fmt_name, shots, n, weight_bits, weights_int32, static, bias, seed
):
    fmt = FORMATS[fmt_name]
    rng = np.random.default_rng(seed)
    if shots > 32 and n > 64:
        shots = 32  # the 1024/1025-shot MAC is the MF case above
    inputs = _carrier(fmt, shots, (n + 1) // 2, seed, "strided").reshape(shots, -1)[:, :n]
    weight_dtype = np.int32 if weights_int32 else np.int64
    weights = rng.integers(
        -(1 << weight_bits), (1 << weight_bits) - 1, size=n, endpoint=True, dtype=weight_dtype
    )
    bound = fmt.mac_static_bound(weights) if static else None
    out = fmt.multiply_accumulate(inputs, weights, bias=bias, static_bound=bound)
    wide_inputs = np.asarray(inputs, dtype=np.int64)
    wide_weights = np.asarray(weights, dtype=np.int64)
    probe = (
        max(-int(wide_inputs.min()), int(wide_inputs.max()))
        * max(-int(wide_weights.min()), int(wide_weights.max()))
        * n
    )
    if (bound if static else probe) < 1 << 62:
        int64 = (wide_inputs @ wide_weights) >> fmt.fractional_bits
        int64 = np.clip(int64 + bias, fmt.min_raw, fmt.max_raw)
        np.testing.assert_array_equal(out, int64)
    rows = _exact_rows(shots)
    exact = fmt.multiply_accumulate_exact_reference(wide_inputs[rows], wide_weights, bias=bias)
    np.testing.assert_array_equal(out[rows], exact)
    single = fmt.multiply_accumulate(inputs[0], weights, bias=bias, static_bound=bound)
    assert np.ndim(single) == 0 and single == out[0]
