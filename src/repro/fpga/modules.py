"""Bit-accurate emulation of the programmable-logic datapath modules.

Each class mirrors one block of Fig. 3 of the paper and operates purely on
*raw* fixed-point integers, so the emulated arithmetic is exactly what a
Verilog implementation with the same word length would compute.  The two
blocks that read the raw trace (average and matched filter) take it in its
int32 carrier and widen inside their kernels; every other block works on
int64 arrays:

* :class:`AverageModule` -- the average layer: accumulate each group of
  samples in an adder tree, then scale by the reciprocal of the group size
  (a single multiply; a shift when the group size is a power of two).
* :class:`NormalizeModule` -- subtract the per-feature minimum and divide by
  the power-of-two standard deviation with an arithmetic shift.
* :class:`MatchedFilterModule` -- the MF feature: a MAC of the raw trace with
  the trained envelope, followed by offset subtraction and reciprocal scaling
  (the paper notes this block "reuses the same design as a fully connected
  layer").
* :class:`DenseLayerModule` -- one fully connected layer: per-neuron MAC with
  bias, optional ReLU implemented as a sign-bit check with overflow handling.
* :class:`ThresholdModule` -- the final decision: sign check of the output
  logit.
"""

from __future__ import annotations

import numpy as np

from repro.fpga.fixed_point import _INT64_SAFE_BITS, FixedPointFormat, _integer_carrier

__all__ = [
    "AverageModule",
    "NormalizeModule",
    "MatchedFilterModule",
    "DenseLayerModule",
    "ThresholdModule",
]

#: Interval count above which the adder tree stops using ``reduceat``, whose
#: per-segment overhead grows with the number of windows.
_MANY_INTERVALS = 64

#: Shots per slot-add block.  A block's int32 carrier (128 x 500 x 2 words,
#: 512 KB) and its int64 sums (200 KB) stay in a 2 MB L2 across the window's
#: slot adds.  One thread on a 2-vCPU Xeon VM, 1024 shots of 100 windows of
#: 5: 64-shot blocks 1.66 ms, 128-shot 1.52, 256-shot 1.64, unblocked 2.80.
#: End to end on the same VM, perfbench's offline_batch ran 4.2% faster than
#: with unblocked slot adds (median of 10 alternating 30 s pairs, 10 wins).
_SLOT_ADD_BLOCK = 128


def _as_raw_batch(raw: np.ndarray, expected_last: int | None = None) -> np.ndarray:
    raw = np.asarray(raw, dtype=np.int64)
    if raw.ndim == 1:
        raw = raw[None, :]
    if expected_last is not None and raw.shape[-1] != expected_last:
        raise ValueError(f"Expected {expected_last} values per shot, got {raw.shape[-1]}")
    return raw


class AverageModule:
    """Average groups of ``samples_per_interval`` raw I/Q samples.

    Parameters
    ----------
    fmt:
        Fixed-point format of the datapath.
    samples_per_interval:
        Group size (32 or 5 in the paper at the 2 ns sample period).
    reciprocal_raw:
        Raw fixed-point value of ``1 / samples_per_interval`` used for the
        scaling multiply.
    """

    def __init__(self, fmt: FixedPointFormat, samples_per_interval: int, reciprocal_raw: int) -> None:
        if samples_per_interval <= 0:
            raise ValueError(f"samples_per_interval must be positive, got {samples_per_interval}")
        # Adder-tree sums of S in-range samples reach S * 2**(w-1); bound S
        # statically so the int64 accumulation below can never wrap (for
        # Q16.16 this allows S up to 2**30 -- far beyond any real window).
        if samples_per_interval > (1 << (_INT64_SAFE_BITS - fmt.word_length)):
            raise ValueError(
                f"samples_per_interval {samples_per_interval} could overflow the "
                f"int64 adder tree for {fmt} (max {1 << (_INT64_SAFE_BITS - fmt.word_length)})"
            )
        self.fmt = fmt
        self.samples_per_interval = int(samples_per_interval)
        self.reciprocal_raw = int(reciprocal_raw)
        # Adder-tree sums exceed the representable range by up to
        # log2(samples_per_interval) bits; the fast multiply is only exact
        # within its static operand headroom, so decide once here whether the
        # scaling multiply may use it or must take the big-integer reference.
        self._scale_exactly = self.samples_per_interval <= (1 << fmt.multiply_guard_bits)
        self._boundary_cache: dict[int, np.ndarray] = {}

    def forward(self, trace_raw: np.ndarray) -> np.ndarray:
        """Average a batch of raw traces ``(n_shots, n_samples, 2)``.

        Returns raw averaged features flattened per shot as
        ``[I_0, Q_0, I_1, Q_1, ...]`` of length ``2 * n_intervals`` --
        the same ordering the float pipeline produces.

        ``trace_raw`` may arrive in a compact carrier dtype (int32 for
        32-bit formats) and is read in place.  The adder tree forms its sums
        in int64: ``reduceat`` with ``dtype=np.int64`` up to
        ``_MANY_INTERVALS`` windows, slot adds in ``_SLOT_ADD_BLOCK``-shot
        blocks beyond.  One-sample windows have no tree: their sums are the
        samples, widened to int64.
        """
        trace_raw = _integer_carrier(trace_raw)
        single = trace_raw.ndim == 2
        if single:
            trace_raw = trace_raw[None, ...]
        if trace_raw.ndim != 3 or trace_raw.shape[-1] != 2:
            raise ValueError(f"trace_raw must have shape (shots, samples, 2), got {trace_raw.shape}")
        n_samples = trace_raw.shape[1]
        n_intervals = n_samples // self.samples_per_interval
        if n_intervals == 0:
            raise ValueError(
                f"{n_samples}-sample trace cannot fill a {self.samples_per_interval}-sample window"
            )
        usable = n_intervals * self.samples_per_interval
        # Adder tree per group (both kernels are far faster than reducing the
        # strided window axis of a (shots, intervals, window, 2) view).
        # ``reduceat`` has per-segment overhead, so with many intervals the
        # sums come from slot adds.
        if self.samples_per_interval == 1:
            # No tree: a one-sample window's sum is its sample.
            sums = trace_raw[:, :usable, :].astype(np.int64)
        elif n_intervals <= _MANY_INTERVALS:
            # reduceat casts its int32 operand to int64 by copying it, inside
            # NumPy.  128-shot blocks kept that copy in L2 and cut
            # offline_batch peak RSS 6%, but cost 2.7% of its throughput
            # over 8 alternating pairs (more NumPy calls per backend call
            # in the engine's thread pool), so the tree runs in one call.
            boundaries = self._boundary_cache.get(usable)
            if boundaries is None:
                boundaries = np.arange(0, usable, self.samples_per_interval)
                self._boundary_cache[usable] = boundaries
            sums = np.add.reduceat(
                trace_raw[:, :usable, :], boundaries, axis=1, dtype=np.int64
            )
        else:
            sums = self._slot_sums(trace_raw[:, :usable, :], n_intervals)
        if self.samples_per_interval == 1:
            averaged = sums
        elif self._scale_exactly:
            averaged = self.fmt.multiply(sums, np.int64(self.reciprocal_raw))
        else:
            averaged = self.fmt.multiply_exact_reference(sums, np.int64(self.reciprocal_raw))
        flat = averaged.reshape(averaged.shape[0], -1)
        return flat[0] if single else flat

    def _slot_sums(self, trace_raw: np.ndarray, n_intervals: int) -> np.ndarray:
        """Adder-tree sums ``(shots, intervals, 2)`` as int64 slot adds, per block.

        Slot ``k`` of every window is one strided view of the carrier; each
        channel's window sums are its slots added in turn, widening to int64
        inside the add.  Per-channel views run the add's inner loop one
        window per element, where an ``(intervals, 2)`` view would run it two
        elements long.  Needs two or more slots.
        """
        n_shots = trace_raw.shape[0]
        window = self.samples_per_interval
        slots = trace_raw.reshape(n_shots, n_intervals, window, 2)
        sums = np.empty((n_shots, n_intervals, 2), dtype=np.int64)
        for start in range(0, n_shots, _SLOT_ADD_BLOCK):
            stop = start + _SLOT_ADD_BLOCK
            block = slots[start:stop]
            for channel in (0, 1):
                acc = sums[start:stop, :, channel]
                np.add(block[:, :, 0, channel], block[:, :, 1, channel], out=acc, dtype=np.int64)
                for slot in range(2, window):
                    acc += block[:, :, slot, channel]
        return sums


class NormalizeModule:
    """Shift-based normalization ``(x - x_min) >> shift_bits``.

    Negative shift amounts (standard deviations below 1.0) are applied as
    left shifts, with saturation to the word length.
    """

    def __init__(self, fmt: FixedPointFormat, minimum_raw: np.ndarray, shift_bits: np.ndarray) -> None:
        minimum_raw = np.asarray(minimum_raw, dtype=np.int64)
        shift_bits = np.asarray(shift_bits, dtype=np.int64)
        if minimum_raw.shape != shift_bits.shape:
            raise ValueError(
                f"minimum_raw {minimum_raw.shape} and shift_bits {shift_bits.shape} disagree"
            )
        self.fmt = fmt
        self.minimum_raw = minimum_raw
        self.shift_bits = shift_bits
        # Split the per-feature shifts once: right shifts apply in one
        # broadcast pass over the whole batch; the (usually few) left-shift
        # columns are patched in afterwards with saturation.
        self._right_shift = np.maximum(shift_bits, 0)
        self._left_columns = np.flatnonzero(shift_bits < 0)
        self._left_shift = -shift_bits[self._left_columns]
        # Centered values reach 2**word_length (feature minus minimum); bound
        # the left shift statically so the int64 shift below saturates via
        # np.clip instead of silently wrapping first.
        max_left = _INT64_SAFE_BITS - (fmt.word_length + 1)
        if self._left_shift.size and int(self._left_shift.max()) > max_left:
            raise ValueError(
                f"left shift of {int(self._left_shift.max())} bits could wrap the "
                f"int64 intermediate for {fmt} (max {max_left})"
            )

    def forward(self, features_raw: np.ndarray) -> np.ndarray:
        """Normalize a batch of raw feature vectors ``(n_shots, n_features)``."""
        features_raw = _as_raw_batch(features_raw, self.minimum_raw.shape[0])
        centered = features_raw - self.minimum_raw[None, :]
        left = self._left_columns
        if left.size:
            shifted = centered[:, left] << self._left_shift[None, :]
            patched = np.clip(shifted, self.fmt.min_raw, self.fmt.max_raw)
        centered >>= self._right_shift[None, :]
        if left.size:
            centered[:, left] = patched
        return centered


class MatchedFilterModule:
    """The matched-filter feature block (a wide MAC plus offset/scale).

    Computes ``((trace . envelope) - threshold) * scale_reciprocal`` on raw
    values; the result is the single scalar appended to the averaged I/Q
    features.
    """

    def __init__(
        self,
        fmt: FixedPointFormat,
        envelope_raw: np.ndarray,
        threshold_raw: int,
        scale_reciprocal_raw: int,
    ) -> None:
        envelope_raw = np.asarray(envelope_raw, dtype=np.int64)
        if envelope_raw.ndim != 2 or envelope_raw.shape[1] != 2:
            raise ValueError(f"envelope_raw must have shape (n_samples, 2), got {envelope_raw.shape}")
        self.fmt = fmt
        self.envelope_raw = envelope_raw
        self.threshold_raw = int(threshold_raw)
        self.scale_reciprocal_raw = int(scale_reciprocal_raw)
        # The envelope is fixed, so the worst-case accumulator magnitude over
        # all in-range traces is known now; forward() never re-probes inputs.
        self._mac_bound = fmt.mac_static_bound(envelope_raw.reshape(-1))

    def forward(self, trace_raw: np.ndarray) -> np.ndarray:
        """MF scalar (raw) for a batch of raw traces ``(n_shots, n_samples, 2)``.

        Like the average layer, reads a compact int32 carrier in place: the
        window handed to the MAC is an int32 view, which
        :meth:`~repro.fpga.fixed_point.FixedPointFormat.multiply_accumulate`
        widens inside its int64 ``einsum``.
        """
        trace_raw = _integer_carrier(trace_raw)
        single = trace_raw.ndim == 2
        if single:
            trace_raw = trace_raw[None, ...]
        n_envelope = self.envelope_raw.shape[0]
        if trace_raw.shape[1] < n_envelope:
            raise ValueError(
                f"Trace has {trace_raw.shape[1]} samples but the envelope needs {n_envelope}"
            )
        window = trace_raw[:, :n_envelope, :].reshape(trace_raw.shape[0], -1)
        flat_envelope = self.envelope_raw.reshape(-1)
        scores = self.fmt.multiply_accumulate(
            window, flat_envelope, static_bound=self._mac_bound
        )
        scores -= self.threshold_raw
        scaled = self.fmt.multiply(scores, np.int64(self.scale_reciprocal_raw))
        return scaled[0] if single else scaled


class DenseLayerModule:
    """One fully connected layer with optional ReLU.

    Every neuron performs a MAC over the layer input plus its bias; the ReLU
    is a sign-bit check (negative accumulators become zero) and overflow is
    handled by saturation, as described in Sec. IV.

    The weights are fixed at construction, so the worst-case accumulator
    magnitude over all in-range inputs is computed once here.  When it fits
    the int64 safety margin (it always does for the paper's Q16.16 networks),
    :meth:`forward` is a single batched int64 matmul with a guaranteed-exact
    wide accumulator; otherwise the whole layer (not individual neurons)
    falls back to the exact big-integer MAC.
    """

    def __init__(
        self,
        fmt: FixedPointFormat,
        weights_raw: np.ndarray,
        biases_raw: np.ndarray,
        relu: bool = True,
    ) -> None:
        weights_raw = np.asarray(weights_raw, dtype=np.int64)
        biases_raw = np.asarray(biases_raw, dtype=np.int64)
        if weights_raw.ndim != 2:
            raise ValueError(f"weights_raw must be 2-D (inputs, neurons), got {weights_raw.shape}")
        if biases_raw.shape != (weights_raw.shape[1],):
            raise ValueError(
                f"biases_raw shape {biases_raw.shape} does not match {weights_raw.shape[1]} neurons"
            )
        self.fmt = fmt
        self.weights_raw = weights_raw
        self.biases_raw = biases_raw
        self.relu = bool(relu)
        per_neuron_bounds = [
            fmt.mac_static_bound(weights_raw[:, neuron])
            for neuron in range(weights_raw.shape[1])
        ]
        self._mac_bound = max(per_neuron_bounds) if per_neuron_bounds else 0
        self._vectorized = self._mac_bound < (1 << _INT64_SAFE_BITS)

    @property
    def n_inputs(self) -> int:
        """Fan-in of each neuron."""
        return int(self.weights_raw.shape[0])

    @property
    def n_neurons(self) -> int:
        """Number of parallel neurons in the layer."""
        return int(self.weights_raw.shape[1])

    def forward(self, inputs_raw: np.ndarray) -> np.ndarray:
        """Layer output (raw) for a batch of raw inputs ``(n_shots, n_inputs)``."""
        inputs_raw = _as_raw_batch(inputs_raw, self.n_inputs)
        if self._vectorized:
            # Exact: every partial sum of the int64 matmul is bounded by the
            # static per-neuron accumulator bound, which fits well below 2**62.
            # All post-processing happens in place on the accumulator buffer.
            outputs = inputs_raw @ self.weights_raw
            outputs >>= self.fmt.fractional_bits
            outputs += self.biases_raw[None, :]
            np.clip(outputs, self.fmt.min_raw, self.fmt.max_raw, out=outputs)
        else:
            outputs = np.empty((inputs_raw.shape[0], self.n_neurons), dtype=np.int64)
            for neuron in range(self.n_neurons):
                outputs[:, neuron] = self.fmt.multiply_accumulate_exact_reference(
                    inputs_raw, self.weights_raw[:, neuron], bias=int(self.biases_raw[neuron])
                )
        if self.relu:
            np.maximum(outputs, 0, out=outputs)
        return outputs


class ThresholdModule:
    """Final decision: state 1 if the output logit is non-negative."""

    def forward(self, logits_raw: np.ndarray) -> np.ndarray:
        """Hard 0/1 assignment from raw logits."""
        logits_raw = np.asarray(logits_raw, dtype=np.int64)
        return (logits_raw >= 0).astype(np.int64)
