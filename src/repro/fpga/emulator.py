"""Bit-accurate FPGA inference emulator for the student networks.

:class:`FpgaStudentEmulator` chains the datapath modules of
:mod:`repro.fpga.modules` exactly as Fig. 3 of the paper does:

    raw trace -> [Average -> Normalize] + [Matched Filter] -> concat
              -> Dense(16)+ReLU -> Dense(8)+ReLU -> Dense(1) -> Threshold

Everything after the ADC is integer arithmetic in the configured fixed-point
format, so the emulator answers the question the hardware section of the
paper answers empirically: does Q16.16 inference reproduce the floating-point
student's decisions (and hence its fidelity)?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.student import StudentModel
from repro.fpga.fixed_point import FixedPointFormat, Q16_16
from repro.fpga.modules import (
    AverageModule,
    DenseLayerModule,
    MatchedFilterModule,
    NormalizeModule,
    ThresholdModule,
)
from repro.fpga.quantize import QuantizedStudentParameters, quantize_student
from repro.nn.metrics import assignment_fidelity

__all__ = ["FpgaStudentEmulator", "AgreementReport"]

#: Shots per internal datapath block.  Large batches are evaluated in chunks
#: of this size so every intermediate array stays cache- and allocator-
#: friendly (big-batch throughput otherwise degrades superlinearly).  Shots
#: are independent, so chunked evaluation is bit-identical to one-shot calls.
_BATCH_CHUNK = 1024


@dataclass
class AgreementReport:
    """Comparison between the float student and its fixed-point emulation."""

    n_shots: int
    agreement: float
    float_fidelity: float
    fixed_fidelity: float
    max_logit_error: float

    def as_dict(self) -> dict:
        """Plain-dict view for JSON reports."""
        return {
            "n_shots": self.n_shots,
            "agreement": self.agreement,
            "float_fidelity": self.float_fidelity,
            "fixed_fidelity": self.fixed_fidelity,
            "max_logit_error": self.max_logit_error,
        }


class FpgaStudentEmulator:
    """Runs a quantized student network exactly as the PL datapath would.

    Parameters
    ----------
    parameters:
        Quantized constants produced by :func:`repro.fpga.quantize.quantize_student`.
    """

    def __init__(self, parameters: QuantizedStudentParameters) -> None:
        self.parameters = parameters
        fmt = parameters.fmt
        self.fmt = fmt
        # Raw traces are *stored* in the narrowest dtype that holds the word
        # length (int32 for Q16.16), halving the memory traffic of the two
        # bandwidth-bound passes (adder tree + MF MAC).  Both read the carrier
        # in place and form products and sums in int64 inside the kernel
        # (einsum / reduceat / slot adds with an int64 dtype), so results are
        # bit-identical to an all-int64 carrier.  The MF and the slot adds
        # never copy a trace to int64; reduceat does inside NumPy, and
        # one-sample windows take their widened samples as their sums.
        self.carrier_dtype = fmt.raw_carrier_dtype
        # An int32 carrier of a 32-bit word cannot hold an out-of-range value,
        # so saturation of already-int32 inputs is a no-op we can skip.
        self._carrier_is_exact = (
            self.carrier_dtype == np.dtype(np.int32) and fmt.word_length == 32
        )
        self.average = AverageModule(
            fmt, parameters.samples_per_interval, parameters.average_reciprocal_raw
        )
        self.normalize = NormalizeModule(fmt, parameters.norm_minimum, parameters.norm_shift_bits)
        if parameters.include_matched_filter:
            self.matched_filter = MatchedFilterModule(
                fmt,
                parameters.mf_envelope,
                parameters.mf_threshold_raw,
                parameters.mf_scale_reciprocal_raw,
            )
        else:
            self.matched_filter = None
        self.layers = []
        n_layers = parameters.n_layers
        for index, (weights, biases) in enumerate(
            zip(parameters.layer_weights, parameters.layer_biases)
        ):
            relu = index < n_layers - 1
            self.layers.append(DenseLayerModule(fmt, weights, biases, relu=relu))
        self.threshold = ThresholdModule()

    @classmethod
    def from_student(
        cls, student: StudentModel, fmt: FixedPointFormat = Q16_16
    ) -> "FpgaStudentEmulator":
        """Quantize a trained student and build its emulator in one step."""
        return cls(quantize_student(student, fmt))

    # ---------------------------------------------------------------- datapath
    def _saturate_input(self, trace_raw: np.ndarray) -> np.ndarray:
        """Saturate externally supplied raw traces to the word length.

        Exactly what the ADC capture register does; the engine's exactness
        guarantees -- and the hardware being modelled -- assume in-range raw
        samples, so without this absurd int64 inputs could wrap instead of
        saturating.  Internal paths whose values come from ``to_raw`` (which
        already saturates) skip it.  The result is returned in the compact
        carrier dtype (int32 for word lengths up to 32 bits); int32 inputs to
        a 32-bit datapath are in range by construction and pass through
        untouched.
        """
        trace_raw = np.asarray(trace_raw)
        if trace_raw.dtype == np.dtype(np.int32) and self._carrier_is_exact:
            return trace_raw
        trace_raw = np.asarray(trace_raw, dtype=np.int64)
        clipped = np.clip(trace_raw, self.fmt.min_raw, self.fmt.max_raw)
        return clipped.astype(self.carrier_dtype, copy=False)

    def features_from_raw(self, trace_raw: np.ndarray) -> np.ndarray:
        """Raw student input vectors from already-digitized raw traces.

        This is the integer-only part of the pipeline -- everything after the
        ADC -- and the entry point the throughput benchmark times.  Inputs
        are saturated to the word length first (see :meth:`_saturate_input`).
        """
        return self._features_trusted(self._saturate_input(trace_raw))

    def _features_trusted(self, trace_raw: np.ndarray) -> np.ndarray:
        single = trace_raw.ndim == 2
        if single:
            trace_raw = trace_raw[None, ...]
        averaged = self.average.forward(trace_raw)
        normalized = self.normalize.forward(averaged)
        blocks = [normalized]
        if self.matched_filter is not None:
            mf = self.matched_filter.forward(trace_raw)
            blocks.append(np.asarray(mf, dtype=np.int64).reshape(-1, 1))
        features = np.concatenate(blocks, axis=1)
        return features[0] if single else features

    def _digitize(self, traces: np.ndarray) -> np.ndarray:
        """ADC conversion into the compact raw carrier (already saturated).

        Delegates to the one shared definition of the ADC step so a capture
        pipeline that digitizes once and serves raw carriers is bit-identical
        to this emulator digitizing internally by construction.
        """
        from repro.readout.preprocessing import digitize_traces

        return digitize_traces(traces, fmt=self.fmt)

    def features_raw(self, traces: np.ndarray) -> np.ndarray:
        """Raw fixed-point student input vectors (averaged+normalized I/Q, MF)."""
        traces = np.asarray(traces, dtype=np.float64)
        return self._features_trusted(self._digitize(traces))

    def _predict_chunk_trusted(self, trace_raw: np.ndarray) -> np.ndarray:
        features = self._features_trusted(trace_raw)
        if features.ndim == 1:
            features = features[None, :]
        activations = features
        for layer in self.layers:
            activations = layer.forward(activations)
        return activations.reshape(-1)

    def _predict_chunked(self, traces, convert) -> np.ndarray:
        """Run the datapath chunk by chunk; ``convert`` digitizes each chunk.

        Bit-identical to a single whole-batch call -- shots are independent
        and the output buffer is sized from the final layer's width, so
        multi-output networks flatten exactly as the unchunked path does.
        """
        n_shots = traces.shape[0] if traces.ndim == 3 else 1
        if n_shots <= _BATCH_CHUNK:
            return self._predict_chunk_trusted(convert(traces))
        n_outputs = self.layers[-1].n_neurons if self.layers else 1
        logits = np.empty(n_shots * n_outputs, dtype=np.int64)
        for start in range(0, n_shots, _BATCH_CHUNK):
            stop = min(start + _BATCH_CHUNK, n_shots)
            logits[start * n_outputs : stop * n_outputs] = self._predict_chunk_trusted(
                convert(traces[start:stop])
            )
        return logits

    def predict_logits_from_raw(self, trace_raw: np.ndarray) -> np.ndarray:
        """Raw output logits from already-digitized raw traces (integer-only).

        Accepts int32 or int64 carriers (int32 is the recommended storage for
        Q16.16: raw samples fit it exactly and it halves the memory traffic of
        the adder-tree and MF-MAC passes); both produce bit-identical logits.
        Batches larger than the internal block size are processed chunk by
        chunk; the result is bit-identical either way.
        """
        trace_raw = np.asarray(trace_raw)
        if trace_raw.dtype.kind != "i":
            trace_raw = trace_raw.astype(np.int64)
        return self._predict_chunked(trace_raw, self._saturate_input)

    def predict_logits_raw(self, traces: np.ndarray) -> np.ndarray:
        """Raw fixed-point output logits for a batch of traces.

        The float-to-raw ADC conversion is chunked together with the datapath
        so large batches never materialize a full-size temporary.
        """
        traces = np.asarray(traces, dtype=np.float64)
        return self._predict_chunked(traces, self._digitize)

    def predict_logits(self, traces: np.ndarray) -> np.ndarray:
        """Output logits converted back to real values (for comparison plots)."""
        return self.fmt.from_raw(self.predict_logits_raw(traces))

    def predict_states(self, traces: np.ndarray) -> np.ndarray:
        """Hard 0/1 assignments from the fixed-point datapath."""
        return self.threshold.forward(self.predict_logits_raw(traces))

    def fidelity(self, traces: np.ndarray, labels: np.ndarray) -> float:
        """Assignment fidelity of the emulated hardware on a labelled set."""
        return assignment_fidelity(self.predict_states(traces), labels, threshold=0.5)

    # -------------------------------------------------------------- comparison
    def agreement_with_float(
        self, student: StudentModel, traces: np.ndarray, labels: np.ndarray | None = None
    ) -> AgreementReport:
        """Compare the emulator's decisions with the float student's.

        Parameters
        ----------
        student:
            The float model the emulator was quantized from.
        traces:
            Evaluation traces ``(n_shots, n_samples, 2)``.
        labels:
            Optional ground-truth states; if given, both fidelities are
            reported (otherwise they are NaN and only the agreement matters).
        """
        float_logits = student.predict_logits(traces)
        fixed_logits = self.predict_logits(traces)
        float_states = (float_logits >= 0.0).astype(np.int64)
        fixed_states = (fixed_logits >= 0.0).astype(np.int64)
        agreement = float(np.mean(float_states == fixed_states))
        if labels is not None:
            float_fidelity = assignment_fidelity(float_logits, labels, threshold=0.0)
            fixed_fidelity = assignment_fidelity(fixed_logits, labels, threshold=0.0)
        else:
            float_fidelity = float("nan")
            fixed_fidelity = float("nan")
        return AgreementReport(
            n_shots=int(traces.shape[0]),
            agreement=agreement,
            float_fidelity=float(float_fidelity),
            fixed_fidelity=float(fixed_fidelity),
            max_logit_error=float(np.max(np.abs(float_logits - fixed_logits))),
        )
