"""Request/response types of the unified serving API.

Every way of asking the readout system a question used to be its own engine
method -- ``discriminate``/``predict_logits`` crossed with single/all qubits
and float/raw carriers gave eight near-duplicate entry points, each with its
own validation and fan-out.  A :class:`ReadoutRequest` collapses that grid
into data:

* **carrier** -- exactly one of ``traces`` (float I/Q) or ``raw``
  (already-digitized int32/int64 ADC samples),
* **scope** -- ``qubits=None`` for every qubit, or an explicit tuple of
  qubit indices for a subset (single-qubit mid-circuit readout is
  ``qubits=(q,)``),
* **question** -- ``output="states"`` (hard 0/1 assignments), ``"logits"``
  (float logits), or ``"both"``,
* **capability opt-ins** -- ``dequantize``/``fmt`` for serving raw carriers
  through float backends, exactly as on the legacy raw entry points.

:meth:`repro.engine.engine.ReadoutEngine.serve` is the one entry point that
consumes a request; :class:`ReadoutResult` is what comes back (per-qubit
arrays plus timing metadata).  The same request object travels unchanged
through :class:`repro.service.ReadoutService`, which micro-batches and
shards requests without changing their meaning.

This module is also the **single error-message path** for carrier
validation: every serving surface (``serve()`` itself, the engine's
single-qubit adapter, the service front-end) raises shape and dtype errors
built by the helpers below, so a single-qubit batch and a multiplexed batch always report
the expected vs. actual shape in the same format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fpga.fixed_point import FixedPointFormat

__all__ = [
    "OUTPUT_KINDS",
    "PRIORITY_CLASSES",
    "ReadoutRequest",
    "ReadoutResult",
    "multiplexed_shape_error",
    "single_trace_shape_error",
    "integer_carrier_error",
    "validate_multiplexed_payload",
]

#: Valid ``ReadoutRequest.output`` selectors.
OUTPUT_KINDS = ("states", "logits", "both")

#: Valid ``ReadoutRequest.priority`` classes, highest first.  ``"feedback"``
#: is mid-circuit feedback traffic -- it preempts ``"bulk"`` (re-analysis,
#: offline sweeps) in the service's micro-batch queue ordering.  Priority
#: never changes *what* is computed, only *when* a queued request dispatches.
PRIORITY_CLASSES = ("feedback", "bulk")


# --------------------------------------------------------------------------
# The shared error path.  One formatter per failure mode; every serving
# surface raises through these so the messages cannot drift apart again.
# --------------------------------------------------------------------------


def _carrier_noun(raw: bool) -> str:
    return "raw traces" if raw else "traces"


def multiplexed_shape_error(n_qubits: int, shape: tuple, raw: bool = False) -> ValueError:
    """A multiplexed batch did not have shape ``(shots, n_qubits, samples, 2)``."""
    return ValueError(
        f"{_carrier_noun(raw)} must have shape (shots, {n_qubits}, samples, 2), "
        f"got {tuple(shape)}"
    )


def single_trace_shape_error(shape: tuple, raw: bool = False) -> ValueError:
    """A single-qubit batch did not have shape ``(shots, samples, 2)``/``(samples, 2)``."""
    return ValueError(
        f"{_carrier_noun(raw)} must have shape (shots, samples, 2) or (samples, 2), "
        f"got {tuple(shape)}"
    )


def validate_multiplexed_payload(
    payload: np.ndarray, n_selected: int, raw: bool
) -> None:
    """Require a ``(shots, n_selected, samples, 2)`` carrier batch.

    The one shape predicate every multiplexed serving surface applies --
    ``ReadoutEngine.serve`` (both carrier kinds) and the service front-end --
    so the accepted shapes and the error text cannot drift apart.
    """
    if payload.ndim != 4 or payload.shape[1] != n_selected or payload.shape[-1] != 2:
        raise multiplexed_shape_error(n_selected, payload.shape, raw=raw)


def integer_carrier_error(dtype: np.dtype) -> TypeError:
    """A raw carrier was not a signed integer array."""
    return TypeError(
        "raw traces must be a signed integer array (int32/int64 ADC "
        f"samples), got dtype {dtype}; use the float-trace "
        "entry points for undigitized data"
    )


# --------------------------------------------------------------------------
# Request / result
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReadoutRequest:
    """One readout question, independent of how it is dispatched.

    Parameters
    ----------
    traces:
        Float I/Q batch ``(shots, n_selected, samples, 2)`` where
        ``n_selected`` matches ``qubits`` (all engine qubits when ``qubits``
        is ``None``).  Mutually exclusive with ``raw``.
    raw:
        Already-digitized int32/int64 ADC carriers of the same shape -- the
        form the hardware datapath actually consumes.  Mutually exclusive
        with ``traces``.
    qubits:
        ``None`` to read out every qubit, or a tuple of distinct qubit
        indices selecting (and ordering) the served columns.
    output:
        ``"states"``, ``"logits"``, or ``"both"``.
    dequantize:
        Raw carriers only: opt a non-raw-capable (float) backend into an
        explicit float fallback instead of failing loudly.
    fmt:
        Raw carriers only: the fixed-point format the carriers were
        digitized in (validated against each backend's format).
    priority:
        Scheduling class (:data:`PRIORITY_CLASSES`): ``"feedback"``
        requests preempt ``"bulk"`` ones in the service's micro-batch
        queue.  Ignored by direct ``engine.serve()`` (there is no queue)
        and by every dispatch once the request leaves the queue -- the
        served arrays are identical either way.

    The dataclass is frozen -- a request is a value that can be hashed by
    identity, shipped across threads and processes, and re-dispatched --
    though the carried arrays themselves are (as always in NumPy) views the
    caller must not mutate mid-flight.
    """

    traces: np.ndarray | None = None
    raw: np.ndarray | None = None
    qubits: tuple[int, ...] | None = None
    output: str = "states"
    dequantize: bool = False
    fmt: FixedPointFormat | None = None
    priority: str = "bulk"

    def __post_init__(self) -> None:
        if (self.traces is None) == (self.raw is None):
            raise ValueError(
                "ReadoutRequest takes exactly one carrier: pass traces= (float "
                "I/Q) or raw= (integer ADC samples)"
            )
        if self.output not in OUTPUT_KINDS:
            raise ValueError(
                f"output must be one of {OUTPUT_KINDS}, got {self.output!r}"
            )
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {PRIORITY_CLASSES}, "
                f"got {self.priority!r}"
            )
        if self.traces is not None:
            object.__setattr__(self, "traces", np.asarray(self.traces))
            if self.dequantize or self.fmt is not None:
                raise ValueError(
                    "dequantize/fmt describe raw integer carriers; a float-trace "
                    "request never needs them"
                )
        else:
            raw = np.asarray(self.raw)
            if raw.dtype.kind != "i":
                raise integer_carrier_error(raw.dtype)
            object.__setattr__(self, "raw", raw)
        if self.qubits is not None:
            qubits = tuple(int(q) for q in self.qubits)
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"qubits contains duplicate indices: {qubits}")
            if not qubits:
                raise ValueError("qubits must select at least one qubit (or be None)")
            object.__setattr__(self, "qubits", qubits)

    # ------------------------------------------------------------- accessors
    @property
    def is_raw(self) -> bool:
        """Whether the carrier is already-digitized integer samples."""
        return self.raw is not None

    @property
    def payload(self) -> np.ndarray:
        """The carried array, whichever kind it is."""
        return self.raw if self.raw is not None else self.traces

    def with_payload(
        self, payload: np.ndarray, qubits: tuple[int, ...] | None = None
    ) -> "ReadoutRequest":
        """A copy of this request carrying ``payload`` (and optionally ``qubits``).

        Used by the service front-end to coalesce compatible requests into a
        micro-batch and to split a multiplexed request across qubit shards --
        the question (output kind, capability opt-ins) is preserved verbatim.
        """
        kwargs = dict(
            qubits=self.qubits if qubits is None else qubits,
            output=self.output,
            dequantize=self.dequantize,
            fmt=self.fmt,
            priority=self.priority,
        )
        if self.is_raw:
            return ReadoutRequest(raw=payload, **kwargs)
        return ReadoutRequest(traces=payload, **kwargs)


@dataclass(frozen=True, eq=False)
class ReadoutResult:
    """The answer to one :class:`ReadoutRequest`.

    ``states``/``logits`` are ``(n_shots, n_selected)`` arrays whose columns
    follow ``qubits`` order; whichever the request's ``output`` did not ask
    for is ``None``.  ``elapsed_s`` is the wall-clock serving time measured
    inside the dispatch path (for micro-batched requests: the shared batch
    call), and ``meta`` records how the request was served (micro-batch
    size, shard count) without affecting the arrays.
    """

    qubits: tuple[int, ...]
    output: str
    states: np.ndarray | None
    logits: np.ndarray | None
    n_shots: int
    elapsed_s: float
    meta: dict = field(default_factory=dict)

    @property
    def n_qubits(self) -> int:
        """Number of served qubit columns."""
        return len(self.qubits)

    def _column(self, arrays: np.ndarray | None, qubit_index: int, name: str) -> np.ndarray:
        if arrays is None:
            raise ValueError(
                f"This result carries no {name} (request output was {self.output!r})"
            )
        try:
            column = self.qubits.index(qubit_index)
        except ValueError:
            raise KeyError(
                f"qubit {qubit_index} was not served (result covers {self.qubits})"
            ) from None
        return arrays[:, column]

    def states_for(self, qubit_index: int) -> np.ndarray:
        """The served state column for one qubit index."""
        return self._column(self.states, qubit_index, "states")

    def logits_for(self, qubit_index: int) -> np.ndarray:
        """The served logit column for one qubit index."""
        return self._column(self.logits, qubit_index, "logits")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReadoutResult(output={self.output!r}, n_shots={self.n_shots}, "
            f"qubits={self.qubits}, elapsed_s={self.elapsed_s:.6f})"
        )
