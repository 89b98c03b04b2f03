"""The unified readout serving layer.

This package is the single inference surface of the reproduction -- the API
everything downstream of training talks to:

* :mod:`repro.engine.request` -- :class:`ReadoutRequest` (float ``traces``
  or integer ``raw`` carrier, qubit subset, states/logits/both) and
  :class:`ReadoutResult` (per-qubit arrays + timing metadata): the request
  objects every serving surface speaks.
* :mod:`repro.engine.backends` -- the :class:`ReadoutBackend` protocol and
  its two first-class implementations, :class:`FloatStudentBackend` (the
  float64 student network) and :class:`FixedPointBackend` (the bit-exact
  Q16.16 integer datapath), selected everywhere by the strings ``"float"`` /
  ``"fpga"``.
* :mod:`repro.engine.engine` -- :class:`ReadoutEngine`, one backend per
  qubit with :meth:`~ReadoutEngine.serve` as the single dispatch path
  (validate once, route float vs. raw, fan selected qubits out across a
  thread pool with a bit-identical sequential fallback).
* :mod:`repro.engine.bundle` -- persisted artifact bundles
  (``manifest.json`` + per-qubit student and quantized-parameter files with
  SHA-256 checksums and shard-layout hints) so a trained system deploys as
  a directory.
* :mod:`repro.engine.wire` -- the versioned, length-prefixed binary codec
  every serving boundary speaks: requests/results round-trip bit-exactly
  over a TCP socket and remote errors re-raise with local types
  (:mod:`repro.service`).

For traffic-level concerns -- micro-batching many small concurrent requests
and sharding qubit groups across readout servers -- see
:class:`repro.service.ReadoutService`, which consumes the same request
objects.

The typical flow::

    readout = KlinqReadout(config)
    readout.fit(dataset)
    engine = readout.to_engine(backend="fpga")   # or "float"
    engine.save("artifacts/readout-v1")
    ...
    engine = ReadoutEngine.load("artifacts/readout-v1")
    result = engine.serve(ReadoutRequest(traces=traces, output="both"))
    result.states                                # (shots, qubits)
"""

from repro.engine.backends import (
    BACKEND_KINDS,
    FixedPointBackend,
    FloatStudentBackend,
    ReadoutBackend,
    make_backend,
    states_from_logits,
)
from repro.engine.request import (
    OUTPUT_KINDS,
    PRIORITY_CLASSES,
    ReadoutRequest,
    ReadoutResult,
)
from repro.engine.engine import ReadoutEngine, serve_traces
from repro.engine.bundle import (
    BUNDLE_FORMAT_VERSION,
    MANIFEST_NAME,
    bundle_id_of,
    compute_bundle_id,
    load_engine,
    load_manifest,
    save_engine,
)
from repro.engine import wire

__all__ = [
    "ReadoutBackend",
    "FloatStudentBackend",
    "FixedPointBackend",
    "BACKEND_KINDS",
    "make_backend",
    "states_from_logits",
    "OUTPUT_KINDS",
    "PRIORITY_CLASSES",
    "ReadoutRequest",
    "ReadoutResult",
    "ReadoutEngine",
    "serve_traces",
    "BUNDLE_FORMAT_VERSION",
    "MANIFEST_NAME",
    "bundle_id_of",
    "compute_bundle_id",
    "save_engine",
    "load_engine",
    "load_manifest",
    "wire",
]
