"""Spans recorded from outside the program, around calls into each layer.

The benchmark's traced run wraps public methods of the live objects (the
engine's ``serve``, each backend's ``predict_states_from_raw``, each
emulator module's ``forward``, the service's ``submit``) and the encode and
decode functions of :mod:`repro.engine.wire`.  Nothing under ``src/`` is
changed: a wrapper is an instance attribute shadowing the method (or a
module attribute shadowing the function), and :meth:`Tracer.uninstall`
removes it again, so the untraced slices of a run call the program as is.

A span is ``(name, start, end, parent, trace_id, nbytes, cpu)``, where
``cpu`` is the CPU time the calling thread spent inside the call: the
engine runs more worker threads than the host has cores, so a backend's
wall-clock span includes time it waited for a core, and busy time is CPU
time.  The parent is
the innermost open span on the same thread; a backend call made on one of
the engine's pool threads (named ``readout-engine*``) has none there, so its
parent is the engine call open at the time (the harness has one caller, so
at most one is open).
Spans of one operation share the trace id the harness set for it; spans
opened on the service's batcher thread get one per dispatch.

A layer the workload bypasses records no span and reports 0.  So that a
layer which stops recording (say, because the program starts calling a
cached bound method the wrapper cannot shadow) is not read as a gain, each
workload names the layers it exercises and :func:`unrecorded` lists the
spans of those layers that never closed; the harness then rejects the run.
"""

from __future__ import annotations

import bisect
import itertools
import json
import threading
import time
import types
from collections import defaultdict

import numpy as np

#: Emulator modules in datapath order, with the per-layer metric name each
#: is reported under.
MODULES = (
    "average",
    "normalize",
    "matched_filter",
    "dense0",
    "dense1",
    "dense2",
    "threshold",
)

#: Averaging window -> the paper's architecture name (500-sample traces).
ARCHS = {32: "fnn_a", 5: "fnn_b"}

#: Spans a layer records when a workload exercises it.  ``net`` is timed
#: on the client from the wire spans around each dispatch.
LAYER_SPANS = {
    "fpga": tuple(
        f"fpga.{arch}.{part}" for arch in ARCHS.values() for part in ("backend", *MODULES)
    ),
    "engine": ("engine.serve",),
    "service": ("service.submit",),
    "wire": ("wire.encode_request", "wire.decode_reply"),
    "net": ("wire.encode_request", "wire.decode_reply"),
}


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Records spans in memory while installed; writes them out on request."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.trace_id: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_serve: int | None = None
        self._dispatch_ids = itertools.count()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        thread = threading.current_thread()
        if stack:
            parent = stack[-1]
        elif thread.name.startswith("readout-engine"):
            parent = self._open_serve
        else:
            parent = None
        with self._lock:
            if parent is not None:
                trace_id = self.spans[parent][4]
            elif thread is threading.main_thread():
                trace_id = self.trace_id
            else:
                trace_id = f"dispatch-{next(self._dispatch_ids)}"
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, parent, trace_id, 0, time.thread_time()]
            )
        stack.append(index)
        return index

    def _close(self, index: int, nbytes: int) -> None:
        end = time.perf_counter()
        cpu = time.thread_time()
        self._stack().pop()
        span = self.spans[index]
        span[2] = end
        span[5] = nbytes
        span[6] = cpu - span[6]

    def _wrap(self, owner, attr: str, name: str, count_bytes: bool, serve: bool = False):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            if serve:
                tracer._open_serve = index
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index, 0)
                raise
            finally:
                if serve:
                    tracer._open_serve = None
            nbytes = 0
            if count_bytes:
                nbytes = _nbytes(args) + _nbytes((result,))
            elif isinstance(result, (bytes, bytearray)):
                nbytes = len(result)
            elif args and isinstance(args[0], (bytes, bytearray, memoryview)):
                nbytes = memoryview(args[0]).nbytes
            tracer._close(index, nbytes)
            return result

        # A module function is put back; an instance attribute is deleted so
        # the class's method shows through again.
        restore = original if isinstance(owner, types.ModuleType) else None
        self._installed.append((owner, attr, restore))
        setattr(owner, attr, traced)

    # ----------------------------------------------------------- installing
    def install_engine(self, engine) -> None:
        """Wrap ``engine.serve``, each backend and each datapath module."""
        self._wrap(engine, "serve", "engine.serve", False, serve=True)
        for backend in engine.backends:
            emulator = backend.emulator
            arch = ARCHS[emulator.average.samples_per_interval]
            self._wrap(backend, "predict_states_from_raw", f"fpga.{arch}.backend", False)
            modules = [emulator.average, emulator.normalize, emulator.matched_filter]
            modules += list(emulator.layers) + [emulator.threshold]
            for label, module in zip(MODULES, modules, strict=True):
                self._wrap(module, "forward", f"fpga.{arch}.{label}", True)

    def install_service(self, service) -> None:
        """Wrap ``service.submit``."""
        self._wrap(service, "submit", "service.submit", False)

    def install_wire(self) -> None:
        """Wrap the request encoder and reply decoder of the wire codec."""
        from repro.engine import wire

        self._wrap(wire, "encode_request", "wire.encode_request", False)
        self._wrap(wire, "decode_reply", "wire.decode_reply", False)

    def uninstall(self) -> None:
        """Remove every wrapper, restoring the program's own callables."""
        for owner, attr, restore in reversed(self._installed):
            if restore is not None:
                setattr(owner, attr, restore)
            else:
                delattr(owner, attr)
        self._installed.clear()

    # -------------------------------------------------------------- output
    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, trace_id, nbytes, cpu) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trace_id": trace_id,
                            "bytes": nbytes,
                            "cpu": cpu,
                        }
                    )
                    + "\n"
                )


def unrecorded(spans: list, layers) -> list[str]:
    """Span names of ``layers`` that no closed span in ``spans`` has."""
    closed = {span[0] for span in spans if span[2] is not None}
    return [name for layer in layers for name in LAYER_SPANS[layer] if name not in closed]


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def layer_metrics(spans: list, answers: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer figures from closed spans.

    ``answers`` holds ``(submit_returned, answer_arrived)`` per service
    request.  Layers the workload bypasses record no span and report 0;
    :func:`unrecorded` tells those apart from layers that should have.
    """
    children: dict[int, list[int]] = defaultdict(list)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[2] is None:  # still open: its call never returned
            continue
        by_name[span[0]].append(index)
        if span[3] is not None:
            children[span[3]].append(index)

    def duration(index: int) -> float:
        return spans[index][2] - spans[index][1]

    def busy(index: int) -> float:
        return spans[index][6]

    out: dict[str, float] = {}
    # Modules run on their backend's thread, so a backend's residual is its
    # busy time minus its modules' busy time.
    for arch in ARCHS.values():
        backend_calls = by_name.get(f"fpga.{arch}.backend", [])
        residuals = [
            busy(i) - sum(busy(c) for c in children.get(i, [])) for i in backend_calls
        ]
        for label in MODULES:
            calls = by_name.get(f"fpga.{arch}.{label}", [])
            per_call = len(backend_calls) or 1
            out[f"fpga.{arch}.{label}_ms"] = sum(busy(i) for i in calls) / per_call * 1e3
            out[f"fpga.{arch}.{label}_bytes"] = _mean(spans[i][5] for i in calls)
        out[f"fpga.{arch}.residual_ms"] = _mean(residuals) * 1e3

    serves = by_name.get("engine.serve", [])
    serve_total = sum(duration(i) for i in serves)
    backend_per_serve = []
    overheads = []
    for index in serves:
        kids = children.get(index, [])
        backend_per_serve.append(sum(busy(c) for c in kids))
        # Dispatch overhead is taken on single-column calls only: with one
        # backend there is no fan-out, so serve minus backend is the
        # engine's own work rather than thread scheduling.
        if len(kids) == 1:
            overheads.append(duration(index) - duration(kids[0]))
    out["engine.serve_ms"] = _mean(duration(i) for i in serves) * 1e3
    out["engine.backend_ms"] = _mean(backend_per_serve) * 1e3
    out["engine.fanout_speedup"] = (
        sum(backend_per_serve) / serve_total if serve_total else 0.0
    )
    out["engine.overhead_ms"] = _mean(overheads) * 1e3

    encodes = sorted(by_name.get("wire.encode_request", []), key=lambda i: spans[i][1])
    decodes = sorted(by_name.get("wire.decode_reply", []), key=lambda i: spans[i][1])
    out["wire.encode_request_ms"] = _mean(duration(i) for i in encodes) * 1e3
    out["wire.decode_reply_ms"] = _mean(duration(i) for i in decodes) * 1e3
    out["wire.request_bytes"] = _mean(spans[i][5] for i in encodes)
    out["wire.reply_bytes"] = _mean(spans[i][5] for i in decodes)

    # One dispatch: the engine call in-process, or (one shard, FIFO) from a
    # request frame's encode to its reply's decode over the wire.
    if encodes:
        dispatches = [
            (spans[e][1], spans[d][2]) for e, d in zip(encodes, decodes)
        ]
    else:
        dispatches = [(spans[i][1], spans[i][2]) for i in serves]
    dispatches.sort(key=lambda interval: interval[1])
    out["net.dispatch_ms"] = (
        _mean(end - start for start, end in dispatches) * 1e3 if encodes else 0.0
    )

    submits = by_name.get("service.submit", [])
    out["service.submit_ms"] = _mean(duration(i) for i in submits) * 1e3
    ends = [end for _, end in dispatches]
    waits = []
    for submitted, answered in answers:
        # The dispatch that answered this request is the last one to end
        # before the answer arrived.
        slot = bisect.bisect_right(ends, answered) - 1
        served = dispatches[slot][1] - dispatches[slot][0] if slot >= 0 else 0.0
        waits.append(answered - submitted - served)
    out["service.wait_ms"] = _mean(waits) * 1e3
    return out
