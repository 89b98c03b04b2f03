"""The one wire codec of the serving system.

Every serving boundary that is not a plain function call -- the TCP socket
between a :class:`~repro.service.net.ReadoutServer` and either a
:class:`~repro.service.net.RemoteEngineClient` or one shard of a
:class:`~repro.service.ReadoutService` -- speaks the same versioned,
length-prefixed binary frames defined here.  One codec means a request a
shard sends is byte-for-byte the request a client would send, so moving a
qubit group from a loopback server to another host changes *where* the
bytes go, never *what* they mean.

Frame layout (all integers big-endian)::

    offset  size  field
    0       4     MAGIC  b"KQRW"
    4       1     wire version (WIRE_VERSION)
    5       1     frame kind (REQUEST / RESULT / ERROR / INFO_REQUEST / INFO)
    6       4     header length  H
    10      8     payload length P
    18      H     header (UTF-8 JSON: everything but the bulk arrays)
    18+H    P     payload (raw C-contiguous array bytes, concatenated)

Arrays travel as raw bytes with their exact dtype and shape recorded in the
header, so float64 traces, int32 and int64 raw carriers, state and logit
columns all round-trip **bit-exactly** -- the property the fixed-point
reproduction lives and dies by.  Remote failures travel as a structured
ERROR frame carrying the exception type and arguments; :func:`decode_error`
rebuilds the same exception type with the same message (the shared
formatters in :mod:`repro.engine.request` produce those messages, so a
remote shape error reads identically to a local one).

A connection answers its frames strictly in order, so replies carry no
transport envelope: the reply to the n-th request is the n-th reply.
Request frames keep a transport ``meta`` header key (idempotent
``request_id``, trace ids) that :func:`decode_request_wire_meta` reads.

Every ``decode_*`` treats its input as hostile: a frame that is not
well-formed -- bad prefix, a header that is not a UTF-8 JSON object,
missing or mistyped header fields, array declarations that do not use up
the payload exactly -- raises :class:`WireFormatError`, chained from the
original exception where there is one.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Callable

import numpy as np

from repro.engine.request import ReadoutRequest, ReadoutResult
from repro.fpga.fixed_point import FixedPointFormat, FixedPointOverflowError

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "REQUEST",
    "RESULT",
    "ERROR",
    "INFO_REQUEST",
    "INFO",
    "METRICS_REQUEST",
    "METRICS",
    "SWAP_REQUEST",
    "SWAP",
    "MAX_FRAME_BYTES",
    "PREFIX_SIZE",
    "frame_total_size",
    "RemoteServingError",
    "WireFormatError",
    "encode_request",
    "encode_request_chunks",
    "decode_request",
    "decode_request_wire_meta",
    "encode_result",
    "encode_result_chunks",
    "decode_result",
    "encode_error",
    "decode_error",
    "encode_info_request",
    "encode_info",
    "decode_info",
    "encode_metrics_request",
    "encode_metrics",
    "decode_metrics",
    "encode_swap_request",
    "decode_swap_request",
    "encode_swap",
    "decode_swap",
    "frame_kind",
    "decode_reply",
    "read_frame",
    "write_frame",
]

MAGIC = b"KQRW"

#: Bump on any incompatible frame-layout or header-schema change.
WIRE_VERSION = 1

#: Frame kinds.  METRICS_REQUEST/METRICS are additive (a peer that predates
#: them answers with a WireFormatError frame it can express, never garbage),
#: so -- like the INFO pair before them -- they need no version bump.
REQUEST, RESULT, ERROR, INFO_REQUEST, INFO = 1, 2, 3, 4, 5
METRICS_REQUEST, METRICS = 6, 7
#: Hot-swap control frames (additive, like the METRICS pair): SWAP_REQUEST
#: asks a server to load a new bundle and flip atomically; SWAP acknowledges
#: with the adopted deployment's identity.
SWAP_REQUEST, SWAP = 8, 9

_PREFIX = struct.Struct(">4sBBIQ")

#: Upper bound a reader enforces before allocating for a frame -- a corrupt
#: or hostile length prefix must not become a multi-terabyte allocation.
MAX_FRAME_BYTES = 1 << 31

#: Fixed size of the frame prefix (magic, version, kind, lengths).  A
#: zero-copy stream reader fills exactly this many bytes, asks
#: :func:`frame_total_size` for the frame length, and ``recv_into``\\ s the
#: rest of the frame straight into one exact-size buffer.
PREFIX_SIZE = _PREFIX.size


def frame_total_size(prefix, max_bytes: int = MAX_FRAME_BYTES) -> int:
    """Total frame length (prefix included) declared by an intact prefix.

    Validates magic, version, and the ``max_bytes`` allocation bound --
    everything a reader must check *before* trusting the lengths -- and
    raises :class:`WireFormatError` otherwise.
    """
    try:
        magic, version, _kind, header_len, payload_len = _PREFIX.unpack_from(
            memoryview(prefix), 0
        )
    except struct.error as exc:
        raise WireFormatError(f"Wire frame prefix unreadable: {exc}") from None
    if magic != MAGIC:
        raise WireFormatError(
            f"Not a readout wire frame (magic {magic!r}, expected {MAGIC!r})"
        )
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"Unsupported wire version {version} (this build speaks "
            f"version {WIRE_VERSION})"
        )
    total = PREFIX_SIZE + header_len + payload_len
    if total > max_bytes:
        raise WireFormatError(
            f"Wire frame of {total} bytes exceeds the {max_bytes}-byte limit"
        )
    return total


class WireFormatError(ValueError):
    """A byte sequence that is not a valid wire frame (or a foreign version)."""


class RemoteServingError(RuntimeError):
    """A remote exception whose type this process cannot reconstruct.

    Carries the original type name and message so nothing is lost even when
    the peer raised something exotic.
    """


#: Exception types an ERROR frame reconstructs exactly.  Everything the
#: serving surfaces raise on purpose is here (the shared formatters in
#: request.py produce ValueError/TypeError/IndexError/KeyError); anything
#: else degrades to :class:`RemoteServingError` with the original text.
_EXCEPTION_TYPES: dict[str, type[BaseException]] = {
    cls.__name__: cls
    for cls in (
        ValueError,
        TypeError,
        IndexError,
        KeyError,
        RuntimeError,
        NotImplementedError,
        ArithmeticError,
        OverflowError,
        ZeroDivisionError,
        FileNotFoundError,
        PermissionError,
        OSError,
        MemoryError,
        FixedPointOverflowError,
    )
}


def _json_default(obj):
    """Let NumPy scalars ride in JSON headers (meta dicts often hold them)."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON-serializable on the wire")


def _array_spec(array: np.ndarray) -> dict:
    return {"dtype": array.dtype.str, "shape": list(array.shape)}


def _frame_chunks(
    kind: int, header: dict, payloads: tuple[np.ndarray, ...] = ()
) -> list:
    """One frame as a list of buffers (prefix, header, then each array).

    The chunked form exists so bulk payloads cross their final boundary with
    a single copy: the server hands reply chunks to the socket as they are
    (the arrays as the encoder's memoryviews), and ``b"".join`` assembles a
    contiguous frame with one copy when a plain ``bytes`` is needed.
    """
    header_bytes = json.dumps(header, default=_json_default).encode("utf-8")
    arrays = [
        memoryview(np.ascontiguousarray(array)).cast("B") for array in payloads
    ]
    payload_len = sum(chunk.nbytes for chunk in arrays)
    prefix = _PREFIX.pack(MAGIC, WIRE_VERSION, kind, len(header_bytes), payload_len)
    return [prefix, header_bytes, *arrays]


def _assemble(kind: int, header: dict, payloads: tuple[np.ndarray, ...] = ()) -> bytes:
    return b"".join(_frame_chunks(kind, header, payloads))


def _unpack_prefix(view: memoryview) -> tuple[int, int]:
    """Validate a whole frame's prefix against its length; ``(kind, header_len)``."""
    if len(view) < _PREFIX.size:
        raise WireFormatError(
            f"Wire frame truncated: {len(view)} bytes is shorter than the "
            f"{_PREFIX.size}-byte prefix"
        )
    magic, version, kind, header_len, payload_len = _PREFIX.unpack_from(view, 0)
    if magic != MAGIC:
        raise WireFormatError(
            f"Not a readout wire frame (magic {magic!r}, expected {MAGIC!r})"
        )
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"Unsupported wire version {version} (this build speaks "
            f"version {WIRE_VERSION})"
        )
    total = _PREFIX.size + header_len + payload_len
    if len(view) != total:
        raise WireFormatError(
            f"Wire frame length mismatch: prefix declares {total} bytes, "
            f"got {len(view)}"
        )
    return kind, header_len


def _split(frame, expected_kind: int | None = None) -> tuple[int, dict, memoryview]:
    """Validate the prefix and return ``(kind, header, payload view)``."""
    view = memoryview(frame)
    kind, header_len = _unpack_prefix(view)
    if expected_kind is not None and kind != expected_kind:
        raise WireFormatError(
            f"Expected wire frame kind {expected_kind}, got {kind}"
        )
    header_end = _PREFIX.size + header_len
    try:
        header = json.loads(bytes(view[_PREFIX.size : header_end]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireFormatError(
            f"Wire frame header is not UTF-8 JSON: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise WireFormatError(
            f"Wire frame header must be a JSON object, got {type(header).__name__}"
        )
    return kind, header, view[header_end:]


def frame_kind(frame) -> int:
    """The kind byte of a frame (validating magic, version and length first).

    Only the prefix is read; the header is left to the kind's decoder.
    """
    return _unpack_prefix(memoryview(frame))[0]


def _read_array(spec: dict | None, payload: memoryview, offset: int, copy: bool = False):
    """Decode one header-declared array from the payload; returns (array, end).

    Without ``copy`` the result is a zero-copy, read-only view into the
    frame buffer -- right for the serving ingress path, which only ever
    reads its inputs.  With ``copy`` the array owns its memory: writable,
    and it does not pin the whole frame alive.
    """
    if spec is None:
        return None, offset
    shape = spec["shape"]
    if not isinstance(shape, list) or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise WireFormatError(
            f"Wire array shape must be a list of non-negative integers, got {shape!r}"
        )
    dtype = np.dtype(spec["dtype"])
    nbytes = dtype.itemsize * math.prod(shape)
    if offset + nbytes > len(payload):
        raise WireFormatError(
            f"Wire frame payload truncated: array needs {nbytes} bytes at "
            f"offset {offset}, payload holds {len(payload)}"
        )
    array = np.frombuffer(payload[offset : offset + nbytes], dtype=dtype).reshape(
        shape
    )
    if copy:
        array = array.copy()
    return array, offset + nbytes


#: What a malformed header makes the field readers raise: missing keys,
#: wrongly typed values, dtype strings NumPy cannot parse (some raise
#: ``SyntaxError``), and the request/result constructors' own validation.
_HEADER_ERRORS = (
    KeyError,
    IndexError,
    TypeError,
    ValueError,
    AttributeError,
    SyntaxError,
    OverflowError,
)


def _decode(
    frame,
    kind: int,
    build: Callable,
    array_keys: tuple[str, ...] = (),
    copy: bool = False,
):
    """Split a ``kind`` frame and ``build`` its value from the header fields.

    ``array_keys`` name the header specs of the payload arrays, in payload
    order; together they must use up the payload exactly, so header-only
    kinds carry an empty one.  ``build(header, *arrays)`` makes the value.
    Whatever a malformed header makes either step raise surfaces as a
    :class:`WireFormatError` chained from the original exception.
    """
    _, header, payload = _split(frame, expected_kind=kind)
    try:
        arrays, offset = [], 0
        for key in array_keys:
            array, offset = _read_array(header[key], payload, offset, copy)
            arrays.append(array)
        if offset != len(payload):
            raise WireFormatError(
                f"Wire frame payload holds {len(payload)} bytes but its header "
                f"declares {offset}"
            )
        return build(header, *arrays)
    except WireFormatError:
        raise
    except _HEADER_ERRORS as exc:
        raise WireFormatError(
            f"Malformed wire frame header (kind {kind}): "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _encode_fmt(fmt: FixedPointFormat | None) -> dict | None:
    if fmt is None:
        return None
    return {"integer_bits": fmt.integer_bits, "fractional_bits": fmt.fractional_bits}


def _decode_fmt(spec: dict | None) -> FixedPointFormat | None:
    if spec is None:
        return None
    return FixedPointFormat(
        integer_bits=int(spec["integer_bits"]),
        fractional_bits=int(spec["fractional_bits"]),
    )


# --------------------------------------------------------------------------
# Request frames
# --------------------------------------------------------------------------


def encode_request_chunks(
    request: ReadoutRequest, wire_meta: dict | None = None
) -> list:
    """A request frame as buffers (prefix, header, payload) -- see :func:`_frame_chunks`.

    For senders that can scatter-write (a vectored socket send): the bulk
    carrier crosses its boundary with one copy instead of being flattened
    into an intermediate ``bytes`` first.  Concatenated, the chunks are
    exactly :func:`encode_request`'s frame.

    ``wire_meta`` rides in the header outside the request proper -- the
    transport-level envelope (idempotent ``request_id`` for retry dedup,
    trace ids).  It is invisible to :func:`decode_request` (the rebuilt
    request is unchanged) and read back with
    :func:`decode_request_wire_meta`; decoders that predate the field
    ignore the extra header key, so no wire-version bump is needed.
    """
    if not isinstance(request, ReadoutRequest):
        raise TypeError(
            f"encode_request takes a ReadoutRequest, got {type(request).__name__}"
        )
    payload = request.payload
    header = {
        "carrier": "raw" if request.is_raw else "traces",
        "array": _array_spec(payload),
        "qubits": None if request.qubits is None else list(request.qubits),
        "output": request.output,
        "dequantize": request.dequantize,
        "fmt": _encode_fmt(request.fmt),
        "priority": request.priority,
    }
    if wire_meta:
        header["meta"] = dict(wire_meta)
    return _frame_chunks(REQUEST, header, (payload,))


def encode_request(request: ReadoutRequest, wire_meta: dict | None = None) -> bytes:
    """Encode a :class:`ReadoutRequest` as one self-contained frame."""
    return b"".join(encode_request_chunks(request, wire_meta))


def _build_request(header: dict, array: np.ndarray) -> ReadoutRequest:
    qubits = header["qubits"]
    kwargs = dict(
        qubits=None if qubits is None else tuple(qubits),
        output=header["output"],
        dequantize=bool(header["dequantize"]),
        fmt=_decode_fmt(header["fmt"]),
        # Frames encoded before priority classes existed lack the key; they
        # are bulk traffic by definition.
        priority=header.get("priority", "bulk"),
    )
    if header["carrier"] == "raw":
        return ReadoutRequest(raw=array, **kwargs)
    return ReadoutRequest(traces=array, **kwargs)


def decode_request(frame) -> ReadoutRequest:
    """Rebuild the :class:`ReadoutRequest` encoded in ``frame``.

    The carried array is a read-only zero-copy view into the frame buffer;
    dtype and shape are restored exactly.
    """
    return _decode(frame, REQUEST, _build_request, ("array",))


def decode_request_wire_meta(frame) -> dict:
    """The transport envelope of a REQUEST frame (``{}`` when absent).

    This is where an idempotent ``request_id`` travels: a server that has
    already answered the id can replay its cached reply instead of serving
    the retried request twice.
    """
    return _decode(
        frame,
        REQUEST,
        lambda header, _array: dict(header.get("meta") or {}),
        ("array",),
    )


# --------------------------------------------------------------------------
# Result frames
# --------------------------------------------------------------------------


def encode_result_chunks(result: ReadoutResult) -> list:
    """A result frame as buffers (prefix, header, arrays) -- see :func:`_frame_chunks`.

    The scatter form the server's reply path writes chunk by chunk: the
    state/logit columns cross the socket boundary as memoryviews of the
    result arrays, never flattened into an intermediate ``bytes``.
    """
    if not isinstance(result, ReadoutResult):
        raise TypeError(
            f"encode_result takes a ReadoutResult, got {type(result).__name__}"
        )
    arrays = tuple(
        array for array in (result.states, result.logits) if array is not None
    )
    header = {
        "qubits": list(result.qubits),
        "output": result.output,
        "n_shots": int(result.n_shots),
        # json round-trips float64 exactly (repr shortest-round-trip), so
        # elapsed_s survives bit-for-bit like everything else.
        "elapsed_s": float(result.elapsed_s),
        "meta": result.meta,
        "states": None if result.states is None else _array_spec(result.states),
        "logits": None if result.logits is None else _array_spec(result.logits),
    }
    return _frame_chunks(RESULT, header, arrays)


def encode_result(result: ReadoutResult) -> bytes:
    """Encode a :class:`ReadoutResult` as one self-contained frame."""
    return b"".join(encode_result_chunks(result))


def _build_result(header: dict, states, logits) -> ReadoutResult:
    return ReadoutResult(
        qubits=tuple(header["qubits"]),
        output=header["output"],
        states=states,
        logits=logits,
        n_shots=int(header["n_shots"]),
        elapsed_s=float(header["elapsed_s"]),
        meta=dict(header["meta"]),
    )


def decode_result(frame) -> ReadoutResult:
    """Rebuild the :class:`ReadoutResult` encoded in ``frame``.

    Result arrays are **copied** out of the frame: a result is what callers
    keep and mutate (local ``engine.serve`` results are writable, remote
    ones must behave the same), and the per-qubit columns are small next to
    the carrier batches, so the copy is cheap where it matters.
    """
    return _decode(frame, RESULT, _build_result, ("states", "logits"), copy=True)


# --------------------------------------------------------------------------
# Error frames
# --------------------------------------------------------------------------


def encode_error(exc: BaseException) -> bytes:
    """Encode an exception so the peer re-raises the same type and message."""
    args = list(exc.args)
    if not all(isinstance(arg, (str, int, float, bool, type(None))) for arg in args):
        # Exotic argument payloads are not worth shipping; the text is.
        args = None
    return _assemble(
        ERROR, {"type": type(exc).__name__, "message": str(exc), "args": args}
    )


def _build_error(header: dict) -> BaseException:
    cls = _EXCEPTION_TYPES.get(header["type"])
    if cls is not None and header["args"] is not None:
        try:
            return cls(*header["args"])
        except Exception:  # pragma: no cover - wildly custom signatures
            pass
    if cls is not None:
        return cls(header["message"])
    return RemoteServingError(f"{header['type']}: {header['message']}")


def decode_error(frame) -> BaseException:
    """Rebuild the exception an ERROR frame describes (without raising it).

    Known types come back as themselves with their original arguments, so a
    remote ``ValueError`` from the shared shape formatters is
    indistinguishable from a local one; unknown types degrade to
    :class:`RemoteServingError` carrying the original type name and text.
    """
    return _decode(frame, ERROR, _build_error)


# --------------------------------------------------------------------------
# Info frames (deployment metadata, e.g. for remote shard placement)
# --------------------------------------------------------------------------


def encode_info_request() -> bytes:
    """A header-only frame asking a server to describe its deployment."""
    return _assemble(INFO_REQUEST, {})


def encode_info(info: dict) -> bytes:
    """Encode a deployment-description dict (JSON-serializable values only)."""
    return _assemble(INFO, {"info": info})


def decode_info(frame) -> dict:
    """The deployment-description dict carried by an INFO frame."""
    return _decode(frame, INFO, lambda header: dict(header["info"]))


# --------------------------------------------------------------------------
# Metrics frames (live telemetry snapshots; additive like the INFO pair)
# --------------------------------------------------------------------------


def encode_metrics_request() -> bytes:
    """A header-only frame asking a server for its live metrics snapshot."""
    return _assemble(METRICS_REQUEST, {})


def encode_metrics(metrics: dict) -> bytes:
    """Encode a metrics snapshot (JSON-serializable values only)."""
    return _assemble(METRICS, {"metrics": metrics})


def decode_metrics(frame) -> dict:
    """The metrics snapshot carried by a METRICS frame (ERROR frames re-raise)."""
    if frame_kind(frame) == ERROR:
        raise decode_error(frame)
    return _decode(frame, METRICS, lambda header: dict(header["metrics"]))


# --------------------------------------------------------------------------
# Swap frames (hot bundle swap; additive like the INFO and METRICS pairs)
# --------------------------------------------------------------------------


def encode_swap_request(spec: dict) -> bytes:
    """Ask a server to hot-swap to a new bundle.

    ``spec`` is JSON-serializable swap instructions: ``bundle_dir`` (a path
    the *server's* filesystem can resolve) and optionally
    ``expected_bundle_id`` so the caller can pin exactly which artifact the
    server must adopt (a mismatched staging copy fails the swap instead of
    silently serving the wrong model).
    """
    return _assemble(SWAP_REQUEST, {"swap": dict(spec)})


def decode_swap_request(frame) -> dict:
    """The swap instructions carried by a SWAP_REQUEST frame."""
    return _decode(frame, SWAP_REQUEST, lambda header: dict(header["swap"]))


def encode_swap(info: dict) -> bytes:
    """Acknowledge a completed swap (the adopted deployment's identity)."""
    return _assemble(SWAP, {"swap": dict(info)})


def decode_swap(frame) -> dict:
    """The swap acknowledgement carried by a SWAP frame (ERROR frames re-raise).

    A failed swap travels as a structured ERROR frame -- the server keeps
    serving its old engine, and the caller sees the original exception type
    exactly as :func:`decode_metrics` surfaces metrics failures.
    """
    if frame_kind(frame) == ERROR:
        raise decode_error(frame)
    return _decode(frame, SWAP, lambda header: dict(header["swap"]))


# --------------------------------------------------------------------------
# Replies
# --------------------------------------------------------------------------


def decode_reply(frame) -> ReadoutResult:
    """Decode a serving reply: a RESULT frame, or an ERROR frame to re-raise.

    This is the one call every remote collect path makes, so local and
    remote failures surface identically.
    """
    kind = frame_kind(frame)
    if kind == RESULT:
        return decode_result(frame)
    if kind == ERROR:
        raise decode_error(frame)
    raise WireFormatError(f"Expected a RESULT or ERROR frame, got kind {kind}")


# --------------------------------------------------------------------------
# Stream framing
# --------------------------------------------------------------------------


def write_frame(stream, frame: bytes) -> None:
    """Write one frame to a binary stream (the frame is self-delimiting).

    Raw (unbuffered) streams -- the socket files the network tier uses --
    make partial writes for bulk frames; ``write`` is looped until every
    byte is out, so a multi-megabyte carrier batch cannot be silently
    truncated mid-frame.
    """
    view = memoryview(frame)
    while view:
        written = stream.write(view)
        if written is None:
            # A buffered stream accepted the whole view.
            break
        view = view[written:]
    stream.flush()


def _read_exact(stream, n: int) -> bytes:
    """Read exactly ``n`` bytes, tolerating the short reads raw sockets make."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(min(remaining, 1 << 20))
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream, max_bytes: int = MAX_FRAME_BYTES) -> bytes | None:
    """Read exactly one frame from a binary stream.

    Returns ``None`` on clean end-of-stream (no bytes at all); raises
    :class:`WireFormatError` for garbage, foreign versions, mid-frame EOF,
    or frames larger than ``max_bytes`` (a corrupt length prefix must not
    become an unbounded allocation).
    """
    prefix = _read_exact(stream, _PREFIX.size)
    if not prefix:
        return None
    if len(prefix) < _PREFIX.size:
        raise WireFormatError(
            f"Stream ended mid-prefix ({len(prefix)} of {_PREFIX.size} bytes)"
        )
    magic, version, _kind, header_len, payload_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise WireFormatError(
            f"Not a readout wire frame (magic {magic!r}, expected {MAGIC!r})"
        )
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"Unsupported wire version {version} (this build speaks "
            f"version {WIRE_VERSION})"
        )
    remaining = header_len + payload_len
    if _PREFIX.size + remaining > max_bytes:
        raise WireFormatError(
            f"Wire frame of {_PREFIX.size + remaining} bytes exceeds the "
            f"{max_bytes}-byte limit"
        )
    body = _read_exact(stream, remaining)
    if len(body) < remaining:
        raise WireFormatError(
            f"Stream ended mid-frame ({remaining - len(body)} bytes missing)"
        )
    return prefix + body
