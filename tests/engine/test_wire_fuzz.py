"""Fuzzing the wire codec: every decoder fails typed on hostile bytes.

Anything that arrives from a socket is hostile.  Fed arbitrary bytes,
well-framed garbage, or a single-byte mutation of a valid frame of any
kind, every ``wire.decode_*`` (``decode_reply`` included) must either
return a value or raise :class:`~repro.engine.wire.WireFormatError` --
except that a decoder handed an ERROR frame may raise the remote exception
that frame describes.  Any other exception, or a decode slower than the
deadline, fails.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import wire
from repro.engine.request import ReadoutRequest, ReadoutResult
from repro.fpga.fixed_point import Q16_16

DECODERS = [getattr(wire, name) for name in wire.__all__ if name.startswith("decode_")]

#: Every frame kind the codec defines, plus values it does not.
KINDS = st.integers(min_value=0, max_value=255)

#: Header keys the decoders read, so generated headers reach field parsing.
HEADER_KEYS = (
    "carrier", "array", "qubits", "output", "dequantize", "fmt", "priority",
    "meta", "states", "logits", "n_shots", "elapsed_s", "type", "message",
    "args", "info", "metrics", "swap", "dtype", "shape", "integer_bits",
    "fractional_bits",
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False)
    | st.sampled_from(["raw", "traces", "both", "logits", "<i4", "<f8", "|b1", "O"])
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(HEADER_KEYS), children, max_size=4),
    max_leaves=8,
)


def _valid_frames() -> list[bytes]:
    raw = np.arange(12, dtype=np.int32).reshape(2, 1, 3, 2)
    traces = np.linspace(-1.0, 1.0, 24).reshape(2, 2, 3, 2)
    return [
        wire.encode_request(
            ReadoutRequest(raw=raw, qubits=(1,), output="both", fmt=Q16_16),
            wire_meta={"request_id": "r1", "trace_id": "t1"},
        ),
        wire.encode_request(ReadoutRequest(traces=traces, priority="feedback")),
        wire.encode_result(
            ReadoutResult(
                qubits=(0, 1),
                output="both",
                states=np.array([[0, 1], [1, 0]], dtype=np.int64),
                logits=np.array([[-0.5, 0.25], [1.5, -2.0]]),
                n_shots=2,
                elapsed_s=0.5,
                meta={"backend": "fpga", "transport": "tcp"},
            )
        ),
        wire.encode_error(ValueError("bad shape", 3)),
        wire.encode_error(KeyError("q9")),
        wire.encode_info_request(),
        wire.encode_info({"n_qubits": 5, "backend": "fpga", "shard_layout": None}),
        wire.encode_metrics_request(),
        wire.encode_metrics({"source": "readout-server", "requests_served": 3}),
        wire.encode_swap_request({"bundle_dir": "bundles/v2", "expected_bundle_id": "ab"}),
        wire.encode_swap({"swapped": True, "swaps": 1}),
    ]


VALID_FRAMES = _valid_frames()


def _assert_every_decoder_fails_typed(frame: bytes) -> None:
    try:
        is_error_frame = wire.frame_kind(frame) == wire.ERROR
    except wire.WireFormatError:
        is_error_frame = False
    described = None
    if is_error_frame:
        try:
            described = wire.decode_error(frame)
        except wire.WireFormatError:
            pass
    for decode in DECODERS:
        try:
            decode(frame)
        except wire.WireFormatError:
            continue
        except Exception as exc:  # noqa: BLE001 - classified below
            if (
                described is not None
                and type(exc) is type(described)
                and str(exc) == str(described)
            ):
                continue  # the remote exception the ERROR frame describes
            raise AssertionError(
                f"{decode.__name__} leaked {type(exc).__name__}: {exc!r} "
                f"on frame {frame!r}"
            ) from exc


def test_valid_frames_decode():
    """The unmutated corpus passes the same check."""
    for frame in VALID_FRAMES:
        _assert_every_decoder_fails_typed(frame)


@settings(max_examples=1000, deadline=2000)
@given(
    index=st.integers(min_value=0, max_value=len(VALID_FRAMES) - 1),
    position=st.integers(min_value=0),
    value=st.integers(min_value=0, max_value=255),
)
def test_single_byte_mutations_of_valid_frames_fail_typed(index, position, value):
    frame = bytearray(VALID_FRAMES[index])
    frame[position % len(frame)] = value
    _assert_every_decoder_fails_typed(bytes(frame))


@settings(max_examples=200, deadline=2000)
@given(
    kind=KINDS,
    header=st.one_of(
        st.dictionaries(st.sampled_from(HEADER_KEYS), JSON_VALUES, max_size=8).map(
            lambda header: json.dumps(header).encode("utf-8")
        ),
        JSON_VALUES.map(lambda value: json.dumps(value).encode("utf-8")),
        st.binary(max_size=32),
    ),
    payload=st.binary(max_size=64),
)
def test_well_framed_garbage_fails_typed(kind, header, payload):
    prefix = wire._PREFIX.pack(
        wire.MAGIC, wire.WIRE_VERSION, kind, len(header), len(payload)
    )
    _assert_every_decoder_fails_typed(prefix + header + payload)


@settings(max_examples=200, deadline=2000)
@given(st.binary(max_size=96))
def test_arbitrary_bytes_fail_typed(data):
    _assert_every_decoder_fails_typed(data)
