"""Tests for the wire codec: bit-exact round trips, error frames, framing.

The load-bearing guarantee is the acceptance criterion of the transport
refactor: **every** ``ReadoutRequest``/``ReadoutResult`` form round-trips
bit-exactly -- float64 traces, int32 and int64 raw carriers, qubit subsets,
every output mode, dequantize/fmt opt-ins, meta dicts -- property-tested
against randomly drawn requests, because the sharded and networked serving
paths are only bit-identical to in-process serving if the codec never
perturbs a single byte.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import wire
from repro.engine.request import (
    ReadoutRequest,
    ReadoutResult,
    integer_carrier_error,
    multiplexed_shape_error,
    single_trace_shape_error,
)
from repro.fpga.fixed_point import FixedPointFormat, FixedPointOverflowError, Q16_16


# --------------------------------------------------------------------------
# Random request/result strategies
# --------------------------------------------------------------------------


@st.composite
def requests(draw) -> ReadoutRequest:
    n_shots = draw(st.integers(min_value=1, max_value=5))
    n_samples = draw(st.integers(min_value=1, max_value=7))
    full_qubits = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        width = draw(st.integers(min_value=1, max_value=full_qubits))
        qubits = tuple(draw(st.permutations(range(full_qubits)))[:width])
    else:
        qubits = None
    n_selected = len(qubits) if qubits is not None else full_qubits
    shape = (n_shots, n_selected, n_samples, 2)
    kind = draw(st.sampled_from(["float64", "float32", "int32", "int64"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind.startswith("float"):
        payload = rng.normal(scale=3.0, size=shape).astype(kind)
        # Exercise non-finite values too: the codec ships raw bytes, so NaN
        # and inf must survive exactly.
        if draw(st.booleans()):
            payload.flat[0] = np.nan
            if payload.size > 1:
                payload.flat[1] = np.inf
        return ReadoutRequest(
            traces=payload,
            qubits=qubits,
            output=draw(st.sampled_from(["states", "logits", "both"])),
        )
    info = np.iinfo(kind)
    payload = rng.integers(info.min, info.max, size=shape, dtype=kind)
    dequantize = draw(st.booleans())
    fmt = draw(
        st.sampled_from([None, Q16_16, FixedPointFormat(12, 12), FixedPointFormat(8, 8)])
    )
    return ReadoutRequest(
        raw=payload,
        qubits=qubits,
        output=draw(st.sampled_from(["states", "logits", "both"])),
        dequantize=dequantize,
        fmt=fmt,
    )


@st.composite
def results(draw) -> ReadoutResult:
    n_shots = draw(st.integers(min_value=1, max_value=6))
    qubits = tuple(draw(st.permutations(range(draw(st.integers(1, 4))))))
    output = draw(st.sampled_from(["states", "logits", "both"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = (
        rng.integers(0, 2, size=(n_shots, len(qubits)), dtype=np.int64)
        if output in ("states", "both")
        else None
    )
    logits = (
        rng.normal(size=(n_shots, len(qubits)))
        if output in ("logits", "both")
        else None
    )
    meta = draw(
        st.dictionaries(
            st.sampled_from(["backend", "shards", "transport", "microbatch_requests"]),
            st.one_of(st.integers(-5, 5), st.text(max_size=8), st.booleans()),
            max_size=3,
        )
    )
    return ReadoutResult(
        qubits=qubits,
        output=output,
        states=states,
        logits=logits,
        n_shots=n_shots,
        elapsed_s=draw(st.floats(min_value=0.0, max_value=1e3, allow_nan=False)),
        meta=meta,
    )


class TestRequestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(request=requests())
    def test_random_requests_round_trip_bit_exactly(self, request):
        decoded = wire.decode_request(wire.encode_request(request))
        assert decoded.is_raw == request.is_raw
        assert decoded.payload.dtype == request.payload.dtype
        assert decoded.payload.shape == request.payload.shape
        assert decoded.payload.tobytes() == request.payload.tobytes()
        assert decoded.qubits == request.qubits
        assert decoded.output == request.output
        assert decoded.dequantize == request.dequantize
        assert decoded.fmt == request.fmt

    def test_int64_values_beyond_float53_survive(self):
        value = 2**53 + 1  # not representable in float64
        raw = np.full((1, 1, 2, 2), value, dtype=np.int64)
        decoded = wire.decode_request(wire.encode_request(ReadoutRequest(raw=raw)))
        assert int(decoded.raw[0, 0, 0, 0]) == value

    def test_decoded_arrays_are_read_only_views(self):
        request = ReadoutRequest(raw=np.zeros((1, 1, 2, 2), dtype=np.int32))
        decoded = wire.decode_request(wire.encode_request(request))
        with pytest.raises(ValueError, match="read-only"):
            decoded.raw[0, 0, 0, 0] = 1

    def test_rejects_non_request(self):
        with pytest.raises(TypeError, match="ReadoutRequest"):
            wire.encode_request(np.zeros(3))


class TestResultRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(result=results())
    def test_random_results_round_trip_bit_exactly(self, result):
        decoded = wire.decode_result(wire.encode_result(result))
        assert decoded.qubits == result.qubits
        assert decoded.output == result.output
        assert decoded.n_shots == result.n_shots
        assert decoded.elapsed_s == result.elapsed_s  # exact, not approximate
        assert decoded.meta == result.meta
        for mine, theirs in ((decoded.states, result.states), (decoded.logits, result.logits)):
            if theirs is None:
                assert mine is None
            else:
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()

    def test_result_arrays_are_writable_and_own_their_memory(self):
        """Remote results must behave like local ones: callers mutate them."""
        result = ReadoutResult(
            qubits=(0, 1),
            output="both",
            states=np.zeros((3, 2), dtype=np.int64),
            logits=np.ones((3, 2)),
            n_shots=3,
            elapsed_s=0.0,
        )
        decoded = wire.decode_result(wire.encode_result(result))
        decoded.states[0, 0] = -1  # would raise on a frombuffer view
        assert decoded.logits.flags.owndata or decoded.logits.base is None

    def test_numpy_meta_values_survive_as_python_scalars(self):
        result = ReadoutResult(
            qubits=(0,),
            output="states",
            states=np.zeros((1, 1), dtype=np.int64),
            logits=None,
            n_shots=1,
            elapsed_s=0.0,
            meta={"shards": np.int64(2), "ratio": np.float64(0.5)},
        )
        decoded = wire.decode_result(wire.encode_result(result))
        assert decoded.meta == {"shards": 2, "ratio": 0.5}


class TestErrorFrames:
    @pytest.mark.parametrize(
        "exc",
        [
            multiplexed_shape_error(3, (4, 2, 10, 2), raw=True),
            single_trace_shape_error((7,), raw=False),
            integer_carrier_error(np.dtype(np.float64)),
            IndexError("qubit_index 7 out of range"),
            KeyError("qubit 9 was not served (result covers (0, 1))"),
            RuntimeError("Shard 1 worker died (exit code 1)"),
            FileNotFoundError("No engine bundle manifest at /nowhere"),
            FixedPointOverflowError("accumulator left the representable range"),
        ],
    )
    def test_known_exceptions_reraise_with_same_type_and_message(self, exc):
        rebuilt = wire.decode_error(wire.encode_error(exc))
        assert type(rebuilt) is type(exc)
        assert rebuilt.args == exc.args
        assert str(rebuilt) == str(exc)

    def test_unknown_exception_degrades_to_remote_serving_error(self):
        class ExoticFailure(Exception):
            pass

        rebuilt = wire.decode_error(wire.encode_error(ExoticFailure("boom")))
        assert isinstance(rebuilt, wire.RemoteServingError)
        assert "ExoticFailure" in str(rebuilt) and "boom" in str(rebuilt)

    def test_decode_reply_raises_errors_and_returns_results(self):
        error_frame = wire.encode_error(ValueError("nope"))
        with pytest.raises(ValueError, match="nope"):
            wire.decode_reply(error_frame)
        result = ReadoutResult(
            qubits=(0,),
            output="logits",
            states=None,
            logits=np.ones((2, 1)),
            n_shots=2,
            elapsed_s=0.1,
        )
        decoded = wire.decode_reply(wire.encode_result(result))
        np.testing.assert_array_equal(decoded.logits, result.logits)
        with pytest.raises(wire.WireFormatError, match="RESULT or ERROR"):
            wire.decode_reply(wire.encode_info_request())


class TestFraming:
    def _request_frame(self) -> bytes:
        return wire.encode_request(
            ReadoutRequest(raw=np.zeros((2, 1, 3, 2), dtype=np.int32))
        )

    def test_frame_kind(self):
        assert wire.frame_kind(self._request_frame()) == wire.REQUEST
        assert wire.frame_kind(wire.encode_info_request()) == wire.INFO_REQUEST

    def test_bad_magic_rejected(self):
        frame = bytearray(self._request_frame())
        frame[:4] = b"HTTP"
        with pytest.raises(wire.WireFormatError, match="magic"):
            wire.decode_request(bytes(frame))

    def test_foreign_version_rejected(self):
        frame = bytearray(self._request_frame())
        frame[4] = wire.WIRE_VERSION + 1
        with pytest.raises(wire.WireFormatError, match="version"):
            wire.decode_request(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = self._request_frame()
        with pytest.raises(wire.WireFormatError, match="length mismatch"):
            wire.decode_request(frame[:-3])
        with pytest.raises(wire.WireFormatError, match="truncated"):
            wire.decode_request(frame[:10])

    def test_stream_round_trip_and_clean_eof(self):
        frames = [self._request_frame(), wire.encode_error(ValueError("x"))]
        stream = io.BytesIO()
        for frame in frames:
            wire.write_frame(stream, frame)
        stream.seek(0)
        assert wire.read_frame(stream) == frames[0]
        assert wire.read_frame(stream) == frames[1]
        assert wire.read_frame(stream) is None  # clean EOF

    def test_mid_frame_eof_raises(self):
        frame = self._request_frame()
        stream = io.BytesIO(frame[:-5])
        with pytest.raises(wire.WireFormatError, match="mid-frame"):
            wire.read_frame(stream)

    def test_oversized_frame_rejected_before_allocation(self):
        frame = self._request_frame()
        with pytest.raises(wire.WireFormatError, match="exceeds"):
            wire.read_frame(io.BytesIO(frame), max_bytes=10)

    def test_info_round_trip(self):
        info = {"n_qubits": 5, "backend": "fpga", "shard_layout": {"max_shards": 5}}
        assert wire.decode_info(wire.encode_info(info)) == info


class TestMetricsFrames:
    """METRICS_REQUEST/METRICS: the additive telemetry frames (no version bump)."""

    def test_metrics_round_trip(self):
        metrics = {
            "source": "readout-server",
            "requests_served": 12,
            "stages": {"compute": {"count": 12, "p99_ms": 1.5}},
            "histograms": {"compute": {"counts": [[40, 12]]}},
        }
        assert wire.decode_metrics(wire.encode_metrics(metrics)) == metrics

    def test_metrics_request_is_a_distinct_kind(self):
        frame = wire.encode_metrics_request()
        assert wire.frame_kind(frame) == wire.METRICS_REQUEST
        assert wire.frame_kind(wire.encode_metrics({})) == wire.METRICS

    def test_metrics_kinds_are_additive_not_a_version_bump(self):
        # Old peers reject the unknown kind with a clean error instead of a
        # protocol mismatch -- the same compatibility contract INFO made.
        assert wire.WIRE_VERSION == 1
        assert (wire.METRICS_REQUEST, wire.METRICS) == (6, 7)

    def test_error_frame_reraises_from_decode_metrics(self):
        frame = wire.encode_error(RuntimeError("server on fire"))
        with pytest.raises(RuntimeError, match="server on fire"):
            wire.decode_metrics(frame)


def _frame(kind: int, header, payload: bytes = b"") -> bytes:
    """A well-framed frame around an arbitrary header and payload."""
    header_bytes = header if isinstance(header, bytes) else json.dumps(header).encode()
    prefix = wire._PREFIX.pack(
        wire.MAGIC, wire.WIRE_VERSION, kind, len(header_bytes), len(payload)
    )
    return prefix + header_bytes + payload


class TestMalformedFrames:
    """Hostile frames fail as WireFormatError, chained from the cause."""

    def _raw_request(self, shape) -> bytes:
        """A 640-byte int32 payload (four shots) under a declared ``shape``."""
        payload = np.arange(4 * 2 * 10 * 2, dtype=np.int32).tobytes()
        header = {
            "carrier": "raw",
            "array": {"dtype": "<i4", "shape": shape},
            "qubits": None,
            "output": "states",
            "dequantize": False,
            "fmt": None,
        }
        return _frame(wire.REQUEST, header, payload)

    def test_declared_shape_round_trips(self):
        request = wire.decode_request(self._raw_request([4, 2, 10, 2]))
        assert request.raw.shape == (4, 2, 10, 2)

    def test_negative_dimension_rejected(self):
        # Read as -160 elements, this used to decode three of the four shots.
        with pytest.raises(wire.WireFormatError, match="non-negative integers"):
            wire.decode_request(self._raw_request([-1, 2, 10, 2]))

    def test_non_integer_dimension_rejected(self):
        with pytest.raises(wire.WireFormatError, match="non-negative integers"):
            wire.decode_request(self._raw_request([4.0, 2, 10, 2]))

    def test_trailing_payload_bytes_rejected(self):
        # Two declared shots used to decode and silently drop 320 bytes.
        with pytest.raises(wire.WireFormatError, match="declares 320"):
            wire.decode_request(self._raw_request([2, 2, 10, 2]))

    def test_header_only_kinds_carry_no_payload(self):
        with pytest.raises(wire.WireFormatError, match="payload holds 3 bytes"):
            wire.decode_info(_frame(wire.INFO, {"info": {}}, b"xyz"))

    @pytest.mark.parametrize(
        "header", [b'{"x":"\xff"}', b"\xff\xfe{}"], ids=["utf8-in-json", "utf16"]
    )
    def test_header_must_be_utf8(self, header):
        with pytest.raises(wire.WireFormatError, match="not UTF-8 JSON") as err:
            wire.decode_request(_frame(wire.REQUEST, header))
        assert isinstance(err.value.__cause__, UnicodeDecodeError)

    @pytest.mark.parametrize("header", [[1, 2], "text", 7, None])
    def test_header_must_be_a_json_object(self, header):
        with pytest.raises(wire.WireFormatError, match="JSON object"):
            wire.decode_reply(_frame(wire.RESULT, header))

    def test_missing_key_is_chained(self):
        with pytest.raises(wire.WireFormatError, match="KeyError") as err:
            wire.decode_info(_frame(wire.INFO, {"nfo": {}}))
        assert isinstance(err.value.__cause__, KeyError)

    def test_bad_dtype_is_chained(self):
        frame = self._raw_request([4, 2, 10, 2]).replace(b'"<i4"', b'"?i4"')
        with pytest.raises(wire.WireFormatError) as err:
            wire.decode_request(frame)
        assert isinstance(err.value.__cause__, TypeError)

    def test_request_validation_failure_is_chained(self):
        frame = wire.encode_request(ReadoutRequest(traces=np.zeros((1, 1, 2, 2))))
        frame = frame.replace(b'"states"', b'"odds!!"')
        with pytest.raises(wire.WireFormatError, match="output must be") as err:
            wire.decode_request(frame)
        assert isinstance(err.value.__cause__, ValueError)

    def test_error_frames_still_raise_the_remote_exception(self):
        with pytest.raises(IndexError, match="qubit 9"):
            wire.decode_reply(wire.encode_error(IndexError("qubit 9")))
        with pytest.raises(wire.WireFormatError, match="KeyError"):
            wire.decode_reply(_frame(wire.ERROR, {"message": "no type"}))


class TestPriorityOnTheWire:
    def test_priority_rides_the_request_header(self):
        request = ReadoutRequest(
            traces=np.zeros((2, 1, 4, 2)), priority="feedback"
        )
        decoded = wire.decode_request(wire.encode_request(request))
        assert decoded.priority == "feedback"

    def test_missing_priority_defaults_to_bulk(self):
        # Frames from pre-telemetry encoders have no priority key; they must
        # decode as bulk traffic, not fail.  Re-assemble a frame with the
        # key stripped, as an old encoder would have produced it.
        request = ReadoutRequest(traces=np.zeros((2, 1, 4, 2)))
        frame = wire.encode_request(request)
        _, header, payload = wire._split(frame, expected_kind=wire.REQUEST)
        del header["priority"]
        array, _end = wire._read_array(header["array"], payload, 0, copy=True)
        stripped = wire._assemble(wire.REQUEST, header, (array,))
        assert wire.decode_request(stripped).priority == "bulk"

    def test_invalid_priority_rejected_at_construction(self):
        with pytest.raises(ValueError, match="priority"):
            ReadoutRequest(traces=np.zeros((2, 1, 4, 2)), priority="urgent")
