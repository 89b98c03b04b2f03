"""The multiplexed client of the readout server: pipelined requests.

The blocking :class:`~repro.service.net.RemoteEngineClient` spends one full
round trip per request.  This module speaks to the same
:class:`~repro.service.net.ReadoutServer` over asyncio protocols and the
**same wire codec**, so the answers are bit-identical while many requests
share one socket:

* **Pipelining** -- every REQUEST carries an additive ``seq`` tag in the
  frame envelope and many requests stay in flight on one connection; the
  server serves tagged requests concurrently, replies carry the echo and
  may interleave, and the client reorders by tag (:class:`PipelineDemux`).
  Untagged peers still get strict FIFO replies, so both clients share one
  server with no codec version bump.
* :class:`AsyncRemoteEngineClient` -- the multiplexing caller:
  thread-safe ``serve()`` round trips and a pipelined ``serve_many()``
  window over one socket.  Receives are zero-copy
  (:class:`~repro.service.net.FrameAssembler`).
* ``_AsyncConnection`` -- one multiplexed connection, shared by the client
  facade and the coroutine workers of :mod:`repro.service.loadgen`.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import itertools
import socket
import threading
import uuid

from repro.engine import wire
from repro.engine.request import ReadoutRequest, ReadoutResult
from repro.service.net import (
    FrameAssembler,
    TransportConnectError,
    TransportError,
    TransportTimeoutError,
    _parse_address,
    _write_frame_chunks,
)
from repro.service.telemetry import new_trace_id

__all__ = [
    "PipelineDemux",
    "AsyncRemoteEngineClient",
]


# --------------------------------------------------------------------------
# The pipelining demultiplexer (client half of the ``seq`` envelope tag)
# --------------------------------------------------------------------------


class PipelineDemux:
    """Thread-safe ``seq -> future`` registry: where interleaved replies land.

    :meth:`register` hands out a :class:`concurrent.futures.Future` keyed by
    a request's pipeline tag and rejects duplicate in-flight tags;
    :meth:`resolve` routes a reply frame to its future by the envelope echo
    -- out-of-order arrival is the point; :meth:`discard` abandons exactly
    one tag (caller timeout or cancellation) without touching its siblings,
    and a late reply for a discarded tag is counted and dropped;
    :meth:`fail_all` fails every in-flight future with one typed error when
    the connection underneath dies.

    Futures resolve to the raw reply *frame*, not a decoded result: decoding
    (and the result-array copies it implies) happens on the waiter's thread,
    never on the I/O loop.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: dict[object, concurrent.futures.Future] = {}
        self._late_replies = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def late_replies(self) -> int:
        """Replies whose tag was already discarded (or never registered)."""
        with self._lock:
            return self._late_replies

    def register(self, seq) -> concurrent.futures.Future:
        """Claim ``seq`` and return the future its reply will resolve."""
        if seq is None:
            raise ValueError("A pipelined request needs a non-None seq tag")
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            if seq in self._pending:
                raise ValueError(
                    f"Pipeline tag seq={seq!r} is already in flight on this "
                    "connection; tags must be unique until their reply lands"
                )
            self._pending[seq] = future
        return future

    def resolve(self, frame) -> bool:
        """Route one reply frame to its in-flight future by the ``seq`` echo.

        Returns whether a waiter took the frame.  A reply with an unreadable
        header poisons the whole stream (every in-flight future fails) --
        after framing-level validation that only happens when the peer is
        not speaking this codec at all.
        """
        try:
            envelope = wire.frame_wire_meta(frame)
        except wire.WireFormatError as exc:
            self.fail_all(exc)
            return False
        seq = envelope.get("seq")
        with self._lock:
            future = self._pending.pop(seq, None)
            if future is None:
                self._late_replies += 1
        if future is None or not future.set_running_or_notify_cancel():
            return False
        future.set_result(frame)
        return True

    def fail(self, seq, exc: BaseException) -> bool:
        """Fail exactly one in-flight tag (e.g. its send never went out)."""
        with self._lock:
            future = self._pending.pop(seq, None)
        if future is None or not future.set_running_or_notify_cancel():
            return False
        future.set_exception(exc)
        return True

    def discard(self, seq) -> bool:
        """Abandon one in-flight tag; sibling requests are untouched."""
        with self._lock:
            future = self._pending.pop(seq, None)
        if future is None:
            return False
        future.cancel()
        return True

    def fail_all(self, exc: BaseException) -> int:
        """Fail every in-flight future (the connection died underneath them)."""
        with self._lock:
            pending, self._pending = self._pending, {}
        failed = 0
        for future in pending.values():
            if future.set_running_or_notify_cancel():
                future.set_exception(exc)
                failed += 1
        return failed


# --------------------------------------------------------------------------
# Client
# --------------------------------------------------------------------------


class _AsyncClientProtocol(asyncio.BufferedProtocol):
    """The loop-side receive path of one multiplexed client connection."""

    def __init__(self, conn: "_AsyncConnection") -> None:
        self._conn = conn
        self._assembler = FrameAssembler()

    def connection_made(self, transport) -> None:
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            except OSError:  # pragma: no cover - peer already gone
                pass

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._conn.assembler.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        try:
            frame = self._conn.assembler.buffer_updated(nbytes)
        except wire.WireFormatError as exc:
            self._conn.protocol_error(exc)
            return
        if frame is not None:
            self._conn.demux.resolve(frame)

    def connection_lost(self, exc) -> None:
        self._conn.connection_lost(exc)


class _AsyncConnection:
    """One multiplexed connection: demux + transport, shared by the sync
    facade (:class:`AsyncRemoteEngineClient`) and the load generator's
    coroutine workers."""

    def __init__(self, host: str, port: int, connect_timeout: float) -> None:
        self.host, self.port = host, int(port)
        self.connect_timeout = float(connect_timeout)
        self.demux = PipelineDemux()
        self.assembler = FrameAssembler()
        self._transport = None
        self._lost = False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connected(self) -> bool:
        return (
            self._transport is not None
            and not self._transport.is_closing()
            and not self._lost
        )

    async def open(self) -> "_AsyncConnection":
        loop = asyncio.get_running_loop()
        try:
            self._transport, _ = await asyncio.wait_for(
                loop.create_connection(
                    lambda: _AsyncClientProtocol(self), self.host, self.port
                ),
                self.connect_timeout,
            )
        except asyncio.TimeoutError as exc:
            raise TransportConnectError(
                f"Cannot connect to readout server at {self.address}: connect "
                f"timed out after {self.connect_timeout:g}s"
            ) from exc
        except (ConnectionError, socket.gaierror, OSError) as exc:
            raise TransportConnectError(
                f"Cannot connect to readout server at {self.address}: {exc}"
            ) from exc
        return self

    # Called on the loop thread only.
    def send_chunks(self, seq, chunks) -> None:
        transport = self._transport
        if transport is None or transport.is_closing():
            self.demux.fail(
                seq,
                TransportError(
                    f"No open connection to readout server at {self.address}"
                ),
            )
            return
        _write_frame_chunks(transport, chunks)

    # Called on the loop thread only.
    def send_batch(self, entries) -> None:
        """Write many ``(seq, chunks)`` frames in one loop callback.

        One cross-thread wake-up submits a whole pipelining burst; each
        frame still fails (or flies) under its own tag.
        """
        transport = self._transport
        if transport is None or transport.is_closing():
            exc = TransportError(
                f"No open connection to readout server at {self.address}"
            )
            for seq, _chunks in entries:
                self.demux.fail(seq, exc)
            return
        for _seq, chunks in entries:
            _write_frame_chunks(transport, chunks)

    def connection_lost(self, exc) -> None:
        self._lost = True
        self._transport = None
        detail = f": {exc}" if exc else " (closed by peer)"
        self.demux.fail_all(
            TransportError(
                f"Connection to readout server at {self.address} lost "
                f"mid-flight{detail}"
            )
        )

    def protocol_error(self, exc: BaseException) -> None:
        self.demux.fail_all(exc)
        if self._transport is not None:
            self._transport.close()

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    async def request(self, chunks, seq, timeout: float):
        """Coroutine round trip: register, send, await the tagged reply frame."""
        future = self.demux.register(seq)
        self.send_chunks(seq, chunks)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future), timeout)
        except asyncio.TimeoutError:
            self.demux.discard(seq)
            raise TransportTimeoutError(
                f"Readout server at {self.address} did not answer within "
                f"{timeout:g}s"
            ) from None


class AsyncRemoteEngineClient:
    """Multiplex many in-flight requests over one socket to a readout server.

    The pipelined twin of :class:`~repro.service.net.RemoteEngineClient`:
    every request carries a unique ``seq`` tag (plus the usual idempotent
    ``request_id`` and a trace id), so replies may interleave and are
    reordered by :class:`PipelineDemux`.  ``serve()`` is thread-safe --
    concurrent callers share the connection instead of queueing behind a
    lock -- and :meth:`serve_many` keeps a bounded window of requests in
    flight, which is where pipelining buys back the per-round-trip latency
    the blocking client pays.

    In-flight requests fail with a typed :class:`TransportError` when the
    connection dies (there is no transparent resend on the multiplexed
    path); the next call redials.  The peer is a
    :class:`~repro.service.net.ReadoutServer`, which echoes the tag.
    """

    def __init__(
        self,
        host,
        port: int | None = None,
        *,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        max_inflight: int = 64,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._host, self._port = _parse_address(host, port)
        self._timeout = float(timeout)
        self._connect_timeout = float(connect_timeout)
        self._max_inflight = int(max_inflight)
        self._seq = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._conn: _AsyncConnection | None = None
        # Guards lazy loop/connection creation across caller threads.
        self._lifecycle_lock = threading.Lock()
        self.reconnects = 0
        self._closed = False

    @property
    def address(self) -> str:
        """The server's ``host:port``."""
        return f"{self._host}:{self._port}"

    @property
    def connected(self) -> bool:
        conn = self._conn
        return conn is not None and conn.connected

    # ------------------------------------------------------------- plumbing
    def _ensure(self) -> _AsyncConnection:
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("AsyncRemoteEngineClient is closed")
            if self._loop is None:
                self._loop = asyncio.new_event_loop()
                self._thread = threading.Thread(
                    target=self._loop.run_forever,
                    name="aio-readout-client",
                    daemon=True,
                )
                self._thread.start()
            conn = self._conn
            if conn is not None and conn.connected:
                return conn
            if conn is not None:
                self.reconnects += 1
            conn = _AsyncConnection(self._host, self._port, self._connect_timeout)
            asyncio.run_coroutine_threadsafe(conn.open(), self._loop).result(
                self._connect_timeout + 10.0
            )
            self._conn = conn
            return conn

    def _begin(self):
        """Dial if needed, claim a fresh tag: ``(conn, seq, future)``."""
        conn = self._ensure()
        seq = next(self._seq)
        return conn, seq, conn.demux.register(seq)

    def _send(self, conn: _AsyncConnection, seq, chunks) -> None:
        self._loop.call_soon_threadsafe(conn.send_chunks, seq, chunks)

    def _send_batch(self, conn: _AsyncConnection, entries) -> None:
        self._loop.call_soon_threadsafe(conn.send_batch, entries)

    def _await(self, conn: _AsyncConnection, seq, future):
        try:
            return future.result(self._timeout)
        except concurrent.futures.TimeoutError:
            conn.demux.discard(seq)
            raise TransportTimeoutError(
                f"Readout server at {self.address} did not answer within "
                f"{self._timeout:g}s"
            ) from None
        except concurrent.futures.CancelledError:
            raise TransportError(
                f"Request to readout server at {self.address} was cancelled "
                "in flight"
            ) from None

    def _request_chunks(self, request: ReadoutRequest, seq, trace_id):
        return wire.encode_request_chunks(
            request,
            wire_meta={
                "seq": seq,
                "request_id": uuid.uuid4().hex,
                "trace_id": trace_id or new_trace_id(),
            },
        )

    # ---------------------------------------------------------------- calls
    def serve(
        self, request: ReadoutRequest, *, trace_id: str | None = None
    ) -> ReadoutResult:
        """Serve one request remotely; bit-identical to the server's engine.

        Thread-safe: concurrent callers pipeline over the one connection
        (their replies come back tagged, so interleaving is harmless).
        """
        if not isinstance(request, ReadoutRequest):
            raise TypeError(
                f"serve() takes a ReadoutRequest, got {type(request).__name__}"
            )
        conn, seq, future = self._begin()
        self._send(conn, seq, self._request_chunks(request, seq, trace_id))
        return wire.decode_reply(self._await(conn, seq, future))

    def serve_many(
        self,
        requests,
        *,
        max_inflight: int | None = None,
        trace_id: str | None = None,
    ) -> list[ReadoutResult]:
        """Pipeline many requests over the one connection; results in order.

        Up to ``max_inflight`` requests ride the socket concurrently -- the
        single-connection throughput path: while the server computes one
        answer, the next requests are already crossing the wire.
        Submissions go out in window-sized bursts (the window is topped back
        up once it half-drains), so a burst costs one cross-thread loop
        wake-up instead of one per request.  A failure (remote serving
        error, timeout, lost connection) abandons the remaining in-flight
        tags and re-raises; completed siblings are lost with it, so callers
        treat the batch as all-or-nothing.
        """
        requests = list(requests)
        for request in requests:
            if not isinstance(request, ReadoutRequest):
                raise TypeError(
                    "serve_many() takes ReadoutRequests, got "
                    f"{type(request).__name__}"
                )
        window = self._max_inflight if max_inflight is None else int(max_inflight)
        if window < 1:
            raise ValueError(f"max_inflight must be >= 1, got {window}")
        results: list[ReadoutResult | None] = [None] * len(requests)
        inflight: collections.deque = collections.deque()
        pending = collections.deque(enumerate(requests))
        low_water = window // 2

        def refill() -> None:
            conn = self._ensure()
            entries = []
            while pending and len(inflight) < window:
                index, request = pending.popleft()
                seq = next(self._seq)
                future = conn.demux.register(seq)
                entries.append(
                    (seq, self._request_chunks(request, seq, trace_id))
                )
                inflight.append((index, conn, seq, future))
            if entries:
                self._send_batch(conn, entries)

        def finish_one() -> None:
            index, conn, seq, future = inflight.popleft()
            results[index] = wire.decode_reply(self._await(conn, seq, future))

        try:
            refill()
            while inflight:
                finish_one()
                if pending and len(inflight) <= low_water:
                    refill()
        except BaseException:
            for _index, conn, seq, _future in inflight:
                conn.demux.discard(seq)
            raise
        return results

    def info(self) -> dict:
        """The server's deployment description (qubits, backend, shard hints)."""
        conn, seq, future = self._begin()
        self._send(conn, seq, [wire.encode_info_request(wire_meta={"seq": seq})])
        return wire.decode_info(self._await(conn, seq, future))

    def metrics(self) -> dict:
        """The server's live telemetry snapshot (the METRICS wire frame)."""
        conn, seq, future = self._begin()
        self._send(
            conn, seq, [wire.encode_metrics_request(wire_meta={"seq": seq})]
        )
        return wire.decode_metrics(self._await(conn, seq, future))

    def swap(self, bundle_dir, *, expected_bundle_id: str | None = None) -> dict:
        """Ask the server to hot-swap to a new bundle (SWAP wire frames)."""
        spec: dict = {"bundle_dir": str(bundle_dir)}
        if expected_bundle_id is not None:
            spec["expected_bundle_id"] = str(expected_bundle_id)
        conn, seq, future = self._begin()
        self._send(
            conn, seq, [wire.encode_swap_request(spec, wire_meta={"seq": seq})]
        )
        return wire.decode_swap(self._await(conn, seq, future))

    def close(self) -> None:
        """Drop the connection and stop the loop thread.  Idempotent."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            conn, self._conn = self._conn, None
            loop, thread = self._loop, self._thread
        if conn is not None and loop is not None:
            loop.call_soon_threadsafe(conn.close)
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10.0)
            if not thread.is_alive():
                loop.close()
        if conn is not None:
            conn.demux.fail_all(
                TransportError(
                    f"AsyncRemoteEngineClient to {self.address} was closed"
                )
            )

    def __enter__(self) -> "AsyncRemoteEngineClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AsyncRemoteEngineClient({self.address!r})"
