"""Cross-host serving: the TCP tier of the readout service.

The wire codec (:mod:`repro.engine.wire`) already makes every request and
result a self-contained binary frame; this module puts those frames on a
socket:

* :class:`ReadoutServer` -- loads an artifact bundle once and serves decoded
  requests through :meth:`~repro.engine.engine.ReadoutEngine.serve` from
  one asyncio event loop that multiplexes every connection, with engine
  work on a small thread-pool executor and graceful drain on shutdown.
  Each connection's frames are answered strictly in order.  Also answers
  INFO frames with the deployment description (qubit count, backend kind,
  shard-layout hints) so a remote front-end can plan shard placement
  without a local bundle copy.
* :class:`RemoteEngineClient` -- the blocking caller: one reused
  connection, configurable connect/request timeouts, typed transport errors
  (:class:`TransportError` and friends) for network failures, while *remote
  serving* failures re-raise with the same exception types and messages as
  local serving (the codec ships them as structured error frames).
* :class:`TcpShardTransport` -- the service's one shard transport over
  such connections, so ``ReadoutService(shard_hosts=[...])`` places its
  qubit shards on :class:`ReadoutServer`\\ s -- one address or a list of
  replicas per shard, failing over under a retry policy -- with
  micro-batching, backpressure, and stats working unchanged.

Run a server from the command line (the bundle is the one
:meth:`ReadoutEngine.save` writes)::

    PYTHONPATH=src python -m repro.service.net artifacts/readout-v1 \\
        --host 0.0.0.0 --port 7777
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import concurrent.futures
import random
import socket
import threading
import time
import uuid
from pathlib import Path

from repro.engine import wire
from repro.engine.bundle import bundle_id_of, load_manifest
from repro.engine.engine import ReadoutEngine
from repro.engine.request import ReadoutRequest, ReadoutResult
from repro.service.retry import RetryPolicy
from repro.service.sharding import replica_addresses
from repro.service.telemetry import TelemetryRecorder, new_trace_id

__all__ = [
    "TransportError",
    "TransportConnectError",
    "TransportTimeoutError",
    "AllReplicasDownError",
    "FrameAssembler",
    "ServingCore",
    "ReadoutServer",
    "RemoteEngineClient",
    "TcpShardTransport",
    "ServerProcessHandle",
    "spawn_server",
    "main",
]

#: Threads of the server's serve executor: engine work runs there so the
#: event loop never blocks on compute.
_EXECUTOR_WORKERS = 4

#: Listen backlog of the server socket.
_BACKLOG = 512

#: How long :meth:`ReadoutServer.close` waits for in-flight requests to
#: finish before closing their connections.
_DRAIN_TIMEOUT_S = 10.0

#: How many recent replies the server keeps, keyed by the idempotent
#: ``request_id`` retrying clients stamp into wire meta.  A retried request
#: whose first attempt *was* answered (the reply died with the connection)
#: replays the cached frame instead of being served twice -- the server half
#: of idempotent failover.
_REPLY_CACHE_SIZE = 256


class TransportError(RuntimeError):
    """A network-level serving failure (connection lost, peer gone).

    Distinct from *remote serving* failures, which re-raise with their
    original exception types; a ``TransportError`` means the question may
    never have reached the engine at all.
    """


class TransportConnectError(TransportError):
    """The server could not be reached (refused, unresolved, unreachable)."""


class TransportTimeoutError(TransportError):
    """The server did not answer within the configured timeout."""


class AllReplicasDownError(TransportError):
    """Every replica of a shard placement failed within the retry budget.

    :class:`~repro.service.ReadoutService` fails the requests of the
    dispatch with it, within the policy's bounded deadline -- distinct from
    a single-connection :class:`TransportError`, which the failover loop
    absorbs.
    """


def _parse_address(address, port: int | None = None) -> tuple[str, int]:
    """Normalize ``("host", port)`` / ``"host:port"`` / host+port args."""
    if port is not None:
        return str(address), int(port)
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str) and ":" in address:
        host, _, port_text = address.rpartition(":")
        return host, int(port_text)
    raise ValueError(
        f"Expected a (host, port) pair or 'host:port' string, got {address!r}"
    )


# --------------------------------------------------------------------------
# Zero-copy frame reassembly
# --------------------------------------------------------------------------


class FrameAssembler:
    """Incremental zero-copy reassembly of wire frames for ``BufferedProtocol``.

    :meth:`get_buffer` hands the event loop's ``recv_into`` a memoryview of
    exactly the bytes still missing, so received data lands directly in its
    final resting place: first a :data:`~repro.engine.wire.PREFIX_SIZE`
    scratch buffer, then -- once :func:`~repro.engine.wire.frame_total_size`
    has validated magic, version, and the allocation bound -- one exact-size
    buffer per frame.  The only copy on the path is the 18-byte prefix
    moving into the frame buffer; header and payload bytes are written once
    by the kernel and never moved again, and the completed ``bytearray``
    owns its memory, so downstream zero-copy request decoding (the NumPy
    views :func:`~repro.engine.wire.decode_request` creates) stays valid
    without another copy.
    """

    def __init__(self, max_bytes: int = wire.MAX_FRAME_BYTES) -> None:
        self._max_bytes = int(max_bytes)
        self._reset()

    def _reset(self) -> None:
        self._buffer = bytearray(wire.PREFIX_SIZE)
        self._view = memoryview(self._buffer)
        self._filled = 0
        self._total: int | None = None

    def get_buffer(self, sizehint: int) -> memoryview:
        """The writable view of the bytes still missing (never empty)."""
        return self._view[self._filled :]

    def buffer_updated(self, nbytes: int) -> bytearray | None:
        """Advance past ``nbytes`` freshly received; the completed frame, if any.

        Raises :class:`~repro.engine.wire.WireFormatError` for garbage
        prefixes (bad magic, foreign version, oversized length): a stream
        that cannot be resynced, so the caller drops the connection.
        """
        self._filled += nbytes
        if self._total is None:
            if self._filled < wire.PREFIX_SIZE:
                return None
            self._total = wire.frame_total_size(self._view, self._max_bytes)
            if self._total > self._filled:
                frame = bytearray(self._total)
                frame[: self._filled] = self._buffer
                self._buffer = frame
                self._view = memoryview(frame)
                return None
        if self._filled < self._total:
            return None
        frame = self._buffer
        self._reset()
        return frame


#: Frames smaller than this are joined into a single ``transport.write()``
#: -- for small frames one extra copy is cheaper than a syscall per chunk.
#: Larger frames keep the scatter path: their payload arrays ride as the
#: encoder's memoryviews and are never joined.
_COALESCE_BYTES = 64 * 1024


def _write_frame_chunks(transport, chunks) -> None:
    """Write one frame's chunks: coalesced when small, scattered when bulk.

    Either way every chunk goes out inside one loop callback, so frames
    written concurrently by different tasks never interleave mid-frame.
    """
    if len(chunks) > 1 and sum(map(len, chunks)) < _COALESCE_BYTES:
        transport.write(b"".join(chunks))
    else:
        for chunk in chunks:
            transport.write(chunk)


# --------------------------------------------------------------------------
# The serving core
# --------------------------------------------------------------------------


class ServingCore:
    """The I/O-agnostic heart of :class:`ReadoutServer`.

    Everything that happens between a decoded request frame and its reply
    bytes -- bundle loading, engine hot swaps, the idempotent reply cache,
    request/compute telemetry, the connection gauges -- lives here; the
    server's event loop only moves frames.

    :meth:`reply_chunks_for` returns each reply as a list of buffers
    (prefix, header, then each result array) so the server puts the bulk
    arrays on the socket without flattening them into an intermediate
    ``bytes``.  Telemetry is always on: per-request engine-compute and
    request-handling latency histograms, served through the METRICS frame.

    Thread safety: :meth:`reply_chunks_for` runs on the server's executor
    threads.  The engine reference and deployment info flip together under
    ``_swap_lock``; counters live under ``_served_lock``; the reply cache
    under ``_cache_lock``.  The connection gauges are written only on the
    server's event-loop thread and read as gauges.
    """

    def __init__(
        self, bundle_dir: str | Path, *, max_workers: int | None = None
    ) -> None:
        self.bundle_dir = Path(bundle_dir)
        self._max_workers = max_workers
        # The engine reference, deployment info, and swap counter flip
        # together under one lock (SWAP_REQUEST handling); request handlers
        # take a local engine reference under it, so an in-flight request
        # always finishes on the engine that started serving it.
        self._swap_lock = threading.Lock()
        self._engine: ReadoutEngine | None = None
        self._info: dict = {}
        self._swaps = 0
        self._requests_served = 0
        self._deduplicated_replies = 0
        # Handlers run on many threads; the counters need a lock or
        # concurrent clients under-count them.
        self._served_lock = threading.Lock()
        self._reply_cache: collections.OrderedDict[str, bytes] = (
            collections.OrderedDict()
        )
        self._cache_lock = threading.Lock()
        #: ``compute`` is the engine's own serve time; ``handle`` is the
        #: whole decode-serve-encode round inside the handler.
        self._telemetry = TelemetryRecorder(stages=("compute", "handle"))
        self._connections_open = 0
        self._connections_accepted = 0

    # ---------------------------------------------------------------- state
    @property
    def requests_served(self) -> int:
        """REQUEST frames answered since load (result or error replies)."""
        return self._requests_served

    @property
    def deduplicated_replies(self) -> int:
        """Retried requests answered from the idempotency cache."""
        return self._deduplicated_replies

    @property
    def swaps(self) -> int:
        """Completed hot bundle swaps since load."""
        return self._swaps

    def info(self) -> dict:
        """The deployment description the INFO wire frame serves."""
        with self._swap_lock:
            return dict(self._info)

    def metrics(self) -> dict:
        """The live telemetry snapshot the METRICS wire frame serves.

        Latency histograms (engine compute, whole-request handling) with
        p50/p95/p99 summaries, the served/deduplicated counters, the
        connection gauges, and the full bucket counts so a front-end can
        merge snapshots across hosts.
        """
        with self._served_lock:
            served = self._requests_served
            deduplicated = self._deduplicated_replies
        with self._swap_lock:
            swaps = self._swaps
        snapshot = self._telemetry.snapshot()
        snapshot.update(
            source="readout-server",
            requests_served=served,
            deduplicated_replies=deduplicated,
            bundle_swaps=swaps,
            connections_open=self._connections_open,
            connections_accepted=self._connections_accepted,
        )
        return snapshot

    def connection_opened(self) -> None:
        """Count one accepted connection (server loop thread only)."""
        self._connections_open += 1
        self._connections_accepted += 1

    def connection_closed(self) -> None:
        """Count one closed connection (server loop thread only)."""
        self._connections_open -= 1

    # ------------------------------------------------------------ lifecycle
    def load(self) -> None:
        """Load the bundle and reset the served counters.  Not idempotent."""
        manifest = load_manifest(self.bundle_dir)
        engine = ReadoutEngine.load(self.bundle_dir, max_workers=self._max_workers)
        with self._swap_lock:
            self._engine = engine
            self._info = self._describe(engine, manifest)
        with self._served_lock:
            self._requests_served = 0
            self._deduplicated_replies = 0

    def close(self) -> None:
        """Close the loaded engine (in-flight holders finish bit-identically)."""
        with self._swap_lock:
            engine, self._engine = self._engine, None
        if engine is not None:
            engine.close()

    def _describe(self, engine: ReadoutEngine, manifest: dict) -> dict:
        return {
            "n_qubits": engine.n_qubits,
            "backend": engine.backend_kind,
            "supports_raw": engine.supports_raw,
            "shard_layout": manifest.get("shard_layout"),
            "bundle_id": bundle_id_of(manifest),
        }

    # ------------------------------------------------------------ the cache
    def _cached_reply(self, request_id: str) -> bytes | None:
        with self._cache_lock:
            reply = self._reply_cache.get(request_id)
            if reply is not None:
                self._reply_cache.move_to_end(request_id)
        return reply

    def _cache_reply(self, request_id: str, reply: bytes) -> None:
        with self._cache_lock:
            self._reply_cache[request_id] = reply
            self._reply_cache.move_to_end(request_id)
            while len(self._reply_cache) > _REPLY_CACHE_SIZE:
                self._reply_cache.popitem(last=False)

    # ----------------------------------------------------------- dispatch
    def reply_chunks_for(self, frame) -> list:
        """Answer one frame: a list of reply buffers ready to scatter-write.

        Joined, the chunks are exactly one self-contained reply frame; kept
        apart, the result arrays cross the socket as the memoryviews
        :func:`repro.engine.wire.encode_result_chunks` produced.  Errors --
        an undecodable frame or a failed hot swap included -- travel as
        structured ERROR frames.
        """
        handle_start = time.perf_counter()
        try:
            kind = wire.frame_kind(frame)
            if kind == wire.INFO_REQUEST:
                return [wire.encode_info(self.info())]
            if kind == wire.METRICS_REQUEST:
                return [wire.encode_metrics(self.metrics())]
            if kind == wire.SWAP_REQUEST:
                return [self._handle_swap(frame)]
            if kind != wire.REQUEST:
                raise wire.WireFormatError(
                    "Readout servers answer REQUEST, INFO_REQUEST, "
                    f"METRICS_REQUEST, and SWAP_REQUEST frames, got kind {kind}"
                )
            request_meta = wire.decode_request_wire_meta(frame)
            request_id = request_meta.get("request_id")
            if request_id is not None:
                cached = self._cached_reply(str(request_id))
                if cached is not None:
                    # A failover retry of work already done: replay the
                    # answer instead of serving the same request twice.  The
                    # cached frame carries the original trace echo -- the
                    # resent frame is byte-identical, so the ids match.
                    with self._served_lock:
                        self._requests_served += 1
                        self._deduplicated_replies += 1
                    self._telemetry.count("deduplicated_replies")
                    return [cached]
            request = wire.decode_request(frame)
            # A local reference, not self._engine at call time: a concurrent
            # swap must not change which engine answers a request that has
            # already been admitted (closed engines still serve, bit-exact).
            with self._swap_lock:
                engine = self._engine
            result = engine.serve(request)
            with self._served_lock:
                self._requests_served += 1
            # Echo the request meta's trace keys: the front-end (and the
            # trace tests) read them back to prove the id crossed the wire.
            trace_keys = {
                key: request_meta[key]
                for key in ("trace_id", "trace_ids")
                if key in request_meta
            }
            self._telemetry.record("compute", result.elapsed_s)
            chunks = wire.encode_result_chunks(
                ReadoutResult(
                    qubits=result.qubits,
                    output=result.output,
                    states=result.states,
                    logits=result.logits,
                    n_shots=result.n_shots,
                    elapsed_s=result.elapsed_s,
                    meta={**result.meta, "transport": "tcp", **trace_keys},
                )
            )
            if request_id is not None:
                self._cache_reply(str(request_id), b"".join(chunks))
            self._telemetry.record("handle", time.perf_counter() - handle_start)
            return chunks
        except Exception as exc:  # noqa: BLE001 - relayed to the caller
            with self._served_lock:
                self._requests_served += 1
            self._telemetry.count("error_replies")
            return [wire.encode_error(exc)]

    def _handle_swap(self, frame) -> bytes:
        """Hot-swap to the bundle a SWAP_REQUEST names; ack with a SWAP frame.

        The candidate is fully loaded and verified *before* anything flips,
        so a broken bundle (bad checksum, wrong qubit count, mismatched
        identity) answers with an error while the old engine keeps serving
        -- the server-side half of "rollback after a failed candidate load".
        In-flight requests on other handlers finish on the engine they
        started with; the reply cache is deliberately *not* cleared, so
        idempotent retries stay answered by the engine that originally
        served them.
        """
        spec = wire.decode_swap_request(frame)
        bundle_dir = Path(spec["bundle_dir"])
        manifest = load_manifest(bundle_dir)
        bundle_id = bundle_id_of(manifest)
        expected = spec.get("expected_bundle_id")
        if expected is not None and expected != bundle_id:
            raise ValueError(
                f"Bundle at {bundle_dir} has id {bundle_id[:12]}… but the swap "
                f"request pinned {str(expected)[:12]}…; refusing to swap to an "
                "artifact that is not the one the caller verified"
            )
        engine = ReadoutEngine.load(bundle_dir, max_workers=self._max_workers)
        info = self._describe(engine, manifest)
        with self._swap_lock:
            old = self._engine
            compatible = old is None or old.n_qubits == engine.n_qubits
            if compatible:
                self._engine = engine
                self._info = info
                self.bundle_dir = bundle_dir
                self._swaps += 1
                swaps = self._swaps
        if not compatible:
            engine.close()
            raise ValueError(
                f"Bundle at {bundle_dir} serves {engine.n_qubits} qubits but "
                f"this server serves {old.n_qubits}; a hot swap cannot change "
                "the deployment shape"
            )
        if old is not None:
            # Closed engines still serve (sequentially, bit-identically), so
            # requests that took a reference before the flip finish cleanly.
            old.close()
        self._telemetry.count("bundle_swaps")
        return wire.encode_swap(
            {
                "swapped": True,
                "bundle_dir": str(bundle_dir),
                "bundle_id": bundle_id,
                "n_qubits": engine.n_qubits,
                "backend": engine.backend_kind,
                "swaps": swaps,
            }
        )


# --------------------------------------------------------------------------
# Server
# --------------------------------------------------------------------------


class _ServerProtocol(asyncio.BufferedProtocol):
    """One client connection on the server's event loop.

    Every frame is served on the executor, so a connection with several
    frames in flight (a :class:`TcpShardTransport` failover resends its
    whole backlog) overlaps their compute, but the replies are chained
    strictly FIFO -- the order the clients read them in.  The loop thread
    only moves bytes: headers are parsed on the executor.
    """

    def __init__(self, server: "ReadoutServer") -> None:
        self._server = server
        self._assembler = FrameAssembler()
        self._transport = None
        self._tasks: set[asyncio.Task] = set()
        self._fifo_tail: asyncio.Future | None = None

    # ------------------------------------------------------ protocol hooks
    def connection_made(self, transport) -> None:
        self._transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                # asyncio already sets TCP_NODELAY on TCP transports; add
                # keepalive so connections whose peer vanished without a FIN
                # are reaped instead of leaking forever.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            except OSError:  # pragma: no cover - peer already gone
                pass
        self._server._register_connection(self)

    def connection_lost(self, exc) -> None:
        for task in list(self._tasks):
            task.cancel()
        self._server._unregister_connection(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._assembler.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        try:
            frame = self._assembler.buffer_updated(nbytes)
        except wire.WireFormatError:
            # Unframeable garbage we cannot resync from: drop the connection
            # (the client sees a TransportError and may reconnect).
            self._transport.close()
            return
        if frame is not None:
            task = self._server._loop.create_task(self._serve(frame))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------ serving
    async def _serve(self, frame) -> None:
        server = self._server
        # Chain the writes so executor concurrency never reorders the
        # connection's reply stream.
        prev, done = self._fifo_tail, server._loop.create_future()
        self._fifo_tail = done
        try:
            try:
                chunks = await server._loop.run_in_executor(
                    server._executor, server._core.reply_chunks_for, frame
                )
            except RuntimeError as exc:  # executor shut down mid-drain
                chunks = [wire.encode_error(exc)]
            if prev is not None:
                await prev
            if not self._transport.is_closing():
                _write_frame_chunks(self._transport, chunks)
        finally:
            if not done.done():
                done.set_result(None)

    # ------------------------------------------------------------- draining
    def pending_tasks(self) -> list:
        return [task for task in self._tasks if not task.done()]

    def close_transport(self) -> None:
        if self._transport is not None:
            self._transport.close()


class ReadoutServer:
    """Serve an artifact bundle's engine to the network.

    One event loop (on its own thread) multiplexes every connection; engine
    work runs on a small thread-pool executor so the loop never blocks on
    compute.  Reads are zero-copy (:class:`FrameAssembler`); small reply
    frames coalesce into one ``write()`` while bulk result arrays reach the
    socket as the encoder's memoryviews.  Bundle loading, hot swaps, the
    idempotent reply cache, and telemetry live in :class:`ServingCore`.

    Parameters
    ----------
    bundle_dir:
        Artifact bundle directory (:meth:`ReadoutEngine.save`); loaded once
        at :meth:`start`.
    host / port:
        Bind address.  ``port=0`` picks a free port (read it back from
        :attr:`address` -- the loopback tests and benchmarks do).
    max_workers:
        Worker-thread cap for the loaded engine's per-qubit fan-out.

    The engine picks its own parallel/sequential path per request; listen
    backlog, drain timeout and reply-cache size are module constants; the
    latency histograms the METRICS frame serves (:meth:`metrics`,
    ``python -m repro.service.telemetry HOST:PORT``) are always recorded.
    """

    def __init__(
        self,
        bundle_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_workers: int | None = None,
    ) -> None:
        self._core = ServingCore(bundle_dir, max_workers=max_workers)
        self._requested = (host, int(port))
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._aio_server = None
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        # Touched only on the loop thread.
        self._connections: set[_ServerProtocol] = set()
        self._address: tuple[str, int] | None = None
        self._started = False
        self._closing = False
        self._closed = threading.Event()

    # ---------------------------------------------------------------- state
    @property
    def bundle_dir(self) -> Path:
        """The served bundle's directory (tracks hot swaps)."""
        return self._core.bundle_dir

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (only meaningful after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("ReadoutServer is not started")
        return self._address

    @property
    def requests_served(self) -> int:
        """REQUEST frames answered since start (result or error replies)."""
        return self._core.requests_served

    @property
    def deduplicated_replies(self) -> int:
        """Retried requests answered from the idempotency cache."""
        return self._core.deduplicated_replies

    def metrics(self) -> dict:
        """The live telemetry snapshot the METRICS wire frame serves.

        Latency histograms (engine compute, whole-request handling) with
        p50/p95/p99 summaries, the served/deduplicated counters, the
        connection gauges, and the full bucket counts so a front-end can
        merge snapshots across hosts.
        """
        return self._core.metrics()

    def _register_connection(self, conn: _ServerProtocol) -> None:
        self._connections.add(conn)
        self._core.connection_opened()

    def _unregister_connection(self, conn: _ServerProtocol) -> None:
        self._connections.discard(conn)
        self._core.connection_closed()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ReadoutServer":
        """Load the bundle, spin up the loop thread, bind.  Idempotent."""
        if self._started:
            return self
        if self._closing:
            raise RuntimeError("ReadoutServer is closed")
        self._core.load()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=_EXECUTOR_WORKERS,
            thread_name_prefix="readout-server-serve",
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="readout-server-loop", daemon=True
        )
        self._thread.start()
        try:
            self._address = asyncio.run_coroutine_threadsafe(
                self._bind(), self._loop
            ).result(30.0)
        except Exception:
            self._stop_loop()
            self._executor.shutdown(wait=False)
            self._core.close()
            raise
        self._started = True
        return self

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _bind(self) -> tuple[str, int]:
        host, port = self._requested
        self._aio_server = await self._loop.create_server(
            lambda: _ServerProtocol(self), host, port, backlog=_BACKLOG
        )
        return self._aio_server.sockets[0].getsockname()[:2]

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`close` is called."""
        self.start()
        try:
            self._closed.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            self.close()

    def close(self) -> None:
        """Graceful drain: stop accepting, let in-flight requests finish, reap.

        Requests already being served finish and their replies are written;
        connections are then closed (those still busy past
        :data:`_DRAIN_TIMEOUT_S` are closed anyway).  Idempotent; a concurrent
        caller blocks until the first close finishes.
        """
        if self._closing:
            self._closed.wait()
            return
        self._closing = True
        if self._started:
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), self._loop
                ).result(_DRAIN_TIMEOUT_S + 10.0)
            except (concurrent.futures.TimeoutError, RuntimeError):
                pass  # force the teardown below
            self._stop_loop()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._core.close()
        self._closed.set()

    async def _shutdown(self) -> None:
        if self._aio_server is not None:
            self._aio_server.close()
            await self._aio_server.wait_closed()
        deadline = self._loop.time() + _DRAIN_TIMEOUT_S
        tasks = [
            task for conn in self._connections for task in conn.pending_tasks()
        ]
        if tasks:
            await asyncio.wait(
                tasks, timeout=max(0.0, deadline - self._loop.time())
            )
        for conn in list(self._connections):
            conn.close_transport()

    def _stop_loop(self) -> None:
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10.0)
        if not self._thread.is_alive():
            self._loop.close()

    def __enter__(self) -> "ReadoutServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
# --------------------------------------------------------------------------
# Client
# --------------------------------------------------------------------------


class _FramedConnection:
    """One reusable framed socket towards a :class:`ReadoutServer`.

    Owns the connect/timeout/error-typing policy shared by
    :class:`RemoteEngineClient` and :class:`TcpShardTransport`: network
    failures surface as typed :class:`TransportError`\\ s and drop the
    connection (the next call reconnects); serving failures decoded from
    error frames re-raise as their original types and keep the connection.
    """

    def __init__(
        self, host: str, port: int, timeout: float, connect_timeout: float
    ) -> None:
        self.host, self.port = host, port
        self.timeout = float(timeout)
        self.connect_timeout = float(connect_timeout)
        self._sock: socket.socket | None = None
        self._rfile = None
        self._wfile = None
        self._lock = threading.Lock()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _ensure(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except (ConnectionError, socket.gaierror, socket.timeout, OSError) as exc:
            raise TransportConnectError(
                f"Cannot connect to readout server at {self.address}: {exc}"
            ) from exc
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb", buffering=0)
        self._wfile = sock.makefile("wb", buffering=0)

    def _send(self, frame: bytes) -> None:
        self._ensure()
        try:
            wire.write_frame(self._wfile, frame)
        except socket.timeout as exc:
            self.drop()
            raise TransportTimeoutError(
                f"Timed out sending to readout server at {self.address}"
            ) from exc
        except (ConnectionError, OSError) as exc:
            self.drop()
            raise TransportError(
                f"Connection to readout server at {self.address} failed "
                f"mid-send: {exc}"
            ) from exc

    def _receive(self) -> bytes:
        if self._sock is None:
            raise TransportError(
                f"No open connection to readout server at {self.address}"
            )
        try:
            reply = wire.read_frame(self._rfile)
        except socket.timeout as exc:
            self.drop()
            raise TransportTimeoutError(
                f"Readout server at {self.address} did not answer within "
                f"{self.timeout:g}s"
            ) from exc
        except (ConnectionError, OSError) as exc:
            self.drop()
            raise TransportError(
                f"Connection to readout server at {self.address} failed "
                f"mid-receive: {exc}"
            ) from exc
        except wire.WireFormatError:
            self.drop()
            raise
        if reply is None:
            self.drop()
            raise TransportError(
                f"Readout server at {self.address} closed the connection "
                "before answering"
            )
        return reply

    def send(self, frame: bytes) -> None:
        with self._lock:
            self._send(frame)

    def receive(self) -> bytes:
        with self._lock:
            return self._receive()

    def roundtrip(self, frame: bytes) -> bytes:
        # One lock across the send/receive pair: the reply stream is FIFO
        # and carries no job ids on this path, so two threads sharing a
        # client must not be able to interleave and swap each other's
        # answers.
        with self._lock:
            self._send(frame)
            return self._receive()

    def shutdown(self) -> None:
        """Wake a thread blocked on this socket: its read or write fails.

        Takes no lock on purpose -- a blocked :meth:`receive` holds
        ``_lock`` for as long as the reply stalls.
        """
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed underneath us
                pass

    def drop(self) -> None:
        """Forget the socket so the next call reconnects."""
        sock, self._sock = self._sock, None
        self._rfile = self._wfile = None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass


class RemoteEngineClient:
    """Speak :meth:`ReadoutEngine.serve` to a remote :class:`ReadoutServer`.

    The client-side twin of ``engine.serve()``: one reused connection,
    configurable timeouts, typed :class:`TransportError`\\ s for network
    failures -- while remote *serving* errors (shape, selection, capability)
    re-raise with exactly the types and messages local serving produces.

    Parameters
    ----------
    host / port:
        Server address; also accepts ``RemoteEngineClient("host:port")``.
    timeout:
        Per-request answer deadline (seconds).  Bulk batches on slow links
        may need more than the default 30 s.
    connect_timeout:
        Deadline for establishing the TCP connection.
    retries:
        Transparent reconnect-and-resend attempts after a dropped or stale
        pooled connection (default 1).  A server restart between requests
        leaves the client holding a dead socket; instead of failing the
        first request onto the caller, the client redials and resends --
        every request carries an idempotent ``request_id`` in wire meta, so
        a retry whose first attempt was actually served replays the cached
        answer rather than computing twice.  Timeouts and refused
        connections are **not** retried (the server is busy or gone, not
        stale).  ``0`` restores fail-fast.
    """

    def __init__(
        self,
        host,
        port: int | None = None,
        *,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        retries: int = 1,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        parsed_host, parsed_port = _parse_address(host, port)
        self._conn = _FramedConnection(parsed_host, parsed_port, timeout, connect_timeout)
        self._retries = int(retries)
        self.reconnects = 0
        self._closed = False

    @property
    def address(self) -> str:
        """The server's ``host:port``."""
        return self._conn.address

    def _roundtrip_idempotent(self, frame: bytes) -> bytes:
        """One round trip, transparently resent over a fresh connection.

        Only connection-loss failures (:class:`TransportError` that is not a
        timeout or a refusal, and mid-frame stream truncation) are retried:
        those mean the pooled socket went stale underneath us.  The frame is
        byte-identical on every attempt, so its ``request_id`` lets the
        server deduplicate.
        """
        attempts = self._retries + 1
        for attempt in range(1, attempts + 1):
            try:
                return self._conn.roundtrip(frame)
            except (TransportConnectError, TransportTimeoutError):
                raise
            except (TransportError, wire.WireFormatError):
                if attempt == attempts:
                    raise
                self.reconnects += 1
        raise AssertionError("unreachable")  # pragma: no cover

    def serve(
        self, request: ReadoutRequest, *, trace_id: str | None = None
    ) -> ReadoutResult:
        """Serve one request remotely; bit-identical to the server's engine.

        Every request is traced at this edge: ``trace_id`` (minted here when
        not supplied) rides in wire meta alongside the idempotent request id
        and comes back in ``ReadoutResult.meta["trace_id"]`` -- including
        when a reconnect-resend was answered from the server's reply cache,
        because the resent frame is byte-identical.
        """
        if self._closed:
            raise RuntimeError("RemoteEngineClient is closed")
        if not isinstance(request, ReadoutRequest):
            raise TypeError(
                f"serve() takes a ReadoutRequest, got {type(request).__name__}"
            )
        frame = wire.encode_request(
            request,
            wire_meta={
                "request_id": uuid.uuid4().hex,
                "trace_id": trace_id or new_trace_id(),
            },
        )
        return wire.decode_reply(self._roundtrip_idempotent(frame))

    def info(self) -> dict:
        """The server's deployment description (qubits, backend, shard hints)."""
        if self._closed:
            raise RuntimeError("RemoteEngineClient is closed")
        return wire.decode_info(
            self._roundtrip_idempotent(wire.encode_info_request())
        )

    def metrics(self) -> dict:
        """The server's live telemetry snapshot (the METRICS wire frame)."""
        if self._closed:
            raise RuntimeError("RemoteEngineClient is closed")
        return wire.decode_metrics(
            self._roundtrip_idempotent(wire.encode_metrics_request())
        )

    def swap(self, bundle_dir, *, expected_bundle_id: str | None = None) -> dict:
        """Ask the server to hot-swap to a new bundle (SWAP wire frames).

        ``bundle_dir`` is a path *on the server's filesystem*; pass
        ``expected_bundle_id`` (from :func:`repro.engine.bundle.bundle_id_of`
        or the registry index) to pin the swap to the exact artifact you
        verified.  A failed candidate load raises here with the server's
        original exception while the server keeps serving its old engine.
        """
        if self._closed:
            raise RuntimeError("RemoteEngineClient is closed")
        spec: dict = {"bundle_dir": str(bundle_dir)}
        if expected_bundle_id is not None:
            spec["expected_bundle_id"] = str(expected_bundle_id)
        return wire.decode_swap(
            self._roundtrip_idempotent(wire.encode_swap_request(spec))
        )

    def close(self) -> None:
        """Drop the connection.  Idempotent; later calls raise."""
        self._closed = True
        self._conn.drop()

    def __enter__(self) -> "RemoteEngineClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteEngineClient({self.address!r})"




# --------------------------------------------------------------------------
# The TCP shard transport
# --------------------------------------------------------------------------


class TcpShardTransport:
    """The shard transport: one qubit shard over TCP, with replica failover.

    One qubit shard of a :class:`~repro.service.ReadoutService`, placed on
    one or more interchangeable
    :class:`ReadoutServer`\\ s that have loaded the same bundle.
    ``addresses`` is any ``shard_hosts`` entry -- ``"host:port"``,
    ``(host, port)``, or a list of replicas
    (:func:`~repro.service.sharding.replica_addresses`).  Exactly one
    replica -- the **active** one -- carries traffic at a time, and the
    server answers each connection's frames strictly in order, so
    ``submit``/``collect`` are FIFO per shard: the front-end's batcher is
    the only producer/consumer, and the n-th collect answers the n-th
    submit.  Job ids are tracked locally (the wire does not carry them) and
    checked on collect so a protocol bug fails loudly.

    When the active replica fails (connection lost, refused, mid-frame
    truncation, or a reply slower than the per-try deadline) and the
    :class:`~repro.service.retry.RetryPolicy` has tries left, the transport
    **fails over**: it redials the next replica -- healthy ones first, per
    the optional :class:`~repro.service.health.HostPool` -- and resends
    every still-unanswered frame in order.  A frame reaches servers at most
    ``retry.attempts`` times; once its tries are spent the transport raises
    :class:`AllReplicasDownError`, which fails the service's dispatch.
    Whenever the policy can resend, frames carry an idempotent
    ``request_id`` in wire meta, so a server that already answered a
    resent frame replays its cached reply instead of serving it twice:
    failover is exactly-once from the caller's point of view.

    ``retry=None`` is fail-fast (``RetryPolicy(attempts=1)``): the first
    failure surfaces as :class:`AllReplicasDownError` saying the server
    died before answering.  With a single address, failover degenerates to
    reconnect-and-resend against a restarted placement.
    """

    name = "tcp"

    def __init__(
        self,
        shard_index: int,
        qubits: list[int],
        addresses,
        *,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        pool=None,
        seed: int | None = None,
        should_abort=None,
    ) -> None:
        self.shard_index = shard_index
        self.qubits = list(qubits)
        self.qubit_set = frozenset(self.qubits)
        self._retry = retry if retry is not None else RetryPolicy(attempts=1)
        if self._retry.try_timeout_s is not None:
            timeout = self._retry.try_timeout_s
        self._pool = pool
        self._rng = random.Random(seed)
        self._should_abort = should_abort or (lambda: False)
        self.addresses: list[str] = []
        self._conns: dict[str, _FramedConnection] = {}
        for address in replica_addresses(addresses):
            host, port = _parse_address(address)
            key = f"{host}:{port}"
            if key in self._conns:
                continue
            self.addresses.append(key)
            self._conns[key] = _FramedConnection(host, port, timeout, connect_timeout)
            if self._pool is not None:
                self._pool.add(key)
        #: Unanswered frames in submission order: ``[job_id, frame, sends]``.
        self._pending: collections.deque[list] = collections.deque()
        self._active: str | None = None
        self.counters = {"failovers": 0, "resubmissions": 0}
        self._closed = False
        # Fail at placement time, not first dispatch -- a typo'd host list
        # should abort service start-up -- but only when *no* replica is
        # reachable: the placement exists as long as one server answers.
        self._connect_any(initial=True)

    # ------------------------------------------------------------- replicas
    @property
    def address(self) -> str:
        """The active replica's ``host:port`` (falls back to the first)."""
        return self._active or self.addresses[0]

    def _candidates(self) -> list[str]:
        """Dial order: after the active replica, healthy hosts first.

        Ejected hosts stay at the back as a last resort -- a wrongly
        ejected replica must not turn a degraded shard into a dead one.
        """
        ordered = list(self.addresses)
        if self._active in ordered:
            pivot = ordered.index(self._active)
            ordered = ordered[pivot + 1 :] + ordered[: pivot + 1]
        if self._pool is not None:
            ordered = self._pool.order_by_health(ordered)
        return ordered

    def _dial_order(self, sweeps: int):
        """``sweeps`` passes over :meth:`_candidates`, backing off between."""
        for sweep in range(1, sweeps + 1):
            delay = self._retry.delay(sweep, self._rng)
            if delay:
                time.sleep(delay)
            yield from self._candidates()

    def _spent(self) -> bool:
        """Whether the oldest unanswered frame has used all of its tries.

        Every resend sweep starts at the head of the backlog, so the head
        frame is always the one sent most often.
        """
        return bool(self._pending) and self._pending[0][2] >= self._retry.attempts

    def _check_abort(self) -> None:
        if self._should_abort():
            raise TransportError(
                f"Shard {self.shard_index} aborted: the service is closing"
            )

    def _connect_any(self, initial: bool = False) -> None:
        """Dial replicas until one accepts and takes the unanswered backlog."""
        errors: list[str] = []
        for candidate in self._dial_order(1 if initial else self._retry.attempts):
            self._check_abort()
            if self._spent():
                break
            conn = self._conns[candidate]
            conn.drop()  # a stale socket to a restarted server must redial
            try:
                conn._ensure()
                for entry in self._pending:
                    entry[2] += 1
                    conn.send(entry[1])
                    self.counters["resubmissions"] += 1
            except TransportError as exc:
                errors.append(f"{candidate}: {exc}")
                if self._pool is not None:
                    self._pool.record_failure(candidate, error=str(exc))
                continue
            self._active = candidate
            return
        detail = "; ".join(errors[-len(self.addresses) :]) or "no replicas"
        if initial:
            raise TransportConnectError(
                f"Shard {self.shard_index} could not reach any of its "
                f"{len(self.addresses)} replica(s): {detail}"
            )
        # The budget is spent: the in-flight frames are being failed to
        # their callers, so drop them -- a recovered replica must start
        # from a clean FIFO, not replay requests nobody waits for.
        self._pending.clear()
        raise AllReplicasDownError(
            f"Shard {self.shard_index}: every replica failed within the "
            f"retry budget ({self._retry.attempts} attempt(s) over "
            f"{self.addresses}): {detail}"
        )

    def _failover(self, exc: Exception) -> None:
        """Move the backlog to the next replica, or fail it once tries are spent."""
        # A close() that shut the sockets down is not a replica failure.
        self._check_abort()
        if self._pool is not None and self._active is not None:
            self._pool.record_failure(self._active, error=str(exc))
        if self._spent():
            job_id = self._pending[0][0]
            self._pending.clear()  # failing the job: clean FIFO restart
            raise AllReplicasDownError(
                f"Shard {self.shard_index} server at {self.address} died "
                f"before answering job {job_id} "
                f"({self._retry.attempts} attempt(s)): {exc}"
            ) from exc
        self.counters["failovers"] += 1
        self._connect_any()

    # -------------------------------------------------------------- protocol
    def submit(
        self, job_id: int, request: ReadoutRequest, wire_meta: dict | None = None
    ) -> None:
        """Send one sub-request to the active replica (failing over if needed).

        When the policy can resend, the idempotent ``request_id`` and the
        caller's ``wire_meta`` (trace ids) share one envelope; a failover
        resends this exact frame, so both survive the resend -- and the
        reply-cache dedup -- unchanged.
        """
        if self._closed:
            raise RuntimeError(
                f"Shard {self.shard_index} transport is closed; submit() after "
                "close() is a protocol violation"
            )
        if self._retry.attempts > 1:
            wire_meta = {"request_id": uuid.uuid4().hex, **(wire_meta or {})}
        entry = [job_id, wire.encode_request(request, wire_meta), 0]
        self._pending.append(entry)
        conn = self._conns[self._active]
        if not conn.connected and len(self._pending) > 1:
            # A plain send() would redial and carry only this frame,
            # stranding the earlier pending ones sent on the lost
            # connection; the failover sweep resends the whole backlog.
            self._failover(TransportError("connection lost with frames in flight"))
            return
        entry[2] = 1
        try:
            conn.send(entry[1])
        except (TransportError, wire.WireFormatError) as exc:
            # The frame is already queued in _pending, so the failover
            # resend sweep carries it to whichever replica answers next.
            self._failover(exc)

    def collect(self, job_id: int) -> ReadoutResult:
        """Block for the response to ``job_id``, failing over on dead replicas."""
        if not self._pending:
            raise RuntimeError(
                f"Shard {self.shard_index} has no job in flight while job "
                f"{job_id} was expected; the shard protocol is out of sync"
            )
        expected = self._pending[0][0]
        if expected != job_id:
            raise RuntimeError(
                f"Shard {self.shard_index} would answer job {expected} while "
                f"job {job_id} was expected; the shard protocol is out of sync"
            )
        while True:
            # Checked after any redial: a socket dialled after close() shut
            # the others down would otherwise block for the full deadline.
            self._check_abort()
            try:
                reply = self._conns[self._active].receive()
            except (TransportError, wire.WireFormatError) as exc:
                # Includes replies slower than the per-try deadline: a slow
                # replica is failed over exactly like a dead one (the
                # request id keeps the resend idempotent).
                self._failover(exc)
                continue
            self._pending.popleft()
            if self._pool is not None:
                self._pool.record_success(self._active)
            return wire.decode_reply(reply)

    def swap(self, bundle_dir, expected_bundle_id: str | None = None) -> dict:
        """Hot-swap **every** replica's bundle; blocks for all SWAP acks.

        Called at the service's drain barrier, when this FIFO transport has
        nothing in flight -- enforced here, because a swap roundtrip racing
        request replies would desynchronize the job-id FIFO.  Replicas are
        interchangeable only while they serve the same bundle, so the swap
        must land on all of them -- a failover after a partial swap would
        silently change the answers.  Any replica that cannot be reached or
        rejects the candidate fails the whole swap with a per-replica
        breakdown; the caller decides whether to retry or roll back
        (replicas that did swap keep serving the new bundle, which is safe
        only because the caller pins ``expected_bundle_id`` and retries or
        rolls back explicitly).
        """
        if self._closed:
            raise RuntimeError(
                f"Shard {self.shard_index} transport is closed; swap() after "
                "close() is a protocol violation"
            )
        if self._pending:
            raise RuntimeError(
                f"Shard {self.shard_index} has {len(self._pending)} job(s) in "
                "flight; bundle swaps happen only at a drain barrier"
            )
        spec: dict = {"bundle_dir": str(bundle_dir)}
        if expected_bundle_id is not None:
            spec["expected_bundle_id"] = str(expected_bundle_id)
        frame = wire.encode_swap_request(spec)
        swapped: list[str] = []
        failures: list[str] = []
        for key in self.addresses:
            conn = self._conns[key]
            try:
                wire.decode_swap(conn.roundtrip(frame))
            except Exception as exc:  # noqa: BLE001 - aggregated below
                failures.append(f"{key}: {type(exc).__name__}: {exc}")
                conn.drop()
                continue
            swapped.append(key)
            if self._pool is not None:
                self._pool.record_success(key)
        if failures:
            raise TransportError(
                f"Shard {self.shard_index} bundle swap incomplete: "
                f"swapped {swapped or 'no replicas'}, failed "
                f"[{'; '.join(failures)}]"
            )
        return {"swapped": True, "replicas": swapped, "bundle_dir": str(bundle_dir)}

    def interrupt(self) -> None:
        """Wake a :meth:`collect` blocked on a stalled reply.

        Shuts every replica socket down without taking the connection
        locks; the blocked read fails into :meth:`_failover`, which aborts
        once ``should_abort`` reports the service closing.
        """
        for conn in self._conns.values():
            conn.shutdown()

    def is_alive(self) -> bool:
        """Whether the placement can still answer submitted work."""
        return not self._closed and self._active is not None

    def close(self) -> None:
        """Drop every replica connection (the remote servers keep running)."""
        self._closed = True
        self._pending.clear()
        for conn in self._conns.values():
            conn.drop()


# --------------------------------------------------------------------------
# Server-in-a-process helper (benchmarks, tests, examples)
# --------------------------------------------------------------------------


class ServerProcessHandle:
    """A :class:`ReadoutServer` running in a child process on this host."""

    def __init__(self, process, pipe, address: tuple[str, int]) -> None:
        self.process = process
        self._pipe = pipe
        self.address = address

    def close(self, timeout: float = 10.0) -> None:
        """Ask the server process to drain and exit (escalating to terminate)."""
        try:
            self._pipe.send("stop")
        except (OSError, ValueError, BrokenPipeError):  # pragma: no cover
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - hung server
            self.process.terminate()
            self.process.join(timeout)
        self._pipe.close()

    def __enter__(self) -> "ServerProcessHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _server_process_main(bundle_dir: str, host: str, port: int, pipe) -> None:
    server = ReadoutServer(bundle_dir, host=host, port=port)
    try:
        server.start()
    except Exception as exc:  # noqa: BLE001 - surfaced to the parent
        pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    pipe.send(("ok", server.address))
    try:
        pipe.recv()  # blocks until "stop" or the parent (pipe) goes away
    except EOFError:  # pragma: no cover - parent died
        pass
    server.close()


def spawn_server(
    bundle_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServerProcessHandle:
    """Run a :class:`ReadoutServer` in a daemonic child process.

    Blocks until the child has bound its socket and reports the address (or
    failed to load the bundle).  The loopback tests and examples use this so
    server and client do not share a GIL.  The child starts with the
    platform's default :mod:`multiprocessing` start method.
    """
    import multiprocessing

    parent_pipe, child_pipe = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_server_process_main,
        args=(str(bundle_dir), host, int(port), child_pipe),
        name="readout-server",
        daemon=True,
    )
    process.start()
    if not parent_pipe.poll(60.0):  # pragma: no cover - wedged child
        process.terminate()
        raise TransportError("Spawned readout server did not report an address")
    status, payload = parent_pipe.recv()
    if status != "ok":
        process.join(5.0)
        raise TransportError(f"Spawned readout server failed to start: {payload}")
    return ServerProcessHandle(process, parent_pipe, tuple(payload))


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.service.net BUNDLE [--host H] [--port P]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.net",
        description="Serve a readout artifact bundle over TCP.",
    )
    parser.add_argument("bundle", type=Path, help="artifact bundle directory")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--max-workers", type=int, default=None, help="engine worker-thread cap"
    )
    args = parser.parse_args(argv)
    server = ReadoutServer(
        args.bundle, host=args.host, port=args.port, max_workers=args.max_workers
    )
    server.start()
    host, port = server.address
    print(f"Serving {args.bundle} on {host}:{port}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
