"""Shard transports: how a sub-request reaches a worker and comes back.

:class:`~repro.service.ReadoutService` splits a multiplexed request by qubit
columns; *where* each column group is served is a transport concern, not a
batching concern.  A :class:`ShardTransport` is the front-end's handle on one
placement -- submit an encoded sub-request, collect the decoded result, poll
liveness, close -- and every implementation speaks the same wire codec
(:mod:`repro.engine.wire`), so the bytes a local worker process decodes are
byte-for-byte the bytes a cross-host server would receive:

* :class:`LocalProcessTransport` -- worker **processes** on this host behind
  a request/response queue pair, with bulk frames crossing the process
  boundary through shared-memory segments (one memcpy, mapped zero-copy by
  the worker) instead of pipe pickling;
* :class:`~repro.service.net.TcpShardTransport` -- the same sub-requests
  framed onto a TCP socket towards a remote
  :class:`~repro.service.net.ReadoutServer` (one address, or a list of
  replicas it fails over between).

Both are FIFO per shard: the front-end is the only producer/consumer and the
worker serves in order, so ``collect`` returns responses in submission
order; job ids are checked anyway so a protocol bug fails loudly instead of
silently mismatching arrays.

This module holds the pieces that must be importable from a worker process:
the worker main loop and the local transport driving it.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
from dataclasses import replace
from multiprocessing import shared_memory
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.engine import wire
from repro.engine.request import ReadoutRequest, ReadoutResult

__all__ = [
    "SHM_THRESHOLD_BYTES",
    "ShardTransport",
    "WorkerDiedError",
    "LocalProcessTransport",
    "spawn_local_shards",
]


class WorkerDiedError(RuntimeError):
    """A shard worker process died before answering submitted work.

    Typed (rather than a bare ``RuntimeError``) so the service supervisor
    can tell "the placement is gone -- respawn and re-dispatch" from a
    serving error the worker *answered* with, which must surface to the
    caller untouched.
    """

#: Frames at or above this size cross the process boundary through a
#: shared-memory segment (one memcpy, mapped zero-copy by the worker)
#: instead of being pickled through the request pipe (one pickle memcpy plus
#: kernel write/read copies -- measured ~2.6 ms/MB on the CI container,
#: which would eat the micro-batching gain for bulk carrier batches).
#: Small frames stay inline: a segment per tiny request would cost more
#: in syscalls than it saves in copies.
SHM_THRESHOLD_BYTES = 1 << 18


@runtime_checkable
class ShardTransport(Protocol):
    """The front-end's handle on one shard placement.

    ``submit``/``collect`` are strictly FIFO per transport (submission order
    is response order); ``is_alive`` lets a blocked collect distinguish "the
    worker is busy" from "the worker is gone"; ``close`` releases the
    placement and makes further submits fail loudly.
    """

    shard_index: int
    qubits: list[int]

    @property
    def name(self) -> str:
        """Transport kind for observability metadata (``"local"``, ``"tcp"``)."""
        ...

    def submit(
        self, job_id: int, request: ReadoutRequest, wire_meta: dict | None = None
    ) -> None:
        """Queue one sub-request (columns already restricted to this shard).

        ``wire_meta`` is the transport envelope riding in the frame header
        (trace ids, idempotent request ids); the worker echoes its trace
        keys back in the result ``meta``.
        """
        ...

    def collect(self, job_id: int) -> ReadoutResult:
        """Block for the response to ``job_id``; re-raise remote failures."""
        ...

    def is_alive(self) -> bool:
        """Whether the placement can still answer submitted work."""
        ...

    def close(self, timeout: float = 5.0) -> None:
        """Release the placement (idempotent)."""
        ...


# --------------------------------------------------------------------------
# Frame packing across the process boundary
# --------------------------------------------------------------------------


def _pack_frame(
    chunks: list,
) -> tuple[tuple, shared_memory.SharedMemory | None]:
    """Stage a chunked wire frame for the queue: inline, or via shared memory.

    ``chunks`` is :func:`repro.engine.wire.encode_request_chunks` output; the
    chunked form lets a bulk carrier cross the process boundary with exactly
    one memcpy (scatter-written straight into the segment) instead of being
    flattened into an intermediate ``bytes`` first.  Returns the queue
    descriptor and the segment the *caller* must keep alive until the worker
    has answered (and then close+unlink).
    """
    total = sum(len(chunk) for chunk in chunks)
    if total < SHM_THRESHOLD_BYTES:
        return ("inline", b"".join(chunks)), None
    segment = shared_memory.SharedMemory(create=True, size=total)
    offset = 0
    for chunk in chunks:
        segment.buf[offset : offset + len(chunk)] = chunk
        offset += len(chunk)
    return ("shm", segment.name, total), segment


def _unpack_frame(
    descriptor: tuple,
) -> tuple[memoryview | bytes, shared_memory.SharedMemory | None]:
    """Decode a queue descriptor; returns the frame bytes and the mapping to close.

    The returned buffer is a zero-copy view into the segment: the caller must
    drop every reference to it (and every array decoded from it) before
    closing.
    """
    if descriptor[0] == "inline":
        return descriptor[1], None
    _, name, nbytes = descriptor
    segment = shared_memory.SharedMemory(name=name)
    try:
        # The attaching side must not register the segment with its resource
        # tracker: the front-end owns the lifecycle (it unlinks after the
        # response), and a second registration makes the worker's tracker
        # complain about -- or double-unlink -- an already-removed segment at
        # exit (CPython gh-82300).
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass
    return segment.buf[:nbytes], segment


# --------------------------------------------------------------------------
# The worker process
# --------------------------------------------------------------------------


def _shard_worker_main(bundle_dir: str, requests, responses) -> None:
    """Worker-process loop: load the bundle once, serve sub-requests forever.

    Every worker loads the **same artifact bundle** -- the deployment
    property the ROADMAP sharding item asks for: shards are interchangeable
    replicas of the full system that happen to be asked only about their
    qubit group (each sub-request carries its own explicit ``qubits``
    selection; the front-end owns the shard-to-group mapping).  Requests and
    responses are wire frames (:mod:`repro.engine.wire`), so this worker
    consumes exactly what a remote :class:`~repro.service.net.ReadoutServer`
    would.  It serves sequentially, without the engine's thread fan-out:
    the shards are the parallelism, one busy core each.  ``None`` on the
    request queue shuts the worker down.

    A ``("swap", bundle_dir)`` descriptor is the hot-swap control message
    (the queue-pair analogue of the TCP ``SWAP_REQUEST`` frame): the worker
    loads the new bundle, flips its engine, closes the old one, and acks
    with a SWAP frame -- or keeps the old engine and answers with the load
    error, so a broken candidate never takes a placement down.
    """
    from repro.engine.engine import ReadoutEngine

    engine = ReadoutEngine.load(bundle_dir)
    try:
        while True:
            item = requests.get()
            if item is None:
                break
            job_id, descriptor = item
            if descriptor[0] == "swap":
                new_bundle_dir = descriptor[1]
                try:
                    candidate = ReadoutEngine.load(new_bundle_dir)
                except Exception as exc:  # noqa: BLE001 - relayed to the caller
                    reply = wire.encode_error(exc)
                else:
                    engine.close()
                    engine = candidate
                    reply = wire.encode_swap(
                        {
                            "swapped": True,
                            "bundle_dir": str(new_bundle_dir),
                            "n_qubits": engine.n_qubits,
                            "backend": engine.backend_kind,
                        }
                    )
                responses.put((job_id, reply))
                continue
            segment = None
            frame = request = None
            try:
                frame, segment = _unpack_frame(descriptor)
                request = wire.decode_request(frame)
                wire_meta = wire.decode_request_wire_meta(frame)
                result = engine.serve(request, parallel=False)
                # Echo the envelope's trace keys so the front-end can prove
                # the id crossed the process boundary with the request.
                trace_keys = {
                    key: wire_meta[key]
                    for key in ("trace_id", "trace_ids")
                    if key in wire_meta
                }
                if trace_keys:
                    result = replace(
                        result, meta={**result.meta, **trace_keys}
                    )
                # The result arrays are fresh; only the request held views
                # into the segment.  Drop them before closing the mapping.
                reply = wire.encode_result(result)
            except Exception as exc:  # noqa: BLE001 - relayed to the caller
                reply = wire.encode_error(exc)
            finally:
                request = frame = None  # release views before unmapping
                if segment is not None:
                    try:
                        segment.close()
                    except BufferError:  # pragma: no cover - leaked view
                        pass
            responses.put((job_id, reply))
    finally:
        engine.close()


# --------------------------------------------------------------------------
# The local (same-host, worker-process) transport
# --------------------------------------------------------------------------


class LocalProcessTransport:
    """One worker process on this host, driven through a queue pair.

    The worker-process shard protocol on the wire codec: the submit path
    encodes the sub-request once, ships the frame inline or through a
    shared-memory segment (:data:`SHM_THRESHOLD_BYTES`), and the collect path
    decodes the worker's result/error frame -- bit-identical to in-process
    serving because the codec round-trips every array exactly.
    """

    name = "local"

    def __init__(
        self,
        shard_index: int,
        qubits: list[int],
        process: multiprocessing.Process,
        requests,
        responses,
        bundle_dir: str | None = None,
    ) -> None:
        self.shard_index = shard_index
        self.qubits = list(qubits)
        self.qubit_set = frozenset(self.qubits)
        self.process = process
        self.requests = requests
        self.responses = responses
        #: The bundle :func:`spawn_local_shards` started the worker on; kept
        #: so a supervisor can :meth:`respawn` a dead worker from the same
        #: bundle.  ``None`` disables respawning (hand-built transports).
        self._bundle_dir = bundle_dir
        self.respawns = 0
        self._inflight: dict[int, shared_memory.SharedMemory] = {}
        self._closed = False

    def submit(
        self, job_id: int, request: ReadoutRequest, wire_meta: dict | None = None
    ) -> None:
        """Queue one sub-request (columns already restricted to this shard).

        Bulk frames travel through a shared-memory segment; the segment stays
        alive -- tracked in ``_inflight`` -- until :meth:`collect` reaps the
        response.
        """
        if self._closed:
            raise RuntimeError(
                f"Shard {self.shard_index} transport is closed; submit() after "
                "close() is a protocol violation"
            )
        descriptor, segment = _pack_frame(
            wire.encode_request_chunks(request, wire_meta)
        )
        if segment is not None:
            self._inflight[job_id] = segment
        try:
            self.requests.put((job_id, descriptor))
        except (OSError, ValueError):
            # The queue raced with close(): release the staged segment and
            # surface the same loud error a late submit gets.
            self._release(job_id)
            raise RuntimeError(
                f"Shard {self.shard_index} transport is closed; submit() after "
                "close() is a protocol violation"
            ) from None

    def collect(self, job_id: int) -> ReadoutResult:
        """Block for the response to ``job_id`` and decode it.

        The wait polls worker liveness: a shard that died (bundle failed to
        load, OOM kill) raises instead of parking the batcher -- and every
        future behind it -- forever.  Remote exceptions re-raise here with
        the same types and messages as local serving
        (:func:`repro.engine.wire.decode_reply`).
        """
        try:
            while True:
                try:
                    got_id, reply = self.responses.get(timeout=1.0)
                    break
                except queue_module.Empty:
                    if not self.process.is_alive():
                        raise WorkerDiedError(
                            f"Shard {self.shard_index} worker died (exit code "
                            f"{self.process.exitcode}) before answering job "
                            f"{job_id}; check that every worker can load the "
                            "bundle"
                        ) from None
        finally:
            self._release(job_id)
        if got_id != job_id:
            raise RuntimeError(
                f"Shard {self.shard_index} answered job {got_id} while job "
                f"{job_id} was expected; the shard protocol is out of sync"
            )
        return wire.decode_reply(reply)

    def swap(self, job_id: int, bundle_dir: str | Path, timeout: float = 30.0) -> dict:
        """Ask the worker to hot-swap to ``bundle_dir``; block for the ack.

        Synchronous by design: the service only swaps at a drain barrier,
        when this FIFO transport has nothing in flight, so the next response
        *is* the swap ack.  On success the recorded spawn args are updated
        so a later :meth:`respawn` loads the new bundle; on failure the
        worker keeps serving its old engine and the load error re-raises
        here (:func:`repro.engine.wire.decode_swap`).
        """
        if self._closed:
            raise RuntimeError(
                f"Shard {self.shard_index} transport is closed; swap() after "
                "close() is a protocol violation"
            )
        self.requests.put((job_id, ("swap", str(bundle_dir))))
        deadline = timeout
        while True:
            try:
                got_id, reply = self.responses.get(timeout=1.0)
                break
            except queue_module.Empty:
                deadline -= 1.0
                if not self.process.is_alive():
                    raise WorkerDiedError(
                        f"Shard {self.shard_index} worker died (exit code "
                        f"{self.process.exitcode}) during a bundle swap"
                    ) from None
                if deadline <= 0:
                    raise TimeoutError(
                        f"Shard {self.shard_index} worker did not acknowledge "
                        f"the bundle swap within {timeout:.1f}s"
                    ) from None
        if got_id != job_id:
            raise RuntimeError(
                f"Shard {self.shard_index} answered job {got_id} while swap "
                f"job {job_id} was expected; the shard protocol is out of sync"
            )
        info = wire.decode_swap(reply)
        if self._bundle_dir is not None:
            self._bundle_dir = str(bundle_dir)
        return info

    def is_alive(self) -> bool:
        """Whether the worker process can still answer submitted work."""
        return not self._closed and self.process.is_alive()

    @property
    def can_respawn(self) -> bool:
        """Whether :meth:`respawn` can rebuild this placement from its bundle."""
        return self._bundle_dir is not None and not self._closed

    def respawn(self) -> None:
        """Replace a dead worker with a fresh one loading the same bundle.

        The supervisor's lever: the old process is reaped (terminated if it
        is somehow still alive), fresh queues are created -- in-flight jobs
        on the old queue pair are abandoned, their shared-memory segments
        released -- and a new worker starts from the recorded spawn args.
        The transport keeps its identity (shard index, qubit group), so the
        front-end re-dispatches onto it transparently.
        """
        if self._closed:
            raise RuntimeError(
                f"Shard {self.shard_index} transport is closed; respawn() "
                "after close() is a protocol violation"
            )
        if self._bundle_dir is None:
            raise RuntimeError(
                f"Shard {self.shard_index} transport was not built by "
                "spawn_local_shards and cannot respawn"
            )
        if self.process.is_alive():  # pragma: no cover - defensive reap
            self.process.terminate()
        self.process.join(5.0)
        for job_id in list(self._inflight):
            self._release(job_id)
        self.requests = multiprocessing.Queue()
        self.responses = multiprocessing.Queue()
        self.process = multiprocessing.Process(
            target=_shard_worker_main,
            args=(self._bundle_dir, self.requests, self.responses),
            name=f"readout-shard-{self.shard_index}",
            daemon=True,
        )
        self.process.start()
        self.respawns += 1

    def _release(self, job_id: int) -> None:
        segment = self._inflight.pop(job_id, None)
        if segment is not None:
            segment.close()
            segment.unlink()

    def close(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit and reap it (escalating to terminate)."""
        self._closed = True
        if self.process.is_alive():
            try:
                self.requests.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.terminate()
            self.process.join(timeout)
        for job_id in list(self._inflight):
            self._release(job_id)


def spawn_local_shards(
    bundle_dir: str | Path,
    shard_groups: list[list[int]],
) -> list[LocalProcessTransport]:
    """Start one worker process per qubit group, each loading ``bundle_dir``.

    Workers start with the platform's default :mod:`multiprocessing` start
    method and are daemonic, so an abandoned service cannot outlive its
    interpreter.
    """
    transports: list[LocalProcessTransport] = []
    for shard_index, qubits in enumerate(shard_groups):
        # Full Queues (not SimpleQueues): collect() needs timed gets to poll
        # worker liveness instead of blocking forever on a dead process.
        requests = multiprocessing.Queue()
        responses = multiprocessing.Queue()
        process = multiprocessing.Process(
            target=_shard_worker_main,
            args=(str(bundle_dir), requests, responses),
            name=f"readout-shard-{shard_index}",
            daemon=True,
        )
        process.start()
        transports.append(
            LocalProcessTransport(
                shard_index=shard_index,
                qubits=list(qubits),
                process=process,
                requests=requests,
                responses=responses,
                bundle_dir=str(bundle_dir),
            )
        )
    return transports
