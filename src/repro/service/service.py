"""The micro-batching, shardable front-end over :class:`ReadoutEngine`.

A :class:`ReadoutService` is what heavy traffic talks to.  Where the engine
answers one :class:`~repro.engine.request.ReadoutRequest` at a time, the
service accepts many small concurrent requests, coalesces compatible ones
into micro-batches on a bounded queue (``max_batch`` requests, ``max_wait_ms``
linger), and dispatches each batch to one of two placements:

* **in-process** -- straight through ``engine.serve()``, the fallback that
  is bit-identical to calling the engine directly (it *is* the engine,
  served one coalesced batch at a time);
* **TCP shards** -- split by qubit columns (``shard_hosts=[...]``), each
  group placed on one :class:`~repro.service.net.ReadoutServer` or a list
  of replicas through a :class:`~repro.service.net.TcpShardTransport`
  speaking the one wire codec (:mod:`repro.engine.wire`).  The servers may
  be other hosts or loopback processes on this one
  (:func:`~repro.service.net.spawn_server`).

Columns reassemble on the way out, so both placements are bit-identical to
one engine serving the whole request.

Micro-batching is exact, not approximate: shots are independent through the
whole datapath (the emulator chunks internally; every per-shot result is
computed from that shot alone), so serving a concatenation and slicing the
rows back apart reproduces per-request serving bit-for-bit.  Tests pin both
placements against the golden fixed-point snapshot.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import warnings
from concurrent.futures import Future, InvalidStateError
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.engine.bundle import bundle_id_of, load_manifest
from repro.engine.engine import ReadoutEngine
from repro.engine.request import (
    PRIORITY_CLASSES,
    ReadoutRequest,
    ReadoutResult,
    validate_multiplexed_payload,
)
from repro.service.health import HostPool
from repro.service.lifecycle import BundleRegistry
from repro.service.net import RemoteEngineClient, TcpShardTransport, TransportError
from repro.service.retry import RetryPolicy
from repro.service.sharding import partition_qubits, replica_addresses
from repro.service.telemetry import (
    AdmissionController,
    AdmissionError,
    TelemetryRecorder,
    new_trace_id,
)

__all__ = ["ReadoutService", "ServiceStats"]

#: Queue sentinel asking the batcher thread to exit.
_SHUTDOWN = object()

#: Queue ordering: feedback preempts bulk; the shutdown sentinel sorts last
#: so a queued backlog drains before the batcher exits (the FIFO close
#: semantics, priority-ordered).  Ties break on the submission sequence
#: number, so ordering stays FIFO within a class.
_PRIORITY_RANK = {priority: rank for rank, priority in enumerate(PRIORITY_CLASSES)}
_SHUTDOWN_RANK = len(PRIORITY_CLASSES)

#: Swap barriers ride the queue at the lowest request priority: feedback
#: entries still preempt them (and are pre-swap by definition), while the
#: already-queued bulk backlog drains first -- the drain half of the
#: drain-and-flip swap protocol.
_BARRIER_RANK = len(PRIORITY_CLASSES) - 1


class _SwapBarrier:
    """A queue item asking the batcher to run a swap plan between batches.

    The batcher dispatches micro-batches synchronously on its own thread,
    so the moment it dequeues a barrier **no micro-batch is in flight** --
    it runs ``plan()`` right there (load-verified engines flip atomically)
    and resolves ``future`` with the outcome.  ``future`` quacks enough
    like an :class:`_Entry`'s for :meth:`ReadoutService._fail_pending` to
    fail a barrier stranded by :meth:`~ReadoutService.close`.
    """

    __slots__ = ("plan", "future")

    def __init__(self, plan) -> None:
        self.plan = plan
        self.future: Future = Future()


@dataclass(frozen=True)
class ServiceStats:
    """Counters describing how the service has been serving.

    ``batches`` counts dispatches; ``coalesced_requests`` counts requests
    that shared a dispatch with at least one other request, so
    ``requests_served > batches`` (or a non-zero ``coalesced_requests``)
    is direct evidence micro-batching engaged.  ``transport`` /
    ``placements`` / ``backend`` describe where dispatches go
    (``"inprocess"`` with one placement, or ``"tcp"`` servers with one
    placement per qubit group) -- the same observability fields every
    :class:`~repro.engine.request.ReadoutResult` carries in its ``meta``.

    The resilience counters record every self-healing event: ``failovers``
    (a TCP shard switched replica), ``degraded_requests`` (requests
    answered with a recorded gap because every replica of a shard was down
    and ``degraded_ok=True``), and ``hosts_ejected`` /
    ``hosts_readmitted`` (health-pool membership changes).  All stay zero
    on a healthy deployment -- a non-zero value is direct evidence the
    corresponding recovery path ran.

    The admission counters record the bounded-latency mode
    (``slo_budget_ms``): ``shed_requests`` were rejected with
    :class:`~repro.service.telemetry.AdmissionError` because their
    predicted queue wait exceeded the budget; ``degraded_admissions`` were
    accepted but downgraded to states-only (``degraded_ok=True``) instead.

    The lifecycle counters record the zero-downtime model rollout path:
    ``bundle_swaps`` counts atomic engine flips at the drain barrier (a
    swap back to an earlier version counts as one more), and
    ``active_version`` names the version currently served (empty when the
    deployment was never swapped).

    The dataclass is frozen and every field is an immutable scalar, so a
    snapshot handed out by :attr:`ReadoutService.stats` can neither tear
    nor leak mutable live state back to the caller.
    """

    requests_served: int = 0
    batches: int = 0
    coalesced_requests: int = 0
    largest_batch_requests: int = 0
    largest_batch_shots: int = 0
    cancelled_requests: int = 0
    failovers: int = 0
    degraded_requests: int = 0
    hosts_ejected: int = 0
    hosts_readmitted: int = 0
    shed_requests: int = 0
    degraded_admissions: int = 0
    bundle_swaps: int = 0
    transport: str = "inprocess"
    placements: int = 1
    backend: str = ""
    active_version: str = ""


@dataclass
class _Entry:
    request: ReadoutRequest
    future: Future
    #: Minted at the submit edge (None with telemetry off); echoed back in
    #: ``ReadoutResult.meta["trace_id"]``.
    trace_id: str | None = None
    #: ``time.perf_counter()`` at enqueue -- the queue-wait stage clock.
    enqueued_at: float = 0.0
    #: Set when admission control degraded this request to states-only:
    #: records the original output and the predicted wait that triggered it.
    admission: dict | None = None


class ReadoutService:
    """Serve many concurrent :class:`ReadoutRequest`\\ s through one deployment.

    Parameters
    ----------
    engine:
        A live :class:`ReadoutEngine` to serve in-process.  Mutually
        exclusive with ``shard_hosts`` (remote servers cannot inherit a live
        engine; they load the bundle).
    bundle_dir:
        An artifact bundle directory (:meth:`ReadoutEngine.save`).  Without
        ``shard_hosts`` the service loads it into an in-process engine.
        With ``shard_hosts`` it is optional (used for the partition hints;
        when omitted the first host is asked for its deployment info
        instead).
    shard_hosts:
        TCP placement: one entry per qubit group, each a ``"host:port"``
        string, a ``(host, port)`` pair, or a list of such replica
        addresses, naming running :class:`~repro.service.net.ReadoutServer`\\ s
        that have each loaded the same bundle.  Every group is placed on one
        :class:`~repro.service.net.TcpShardTransport`; micro-batching,
        backpressure, and stats work unchanged.  For worker processes on
        one host, start loopback servers
        (:func:`~repro.service.net.spawn_server` or
        ``python -m repro.service.net``) and pass their addresses here --
        two replicas per shard for self-healing.
    shard_groups:
        Explicit qubit groups (one list per ``shard_hosts`` entry) overriding
        the balanced partition derived from the manifest's shard-layout
        hints.  Empty groups are dropped with a warning (an empty shard
        would be an idle placement).
    max_batch:
        Most requests coalesced into one dispatch.
    max_wait_ms:
        How long the batcher lingers for more requests once it holds one.
        ``0`` dispatches every request immediately (still through the one
        queue, preserving ordering).
    max_pending:
        Bound of the ingress queue; :meth:`submit` blocks (backpressure)
        when the queue is full.
    remote_timeout / connect_timeout:
        Per-request and connection deadlines (seconds) for ``shard_hosts``
        placements.
    retry:
        A :class:`~repro.service.retry.RetryPolicy` enabling self-healing:
        TCP shards fail over across their replicas under it (a frame
        reaches servers at most ``attempts`` times).  ``None`` makes
        single-address placements fail fast (the first failure surfaces),
        while replica lists in ``shard_hosts`` still get a default policy.
    degraded_ok:
        Opt in to partial answers: when every replica of a shard stays down
        past the retry budget, requests resolve with the healthy shards'
        columns and the gap recorded in ``ReadoutResult.meta["degraded"]``
        (missing states are ``-1``, missing logits ``NaN``) instead of
        failing.  Off by default -- unhealthy deployments fail loudly
        within the policy's bounded deadline.
    probe_interval_s:
        Period of the background health prober for remote placements
        (INFO-frame round trips through a
        :class:`~repro.service.health.HostPool`).  ``0`` (default) disables
        the prober; the pool still learns from request-path evidence.
    failover_seed:
        Seed for the backoff jitter of failover loops, so fault tests
        replay an exact schedule.  ``None`` (default) is wall-clock random.
    slo_budget_ms:
        Bounded-latency mode: when the *predicted* queue wait of a new
        request (entries ahead of it times an EWMA of per-request dispatch
        cost) exceeds this budget, :meth:`submit` sheds it with
        :class:`~repro.service.telemetry.AdmissionError` -- or, with
        ``degraded_ok=True`` and a request asking for logits, degrades it
        to states-only with the decision recorded in
        ``meta["admission"]``.  ``None`` (default) admits everything.
        ``"feedback"``-priority requests only wait behind other feedback
        requests, so they both preempt bulk traffic *and* are shed later.
    slo_initial_cost_ms:
        Seed for the per-request cost estimate (``None`` = learn from the
        first dispatch).  Deterministic admission tests and the overload
        bench set it so shed decisions do not depend on warm-up timing.
    telemetry:
        Record per-stage latency histograms and mint per-request trace ids
        (:meth:`metrics`, ``meta["trace_id"]``/``meta["stage_ms"]``).  On
        by default; ``False`` removes the instrumentation from the hot
        path (the overhead benchmark's A/B switch).  Admission control
        works either way.
    autostart:
        Start the batcher (and shards) on the first :meth:`submit`.  Pass
        False to queue requests first and :meth:`start` later -- then the
        backlog is drained in maximal micro-batches, which tests use to make
        coalescing deterministic.
    registry:
        A :class:`~repro.service.lifecycle.BundleRegistry` wiring the
        service into the model lifecycle: with no ``engine``/``bundle_dir``
        the registry's latest published version is served, and
        :meth:`swap_bundle` resolves version names through it (a hot swap
        forward, or back to an earlier version).
    """

    def __init__(
        self,
        engine: ReadoutEngine | None = None,
        bundle_dir: str | Path | None = None,
        *,
        shard_hosts: list | None = None,
        shard_groups: list[list[int]] | None = None,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_pending: int = 1024,
        remote_timeout: float = 30.0,
        connect_timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        degraded_ok: bool = False,
        probe_interval_s: float = 0.0,
        failover_seed: int | None = None,
        slo_budget_ms: float | None = None,
        slo_initial_cost_ms: float | None = None,
        telemetry: bool = True,
        autostart: bool = True,
        registry: BundleRegistry | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if slo_budget_ms is not None and slo_budget_ms <= 0:
            raise ValueError(
                "slo_budget_ms must be > 0 (or None to admit everything), "
                f"got {slo_budget_ms}"
            )
        self.registry = registry
        initial_version = ""
        if engine is None and bundle_dir is None and not shard_hosts:
            if registry is not None:
                # Serve the registry's latest published version; swap_bundle
                # moves the deployment forward as new versions land.
                initial_version = registry.latest or ""
                bundle_dir = registry.resolve()
            else:
                raise ValueError("ReadoutService needs an engine or a bundle_dir")
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self._remote_timeout = float(remote_timeout)
        self._connect_timeout = float(connect_timeout)
        self._retry = retry if retry is not None else RetryPolicy()
        self._degraded_ok = bool(degraded_ok)
        self._probe_interval_s = float(probe_interval_s)
        self._failover_seed = failover_seed
        self._autostart = bool(autostart)
        self._bundle_dir = None if bundle_dir is None else Path(bundle_dir)
        self.shard_hosts = list(shard_hosts) if shard_hosts else None
        #: Replica addresses per shard (``shard_hosts`` normalized), and
        #: whether the deployment opted into TCP failover and a host pool:
        #: explicitly (a retry policy, a probe interval) or implicitly (any
        #: shard listing more than one replica).
        self.shard_replicas = (
            None
            if self.shard_hosts is None
            else [replica_addresses(entry) for entry in self.shard_hosts]
        )
        self._replicated = self.shard_replicas is not None and (
            retry is not None
            or self._probe_interval_s > 0
            or any(len(replicas) > 1 for replicas in self.shard_replicas)
        )
        self._pool = None
        self._closing = threading.Event()

        self._engine: ReadoutEngine | None = None
        self._owns_engine = False
        self._backend_kind = ""
        if self.shard_hosts is None:
            mode = "inprocess"
            shard_groups = None  # grouping is meaningless without shards
            if engine is not None:
                self._engine = engine
            else:
                self._engine = ReadoutEngine.load(self._bundle_dir)
                self._owns_engine = True
            self._n_qubits = self._engine.n_qubits
            self._backend_kind = self._engine.backend_kind
        else:
            mode = "tcp"
            if engine is not None:
                raise ValueError(
                    "Remote sharded serving talks to running ReadoutServers; "
                    "pass shard_hosts (and optionally bundle_dir for the "
                    "partition hints) instead of a live engine"
                )
            shard_groups = self._plan_groups(shard_groups, self._deployment_layout())
            if len(shard_groups) > len(self.shard_hosts):
                # A group without a host would silently never be served (and
                # its result columns would be uninitialized memory).
                raise ValueError(
                    f"{len(shard_groups)} shard groups need {len(shard_groups)} "
                    f"shard_hosts, got {len(self.shard_hosts)}"
                )
            if len(shard_groups) < len(self.shard_hosts):
                warnings.warn(
                    f"{len(self.shard_hosts)} shard_hosts exceed the "
                    f"{len(shard_groups)} available qubit groups; the extra "
                    "hosts are left unused",
                    stacklevel=2,
                )
                self.shard_hosts = self.shard_hosts[: len(shard_groups)]
                self.shard_replicas = self.shard_replicas[: len(shard_groups)]
        self._mode = mode
        self.shard_groups = shard_groups
        #: Dispatch placements: one in-process engine, or one per shard.
        self._placements = 1 if shard_groups is None else len(shard_groups)
        self._shards: list[TcpShardTransport] = []

        # A priority queue carrying (rank, seq, entry): feedback preempts
        # bulk, the shutdown sentinel sorts behind both so a queued backlog
        # drains first, and the monotonic seq keeps FIFO order within a
        # class (and makes ties impossible, so entries never compare).
        self._queue: queue.PriorityQueue = queue.PriorityQueue(maxsize=max_pending)
        self._seq = itertools.count()
        self._batcher: threading.Thread | None = None
        self._lifecycle_lock = threading.Lock()
        self._started = False
        self._closed = False
        self._next_job_id = 0
        # All counter updates go through _bump / _update_stats under this
        # lock: ServiceStats is replaced, never mutated, so readers get an
        # immutable snapshot and writers cannot interleave read-modify-write.
        self._stats_lock = threading.Lock()
        self._stats = ServiceStats(
            transport=mode,
            placements=self._placements,
            backend=self._backend_kind,
            active_version=initial_version,
        )
        self._telemetry = TelemetryRecorder(enabled=bool(telemetry))
        self._slo_budget_s = (
            None if slo_budget_ms is None else float(slo_budget_ms) / 1000.0
        )
        self._admission = AdmissionController(
            initial_cost_s=(
                None
                if slo_initial_cost_ms is None
                else float(slo_initial_cost_ms) / 1000.0
            )
        )
        # Queued-but-not-yet-dispatched entries per priority class: the
        # depth the admission predictor multiplies by the cost estimate.
        self._admission_lock = threading.Lock()
        self._queued_depth = {priority: 0 for priority in PRIORITY_CLASSES}

    # -------------------------------------------------------------- planning
    def _deployment_layout(self) -> dict:
        """Qubit count / shard hints / backend kind of the served deployment.

        From the bundle manifest when we have one, else from the first
        remote server's deployment info -- remote placement should not
        require a local copy of the bundle.
        """
        if self._bundle_dir is not None:
            manifest = load_manifest(self._bundle_dir)
            self._backend_kind = str(manifest.get("backend", ""))
            return {
                "n_qubits": int(manifest["n_qubits"]),
                "qubit_groups": manifest.get("shard_layout", {}).get("qubit_groups"),
            }
        # Any replica of the first shard can answer the deployment question;
        # a dead first replica must not block planning when a live one exists.
        last_error: Exception | None = None
        for address in self.shard_replicas[0]:
            try:
                with RemoteEngineClient(
                    address,
                    timeout=self._remote_timeout,
                    connect_timeout=self._connect_timeout,
                ) as client:
                    info = client.info()
                break
            except Exception as exc:  # noqa: BLE001 - re-raised when all fail
                last_error = exc
        else:
            raise last_error
        self._backend_kind = str(info.get("backend", ""))
        return {
            "n_qubits": int(info["n_qubits"]),
            "qubit_groups": (info.get("shard_layout") or {}).get("qubit_groups"),
        }

    def _plan_groups(
        self, shard_groups: list[list[int]] | None, layout: dict
    ) -> list[list[int]]:
        self._n_qubits = layout["n_qubits"]
        if shard_groups is None:
            return partition_qubits(
                self._n_qubits,
                len(self.shard_hosts),
                atomic_groups=layout["qubit_groups"],
            )
        flat = sorted(q for group in shard_groups for q in group)
        if flat != list(range(self._n_qubits)):
            raise ValueError(
                "shard_groups must cover every qubit exactly once, "
                f"got {shard_groups} for {self._n_qubits} qubits"
            )
        if any(not group for group in shard_groups):
            warnings.warn(
                f"shard_groups contains empty groups ({shard_groups}); "
                "dropping them (an empty shard would be an idle placement)",
                stacklevel=3,
            )
            shard_groups = [group for group in shard_groups if group]
        return [list(group) for group in shard_groups]

    # ------------------------------------------------------------------ intro
    @property
    def n_qubits(self) -> int:
        """Qubits of the served deployment."""
        return self._n_qubits

    @property
    def sharded(self) -> bool:
        """Whether dispatches cross a shard-transport boundary."""
        return self._mode != "inprocess"

    @property
    def transport_name(self) -> str:
        """How dispatches travel: ``"inprocess"`` or ``"tcp"``."""
        return self._mode

    @property
    def stats(self) -> ServiceStats:
        """An atomic snapshot of the serving counters.

        One lock-guarded copy: every writer replaces the frozen
        :class:`ServiceStats` under the same lock, so a snapshot can never
        mix counters from two different updates -- and being frozen with
        scalar fields, it cannot leak mutable live state to the caller.
        The resilience counters are folded in live from the shard
        transports (failovers) and the host pool (ejections,
        re-admissions); :meth:`close` freezes their final values into the
        snapshot.
        """
        with self._stats_lock:
            stats = self._stats
        failovers = stats.failovers + sum(
            shard.counters["failovers"] for shard in self._shards
        )
        ejected = stats.hosts_ejected
        readmitted = stats.hosts_readmitted
        if self._pool is not None:
            ejected += self._pool.ejections
            readmitted += self._pool.readmissions
        return replace(
            stats,
            failovers=failovers,
            hosts_ejected=ejected,
            hosts_readmitted=readmitted,
        )

    def _bump(self, **deltas: int) -> None:
        """Atomically add ``deltas`` to the stats counters."""
        with self._stats_lock:
            self._stats = replace(
                self._stats,
                **{
                    name: getattr(self._stats, name) + value
                    for name, value in deltas.items()
                },
            )

    def metrics(self, *, include_remotes: bool = True) -> dict:
        """The full telemetry snapshot of this service.

        Per-stage latency histograms (:data:`~repro.service.telemetry.STAGES`:
        queue-wait, batch-assembly, shard-dispatch, wire round-trip, engine
        compute) as count/mean/p50/p95/p99 summaries plus mergeable bucket
        counts, the event counters, the :attr:`stats` snapshot, the SLO
        admission state, and -- for replicated deployments -- the host
        pool's health view.  The stage histograms are recorded on the
        service side of every dispatch, so the same five stages are
        populated whichever transport a placement uses.

        With ``include_remotes`` (the default) a TCP deployment also asks
        each configured server for its own live snapshot over a fresh
        short-lived connection (the METRICS wire frame; the shard
        connections' FIFO protocol is never touched), under
        ``"placements_metrics"`` keyed by address -- unreachable replicas
        report an ``"error"`` entry instead of failing the call.
        """
        # One read: each read of ``stats`` re-folds the live transport and
        # pool counters, so the stats, slo and lifecycle blocks must share it.
        stats = self.stats
        snapshot = self._telemetry.snapshot()
        snapshot.update(
            source="readout-service",
            transport=self._mode,
            placements=self._placements,
            stats=asdict(stats),
            slo={
                "budget_ms": (
                    None
                    if self._slo_budget_s is None
                    else self._slo_budget_s * 1e3
                ),
                "cost_estimate_ms": (
                    None
                    if self._admission.cost_s is None
                    else self._admission.cost_s * 1e3
                ),
                "shed_requests": stats.shed_requests,
                "degraded_admissions": stats.degraded_admissions,
            },
        )
        snapshot["lifecycle"] = {
            "active_version": stats.active_version or None,
            "bundle_swaps": stats.bundle_swaps,
            "registry": None if self.registry is None else str(self.registry.root),
        }
        if self._pool is not None:
            snapshot["host_pool"] = self._pool.state()
        if include_remotes and self._mode == "tcp" and not self._closed:
            remotes: dict = {}
            for replicas in self.shard_replicas:
                for address in replicas:
                    host, port = address if isinstance(address, tuple) else (
                        address, None
                    )
                    key = f"{host}:{port}" if port is not None else str(host)
                    if key in remotes:
                        continue
                    try:
                        with RemoteEngineClient(
                            address,
                            timeout=self._remote_timeout,
                            connect_timeout=self._connect_timeout,
                        ) as client:
                            remotes[key] = client.metrics()
                    except Exception as exc:  # noqa: BLE001 - dead replica
                        remotes[key] = {"error": f"{type(exc).__name__}: {exc}"}
            snapshot["placements_metrics"] = remotes
        return snapshot

    @property
    def host_pool(self):
        """The live :class:`~repro.service.health.HostPool` of a replicated
        TCP deployment (``None`` otherwise, and after :meth:`close`)."""
        return self._pool

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "ReadoutService":
        """Connect the shard transports (if any) and start the batcher thread.

        Idempotent; called automatically on the first :meth:`submit` unless
        ``autostart=False``.
        """
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("ReadoutService is closed")
            if self._started:
                return self
            if self._mode == "tcp":
                if self._replicated:
                    self._pool = HostPool(probe_interval_s=self._probe_interval_s)
                shards: list[TcpShardTransport] = []
                try:
                    for index, (replicas, group) in enumerate(
                        zip(self.shard_replicas, self.shard_groups)
                    ):
                        shards.append(
                            TcpShardTransport(
                                index,
                                group,
                                replicas,
                                timeout=self._remote_timeout,
                                connect_timeout=self._connect_timeout,
                                retry=self._retry if self._replicated else None,
                                pool=self._pool,
                                seed=(
                                    None
                                    if self._failover_seed is None
                                    else self._failover_seed + index
                                ),
                                should_abort=self._closing.is_set,
                            )
                        )
                except Exception:
                    for shard in shards:
                        shard.close()
                    if self._pool is not None:
                        self._pool.close()
                        self._pool = None
                    raise
                self._shards = shards
                if self._pool is not None:
                    self._pool.start()
            self._batcher = threading.Thread(
                target=self._batch_loop, name="readout-service-batcher", daemon=True
            )
            self._batcher.start()
            self._started = True
        return self

    def close(self) -> None:
        """Stop serving: fail pending requests, disconnect.

        Idempotent.  In-process, the queued backlog drains before the
        batcher exits.  On TCP placements the shard sockets are shut down
        first, so a stalled server cannot hold close() up: in-flight and
        queued requests fail with a
        :class:`~repro.service.net.TransportError`.  A user-supplied engine
        is left open (the caller owns it); a bundle-loaded engine is closed
        and every shard connection is dropped (the servers keep running).
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        # Raise the closing flag *before* joining the batcher, then wake a
        # collect blocked on a stalled reply: the failed read reaches the
        # failover loop, which sees the flag and aborts (failing its
        # futures) instead of waiting out the per-try deadline and the
        # retry budget while close() waits on the join.
        self._closing.set()
        for shard in self._shards:
            shard.interrupt()
        if started:
            self._queue.put((_SHUTDOWN_RANK, next(self._seq), _SHUTDOWN))
            self._batcher.join()
        self._fail_pending(RuntimeError("ReadoutService was closed"))
        # Freeze the live resilience counters into the final snapshot
        # before the transports (and pool) they are scraped from go away.
        final = self.stats
        with self._stats_lock:
            self._stats = final
        for shard in self._shards:
            shard.close()
        self._shards = []
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._owns_engine and self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "ReadoutService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------- model lifecycle
    def _resolve_swap_target(self, version, bundle_dir) -> tuple[str, str, Path]:
        """Resolve a swap request to ``(name, bundle_id, directory)``.

        Registry versions are checksum-re-verified by ``resolve``; explicit
        directories are at least manifest-checked here (the engine load
        verifies the payloads).  Validation happens *before* anything flips,
        so a bad target is a no-op, not a broken deployment.
        """
        if bundle_dir is not None and version is not None:
            raise ValueError(
                "swap_bundle takes a registry version OR an explicit "
                "bundle_dir, not both"
            )
        if bundle_dir is None:
            if self.registry is None:
                raise ValueError(
                    "swap_bundle(version=...) needs a registry; construct "
                    "the service with registry=... or pass bundle_dir="
                )
            name = version if version is not None else self.registry.latest
            directory = self.registry.resolve(version)
            manifest = load_manifest(directory)
            bundle_id = self.registry.bundle_id(name)
        else:
            directory = Path(bundle_dir)
            manifest = load_manifest(directory)
            bundle_id = bundle_id_of(manifest)
            name = directory.name
        n_qubits = int(manifest["n_qubits"])
        if n_qubits != self._n_qubits:
            raise ValueError(
                f"Bundle {name!r} serves {n_qubits} qubits but this service "
                f"serves {self._n_qubits}; a hot swap cannot change the "
                "deployment shape"
            )
        return str(name), bundle_id, directory

    def swap_bundle(
        self,
        version: str | None = None,
        *,
        bundle_dir: str | Path | None = None,
        timeout_s: float = 60.0,
    ) -> dict:
        """Swap the served model to a new bundle with zero dropped requests.

        A barrier rides the request queue behind the already-queued backlog;
        when the batcher reaches it no micro-batch is in flight, and the new
        engine -- loaded and checksum-verified there, before anything flips
        -- replaces the old one atomically.  Every request submitted before
        the swap is answered bit-identically by the old engine, every one
        after by the new (in-process directly; TCP placements via the
        ``SWAP_REQUEST`` wire frame, pinned to this bundle's id).  A
        candidate that fails to load raises here and changes nothing -- the
        old engine keeps serving.

        A swap before :meth:`start` starts the service first, so it takes
        the same barrier: requests queued under ``autostart=False`` are
        answered by the old bundle, and every shard is dialled before it is
        told to swap.  To roll a bundle back, swap back to its predecessor.

        ``version`` names a registry version (``None`` = latest) when the
        service holds a registry; ``bundle_dir`` swaps to an explicit
        bundle directory instead.  Returns a summary dict.
        """
        name, bundle_id, directory = self._resolve_swap_target(version, bundle_dir)
        self.start()
        barrier = _SwapBarrier(lambda: self._apply_swap(name, bundle_id, directory))
        self._queue.put((_BARRIER_RANK, next(self._seq), barrier))
        if self._closed:
            # Raced with close(): make sure the barrier cannot sit
            # unresolved if the batcher is already gone (mirrors submit()).
            self._fail_pending(RuntimeError("ReadoutService was closed"))
        return barrier.future.result(timeout=timeout_s)

    def _apply_swap(self, name: str, bundle_id: str, directory: Path) -> dict:
        """The flip itself: runs on the batcher at the drain barrier.

        Per placement: in-process adopts a freshly loaded engine and closes
        the old one; TCP placements swap through SWAP_REQUEST frames pinned
        to ``bundle_id``.  A load failure raises *before* anything changed
        in-process; for TCP placements the failing shard keeps its old
        engine and the error surfaces to the swap caller with earlier shards
        already swapped -- re-issue the swap (idempotent) or swap back to
        recover.
        """
        if self._mode == "inprocess":
            candidate = ReadoutEngine.load(directory)
            old = self._engine
            owned = self._owns_engine
            self._engine = candidate
            self._owns_engine = True
            if owned and old is not None:
                # In-flight requests cannot exist here (drain barrier), and
                # closed engines would still serve bit-identically anyway.
                old.close()
        else:
            for shard in self._shards:
                shard.swap(str(directory), expected_bundle_id=bundle_id)
        self._bundle_dir = directory
        with self._stats_lock:
            self._stats = replace(
                self._stats,
                bundle_swaps=self._stats.bundle_swaps + 1,
                active_version=name,
            )
        self._telemetry.count("bundle_swaps")
        return {
            "swapped": True,
            "version": name,
            "bundle_id": bundle_id,
            "bundle_dir": str(directory),
            "transport": self._mode,
            "placements": self._placements,
        }

    # ---------------------------------------------------------------- serving
    def submit(
        self, request: ReadoutRequest, *, trace_id: str | None = None
    ) -> Future:
        """Queue one request; returns a future resolving to its :class:`ReadoutResult`.

        Blocks (backpressure) while the ingress queue holds ``max_pending``
        requests.  Shape/selection errors that need no backend are raised
        here synchronously, so a malformed request cannot poison the
        micro-batch it would have joined.  Cancelling the returned future
        before its batch dispatches removes it from the batch (asyncio
        callers get this through :meth:`aserve`).

        ``trace_id`` threads a caller-minted trace id through the request
        (one is minted here otherwise, telemetry permitting); it travels in
        the wire ``meta`` across every placement and comes back in
        ``ReadoutResult.meta["trace_id"]``.  Under ``slo_budget_ms`` the
        request may be shed here with
        :class:`~repro.service.telemetry.AdmissionError` -- before it is
        queued, so a shed request costs the caller nothing but the check.
        ``request.priority`` orders the queue: ``"feedback"`` entries
        dispatch before queued ``"bulk"`` entries.
        """
        if self._closed:
            raise RuntimeError("ReadoutService is closed")
        if not isinstance(request, ReadoutRequest):
            raise TypeError(
                f"submit() takes a ReadoutRequest, got {type(request).__name__}"
            )
        self._validate(request)
        if self._autostart and not self._started:
            self.start()
        if trace_id is None and self._telemetry.enabled:
            trace_id = new_trace_id()
        admission = self._admit(request, trace_id)
        if admission is not None:
            request = replace(request, output="states")
        future: Future = Future()
        entry = _Entry(
            request=request,
            future=future,
            trace_id=trace_id,
            enqueued_at=time.perf_counter(),
            admission=admission,
        )
        with self._admission_lock:
            self._queued_depth[request.priority] += 1
        self._queue.put(
            (_PRIORITY_RANK[request.priority], next(self._seq), entry)
        )
        if self._closed:
            # Raced with close(): the batcher (and its drain) may already be
            # gone, so make sure this entry cannot sit unresolved forever.
            self._fail_pending(RuntimeError("ReadoutService was closed"))
        return future

    def _admit(self, request: ReadoutRequest, trace_id: str | None) -> dict | None:
        """The SLO admission decision: admit, degrade, or shed.

        Predicts this request's queue wait as (entries it must wait behind)
        x (EWMA per-request dispatch cost).  A ``"feedback"`` request only
        waits behind queued feedback entries -- the priority queue
        dispatches it past bulk traffic -- so it is both served first and
        shed last.  Returns ``None`` (admitted untouched) or the record to
        stamp into ``meta["admission"]`` (admitted, degraded to
        states-only); raises :class:`AdmissionError` when the wait exceeds
        the budget and degrading is not allowed.
        """
        if self._slo_budget_s is None:
            return None
        rank = _PRIORITY_RANK[request.priority]
        with self._admission_lock:
            depth = sum(
                self._queued_depth[priority]
                for priority in PRIORITY_CLASSES
                if _PRIORITY_RANK[priority] <= rank
            )
        predicted = self._admission.predicted_wait_s(depth)
        if predicted <= self._slo_budget_s:
            return None
        predicted_ms = predicted * 1e3
        budget_ms = self._slo_budget_s * 1e3
        if self._degraded_ok and request.output != "states":
            self._bump(degraded_admissions=1)
            self._telemetry.count("degraded_admissions")
            return {
                "degraded_to": "states",
                "original_output": request.output,
                "predicted_wait_ms": predicted_ms,
                "budget_ms": budget_ms,
            }
        self._bump(shed_requests=1)
        self._telemetry.count("shed_requests")
        raise AdmissionError(
            f"predicted queue wait {predicted_ms:.1f} ms exceeds the "
            f"{budget_ms:.1f} ms SLO budget ({depth} queued request(s) "
            "ahead)",
            trace_id=trace_id,
            predicted_wait_ms=predicted_ms,
            budget_ms=budget_ms,
        )

    def serve(self, request: ReadoutRequest) -> ReadoutResult:
        """Submit one request and block for its result."""
        return self.submit(request).result()

    async def aserve(self, request: ReadoutRequest) -> ReadoutResult:
        """Async form of :meth:`serve` for asyncio front-ends.

        Submission happens on the calling thread (it can block briefly under
        backpressure); completion is awaited without blocking the loop.
        Cancelling the awaiting task cancels the queued request: if its
        batch has not dispatched yet it is dropped from the batch.
        """
        import asyncio

        return await asyncio.wrap_future(self.submit(request))

    def _validate(self, request: ReadoutRequest) -> None:
        """Engine-independent request validation (the shared error path)."""
        selected = (
            range(self._n_qubits) if request.qubits is None else request.qubits
        )
        for qubit in selected:
            if not 0 <= qubit < self._n_qubits:
                raise IndexError(f"qubit_index {qubit} out of range")
        validate_multiplexed_payload(
            request.payload, len(tuple(selected)), raw=request.is_raw
        )

    # ----------------------------------------------------------- batcher loop
    def _pop_entry(self, item) -> _Entry:
        """Unwrap a ``(rank, seq, entry)`` queue item, keeping depth books.

        The dequeued entry is no longer *ahead of* anyone, so the admission
        predictor's per-class depth drops here, symmetrically with the
        increment in :meth:`submit`.
        """
        entry = item[2]
        with self._admission_lock:
            self._queued_depth[entry.request.priority] -= 1
        return entry

    def _batch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item[2] is _SHUTDOWN:
                return
            if isinstance(item[2], _SwapBarrier):
                # Nothing is in flight (this thread does the dispatching),
                # so this IS the drain barrier: run the flip right here.
                self._run_swap(item[2])
                continue
            entries = [self._pop_entry(item)]
            deadline = time.monotonic() + self.max_wait_s
            shutdown = False
            barrier: _SwapBarrier | None = None
            while len(entries) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # One last non-blocking sweep: a backlog that is already
                    # queued should coalesce even when the linger budget is 0.
                    remaining = None
                try:
                    nxt = (
                        self._queue.get_nowait()
                        if remaining is None
                        else self._queue.get(timeout=remaining)
                    )
                except queue.Empty:
                    break
                if nxt[2] is _SHUTDOWN:
                    shutdown = True
                    break
                if isinstance(nxt[2], _SwapBarrier):
                    # The batch collected so far is pre-swap traffic: serve
                    # it on the old engine first, then flip.
                    barrier = nxt[2]
                    break
                entries.append(self._pop_entry(nxt))
            self._serve_entries(entries)
            if barrier is not None:
                self._run_swap(barrier)
            if shutdown:
                return

    def _run_swap(self, barrier: _SwapBarrier) -> None:
        """Execute a swap plan on the batcher thread and resolve its future."""
        try:
            outcome = barrier.plan()
        except BaseException as exc:  # noqa: BLE001 - belongs to the waiter
            try:
                barrier.future.set_exception(exc)
            except InvalidStateError:  # pragma: no cover - close() raced us
                pass
            return
        try:
            barrier.future.set_result(outcome)
        except InvalidStateError:  # pragma: no cover - close() raced us
            pass

    def _serve_entries(self, entries: list[_Entry]) -> None:
        # Claim every future first: one that was cancelled while queued
        # (aserve cancellation) drops out of its batch here, and the claim
        # makes later set_result/set_exception calls race-free.
        live = []
        cancelled = 0
        for entry in entries:
            try:
                if entry.future.set_running_or_notify_cancel():
                    live.append(entry)
                else:
                    cancelled += 1
            except (RuntimeError, InvalidStateError):
                # Already resolved (failed by the close()-race drain):
                # nothing to serve -- and not a caller cancellation, so it
                # must not inflate the counter.  set_running_or_notify_cancel
                # raises a plain RuntimeError for non-pending futures, and a
                # dead batcher would strand every queued request.
                pass
        if cancelled:
            self._bump(cancelled_requests=cancelled)
        groups: dict[tuple, list[_Entry]] = {}
        for entry in live:
            groups.setdefault(self._compat_key(entry.request), []).append(entry)
        for group in groups.values():
            try:
                self._serve_group(group)
            except Exception as exc:  # noqa: BLE001 - failure belongs to the futures
                for entry in group:
                    if not entry.future.done():
                        entry.future.set_exception(exc)

    @staticmethod
    def _compat_key(request: ReadoutRequest) -> tuple:
        """Requests with equal keys can share one dispatch (concat along shots)."""
        payload = request.payload
        return (
            request.is_raw,
            request.output,
            request.qubits,
            payload.shape[1:],
            payload.dtype.str,
            request.dequantize,
            request.fmt,
        )

    def _serve_group(self, group: list[_Entry]) -> None:
        # Stage clocks: queue-wait ends for every entry the moment its
        # group is picked up; batch-assembly is the concatenation work;
        # the dispatch interval feeds both the admission cost EWMA and the
        # shard/wire/compute stages recorded inside _dispatch.
        t0 = time.perf_counter()
        if self._telemetry.enabled:
            for entry in group:
                if entry.enqueued_at:
                    self._telemetry.record("queue", t0 - entry.enqueued_at)
        trace_ids = [entry.trace_id for entry in group]
        if len(group) == 1:
            entry = group[0]
            assembled = time.perf_counter()
            batch_s = assembled - t0
            self._telemetry.record("batch", batch_s)
            result = self._dispatch(entry.request, trace_ids)
            self._admission.observe(1, time.perf_counter() - assembled)
            degraded = 1 if result.meta.get("degraded") else 0
            queue_s = t0 - entry.enqueued_at if entry.enqueued_at else 0.0
            entry.future.set_result(
                replace(
                    result,
                    meta=self._finish_meta(
                        result.meta, entry, 0, queue_s, batch_s
                    ),
                )
            )
            batch_shots = result.n_shots
        else:
            batch = np.concatenate([entry.request.payload for entry in group], axis=0)
            batch_request = group[0].request.with_payload(batch)
            assembled = time.perf_counter()
            batch_s = assembled - t0
            self._telemetry.record("batch", batch_s)
            batch_result = self._dispatch(batch_request, trace_ids)
            self._admission.observe(len(group), time.perf_counter() - assembled)
            offset = 0
            for index, entry in enumerate(group):
                shots = entry.request.payload.shape[0]
                rows = slice(offset, offset + shots)
                offset += shots
                queue_s = t0 - entry.enqueued_at if entry.enqueued_at else 0.0
                entry.future.set_result(
                    replace(
                        batch_result,
                        states=None if batch_result.states is None
                        else batch_result.states[rows],
                        logits=None if batch_result.logits is None
                        else batch_result.logits[rows],
                        n_shots=shots,
                        meta={
                            **self._finish_meta(
                                batch_result.meta, entry, index, queue_s, batch_s
                            ),
                            "microbatch_requests": len(group),
                            "microbatch_shots": int(batch.shape[0]),
                        },
                    )
                )
            batch_shots = int(batch.shape[0])
            degraded = len(group) if batch_result.meta.get("degraded") else 0
        # One lock-guarded read-modify-write: submitters bump the admission
        # counters concurrently, and a snapshot read outside the lock would
        # silently roll their bumps back.
        with self._stats_lock:
            stats = self._stats
            self._stats = replace(
                stats,
                requests_served=stats.requests_served + len(group),
                batches=stats.batches + 1,
                coalesced_requests=stats.coalesced_requests
                + (len(group) if len(group) > 1 else 0),
                largest_batch_requests=max(stats.largest_batch_requests, len(group)),
                largest_batch_shots=max(stats.largest_batch_shots, batch_shots),
                degraded_requests=stats.degraded_requests + degraded,
            )

    def _finish_meta(
        self,
        meta: dict,
        entry: _Entry,
        index: int,
        queue_s: float,
        batch_s: float,
    ) -> dict:
        """Per-entry result ``meta``: trace id, stage timings, admission.

        The trace id prefers the transport-echoed ``trace_ids`` list (proof
        the id crossed the wire and came back) over the locally remembered
        one; both are the same value on a healthy path.  ``stage_ms`` gets
        this entry's own queue wait on top of the batch-wide stages.
        """
        out = dict(meta)
        echoed = out.pop("trace_ids", None)
        trace = (
            echoed[index]
            if echoed and index < len(echoed)
            else entry.trace_id
        )
        if trace is not None:
            out["trace_id"] = trace
        if self._telemetry.enabled:
            stage_ms = dict(out.get("stage_ms") or {})
            stage_ms["queue"] = queue_s * 1e3
            stage_ms["batch"] = batch_s * 1e3
            out["stage_ms"] = stage_ms
        if entry.admission is not None:
            out["admission"] = dict(entry.admission)
        return out

    # --------------------------------------------------------------- dispatch
    def _dispatch(
        self, request: ReadoutRequest, trace_ids: list | None = None
    ) -> ReadoutResult:
        if not self.sharded:
            started = time.perf_counter()
            result = self._engine.serve(request)
            meta = {**result.meta, "shards": 0, "transport": "inprocess"}
            if self._telemetry.enabled:
                dispatch_s = time.perf_counter() - started
                compute_s = float(result.elapsed_s)
                # No wire in-process: the honest remainder is dispatch
                # overhead around the engine call, ~0 by construction.
                wire_s = max(0.0, dispatch_s - compute_s)
                self._telemetry.record("shard", dispatch_s)
                self._telemetry.record("compute", compute_s)
                self._telemetry.record("wire", wire_s)
                meta["stage_ms"] = {
                    "shard": dispatch_s * 1e3,
                    "wire": wire_s * 1e3,
                    "compute": compute_s * 1e3,
                }
                if any(trace_id is not None for trace_id in trace_ids or ()):
                    meta["trace_ids"] = list(trace_ids)
            return replace(result, meta=meta)
        return self._dispatch_sharded(request, trace_ids)

    def _dispatch_sharded(
        self, request: ReadoutRequest, trace_ids: list | None = None
    ) -> ReadoutResult:
        """Split a request by qubit columns, serve per shard, reassemble.

        Each shard receives only its columns of the payload (sliced, hence
        copied -- exactly the bytes that cross the transport boundary) with
        the matching explicit ``qubits`` selection, so the placed engine
        computes the same per-qubit results the in-process path would.
        """
        start = time.perf_counter()
        selected = (
            list(range(self._n_qubits))
            if request.qubits is None
            else list(request.qubits)
        )
        payload = request.payload
        plan: list[tuple[TcpShardTransport, list[int]]] = []
        for shard in self._shards:
            columns = [
                column for column, qubit in enumerate(selected)
                if qubit in shard.qubit_set
            ]
            if columns:
                plan.append((shard, columns))
        self._next_job_id += 1
        job_id = self._next_job_id
        submitted: list[tuple[TcpShardTransport, list[int]]] = []
        # A failed submit (every replica of the shard down) does not abort
        # the dispatch on the spot: the failure is carried to the same
        # degrade-or-raise decision the collect failures reach, and the
        # successfully submitted shards are *always* collected first -- an
        # uncollected response would desynchronize the per-shard FIFO
        # protocol for the next request.
        failures: list[tuple[list[int], TcpShardTransport, Exception]] = []
        # The trace ids ride the wire meta of every shard's REQUEST frame
        # (and every failover resend of it), so the placed server can echo
        # them back -- the propagation proof the trace tests pin.
        wire_meta = (
            {"trace_ids": list(trace_ids)}
            if trace_ids and any(t is not None for t in trace_ids)
            else None
        )
        submit_times: dict[int, float] = {}
        for shard, columns in plan:
            sub_request = request.with_payload(
                payload[:, columns],
                qubits=tuple(selected[column] for column in columns),
            )
            try:
                shard.submit(job_id, sub_request, wire_meta)
            except Exception as exc:  # noqa: BLE001 - degraded or re-raised
                failures.append((columns, shard, exc))
                continue
            submit_times[id(shard)] = time.perf_counter()
            submitted.append((shard, columns))
        want_states = request.output in ("states", "both")
        want_logits = request.output in ("logits", "both")
        n_shots = int(payload.shape[0])
        states = (
            np.empty((n_shots, len(selected)), dtype=np.int64) if want_states else None
        )
        logits = (
            np.empty((n_shots, len(selected)), dtype=np.float64)
            if want_logits
            else None
        )
        backend_kind = self._backend_kind
        echoed_trace_ids = None
        max_compute_s = 0.0
        for shard, columns in submitted:
            try:
                shard_result = shard.collect(job_id)
            except Exception as exc:  # noqa: BLE001 - degraded or re-raised
                failures.append((columns, shard, exc))
                continue
            if self._telemetry.enabled:
                # Wire cost of this shard: its submit-to-collect round trip
                # minus the time its engine spent computing.  Collects are
                # sequential, so later shards' round trips include overlap
                # with earlier ones -- each is still the latency that shard
                # imposed on the dispatch.
                roundtrip_s = time.perf_counter() - submit_times[id(shard)]
                compute_s = float(shard_result.elapsed_s)
                max_compute_s = max(max_compute_s, compute_s)
                self._telemetry.record("compute", compute_s)
                self._telemetry.record("wire", max(0.0, roundtrip_s - compute_s))
            if echoed_trace_ids is None:
                echoed_trace_ids = shard_result.meta.get("trace_ids")
            if want_states:
                states[:, columns] = shard_result.states
            if want_logits:
                logits[:, columns] = shard_result.logits
            backend_kind = shard_result.meta.get("backend", backend_kind)
        meta = {
            "backend": backend_kind,
            "shards": len(plan),
            "transport": self.transport_name,
        }
        if self._telemetry.enabled:
            dispatch_s = time.perf_counter() - start
            self._telemetry.record("shard", dispatch_s)
            meta["stage_ms"] = {
                "shard": dispatch_s * 1e3,
                # Shards compute in parallel: the batch pays the slowest
                # one; the rest of the dispatch interval is wire + scatter
                # and gather around it.
                "compute": max_compute_s * 1e3,
                "wire": max(0.0, dispatch_s - max_compute_s) * 1e3,
            }
        if echoed_trace_ids is not None:
            meta["trace_ids"] = list(echoed_trace_ids)
        elif wire_meta is not None:
            meta["trace_ids"] = list(trace_ids)
        if failures:
            meta["degraded"] = self._degrade(
                failures, plan, selected, states, logits
            )
        return ReadoutResult(
            qubits=tuple(selected),
            output=request.output,
            states=states,
            logits=logits,
            n_shots=n_shots,
            elapsed_s=time.perf_counter() - start,
            meta=meta,
        )

    # ------------------------------------------------------------- resilience
    def _degrade(
        self,
        failures: list,
        plan: list,
        selected: list[int],
        states,
        logits,
    ) -> dict:
        """Fill the failed shards' columns or re-raise, per ``degraded_ok``.

        Degradation is reserved for *placement* failures (every replica of
        a shard down) with at least one healthy shard and a service that is
        not closing; anything else -- a deterministic serving error, a fully
        dark deployment -- surfaces as the failure it is.
        """
        recoverable = all(isinstance(exc, TransportError) for _, _, exc in failures)
        if (
            not self._degraded_ok
            or not recoverable
            or len(failures) >= len(plan)
            or self._closing.is_set()
        ):
            raise failures[0][2]
        gap_qubits: list[int] = []
        for columns, _shard, _exc in failures:
            if states is not None:
                states[:, columns] = -1
            if logits is not None:
                logits[:, columns] = np.nan
            gap_qubits.extend(selected[column] for column in columns)
        return {
            "qubits": sorted(gap_qubits),
            "shards": [shard.shard_index for _, shard, _ in failures],
            "errors": [str(exc) for _, _, exc in failures],
        }

    # ----------------------------------------------------------------- misc
    def _fail_pending(self, exc: Exception) -> None:
        # A drain racing with close() can pop the _SHUTDOWN sentinel that the
        # batcher has not consumed yet; it must go back on the queue or
        # close() would join a batcher that never learns to exit.
        saw_shutdown = False
        while True:
            try:
                _rank, _seq, entry = self._queue.get_nowait()
            except queue.Empty:
                break
            if entry is _SHUTDOWN:
                saw_shutdown = True
            elif not entry.future.done():
                entry.future.set_exception(exc)
        if saw_shutdown:
            self._queue.put((_SHUTDOWN_RANK, next(self._seq), _SHUTDOWN))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = (
            f"{self._placements} {self._mode} shards" if self.sharded else "in-process"
        )
        return (
            f"ReadoutService(n_qubits={self._n_qubits}, {mode}, "
            f"max_batch={self.max_batch})"
        )
