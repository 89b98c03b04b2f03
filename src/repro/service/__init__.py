"""Traffic-level serving: micro-batching and network serving.

Where :mod:`repro.engine` answers one request at a time,
:class:`ReadoutService` is the front-end heavy traffic talks to: it accepts
many small concurrent :class:`~repro.engine.request.ReadoutRequest`\\ s,
coalesces compatible ones into micro-batches on a bounded queue, and
dispatches to one of two placements -- in-process (bit-identical to
``engine.serve()``), or qubit shards on
:class:`~repro.service.net.ReadoutServer`\\ s over one
:class:`~repro.service.net.TcpShardTransport` per shard (a single address
or a list of replicas), speaking the one wire codec
(:mod:`repro.engine.wire`)::

    from repro.engine import ReadoutRequest
    from repro.service import ReadoutService

    with ReadoutService(bundle_dir="artifacts/readout-v1") as service:
        futures = [service.submit(ReadoutRequest(raw=chunk)) for chunk in chunks]
        states = [future.result().states for future in futures]

    # across hosts (each running `python -m repro.service.net <bundle>`):
    #   ReadoutService(shard_hosts=["10.0.0.5:7777", "10.0.0.6:7777"])
    # worker processes on one host: loopback servers as shard_hosts
    #   handles = [spawn_server(bundle_dir) for _ in range(2)]
    #   ReadoutService(shard_hosts=[handle.address for handle in handles])
    # replicated, self-healing (failover + health probing):
    #   ReadoutService(
    #       shard_hosts=[["10.0.0.5:7777", "10.0.0.7:7777"],
    #                    ["10.0.0.6:7777", "10.0.0.8:7777"]],
    #       retry=RetryPolicy(attempts=3), probe_interval_s=1.0,
    #   )
    # asyncio front-ends:  result = await service.aserve(request)

See :mod:`repro.service.service` for the batching/dispatch mechanics,
:mod:`repro.service.net` for the TCP tier (the one asyncio server, the one
client, and the shard transport with replica failover),
:mod:`repro.service.retry` / :mod:`repro.service.health` for the retry
policy and health-checked host pool, :mod:`repro.service.faults` for the
fault-injection harness that keeps the self-healing paths honest,
:mod:`repro.service.lifecycle` for the zero-downtime model lifecycle --
the versioned :class:`BundleRegistry` and the staging
:class:`RegistryWatcher` that feed ``service.swap_bundle()`` -- and
:mod:`repro.service.telemetry` for the traffic-tier observability layer --
per-request trace ids and per-stage latency histograms
(``service.metrics()``, the METRICS wire frame,
``python -m repro.service.telemetry host:port``).  Every answer is the
engine's exact answer on every placement; a request the deployment cannot
answer fails with a typed error, never with a partial result.
"""

import os as _os

if _os.environ.get("REPRO_LOCKSAN") == "1":
    # Opt-in runtime lock-order sanitizer: installed before any service
    # object exists so every repro-created lock is wrapped from birth.
    from repro.service import locksan as _locksan

    _locksan.install()

from repro.service.service import ReadoutService, ServiceStats
from repro.service.lifecycle import (
    BundleRegistry,
    RegistryError,
    RegistryWatcher,
)
from repro.service.sharding import partition_qubits, replica_addresses
from repro.service.retry import RetryPolicy
from repro.service.health import HostHealth, HostPool
from repro.service.telemetry import (
    STAGES,
    LatencyHistogram,
    TelemetryRecorder,
    new_trace_id,
)
from repro.service.net import (
    AllReplicasDownError,
    ReadoutServer,
    RemoteEngineClient,
    TcpShardTransport,
    TransportConnectError,
    TransportError,
    TransportTimeoutError,
    spawn_server,
)
from repro.service.faults import (
    ChaosProxy,
    ChaosTransport,
    FaultSchedule,
)

__all__ = [
    "ReadoutService",
    "ServiceStats",
    "BundleRegistry",
    "RegistryWatcher",
    "RegistryError",
    "partition_qubits",
    "replica_addresses",
    "RetryPolicy",
    "HostHealth",
    "HostPool",
    "STAGES",
    "LatencyHistogram",
    "TelemetryRecorder",
    "new_trace_id",
    "ReadoutServer",
    "RemoteEngineClient",
    "TcpShardTransport",
    "AllReplicasDownError",
    "TransportError",
    "TransportConnectError",
    "TransportTimeoutError",
    "spawn_server",
    "ChaosProxy",
    "ChaosTransport",
    "FaultSchedule",
]
