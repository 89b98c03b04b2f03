"""Many-client load generator for the readout server.

The latency-percentile bench behind the ``remote_async`` headline numbers:
hundreds of multiplexed connections driven from one event loop, each
pipelining tagged requests against a :class:`~repro.service.net.ReadoutServer`,
with every individual latency kept and summarized into **exact**
p50/p95/p99 by :func:`repro.service.telemetry.summarize_latencies`.

Two load modes, because they answer different questions:

* :func:`run_closed_loop` -- each connection keeps a bounded window of
  requests in flight and fires the next the moment one completes.  Offered
  load tracks service speed; the numbers say what *throughput* the tier
  sustains and what latency looks like at saturation.
* :func:`run_open_loop` -- requests fire on a fixed arrival schedule
  whether or not earlier ones returned, and each latency is measured from
  the request's *scheduled* arrival time.  That charges queueing delay to
  the service instead of silently self-throttling -- the
  coordinated-omission-free view of latency under a target rate.

:func:`run_soak` is the connection-scale smoke: N (default 1000)
concurrent connections, a few requests each, pass/fail on zero drops.

A drop is any request that did not complete: a timeout, a transport
failure, or a remote serving error.  Reports never hide them.

CLI::

    PYTHONPATH=src python -m repro.service.loadgen 10.0.0.5:7777 \\
        --traces traces.npy --mode closed --connections 64 --inflight 8
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from dataclasses import dataclass, field

from repro.engine import wire
from repro.engine.request import ReadoutRequest
from repro.service.aio import _AsyncConnection
from repro.service.net import _parse_address
from repro.service.telemetry import new_trace_id, summarize_latencies

__all__ = [
    "LoadgenReport",
    "run_closed_loop",
    "run_open_loop",
    "run_soak",
    "main",
]


@dataclass(frozen=True)
class LoadgenReport:
    """One load-generator run: counts, sustained rate, exact percentiles.

    ``latency`` is :func:`~repro.service.telemetry.summarize_latencies`
    over every completed request -- for the open loop, measured from each
    request's *scheduled* arrival, so queueing delay under the offered
    rate is part of the number.  ``drops`` counts requests that never
    completed (timeouts, transport failures, remote errors).
    """

    mode: str
    connections: int
    inflight: int
    target_rps: float
    requests: int
    completed: int
    drops: int
    duration_s: float
    latency: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall clock."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def as_dict(self) -> dict:
        """A JSON-serializable copy (what the bench report embeds)."""
        return {
            "mode": self.mode,
            "connections": self.connections,
            "inflight": self.inflight,
            "target_rps": self.target_rps,
            "requests": self.requests,
            "completed": self.completed,
            "drops": self.drops,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency,
        }


# --------------------------------------------------------------------------
# Shared coroutine plumbing
# --------------------------------------------------------------------------


async def _dial_all(
    host: str,
    port: int,
    connections: int,
    connect_timeout: float,
    open_concurrency: int,
) -> list[_AsyncConnection]:
    """Open ``connections`` sockets, at most ``open_concurrency`` dials at once.

    The bound keeps a thousand-connection soak from dumping its entire SYN
    burst on the listener's backlog in one loop tick.
    """
    gate = asyncio.Semaphore(open_concurrency)

    async def dial() -> _AsyncConnection:
        async with gate:
            conn = _AsyncConnection(host, int(port), connect_timeout)
            return await conn.open()

    return list(await asyncio.gather(*(dial() for _ in range(connections))))


def _encode(request: ReadoutRequest, seq: int) -> list:
    return wire.encode_request_chunks(
        request,
        wire_meta={
            "seq": seq,
            "request_id": uuid.uuid4().hex,
            "trace_id": new_trace_id(),
        },
    )


async def _round_trip(
    conn: _AsyncConnection,
    request: ReadoutRequest,
    seq: int,
    timeout: float,
    samples: list,
    started_at: float,
) -> bool:
    """One tagged round trip; True on success, False on any kind of drop."""
    loop = asyncio.get_running_loop()
    try:
        frame = await conn.request(_encode(request, seq), seq, timeout)
        wire.decode_reply(frame)
    except Exception:  # noqa: BLE001 - a drop is a drop; the count is the story
        return False
    samples.append(loop.time() - started_at)
    return True


# --------------------------------------------------------------------------
# Closed loop
# --------------------------------------------------------------------------


def run_closed_loop(
    address,
    request: ReadoutRequest,
    *,
    connections: int = 4,
    inflight: int = 8,
    requests_per_connection: int = 25,
    timeout: float = 30.0,
    connect_timeout: float = 5.0,
    open_concurrency: int = 64,
) -> LoadgenReport:
    """Saturation mode: every connection keeps ``inflight`` requests going.

    Each of ``connections`` sockets pipelines a bounded window of tagged
    requests and replaces each completion immediately, so offered load
    tracks what the server sustains.  Latency is per round trip.
    """
    host, port = _parse_address(address, None)
    total = connections * requests_per_connection
    samples: list[float] = []
    drops = 0

    async def drive() -> float:
        nonlocal drops
        conns = await _dial_all(
            host, port, connections, connect_timeout, open_concurrency
        )
        loop = asyncio.get_running_loop()

        async def one_connection(conn: _AsyncConnection) -> None:
            nonlocal drops
            window = asyncio.Semaphore(inflight)
            seq = itertools.count(1)

            async def one() -> None:
                nonlocal drops
                async with window:
                    ok = await _round_trip(
                        conn, request, next(seq), timeout, samples, loop.time()
                    )
                    if not ok:
                        drops += 1

            await asyncio.gather(
                *(one() for _ in range(requests_per_connection))
            )

        started = loop.time()
        await asyncio.gather(*(one_connection(conn) for conn in conns))
        elapsed = loop.time() - started
        for conn in conns:
            conn.close()
        return elapsed

    elapsed = asyncio.run(drive())
    return LoadgenReport(
        mode="closed",
        connections=connections,
        inflight=inflight,
        target_rps=0.0,
        requests=total,
        completed=len(samples),
        drops=drops,
        duration_s=elapsed,
        latency=summarize_latencies(samples),
    )


# --------------------------------------------------------------------------
# Open loop
# --------------------------------------------------------------------------


def run_open_loop(
    address,
    request: ReadoutRequest,
    *,
    rate_rps: float,
    n_requests: int,
    connections: int = 8,
    timeout: float = 30.0,
    connect_timeout: float = 5.0,
    open_concurrency: int = 64,
) -> LoadgenReport:
    """Fixed-rate mode: arrivals fire on schedule, late replies keep queueing.

    Request ``i`` is due at ``start + i / rate_rps`` and fires then even if
    earlier requests are still in flight (round-robin across connections,
    pipelined by tag) -- and its latency is measured **from the scheduled
    arrival**, so when the service falls behind, the backlog shows up in
    p95/p99 instead of silently stretching the arrival schedule
    (coordinated omission).
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    host, port = _parse_address(address, None)
    samples: list[float] = []
    drops = 0

    async def drive() -> float:
        nonlocal drops
        conns = await _dial_all(
            host, port, connections, connect_timeout, open_concurrency
        )
        loop = asyncio.get_running_loop()
        seqs = [itertools.count(1) for _ in conns]
        start = loop.time() + 0.05

        async def fire(index: int) -> None:
            nonlocal drops
            scheduled = start + index / rate_rps
            delay = scheduled - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            slot = index % len(conns)
            ok = await _round_trip(
                conns[slot], request, next(seqs[slot]), timeout, samples,
                scheduled,
            )
            if not ok:
                drops += 1

        await asyncio.gather(*(fire(index) for index in range(n_requests)))
        elapsed = loop.time() - start
        for conn in conns:
            conn.close()
        return elapsed

    elapsed = asyncio.run(drive())
    return LoadgenReport(
        mode="open",
        connections=connections,
        inflight=0,
        target_rps=float(rate_rps),
        requests=n_requests,
        completed=len(samples),
        drops=drops,
        duration_s=elapsed,
        latency=summarize_latencies(samples),
    )


# --------------------------------------------------------------------------
# Connection-scale soak
# --------------------------------------------------------------------------


def run_soak(
    address,
    request: ReadoutRequest,
    *,
    connections: int = 1000,
    requests_per_connection: int = 1,
    timeout: float = 60.0,
    connect_timeout: float = 30.0,
    open_concurrency: int = 64,
) -> LoadgenReport:
    """Connection-scale smoke: N concurrent sockets, a few requests each.

    The pass criterion is ``drops == 0`` with every connection answered --
    the one-event-loop claim at four-digit connection counts.  Requests per
    connection run sequentially (this probes connection scale, not
    pipelining depth; the other two modes cover that).
    """
    return run_closed_loop(
        address,
        request,
        connections=connections,
        inflight=1,
        requests_per_connection=requests_per_connection,
        timeout=timeout,
        connect_timeout=connect_timeout,
        open_concurrency=open_concurrency,
    )


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.service.loadgen HOST:PORT --traces FILE [...]``."""
    import argparse
    import json

    import numpy as np

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description=(
            "Drive a readout server with many pipelined connections and "
            "report exact latency percentiles."
        ),
    )
    parser.add_argument("address", help="server address as HOST:PORT")
    parser.add_argument(
        "--traces",
        required=True,
        help="``.npy`` file of (n_shots, n_qubits, n_samples) traces to serve",
    )
    parser.add_argument(
        "--mode", choices=("closed", "open", "soak"), default="closed"
    )
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument(
        "--inflight", type=int, default=8, help="closed-loop window per connection"
    )
    parser.add_argument("--requests-per-connection", type=int, default=25)
    parser.add_argument(
        "--rate", type=float, default=200.0, help="open-loop offered rate (req/s)"
    )
    parser.add_argument(
        "--requests", type=int, default=200, help="open-loop total requests"
    )
    parser.add_argument("--timeout", type=float, default=30.0)
    args = parser.parse_args(argv)

    request = ReadoutRequest(traces=np.load(args.traces))
    if args.mode == "open":
        report = run_open_loop(
            args.address,
            request,
            rate_rps=args.rate,
            n_requests=args.requests,
            connections=args.connections,
            timeout=args.timeout,
        )
    elif args.mode == "soak":
        report = run_soak(
            args.address,
            request,
            connections=args.connections,
            requests_per_connection=args.requests_per_connection,
            timeout=args.timeout,
        )
    else:
        report = run_closed_loop(
            args.address,
            request,
            connections=args.connections,
            inflight=args.inflight,
            requests_per_connection=args.requests_per_connection,
            timeout=args.timeout,
        )
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0 if report.drops == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
