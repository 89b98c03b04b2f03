"""Traffic-tier telemetry: trace ids and latency histograms.

`ServiceStats` counts what happened; this module answers *where the time
went* -- the question a readout stack serving mid-circuit feedback under a
hard latency budget cannot leave unanswered.  It only observes: nothing
here decides whether or how a request is served.

* :func:`new_trace_id` mints the per-request trace id the service and the
  remote client stamp into wire ``meta`` at the edge.  The id travels with
  the frame across every placement (worker pipe, TCP socket, replicated
  failover resends -- a resent frame is byte-identical, so the id survives
  dedup) and is echoed back in ``ReadoutResult.meta["trace_id"]``.
* :class:`LatencyHistogram` is the lock-cheap fixed-bucket histogram every
  stage records into: log-spaced buckets, O(1) ``record``, mergeable
  snapshots, percentile estimates clamped to the observed range.
* :class:`TelemetryRecorder` groups one histogram per serving stage
  (:data:`STAGES`: queue-wait, batch-assembly, shard-dispatch, wire
  round-trip, engine-compute) plus named event counters, and can fold a
  peer's snapshot into its own -- how metrics aggregate across transports.

The pretty-printer CLI fetches a remote server's live snapshot through the
METRICS wire frame::

    PYTHONPATH=src python -m repro.service.telemetry 10.0.0.5:7777
"""

from __future__ import annotations

import collections
import math
import threading
import uuid

__all__ = [
    "STAGES",
    "LatencyHistogram",
    "TelemetryRecorder",
    "format_metrics",
    "new_trace_id",
    "main",
]

#: The serving stages every request's latency decomposes into: time on the
#: ingress queue, micro-batch assembly, the whole shard dispatch, transport
#: round-trip overhead (dispatch minus engine time; ~0 in-process), and the
#: engine's own compute.
STAGES = ("queue", "batch", "shard", "wire", "compute")

#: The percentiles every metrics snapshot reports.
PERCENTILES = (50.0, 95.0, 99.0)


def new_trace_id() -> str:
    """A fresh trace id (opaque hex string, unique per request)."""
    return uuid.uuid4().hex


# --------------------------------------------------------------------------
# Latency histogram
# --------------------------------------------------------------------------


class LatencyHistogram:
    """Fixed log-spaced latency buckets: O(1) record, mergeable, percentiles.

    The always-on instrumentation primitive: ``record`` is one log, one
    clamp, and one locked increment -- cheap enough to sit on every dispatch
    path.  Buckets are log-spaced between ``floor_s`` and ``ceiling_s``
    (latencies span microseconds to seconds; linear buckets would waste
    resolution at one end), out-of-range values clamp into the edge buckets,
    and two histograms with the same layout merge by adding counts -- how
    per-transport and per-host snapshots fold into one distribution.

    Percentile estimates interpolate within the winning bucket and clamp to
    the observed min/max, so small samples report sane values (a single
    recorded latency *is* every percentile).
    """

    def __init__(
        self,
        floor_s: float = 1e-6,
        ceiling_s: float = 60.0,
        buckets_per_decade: int = 20,
    ) -> None:
        if not 0 < floor_s < ceiling_s:
            raise ValueError(
                f"need 0 < floor_s < ceiling_s, got {floor_s} and {ceiling_s}"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.floor_s = float(floor_s)
        self.ceiling_s = float(ceiling_s)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.ceiling_s / self.floor_s)
        self._n_buckets = int(math.ceil(decades * self.buckets_per_decade)) + 1
        self._counts = [0] * self._n_buckets
        self._count = 0
        self._sum_s = 0.0
        self._min_s = math.inf
        self._max_s = 0.0
        self._lock = threading.Lock()

    # ------------------------------------------------------------- recording
    def _bucket_index(self, seconds: float) -> int:
        if seconds <= self.floor_s:
            return 0
        index = int(
            math.log10(seconds / self.floor_s) * self.buckets_per_decade
        )
        return min(index, self._n_buckets - 1)

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """The ``(lower_s, upper_s)`` range of one bucket."""
        scale = 10.0 ** (1.0 / self.buckets_per_decade)
        return (self.floor_s * scale**index, self.floor_s * scale ** (index + 1))

    def record(self, seconds: float) -> None:
        """Record one latency sample.  O(1); negative samples clamp to zero."""
        seconds = max(0.0, float(seconds))
        index = self._bucket_index(seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum_s += seconds
            if seconds < self._min_s:
                self._min_s = seconds
            if seconds > self._max_s:
                self._max_s = seconds

    # ----------------------------------------------------------- aggregation
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict:
        """A JSON-serializable copy: layout, sparse counts, moments."""
        with self._lock:
            counts = [
                [index, count]
                for index, count in enumerate(self._counts)
                if count
            ]
            return {
                "floor_s": self.floor_s,
                "ceiling_s": self.ceiling_s,
                "buckets_per_decade": self.buckets_per_decade,
                "counts": counts,
                "count": self._count,
                "sum_s": self._sum_s,
                "min_s": None if self._count == 0 else self._min_s,
                "max_s": self._max_s,
            }

    def merge(self, other) -> None:
        """Fold another histogram (or its :meth:`snapshot`) into this one.

        Only identical bucket layouts merge -- adding counts across
        different layouts would silently misplace samples.
        """
        snap = other.snapshot() if isinstance(other, LatencyHistogram) else other
        layout = (
            snap["floor_s"],
            snap["ceiling_s"],
            snap["buckets_per_decade"],
        )
        if layout != (self.floor_s, self.ceiling_s, self.buckets_per_decade):
            raise ValueError(
                "Cannot merge histograms with different bucket layouts: "
                f"{layout} vs "
                f"{(self.floor_s, self.ceiling_s, self.buckets_per_decade)}"
            )
        with self._lock:
            for index, count in snap["counts"]:
                self._counts[int(index)] += int(count)
            self._count += int(snap["count"])
            self._sum_s += float(snap["sum_s"])
            if snap["min_s"] is not None and snap["min_s"] < self._min_s:
                self._min_s = float(snap["min_s"])
            if snap["max_s"] > self._max_s:
                self._max_s = float(snap["max_s"])

    @classmethod
    def from_snapshot(cls, snap: dict) -> "LatencyHistogram":
        """Rebuild a histogram from a :meth:`snapshot` dict."""
        histogram = cls(
            floor_s=snap["floor_s"],
            ceiling_s=snap["ceiling_s"],
            buckets_per_decade=snap["buckets_per_decade"],
        )
        histogram.merge(snap)
        return histogram

    def percentile(self, p: float) -> float:
        """The estimated ``p``-th percentile latency in seconds (0 when empty)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            counts = list(self._counts)
            low, high = self._min_s, self._max_s
        target = max(1, math.ceil(total * p / 100.0))
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lower, upper = self.bucket_bounds(index)
                fraction = (target - cumulative) / count
                value = lower + (upper - lower) * fraction
                return min(max(value, low), high)
            cumulative += count
        return high  # pragma: no cover - defensive (counts sum to total)

    def summary(self) -> dict:
        """Count, mean, and the standard percentiles, in milliseconds."""
        with self._lock:
            count = self._count
            mean_s = self._sum_s / count if count else 0.0
            max_s = self._max_s
        out = {"count": count, "mean_ms": mean_s * 1e3, "max_ms": max_s * 1e3}
        for p in PERCENTILES:
            out[f"p{p:g}_ms"] = self.percentile(p) * 1e3
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyHistogram(count={self.count}, "
            f"buckets={self._n_buckets})"
        )


# --------------------------------------------------------------------------
# Per-stage recorder
# --------------------------------------------------------------------------


class TelemetryRecorder:
    """One :class:`LatencyHistogram` per serving stage plus event counters.

    The object a service or server threads through its dispatch paths.
    ``enabled=False`` turns every ``record``/``count`` into a no-op -- the
    telemetry-off arm of the overhead benchmark, and the knob for callers
    who want the arrays with zero instrumentation cost.
    """

    def __init__(self, enabled: bool = True, stages: tuple = STAGES) -> None:
        self.enabled = bool(enabled)
        self.stages = tuple(stages)
        self._histograms = {stage: LatencyHistogram() for stage in self.stages}
        self._counters: collections.Counter = collections.Counter()
        self._counter_lock = threading.Lock()

    def record(self, stage: str, seconds: float) -> None:
        """Record one latency sample for ``stage`` (no-op when disabled)."""
        if not self.enabled:
            return
        self._histograms[stage].record(seconds)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named event counter (no-op when disabled)."""
        if not self.enabled:
            return
        with self._counter_lock:
            self._counters[name] += n

    def histogram(self, stage: str) -> LatencyHistogram:
        """The live histogram of one stage."""
        return self._histograms[stage]

    def counters(self) -> dict:
        with self._counter_lock:
            return dict(self._counters)

    def snapshot(self) -> dict:
        """Summaries for reading, full histograms for merging -- one dict."""
        return {
            "enabled": self.enabled,
            "stages": {
                stage: histogram.summary()
                for stage, histogram in self._histograms.items()
            },
            "histograms": {
                stage: histogram.snapshot()
                for stage, histogram in self._histograms.items()
            },
            "counters": self.counters(),
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a peer recorder's :meth:`snapshot` into this one.

        Stages the peer knows and we do not are ignored (an older peer must
        stay mergeable); counters add by name.
        """
        for stage, histogram_snap in snap.get("histograms", {}).items():
            if stage in self._histograms:
                self._histograms[stage].merge(histogram_snap)
        with self._counter_lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] += int(value)


# --------------------------------------------------------------------------
# Pretty printing and the CLI
# --------------------------------------------------------------------------


def format_metrics(snapshot: dict, title: str = "metrics") -> str:
    """Render a metrics snapshot as an aligned text table."""
    lines = [f"== {title} =="]
    for key in ("source", "transport", "placements", "requests_served",
                "deduplicated_replies"):
        if key in snapshot:
            lines.append(f"{key}: {snapshot[key]}")
    stages = snapshot.get("stages") or {}
    if stages:
        lines.append(
            f"{'stage':<10} {'count':>8} {'mean_ms':>10} {'p50_ms':>10} "
            f"{'p95_ms':>10} {'p99_ms':>10} {'max_ms':>10}"
        )
        for stage, summary in stages.items():
            lines.append(
                f"{stage:<10} {summary['count']:>8d} "
                f"{summary['mean_ms']:>10.3f} {summary['p50_ms']:>10.3f} "
                f"{summary['p95_ms']:>10.3f} {summary['p99_ms']:>10.3f} "
                f"{summary['max_ms']:>10.3f}"
            )
    counters = snapshot.get("counters") or {}
    for name in sorted(counters):
        lines.append(f"counter {name}: {counters[name]}")
    lifecycle = snapshot.get("lifecycle")
    if lifecycle:
        lines.append(
            f"lifecycle: active_version={lifecycle.get('active_version')} "
            f"bundle_swaps={lifecycle.get('bundle_swaps', 0)}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.service.telemetry HOST:PORT`` -- print a live snapshot."""
    import argparse

    from repro.service.net import RemoteEngineClient

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.telemetry",
        description=(
            "Fetch and pretty-print a ReadoutServer's live metrics snapshot "
            "(the METRICS wire frame)."
        ),
    )
    parser.add_argument("address", help="server address as HOST:PORT")
    parser.add_argument(
        "--timeout", type=float, default=10.0, help="request deadline (seconds)"
    )
    args = parser.parse_args(argv)
    with RemoteEngineClient(
        args.address, timeout=args.timeout, connect_timeout=args.timeout
    ) as client:
        snapshot = client.metrics()
    print(format_metrics(snapshot, title=f"metrics @ {args.address}"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
