"""The repository benchmark: one workload, measured, checked, reported.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline_batch --seed 1 --seconds 30 --trace 0

Workloads are ``offline_batch``, ``feedback_loop`` and ``remote_stream``
(see ``workloads.py``).  A run builds the deployment and the seeded inputs,
computes the oracle's answers, times ``COLD_STARTS`` fresh-interpreter
launches to their first answer, then alternates load slices with short
host-speed probe slices (``probe.py``) for ``--seconds``.  Every answer is
checked; a wrong answer, an exception or a timeout is a failed operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric with
``--trace 1``.  A traced run alternates untraced and traced slices, reports
the layers from the traced ones and their difference as
``trace.overhead_pct``, and writes its spans to
``.perfbench_work/trace-<workload>-seed<seed>.jsonl``.  Diagnostics go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REQUIRED = ("BENCHMARK.json", "src/repro", "benchmarks/bench_throughput.py")

#: Seconds of load between two probe slices, and of each probe slice.  The
#: hypervisor's steal comes in bursts; short slices let the per-slice
#: correction follow them.
LOAD_SLICE_S = 0.5
PROBE_SLICE_S = 0.1
#: Untimed, checked load before measuring (lazy pools, caches).
WARMUP_S = 1.0


@dataclass
class Measurement:
    """Everything one run observed, before it is reduced to metrics."""

    colds: list
    warm: object
    tallies: dict
    meter: object
    counters: tuple[dict, dict]
    peak_mb: float


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Cold starts, warm-up, then ``seconds`` of load and probe slices.

    With a ``tracer`` the load slices alternate between untraced and traced.
    """
    from probe import ProbeMeter, StealClock, reset_peak_rss
    from workloads import COLD_STARTS, Tally

    modes = ("untraced", "traced") if tracer is not None else ("untraced",)
    tallies = {mode: Tally() for mode in modes}
    warm = Tally()
    colds = [workload.cold_start() for _ in range(COLD_STARTS)]
    workload.start()
    workload.run_slice(WARMUP_S, warm)
    meter = ProbeMeter(workload.server_pid)
    before = workload.counters()
    reset_peak_rss()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for mode in modes:
            tally = tallies[mode]
            steal = StealClock()
            if mode == "traced":
                workload.install(tracer)
                try:
                    workload.run_slice(LOAD_SLICE_S, tally, tracer)
                finally:
                    tracer.uninstall()
            else:
                workload.run_slice(LOAD_SLICE_S, tally)
            tally.close_slice(steal.stolen())
            meter.run_slice(PROBE_SLICE_S)
    peak_mb = workload.peak_rss_mb()
    return Measurement(colds, warm, tallies, meter, (before, workload.counters()), peak_mb)


def declared_metrics(spec: dict, trace: bool) -> list[dict]:
    """The metrics ``BENCHMARK.json`` asks for in this mode."""
    return spec["per_layer" if trace else "end_to_end"]


def format_metrics(declared: list[dict], values: dict[str, float]) -> dict:
    """Every declared metric by name, with its unit; nothing else."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics computed by no layer: {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }


def end_to_end_values(forms: dict[str, str], run: Measurement) -> dict[str, float]:
    """The user-visible figures, each in the form the workload declares."""
    import numpy as np

    from probe import scale_rate, scale_time

    tally = run.tallies["untraced"]
    probe_rate = run.meter.rate
    latencies = np.asarray(tally.latencies)
    scaled = np.concatenate(
        [
            scale_time(latencies[start:end], stolen, probe_rate)
            for _, _, start, end, stolen in tally.slices
        ]
    )
    values = {}
    if forms["qshots_per_s"] == "scaled":
        slices = [(seconds, stolen) for _, seconds, _, _, stolen in tally.slices]
        values["qshots_per_s"] = scale_rate(tally.qshots, slices, probe_rate)
    else:
        values["qshots_per_s"] = tally.qshots / tally.seconds
    for name, pct in (("p50_ms", 50), ("p95_ms", 95)):
        samples = scaled if forms[name] == "scaled" else latencies
        values[name] = float(np.percentile(samples, pct)) * 1e3
    values["setup_s"] = statistics.median(c.setup_s for c in run.colds)
    values["peak_rss_mb"] = run.peak_mb
    return values


def per_layer_values(tracer, run: Measurement) -> dict[str, float]:
    """Per-layer figures from the traced slices and the run's counters."""
    from tracer import layer_metrics

    untraced, traced = run.tallies["untraced"], run.tallies["traced"]
    values = layer_metrics(tracer.spans, traced.answers)
    before, after = run.counters
    served = after.get("requests", 0) - before.get("requests", 0)
    batches = after.get("batches", 0) - before.get("batches", 0)
    values["service.requests_per_dispatch"] = served / batches if batches else 0.0
    computed = after.get("server_compute_n", 0) - before.get("server_compute_n", 0)
    compute_ms = 0.0
    if computed:
        compute_s = after["server_compute_s"] - before["server_compute_s"]
        compute_ms = compute_s / computed * 1e3
    values["net.server_compute_ms"] = compute_ms
    values["net.transport_ms"] = (
        values["net.dispatch_ms"]
        - compute_ms
        - values["wire.encode_request_ms"]
        - values["wire.decode_reply_ms"]
        if computed
        else 0.0
    )
    for phase in ("import_s", "load_s", "first_answer_s"):
        values[f"setup.{phase}"] = statistics.median(getattr(c, phase) for c in run.colds)
    values["host.probe_rate"] = run.meter.rate
    values["host.raw_qshots_per_s"] = untraced.qshots / untraced.seconds
    values["host.steal_share"] = 1.0 - untraced.unstolen_seconds() / untraced.seconds
    # Unstolen time per qubit-shot, traced against untraced slices.
    per_shot_traced = traced.unstolen_seconds() / traced.qshots
    per_shot_untraced = untraced.unstolen_seconds() / untraced.qshots
    values["trace.overhead_pct"] = (per_shot_traced / per_shot_untraced - 1.0) * 100.0
    return values


def silent_layers(workload, tracer, run: Measurement) -> list[str]:
    """Spans and counters of the workload's own layers that recorded nothing.

    A layer that stopped recording would otherwise report 0, which reads as
    a large gain.
    """
    from tracer import unrecorded

    before, after = run.counters
    stalled = [f"counter {name}" for name in after if after[name] <= before.get(name, 0)]
    return unrecorded(tracer.spans, workload.layers) + stalled


def report(workload, run: Measurement, tracer, spec: dict) -> dict:
    """The result object: correctness, operation counts and metrics."""
    from probe import MAX_FOREIGN_CPU_SHARE

    every = [run.warm, *run.tallies.values()]
    attempted = len(run.colds) + sum(t.attempted for t in every)
    failed = sum(not c.ok for c in run.colds) + sum(t.failed for t in every)
    for tally in every:
        for error in tally.errors:
            print(f"perfbench: failed operation: {error}", file=sys.stderr)
    untraced = run.tallies["untraced"]
    print(
        "perfbench: "
        + json.dumps(
            {
                "workload": workload.name,
                "probe_rate": run.meter.rate,
                "foreign_cpu_share": run.meter.foreign_share,
                "raw_qshots_per_s": untraced.qshots / max(untraced.seconds, 1e-9),
                "steal_share": 1.0 - untraced.unstolen_seconds() / max(untraced.seconds, 1e-9),
                "ops": untraced.attempted,
                "cold_setup_s": [c.setup_s for c in run.colds],
            }
        ),
        file=sys.stderr,
    )
    trusted = run.meter.foreign_share <= MAX_FOREIGN_CPU_SHARE
    if not trusted:
        print(
            "perfbench: rejected: other code used "
            f"{run.meter.foreign_share:.1%} of the probe's CPU time",
            file=sys.stderr,
        )
    silent = silent_layers(workload, tracer, run) if tracer is not None else []
    if silent:
        print(
            f"perfbench: rejected: layers {list(workload.layers)} recorded nothing in {silent}",
            file=sys.stderr,
        )
    if failed or not trusted or silent or not untraced.qshots:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    if tracer is not None:
        values = per_layer_values(tracer, run)
    else:
        values = end_to_end_values(workload.forms, run)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": format_metrics(declared_metrics(spec, tracer is not None), values),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).exists()]
    if missing:
        print(f"perfbench: not a repository checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        try:
            run = measure(workload, args.seconds, tracer)
        finally:
            workload.close()
        result = report(workload, run, tracer, spec)
        if tracer is not None:
            tracer.write(work.parent / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
