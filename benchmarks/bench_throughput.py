"""Throughput benchmark: vectorized fixed-point engine vs. the seed path.

Measures shots/second through

* the **emulated Q16.16 datapath** (everything after the ADC: average layer,
  shift normalization, matched-filter MAC, dense layers) -- once through the
  current vectorized engine and once through a frozen replica of the seed
  implementation (``object``-array multiplies for wide formats, per-neuron
  MAC loops with per-call overflow probes), with a bit-exactness assertion
  between the two, and
* the **raw-carrier serving path** -- the five-qubit ``ReadoutEngine``
  serving int32 ADC carriers digitized once at capture
  (``serve(ReadoutRequest(raw=...))``) versus the float-trace surface that
  re-digitizes inside every backend, bit-identity asserted first
  (``raw_vs_float_roundtrip``),
* the **request-serving front-end** -- many small concurrent
  ``ReadoutRequest``\\ s through ``ReadoutService`` micro-batching
  (``service_microbatch``) and 2-process qubit sharding (``shard_scaling``),
  versus serial per-request ``engine.serve()`` dispatch, bit-identity
  asserted first,
* the **network tier** -- the same request stream through a loopback
  ``ReadoutServer``/``RemoteEngineClient`` round trip and a
  ``TcpShardTransport``-backed service (``remote_serving`` section:
  ``remote_tcp_vs_direct`` and friends), bit-identity asserted first,
* the **resilience layer** -- one qubit shard on two replica servers,
  serving the same stream in steady state and through a seeded kill/recover
  cycle (``resilient_steady`` / ``resilient_killover`` plus p95 round-trip
  latencies in the derived section), bit-identity asserted both times,
* the **telemetry subsystem** -- the instrumented service vs. a
  ``telemetry=False`` twin on the same stream (``telemetry_on_vs_off``,
  asserted <= 5% overhead) and an overload flood against an SLO-bounded
  service vs. an unbounded one (``shed_under_overload``: shed count and
  accepted-request p99 queue wait in the derived section), and
* the **trace synthesizer** -- the batched ``generate_shots`` path the
  dataset builder uses versus a replica of the seed's per-shot Python loop,
  plus the end-to-end dataset builder itself.

Results (including derived speedups) are persisted to
``BENCH_throughput.json`` at the repo root via :mod:`repro.perf`.  Run from
the repo root::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--quick]

``--baseline PATH`` compares against a previously saved report and (with
``--fail-on-regression``) exits with code 3 when throughput dropped beyond
the tolerance, which is how CI keeps this harness honest.  The distinct exit
code lets CI treat "slower than the committed baseline" (expected jitter on
shared runners; reported, non-blocking) differently from a bit-exactness
failure or crash (always blocking).
"""

from __future__ import annotations

import argparse
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.engine import FixedPointBackend, ReadoutEngine, ReadoutRequest
from repro.fpga.emulator import FpgaStudentEmulator
from repro.fpga.fixed_point import FixedPointFormat, Q16_16
from repro.fpga.quantize import QuantizedStudentParameters
from repro.perf import (
    ThroughputReport,
    compare_to_baseline,
    measure_paired,
    measure_throughput,
)
from repro.readout.dataset import generate_dataset
from repro.readout.noise import CrosstalkModel, NoiseModel, RelaxationModel
from repro.readout.physics import QubitReadoutParams, ReadoutPhysics
from repro.readout.preprocessing import digitize_traces
from repro.readout.trace_generator import MultiplexedTraceGenerator

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_throughput.json"


# --------------------------------------------------------------------------
# Frozen replica of the seed (PR-1) fixed-point path, kept verbatim so the
# speedup reported here always refers to the same baseline algorithm:
# object-array multiplies whenever 2 * word_length > 62 and per-neuron MACs
# that re-probe max(|inputs|) / max(|weights|) on every call.
# --------------------------------------------------------------------------


def _seed_multiply(fmt: FixedPointFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if 2 * fmt.word_length <= 62:
        result = (a * b) >> fmt.fractional_bits
        return np.clip(result, fmt.min_raw, fmt.max_raw)
    product = a.astype(object) * b.astype(object)
    shifted = product // (1 << fmt.fractional_bits)
    result = np.asarray(shifted, dtype=np.float64)
    return np.clip(result, fmt.min_raw, fmt.max_raw).astype(np.int64)


def _seed_mac(
    fmt: FixedPointFormat, inputs: np.ndarray, weights: np.ndarray, bias: int = 0
) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    n = weights.shape[0]
    max_abs_input = int(np.max(np.abs(inputs))) if inputs.size else 0
    max_abs_weight = int(np.max(np.abs(weights))) if weights.size else 0
    worst_case = max_abs_input * max_abs_weight * max(n, 1)
    if worst_case < (1 << 62):
        accumulator = (inputs * weights[None, :]).sum(axis=1)
        accumulator = np.floor_divide(accumulator, 1 << fmt.fractional_bits) + int(bias)
        return np.clip(accumulator, fmt.min_raw, fmt.max_raw)
    accumulator = (inputs.astype(object) * weights.astype(object)).sum(axis=1)
    accumulator = [int(v) // (1 << fmt.fractional_bits) + int(bias) for v in accumulator]
    return np.array(
        [min(max(v, fmt.min_raw), fmt.max_raw) for v in accumulator], dtype=np.int64
    )


class SeedDatapath:
    """The seed emulator datapath, reconstructed from the same parameters."""

    def __init__(self, parameters: QuantizedStudentParameters) -> None:
        self.parameters = parameters
        self.fmt = parameters.fmt

    def _seed_normalize(self, features_raw: np.ndarray) -> np.ndarray:
        p, fmt = self.parameters, self.fmt
        centered = features_raw - p.norm_minimum[None, :]
        result = np.empty_like(centered)
        right = p.norm_shift_bits >= 0
        if np.any(right):
            result[:, right] = centered[:, right] >> p.norm_shift_bits[right]
        if np.any(~right):
            shifted = centered[:, ~right].astype(np.int64) << (-p.norm_shift_bits[~right])
            result[:, ~right] = np.clip(shifted, fmt.min_raw, fmt.max_raw)
        return result

    def predict_logits_from_raw(self, trace_raw: np.ndarray) -> np.ndarray:
        fmt = self.fmt
        p = self.parameters
        n_shots = trace_raw.shape[0]
        n_intervals = trace_raw.shape[1] // p.samples_per_interval
        usable = n_intervals * p.samples_per_interval
        groups = trace_raw[:, :usable, :].reshape(
            n_shots, n_intervals, p.samples_per_interval, 2
        )
        sums = groups.sum(axis=2)
        averaged = _seed_multiply(fmt, sums, np.int64(p.average_reciprocal_raw))
        normalized = self._seed_normalize(averaged.reshape(n_shots, -1))
        blocks = [normalized]
        if p.include_matched_filter:
            window = trace_raw[:, : p.mf_envelope.shape[0], :].reshape(n_shots, -1)
            scores = _seed_mac(fmt, window, p.mf_envelope.reshape(-1))
            centered = scores - p.mf_threshold_raw
            mf = _seed_multiply(fmt, centered, np.int64(p.mf_scale_reciprocal_raw))
            blocks.append(mf.reshape(-1, 1))
        activations = np.concatenate(blocks, axis=1)
        n_layers = len(p.layer_weights)
        for index, (weights, biases) in enumerate(zip(p.layer_weights, p.layer_biases)):
            outputs = np.empty((activations.shape[0], weights.shape[1]), dtype=np.int64)
            for neuron in range(weights.shape[1]):
                outputs[:, neuron] = _seed_mac(
                    fmt, activations, weights[:, neuron], bias=int(biases[neuron])
                )
            if index < n_layers - 1:
                outputs = np.where(outputs < 0, 0, outputs)
            activations = outputs
        return activations.reshape(-1)


def _seed_generate_shot(
    generator: MultiplexedTraceGenerator, joint_state: np.ndarray, duration_ns: float
) -> np.ndarray:
    """Replica of the seed's per-shot loop body (one Python-level shot)."""
    physics = generator.physics
    rng = generator.rng
    noise = NoiseModel(rng)
    relaxation = RelaxationModel(rng)
    crosstalk = CrosstalkModel()
    times = physics.sample_times(duration_ns)
    trajectories = generator._mean_trajectories(duration_ns)
    n_qubits = physics.n_qubits
    shot = np.empty((n_qubits, times.shape[0], 2), dtype=np.float64)
    for q in range(n_qubits):
        params = physics.qubits[q]
        state = int(joint_state[q])
        if state == 1 and generator.include_relaxation:
            mean, _ = relaxation.apply(trajectories[q, 1], trajectories[q, 0], times, params.t1)
        else:
            mean = trajectories[q, state]
        shot[q] = mean
    if generator.include_crosstalk:
        shot = crosstalk.apply(shot, physics.qubits, trajectories, joint_state)
    for q in range(n_qubits):
        shot[q] = noise.apply(shot[q], physics.qubits[q].noise_sigma)
    return shot


# --------------------------------------------------------------------------
# Workload construction (paper-scale datapath, no training required)
# --------------------------------------------------------------------------


def build_parameters(
    fmt: FixedPointFormat, n_samples: int, samples_per_interval: int, seed: int = 2025
) -> QuantizedStudentParameters:
    """A synthetic quantized student at the paper's FNN-A scale."""
    rng = np.random.default_rng(seed)
    n_features = 2 * (n_samples // samples_per_interval) + 1
    widths = [n_features, 16, 8, 1]
    return QuantizedStudentParameters(
        fmt=fmt,
        samples_per_interval=samples_per_interval,
        n_samples=n_samples,
        include_matched_filter=True,
        mf_envelope=fmt.to_raw(rng.uniform(-0.5, 0.5, size=(n_samples, 2))),
        mf_threshold_raw=int(fmt.to_raw(1.25)),
        mf_scale_reciprocal_raw=int(fmt.to_raw(0.4)),
        average_reciprocal_raw=int(fmt.to_raw(1.0 / samples_per_interval)),
        norm_minimum=fmt.to_raw(rng.uniform(-4.0, 0.0, size=n_features - 1)),
        norm_shift_bits=rng.integers(-2, 4, size=n_features - 1),
        layer_weights=[
            fmt.to_raw(rng.uniform(-1.0, 1.0, size=(widths[i], widths[i + 1])))
            for i in range(len(widths) - 1)
        ],
        layer_biases=[
            fmt.to_raw(rng.uniform(-0.5, 0.5, size=widths[i + 1]))
            for i in range(len(widths) - 1)
        ],
    )


def _bench_device(n_qubits: int = 2) -> ReadoutPhysics:
    qubits = [
        QubitReadoutParams(
            label=f"Q{i}",
            chi=0.012 - 0.002 * i,
            kappa=0.03,
            probe_amplitude=1.0 - 0.15 * i,
            noise_sigma=2.0,
            t1=50_000.0 - 15_000.0 * i,
            crosstalk_coupling=0.02,
        )
        for i in range(n_qubits)
    ]
    return ReadoutPhysics(qubits, sample_period_ns=10.0)


# --------------------------------------------------------------------------
# Benchmark sections
# --------------------------------------------------------------------------


#: The paper's two student datapath configurations on 1 us traces at 2 ns
#: sampling: FNN-A averages 32 samples per interval (31 features), FNN-B
#: averages 5 (201 features).  Both include the matched-filter feature.
EMULATOR_WORKLOADS = {"fnn_a": 32, "fnn_b": 5}


#: Shots per datapath call in the streaming regime -- the latency-critical
#: small batches a real-time readout loop hands the discriminator, where the
#: seed path's per-neuron Python loops and per-call probes dominate.
STREAM_BATCH = 32


def bench_emulator(report: ThroughputReport, n_shots: int, repeats: int, seed: int) -> None:
    """Q16.16 batch inference: vectorized engine vs. seed path, bit-asserted.

    Each paper workload (FNN-A/FNN-B) is measured in two regimes: ``batch``
    (all shots in one datapath call, the offline-analysis shape) and
    ``stream`` (consecutive :data:`STREAM_BATCH`-shot calls, the real-time
    readout shape).  The headline ``emulator_datapath_speedup`` is the
    geometric mean over the two batch workloads -- the "batch inference"
    number; the stream regime is reported alongside (its small calls are
    bounded by fixed per-call NumPy overhead on both sides, so it understates
    the engine's gain) together with the all-combination geometric mean, so
    nothing hides in the headline.
    """
    n_samples = 500  # 1 us trace at 2 ns sampling
    rng = np.random.default_rng(seed + 1)
    trace_raw = Q16_16.to_raw(rng.uniform(-3.0, 3.0, size=(n_shots, n_samples, 2)))
    stream_shots = (n_shots // STREAM_BATCH) * STREAM_BATCH
    stream_batches = [
        trace_raw[start : start + STREAM_BATCH]
        for start in range(0, stream_shots, STREAM_BATCH)
    ]
    speedups = []
    for label, samples_per_interval in EMULATOR_WORKLOADS.items():
        parameters = build_parameters(Q16_16, n_samples, samples_per_interval, seed=seed)
        emulator = FpgaStudentEmulator(parameters)
        seed_path = SeedDatapath(parameters)

        vectorized = emulator.predict_logits_from_raw(trace_raw)
        legacy = seed_path.predict_logits_from_raw(trace_raw)
        if not np.array_equal(vectorized, legacy):
            raise AssertionError(
                f"{label}: vectorized datapath is not bit-identical to the seed "
                f"path (max |delta| = {np.abs(vectorized - legacy).max()})"
            )
        print(f"  {label}: bit-exactness vectorized == seed path on {n_shots} shots OK")

        regimes = {
            "batch": (
                lambda dp: dp.predict_logits_from_raw(trace_raw),
                n_shots,
            ),
            "stream": (
                lambda dp: [dp.predict_logits_from_raw(chunk) for chunk in stream_batches],
                stream_shots,
            ),
        }
        for regime, (run, items) in regimes.items():
            # Paired (interleaved) timing keeps machine-load drift from
            # landing on only one side of the speedup ratio.
            measured = measure_paired(
                {
                    f"emulator_datapath_vectorized_{label}_{regime}": (
                        lambda: run(emulator),
                        items,
                    ),
                    f"emulator_datapath_seed_{label}_{regime}": (
                        lambda: run(seed_path),
                        items,
                    ),
                },
                repeats=repeats,
            )
            for measurement in measured.values():
                report.add(measurement)
            speedup = report.record_speedup(
                f"emulator_datapath_speedup_{label}_{regime}",
                f"emulator_datapath_vectorized_{label}_{regime}",
                f"emulator_datapath_seed_{label}_{regime}",
            )
            speedups.append(speedup)
            print(f"  {label}/{regime}: datapath speedup vs seed path: {speedup:.1f}x")

    report.derived["emulator_datapath_speedup_geomean"] = float(
        np.exp(np.mean(np.log(speedups)))
    )
    batch_speedups = [
        report.derived[f"emulator_datapath_speedup_{label}_batch"]
        for label in EMULATOR_WORKLOADS
    ]
    report.derived["emulator_datapath_speedup"] = float(
        np.exp(np.mean(np.log(batch_speedups)))
    )
    print(
        "  headline emulator_datapath_speedup (batch geomean): "
        f"{report.derived['emulator_datapath_speedup']:.1f}x "
        "(all workloads/regimes: "
        f"{report.derived['emulator_datapath_speedup_geomean']:.1f}x)"
    )
    traces = rng.uniform(-3.0, 3.0, size=(n_shots, n_samples, 2))
    emulator = FpgaStudentEmulator(
        build_parameters(Q16_16, n_samples, EMULATOR_WORKLOADS["fnn_a"], seed=seed)
    )
    report.add(
        measure_throughput(
            lambda: emulator.predict_logits_raw(traces),
            n_items=n_shots,
            name="emulator_adc_plus_datapath",
            repeats=repeats,
        )
    )


#: Per-qubit averaging windows of the paper's five-qubit assignment
#: (FNN-A for Q1/Q4/Q5, FNN-B for Q2/Q3) at 500-sample traces.
ENGINE_ASSIGNMENT = (32, 5, 5, 32, 32)


def build_bench_engine(n_samples: int, seed: int) -> ReadoutEngine:
    """The paper's five-qubit deployment: one fixed-point backend per qubit.

    Shared by the engine-serving and raw-carrier sections so both measure the
    same deployment.
    """
    return ReadoutEngine(
        [
            FixedPointBackend(
                build_parameters(Q16_16, n_samples, window, seed=seed + qubit)
            )
            for qubit, window in enumerate(ENGINE_ASSIGNMENT)
        ],
        max_workers=len(ENGINE_ASSIGNMENT),
    )


def bench_engine(report: ThroughputReport, n_shots: int, repeats: int, seed: int) -> None:
    """Multi-qubit serving: ReadoutEngine parallel vs. sequential fan-out.

    Builds the paper's five-qubit deployment (one fixed-point backend per
    qubit, FNN-A/FNN-B assignment) and measures states-only ``serve()`` with
    the per-qubit thread pool against the sequential fallback, asserting the two
    are bit-identical first.  On a single-core container the ratio hovers
    around 1x (the threads just take turns); the measurement exists so
    multi-core hosts show the fan-out gain and CI pins both paths.
    """
    n_samples = 500
    n_qubits = len(ENGINE_ASSIGNMENT)
    # The multiplexed float batch is n_qubits times the per-qubit workload;
    # scale shots down so the benchmark's working set stays container-sized.
    engine_shots = max(600, n_shots // 5)
    rng = np.random.default_rng(seed + 2)
    traces = rng.uniform(-3.0, 3.0, size=(engine_shots, n_qubits, n_samples, 2))
    engine = build_bench_engine(n_samples, seed)
    request = ReadoutRequest(traces=traces, output="states")
    sequential = engine.serve(request, parallel=False).states
    parallel = engine.serve(request, parallel=True).states
    if not np.array_equal(sequential, parallel):
        raise AssertionError(
            "ReadoutEngine parallel fan-out is not bit-identical to the "
            "sequential path"
        )
    print(
        f"  parallel == sequential on {engine_shots} shots x {n_qubits} qubits OK"
    )
    measured = measure_paired(
        {
            "engine_discriminate_all_parallel": (
                lambda: engine.serve(request, parallel=True).states,
                engine_shots * n_qubits,
            ),
            "engine_discriminate_all_sequential": (
                lambda: engine.serve(request, parallel=False).states,
                engine_shots * n_qubits,
            ),
        },
        repeats=repeats,
    )
    for measurement in measured.values():
        report.add(measurement)
    speedup = report.record_speedup(
        "engine_parallel_speedup",
        "engine_discriminate_all_parallel",
        "engine_discriminate_all_sequential",
    )
    report.derived["engine_workers"] = float(engine.worker_count)
    print(
        f"  engine parallel vs sequential: {speedup:.2f}x "
        f"({engine.worker_count} worker(s) on this host)"
    )


def bench_raw_serving(report: ThroughputReport, n_shots: int, repeats: int, seed: int) -> None:
    """Raw-carrier serving vs. the float round-trip through the engine.

    The deployed datapath is handed integer ADC samples; our float-trace
    serving surface re-digitizes every request inside each backend.  This
    section digitizes the multiplexed batch *once* (the capture-side ADC
    step, :func:`digitize_traces`) and serves the int32 carriers as a
    ``raw=`` request, against the same engine serving the original float
    traces as a ``traces=`` request -- after asserting the two paths are
    bit-identical.  The ``raw_vs_float_roundtrip_batch*`` speedups
    are the measured cost of the skipped conversion per batch size, and the
    headline ``raw_vs_float_roundtrip`` is their geometric mean over the
    batch sizes >= 1024 (where the per-call overhead has amortized away).
    """
    n_samples = 500
    n_qubits = len(ENGINE_ASSIGNMENT)
    engine = build_bench_engine(n_samples, seed)
    largest = max(1024, min(n_shots // 4, 2048))
    batch_sizes = sorted({256, 1024, largest})
    rng = np.random.default_rng(seed + 3)
    traces = rng.uniform(-3.0, 3.0, size=(largest, n_qubits, n_samples, 2))
    carriers = digitize_traces(traces)

    float_logits = engine.serve(
        ReadoutRequest(traces=traces, output="logits"), parallel=False
    ).logits
    raw_logits = engine.serve(
        ReadoutRequest(raw=carriers, output="logits"), parallel=False
    ).logits
    if not np.array_equal(float_logits, raw_logits):
        raise AssertionError(
            "raw-carrier serving is not bit-identical to the float-trace path "
            f"(max |delta| = {np.abs(float_logits - raw_logits).max()})"
        )
    print(
        f"  raw ({carriers.dtype}) == float path on {largest} shots x "
        f"{n_qubits} qubits OK"
    )

    headline = []
    for batch in batch_sizes:
        batch_traces = traces[:batch]
        batch_carriers = carriers[:batch]
        raw_name = f"engine_serve_raw_batch{batch}"
        float_name = f"engine_serve_float_roundtrip_batch{batch}"
        measured = measure_paired(
            {
                raw_name: (
                    lambda c=batch_carriers: engine.serve(
                        ReadoutRequest(raw=c)
                    ).states,
                    batch * n_qubits,
                ),
                float_name: (
                    lambda t=batch_traces: engine.serve(
                        ReadoutRequest(traces=t)
                    ).states,
                    batch * n_qubits,
                ),
            },
            repeats=repeats,
        )
        for measurement in measured.values():
            report.add(measurement)
        speedup = report.record_speedup(
            f"raw_vs_float_roundtrip_batch{batch}", raw_name, float_name
        )
        if batch >= 1024:
            headline.append(speedup)
        print(f"  batch {batch}: raw vs float round-trip speedup: {speedup:.2f}x")
    report.derived["raw_vs_float_roundtrip"] = float(
        np.exp(np.mean(np.log(headline)))
    )
    print(
        "  headline raw_vs_float_roundtrip (batch >= 1024 geomean): "
        f"{report.derived['raw_vs_float_roundtrip']:.2f}x"
    )


def bench_service(report: ThroughputReport, n_shots: int, repeats: int, seed: int) -> None:
    """Micro-batched / sharded service vs. serial per-request dispatch.

    The heavy-traffic shape: many small concurrent requests (mid-circuit
    loops, multi-user capture streams) instead of one big offline batch.
    The serial baseline answers them the pre-service way -- one
    ``engine.serve()`` call per request, paying the per-call datapath
    overhead every time.  The ``service_microbatch`` section routes the same
    requests through :class:`ReadoutService`, which coalesces them into
    micro-batches on its bounded queue (in-process dispatch, bit-identical);
    the ``shard_scaling`` section adds ``n_shards=2`` worker processes that
    each load the same artifact bundle and own half the qubit columns.

    Headline numbers: ``service_microbatch_speedup`` (coalescing alone vs
    serial dispatch), ``service_sharded_vs_serial`` (the deployment answer:
    micro-batching + 2 shards vs serial dispatch), and ``shard_scaling``
    (what the second process adds on top of coalescing -- on a single-core
    container this mostly measures the IPC cost, reported honestly).
    """
    import tempfile

    from repro.service import ReadoutService

    n_samples = 500
    n_qubits = len(ENGINE_ASSIGNMENT)
    n_requests = 128
    request_shots = 8
    engine = build_bench_engine(n_samples, seed)
    rng = np.random.default_rng(seed + 4)
    traces = rng.uniform(
        -3.0, 3.0, size=(n_requests * request_shots, n_qubits, n_samples, 2)
    )
    carriers = digitize_traces(traces)  # the ADC step, once at capture
    requests = [
        ReadoutRequest(
            raw=carriers[start : start + request_shots], output="states"
        )
        for start in range(0, carriers.shape[0], request_shots)
    ]
    items = n_requests * request_shots * n_qubits

    def serial_dispatch() -> np.ndarray:
        return np.concatenate(
            [engine.serve(request).states for request in requests]
        )

    def service_gather(service: ReadoutService) -> np.ndarray:
        futures = [service.submit(request) for request in requests]
        return np.concatenate([future.result().states for future in futures])

    reference = serial_dispatch()
    with tempfile.TemporaryDirectory() as tmp:
        bundle_dir = Path(tmp) / "bench-bundle"
        engine.save(bundle_dir)
        # max_batch trades latency for amortization; 64 coalesces the whole
        # backlog into two dispatches, which is what a saturated ingest queue
        # looks like (and keeps the per-dispatch IPC cost of the sharded mode
        # amortized on single-core CI runners).
        with ReadoutService(
            engine=engine, max_batch=64, max_wait_ms=10.0
        ) as in_process, ReadoutService(
            bundle_dir=bundle_dir, n_shards=2, max_batch=64, max_wait_ms=10.0
        ) as sharded:
            if not np.array_equal(service_gather(in_process), reference):
                raise AssertionError(
                    "micro-batched in-process serving is not bit-identical to "
                    "serial per-request dispatch"
                )
            if not np.array_equal(service_gather(sharded), reference):
                raise AssertionError(
                    "sharded micro-batched serving is not bit-identical to "
                    "serial per-request dispatch"
                )
            print(
                f"  service == serial dispatch on {n_requests} requests x "
                f"{request_shots} shots x {n_qubits} qubits OK "
                f"(shard groups: {sharded.shard_groups})"
            )
            measured = measure_paired(
                {
                    "service_serial_dispatch": (serial_dispatch, items),
                    "service_microbatch_inprocess": (
                        lambda: service_gather(in_process),
                        items,
                    ),
                    "service_microbatch_2shards": (
                        lambda: service_gather(sharded),
                        items,
                    ),
                },
                repeats=repeats,
            )
    for measurement in measured.values():
        report.add(measurement)
    microbatch = report.record_speedup(
        "service_microbatch_speedup",
        "service_microbatch_inprocess",
        "service_serial_dispatch",
    )
    sharded_vs_serial = report.record_speedup(
        "service_sharded_vs_serial",
        "service_microbatch_2shards",
        "service_serial_dispatch",
    )
    scaling = report.record_speedup(
        "shard_scaling",
        "service_microbatch_2shards",
        "service_microbatch_inprocess",
    )
    print(
        f"  micro-batching vs serial dispatch: {microbatch:.2f}x; "
        f"+2 shards vs serial: {sharded_vs_serial:.2f}x "
        f"(shard scaling vs in-process: {scaling:.2f}x)"
    )


def bench_remote_serving(
    report: ThroughputReport, n_shots: int, repeats: int, seed: int
) -> None:
    """Loopback TCP serving vs. direct ``serve()`` vs. local shard dispatch.

    The transport-abstraction question: what does putting the wire codec and
    a socket between the caller and the engine cost?  The same request
    stream is answered four ways -- direct in-process ``engine.serve()``
    per request (the baseline), a ``RemoteEngineClient`` round-tripping each
    request through one loopback ``ReadoutServer`` process, the PR-4-style
    2-process local-shard service, and a ``TcpShardTransport``-backed
    service placing the same 2 qubit groups on two loopback server
    processes -- after asserting all four produce bit-identical states.

    On the single-core CI container the remote numbers are dominated by
    framing + socket copies + process hand-offs and land **below** direct
    dispatch; they are reported honestly (like ``shard_scaling``) -- the
    measurement exists so multi-host deployments know the per-request wire
    cost and CI pins the whole TCP tier end to end.
    """
    import tempfile

    from repro.service import ReadoutService, RemoteEngineClient, spawn_server

    n_samples = 500
    n_qubits = len(ENGINE_ASSIGNMENT)
    n_requests = 64
    request_shots = 8
    engine = build_bench_engine(n_samples, seed)
    rng = np.random.default_rng(seed + 5)
    traces = rng.uniform(
        -3.0, 3.0, size=(n_requests * request_shots, n_qubits, n_samples, 2)
    )
    carriers = digitize_traces(traces)
    requests = [
        ReadoutRequest(raw=carriers[start : start + request_shots], output="states")
        for start in range(0, carriers.shape[0], request_shots)
    ]
    items = n_requests * request_shots * n_qubits

    def direct_dispatch() -> np.ndarray:
        return np.concatenate([engine.serve(request).states for request in requests])

    def service_gather(service: ReadoutService) -> np.ndarray:
        futures = [service.submit(request) for request in requests]
        return np.concatenate([future.result().states for future in futures])

    reference = direct_dispatch()
    with tempfile.TemporaryDirectory() as tmp:
        bundle_dir = Path(tmp) / "bench-bundle"
        engine.save(bundle_dir)
        servers = [spawn_server(bundle_dir) for _ in range(2)]
        try:
            hosts = [f"{host}:{port}" for host, port in (s.address for s in servers)]
            client = RemoteEngineClient(hosts[0], timeout=300.0)

            def tcp_dispatch() -> np.ndarray:
                return np.concatenate(
                    [client.serve(request).states for request in requests]
                )

            with ReadoutService(
                bundle_dir=bundle_dir, n_shards=2, max_batch=64, max_wait_ms=10.0
            ) as local_shards, ReadoutService(
                shard_hosts=hosts,
                max_batch=64,
                max_wait_ms=10.0,
                remote_timeout=300.0,
            ) as tcp_shards:
                for label, produced in (
                    ("loopback TCP client", tcp_dispatch()),
                    ("local-shard service", service_gather(local_shards)),
                    ("TCP-shard service", service_gather(tcp_shards)),
                ):
                    if not np.array_equal(produced, reference):
                        raise AssertionError(
                            f"{label} serving is not bit-identical to direct "
                            "engine.serve() dispatch"
                        )
                print(
                    "  TCP client == TCP shards == local shards == direct on "
                    f"{n_requests} requests x {request_shots} shots x "
                    f"{n_qubits} qubits OK (groups: {tcp_shards.shard_groups})"
                )
                measured = measure_paired(
                    {
                        "remote_direct_serve": (direct_dispatch, items),
                        "remote_tcp_loopback": (tcp_dispatch, items),
                        "remote_local_shards": (
                            lambda: service_gather(local_shards),
                            items,
                        ),
                        "remote_tcp_shards": (
                            lambda: service_gather(tcp_shards),
                            items,
                        ),
                    },
                    repeats=repeats,
                )
            client.close()
        finally:
            for handle in servers:
                handle.close()
    for measurement in measured.values():
        report.add(measurement)
    tcp_vs_direct = report.record_speedup(
        "remote_tcp_vs_direct", "remote_tcp_loopback", "remote_direct_serve"
    )
    tcp_shards_vs_direct = report.record_speedup(
        "remote_tcp_shards_vs_direct", "remote_tcp_shards", "remote_direct_serve"
    )
    tcp_shards_vs_local = report.record_speedup(
        "remote_tcp_shards_vs_local_shards",
        "remote_tcp_shards",
        "remote_local_shards",
    )
    print(
        f"  loopback TCP vs direct: {tcp_vs_direct:.2f}x; 2 TCP shards vs "
        f"direct: {tcp_shards_vs_direct:.2f}x (vs 2 local shards: "
        f"{tcp_shards_vs_local:.2f}x)"
    )


def bench_resilient_serving(
    report: ThroughputReport, n_shots: int, repeats: int, seed: int
) -> None:
    """What does self-healing cost?  Steady state vs. a seeded kill cycle.

    One qubit shard is placed on **two** replica ``ReadoutServer`` processes
    behind a :class:`TcpShardTransport`.  The same request stream
    is served twice, per-request round-trip latencies recorded both times:

    * ``resilient_steady`` -- both replicas healthy (repeatable, so it gets
      the usual best-of-``repeats`` treatment), and
    * ``resilient_killover`` -- the *active* replica is SIGKILLed a quarter
      of the way through the stream, so the tail of the run rides one
      failover (redial + resend of pending frames) onto the survivor.  The
      kill is one-shot per server fleet, so this is a single timed pass.

    Bit-identity to direct ``engine.serve()`` is asserted for both passes
    and the failover must actually have happened (``stats.failovers >= 1``,
    no degraded answers).  Besides the two throughput entries, the derived
    section records tail latency: ``resilient_p95_steady_ms`` /
    ``resilient_p95_killover_ms`` (p95 over every per-request round trip)
    and ``resilient_killover_vs_steady`` (throughput ratio; < 1.0 is the
    price of the recovery hiccup).
    """
    import tempfile

    from repro.perf import WallClockTimer
    from repro.perf.timer import ThroughputMeasurement
    from repro.service import ReadoutService, RetryPolicy, spawn_server

    n_samples = 500
    n_qubits = len(ENGINE_ASSIGNMENT)
    n_requests = 48
    request_shots = 8
    engine = build_bench_engine(n_samples, seed)
    rng = np.random.default_rng(seed + 6)
    traces = rng.uniform(
        -3.0, 3.0, size=(n_requests * request_shots, n_qubits, n_samples, 2)
    )
    carriers = digitize_traces(traces)
    requests = [
        ReadoutRequest(raw=carriers[start : start + request_shots], output="states")
        for start in range(0, carriers.shape[0], request_shots)
    ]
    items = n_requests * request_shots * n_qubits
    reference = np.concatenate([engine.serve(request).states for request in requests])

    def p95_ms(samples: list[float]) -> float:
        return float(np.percentile(np.asarray(samples), 95.0) * 1e3)

    latencies: dict[str, list[float]] = {"steady": [], "killover": []}

    def serve_stream(service: ReadoutService, bucket: list[float]) -> np.ndarray:
        # Sequential round trips on purpose: each request's wall time is a
        # clean latency sample, and the failover hiccup lands on exactly one
        # of them instead of smearing across a concurrent batch.
        states = []
        for request in requests:
            with WallClockTimer() as timer:
                states.append(service.submit(request).result(timeout=600).states)
            bucket.append(timer.elapsed)
        return np.concatenate(states)

    with tempfile.TemporaryDirectory() as tmp:
        bundle_dir = Path(tmp) / "bench-bundle"
        engine.save(bundle_dir)
        replicas = [spawn_server(bundle_dir) for _ in range(2)]
        try:
            addresses = {
                f"{host}:{port}": handle
                for handle in replicas
                for host, port in (handle.address,)
            }
            with ReadoutService(
                bundle_dir=bundle_dir,
                shard_hosts=[list(addresses)],
                max_batch=64,
                max_wait_ms=10.0,
                remote_timeout=300.0,
                retry=RetryPolicy(attempts=4, try_timeout_s=300.0),
                failover_seed=seed,
            ) as service:
                if not np.array_equal(
                    serve_stream(service, []), reference
                ):
                    raise AssertionError(
                        "replicated TCP serving is not bit-identical to direct "
                        "engine.serve() dispatch"
                    )
                print(
                    f"  replicated serving == direct on {n_requests} requests x "
                    f"{request_shots} shots x {n_qubits} qubits OK "
                    f"(1 shard, {len(addresses)} replicas)"
                )
                steady = measure_throughput(
                    lambda: serve_stream(service, latencies["steady"]),
                    n_items=items,
                    name="resilient_steady",
                    repeats=repeats,
                )

                kill_at = n_requests // 4
                states = []
                with WallClockTimer() as total:
                    for index, request in enumerate(requests):
                        if index == kill_at:
                            victim = addresses[service._shards[0].address]
                            victim.process.kill()  # the *active* replica dies
                        with WallClockTimer() as timer:
                            states.append(
                                service.submit(request).result(timeout=600).states
                            )
                        latencies["killover"].append(timer.elapsed)
                killover = ThroughputMeasurement(
                    name="resilient_killover",
                    n_items=items,
                    repeats=1,  # a SIGKILL is one-shot per fleet
                    best_seconds=total.elapsed,
                    mean_seconds=total.elapsed,
                    std_seconds=0.0,
                )
                if not np.array_equal(np.concatenate(states), reference):
                    raise AssertionError(
                        "serving diverged from direct dispatch after the kill"
                    )
                stats = service.stats
                if stats.failovers < 1:
                    raise AssertionError("the kill cycle recorded no failover")
                if stats.degraded_requests:
                    raise AssertionError(
                        "the kill cycle degraded answers instead of failing over"
                    )
        finally:
            for handle in replicas:
                handle.close()
    report.add(steady)
    report.add(killover)
    ratio = report.record_speedup(
        "resilient_killover_vs_steady", "resilient_killover", "resilient_steady"
    )
    steady_p95 = p95_ms(latencies["steady"])
    killover_p95 = p95_ms(latencies["killover"])
    report.derived["resilient_p95_steady_ms"] = steady_p95
    report.derived["resilient_p95_killover_ms"] = killover_p95
    print(
        f"  kill cycle vs steady state: {ratio:.2f}x throughput "
        f"({stats.failovers} failover(s)); p95 latency "
        f"{steady_p95:.1f} ms -> {killover_p95:.1f} ms"
    )


def bench_telemetry(report: ThroughputReport, n_shots: int, repeats: int, seed: int) -> None:
    """Telemetry overhead A/B plus SLO admission under a synthetic overload.

    ``telemetry_overhead``: the same micro-batched request stream through two
    otherwise-identical in-process services, one with the stage histograms /
    trace ids on (the default) and one with ``telemetry=False``.  Interleaved
    timing (:func:`measure_paired`) so machine-load drift cannot fake an
    overhead; the recorded ``telemetry_on_vs_off`` ratio must stay >= 0.95x
    -- the subsystem promises <= 5% throughput cost, and this assertion is
    how the promise stays honest.

    ``shed_under_overload``: flood a ``max_batch=1`` service far faster than
    it can drain.  The SLO-bounded twin (``slo_budget_ms`` + a seeded cost
    estimate) sheds the hopeless tail at the submit edge with
    ``AdmissionError``; the unbounded twin accepts everything and lets the
    queue wait grow with the backlog.  Derived numbers: accepted-request p99
    queue wait on both sides plus the shed count -- the point of admission
    control in two lines of JSON.
    """
    from repro.service import AdmissionError, ReadoutService

    n_samples = 500
    n_qubits = len(ENGINE_ASSIGNMENT)
    n_requests = 96
    request_shots = 8
    engine = build_bench_engine(n_samples, seed)
    rng = np.random.default_rng(seed + 6)
    carriers = digitize_traces(
        rng.uniform(
            -3.0, 3.0, size=(n_requests * request_shots, n_qubits, n_samples, 2)
        )
    )
    requests = [
        ReadoutRequest(
            raw=carriers[start : start + request_shots], output="states"
        )
        for start in range(0, carriers.shape[0], request_shots)
    ]
    items = n_requests * request_shots * n_qubits

    def service_gather(service: ReadoutService) -> np.ndarray:
        futures = [service.submit(request) for request in requests]
        return np.concatenate([future.result().states for future in futures])

    # --- telemetry on vs off: same stream, same coalescing ---------------
    with ReadoutService(
        engine=engine, max_batch=64, max_wait_ms=10.0, telemetry=False
    ) as plain, ReadoutService(
        engine=engine, max_batch=64, max_wait_ms=10.0
    ) as telemetered:
        if not np.array_equal(service_gather(telemetered), service_gather(plain)):
            raise AssertionError(
                "telemetry changed the served bits: the instrumented service "
                "diverged from the telemetry=False twin"
            )
        measured = measure_paired(
            {
                "telemetry_off": (lambda: service_gather(plain), items),
                "telemetry_on": (lambda: service_gather(telemetered), items),
            },
            repeats=repeats,
        )
        snapshot = telemetered.metrics()
    for measurement in measured.values():
        report.add(measurement)
    ratio = report.record_speedup(
        "telemetry_on_vs_off", "telemetry_on", "telemetry_off"
    )
    for stage in ("queue", "batch", "compute"):
        if snapshot["stages"][stage]["count"] < 1:
            raise AssertionError(
                f"the instrumented service recorded no {stage!r} latency"
            )
    print(
        f"  telemetry on vs off: {ratio:.2f}x throughput "
        f"(compute p95 {snapshot['stages']['compute']['p95_ms']:.2f} ms over "
        f"{snapshot['stages']['compute']['count']} observations)"
    )
    if ratio < 0.95:
        raise AssertionError(
            "telemetry costs more than the promised 5%: "
            f"{ratio:.3f}x of the uninstrumented throughput"
        )

    # --- shed_under_overload: SLO-bounded vs unbounded admission ---------
    flood = [
        ReadoutRequest(raw=carriers[:request_shots], output="states")
        for _ in range(192)
    ]

    def flooded_p99(service: ReadoutService) -> tuple[int, float]:
        futures = []
        shed = 0
        for request in flood:
            try:
                futures.append(service.submit(request))
            except AdmissionError:
                shed += 1
        for future in futures:
            future.result(timeout=300)
        queue = service.metrics()["stages"]["queue"]
        return shed, float(queue["p99_ms"])

    # max_batch=1 + a deliberately slow drain shape: every request pays a
    # full dispatch, so the backlog (and the unbounded twin's queue wait)
    # grows linearly while the flood loop runs.
    with ReadoutService(
        engine=engine,
        max_batch=1,
        max_wait_ms=0.0,
        slo_budget_ms=25.0,
        slo_initial_cost_ms=2.0,
    ) as bounded:
        shed_count, bounded_p99 = flooded_p99(bounded)
        shed_stats = bounded.stats
    with ReadoutService(engine=engine, max_batch=1, max_wait_ms=0.0) as unbounded:
        accepted_all, unbounded_p99 = flooded_p99(unbounded)
    if accepted_all != 0:
        raise AssertionError("the unbounded twin shed requests without a budget")
    if shed_count < 1:
        raise AssertionError(
            "the SLO-bounded service shed nothing under a 192-request flood"
        )
    if shed_stats.shed_requests != shed_count:
        raise AssertionError(
            f"ServiceStats.shed_requests={shed_stats.shed_requests} disagrees "
            f"with the {shed_count} AdmissionErrors raised"
        )
    if bounded_p99 > unbounded_p99:
        raise AssertionError(
            "shedding did not bound the accepted queue wait: p99 "
            f"{bounded_p99:.1f} ms bounded vs {unbounded_p99:.1f} ms unbounded"
        )
    report.derived["shed_requests_bounded"] = float(shed_count)
    report.derived["shed_p99_bounded_ms"] = bounded_p99
    report.derived["shed_p99_unbounded_ms"] = unbounded_p99
    print(
        f"  overload flood ({len(flood)} requests, 25 ms budget): "
        f"{shed_count} shed, accepted p99 queue wait {bounded_p99:.1f} ms "
        f"vs {unbounded_p99:.1f} ms unbounded"
    )
    engine.close()


def bench_synthesis(report: ThroughputReport, n_shots: int, repeats: int, seed: int) -> None:
    """Trace synthesis: the batched generator vs. the seed per-shot loop."""
    physics = _bench_device()
    state = np.array([1, 0])
    duration_ns = 400.0

    batched = MultiplexedTraceGenerator(physics, seed=seed)
    loop_shots = max(200, n_shots // 10)
    looped = MultiplexedTraceGenerator(physics, seed=seed)
    measured = measure_paired(
        {
            "trace_synthesis_batched": (
                lambda: batched.generate_shots(state, duration_ns, n_shots),
                n_shots,
            ),
            "trace_synthesis_seed_loop": (
                lambda: [
                    _seed_generate_shot(looped, state, duration_ns)
                    for _ in range(loop_shots)
                ],
                loop_shots,
            ),
        },
        repeats=repeats,
    )
    for measurement in measured.values():
        report.add(measurement)
    speedup = report.record_speedup(
        "trace_synthesis_speedup", "trace_synthesis_batched", "trace_synthesis_seed_loop"
    )
    print(f"  synthesis speedup vs seed per-shot loop: {speedup:.1f}x")

    shots_per_state = max(25, n_shots // 50)
    total_shots = 2 * shots_per_state * 2**physics.n_qubits  # train+test, all states
    report.add(
        measure_throughput(
            lambda: generate_dataset(
                physics,
                shots_per_state_train=shots_per_state,
                shots_per_state_test=shots_per_state,
                duration_ns=duration_ns,
                seed=seed,
            ),
            n_items=total_shots,
            name="dataset_builder",
            repeats=max(2, repeats - 2),
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload for CI smoke runs"
    )
    parser.add_argument(
        "--shots", type=int, default=None, help="shots per workload (default 6000, quick 1500)"
    )
    parser.add_argument("--repeats", type=int, default=None, help="timed repeats per workload")
    parser.add_argument("--seed", type=int, default=2025, help="workload RNG seed")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="where to write the JSON report"
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, help="previous report to compare against"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25, help="allowed fractional slowdown vs baseline"
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero if any measurement regressed beyond the tolerance",
    )
    args = parser.parse_args(argv)

    n_shots = args.shots if args.shots is not None else (1500 if args.quick else 6000)
    if n_shots < 1000:
        raise SystemExit("--shots must be >= 1000 for a meaningful throughput estimate")
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 9)

    report = ThroughputReport(
        metadata={
            "quick": bool(args.quick),
            "n_shots": n_shots,
            "seed": args.seed,
            "format": str(Q16_16),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        }
    )
    print(f"Emulator datapath ({n_shots} shots, Q16.16, 500-sample traces):")
    bench_emulator(report, n_shots, repeats, args.seed)
    print("Engine serving (5-qubit ReadoutEngine, parallel vs sequential):")
    bench_engine(report, n_shots, repeats, args.seed)
    print("Raw-carrier serving (digitize once vs per-call float round-trip):")
    bench_raw_serving(report, n_shots, repeats, args.seed)
    print("Service micro-batching + shard scaling (many small concurrent requests):")
    bench_service(report, n_shots, repeats, args.seed)
    print("Remote serving (loopback TCP vs direct serve vs local shards):")
    bench_remote_serving(report, n_shots, repeats, args.seed)
    print("Resilient serving (replicated TCP shard, seeded kill/recover cycle):")
    bench_resilient_serving(report, n_shots, repeats, args.seed)
    print("Telemetry overhead + SLO admission under overload:")
    bench_telemetry(report, n_shots, repeats, args.seed)
    print(f"Trace synthesis ({n_shots} shots, 2-qubit device):")
    bench_synthesis(report, n_shots, repeats, args.seed)

    for name, measurement in sorted(report.measurements.items()):
        print(f"  {name}: {measurement.items_per_second:,.0f} shots/s")

    exit_code = 0
    if args.baseline is not None and not args.baseline.exists():
        if args.fail_on_regression:
            # A typo'd baseline path must not silently disable the CI gate.
            raise SystemExit(
                "--fail-on-regression requires an existing baseline; "
                f"{args.baseline} not found"
            )
        print(f"  note: baseline {args.baseline} not found; skipping comparison")
    if args.baseline is not None and args.baseline.exists():
        baseline = ThroughputReport.load_json(args.baseline)
        for key in ("quick", "n_shots"):
            if baseline.metadata.get(key) != report.metadata.get(key):
                print(
                    f"  note: baseline {key}={baseline.metadata.get(key)!r} differs from "
                    f"this run ({report.metadata.get(key)!r}); ratios are not like-for-like"
                )
        checks = compare_to_baseline(report, baseline, tolerance=args.tolerance)
        for check in checks:
            marker = "REGRESSED" if check.regressed else "ok"
            print(
                f"  vs baseline {check.name}: {check.ratio:.2f}x ({marker})"
            )
        if args.fail_on_regression and any(c.regressed for c in checks):
            # Exit code 3 = "regressed vs baseline", distinct from assertion
            # failures so CI can keep the gate informative but non-blocking.
            exit_code = 3

    path = report.save_json(args.output)
    print(f"Wrote {path}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
