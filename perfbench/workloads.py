"""The benchmark's three workloads over the paper's five-qubit deployment.

Every workload serves FNN-A on Q1/Q4/Q5 and FNN-B on Q2/Q3 (built by
``build_bench_engine`` from ``benchmarks/bench_throughput.py``) on 500-sample
Q16.16 int32 carriers generated from the workload seed, and checks every
answer against the states of the frozen seed-path replica (``SeedDatapath``),
computed for the whole input pool during set-up.  Each runs one caller
thread in a closed loop:

* ``offline_batch`` -- ``ReadoutEngine.serve()`` on 1024-shot x 5-qubit
  requests with engine defaults; no service or wire code runs.
* ``feedback_loop`` -- 1-shot, 1-qubit ``priority="feedback"`` requests,
  round-robin over the qubits, through an in-process ``ReadoutService`` with
  default settings, each answer awaited before the next submit.
* ``remote_stream`` -- 16 requests of 8 shots x 5 qubits kept in flight
  through ``ReadoutService(shard_hosts=[addr])`` to one server process
  started as ``python -m repro.service.net BUNDLE --port 0``.

A workload's load can be paused between slices (nothing in flight, the
server idle) so the host-speed probe runs alone.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from bench_throughput import SeedDatapath, build_bench_engine

from probe import vm_hwm_mb
from repro.engine import ReadoutRequest
from repro.readout.preprocessing import digitize_traces
from repro.service import ReadoutService

N_SAMPLES = 500
N_QUBITS = 5
#: The deployment is fixed; only the inputs follow the workload seed.
DEPLOYMENT_SEED = 2025
#: Fresh-interpreter launches per run; ``setup_s`` is their median.
COLD_STARTS = 7
ANSWER_TIMEOUT_S = 30.0
LAUNCH_TIMEOUT_S = 60.0
COLDSTART = Path(__file__).resolve().with_name("coldstart.py")


@dataclass
class Tally:
    """What one kind of slice (untraced or traced) did over a run."""

    attempted: int = 0
    failed: int = 0
    qshots: int = 0
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: ``(submit_returned, answer_arrived)`` per service request.
    answers: list[tuple[float, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: ``(qshots, seconds, first_latency, end_latency, stolen)`` per slice.
    slices: list[tuple] = field(default_factory=list)

    def record(self, ok: bool, started: float, ended: float, qshots: int) -> None:
        self.attempted += 1
        if ok:
            self.qshots += qshots
            self.latencies.append(ended - started)
        else:
            self.failed += 1

    def record_error(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def close_slice(self, stolen: float) -> None:
        """Mark the end of a load slice that lost ``stolen`` of its CPU."""
        done = [sum(s[i] for s in self.slices) for i in (0, 1)]
        first = self.slices[-1][3] if self.slices else 0
        self.slices.append(
            (self.qshots - done[0], self.seconds - done[1], first, len(self.latencies), stolen)
        )

    def unstolen_seconds(self) -> float:
        """Load time the hypervisor did not take."""
        return sum(seconds * (1.0 - stolen) for _, seconds, _, _, stolen in self.slices)


@dataclass
class ColdStart:
    """One fresh-interpreter launch up to its first checked answer."""

    setup_s: float
    import_s: float
    load_s: float
    first_answer_s: float
    ok: bool


def make_carriers(rng: np.random.Generator, n_shots: int) -> np.ndarray:
    """Digitized ``(n_shots, 5, 500, 2)`` int32 carriers, generated in chunks."""
    chunks = []
    for start in range(0, n_shots, 256):
        shots = min(256, n_shots - start)
        traces = rng.uniform(-3.0, 3.0, size=(shots, N_QUBITS, N_SAMPLES, 2))
        chunks.append(digitize_traces(traces))
    return np.concatenate(chunks)


def oracle_states(engine, carriers: np.ndarray) -> np.ndarray:
    """``(n_shots, n_qubits)`` states of the seed-path replica."""
    states = np.empty(carriers.shape[:2], dtype=np.int64)
    for qubit, backend in enumerate(engine.backends):
        seed_path = SeedDatapath(backend.parameters)
        logits = seed_path.predict_logits_from_raw(carriers[:, qubit].astype(np.int64))
        states[:, qubit] = logits >= 0
    return states


def _read_line(process: subprocess.Popen, what: str) -> str:
    """One stdout line of a child, killing it if none comes in time."""
    watchdog = threading.Timer(LAUNCH_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
    finally:
        watchdog.cancel()
    if not line:
        raise RuntimeError(f"{what} exited before reporting (code {process.poll()})")
    return line


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(10)
    process.stdout.close()


class Workload:
    """Set-up, cold starts, live load and teardown of one workload."""

    name = ""
    #: End-to-end metric -> "scaled" (steal removed, then normalised by the
    #: host-speed probe; see ``probe.py``) or "raw".
    forms: dict[str, str] = {}
    #: Layers (``tracer.LAYER_SPANS``) the load must record spans in; a
    #: traced run in which one records none is rejected.
    layers: tuple[str, ...] = ()
    coldstart_role = ""

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.engine = build_bench_engine(N_SAMPLES, DEPLOYMENT_SEED)
        self.bundle = work / "bundle"
        self.engine.save(self.bundle)
        self.requests: list[ReadoutRequest] = []
        self.expected: list[np.ndarray] = []
        self.qshots: list[int] = []
        self.first: np.ndarray | None = None
        self.first_expected: np.ndarray | None = None
        self._next = 0
        self._log = open(work / "children.log", "w")

    # ----------------------------------------------------------- set-up
    def _add_pool(self, requests, expected) -> None:
        self.requests = list(requests)
        self.expected = list(expected)
        self.qshots = [int(np.prod(e.shape)) for e in self.expected]

    def _next_index(self) -> int:
        index = self._next
        self._next = (index + 1) % len(self.requests)
        return index

    def _launch(self, *args: str) -> subprocess.Popen:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.Popen(
            [sys.executable, str(COLDSTART), *args],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )

    def cold_start(self) -> ColdStart:
        """Launch a fresh serving interpreter and time it to its first answer."""
        first = self.work / "first.npy"
        if not first.exists():
            np.save(first, self.first)
        started = time.perf_counter()
        process = self._launch(self.coldstart_role, str(self.bundle), str(first))
        try:
            line = _read_line(process, f"{self.coldstart_role} cold start")
            answered = time.perf_counter()
            process.wait(LAUNCH_TIMEOUT_S)
        finally:
            _stop(process)
        report = json.loads(line)
        return ColdStart(
            setup_s=answered - started,
            import_s=report["import_s"],
            load_s=report["load_s"],
            first_answer_s=report["first_answer_s"],
            ok=np.array_equal(np.asarray(report["states"]), self.first_expected),
        )

    # ------------------------------------------------------------- load
    def start(self) -> None:
        """Create the live serving objects the load slices use."""

    def run_slice(self, seconds: float, tally: Tally, tracer=None) -> None:
        """Run the closed loop for ``seconds``, then pause (nothing in flight)."""
        raise NotImplementedError

    def install(self, tracer) -> None:
        """Wrap this workload's live objects for a traced slice."""

    def counters(self) -> dict[str, float]:
        """Cumulative serving counters the per-layer report differences."""
        return {}

    @property
    def server_pid(self) -> int | None:
        return None

    def peak_rss_mb(self) -> float:
        """Resident high-water mark of the serving process."""
        return vm_hwm_mb()

    def close(self) -> None:
        self.engine.close()
        self._log.close()


class OfflineBatch(Workload):
    name = "offline_batch"
    forms = {"qshots_per_s": "scaled", "p50_ms": "scaled", "p95_ms": "scaled"}
    layers = ("fpga", "engine")
    coldstart_role = "engine"
    POOL = 2
    SHOTS = 1024

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        requests, expected = [], []
        for _ in range(self.POOL):
            carriers = make_carriers(self.rng, self.SHOTS)
            requests.append(ReadoutRequest(raw=carriers))
            expected.append(oracle_states(self.engine, carriers))
        self._add_pool(requests, expected)
        self.first = np.ascontiguousarray(requests[0].raw[:1])
        self.first_expected = expected[0][:1]

    def run_slice(self, seconds: float, tally: Tally, tracer=None) -> None:
        deadline = time.perf_counter() + seconds
        slice_start = time.perf_counter()
        now = slice_start
        while now < deadline:
            index = self._next_index()
            if tracer is not None:
                tracer.trace_id = f"op-{tally.attempted}"
            started = time.perf_counter()
            try:
                states = self.engine.serve(self.requests[index]).states
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                tally.record_error(exc)
                now = time.perf_counter()
                continue
            now = time.perf_counter()
            tally.record(
                np.array_equal(states, self.expected[index]), started, now,
                self.qshots[index],
            )
        tally.seconds += now - slice_start

    def install(self, tracer) -> None:
        tracer.install_engine(self.engine)


class FeedbackLoop(Workload):
    name = "feedback_loop"
    # The rate and p50 are mostly the service's linger sleep, which neither
    # steal nor host speed moves; the tail is CPU work.
    forms = {"qshots_per_s": "raw", "p50_ms": "raw", "p95_ms": "scaled"}
    layers = ("fpga", "engine", "service")
    coldstart_role = "service"
    SHOTS = 256

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        carriers = make_carriers(self.rng, self.SHOTS)
        states = oracle_states(self.engine, carriers)
        requests, expected = [], []
        for shot in range(self.SHOTS):
            for qubit in range(N_QUBITS):
                payload = np.ascontiguousarray(carriers[shot : shot + 1, qubit : qubit + 1])
                requests.append(
                    ReadoutRequest(raw=payload, qubits=(qubit,), priority="feedback")
                )
                expected.append(states[shot : shot + 1, qubit : qubit + 1])
        self._add_pool(requests, expected)
        self.first = requests[0].raw
        self.first_expected = expected[0]
        self.service: ReadoutService | None = None

    def start(self) -> None:
        self.service = ReadoutService(engine=self.engine)

    def run_slice(self, seconds: float, tally: Tally, tracer=None) -> None:
        service = self.service
        deadline = time.perf_counter() + seconds
        slice_start = time.perf_counter()
        now = slice_start
        while now < deadline:
            index = self._next_index()
            if tracer is not None:
                tracer.trace_id = f"op-{tally.attempted}"
            started = time.perf_counter()
            try:
                future = service.submit(self.requests[index])
                submitted = time.perf_counter()
                states = future.result(timeout=ANSWER_TIMEOUT_S).states
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                tally.record_error(exc)
                now = time.perf_counter()
                continue
            now = time.perf_counter()
            if tracer is not None:
                tally.answers.append((submitted, now))
            tally.record(
                np.array_equal(states, self.expected[index]), started, now,
                self.qshots[index],
            )
        tally.seconds += now - slice_start

    def install(self, tracer) -> None:
        tracer.install_engine(self.engine)
        tracer.install_service(self.service)

    def counters(self) -> dict[str, float]:
        stats = self.service.stats
        return {"requests": stats.requests_served, "batches": stats.batches}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        super().close()


class RemoteStream(Workload):
    name = "remote_stream"
    forms = {"qshots_per_s": "scaled", "p50_ms": "scaled", "p95_ms": "scaled"}
    layers = ("service", "wire", "net")
    coldstart_role = "server"
    REQUESTS = 64
    SHOTS = 8
    WINDOW = 16

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        carriers = make_carriers(self.rng, self.REQUESTS * self.SHOTS)
        states = oracle_states(self.engine, carriers)
        requests, expected = [], []
        for start in range(0, carriers.shape[0], self.SHOTS):
            requests.append(ReadoutRequest(raw=carriers[start : start + self.SHOTS]))
            expected.append(states[start : start + self.SHOTS])
        self._add_pool(requests, expected)
        self.first = np.ascontiguousarray(carriers[:1])
        self.first_expected = states[:1]
        self.server: subprocess.Popen | None = None
        self.service: ReadoutService | None = None

    def cold_start(self) -> ColdStart:
        """Launch the server, connect a fresh service, answer once.

        The last launch stays up and serves the load.
        """
        self._stop_live()
        started = time.perf_counter()
        process = self._launch(self.coldstart_role, str(self.bundle))
        service = None
        try:
            import_s = json.loads(_read_line(process, "server"))["import_s"]
            imported = time.perf_counter()
            serving = _read_line(process, "server")
            listening = time.perf_counter()
            address = serving.rsplit(" on ", 1)[1].strip()
            service = ReadoutService(shard_hosts=[address])
            states = (
                service.submit(ReadoutRequest(raw=self.first))
                .result(timeout=ANSWER_TIMEOUT_S)
                .states
            )
            answered = time.perf_counter()
        except BaseException:
            if service is not None:
                service.close()
            _stop(process)
            raise
        self.server, self.service = process, service
        return ColdStart(
            setup_s=answered - started,
            import_s=import_s,
            load_s=listening - imported,
            first_answer_s=answered - listening,
            ok=np.array_equal(states, self.first_expected),
        )

    def run_slice(self, seconds: float, tally: Tally, tracer=None) -> None:
        service = self.service
        deadline = time.perf_counter() + seconds
        slice_start = time.perf_counter()
        inflight: collections.deque = collections.deque()
        while True:
            if time.perf_counter() < deadline:
                while len(inflight) < self.WINDOW:
                    index = self._next_index()
                    if tracer is not None:
                        tracer.trace_id = f"op-{tally.attempted + len(inflight)}"
                    started = time.perf_counter()
                    try:
                        future = service.submit(self.requests[index])
                    except Exception as exc:  # noqa: BLE001 - a failed op
                        tally.record_error(exc)
                        break
                    inflight.append((index, started, time.perf_counter(), future))
            if not inflight:
                break
            index, started, submitted, future = inflight.popleft()
            try:
                states = future.result(timeout=ANSWER_TIMEOUT_S).states
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                tally.record_error(exc)
                continue
            answered = time.perf_counter()
            if tracer is not None:
                tally.answers.append((submitted, answered))
            tally.record(
                np.array_equal(states, self.expected[index]), started, answered,
                self.qshots[index],
            )
        tally.seconds += time.perf_counter() - slice_start

    def install(self, tracer) -> None:
        tracer.install_service(self.service)
        tracer.install_wire()

    def counters(self) -> dict[str, float]:
        snapshot = self.service.metrics(include_remotes=True)
        stats = snapshot["stats"]
        (server,) = snapshot["placements_metrics"].values()
        compute = server["histograms"]["compute"]
        return {
            "requests": stats["requests_served"],
            "batches": stats["batches"],
            "server_compute_s": compute["sum_s"],
            "server_compute_n": compute["count"],
        }

    @property
    def server_pid(self) -> int | None:
        return None if self.server is None else self.server.pid

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.server.pid)

    def _stop_live(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.server is not None:
            _stop(self.server)
            self.server = None

    def close(self) -> None:
        self._stop_live()
        super().close()


WORKLOADS = {cls.name: cls for cls in (OfflineBatch, FeedbackLoop, RemoteStream)}
