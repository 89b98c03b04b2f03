"""Network serving: the same readout bundle served across a host boundary.

The deployment story of the serving stack, end to end on loopback TCP:

1. build a synthetic five-qubit fixed-point deployment (no training needed --
   the point here is the serving path, not fidelity) and save it as an
   artifact bundle,
2. start two ``ReadoutServer`` processes on 127.0.0.1, each loading that
   bundle -- exactly what ``python -m repro.service.net <bundle>`` does on a
   real remote host,
3. serve requests three ways and verify all are **bit-identical**:
   direct in-process ``engine.serve()``, a ``RemoteEngineClient`` round trip
   through one server, and a ``ReadoutService(shard_hosts=[...])`` that
   splits qubit columns across both servers with micro-batching on top.

Then the resilience story on the same stack: place each qubit shard on
**two** replica servers, kill one placement mid-load, and verify every
request still completes bit-identical while ``ServiceStats`` records the
failover.

The failover demo ends with the observability story: the service's folded
telemetry snapshot and a **remote** METRICS-frame snapshot fetched from a
surviving replica (what ``python -m repro.service.telemetry HOST:PORT``
prints against a production host).

Next the model-lifecycle story: publish the bundle to a versioned
:class:`~repro.service.BundleRegistry`, let the
:class:`~repro.service.RegistryWatcher` verify and adopt a "retrained"
bundle out of the staging area, hot-swap to it under queued load, and swap
back to the original under queued load -- zero dropped requests and
bit-identity on both sides of each swap barrier.

CI runs this as its loopback network-serving smoke: any failure exits with
code 5, which CI downgrades to a warning like the other non-blocking
gates.  Run it with::

    PYTHONPATH=src python examples/network_serving.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.engine import FixedPointBackend, ReadoutEngine, ReadoutRequest
from repro.fpga.fixed_point import Q16_16
from repro.fpga.quantize import QuantizedStudentParameters
from repro.readout.preprocessing import digitize_traces
from repro.service import (
    ReadoutService,
    RemoteEngineClient,
    RetryPolicy,
    spawn_server,
)

#: Distinct exit code for the CI smoke gate ("network serving broke"),
#: mirroring the examples gate (4).
SMOKE_FAILURE_EXIT_CODE = 5


def synthetic_parameters(seed: int, n_samples: int = 120) -> QuantizedStudentParameters:
    """A deterministic quantized student (FNN-A-like shape, small and fast)."""
    rng = np.random.default_rng(seed)
    samples_per_interval = 8
    n_features = 2 * (n_samples // samples_per_interval) + 1
    widths = [n_features, 12, 6, 1]
    fmt = Q16_16
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


def run() -> None:
    n_qubits, n_shots = 5, 96
    engine = ReadoutEngine(
        [FixedPointBackend(synthetic_parameters(seed=2025 + q)) for q in range(n_qubits)]
    )
    rng = np.random.default_rng(7)
    traces = rng.uniform(-3.0, 3.0, size=(n_shots, n_qubits, 120, 2))
    carriers = digitize_traces(traces)  # the ADC step, once at capture
    request = ReadoutRequest(raw=carriers, output="both")
    direct = engine.serve(request)
    print(f"Direct in-process serve: {n_shots} shots x {n_qubits} qubits "
          f"(backend {direct.meta['backend']!r})")

    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "readout-v1"
        engine.save(bundle)
        print(f"Saved the deployment bundle to {bundle.name}/")

        print("Starting two ReadoutServer processes on 127.0.0.1 ...")
        servers = [spawn_server(bundle) for _ in range(2)]
        try:
            hosts = [f"{host}:{port}" for host, port in (s.address for s in servers)]
            print(f"Servers up at {hosts[0]} and {hosts[1]}")

            # --- One client, one server: the remote twin of engine.serve() --
            with RemoteEngineClient(hosts[0], timeout=60.0) as client:
                info = client.info()
                print(f"Server deployment info: {info['n_qubits']} qubits, "
                      f"backend {info['backend']!r}")
                remote = client.serve(request)
            assert np.array_equal(remote.states, direct.states), "remote states diverged"
            assert np.array_equal(remote.logits, direct.logits), "remote logits diverged"
            print("RemoteEngineClient round trip: bit-identical to direct serve()")

            # --- Qubit shards across both servers, micro-batching on top ----
            with ReadoutService(
                shard_hosts=hosts, max_batch=16, max_wait_ms=5.0, remote_timeout=60.0
            ) as service:
                print(f"ReadoutService placed qubit groups {service.shard_groups} "
                      f"on {service.stats.placements} hosts over "
                      f"{service.transport_name!r}")
                chunk = 8
                futures = [
                    service.submit(
                        ReadoutRequest(raw=carriers[i : i + chunk], output="both")
                    )
                    for i in range(0, n_shots, chunk)
                ]
                results = [future.result(timeout=120) for future in futures]
                stats = service.stats
            states = np.concatenate([r.states for r in results])
            logits = np.concatenate([r.logits for r in results])
            assert np.array_equal(states, direct.states), "sharded states diverged"
            assert np.array_equal(logits, direct.logits), "sharded logits diverged"
            print(f"TCP-sharded service: bit-identical across {stats.requests_served} "
                  f"requests in {stats.batches} dispatches "
                  f"(transport={stats.transport!r}, placements={stats.placements}, "
                  f"backend={stats.backend!r})")
        finally:
            for handle in servers:
                handle.close()
    engine.close()
    print("\nAll three serving paths are bit-identical. Network serving OK.")


def run_failover() -> None:
    """Kill one placement mid-load; every request must still complete."""
    n_qubits, n_shots = 4, 64
    engine = ReadoutEngine(
        [FixedPointBackend(synthetic_parameters(seed=31 + q)) for q in range(n_qubits)]
    )
    rng = np.random.default_rng(11)
    carriers = digitize_traces(
        rng.uniform(-3.0, 3.0, size=(n_shots, n_qubits, 120, 2))
    )
    request = ReadoutRequest(raw=carriers, output="both")
    direct = engine.serve(request)

    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "readout-v1"
        engine.save(bundle)
        print("\nStarting two shards x two replica servers each ...")
        replicas = [[spawn_server(bundle) for _ in range(2)] for _ in range(2)]
        flat = [handle for pair in replicas for handle in pair]
        try:
            shard_hosts = [
                [f"{host}:{port}" for host, port in (h.address for h in pair)]
                for pair in replicas
            ]
            with ReadoutService(
                bundle_dir=bundle,
                shard_hosts=shard_hosts,
                retry=RetryPolicy(attempts=4, try_timeout_s=15.0),
                remote_timeout=60.0,
                failover_seed=7,
            ) as service:
                print(f"Replicated placement: qubit groups {service.shard_groups} "
                      f"on {[len(r) for r in shard_hosts]} replicas per shard")
                futures = [service.submit(request) for _ in range(3)]
                victim = replicas[0][0]
                victim.process.kill()  # a placement dies hard, mid-load
                print(f"Killed the placement at {victim.address[0]}:"
                      f"{victim.address[1]} mid-load")
                futures += [service.submit(request) for _ in range(3)]
                results = [future.result(timeout=120) for future in futures]
                stats = service.stats
                service_metrics = service.metrics(include_remotes=False)
            for result in results:
                assert np.array_equal(result.states, direct.states), \
                    "states diverged after failover"
                assert np.array_equal(result.logits, direct.logits), \
                    "logits diverged after failover"
                assert "degraded" not in result.meta, "a request was degraded"
            assert stats.failovers >= 1, "no failover was recorded"
            print(f"All {stats.requests_served} requests bit-identical through "
                  f"{stats.failovers} failover(s). Self-healing OK.")

            # --- Telemetry tail: observability of the run just made --------
            from repro.service.telemetry import format_metrics

            print()
            print(format_metrics(service_metrics, title="service telemetry"))
            survivor = "%s:%d" % replicas[0][1].address
            with RemoteEngineClient(survivor, timeout=30.0) as client:
                remote_metrics = client.metrics()
            print()
            print(format_metrics(
                remote_metrics, title=f"surviving replica {survivor}"
            ))
            assert remote_metrics["requests_served"] >= 1, \
                "survivor served nothing"
            assert service_metrics["stages"]["wire"]["count"] >= 1, \
                "no wire latency was recorded"
            print("\nRemote metrics snapshot fetched over METRICS frames. "
                  "Observability OK.")
        finally:
            for handle in flat:
                handle.close()
    engine.close()


def run_lifecycle() -> None:
    """Publish, adopt, hot-swap and swap back a bundle with zero drops."""
    from repro.service import BundleRegistry, RegistryWatcher

    n_qubits, n_shots = 4, 64
    engine_v1 = ReadoutEngine(
        [FixedPointBackend(synthetic_parameters(seed=51 + q)) for q in range(n_qubits)]
    )
    engine_v2 = ReadoutEngine(
        [FixedPointBackend(synthetic_parameters(seed=151 + q)) for q in range(n_qubits)]
    )
    rng = np.random.default_rng(13)
    carriers = digitize_traces(
        rng.uniform(-3.0, 3.0, size=(n_shots, n_qubits, 120, 2))
    )
    request = ReadoutRequest(raw=carriers, output="both")
    ref_v1 = engine_v1.serve(request)
    ref_v2 = engine_v2.serve(request)

    with tempfile.TemporaryDirectory() as tmp:
        registry = BundleRegistry(Path(tmp) / "registry")
        bundle_v1 = Path(tmp) / "train-out-v1"
        engine_v1.save(bundle_v1)
        version_v1 = registry.publish(bundle_v1)
        print(f"\nPublished the deployment as registry version {version_v1!r} "
              f"(bundle id {registry.bundle_id(version_v1)[:12]}...)")

        # A retrain pipeline drops the new calibration into staging; the
        # watcher verifies every checksum before adopting it as a version.
        engine_v2.save(registry.staging_dir / "retrain-output")
        watcher = RegistryWatcher(registry)
        adopted = watcher.poll_once()
        assert adopted, "the watcher did not adopt the staged bundle"
        version_v2 = adopted[0]
        print(f"Watcher verified and adopted staging/retrain-output as "
              f"{version_v2!r}")

        with ReadoutService(
            registry=registry, bundle_dir=registry.resolve(version_v1)
        ) as service:
            # Hot swap to v2, then back to v1 (the rollback), each under
            # queued load: requests submitted before a swap drain on the old
            # engine, requests after it on the new -- zero drops,
            # bit-identity on both sides of both barriers.
            for version, old, new in (
                (version_v2, ref_v1, ref_v2),
                (version_v1, ref_v2, ref_v1),
            ):
                pre = [service.submit(request) for _ in range(6)]
                service.swap_bundle(version)
                post = [service.submit(request) for _ in range(6)]
                for future in pre:
                    result = future.result(timeout=120)
                    assert np.array_equal(result.logits, old.logits), \
                        "a pre-swap request was not served by the old engine"
                for future in post:
                    result = future.result(timeout=120)
                    assert np.array_equal(result.logits, new.logits), \
                        "a post-swap request was not served by the new engine"
                print(f"Swapped to {version!r} under queued load: "
                      f"{len(pre)} pre-swap and {len(post)} post-swap "
                      "requests bit-identical.")
            stats = service.stats
        assert stats.bundle_swaps == 2, "expected a swap and a swap back"
        print(f"Hot swaps: {stats.bundle_swaps} (there and back), "
              f"{stats.requests_served} requests served, zero dropped, "
              f"active version {stats.active_version!r}. Model lifecycle OK.")
    engine_v1.close()
    engine_v2.close()


def main() -> int:
    import traceback

    try:
        run()
        run_failover()
        run_lifecycle()
    except Exception:  # noqa: BLE001 - the smoke gate wants one exit code
        traceback.print_exc()
        return SMOKE_FAILURE_EXIT_CODE
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
