"""Tests of the benchmark harness itself (not of the program it measures)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", ROOT / "benchmarks", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import probe  # noqa: E402
import run as harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyOffline(workloads.OfflineBatch):
    """The offline workload on one 4-shot request, for quick harness runs."""

    POOL = 1
    SHOTS = 4


@pytest.fixture
def tiny(tmp_path):
    workload = TinyOffline(ROOT, tmp_path, seed=0)
    yield workload
    workload.close()


@pytest.fixture
def short_slices(monkeypatch):
    monkeypatch.setattr(workloads, "COLD_STARTS", 1)
    monkeypatch.setattr(harness, "WARMUP_S", 0.05)
    monkeypatch.setattr(harness, "LOAD_SLICE_S", 0.05)
    monkeypatch.setattr(harness, "PROBE_SLICE_S", 0.02)


def test_scaling_removes_steal_then_normalises_to_the_nominal_probe():
    nominal = probe.PROBE_NOMINAL
    # A second that lost a quarter of its CPU, on a host whose probe ran at
    # half the nominal rate, is 0.75 * 0.5 nominal seconds.
    assert probe.slice_factor(0.25, nominal / 2) == pytest.approx(0.375)
    # 300 items over a clean and a half-stolen 1 s slice at nominal speed.
    slices = [(1.0, 0.0), (1.0, 0.5)]
    assert probe.scale_rate(300, slices, nominal) == pytest.approx(200.0)
    # A host twice as fast as nominal: 10 ms there is 20 ms on the nominal host.
    assert probe.scale_time(0.010, 0.0, 2 * nominal) == pytest.approx(0.020)


def test_end_to_end_values_apply_each_declared_form():
    tally = workloads.Tally()
    for latency in (0.010, 0.020):
        tally.record(True, 0.0, latency, qshots=50)
    tally.seconds = 1.0
    tally.close_slice(stolen=0.5)
    nominal = probe.PROBE_NOMINAL
    run = harness.Measurement(
        colds=[SimpleNamespace(setup_s=s) for s in (0.3, 0.1, 0.2)],
        warm=workloads.Tally(),
        tallies={"untraced": tally},
        meter=SimpleNamespace(rate=nominal),
        counters=({}, {}),
        peak_mb=123.0,
    )
    scaled = harness.end_to_end_values(
        {"qshots_per_s": "scaled", "p50_ms": "scaled", "p95_ms": "raw"}, run
    )
    # Half the slice was stolen and the probe ran at nominal speed, so the
    # 1 s slice counts as half a nominal second.
    assert scaled["qshots_per_s"] == pytest.approx(200.0)
    assert scaled["p50_ms"] == pytest.approx(7.5)
    assert scaled["p95_ms"] == pytest.approx(19.5)
    assert scaled["setup_s"] == pytest.approx(0.2)
    assert scaled["peak_rss_mb"] == 123.0
    raw = harness.end_to_end_values(
        {"qshots_per_s": "raw", "p50_ms": "raw", "p95_ms": "raw"}, run
    )
    assert raw["qshots_per_s"] == pytest.approx(100.0)
    assert raw["p50_ms"] == pytest.approx(15.0)


def test_a_wrong_answer_is_a_failed_operation(tiny):
    clean = workloads.Tally()
    tiny.run_slice(0.05, clean)
    assert clean.attempted >= 1 and clean.failed == 0

    serve = tiny.engine.serve

    def one_flipped_state(request, **kwargs):
        result = serve(request, **kwargs)
        result.states[0, 0] ^= 1
        return result

    tiny.engine.serve = one_flipped_state
    tally = workloads.Tally()
    tiny.run_slice(0.05, tally)
    tally.close_slice(stolen=0.0)
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted
    assert tally.qshots == 0

    run = harness.Measurement(
        colds=[],
        warm=workloads.Tally(),
        tallies={"untraced": tally},
        meter=SimpleNamespace(rate=probe.PROBE_NOMINAL, foreign_share=0.0),
        counters=({}, {}),
        peak_mb=1.0,
    )
    result = harness.report(tiny, run, None, SPEC)
    assert result["correct"] is False
    assert result["failed"] == tally.failed


@pytest.mark.parametrize("traced", [False, True])
def test_every_declared_metric_is_reported_with_its_unit(tiny, short_slices, traced):
    tracer = Tracer() if traced else None
    run = harness.measure(tiny, 0.2, tracer)
    result = harness.report(tiny, run, tracer, SPEC)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    json.dumps(result)
    if traced:
        # The offline workload runs every datapath module and the engine.
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for arch in tracing.ARCHS.values():
            for label in tracing.MODULES:
                assert values[f"fpga.{arch}.{label}_ms"] > 0
        assert values["engine.serve_ms"] > 0


def test_a_layer_that_records_nothing_fails_the_traced_run(tiny, short_slices, monkeypatch):
    # As if the program called the modules through references the tracer
    # cannot shadow: the fpga layer would read 0, which looks like a gain.
    wrap = Tracer._wrap

    def wrap_all_but_modules(self, owner, attr, *args, **kwargs):
        if attr != "forward":
            wrap(self, owner, attr, *args, **kwargs)

    monkeypatch.setattr(Tracer, "_wrap", wrap_all_but_modules)
    tracer = Tracer()
    run = harness.measure(tiny, 0.2, tracer)
    assert tracing.unrecorded(tracer.spans, ("engine",)) == []
    assert "fpga.fnn_a.average" in tracing.unrecorded(tracer.spans, ("fpga",))
    result = harness.report(tiny, run, tracer, SPEC)
    assert result["correct"] is False
    assert result["failed"] == 0 and result["metrics"] == {}


def test_without_the_repository_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, bench)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
