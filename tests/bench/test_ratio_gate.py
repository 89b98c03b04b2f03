"""The paired-ratio gate of ``benchmarks/bench_throughput.py``.

A fake clock that the tasks advance stands in for ``perf_counter``, so the
round order, the median and the exit codes are checked without timing
anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_throughput as bench  # noqa: E402


def test_round_timer_alternates_order_and_returns_the_median_ratio(monkeypatch):
    clock = [0.0]
    calls: list[str] = []

    def task(name: str, seconds: list[float]):
        durations = iter(seconds)

        def run() -> None:
            calls.append(name)
            clock[0] += next(durations)

        return run

    monkeypatch.setattr(bench, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(bench, "ROUNDS", 5)
    # The first call of each is the untimed warm-up.  Per round the baseline
    # takes 3, 9, 2, 4 and 5 times as long as the candidate.
    candidate = task("candidate", [50.0, 1.0, 2.0, 1.0, 2.0, 1.0])
    baseline = task("baseline", [50.0, 3.0, 18.0, 2.0, 8.0, 5.0])

    ratio = bench.paired_ratio(candidate, baseline)

    forward, backward = ["candidate", "baseline"], ["baseline", "candidate"]
    assert calls == forward + forward + backward + forward + backward + forward
    assert ratio == 4.0  # the median; the best-of times would give 2.0


def test_gate_fails_and_names_every_ratio_below_its_floor(capsys):
    low = {"raw_vs_float_roundtrip", "telemetry_on_vs_off"}
    ratios = {
        name: floor * (0.95 if name in low else 1.5)
        for name, floor in bench.FLOORS.items()
    }

    assert bench.gate(ratios) == 1

    lines = capsys.readouterr().out.splitlines()
    for name in bench.FLOORS:
        (line,) = [line for line in lines if line.strip().startswith(f"{name}:")]
        assert line.endswith("BELOW FLOOR") == (name in low)
    assert lines[-1] == (
        "Ratio gate failed: raw_vs_float_roundtrip, telemetry_on_vs_off below floor"
    )


def test_gate_passes_when_every_ratio_meets_its_floor(capsys):
    assert bench.gate(dict(bench.FLOORS)) == 0
    out = capsys.readouterr().out
    assert "BELOW FLOOR" not in out
    assert out.splitlines()[-1] == "Ratio gate passed"


@pytest.mark.parametrize(
    "flag", ["--baseline=x.json", "--shots=2000", "--output=x.json"]
)
def test_quick_is_the_only_option(flag):
    with pytest.raises(SystemExit) as excinfo:
        bench.main([flag])
    assert excinfo.value.code == 2
