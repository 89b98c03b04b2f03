"""Hostile int64 raw carriers saturate like the ADC register through serve().

A raw carrier is outside input: ``ReadoutRequest(raw=...)`` accepts any
signed integer array.  The datapath saturates it to the word length first
(``FpgaStudentEmulator._saturate_input``), so an int64 carrier holding
values far outside Q16.16 -- up to +-(2**63 - 1) -- must answer exactly like
the same carrier clipped to ``[min_raw, max_raw]`` as int32, through
``engine.serve()`` and through an in-process ``ReadoutService``, on FNN-A
and FNN-B alike.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_throughput import ENGINE_ASSIGNMENT, build_bench_engine  # noqa: E402

from repro.engine import ReadoutRequest  # noqa: E402
from repro.fpga.fixed_point import Q16_16  # noqa: E402
from repro.service import ReadoutService  # noqa: E402

N_SAMPLES = 500
MIN_RAW, MAX_RAW = Q16_16.min_raw, Q16_16.max_raw

#: Values an int64 carrier can hold that the 32-bit capture register cannot,
#: plus its two edges' neighbours and +-2**31.
HOSTILE = (
    2**62,
    -(2**62),
    2**63 - 1,
    -(2**63 - 1),
    MAX_RAW + 1,
    MIN_RAW - 1,
    2**31,
    -(2**31),
)


@pytest.fixture(scope="module")
def engine():
    """The paper's deployment: FNN-A on Q1/Q4/Q5, FNN-B on Q2/Q3."""
    with build_bench_engine(N_SAMPLES, seed=2025) as engine:
        yield engine


@pytest.fixture(scope="module")
def service(engine):
    with ReadoutService(engine=engine, max_wait_ms=0.0) as service:
        yield service


@st.composite
def hostile_carriers(draw) -> np.ndarray:
    """In-range int64 samples with hostile values scattered and in runs."""
    shots = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    carrier = rng.integers(
        MIN_RAW,
        MAX_RAW,
        size=(shots, len(ENGINE_ASSIGNMENT), N_SAMPLES, 2),
        dtype=np.int64,
        endpoint=True,
    )
    flat = carrier.reshape(-1)
    positions = draw(
        st.lists(st.integers(min_value=0, max_value=flat.size - 1), max_size=32)
    )
    for position in positions:
        flat[position] = draw(st.sampled_from(HOSTILE))
    start = draw(st.integers(min_value=0, max_value=flat.size - 1))
    length = draw(st.integers(min_value=1, max_value=2 * N_SAMPLES))
    flat[start : start + length] = draw(st.sampled_from(HOSTILE))
    return carrier


@settings(max_examples=100, deadline=None)
@given(
    carrier=hostile_carriers(),
    output=st.sampled_from(["states", "logits", "both"]),
)
def test_hostile_int64_carriers_answer_like_the_clipped_int32_carrier(
    engine, service, carrier, output
):
    clipped = np.clip(carrier, MIN_RAW, MAX_RAW).astype(np.int32)
    expected = engine.serve(ReadoutRequest(raw=clipped, output=output))
    for answer in (
        engine.serve(ReadoutRequest(raw=carrier, output=output)),
        service.serve(ReadoutRequest(raw=carrier, output=output)),
    ):
        for field in ("states", "logits"):
            want, got = getattr(expected, field), getattr(answer, field)
            assert (want is None) == (got is None)
            if want is not None:
                np.testing.assert_array_equal(got, want)
