"""Host-speed probe and host accounting for the repository benchmark.

The benchmark VM changes speed between runs and within them, in two ways:
the hypervisor steals CPU time from runnable vCPUs (``steal`` in
``/proc/stat``, often 10-40% of the CPU the benchmark demands), and the CPU
time it does get runs faster or slower.  CPU-bound timings are corrected for
both, one load slice at a time:

* the slice's time is multiplied by the share of demanded CPU the VM kept
  (``1 - stolen``), and
* by ``probe_rate / PROBE_NOMINAL``, where ``probe_rate`` is how many calls
  per unstolen second a frozen pure-NumPy kernel managed in the probe slices
  of the same run.

So a scaled rate is the raw rate * ``PROBE_NOMINAL / probe_rate`` over
unstolen time, and a scaled time is the raw time * ``(1 - stolen) *
probe_rate / PROBE_NOMINAL``.  The kernel does the same kind of work as the
fixed-point datapath (int32 carriers widened to int64, adder-tree sums, an
int64 MAC) and must never change: every scaled figure ever recorded is
relative to it.

The probe only runs while the load is paused.  :class:`ProbeMeter` records
the CPU time every other thread of this process and the server process used
during the probe slices, so a run in which something else competed with the
probe can be rejected instead of silently inflating every scaled metric.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Probe calls per unstolen second that scaled figures are normalised to,
#: about what the probe ran at on the 2-vCPU Xeon VM the benchmark was
#: defined on.  Fixed: changing it rescales every scaled metric.
PROBE_NOMINAL = 650.0

#: Most CPU time other threads and the server may use during probe slices,
#: as a share of the probe's own CPU time, before the run is rejected.
MAX_FOREIGN_CPU_SHARE = 0.05

_PROBE_SHOTS = 64
_PROBE_SAMPLES = 500
_PROBE_WINDOW = 5


def make_probe_inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The probe's frozen operands (independent of the workload seed)."""
    rng = np.random.default_rng(20251017)
    trace = rng.integers(
        -(1 << 17), 1 << 17, size=(_PROBE_SHOTS, _PROBE_SAMPLES, 2), dtype=np.int32
    )
    weights = rng.integers(
        -(1 << 15), 1 << 15, size=(2 * _PROBE_SAMPLES, 16), dtype=np.int64
    )
    boundaries = np.arange(0, _PROBE_SAMPLES, _PROBE_WINDOW)
    return trace, weights, boundaries


def probe_kernel(trace: np.ndarray, weights: np.ndarray, boundaries: np.ndarray) -> int:
    """One probe call: widen, adder-tree sums, an int64 MAC, shift and clip."""
    wide = trace.astype(np.int64)
    sums = np.add.reduceat(wide, boundaries, axis=1)
    mac = wide.reshape(wide.shape[0], -1) @ weights
    mac >>= 16
    np.clip(mac, -(1 << 31), (1 << 31) - 1, out=mac)
    return int(sums.sum()) + int(mac.sum())


def slice_factor(stolen: float, probe_rate: float) -> float:
    """What one second of a load slice counts as on the nominal host."""
    return (1.0 - stolen) * probe_rate / PROBE_NOMINAL


def scale_rate(items: float, slices: list[tuple[float, float]], probe_rate: float) -> float:
    """``items`` per nominal second over ``(seconds, stolen)`` load slices."""
    return items / sum(
        seconds * slice_factor(stolen, probe_rate) for seconds, stolen in slices
    )


def scale_time(seconds: float, stolen: float, probe_rate: float) -> float:
    """A CPU-bound time measured in a slice that lost ``stolen``, on the nominal host."""
    return seconds * slice_factor(stolen, probe_rate)


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14 and stime 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _cpu_demand() -> tuple[int, int]:
    """(stolen, demanded) jiffies of the host; demanded is busy plus stolen."""
    with open("/proc/stat") as handle:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(v) for v in handle.readline().split()[1:9]
        )
    return steal, user + nice + system + irq + softirq + steal


class StealClock:
    """Share of the CPU time the host demanded that the hypervisor took.

    Started on construction; :meth:`stolen` reads the share since then.
    ``/proc/stat`` counts in 10 ms jiffies, so it is meant for slices of a
    tenth of a second and more.
    """

    def __init__(self) -> None:
        self._start = _cpu_demand()

    def stolen(self) -> float:
        steal, demanded = _cpu_demand()
        return (steal - self._start[0]) / max(1, demanded - self._start[1])


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Resident high-water mark (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def reset_peak_rss() -> None:
    """Reset this process's resident high-water mark to its current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


class ProbeMeter:
    """Runs probe slices and accounts for the CPU other code used meanwhile.

    ``server_pid`` names a second process that must stay idle while the
    probe runs (the remote workload's server); ``None`` checks only the
    other threads of this process.
    """

    def __init__(self, server_pid: int | None = None) -> None:
        self.server_pid = server_pid
        self._inputs = make_probe_inputs()
        self.calls = 0
        self.unstolen_seconds = 0.0
        self.probe_cpu = 0.0
        self.foreign_cpu = 0.0

    def _foreign_now(self) -> float:
        other_threads = time.process_time() - time.thread_time()
        if self.server_pid is None:
            return other_threads
        return other_threads + process_cpu_seconds(self.server_pid)

    def run_slice(self, seconds: float) -> None:
        """Call the probe kernel for ``seconds`` while the load is paused."""
        inputs = self._inputs
        demand = StealClock()
        foreign0 = self._foreign_now()
        cpu0 = time.thread_time()
        start = time.perf_counter()
        deadline = start + seconds
        calls = 0
        now = start
        while now < deadline:
            probe_kernel(*inputs)
            calls += 1
            now = time.perf_counter()
        self.probe_cpu += time.thread_time() - cpu0
        self.foreign_cpu += self._foreign_now() - foreign0
        self.calls += calls
        self.unstolen_seconds += (now - start) * (1.0 - demand.stolen())

    @property
    def rate(self) -> float:
        """Probe calls per unstolen second over every slice run so far."""
        return self.calls / self.unstolen_seconds

    @property
    def foreign_share(self) -> float:
        """CPU other code used during the probe, as a share of the probe's."""
        return self.foreign_cpu / self.probe_cpu if self.probe_cpu else 0.0
