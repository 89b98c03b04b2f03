"""Cold start of one workload's serving process, timed from the inside.

Run by the benchmark in a fresh interpreter with ``PYTHONPATH=src``::

    python3 perfbench/coldstart.py engine  BUNDLE FIRST.npy   # offline_batch
    python3 perfbench/coldstart.py service BUNDLE FIRST.npy   # feedback_loop
    python3 perfbench/coldstart.py server  BUNDLE             # remote_stream

``engine`` and ``service`` load the bundle, answer the one request stored in
``FIRST.npy`` and print one JSON line with ``import_s``, ``load_s``,
``first_answer_s`` and the answered ``states``; the parent checks the states.
``server`` prints ``{"import_s": ...}`` once ``repro.service`` is imported
and then runs ``python -m repro.service.net BUNDLE --port 0`` in this
interpreter exactly as ``-m`` does (runpy, after importing the parent
package), so the server prints its ``Serving ... on host:port`` line and
serves until it is terminated.

This file imports nothing of the benchmark, so its timings are the
program's own.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def _report(**values) -> None:
    print(json.dumps(values), flush=True)


def main(argv: list[str]) -> int:
    role, bundle = argv[0], argv[1]
    if role == "server":
        import runpy

        import repro.service  # noqa: F401 - what ``-m`` imports first

        _report(import_s=time.perf_counter() - STARTED)
        sys.argv = ["repro.service.net", bundle, "--port", "0"]
        runpy.run_module("repro.service.net", run_name="__main__", alter_sys=True)
        return 0

    if role not in ("engine", "service"):
        raise SystemExit(f"unknown cold-start role {role!r}")
    import numpy as np

    from repro.engine import ReadoutEngine, ReadoutRequest

    if role == "service":
        from repro.service import ReadoutService

    imported = time.perf_counter()
    first = np.load(argv[2])
    if role == "engine":
        server = ReadoutEngine.load(bundle)
        loaded = time.perf_counter()
        states = server.serve(ReadoutRequest(raw=first)).states
    else:
        server = ReadoutService(bundle_dir=bundle)
        loaded = time.perf_counter()
        request = ReadoutRequest(raw=first, qubits=(0,), priority="feedback")
        states = server.submit(request).result(timeout=60).states
    answered = time.perf_counter()
    _report(
        import_s=imported - STARTED,
        load_s=loaded - imported,
        first_answer_s=answered - loaded,
        states=states.tolist(),
    )
    server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
