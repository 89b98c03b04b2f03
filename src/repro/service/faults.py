"""Fault injection for the resilient serving stack.

Everything the self-healing machinery claims to survive must be inflictable
on demand, deterministically.  This module provides two injectors and one
schedule that drives them:

* :class:`FaultSchedule` -- the seeded script.  Faults are drawn either
  from an explicit plan (consumed in order -- what the fault-matrix tests
  use, so a scenario is its action list) or from per-action probabilities
  with a seeded generator (what the chaos benchmark uses).  Every draw is
  counted, so a test can assert the faults it asked for actually fired.
* :class:`ChaosTransport` -- wraps any
  :class:`~repro.service.transport.ShardTransport` and injects *placement*
  faults at the submit/collect boundary: kill the worker process, drop the
  active TCP connection, delay the call.  The wrapped transport is still
  the one doing the work, so recovery exercises the real supervisor and
  failover paths.
* :class:`ChaosProxy` -- a frame-aware TCP proxy in front of a real
  :class:`~repro.service.net.ReadoutServer`.  Clients dial the proxy; each
  connection and each reply consults the schedule, so one proxy expresses
  every network failure mode the wire can suffer: refused connections,
  delayed replies, replies truncated mid-frame, stalls past the client
  deadline, connections dropped without an answer.

None of this is test-only convenience code in disguise: the headline
guarantee of the resilience layer -- kill a shard worker and a TCP
placement mid-load and every request still completes bit-identical -- is
only a guarantee because these injectors make "mid-load" reproducible.
"""

from __future__ import annotations

import collections
import random
import socket
import threading
import time

from repro.engine import wire

__all__ = ["ChaosProxy", "ChaosTransport", "FaultSchedule"]


class FaultSchedule:
    """A deterministic script of fault actions.

    Parameters
    ----------
    plan:
        Actions consumed in order, one per draw (``"pass"`` means no
        fault).  When the plan runs out, draws fall through to ``rates``.
    rates:
        ``{action: probability}`` sampled with the seeded generator once
        the plan is exhausted (actions are tried in insertion order; the
        first hit wins).  Empty means every post-plan draw is ``default``.
    seed:
        Seed of the probability sampler -- the same seed replays the same
        fault sequence.
    default:
        The action drawn when neither plan nor rates produce one.
    """

    def __init__(
        self,
        plan=(),
        *,
        rates: dict | None = None,
        seed: int = 0,
        default: str = "pass",
    ) -> None:
        self._plan = collections.deque(plan)
        self._rates = dict(rates or {})
        for action, rate in self._rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"rate for {action!r} must be in [0, 1], got {rate}"
                )
        self._rng = random.Random(seed)
        self._default = default
        self._lock = threading.Lock()
        #: How often each action has been drawn, by action name.
        self.counters: collections.Counter = collections.Counter()

    def next(self, event: str = "") -> str:
        """Draw the next action (``event`` is recorded in the counters).

        Thread-safe: injectors consult one schedule from several shard
        threads and the draw order is the arrival order.
        """
        with self._lock:
            if self._plan:
                action = self._plan.popleft()
            else:
                action = self._default
                for candidate, rate in self._rates.items():
                    if self._rng.random() < rate:
                        action = candidate
                        break
            self.counters[action] += 1
            if event:
                self.counters[f"{event}:{action}"] += 1
            return action

    @property
    def exhausted(self) -> bool:
        """Whether the explicit plan has been fully consumed."""
        with self._lock:
            return not self._plan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"FaultSchedule({len(self._plan)} planned, "
                f"{dict(self.counters)})"
            )


class ChaosTransport:
    """A :class:`ShardTransport` wrapper that injures its inner transport.

    Actions drawn from the schedule at each :meth:`submit` / :meth:`collect`:

    - ``"pass"`` -- delegate untouched;
    - ``"delay"`` -- sleep ``delay_s`` first (queueing jitter);
    - ``"kill"`` -- kill the worker process (local transports), so the
      *next* collect sees the death the supervisor must heal;
    - ``"drop"`` -- drop the active TCP connection (networked transports),
      so the next receive fails over.

    An action the inner transport cannot express (killing a TCP placement's
    nonexistent process, dropping a local pipe) degrades to the nearest
    expressible one, so one scenario script drives either placement.
    Everything else -- the shard protocol, ``is_alive``, respawn -- is the
    inner transport's, untouched.
    """

    def __init__(self, inner, schedule: FaultSchedule, *, delay_s: float = 0.01):
        self.inner = inner
        self.schedule = schedule
        self.delay_s = float(delay_s)

    # ------------------------------------------------------------- injection
    def _inflict(self, event: str) -> None:
        action = self.schedule.next(event)
        if action == "pass":
            return
        if action == "delay":
            time.sleep(self.delay_s)
            return
        if action == "kill":
            process = getattr(self.inner, "process", None)
            if process is not None:
                process.kill()
                process.join(5.0)
            else:
                self._drop_active()
            return
        if action == "drop":
            if not self._drop_active():
                process = getattr(self.inner, "process", None)
                if process is not None:
                    process.kill()
                    process.join(5.0)
            return
        raise ValueError(f"Unknown fault action {action!r}")

    def _drop_active(self) -> bool:
        conns = getattr(self.inner, "_conns", None)
        active = getattr(self.inner, "_active", None)
        if conns is None or active not in conns:
            return False
        conns[active].drop()
        return True

    # -------------------------------------------------------------- protocol
    @property
    def name(self) -> str:
        return self.inner.name

    def submit(self, job_id, request, wire_meta=None) -> None:
        self._inflict("submit")
        self.inner.submit(job_id, request, wire_meta)

    def collect(self, job_id):
        self._inflict("collect")
        return self.inner.collect(job_id)

    def is_alive(self) -> bool:
        return self.inner.is_alive()

    def close(self, timeout: float = 5.0) -> None:
        self.inner.close(timeout)

    def __getattr__(self, name: str):
        # qubits / qubit_set / shard_index / respawn / counters / ...:
        # the wrapper is transparent for everything it does not injure.
        return getattr(self.inner, name)


class ChaosProxy:
    """A frame-aware TCP proxy that misbehaves on schedule.

    Sits between clients and a real server.  Per **connection** the
    schedule is asked for a ``"connect"`` action (``"pass"`` or
    ``"refuse"``); per **request frame** it is asked for a ``"reply"``
    action:

    - ``"pass"`` -- relay the request upstream and the reply back;
    - ``"delay"`` -- relay, but sleep ``delay_s`` before answering;
    - ``"truncate"`` -- relay upstream, then send only the first half of
      the reply bytes and sever the connection (a mid-frame cut, the
      nastiest wire failure: the client holds a valid prefix);
    - ``"stall"`` -- relay upstream but sit on the reply for ``stall_s``
      (parked past the client's deadline), then sever;
    - ``"drop"`` -- relay upstream, discard the reply, sever.

    In every non-``pass`` case the *upstream server did the work* -- which
    is exactly the scenario idempotent request ids exist for: the retried
    frame must be answered from the server's reply cache, not recomputed.
    """

    def __init__(
        self,
        upstream,
        schedule: FaultSchedule,
        *,
        host: str = "127.0.0.1",
        delay_s: float = 0.05,
        stall_s: float = 5.0,
    ) -> None:
        from repro.service.net import _parse_address

        self.upstream = _parse_address(upstream)
        self.schedule = schedule
        self.delay_s = float(delay_s)
        self.stall_s = float(stall_s)
        self._listener = socket.create_server((host, 0))
        self._listener.settimeout(0.2)
        self._host = host
        self._port = self._listener.getsockname()[1]
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        #: Applied actions by name (``refused``, ``relayed``, ``truncated``,
        #: ``stalled``, ``dropped``, ``delayed``).
        self.counters: collections.Counter = collections.Counter()
        self._acceptor: threading.Thread | None = None

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> str:
        """The ``host:port`` clients should dial instead of the upstream."""
        return f"{self._host}:{self._port}"

    def start(self) -> "ChaosProxy":
        if self._acceptor is None:
            self._acceptor = threading.Thread(
                target=self._accept_loop, name="chaos-proxy-accept", daemon=True
            )
            self._acceptor.start()
        return self

    def close(self) -> None:
        self._stop.set()
        if self._acceptor is not None:
            self._acceptor.join(5.0)
            self._acceptor = None
        self._listener.close()
        for thread in list(self._threads):
            thread.join(5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _count(self, action: str) -> None:
        with self._lock:
            self.counters[action] += 1

    # ------------------------------------------------------------- proxy loop
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            if self.schedule.next("connect") == "refuse":
                self._count("refused")
                conn.close()
                continue
            thread = threading.Thread(
                target=self._relay_loop, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _relay_loop(self, client: socket.socket) -> None:
        upstream: socket.socket | None = None
        try:
            upstream = socket.create_connection(self.upstream, timeout=10.0)
            client_file = client.makefile("rwb")
            upstream_file = upstream.makefile("rwb")
            while not self._stop.is_set():
                request = wire.read_frame(client_file)
                if request is None:
                    return
                wire.write_frame(upstream_file, request)
                reply = wire.read_frame(upstream_file)
                if reply is None:
                    return
                action = self.schedule.next("reply")
                if action == "delay":
                    time.sleep(self.delay_s)
                    self._count("delayed")
                elif action == "truncate":
                    # A valid prefix then silence: the client's next read
                    # must surface a WireFormatError, not hang.
                    client.sendall(reply[: max(1, len(reply) // 2)])
                    self._count("truncated")
                    return
                elif action == "stall":
                    self._count("stalled")
                    self._stop.wait(self.stall_s)
                    return
                elif action == "drop":
                    self._count("dropped")
                    return
                wire.write_frame(client_file, reply)
                self._count("relayed")
        except (OSError, wire.WireFormatError):
            return
        finally:
            client.close()
            if upstream is not None:
                upstream.close()
