"""The query daemon: resident index, worker pool, admission control.

One :class:`QueryServer` owns one loaded :class:`repro.core.index.NRPIndex`
and a ``ThreadingTCPServer`` speaking the NDJSON protocol of
:mod:`repro.serve.protocol`.  The moving parts:

- **Connection handlers** (one thread per connection, socketserver's
  model) parse request lines.  ``ping``/``stats``/``shutdown`` are
  answered inline; ``query`` requests go through admission control into
  the shared bounded queue and the handler blocks until a worker
  completes them, so each connection is a closed loop answering strictly
  in request order.  Concurrency comes from concurrent connections.
- **Admission control**: ``queue.put_nowait`` into a bounded queue.  A
  full queue refuses the request *immediately* with a ``shed`` response
  — bounded queue length is what keeps p99 latency bounded under
  overload (queueing theory does not care how fast the engine is once
  the queue grows without limit).
- **Workers** take one request at a time off the queue and answer it
  on its own through ``QueryEngine.answer_batch`` with the engine's plan
  cache on, so a repeated ``(s, t, alpha)`` triple reuses its plan — the
  daemon's reason to exist, since real road-network workloads repeat
  triples heavily.  No work is shared between queries, so a reply never
  waits for another query's answer.  Each request is validated before
  it reaches the engine, so a bad request is answered ``invalid`` and
  the engine call can fail only on an internal fault.
- **Deadlines** reuse the engine's ``deadline_s`` degradation: a query
  whose execution blows its budget returns the exact mean-only fallback
  flagged ``degraded`` instead of failing.  The budget covers engine
  execution, not queue wait — admission control bounds the wait.
- **Observability**: the same port answers ``GET /metrics`` (Prometheus
  text from the process-wide registry), ``GET /healthz`` (liveness),
  ``GET /readyz`` (readiness), and ``GET /stats``; the server also
  keeps its own always-on counters (:class:`ServerStats`) so ``stats``
  works with the registry disabled.
- **Self-healing** (:mod:`repro.serve.health`): a watchdog thread
  respawns crashed workers, feeds a health state machine (``HEALTHY →
  DEGRADED → DRAINING → DOWN``) from worker liveness, queue depth, and
  windowed error/deadline-miss rates, and exports it as ``serve.*``
  gauges.  A circuit breaker around the engine sheds queries with
  ``circuit_open`` after repeated internal failures; TTL triage drops
  requests that already overstayed their queue budget (``expired``)
  before they waste engine time.
- **Hot reload** (:mod:`repro.serve.lifecycle`): the ``reload`` op (or
  SIGHUP via the CLI) verifies a candidate index file off the worker
  path, replays its WAL, and atomically swaps it in — or rolls back on
  damage while in-flight requests keep answering from the old index.

Everything is stdlib; per-query results are bit-identical to the CLI
path (same engine, same kernels).  Every accepted socket has Nagle's
algorithm off (``TCP_NODELAY``): each reply is one ``sendall``, so
nothing waits for the client's next acknowledgement before it leaves.
"""

from __future__ import annotations

import json
import queue
import socketserver
import threading
from time import perf_counter_ns
from typing import TYPE_CHECKING, Any

from repro.core.kernels import reference
from repro.obs import get_registry
from repro.resilience import InjectedFaultError, QueryValidationError
from repro.resilience.failpoints import failpoint
from repro.serve.health import (
    CIRCUIT_STATES,
    HEALTH_STATES,
    CircuitBreaker,
    HealthMonitor,
    HealthSignals,
)
from repro.serve.lifecycle import attempt_reload
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_SCHEMA,
    ProtocolError,
    Request,
    decode_request,
    encode_message,
    error_response,
    query_response,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import NRPIndex

__all__ = ["QueryServer", "ServerStats"]

#: How long a worker sleeps on an empty queue before re-checking the
#: stop flag, and how long handlers wait per poll for their result.
_POLL_S = 0.05


#: The ``serve.*`` registry counter that mirrors each counted field.
#: ``invalid`` and ``errors`` share ``serve.errors``.
_MIRRORS = {
    "admitted": "serve.admitted",
    "completed": "serve.completed",
    "shed": "serve.shed",
    "degraded": "serve.degraded",
    "invalid": "serve.errors",
    "errors": "serve.errors",
    "expired": "serve.expired",
    "circuit_open": "serve.circuit_open",
    "worker_restarts": "serve.worker.restarts",
    "reloads": "serve.reloads",
    "reload_failures": "serve.reload.failures",
}


class ServerStats:
    """The daemon's one serve ledger, always on.

    Every field is guarded by one lock; the server's workers and
    handlers update it concurrently through :meth:`count`, which also
    bumps the mirrored ``serve.*`` registry counter when the registry
    is enabled, so ``stats`` works with the registry disabled and
    ``/metrics`` agrees with it when on.  ``snapshot`` is the counted
    part of what the ``stats`` op and ``GET /stats`` return.
    """

    __slots__ = (
        "_lock",
        "admitted",
        "completed",
        "shed",
        "degraded",
        "invalid",
        "errors",
        "expired",
        "circuit_open",
        "worker_restarts",
        "reloads",
        "reload_failures",
        "_registry",
        "_mirrors",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        registry = get_registry()
        self._registry = registry
        self._mirrors = {
            field: registry.counter(name) for field, name in _MIRRORS.items()
        }
        self.admitted = 0  # nrplint: guarded-by=_lock
        self.completed = 0  # nrplint: guarded-by=_lock
        self.shed = 0  # nrplint: guarded-by=_lock
        self.degraded = 0  # nrplint: guarded-by=_lock
        self.invalid = 0  # nrplint: guarded-by=_lock
        self.errors = 0  # nrplint: guarded-by=_lock
        self.expired = 0  # nrplint: guarded-by=_lock
        self.circuit_open = 0  # nrplint: guarded-by=_lock
        self.worker_restarts = 0  # nrplint: guarded-by=_lock
        self.reloads = 0  # nrplint: guarded-by=_lock
        self.reload_failures = 0  # nrplint: guarded-by=_lock

    def count(self, field: str, n: int = 1) -> None:
        """Add ``n`` to one counted field and to its ``serve.*`` mirror."""
        with self._lock:
            setattr(self, field, getattr(self, field) + n)
        if self._registry.enabled:
            self._mirrors[field].inc(n)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "admitted": self.admitted,
                "completed": self.completed,
                "shed": self.shed,
                "degraded": self.degraded,
                "invalid": self.invalid,
                "errors": self.errors,
                "expired": self.expired,
                "circuit_open": self.circuit_open,
                "worker_restarts": self.worker_restarts,
                "reloads": self.reloads,
                "reload_failures": self.reload_failures,
            }


class _Pending:
    """One admitted query waiting for a worker."""

    __slots__ = ("request", "enqueued_ns", "response", "done")

    def __init__(self, request: Request) -> None:
        self.request = request
        self.enqueued_ns = perf_counter_ns()
        self.response: "dict | None" = None
        self.done = threading.Event()

    def finish(self, response: dict) -> None:
        self.response = response
        self.done.set()


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    query_server: "QueryServer"


class _Handler(socketserver.StreamRequestHandler):
    """One connection: sniff HTTP vs NDJSON, then serve until EOF."""

    # TCP_NODELAY on the accepted socket: replies are written whole, so
    # Nagle would only hold each one back until the peer's next ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        qs = self.server.query_server  # type: ignore[attr-defined]
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            return
        if line.startswith(b"GET "):
            self._handle_http(qs, line)
            return
        while line:
            if len(line) > MAX_LINE_BYTES:
                self.wfile.write(
                    encode_message(
                        error_response(None, "protocol", "request line too long")
                    )
                )
                return
            stripped = line.strip()
            if stripped:
                try:
                    request = decode_request(stripped)
                except ProtocolError as exc:
                    self.wfile.write(
                        encode_message(error_response(None, "protocol", str(exc)))
                    )
                    return
                response = qs.handle_request(request)
                payload = encode_message(response)
                try:
                    failpoint("serve.response.write")
                except InjectedFaultError:
                    # Simulated socket failure mid-write: emit a torn
                    # line and drop the connection, exactly what a peer
                    # reset looks like from the client side.
                    self.wfile.write(payload[: len(payload) // 2])
                    return
                self.wfile.write(payload)
                if request.op == "shutdown":
                    return
            line = self.rfile.readline(MAX_LINE_BYTES + 1)

    def _handle_http(self, qs: "QueryServer", line: bytes) -> None:
        # Minimal HTTP/1.0-style exchange: drain headers, answer, close.
        try:
            path = line.split()[1].decode("ascii", "replace")
        except IndexError:
            path = "/"
        while True:
            header = self.rfile.readline(MAX_LINE_BYTES)
            if not header or header in (b"\r\n", b"\n"):
                break
        status, ctype, body = qs.handle_http(path)
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.0 {status}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        self.wfile.write(head.encode("ascii") + payload)


class QueryServer:
    """A resident-index query daemon (see the module docstring).

    ``port=0`` binds an ephemeral port (read it back from ``.port`` after
    :meth:`start`).  ``default_deadline_ms`` applies to query requests
    that carry no ``deadline_ms`` of their own; ``None`` means no
    deadline.
    """

    def __init__(
        self,
        index: "NRPIndex",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_capacity: int = 256,
        workers: int = 2,
        default_deadline_ms: "float | None" = None,
        default_ttl_ms: "float | None" = None,
        index_path: "str | None" = None,
        monitor: "HealthMonitor | None" = None,
        breaker: "CircuitBreaker | None" = None,
        watchdog_interval_s: float = 0.25,
    ) -> None:
        if queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if workers <= 0:
            raise ValueError("workers must be positive")
        if watchdog_interval_s <= 0:
            raise ValueError("watchdog_interval_s must be positive")
        self._index = index
        self.host = host
        self._requested_port = port
        self.queue_capacity = queue_capacity
        self.workers = workers
        self.default_deadline_ms = default_deadline_ms
        self.default_ttl_ms = default_ttl_ms
        self.index_path = index_path
        self.watchdog_interval_s = watchdog_interval_s
        self.monitor = monitor if monitor is not None else HealthMonitor()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.stats = ServerStats()
        self._queue: "queue.Queue[_Pending]" = queue.Queue(maxsize=queue_capacity)
        self._stop = threading.Event()
        self._stop_lock = threading.Lock()
        self._tcp: "_TCPServer | None" = None
        self._threads: list[threading.Thread] = []
        self._life_lock = threading.Lock()
        self._worker_threads: list[threading.Thread] = []  # nrplint: guarded-by=_life_lock
        self._reload_lock = threading.Lock()
        registry = get_registry()
        self._registry = registry
        self._h_wait = registry.histogram("serve.wait")
        self._h_latency = registry.histogram("serve.latency")
        self._c_health_transitions = registry.counter("serve.health.transitions")
        self._g_health = registry.gauge("serve.health.state")
        self._g_circuit = registry.gauge("serve.circuit.state")
        self._g_queue_depth = registry.gauge("serve.queue.depth")
        self._g_workers_alive = registry.gauge("serve.workers.alive")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def index(self) -> "NRPIndex":
        """The resident index (rebound atomically by :meth:`swap_index`)."""
        return self._index

    @property
    def port(self) -> int:
        """The bound port (the real one once started, even for port 0)."""
        if self._tcp is not None:
            return self._tcp.server_address[1]
        return self._requested_port

    @property
    def running(self) -> bool:
        return self._tcp is not None and not self._stop.is_set()

    def start(self) -> None:
        """Bind the socket and start the acceptor + worker threads."""
        if self._tcp is not None:
            raise RuntimeError("server already started")
        self._stop.clear()
        tcp = _TCPServer((self.host, self._requested_port), _Handler)
        tcp.query_server = self
        self._tcp = tcp
        acceptor = threading.Thread(
            target=tcp.serve_forever,
            kwargs={"poll_interval": _POLL_S},
            name="serve-acceptor",
            daemon=True,
        )
        acceptor.start()
        self._threads = [acceptor]
        started: list[threading.Thread] = []
        for i in range(self.workers):
            worker = threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            worker.start()
            started.append(worker)
        with self._life_lock:
            self._worker_threads = started
        watchdog = threading.Thread(
            target=self._watchdog, name="serve-watchdog", daemon=True
        )
        watchdog.start()
        self._threads.append(watchdog)

    def stop(self) -> None:
        """Stop accepting, drain workers, fail any still-queued requests.

        Idempotent and safe under concurrent callers (the shutdown op's
        stop thread may race a context-manager ``__exit__``): exactly one
        caller tears the server down, the rest return immediately.
        """
        with self._stop_lock:
            tcp, self._tcp = self._tcp, None
        if tcp is None:
            return
        self.monitor.mark_draining()
        self._stop.set()
        tcp.shutdown()
        tcp.server_close()
        with self._life_lock:
            workers = list(self._worker_threads)
        for thread in self._threads + workers:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        # Anything still queued never reached a worker: answer it so no
        # handler (or in-process caller) is left waiting on its event.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            pending.finish(
                error_response(pending.request.id, "shutdown", "server stopping")
            )
        self._threads = []

    def __enter__(self) -> "QueryServer":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until :meth:`stop` is called (the CLI's foreground mode)."""
        return self._stop.wait(timeout)

    # ------------------------------------------------------------------
    # Request handling (called from connection handler threads)
    # ------------------------------------------------------------------
    def handle_request(self, request: Request) -> dict:
        """Answer one decoded request, blocking for queries."""
        op = request.op
        if op == "ping":
            return {
                "id": request.id,
                "ok": True,
                "schema": PROTOCOL_SCHEMA,
                "backend": reference.NAME,
                "n": self.index.graph.num_vertices,
            }
        if op == "stats":
            return {"id": request.id, "ok": True, **self.stats_snapshot()}
        if op == "health":
            report = self.monitor.snapshot()
            report.update(
                {
                    "id": request.id,
                    "ok": True,
                    "circuit": self.breaker.snapshot(),
                    "workers_alive": self._workers_alive(),
                    "workers_total": self.workers,
                    "queue_depth": self._queue.qsize(),
                }
            )
            return report
        if op == "reload":
            return self.reload(request.path, req_id=request.id)
        if op == "shutdown":
            # Ack first, then stop from a separate thread so this
            # connection's response gets out before the socket closes.
            threading.Thread(target=self.stop, name="serve-stop", daemon=True).start()
            return {"id": request.id, "ok": True, "stopping": True}
        return self._submit(request)

    def _submit(self, request: Request) -> dict:
        """Admission control: enqueue or shed, then wait for the worker."""
        if self._stop.is_set():
            return error_response(request.id, "shutdown", "server stopping")
        if self.breaker.reject_fast():
            self.stats.count("circuit_open")
            return error_response(request.id, "circuit_open")
        pending = _Pending(request)
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self.stats.count("shed")
            return error_response(request.id, "shed")
        self.stats.count("admitted")
        while not pending.done.wait(_POLL_S):
            if self._stop.is_set():
                # stop() finishes everything still queued, so give the
                # drain one grace poll; a request that slipped into the
                # queue after the drain gets the shutdown answer here.
                if pending.done.wait(_POLL_S):
                    break
                return error_response(request.id, "shutdown", "server stopping")
        response = pending.response
        assert response is not None
        if self._registry.enabled:
            self._h_latency.observe(
                (perf_counter_ns() - pending.enqueued_ns) / 1e9
            )
        return response

    def stats_snapshot(self) -> dict:
        """The ledger plus queue, pool and health state.

        One body for the ``stats`` op (which adds ``id`` and ``ok``) and
        for ``GET /stats``.
        """
        snapshot = self.stats.snapshot()
        snapshot.update(
            queue_depth=self._queue.qsize(),
            queue_capacity=self.queue_capacity,
            workers=self.workers,
            backend=reference.NAME,
            health=self.monitor.state,
            circuit=self.breaker.state,
        )
        return snapshot

    def handle_http(self, path: str) -> tuple[str, str, str]:
        """Answer one observability GET: ``(status, content-type, body)``."""
        path = path.split("?", 1)[0]
        if path == "/metrics":
            return ("200 OK", "text/plain; version=0.0.4", self._registry.to_prometheus())
        if path == "/healthz":
            # Liveness: 200 for any state a restart would not improve.
            # The body is "ok" when HEALTHY (the original contract) and
            # the state name otherwise, so probes and humans both read it.
            state = self.monitor.state
            body = "ok\n" if state == HEALTH_STATES[0] else f"{state}\n"
            if self.monitor.is_alive():
                return ("200 OK", "text/plain", body)
            return ("503 Service Unavailable", "text/plain", body)
        if path == "/readyz":
            # Readiness: should this daemon receive *new* traffic?
            state = self.monitor.state
            if self.monitor.is_ready():
                body = "ok\n" if state == HEALTH_STATES[0] else f"{state}\n"
                return ("200 OK", "text/plain", body)
            return ("503 Service Unavailable", "text/plain", f"{state}\n")
        if path == "/stats":
            body = json.dumps(self.stats_snapshot()) + "\n"
            return ("200 OK", "application/json", body)
        return ("404 Not Found", "text/plain", f"unknown path {path}\n")

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        """Answer queued requests one at a time until stopped.

        A worker that dies — an injected crash, an out-of-memory kill,
        a bug the per-request handling could not contain — first answers
        the request it holds with an ``internal`` error so no handler is
        left waiting, then lets the exception out; the watchdog notices
        the dead thread and respawns it.
        """
        q = self._queue
        while not self._stop.is_set():
            failpoint("serve.queue.poll")
            try:
                pending = q.get(timeout=_POLL_S)
            except queue.Empty:
                continue
            try:
                self._process(pending)
            except BaseException:
                # Answer before dying: a stranded _Pending would pin its
                # connection handler until shutdown.  InjectedCrash (and
                # anything else fatal) still propagates and kills us.
                if not pending.done.is_set():
                    self._finish_error(
                        pending, "internal", "worker crashed mid-request"
                    )
                raise

    def _process(self, pending: _Pending) -> None:
        """Triage, validate and answer one request, then wake its handler."""
        failpoint("serve.worker.batch")
        waited_ns = perf_counter_ns() - pending.enqueued_ns
        if self._registry.enabled:
            self._h_wait.observe(waited_ns / 1e9)
        request = pending.request
        # TTL triage: a request that already overstayed its queue budget
        # is answered ``expired`` right here and never reaches the
        # engine.  (``deadline_ms`` is different: that budgets engine
        # *execution* and degrades instead of dropping.)
        ttl_ms = request.ttl_ms if request.ttl_ms is not None else self.default_ttl_ms
        if ttl_ms is not None and waited_ns > ttl_ms * 1e6:
            self._finish_error(
                pending,
                "expired",
                f"queued {waited_ns // 10**6}ms > ttl {ttl_ms:g}ms",
            )
            return
        failpoint("serve.batch.stall")
        # Validate against the one index this request is answered from,
        # so the engine call below can fail only on an internal fault.
        engine = self.index.engine
        try:
            engine.validate(request.s, request.t, request.alpha)
        except QueryValidationError as exc:
            self._finish_error(pending, "invalid", str(exc))
            return
        # The breaker guards the engine: while open the request is shed
        # at once; once half-open, this request is the trial.
        if not self.breaker.allow():
            self._finish_error(pending, "circuit_open", "engine circuit open")
            return
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.default_deadline_ms
        )
        # A one-query ``answer_batch``: the plan-cached path, and the call
        # the traced daemon of ``perfbench/`` spans.
        try:
            failpoint("serve.engine.answer")
            (result,) = engine.answer_batch(
                [(request.s, request.t, request.alpha)],
                use_pruning=request.pruning if request.pruning is not None else True,
                per_query_stats=True,
                deadline_s=deadline_ms / 1000.0 if deadline_ms is not None else None,
            )
        except Exception as exc:  # keep the worker alive no matter what
            self._finish_error(pending, "internal", f"{type(exc).__name__}: {exc}")
            return
        self.breaker.record_success()
        self.stats.count("completed")
        if result.degraded:
            self.stats.count("degraded")
        pending.finish(
            query_response(
                request.id,
                result,
                backend=reference.NAME,
                wait_us=max(0, waited_ns // 1000),
            )
        )

    def _finish_error(self, pending: _Pending, error: str, detail: str) -> None:
        # Only *internal* failures indict the engine; invalid input,
        # triage, and breaker sheds do not trip it.
        if error == "internal":
            self.breaker.record_failure()
        if error in ("invalid", "expired", "circuit_open"):
            self.stats.count(error)
        else:
            self.stats.count("errors")
        pending.finish(error_response(pending.request.id, error, detail))

    # ------------------------------------------------------------------
    # Self-healing: watchdog, worker respawn, hot reload
    # ------------------------------------------------------------------
    def _workers_alive(self) -> int:
        with self._life_lock:
            return sum(1 for t in self._worker_threads if t.is_alive())

    def _respawn_dead_workers(self) -> int:
        """Replace dead worker threads; returns how many were respawned."""
        fresh: list[threading.Thread] = []
        with self._life_lock:
            for i, thread in enumerate(self._worker_threads):
                if thread.is_alive():
                    continue
                replacement = threading.Thread(
                    target=self._worker, name=f"{thread.name}-r", daemon=True
                )
                self._worker_threads[i] = replacement
                fresh.append(replacement)
        # start() outside the lock: thread spawn can block briefly.
        for thread in fresh:
            thread.start()
        if fresh:
            self.stats.count("worker_restarts", len(fresh))
        return len(fresh)

    def _watchdog(self) -> None:
        """Observe, diagnose, heal — one tick per ``watchdog_interval_s``.

        Each tick: snapshot the window, feed the health state machine
        (so a dead pool is *seen* as DOWN before it is healed), then
        respawn any crashed workers.  The next clean tick walks the
        state back towards HEALTHY — the recovery path the chaos suite
        asserts on.
        """
        previous = self.stats.snapshot()
        seen_transitions = 0
        while not self._stop.wait(self.watchdog_interval_s):
            snap = self.stats.snapshot()
            alive = self._workers_alive()
            signals = HealthSignals(
                workers_alive=alive,
                workers_total=self.workers,
                queue_depth=self._queue.qsize(),
                queue_capacity=self.queue_capacity,
                window_completed=snap["completed"] - previous["completed"],
                window_errors=snap["errors"] - previous["errors"],
                window_degraded=snap["degraded"] - previous["degraded"],
                circuit_open=self.breaker.state == "open",
            )
            previous = snap
            state = self.monitor.evaluate(signals)
            self._respawn_dead_workers()
            if self._registry.enabled:
                self._g_health.set(float(HEALTH_STATES.index(state)))
                self._g_circuit.set(
                    float(CIRCUIT_STATES.index(self.breaker.state))
                )
                self._g_queue_depth.set(float(signals.queue_depth))
                self._g_workers_alive.set(float(alive))
                transitions = len(self.monitor.transitions)
                if transitions > seen_transitions:
                    self._c_health_transitions.inc(transitions - seen_transitions)
                    seen_transitions = transitions

    def swap_index(self, index: "NRPIndex") -> "NRPIndex":
        """Atomically replace the resident index; returns the old one.

        A single attribute rebind: workers resolve ``self.index.engine``
        once per request, before validating it, so an in-flight request
        finishes on the index it was validated against and every later
        request sees the new one — no request ever observes a
        half-swapped state.
        """
        old = self._index
        self._index = index
        return old

    def reload(self, path: "str | None" = None, *, req_id: Any = None) -> dict:
        """Hot-reload the resident index from ``path`` (or the start file).

        Verify + WAL-replay run on the calling (handler) thread via
        :func:`repro.serve.lifecycle.attempt_reload`; workers keep
        answering from the old index throughout and only a fully
        recovered candidate is swapped in.  Concurrent reloads are
        refused rather than queued.
        """
        target = path if path is not None else self.index_path
        if target is None:
            return error_response(
                req_id, "reload_failed", "no index path (daemon not file-backed)"
            )
        if not self._reload_lock.acquire(blocking=False):
            return error_response(req_id, "reload_failed", "reload already in progress")
        try:
            result = attempt_reload(target)
            if result.ok:
                assert result.index is not None
                self.swap_index(result.index)
                self.stats.count("reloads")
            else:
                self.stats.count("reload_failures")
        finally:
            self._reload_lock.release()
        response = result.to_response_fields()
        response["id"] = req_id
        if result.ok:
            self.index_path = str(target)
        else:
            response.setdefault("detail", "reload failed")
        return response

