"""A stdlib client for the serve protocol (and the CLI's serve-client).

:class:`ServeClient` wraps one TCP connection: requests go out as NDJSON
lines, responses come back in order (the server answers each connection
sequentially — open one client per thread for concurrency, as
``repro serve-client --concurrency N`` does).  :func:`http_get` fetches the
daemon's observability endpoints (``/metrics``, ``/healthz``,
``/readyz``, ``/stats``) over the same port.

Two timeouts, two failure surfaces:

- ``connect_timeout`` bounds the *initial TCP connect* (retried, so a
  client started alongside the daemon need not race its bind);
  ``timeout`` bounds each *read* once connected.  They are independent —
  a loaded daemon that accepts instantly but answers slowly needs a
  long read timeout and a short connect timeout, not one knob for both.
- Every transport failure — a torn NDJSON line, a peer reset, a read
  timeout — surfaces as a typed :class:`ServeError` carrying the
  offending byte prefix where there is one, never a raw
  ``json.JSONDecodeError`` or bare ``ConnectionResetError``.

:meth:`ServeClient.resilient_request` adds bounded retries with
exponential backoff and *deterministic* jitter (a seeded
``random.Random`` owns all randomness, same discipline as the failpoint
schedules): transient transport errors reconnect and retry; transient
server refusals (``shed``/``circuit_open``/``expired``) back off and
retry; everything else returns immediately.  The spent retry budget is
tallied in :attr:`ServeClient.retry_stats` and surfaced by
``repro serve-client``.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Any, Callable

from repro.serve.protocol import MAX_LINE_BYTES, encode_message

__all__ = ["RetryPolicy", "ServeClient", "ServeError", "http_get"]

#: Server refusals that are worth retrying after a backoff: load-shedding
#: and self-protection responses, plus ``internal`` (a worker crash mid-
#: batch answers its stranded requests this way; the respawned worker
#: usually serves the retry).
TRANSIENT_ERRORS = frozenset({"shed", "circuit_open", "expired", "internal"})


class ServeError(ConnectionError):
    """The server hung up or answered with something unparseable.

    ``transient`` marks failures a retry may fix (connection loss, torn
    line, timeout); protocol-level nonsense stays non-transient.
    """

    def __init__(self, message: str, *, transient: bool = False) -> None:
        super().__init__(message)
        self.transient = transient


class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``backoff(attempt)`` grows ``backoff_base_s * 2**attempt`` up to
    ``backoff_max_s``, jittered into ``[0.5, 1.0)`` of itself by an
    injected ``random.Random(seed)`` — the same seed replays the same
    waits, so tests (and fleet-wide clients) never synchronise their
    retry storms by accident.  ``sleep`` is injectable for tests.
    """

    __slots__ = ("retries", "backoff_base_s", "backoff_max_s", "retry_on",
                 "_rng", "_sleep")

    def __init__(
        self,
        *,
        retries: int = 4,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 1.0,
        seed: int = 0,
        retry_on: frozenset = TRANSIENT_ERRORS,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.retry_on = retry_on
        self._rng = random.Random(seed)
        self._sleep = sleep

    def backoff(self, attempt: int) -> float:
        base = min(self.backoff_max_s, self.backoff_base_s * (2 ** attempt))
        return base * (0.5 + 0.5 * self._rng.random())

    def wait(self, attempt: int) -> None:
        self._sleep(self.backoff(attempt))


class ServeClient:
    """One NDJSON connection to a :class:`repro.serve.server.QueryServer`.

    Usable as a context manager; see the module docstring for the
    timeout split and retry semantics.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        #: Spent resilience budget: attempts/retries/reconnects/backoffs.
        self.retry_stats = {
            "attempts": 0,
            "retries": 0,
            "reconnects": 0,
            "exhausted": 0,
        }
        self._sock: "socket.socket | None" = None
        self._rfile: Any = None
        self._connect()

    def _connect(self) -> None:
        """Dial until ``connect_timeout`` expires, then arm the read timeout.

        Each attempt gets the *remaining connect budget* as its own
        timeout — the read timeout only applies once the socket is up,
        so a 30s read budget can never stretch a connect attempt.  The
        connection has ``TCP_NODELAY`` set, like the daemon's side.
        """
        deadline = time.monotonic() + self.connect_timeout
        last_error: "Exception | None" = None
        while True:
            remaining = deadline - time.monotonic()
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=max(0.05, remaining)
                )
                break
            except OSError as exc:
                last_error = exc
                if time.monotonic() >= deadline:
                    raise ServeError(
                        f"cannot connect to {self.host}:{self.port}: {last_error}",
                        transient=True,
                    ) from last_error
                time.sleep(0.05)
        # Requests are written whole; Nagle would only delay each one.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        sock, self._sock = self._sock, None
        rfile, self._rfile = self._rfile, None
        try:
            if rfile is not None:
                rfile.close()
        finally:
            if sock is not None:
                sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def request(self, obj: dict) -> dict:
        """One request line out, one response object back.

        Every transport failure is rendered as :class:`ServeError`; the
        connection is dropped after one (NDJSON framing is lost once a
        line tears) and :meth:`resilient_request` redials.
        """
        sock, rfile = self._sock, self._rfile
        if sock is None:
            raise ServeError("client is closed", transient=True)
        try:
            sock.sendall(encode_message(obj))
            line = rfile.readline(MAX_LINE_BYTES + 1)
        except socket.timeout as exc:
            self.close()
            raise ServeError(
                f"read timed out after {self.timeout}s", transient=True
            ) from exc
        except OSError as exc:
            # ConnectionResetError, BrokenPipeError, EPIPE on send, ...
            self.close()
            raise ServeError(
                f"connection failed mid-request: {type(exc).__name__}: {exc}",
                transient=True,
            ) from exc
        if not line:
            self.close()
            raise ServeError("server closed the connection", transient=True)
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            # A torn line: the server (or the network) died mid-write.
            # Surface the offending bytes — they make truncation obvious
            # in a way "Expecting value: line 1 column 1" never does.
            self.close()
            raise ServeError(
                f"unparseable response line ({exc}); first bytes: {line[:80]!r}",
                transient=True,
            ) from exc
        if not isinstance(response, dict):
            self.close()
            raise ServeError(f"response is not a JSON object: {line[:80]!r}")
        return response

    def resilient_request(self, obj: dict) -> dict:
        """:meth:`request` with reconnect + bounded backoff retries.

        Retries transient transport errors (redialling first) and
        transient server refusals (``retry_on``), up to
        ``retry.retries`` times.  A still-transient answer after the
        last attempt is returned (refusals) or raised (transport), so
        callers always see the true final outcome.
        """
        policy = self.retry
        stats = self.retry_stats
        last_exc: "ServeError | None" = None
        for attempt in range(policy.retries + 1):
            stats["attempts"] += 1
            if attempt:
                stats["retries"] += 1
            try:
                if self._sock is None:
                    self._connect()
                    stats["reconnects"] += 1
                response = self.request(obj)
            except ServeError as exc:
                if not exc.transient:
                    raise
                last_exc = exc
                if attempt >= policy.retries:
                    break
                policy.wait(attempt)
                continue
            error = response.get("error")
            if response.get("ok") or error not in policy.retry_on:
                return response
            if attempt >= policy.retries:
                return response
            policy.wait(attempt)
        stats["exhausted"] += 1
        assert last_exc is not None
        raise last_exc

    def query(
        self,
        s: int,
        t: int,
        alpha: float,
        *,
        id: Any = None,
        deadline_ms: "float | None" = None,
        ttl_ms: "float | None" = None,
        pruning: "bool | None" = None,
        resilient: bool = False,
    ) -> dict:
        """Answer one ``(s, t, alpha)`` query (returns the raw response)."""
        obj: dict = {"op": "query", "s": s, "t": t, "alpha": alpha}
        if id is not None:
            obj["id"] = id
        if deadline_ms is not None:
            obj["deadline_ms"] = deadline_ms
        if ttl_ms is not None:
            obj["ttl_ms"] = ttl_ms
        if pruning is not None:
            obj["pruning"] = pruning
        if resilient:
            return self.resilient_request(obj)
        return self.request(obj)

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def health(self) -> dict:
        """The daemon's health state machine + circuit breaker report."""
        return self.request({"op": "health"})

    def reload(self, path: "str | None" = None) -> dict:
        """Ask the daemon to hot-reload its index (from ``path`` if given)."""
        obj: dict = {"op": "reload"}
        if path is not None:
            obj["path"] = path
        return self.request(obj)

    def shutdown(self) -> dict:
        """Ask the daemon to stop (acked before the socket closes)."""
        return self.request({"op": "shutdown"})


def http_get(host: str, port: int, path: str, timeout: float = 10.0) -> tuple[int, str]:
    """GET one observability endpoint; returns ``(status, body)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()
