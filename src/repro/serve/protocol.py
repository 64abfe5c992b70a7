"""The serve wire protocol: newline-delimited JSON over a TCP stream.

One request object per line, one response object per line, answered in
request order on each connection.  The protocol is deliberately minimal
— every field is a JSON scalar, every message fits one line — so a shell
one-liner (``printf ... | nc``) is a valid client and the daemon stays
stdlib-only on both ends.

Requests (``op`` selects the operation)::

    {"op": "query", "id": 7, "s": 3, "t": 41, "alpha": 0.9,
     "deadline_ms": 50, "ttl_ms": 200, "pruning": true}
    {"op": "ping"}
    {"op": "stats"}
    {"op": "health"}
    {"op": "reload", "path": "new.nrp.json"}
    {"op": "shutdown"}

``id`` is an opaque client token echoed back verbatim (any JSON scalar);
``deadline_ms``, ``ttl_ms`` and ``pruning`` are optional (server
defaults apply).  ``deadline_ms`` budgets engine *execution* (an
over-budget query degrades to the mean-only fallback); ``ttl_ms``
budgets the *queue wait*: a request still queued past its TTL is
triaged when a worker picks it up and answered ``expired`` without ever touching
the engine.  ``health`` reports the daemon's health state machine and
circuit breaker; ``reload`` hot-swaps the resident index from ``path``
(default: the file the daemon was started from), rolling back on any
damage.

Responses always carry ``ok``.  A successful query reply::

    {"id": 7, "ok": true, "value": 12.25, "mu": 11.0, "variance": 1.56,
     "path_len": 4, "degraded": false, "digest": 193948122,
     "backend": "python", "wait_us": 112, "batch": 1}

``digest`` is the engine's bit-exact result digest (the replay token),
``wait_us`` the microseconds the request sat in the admission queue.
``batch`` is always 1 (each request is answered on its own); the field
stays because the repository benchmark (``perfbench/``) reads it.  Failures::

    {"id": 7, "ok": false, "error": "shed"}                  # queue full
    {"id": 7, "ok": false, "error": "circuit_open"}          # engine breaker
    {"id": 7, "ok": false, "error": "expired"}               # TTL triage
    {"id": 7, "ok": false, "error": "invalid", "detail": "..."}
    {"id": 7, "ok": false, "error": "reload_failed", "detail": "..."}
    {"ok": false, "error": "protocol", "detail": "..."}      # bad line

``shed`` is the admission-control refusal: the bounded queue was full
and the server chose to answer *something* immediately rather than let
latency pile up — the client should back off and retry.
``circuit_open`` is the engine circuit breaker shedding load after
repeated internal engine failures, and ``expired`` the queue-wait
triage; both are transient and retryable exactly like ``shed``.  A
``protocol`` error (unparseable line, unknown ``op``) answers the
offending line and closes the connection; all other errors leave it
open.

The same port also speaks just enough HTTP for observability: a first
line starting with ``GET `` is answered as ``/metrics`` (Prometheus
text), ``/healthz`` (liveness), ``/readyz`` (readiness), or ``/stats``
(JSON) and the connection closes.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "PROTOCOL_SCHEMA",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "Request",
    "decode_request",
    "encode_message",
    "error_response",
    "query_response",
]

#: Schema identifier clients can request via the ``ping`` op.
PROTOCOL_SCHEMA = "repro.serve/1"

#: Hard per-line ceiling — a line longer than this is a protocol error,
#: not a request (no request comes close; this bounds a hostile or
#: confused client's memory footprint per connection).
MAX_LINE_BYTES = 64 * 1024

_OPS = frozenset({"query", "ping", "stats", "health", "reload", "shutdown"})


class ProtocolError(ValueError):
    """A request line the server cannot interpret (the connection closes)."""


class Request:
    """One decoded, validated request."""

    __slots__ = ("op", "id", "s", "t", "alpha", "deadline_ms", "pruning",
                 "ttl_ms", "path")

    def __init__(
        self,
        op: str,
        id: Any = None,
        s: int = 0,
        t: int = 0,
        alpha: float = 0.0,
        deadline_ms: "float | None" = None,
        pruning: "bool | None" = None,
        ttl_ms: "float | None" = None,
        path: "str | None" = None,
    ) -> None:
        self.op = op
        self.id = id
        self.s = s
        self.t = t
        self.alpha = alpha
        self.deadline_ms = deadline_ms
        self.pruning = pruning
        self.ttl_ms = ttl_ms
        self.path = path


def decode_request(line: "str | bytes") -> Request:
    """Parse one request line; raises :class:`ProtocolError` on garbage.

    Validation here covers the *shape* only (types and required fields).
    Semantic validation — node ids in range, alpha in (0, 1) — stays in
    the engine, so the daemon answers exactly what the CLI would raise,
    rendered as an ``invalid`` response.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request line is not UTF-8: {exc}") from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request line is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    op = obj.get("op")
    if op not in _OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {sorted(_OPS)})")
    req_id = obj.get("id")
    if req_id is not None and not isinstance(req_id, (str, int, float, bool)):
        raise ProtocolError("id must be a JSON scalar")
    if op == "reload":
        path = obj.get("path")
        if path is not None and not isinstance(path, str):
            raise ProtocolError("path must be a string")
        return Request(op, req_id, path=path)
    if op != "query":
        return Request(op, req_id)
    try:
        s = obj["s"]
        t = obj["t"]
        alpha = obj["alpha"]
    except KeyError as exc:
        raise ProtocolError(f"query request missing field {exc.args[0]!r}") from None
    if isinstance(s, bool) or not isinstance(s, int):
        raise ProtocolError("s must be an integer")
    if isinstance(t, bool) or not isinstance(t, int):
        raise ProtocolError("t must be an integer")
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ProtocolError("alpha must be a number")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ProtocolError("deadline_ms must be a number")
        if deadline_ms <= 0:
            raise ProtocolError("deadline_ms must be positive")
    ttl_ms = obj.get("ttl_ms")
    if ttl_ms is not None:
        if isinstance(ttl_ms, bool) or not isinstance(ttl_ms, (int, float)):
            raise ProtocolError("ttl_ms must be a number")
        if ttl_ms <= 0:
            raise ProtocolError("ttl_ms must be positive")
    pruning = obj.get("pruning")
    if pruning is not None and not isinstance(pruning, bool):
        raise ProtocolError("pruning must be a boolean")
    return Request(
        "query", req_id, s, t, float(alpha),
        float(deadline_ms) if deadline_ms is not None else None, pruning,
        float(ttl_ms) if ttl_ms is not None else None,
    )


def encode_message(obj: dict) -> bytes:
    """One response (or request) object -> its wire line, newline included."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def query_response(
    req_id: Any,
    result: Any,
    *,
    backend: str,
    wait_us: int,
) -> dict:
    """Render one engine ``QueryResult`` as its wire response object."""
    return {
        "id": req_id,
        "ok": True,
        "value": result.value,
        "mu": result.mu,
        "variance": result.variance,
        "path_len": result.summary.num_edges,
        "degraded": result.degraded,
        "digest": result.digest(),
        "backend": backend,
        "wait_us": wait_us,
        "batch": 1,
    }


def error_response(req_id: Any, error: str, detail: "str | None" = None) -> dict:
    """An ``ok: false`` response (``shed``/``invalid``/``internal``/...)."""
    obj: dict = {"id": req_id, "ok": False, "error": error}
    if detail is not None:
        obj["detail"] = detail
    return obj
