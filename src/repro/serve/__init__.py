"""The serving plane: a long-lived query daemon over a resident index.

Every CLI query pays process startup plus a full index load; the paper's
microsecond-scale query claim only materialises once the index stays
hot.  ``repro.serve`` keeps one :class:`repro.core.index.NRPIndex`
resident and answers a concurrent stream of ``(s, t, alpha)`` queries
over a line-delimited JSON protocol (:mod:`repro.serve.protocol`), with

- a **bounded admission queue** — requests beyond the queue capacity are
  refused immediately with an explicit ``shed`` response instead of
  piling up latency,
- **per-request deadlines** reusing the engine's ``deadline_s``
  degradation (an over-budget query comes back as the exact mean-only
  fallback, flagged ``degraded``),
- **per-request workers** — worker threads take one request at a time
  off the queue and answer it through ``QueryEngine.answer_batch`` with
  the plan cache on, so repeated triples exploit the engine's plan
  memoisation and no reply waits for another query's answer, and
- ``/metrics`` (Prometheus), ``/healthz`` (liveness), ``/readyz``
  (readiness), and ``/stats`` HTTP endpoints on the same port, fed by
  the process-wide ``repro.obs`` registry, and
- a **self-healing layer** (:mod:`repro.serve.health`,
  :mod:`repro.serve.lifecycle`): a watchdog-driven health state
  machine, worker respawn, an engine circuit breaker, TTL triage, and
  hot index reload with rollback (see docs/serving.md "Health &
  lifecycle").

Everything is stdlib-only (``socketserver`` + ``threading`` + ``queue``).
The CLI front-ends are ``repro serve`` and ``repro serve-client``; the
protocol, semantics, and operational guidance live in docs/serving.md.

Layering (nrplint NRP001): ``repro.serve`` sits above the index kernel —
it may import ``repro.core``, ``repro.obs``, and ``repro.resilience``,
and nothing in core may ever import it back.  Within the plane,
``repro.serve.health`` is pure mechanism (``repro.obs`` only) and
``repro.serve.lifecycle`` may touch core/resilience/obs but never the
server that imports it.
"""

from __future__ import annotations

from repro.serve.client import RetryPolicy, ServeClient, ServeError, http_get
from repro.serve.health import (
    CircuitBreaker,
    HealthMonitor,
    HealthSignals,
    HealthThresholds,
)
from repro.serve.lifecycle import ReloadResult, attempt_reload, open_with_recovery
from repro.serve.protocol import (
    PROTOCOL_SCHEMA,
    ProtocolError,
    decode_request,
    encode_message,
)
from repro.serve.server import QueryServer, ServerStats

__all__ = [
    "PROTOCOL_SCHEMA",
    "CircuitBreaker",
    "HealthMonitor",
    "HealthSignals",
    "HealthThresholds",
    "ProtocolError",
    "QueryServer",
    "ReloadResult",
    "RetryPolicy",
    "ServeClient",
    "ServeError",
    "ServerStats",
    "attempt_reload",
    "decode_request",
    "encode_message",
    "http_get",
    "open_with_recovery",
]
