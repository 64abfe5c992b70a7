"""Unified observability layer: metrics, span tracing, profiling hooks.

One import point for everything the index can tell you about itself:

>>> from repro import obs
>>> obs.enable()                       # metrics + tracing
>>> index = build_index(graph)
>>> index.query(0, 5, alpha=0.9)
>>> obs.registry().to_json()["counters"]["engine.label_lookups"]["value"]
1
>>> obs.tracer().write("trace.json")   # load in chrome://tracing
>>> obs.disable(); obs.reset()

Design rules (see ``docs/observability.md`` for the full taxonomy):

- **Disabled by default, near-zero cost when disabled.**  Instrumented
  code guards every observation with one ``enabled`` attribute check;
  ``tests/test_obs_integration.py`` enforces the <2% budget on the
  query path, and the golden engine suite proves enabling tracing never
  changes a query value.
- **Process-wide singletons.**  ``registry()``, ``tracer()``, and
  ``slow_query_log()`` hand out shared objects, so metrics from
  construction, queries, and maintenance all land in one place and one
  ``repro obs dump`` shows the whole story.
- **Schema-versioned exports.**  Every JSON document carries a
  ``schema`` field (``repro.obs.metrics/1``, ``repro.obs.trace/1``,
  ``repro.obs.profile/1``) validated by ``tools/check_obs_schema.py``.
"""

from __future__ import annotations

from repro.obs.flight import (
    FLIGHT_FIELDS,
    FLIGHT_SCHEMA,
    FlightRecorder,
    get_flight_recorder,
    result_digest,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    get_registry,
)
from repro.obs.profiling import (
    PROFILE_SCHEMA,
    SLOW_QUERY_LOGGER,
    SamplingProfiler,
    SlowQueryLog,
    get_slow_query_log,
)
from repro.obs.tracing import TRACE_SCHEMA, Span, Tracer, get_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "SamplingProfiler",
    "SlowQueryLog",
    "FlightRecorder",
    "registry",
    "tracer",
    "slow_query_log",
    "flight_recorder",
    "get_registry",
    "get_tracer",
    "get_slow_query_log",
    "get_flight_recorder",
    "result_digest",
    "enable",
    "disable",
    "reset",
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "PROFILE_SCHEMA",
    "FLIGHT_SCHEMA",
    "FLIGHT_FIELDS",
    "SLOW_QUERY_LOGGER",
    "DEFAULT_LATENCY_BUCKETS",
]


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return get_registry()


def tracer() -> Tracer:
    """The process-wide span tracer."""
    return get_tracer()


def slow_query_log() -> SlowQueryLog:
    """The process-wide slow-query hook."""
    return get_slow_query_log()


def flight_recorder() -> FlightRecorder:
    """The process-wide query flight recorder."""
    return get_flight_recorder()


def enable(*, metrics: bool = True, tracing: bool = True, flight: bool = False) -> None:
    """Turn observation on (metrics + tracing by default).

    The flight recorder is opt-in here (``flight=True``) because, unlike
    the aggregate sinks, it retains per-query records; arm it explicitly
    when capturing a workload or diagnosing per-query behaviour.
    """
    if metrics:
        get_registry().enable()
    if tracing:
        get_tracer().enable()
    if flight:
        get_flight_recorder().arm()


def disable() -> None:
    """Turn all observation off (recorded data is kept until :func:`reset`)."""
    get_registry().disable()
    get_tracer().disable()
    get_slow_query_log().configure(None)
    get_flight_recorder().disarm()


def reset() -> None:
    """Drop *all* recorded obs state: zero the registry, drop recorded
    spans, clear the slow-query log's entries, and empty the flight
    recorder's ring.  Enabled/armed flags are left as they are."""
    get_registry().reset()
    get_tracer().reset()
    get_slow_query_log().reset()
    get_flight_recorder().reset()


def _preregister() -> None:
    """Declare the core metric names so every dump exposes them (value 0
    when never hit) — the contract ``repro obs dump`` and the sidecar
    schema rely on."""
    reg = get_registry()
    for name, help in (
        ("engine.queries", "RSP queries answered (Algorithm 1 runs)"),
        ("engine.label_lookups", "label entries read during execution"),
        ("engine.concatenations", "candidate path concatenations scanned"),
        ("engine.candidate_paths", "stored paths considered before pruning"),
        ("engine.surviving_paths", "stored paths left after pruning"),
        ("engine.hoplinks", "hoplinks scanned across separator-case queries"),
        ("engine.prune.prop2", "paths pruned by intersection dominance (Prop. 2)"),
        ("engine.prune.prop3", "paths pruned by reverse intersection dominance (Prop. 3)"),
        ("engine.prune.prop5", "paths pruned by correlated bound dominance (Prop. 5)"),
        ("engine.plan_cache.hit", "batch-path plan cache hits"),
        ("engine.plan_cache.miss", "batch-path plan cache misses"),
        ("engine.separator_cache.hit", "Lemma-1 separator cache hits"),
        ("engine.separator_cache.miss", "Lemma-1 separator cache misses"),
        ("engine.slow_queries", "queries over the slow-query threshold"),
        ("labelstore.compactions", "columnar store compaction passes"),
        ("construction.label_entries", "label entries built (Algorithm 3)"),
        ("construction.label_paths", "refined paths stored across label entries"),
        ("construction.edge_set_paths", "refined paths stored across edge sets"),
        ("maintenance.updates", "maintenance batches applied (Algorithms 4-5)"),
        ("maintenance.edge_sets_recomputed", "edge sets recomputed bottom-up"),
        ("maintenance.edge_sets_changed", "recomputed edge sets that changed"),
        ("maintenance.labels_rebuilt", "label owners rebuilt top-down"),
        ("serialization.saved_bytes", "bytes written by save_index"),
        ("serialization.loaded_bytes", "bytes read by load_index"),
        ("resilience.query.degraded", "deadline misses answered by the mean-only fallback"),
        ("resilience.io.retries", "atomic writes retried after transient OSError"),
        ("resilience.wal.replayed", "maintenance batches replayed from the WAL on reopen"),
        ("serve.admitted", "query requests accepted into the admission queue"),
        ("serve.shed", "query requests refused because the queue was full"),
        ("serve.completed", "query requests answered (including degraded)"),
        ("serve.degraded", "query requests answered by the deadline fallback"),
        ("serve.errors", "query requests answered with an error response"),
        ("serve.expired", "query requests triaged after overstaying their TTL"),
        ("serve.circuit_open", "query requests shed by the engine circuit breaker"),
        ("serve.worker.restarts", "crashed worker threads respawned by the watchdog"),
        ("serve.reloads", "hot index reloads swapped in"),
        ("serve.reload.failures", "hot index reloads rolled back on damage"),
        ("serve.health.transitions", "health state machine transitions"),
    ):
        reg.counter(name, help)
    for name, help in (
        ("serve.health.state", "health state (0 healthy / 1 degraded / 2 draining / 3 down)"),
        ("serve.circuit.state", "circuit breaker state (0 closed / 1 open / 2 half-open)"),
        ("serve.queue.depth", "admission queue depth at the last watchdog tick"),
        ("serve.workers.alive", "live worker threads at the last watchdog tick"),
    ):
        reg.gauge(name, help)
    for name, help in (
        ("engine.answer", "end-to-end per-query latency"),
        ("engine.plan", "planning stage latency"),
        ("engine.execute", "execution stage latency"),
        ("construction.build", "full index construction"),
        ("construction.tree_decomposition", "tree decomposition phase"),
        ("construction.edge_sets", "edge-set phase (Alg. 3, Lines 1-5)"),
        ("construction.labels", "label phase (Alg. 3, Lines 6-10)"),
        ("labelstore.compact", "store compaction passes"),
        ("maintenance.update", "maintenance batch latency"),
        ("serialization.save", "index save latency"),
        ("serialization.load", "index load latency"),
    ):
        reg.timer(name, help)
    reg.histogram("engine.query_seconds", "per-query latency histogram")
    reg.histogram("serve.wait", "seconds a request waited in the admission queue")
    reg.histogram(
        "serve.latency", "seconds from admission to response (wait + service)"
    )


_preregister()
