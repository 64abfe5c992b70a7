"""Spans around the calls into each layer, recorded from outside the program.

A :class:`Recorder` replaces a public function or method with a wrapper
that records ``(start_ns, end_ns, thread, key)`` and calls the original.
Nothing inside ``src/`` changes; :meth:`Recorder.restore` puts every
original back.  Spans stay in memory and are written once, at exit.

Two wrapper sets exist.  :func:`install_daemon` runs inside the traced
daemon (``traced_daemon.py``) and wraps the serve and engine entry
points; :func:`install_in_process` runs in the benchmark process and wraps
construction, serialization, maintenance and the kernels.
:func:`reconcile` joins the daemon's spans with the client's records on
the echoed request ``id``.
"""

from __future__ import annotations

import json
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns

KERNELS = (
    "scan_pairs",
    "best_label",
    "prune_independent",
    "prune_correlated_keep",
    "refine_keep",
    "compute_bound_refs",
)


class Recorder:
    """In-memory spans and counters, grouped by span name."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(list)
        self.durations: dict[str, array] = defaultdict(lambda: array("q"))
        self.counts: dict[str, int] = defaultdict(int)
        self.phase = "build"
        self._undo: list = []

    def span(self, owner, attr: str, name: str, key=None) -> None:
        """Wrap ``owner.attr``; each call appends a span (``key`` picks its id)."""
        original = getattr(owner, attr)
        spans = self.spans[name]
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = original(*args, **kwargs)
            spans.append((start, perf_counter_ns(), ident(), key(args, result) if key else None))
            return result

        self._patch(owner, attr, original, wrapper)

    def timed(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` keeping only durations and per-phase call counts."""
        original = getattr(owner, attr)
        durations = self.durations[name]
        counts = self.counts

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = original(*args, **kwargs)
            durations.append(perf_counter_ns() - start)
            counts[(self.phase, name)] += 1
            return result

        self._patch(owner, attr, original, wrapper)

    def counted(self, owner, attr: str, name: str, size=None) -> None:
        """Wrap ``owner.attr`` counting calls (and ``size(args, result)`` sums)."""
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[(self.phase, name)] += 1
            if size is not None:
                for suffix, amount in size(args, result):
                    counts[(self.phase, name + suffix)] += amount
            return result

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({name: spans for name, spans in self.spans.items()}, handle)


def _request_id(args, result):
    return result.id


def _message_id(args, result):
    return args[0].get("id")


def _handled_id(args, result):
    return args[1].id if args[1].op == "query" else None


def _triples(args, result):
    return [list(q) for q in args[1]]


def _plan_triple(args, result):
    return [args[1], args[2], args[3]]


def _executed_triple(args, result):
    plan = args[1]
    return [plan.s, plan.t, plan.alpha]


def install_daemon(rec: Recorder) -> None:
    """Spans for the serve and engine layers (run inside the daemon)."""
    import repro.serve.server as server
    from repro.core.engine import QueryEngine

    rec.span(server, "decode_request", "serve.decode", _request_id)
    rec.span(server, "encode_message", "serve.encode", _message_id)
    rec.span(server.QueryServer, "handle_request", "serve.handle", _handled_id)
    rec.span(server, "attempt_reload", "lifecycle.reload")
    rec.span(QueryEngine, "answer_batch", "engine.answer_batch", _triples)
    rec.span(QueryEngine, "plan", "engine.plan", _plan_triple)
    rec.span(QueryEngine, "execute", "engine.execute", _executed_triple)


def _refined(args, result):
    return ((".in", len(args[1])), (".out", len(result)))


def _maintained(args, result):
    return (
        (".edge_sets_recomputed", result.edge_sets_recomputed),
        (".labels_rebuilt", result.labels_rebuilt),
    )


def install_in_process(rec: Recorder) -> None:
    """Spans for construction, serialization, maintenance and the kernels."""
    import repro.core.construction as construction
    import repro.core.index as index
    import repro.core.maintenance as maintenance
    from repro.core.kernels import active_backend
    from repro.core.refine import Refiner
    from repro.resilience.wal import WriteAheadLog

    rec.timed(index, "build_tree_decomposition", "construction.td")
    rec.timed(index, "build_edge_sets", "construction.edge_sets")
    rec.timed(index, "build_labels", "construction.labels")
    rec.counted(construction, "concatenate", "construction.concatenations")
    rec.counted(Refiner, "refine", "refine", _refined)
    rec.timed(maintenance.IndexMaintainer, "update_batch", "maintenance.update_batch")
    rec.counted(maintenance.IndexMaintainer, "update_batch", "maintenance", _maintained)
    rec.timed(WriteAheadLog, "append_batch", "maintenance.wal_append")
    backend = active_backend()
    for name in KERNELS:
        rec.timed(backend, name, "kernels." + name)


def _inside(outer, spans):
    """The spans of ``spans`` on ``outer``'s thread lying within it."""
    start, end, tid = outer[0], outer[1], outer[2]
    return [s for s in spans if s[2] == tid and start <= s[0] and s[1] <= end]


def reconcile(records, spans: dict) -> dict[str, list[float]]:
    """Join each ok request's spans across both processes on its ``id``.

    The chain is client send -> ``decode_request`` -> ``handle_request``
    (queue wait, then the ``answer_batch`` that answered it, with this
    query's ``plan`` and ``execute`` inside) -> ``encode_message`` ->
    client receive.  Returns per-request samples in microseconds:
    durations, self times and the part of the round trip that no server
    span covers.
    """
    by_id = {}
    for name in ("serve.decode", "serve.handle", "serve.encode"):
        for span in spans.get(name, ()):
            if span[3] is not None:
                by_id.setdefault(span[3], {})[name] = span
    batches = defaultdict(list)
    for span in spans.get("engine.answer_batch", ()):
        for triple in span[3]:
            batches[tuple(triple)].append(span)
    per_thread = {}
    for name in ("engine.plan", "engine.execute"):
        grouped = defaultdict(list)
        for span in spans.get(name, ()):
            grouped[(span[2], tuple(span[3]))].append(span)
        per_thread[name] = grouped
    out: dict[str, list[float]] = defaultdict(list)
    joined = 0
    for record in records:
        if not record.ok:
            continue
        mine = by_id.get(record.id, {})
        handle = mine.get("serve.handle")
        decode = mine.get("serve.decode")
        encode = mine.get("serve.encode")
        if handle is None or decode is None or encode is None:
            continue
        triple = tuple(record.triple)
        batch = next(
            (b for b in batches.get(triple, ()) if handle[0] <= b[0] and b[1] <= handle[1]),
            None,
        )
        if batch is None:
            continue
        key = (batch[2], triple)
        plan = _inside(batch, per_thread["engine.plan"].get(key, ()))
        execute = _inside(batch, per_thread["engine.execute"].get(key, ()))
        if len(plan) != 1 or len(execute) != 1:
            continue
        joined += 1
        us = 1e-3
        rtt = (record.recv_ns - record.send_ns) * us
        d = (decode[1] - decode[0]) * us
        h = (handle[1] - handle[0]) * us
        e = (encode[1] - encode[0]) * us
        b = (batch[1] - batch[0]) * us
        p = (plan[0][1] - plan[0][0]) * us
        x = (execute[0][1] - execute[0][0]) * us
        w = float(record.reply["wait_us"])
        out["rtt"].append(rtt)
        out["decode"].append(d)
        out["handle"].append(h)
        out["encode"].append(e)
        out["answer_batch"].append(b)
        out["plan"].append(p)
        out["execute"].append(x)
        out["transport"].append(rtt - h)
        out["inbound"].append((decode[0] - record.send_ns) * us)
        out["outbound"].append((record.recv_ns - encode[1]) * us)
        out["handle_self"].append(h - w - b)
        out["answer_batch_self"].append(b - p - x)
        out["unattributed"].append(max(0.0, rtt - d - w - b - e))
    out["joined"] = [joined]
    return out
