"""Deterministic workload capture and replay.

A captured workload is a flight-recorder drain persisted to disk (schema
``repro.workload/1``): every record keeps its ``(s, t, alpha)`` triple,
the per-phase timings and Algorithm 1/2 counters observed at capture
time, and the bit-exact result digest.  :func:`replay_workload` re-executes
the triples against a (possibly rebuilt) index, verifies every digest bit-identically, and emits a comparison
report: latency percentiles (p50/p95/p99), per-phase attribution deltas,
and counter deltas grouped by kernel backend.

This is the regression loop the CLI exposes as ``repro workload capture``
and ``repro replay``:

1. ``repro workload capture --index idx.json --count 1000 -o wl.json``
2. change the code / rebuild the index
3. ``repro replay --index idx.json --workload wl.json`` — exit 1 if any
   answer changed, plus a latency/counter diff either way.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.obs.flight import (
    FLIGHT_FIELDS,
    get_flight_recorder,
    records_from_rows,
)
from repro.resilience.atomic import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import NRPIndex

__all__ = [
    "WORKLOAD_SCHEMA",
    "REPLAY_SCHEMA",
    "run_capture",
    "capture_workload",
    "save_workload",
    "load_workload",
    "replay_workload",
    "format_replay_report",
    "percentile",
]

#: Schema identifier of persisted workload files.
WORKLOAD_SCHEMA = "repro.workload/1"

#: Schema identifier of replay comparison reports.
REPLAY_SCHEMA = "repro.replay/1"

_F = {name: i for i, name in enumerate(FLIGHT_FIELDS)}
_I_DIGEST = _F["digest"]
_I_BACKEND = _F["backend"]
_I_TOTAL = _F["total_ns"]
_I_PLAN = _F["plan_ns"]
_I_EXECUTE = _F["execute_ns"]

#: The per-query counters diffed per backend by the replay report.
_COUNTER_FIELDS = (
    "hoplinks",
    "label_lookups",
    "candidate_paths",
    "surviving_paths",
    "concatenations",
    "pruned_prop2",
    "pruned_prop3",
    "pruned_prop5",
)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` with linear interpolation.

    Deterministic and dependency-free; raises on an empty sequence (a
    replay of zero queries is a usage error, not a statistic).
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo]) + (float(ordered[hi]) - float(ordered[lo])) * frac


def _latency_summary(records: Sequence[tuple]) -> dict:
    totals = [r[_I_TOTAL] for r in records]
    return {
        "count": len(records),
        "mean_ns": sum(totals) // max(len(totals), 1),
        "p50_ns": int(percentile(totals, 0.50)),
        "p95_ns": int(percentile(totals, 0.95)),
        "p99_ns": int(percentile(totals, 0.99)),
        "max_ns": max(totals),
    }


def _phase_means(records: Sequence[tuple]) -> dict:
    n = max(len(records), 1)
    return {
        "plan_mean_ns": sum(r[_I_PLAN] for r in records) // n,
        "execute_mean_ns": sum(r[_I_EXECUTE] for r in records) // n,
    }


def _counters_by_backend(records: Sequence[tuple]) -> dict:
    out: dict[str, dict[str, int]] = {}
    for rec in records:
        backend = rec[_I_BACKEND] or "-"
        bucket = out.setdefault(
            backend, {name: 0 for name in ("queries",) + _COUNTER_FIELDS}
        )
        bucket["queries"] += 1
        for name in _COUNTER_FIELDS:
            bucket[name] += rec[_F[name]]
    return out


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def run_capture(
    index: "NRPIndex",
    triples: Sequence[tuple[int, int, float]],
    *,
    use_pruning: bool = True,
    deadline_s: "float | None" = None,
) -> list[tuple]:
    """Answer ``triples`` with the flight recorder armed; return the records.

    The process-wide recorder is resized to hold the whole workload (so
    nothing is dropped), then restored to its previous capacity and armed
    state.  Records retained from before the capture are discarded — the
    recorder holds one coherent workload at a time.
    """
    recorder = get_flight_recorder()
    prev_enabled, prev_capacity = recorder.enabled, recorder.capacity
    recorder.configure(max(len(triples), 1))
    recorder.arm()
    try:
        for s, t, alpha in triples:
            index.query(
                s, t, alpha, use_pruning=use_pruning, deadline_s=deadline_s
            )
        records = recorder.records()
    finally:
        recorder.enabled = prev_enabled
        recorder.configure(prev_capacity)
    return records


def capture_workload(
    index: "NRPIndex",
    triples: Sequence[tuple[int, int, float]],
    *,
    use_pruning: bool = True,
    deadline_s: "float | None" = None,
) -> dict:
    """Capture a replayable workload document (``repro.workload/1``)."""
    records = run_capture(
        index, triples, use_pruning=use_pruning, deadline_s=deadline_s
    )
    backends = sorted({rec[_I_BACKEND] for rec in records})
    return {
        "schema": WORKLOAD_SCHEMA,
        "meta": {
            "queries": len(records),
            "use_pruning": use_pruning,
            "vertices": index.graph.num_vertices,
            "edges": index.graph.num_edges,
            "backends": backends,
        },
        "fields": list(FLIGHT_FIELDS),
        "records": [list(rec) for rec in records],
    }


def save_workload(document: dict, path: "str | Path") -> None:
    atomic_write_text(Path(path), json.dumps(document, indent=1) + "\n")


def load_workload(path: "str | Path") -> dict:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if document.get("schema") != WORKLOAD_SCHEMA:
        raise ValueError(
            f"{path}: not a workload file "
            f"(schema {document.get('schema')!r}, expected {WORKLOAD_SCHEMA!r})"
        )
    if document.get("fields") != list(FLIGHT_FIELDS):
        raise ValueError(
            f"{path}: workload field layout does not match this build's "
            f"flight-record layout"
        )
    return document


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay_workload(
    index: "NRPIndex",
    workload: dict,
    *,
    use_pruning: "bool | None" = None,
) -> dict:
    """Re-execute a captured workload and diff it against the capture.

    Every triple is re-answered in capture order and its digest compared
    bit-for-bit; ``identical`` is True only when all of them match.  The
    report also carries latency percentiles, per-phase attribution means,
    and per-backend counter totals for both runs, with replay-minus-
    baseline deltas.
    """
    baseline = records_from_rows(workload["records"])
    if not baseline:
        raise ValueError("cannot replay an empty workload")
    if use_pruning is None:
        use_pruning = bool(workload.get("meta", {}).get("use_pruning", True))
    triples = [(rec[0], rec[1], rec[2]) for rec in baseline]
    replayed = run_capture(index, triples, use_pruning=use_pruning)

    mismatches = []
    for seq, (base, rerun) in enumerate(zip(baseline, replayed)):
        if base[_I_DIGEST] != rerun[_I_DIGEST]:
            mismatches.append(
                {
                    "seq": seq,
                    "s": base[0],
                    "t": base[1],
                    "alpha": base[2],
                    "expected_digest": base[_I_DIGEST],
                    "actual_digest": rerun[_I_DIGEST],
                    "baseline_backend": base[_I_BACKEND],
                    "replay_backend": rerun[_I_BACKEND],
                }
            )

    base_latency = _latency_summary(baseline)
    replay_latency = _latency_summary(replayed)
    base_phases = _phase_means(baseline)
    replay_phases = _phase_means(replayed)
    base_counters = _counters_by_backend(baseline)
    replay_counters = _counters_by_backend(replayed)
    counter_report: dict[str, dict] = {}
    for backend in sorted(set(base_counters) | set(replay_counters)):
        before = base_counters.get(backend, {})
        after = replay_counters.get(backend, {})
        names = sorted(set(before) | set(after))
        counter_report[backend] = {
            "baseline": before,
            "replay": after,
            "delta": {
                name: after.get(name, 0) - before.get(name, 0) for name in names
            },
        }
    return {
        "schema": REPLAY_SCHEMA,
        "queries": len(baseline),
        "identical": not mismatches,
        "digest_matches": len(baseline) - len(mismatches),
        "digest_mismatches": mismatches,
        "latency": {
            "baseline": base_latency,
            "replay": replay_latency,
            "delta_ns": {
                key: replay_latency[key] - base_latency[key]
                for key in ("mean_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns")
            },
        },
        "phases": {
            "baseline": base_phases,
            "replay": replay_phases,
            "delta_ns": {
                key: replay_phases[key] - base_phases[key] for key in base_phases
            },
        },
        "counters": counter_report,
    }


def format_replay_report(report: dict) -> str:
    """Human-readable rendering of a :func:`replay_workload` report."""
    from repro.experiments.reporting import format_table

    verdict = (
        "bit-identical"
        if report["identical"]
        else f"{len(report['digest_mismatches'])} DIGEST MISMATCH(ES)"
    )
    latency_rows = []
    base, rerun = report["latency"]["baseline"], report["latency"]["replay"]
    for key in ("mean_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns"):
        delta = report["latency"]["delta_ns"][key]
        latency_rows.append(
            [
                key[:-3],
                f"{base[key] / 1e6:.3f} ms",
                f"{rerun[key] / 1e6:.3f} ms",
                f"{delta / 1e6:+.3f} ms",
            ]
        )
    phases = report["phases"]
    for key in ("plan_mean_ns", "execute_mean_ns"):
        latency_rows.append(
            [
                key[:-3],
                f"{phases['baseline'][key] / 1e6:.3f} ms",
                f"{phases['replay'][key] / 1e6:.3f} ms",
                f"{phases['delta_ns'][key] / 1e6:+.3f} ms",
            ]
        )
    parts = [
        format_table(
            ["statistic", "baseline", "replay", "delta"],
            latency_rows,
            title=(
                f"Replayed {report['queries']} queries — "
                f"{report['digest_matches']}/{report['queries']} digests "
                f"{verdict}"
            ),
        )
    ]
    counter_rows = []
    for backend, diff in report["counters"].items():
        for name in ("queries",) + _COUNTER_FIELDS:
            before = diff["baseline"].get(name, 0)
            after = diff["replay"].get(name, 0)
            if before or after:
                counter_rows.append(
                    [backend, name, before, after, after - before]
                )
    if counter_rows:
        parts.append(
            format_table(
                ["backend", "counter", "baseline", "replay", "delta"],
                counter_rows,
                title="Counter deltas per backend",
            )
        )
    if report["digest_mismatches"]:
        parts.append(
            format_table(
                ["seq", "s", "t", "alpha", "expected", "actual"],
                [
                    [
                        m["seq"],
                        m["s"],
                        m["t"],
                        f"{m['alpha']:.4f}",
                        m["expected_digest"],
                        m["actual_digest"],
                    ]
                    for m in report["digest_mismatches"][:20]
                ],
                title="Digest mismatches (first 20)",
            )
        )
    return "\n".join(parts)
