"""Engine batch path: per-query vs ``query_batch`` throughput.

The :class:`~repro.core.engine.QueryEngine` memoises ``Z_alpha`` values
and Lemma-1 separator selections on every path, but whole query plans
(including the Algorithm-2 prune-index computation) are memoised on the
**batch path only** — single ``query()`` calls plan fresh, like the
pre-engine code.  A workload with repeated queries — the shape of real
routing traffic, where popular OD pairs dominate — should therefore run
measurably faster through ``query_batch`` than through one ``query()``
call per triple.  Both timed runs start with cold engine caches after a
shared warm-up pass, so they differ only in the engine path taken.

Reported workloads:

- ``distinct``  — every triple unique (worst case for the plan cache;
  batch may be marginally slower here, paying cache inserts that never
  hit)
- ``repeated``  — a small set of hot triples, each asked many times
"""

from __future__ import annotations

import random
import time

from conftest import QUERIES, SCALE, save_report
from repro import obs
from repro.core.index import NRPIndex
from repro.experiments.reporting import format_table
from repro.network.datasets import make_dataset

_HOT_TRIPLES = max(4, QUERIES // 4)
_REPEATS = 20


def _workloads(graph, seed: int = 7):
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    alphas = (0.8, 0.9, 0.95, 0.99)

    def triple():
        while True:
            s, t = rng.choice(vertices), rng.choice(vertices)
            if s != t:
                return (s, t, rng.choice(alphas))

    distinct = [triple() for _ in range(QUERIES * _REPEATS)]
    hot = [triple() for _ in range(_HOT_TRIPLES)]
    repeated = [hot[i % _HOT_TRIPLES] for i in range(QUERIES * _REPEATS)]
    return {"distinct": distinct, "repeated": repeated}


def _cold(index) -> None:
    """Reset every engine cache so both timings start from the same state
    (the separator cache would otherwise warm up during the first run and
    flatter whichever path is measured second)."""
    index.engine.invalidate_plans()
    index.engine._separator_cache.clear()
    index.engine._z_cache.clear()


def _time_per_query(index, workload) -> float:
    _cold(index)
    start = time.perf_counter()
    for s, t, alpha in workload:
        index.query(s, t, alpha)
    return time.perf_counter() - start


def _time_batch(index, workload) -> tuple[float, int, int]:
    """Time ``query_batch`` and return the plan-cache hit/miss deltas the
    run produced, read from the observability registry (the registry is
    enabled session-wide by conftest)."""
    _cold(index)
    registry = obs.registry()
    hit = registry.counter("engine.plan_cache.hit")
    miss = registry.counter("engine.plan_cache.miss")
    hit0, miss0 = hit.value, miss.value
    start = time.perf_counter()
    index.query_batch(workload)
    elapsed = time.perf_counter() - start
    return elapsed, hit.value - hit0, miss.value - miss0


def test_engine_batch_throughput():
    graph, _ = make_dataset("NY", scale=SCALE, seed=7)
    index = NRPIndex(graph)
    rows = []
    for name, workload in _workloads(graph).items():
        # Warm process-level state (tree-decomposition caches, bytecode)
        # so the two timed runs differ only in the engine path taken.
        index.query_batch(workload)
        per_query = _time_per_query(index, workload)
        batch, hits, misses = _time_batch(index, workload)
        # Sanity: identical answers on both paths, and the registry must
        # agree with the workload's shape — every triple either hit or
        # missed the plan cache exactly once during the timed batch run.
        assert [r.value for r in index.query_batch(workload)] == [
            index.query(s, t, alpha).value for s, t, alpha in workload
        ]
        assert hits + misses == len(workload)
        rows.append(
            [
                name,
                len(workload),
                f"{per_query * 1000:.1f} ms",
                f"{batch * 1000:.1f} ms",
                f"{per_query / batch:.2f}x",
                hits,
                misses,
            ]
        )
        if name == "repeated":
            # The plan cache must pay off on hot triples: memoised plans
            # beat fresh ones outright.
            assert batch < per_query
            assert hits > misses
        else:
            # Mostly-miss workload (random triples can still collide at
            # small scales) paying only bounded cache-insert overhead.
            assert batch < per_query * 1.6
            assert misses > hits
    report = format_table(
        ["workload", "queries", "per-query loop", "query_batch", "speedup",
         "plan hits", "plan misses"],
        rows,
        title=f"Engine batch path (NY, scale={SCALE})",
    )
    save_report("engine_batch", report)
