"""Regressions for the batch path's keyword threading and cache eviction.

Two of this PR's bugfixes live here:

- ``QueryEngine.answer_batch`` used to *accept* no ``deadline_s`` and
  the serving plane had no way to batch with deadlines — the keyword
  must reach every per-query ``answer`` call as a per-query budget.
- The engine's memoisation caches used to wipe *everything* on hitting
  ``_CACHE_LIMIT`` (``clear()``), so a hot triple paid a fresh plan
  right after every wipe.  :class:`BoundedCache` must instead evict one
  cold entry and keep hot entries resident (LRU).
"""

from __future__ import annotations

import random

import pytest

from repro import build_index
from repro.core.engine import BoundedCache
from conftest import make_random_instance, random_query


@pytest.fixture(scope="module")
def small_index():
    return build_index(make_random_instance(5, n=24, extra=30))


# ----------------------------------------------------------------------
# answer_batch keyword threading
# ----------------------------------------------------------------------
def test_answer_batch_threads_deadline(small_index):
    """A hopeless per-query budget must degrade every batched query."""
    rng = random.Random(11)
    queries = [random_query(small_index.graph, rng) for _ in range(8)]
    engine = small_index.engine
    results = engine.answer_batch(queries, deadline_s=1e-9, per_query_stats=True)
    assert len(results) == len(queries)
    assert all(r.degraded for r in results)
    # and degraded answers are still valid paths with exact moments
    for (s, t, alpha), r in zip(queries, results):
        assert r.path[0] == s and r.path[-1] == t
        assert r.variance >= 0.0


def test_answer_batch_deadline_matches_single(small_index):
    """Batched degraded answers are bit-identical to the single path."""
    rng = random.Random(12)
    queries = [random_query(small_index.graph, rng) for _ in range(6)]
    engine = small_index.engine
    batched = engine.answer_batch(queries, deadline_s=1e-9)
    single = [
        engine.answer(s, t, alpha, deadline_s=1e-9) for s, t, alpha in queries
    ]
    assert [r.digest() for r in batched] == [r.digest() for r in single]


def test_answer_batch_without_deadline_not_degraded(small_index):
    rng = random.Random(13)
    queries = [random_query(small_index.graph, rng) for _ in range(6)]
    results = small_index.engine.answer_batch(queries)
    assert not any(r.degraded for r in results)


def test_index_query_batch_passes_deadline(small_index):
    rng = random.Random(16)
    queries = [random_query(small_index.graph, rng) for _ in range(4)]
    results = small_index.query_batch(queries, deadline_s=1e-9)
    assert all(r.degraded for r in results)


# ----------------------------------------------------------------------
# BoundedCache semantics
# ----------------------------------------------------------------------
def test_bounded_cache_evicts_one_not_all():
    cache = BoundedCache(limit=4)
    for i in range(4):
        cache.put(i, i * 10)
    cache.put(99, 990)  # one past the limit
    assert len(cache) == 4  # evicted exactly one, kept the rest
    assert cache.get(99) == 990
    assert cache.get(0) is None  # the oldest went


def test_bounded_cache_lru_keeps_hot_entry():
    cache = BoundedCache(limit=3)
    cache.put("hot", 1)
    cache.put("a", 2)
    cache.put("b", 3)
    assert cache.get("hot") == 1  # refresh: hot is now most-recent
    cache.put("c", 4)  # evicts "a", the least-recently-used
    assert cache.get("hot") == 1
    assert cache.get("a") is None


def test_bounded_cache_rejects_nonpositive_limit():
    with pytest.raises(ValueError):
        BoundedCache(limit=0)


def test_bounded_cache_update_does_not_evict():
    cache = BoundedCache(limit=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 3)  # overwrite, not insert
    assert len(cache) == 2
    assert cache.get("a") == 3
    assert cache.get("b") == 2


def test_hot_triple_survives_eviction_cycle(small_index):
    """The regression the old clear()-on-limit behaviour would fail: a
    triple re-queried every round must stay planned across evictions."""
    engine = small_index.engine
    original = engine._plan_cache
    engine._plan_cache = BoundedCache(limit=4)
    try:
        hot = (0, 11, 0.9)
        hot_key = (0, 11, 0.9, True)
        rng = random.Random(17)
        engine.answer(*hot, use_cache=True)
        assert hot_key in engine._plan_cache
        for _ in range(30):  # far more distinct triples than the limit
            s, t, alpha = random_query(small_index.graph, rng)
            engine.answer(s, t, alpha, use_cache=True)
            engine.answer(*hot, use_cache=True)  # keeps the hot plan fresh
            assert hot_key in engine._plan_cache
        assert len(engine._plan_cache) == 4  # evictions really happened
    finally:
        engine._plan_cache = original


def test_invalidate_plans_still_clears(small_index):
    engine = small_index.engine
    engine.answer(0, 9, 0.9, use_cache=True)
    assert len(engine._plan_cache) > 0
    engine.invalidate_plans()
    assert len(engine._plan_cache) == 0
