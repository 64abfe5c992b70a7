"""LabelPathSet column caching across ``LabelStore.compact()``.

Views materialise their columns lazily from the store's arrays, so
compaction must re-resolve them:

- a live view is re-bound to its moved slice and keeps serving the same
  values through both the tuple properties and ``columns()``;
- a dead view (its entry was replaced) is *poisoned*, never silently
  re-bound to whatever slice now occupies its old offsets — including the
  collision case where a later compaction moves a different live entry
  onto exactly the dead view's ``(start, count)``;
- ``compact()`` inside a ``deferred_bound_refs`` window is refused — the
  side columns are not aligned yet.
"""

from __future__ import annotations

import pytest

from repro.core.labelstore import LabelStore
from repro.core.pathsummary import PathSummary


def _paths(k: int, base_mu: float) -> list[PathSummary]:
    """A refined independent set: mu strictly up, sigma strictly down."""
    return [
        PathSummary(base_mu + i, float((k - i + 1) ** 2), 0, 1) for i in range(k)
    ]


class TestLiveViews:
    def test_live_view_re_resolves_across_compact(self):
        store = LabelStore(independent=True)
        store.add_entry((1, 0), _paths(2, 10.0))
        view = store.add_entry((2, 0), _paths(3, 20.0))
        store.add_entry((1, 0), _paths(2, 30.0))  # orphan the first slice
        assert store.garbage_fraction() > 0.0
        store.compact()
        assert view._start == view._slice.start >= 0
        assert view.mus == (20.0, 21.0, 22.0)
        ub, lb = store.bound_refs(view._slice)
        assert len(ub) == len(lb) == 3

    def test_live_view_kernel_columns_survive_compact(self):
        store = LabelStore(independent=True)
        store.add_entry((1, 0), _paths(2, 10.0))
        view = store.add_entry((2, 0), _paths(3, 20.0))
        store.add_entry((1, 0), _paths(2, 30.0))
        store.compact()
        # First read after the move: materialised from the moved slice.
        mus, _, _, ub, lb = view.columns()
        assert mus == (20.0, 21.0, 22.0)
        assert (ub, lb) == tuple(tuple(c) for c in store.bound_refs(view._slice))


class TestDeadViews:
    def test_dead_view_is_poisoned(self):
        store = LabelStore(independent=True)
        view = store.add_entry((1, 0), _paths(2, 10.0))
        store.add_entry((1, 0), _paths(2, 30.0))  # replace: view is now dead
        store.compact()
        assert view._start == -1
        with pytest.raises(RuntimeError, match="stale LabelPathSet"):
            view.mus

    def test_materialised_dead_view_keeps_tuple_cache(self):
        store = LabelStore(independent=True)
        view = store.add_entry((1, 0), _paths(2, 10.0))
        assert view.mus == (10.0, 11.0)  # materialise before it dies
        store.add_entry((1, 0), _paths(2, 30.0))
        store.compact()
        assert view._start == -1
        assert view.mus == (10.0, 11.0)
        # The kernel-column path must serve the same cached tuples instead
        # of reading another entry's slots.
        assert view.columns()[0] == (10.0, 11.0)

    def test_slice_collision_does_not_resurrect_dead_view(self):
        """A dead view whose (start, count) later coincides with a live
        slice must stay dead — the remap is keyed by slice identity."""
        store = LabelStore(independent=True)
        va = store.add_entry((1, 0), _paths(2, 10.0))
        store.add_entry((2, 0), _paths(2, 20.0))
        store.compact()  # va's slice is now a post-compact object at start 0
        assert va._slice.start == 0 and va._slice.count == 2
        store.add_entry((1, 0), _paths(2, 30.0))  # kill va
        store.compact()  # moves the replacement to exactly (start=0, count=2)
        assert store.entry_slice((1, 0)).start == 0
        assert store.entry_slice((1, 0)).count == 2
        assert va._start == -1
        with pytest.raises(RuntimeError, match="stale LabelPathSet"):
            va.mus


class TestDeferredBoundRefs:
    def test_compact_refused_while_deferring(self):
        store = LabelStore(independent=True)
        store.add_entry((1, 0), _paths(2, 10.0))
        store.add_entry((1, 0), _paths(2, 30.0))
        with store.deferred_bound_refs():
            with pytest.raises(RuntimeError, match="deferred"):
                store.compact()
        store.compact()  # fine after the flush

    def test_deferred_columns_match_inline(self):
        inline = LabelStore(independent=True)
        deferred = LabelStore(independent=True)
        sets = [(key, _paths(3, 10.0 * key[0])) for key in ((1, 0), (2, 0), (3, 1))]
        for key, paths in sets:
            inline.add_entry(key, paths)
        with deferred.deferred_bound_refs():
            for key, paths in sets:
                deferred.add_entry(key, paths)
        assert deferred.ub == inline.ub
        assert deferred.lb == inline.lb
