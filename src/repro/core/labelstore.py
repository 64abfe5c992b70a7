"""Columnar path-set storage — the *storage layer* of the core.

The index used to keep every label entry as a tuple of per-path Python
objects plus per-entry tuples of floats; size accounting multiplied counts
by hand-tuned ``_BYTES_PER_*`` guesses.  This module stores the numeric
payload of all path sets of one plane *columnar* instead:

- ``mus`` / ``vars`` / ``sigmas`` — contiguous ``array('d')`` columns, one
  slot per stored path, entries occupying consecutive slot ranges;
- ``win_flat`` — the head/tail window edges of Figure 6 flattened into one
  ``array('q')`` of vertex ids (two per edge), with per-path lengths in
  ``win_lens``;
- an offset table mapping each ``(v, u)`` entry key to its slot range.

:class:`LabelStore` adds the per-path pruning statistics of Definitions
10-11 (upper bound maximizer / lower bound minimizer indices) as ``array``
columns, so :class:`repro.core.pruning.LabelPathSet` shrinks to a lazy
*view* over one entry's slices while keeping its algorithmic API.

Mutation is append-only: replacing an entry appends fresh columns and
orphans the old slot range.  :meth:`compact` reclaims the garbage that
index maintenance leaves behind, remapping live views in place (dead views
are poisoned — any not-yet-materialised read raises instead of returning
stale columns).  Byte counts are exact: they are the sizes of the live
array slices, not estimates.
"""

from __future__ import annotations

import weakref
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.kernels import reference
from repro.core.kernels.reference import compute_bound_refs
from repro.obs import get_registry, get_tracer
from repro.resilience.failpoints import failpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pathsummary import PathSummary
    from repro.core.pruning import LabelPathSet

__all__ = ["ColumnarPathStore", "LabelStore", "Slice", "compute_bound_refs"]

#: Offset-table cost per entry: (start, count) as two machine words.
_OFFSET_ENTRY_BYTES = 16

#: The numeric columns detached by :meth:`ColumnarPathStore.compact`:
#: ``(mus, vars, sigmas, win_flat, win_lens)``.
_Columns = tuple[
    "array[float]", "array[float]", "array[float]", "array[int]", "array[int]"
]


class Slice:
    """One entry's location inside the columns.

    Part of the storage layer's public surface: ``LabelPathSet.from_store``
    views and ``bound_refs`` address entries through it.
    """

    __slots__ = ("start", "count", "win_start", "win_ints")

    def __init__(self, start: int, count: int, win_start: int, win_ints: int) -> None:
        self.start = start
        self.count = count
        self.win_start = win_start
        self.win_ints = win_ints


# compute_bound_refs (Definitions 10/11) now lives in the kernel layer;
# re-exported here because it is part of this module's historical API.


class ColumnarPathStore:
    """Contiguous numeric columns for keyed path sets, with exact sizing."""

    def __init__(self) -> None:
        self.mus = array("d")
        self.vars = array("d")
        self.sigmas = array("d")
        self.win_flat = array("q")
        self.win_lens = array("I")  # two slots per path: len(win_a), len(win_b)
        self._entries: dict[tuple[int, int] | None, Slice] = {}
        self._live_paths = 0
        self._live_win_ints = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def set_entry(
        self, key: tuple[int, int] | None, paths: Sequence["PathSummary"]
    ) -> Slice:
        """Install ``key -> paths``, replacing (and orphaning) any old slice."""
        old = self._entries.get(key)
        if old is not None:
            self._live_paths -= old.count
            self._live_win_ints -= old.win_ints
            self._on_entry_dropped(old)
        info = self._append(key, paths)
        self._entries[key] = info
        self._live_paths += info.count
        self._live_win_ints += info.win_ints
        return info

    def _append(
        self, key: tuple[int, int] | None, paths: Sequence["PathSummary"]
    ) -> Slice:
        start = len(self.mus)
        win_start = len(self.win_flat)
        mus = self.mus
        vars_ = self.vars
        sigmas = self.sigmas
        win_flat = self.win_flat
        win_lens = self.win_lens
        for p in paths:
            mus.append(p.mu)
            vars_.append(p.var)
            sigmas.append(p.sigma)
            win_lens.append(len(p.win_a))
            win_lens.append(len(p.win_b))
            for u, v in p.win_a:
                win_flat.append(u)
                win_flat.append(v)
            for u, v in p.win_b:
                win_flat.append(u)
                win_flat.append(v)
        return Slice(start, len(paths), win_start, len(self.win_flat) - win_start)

    def _on_entry_dropped(self, info: Slice) -> None:
        """Hook for subclasses tracking per-slot side columns."""

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entry_slice(self, key: tuple[int, int] | None) -> Slice:
        return self._entries[key]

    def __contains__(self, key: tuple[int, int] | None) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def num_paths(self) -> int:
        """Live stored paths (excluding orphaned slots)."""
        return self._live_paths

    def window_edges(self) -> int:
        """Live window edges across all entries (two ints per edge)."""
        return self._live_win_ints // 2

    # ------------------------------------------------------------------
    # Exact sizing
    # ------------------------------------------------------------------
    def _per_path_bytes(self) -> int:
        return (
            self.mus.itemsize
            + self.vars.itemsize
            + self.sigmas.itemsize
            + 2 * self.win_lens.itemsize
        )

    def live_bytes(self) -> int:
        """Exact bytes of the live columns plus the offset table."""
        return (
            self._live_paths * self._per_path_bytes()
            + self._live_win_ints * self.win_flat.itemsize
            + len(self._entries) * _OFFSET_ENTRY_BYTES
        )

    def buffer_bytes(self) -> int:
        """Allocated column bytes including garbage left by replacements."""
        return (
            len(self.mus) * self._per_path_bytes()
            + len(self.win_flat) * self.win_flat.itemsize
            + len(self._entries) * _OFFSET_ENTRY_BYTES
        )

    def garbage_fraction(self) -> float:
        total = len(self.mus)
        if total == 0:
            return 0.0
        return 1.0 - self._live_paths / total

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Rewrite the columns keeping only live entries."""
        started = perf_counter()
        garbage = self.garbage_fraction()
        with get_tracer().span(
            "labelstore.compact",
            kind=type(self).__name__,
            entries=len(self._entries),
            garbage_fraction=round(garbage, 4),
        ):
            old = (self.mus, self.vars, self.sigmas, self.win_flat, self.win_lens)
            self.mus = array("d")
            self.vars = array("d")
            self.sigmas = array("d")
            self.win_flat = array("q")
            self.win_lens = array("I")
            # Keyed by id() of the *old* Slice object: starts are ambiguous
            # (a replaced entry's dead view can share a start with a live
            # slab after earlier compactions), object identity is not.
            remap: dict[int, Slice] = {}
            for key, info in self._entries.items():
                remap[id(info)] = self._entries[key] = self._move_slice(old, info)
            self._after_compact(remap)
        failpoint("labelstore.compacted")
        registry = get_registry()
        if registry.enabled:
            registry.counter("labelstore.compactions").inc()
            registry.timer("labelstore.compact").observe(perf_counter() - started)
            registry.gauge(
                "labelstore.last_compacted_garbage_fraction",
                "garbage fraction reclaimed by the most recent compaction",
            ).set(garbage)

    def _move_slice(self, old: "_Columns", info: Slice) -> Slice:
        old_mus, old_vars, old_sigmas, old_flat, old_lens = old
        moved = Slice(len(self.mus), info.count, len(self.win_flat), info.win_ints)
        s, c = info.start, info.count
        self.mus.extend(old_mus[s : s + c])
        self.vars.extend(old_vars[s : s + c])
        self.sigmas.extend(old_sigmas[s : s + c])
        self.win_lens.extend(old_lens[2 * s : 2 * (s + c)])
        self.win_flat.extend(old_flat[info.win_start : info.win_start + info.win_ints])
        return moved

    def _after_compact(self, remap: dict[int, Slice]) -> None:
        """Hook for subclasses compacting side columns / rebinding views.

        ``remap`` maps ``id(old_slice) -> new_slice`` for live entries.
        """


class LabelStore(ColumnarPathStore):
    """Columnar label entries plus precomputed pruning-statistic columns.

    ``independent=True`` (the independent high plane) additionally computes
    and stores each path's Definition-10/11 bound reference indices in
    ``ub``/``lb`` columns aligned with the moment columns; other planes
    skip them, exactly as the old per-entry tuples did.
    """

    def __init__(self, independent: bool = True) -> None:
        super().__init__()
        self.independent = independent
        self.ub = array("l")
        self.lb = array("l")
        self._views: "weakref.WeakSet[LabelPathSet]" = weakref.WeakSet()
        self._deferred: (
            list[tuple[Slice, tuple[Sequence[int], Sequence[int]] | None]] | None
        ) = None

    # ------------------------------------------------------------------
    # Entry API
    # ------------------------------------------------------------------
    def add_entry(
        self,
        key: tuple[int, int] | None,
        paths: Sequence["PathSummary"],
        precomputed: tuple[Sequence[int], Sequence[int]] | None = None,
    ) -> "LabelPathSet":
        """Install an entry and return its :class:`LabelPathSet` view.

        ``precomputed`` optionally supplies the ``(ub, lb)`` bound reference
        columns (the v2 index format persists them so loading skips the
        O(k^2) recomputation).  Inside a :meth:`deferred_bound_refs` window
        the computation is queued instead of done inline.
        """
        from repro.core.pruning import LabelPathSet

        paths = tuple(paths)
        info = self.set_entry(key, paths)
        if self.independent:
            if self._deferred is not None:
                self._deferred.append((info, precomputed))
            elif precomputed is not None:
                self.ub.extend(precomputed[0])
                self.lb.extend(precomputed[1])
            else:
                self._extend_bound_refs(info)
        view = LabelPathSet.from_store(self, info, paths)
        self._views.add(view)
        return view

    replace_entry = add_entry

    def _extend_bound_refs(self, info: Slice) -> None:
        """Append ``info``'s Definition-10/11 columns via the kernel layer.

        The moment views passed to the kernel are transient: they die when
        this frame returns, so they never block later column growth.
        """
        s, e = info.start, info.start + info.count
        ub, lb = reference.compute_bound_refs(
            memoryview(self.mus)[s:e], memoryview(self.sigmas)[s:e]
        )
        self.ub.extend(ub)
        self.lb.extend(lb)

    @contextmanager
    def deferred_bound_refs(self) -> Iterator[None]:
        """Batch Definition-10/11 computation across a build/rebuild loop.

        While the context is active, :meth:`add_entry` queues entries
        instead of computing their ``ub``/``lb`` columns inline; on exit
        the whole batch flushes in one pass.  Views
        created inside the window must not serve pruning until the context
        exits (their bound columns are not appended yet), and
        :meth:`compact` refuses to run — both match how construction and
        maintenance drive builds.  No-op on non-independent stores and
        when already deferring.
        """
        if not self.independent or self._deferred is not None:
            yield
            return
        pending: list[tuple[Slice, tuple[Sequence[int], Sequence[int]] | None]] = []
        self._deferred = pending
        try:
            yield
        finally:
            # Flush even on error so the columns stay aligned with the
            # entries that did land.
            self._deferred = None
            self._flush_bound_refs(pending)

    def _flush_bound_refs(
        self,
        pending: list[tuple[Slice, tuple[Sequence[int], Sequence[int]] | None]],
    ) -> None:
        if not pending:
            return
        for info, precomputed in pending:
            if len(self.ub) != info.start:
                raise RuntimeError("bound-ref columns out of sync with deferred entries")
            if precomputed is not None:
                self.ub.extend(precomputed[0])
                self.lb.extend(precomputed[1])
            else:
                self._extend_bound_refs(info)

    def bound_refs(self, info: Slice) -> tuple[array, array]:
        """The ``(ub, lb)`` column slices of one entry (independent only)."""
        s, c = info.start, info.count
        return self.ub[s : s + c], self.lb[s : s + c]

    # ------------------------------------------------------------------
    # Exact sizing
    # ------------------------------------------------------------------
    def _per_path_bytes(self) -> int:
        per = super()._per_path_bytes()
        if self.independent:
            per += self.ub.itemsize + self.lb.itemsize
        return per

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> None:
        if self._deferred is not None:
            raise RuntimeError("cannot compact while bound-ref computation is deferred")
        self._old_stats = (self.ub, self.lb)
        self.ub = array("l")
        self.lb = array("l")
        try:
            super().compact()
        finally:
            del self._old_stats

    def _move_slice(self, old: "_Columns", info: Slice) -> Slice:
        moved = super()._move_slice(old, info)
        if self.independent:
            old_ub, old_lb = self._old_stats
            s, c = info.start, info.count
            self.ub.extend(old_ub[s : s + c])
            self.lb.extend(old_lb[s : s + c])
        return moved

    def _after_compact(self, remap: dict[int, Slice]) -> None:
        for view in tuple(self._views):
            moved = remap.get(id(view._slice))
            if moved is not None:
                view._slice = moved
                view._start = moved.start
            else:
                # The entry was replaced after this view was handed out:
                # poison it (materialised views keep serving their tuple
                # caches; anything else fails loudly instead of silently
                # reading another entry's slots).
                view._start = -1
