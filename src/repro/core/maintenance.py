"""Index maintenance — Algorithms 4 and 5.

When an edge's travel-time distribution changes, the affected edge-driven
sets ``P_e`` are recomputed bottom-up along the contraction order using the
recorded center sets ``C(e)``, propagation stops as soon as a recomputed set
is unchanged, and finally the labels of the subtree rooted at the
last-contracted affected vertex ``r`` are rebuilt top-down (labels outside
that subtree cannot depend on any affected set — see DESIGN.md Section 7 and
``tests/test_maintenance.py`` for the equivalence check against a full
rebuild).

All mutation goes through the storage layer (``EdgeSetStore.set_paths`` and
``IndexPlane.set_label_entry``), the engine's memoised plans are
invalidated afterwards, and stores left with enough orphaned columns are
compacted.

Crash safety: construct the maintainer with a
:class:`repro.resilience.wal.WriteAheadLog` and every batch is journaled
(and fsynced) *before* any store is touched.  The maintainer never
commits — after the caller has durably re-saved the index it calls
``wal.commit(report.wal_lsn)`` and ``wal.truncate()``.  On reopen,
:func:`replay_wal` re-applies any appended-but-uncommitted batch, so an
interrupted update either completes exactly or rolls back exactly
(records carry absolute weights and Algorithms 4-5 are deterministic, so
replay after a post-save crash is idempotent).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.construction import build_label_paths
from repro.core.pathsummary import PathSummary, concatenate, edge_path
from repro.core.index import IndexPlane, NRPIndex
from repro.obs import get_registry, get_tracer
from repro.resilience.failpoints import failpoint
from repro.resilience.wal import WriteAheadLog

__all__ = ["IndexMaintainer", "MaintenanceReport", "replay_wal"]

EdgeKey = tuple[int, int]

#: Compact a plane's stores once replacements orphan this fraction of slots.
_COMPACT_GARBAGE_FRACTION = 0.5


@dataclass
class MaintenanceReport:
    """What one (batch) update touched."""

    edge_sets_recomputed: int = 0
    edge_sets_changed: int = 0
    labels_rebuilt: int = 0
    seconds: float = 0.0
    #: LSN the batch was journaled under, when a WAL is attached.
    wal_lsn: "int | None" = None


def _signature(
    paths: Sequence[PathSummary],
) -> tuple[tuple[float, float, tuple[EdgeKey, ...], tuple[EdgeKey, ...]], ...]:
    """Moments + windows: if unchanged, downstream sets cannot change."""
    return tuple((p.mu, p.var, p.win_a, p.win_b) for p in paths)


class IndexMaintainer:
    """Applies travel-time distribution changes to a live :class:`NRPIndex`.

    ``wal`` (optional) makes updates crash-safe: see the module docstring
    for the append / apply / caller-commits protocol.
    """

    def __init__(self, index: NRPIndex, wal: "WriteAheadLog | None" = None) -> None:
        self.index = index
        self.wal = wal

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def update_edge(self, u: int, v: int, mu: float, variance: float) -> MaintenanceReport:
        """Change one edge's distribution and repair the index."""
        return self.update_batch([(u, v, mu, variance)])

    def update_batch(
        self, changes: list[tuple[int, int, float, float]]
    ) -> MaintenanceReport:
        """Apply several changes in one bottom-up + top-down pass (Section V).

        Every plane of the index (the ``P^{>0.5}`` labels and, when built,
        the symmetric ``P^{<0.5}`` plane) is repaired.
        """
        start = time.perf_counter()
        index = self.index
        report = MaintenanceReport()
        tracer = get_tracer()
        with tracer.span("maintenance.update_batch", changes=len(changes)) as span:
            if self.wal is not None:
                report.wal_lsn = self.wal.append_batch(
                    [(u, v, mu, variance) for u, v, mu, variance in changes]
                )
                failpoint("maintenance.batch.logged", self.wal.path)
            seeds: list[EdgeKey] = []
            for u, v, mu, variance in changes:
                index.graph.set_edge_weight(u, v, mu, variance)
                seeds.append((u, v) if u <= v else (v, u))
            for plane in index.planes():
                with tracer.span(
                    "maintenance.propagate_edge_sets", direction=plane.direction
                ):
                    roots = self._propagate_edge_sets(plane, list(seeds), report)
                if roots:
                    with tracer.span(
                        "maintenance.rebuild_labels",
                        direction=plane.direction,
                        roots=len(roots),
                    ):
                        self._rebuild_labels(plane, roots, report)
                self._maybe_compact(plane)
                failpoint("maintenance.plane.updated")
            index.engine.invalidate_plans()
            failpoint("maintenance.batch.applied")
            span.set(
                edge_sets_recomputed=report.edge_sets_recomputed,
                edge_sets_changed=report.edge_sets_changed,
                labels_rebuilt=report.labels_rebuilt,
            )
        report.seconds = time.perf_counter() - start
        registry = get_registry()
        if registry.enabled:
            registry.counter("maintenance.updates").inc()
            registry.counter("maintenance.edge_sets_recomputed").inc(
                report.edge_sets_recomputed
            )
            registry.counter("maintenance.edge_sets_changed").inc(
                report.edge_sets_changed
            )
            registry.counter("maintenance.labels_rebuilt").inc(report.labels_rebuilt)
            registry.timer("maintenance.update").observe(report.seconds)
        return report

    def _maybe_compact(self, plane: IndexPlane) -> None:
        if plane.label_store.garbage_fraction() > _COMPACT_GARBAGE_FRACTION:
            plane.label_store.compact()
        if plane.edge_store.columns.garbage_fraction() > _COMPACT_GARBAGE_FRACTION:
            plane.edge_store.compact()

    # ------------------------------------------------------------------
    # Algorithm 4: bottom-up edge-set updates
    # ------------------------------------------------------------------
    def _recompute_edge_set(self, plane: IndexPlane, key: EdgeKey) -> list[PathSummary]:
        index = self.index
        graph = index.graph
        cov = index.cov if index.correlated else None
        window = index.window
        candidates: list[PathSummary] = []
        u, w = key
        if graph.has_edge(u, w):
            weight = graph.edge(u, w)
            candidates.append(edge_path(u, w, weight.mu, weight.variance, window > 0))
        sets = plane.edge_store.sets
        for center in plane.edge_store.centers.get(key, ()):
            set_cu = sets[(center, u) if center <= u else (u, center)]
            set_cw = sets[(center, w) if center <= w else (w, center)]
            for p1 in set_cu:
                for p2 in set_cw:
                    candidates.append(concatenate(p1, p2, center, cov, window))
        return plane.refiner.refine(candidates)

    def _propagate_edge_sets(
        self, plane: IndexPlane, seeds: list[EdgeKey], report: MaintenanceReport
    ) -> set[int]:
        """Recompute affected ``P_e`` in contraction order of their lower
        endpoint; return the lower endpoints of the sets that actually
        changed.  For a single update these form a chain up the tree (the
        paper's ``r`` is their last-contracted element); a batch update can
        touch several disjoint chains, so the label rebuild covers the
        union of their subtrees."""
        index = self.index
        td = index.td
        position = td.position

        def lower(key: EdgeKey) -> int:
            return key[0] if position[key[0]] < position[key[1]] else key[1]

        heap: list[tuple[int, int, EdgeKey]] = []
        queued: set[EdgeKey] = set()
        for key in seeds:
            low = lower(key)
            heapq.heappush(heap, (position[low], position[key[0] + key[1] - low], key))
            queued.add(key)
        changed_lowers: set[int] = set()
        while heap:
            _, _, key = heapq.heappop(heap)
            queued.discard(key)
            old = _signature(plane.edge_store.sets.get(key, ()))
            new_set = self._recompute_edge_set(plane, key)
            report.edge_sets_recomputed += 1
            if _signature(new_set) == old:
                continue
            plane.edge_store.set_paths(key, new_set)
            report.edge_sets_changed += 1
            low = lower(key)
            changed_lowers.add(low)
            other = key[0] + key[1] - low
            # Contracting `low` fed P_key into P_(x, other) for every other
            # bag neighbour x of `low` (Lines 5-7 of Algorithm 4).
            for x in td.bags[low][1:]:
                if x == other:
                    continue
                nxt = (x, other) if x <= other else (other, x)
                if nxt in queued:
                    continue
                nxt_low = lower(nxt)
                heapq.heappush(
                    heap, (position[nxt_low], position[nxt[0] + nxt[1] - nxt_low], nxt)
                )
                queued.add(nxt)
        return changed_lowers

    # ------------------------------------------------------------------
    # Algorithm 5: top-down label rebuild in the affected subtree
    # ------------------------------------------------------------------
    def _rebuild_labels(
        self, plane: IndexPlane, roots: set[int], report: MaintenanceReport
    ) -> None:
        """Rebuild labels in the union of subtrees rooted at ``roots``.

        A single top-down pass over the tree: a node is rebuilt when it is a
        root itself or its parent was rebuilt (subtree closure), so parents
        are always fresh before their children — the invariant Lines 7-10
        of Algorithm 3 rely on.
        """
        index = self.index
        td = index.td
        cov = index.cov if index.correlated else None
        rebuilding: set[int] = set()
        for v in td.top_down():
            parent = td.parent[v]
            if v not in roots and parent not in rebuilding:
                continue
            rebuilding.add(v)
            bag_neighbors = td.bags[v][1:]
            for u in td.ancestors(v):
                plane.set_label_entry(
                    v,
                    u,
                    build_label_paths(
                        v,
                        u,
                        bag_neighbors,
                        plane.edge_store,
                        plane.labels,
                        td,
                        plane.refiner,
                        cov,
                        index.window,
                    ),
                )
            report.labels_rebuilt += 1


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
def replay_wal(index: NRPIndex, wal: WriteAheadLog) -> list[int]:
    """Re-apply every appended-but-uncommitted batch to ``index``.

    Returns the replayed LSNs in order.  The caller must then durably
    re-save the index, ``wal.commit`` each returned LSN, and
    ``wal.truncate()`` — the same protocol as a live update.  Replay is
    idempotent (absolute weights, deterministic repair), so recovering
    after a crash that happened *after* the index was saved but before
    the commit record landed converges to the same bits.
    """
    pending = wal.pending()
    if not pending:
        return []
    # Replaying must not re-journal: apply through a WAL-less maintainer.
    maintainer = IndexMaintainer(index)
    replayed: list[int] = []
    with get_tracer().span("maintenance.replay_wal", batches=len(pending)):
        for lsn, changes in pending:
            maintainer.update_batch(list(changes))
            replayed.append(lsn)
    registry = get_registry()
    if registry.enabled:
        registry.counter("resilience.wal.replayed").inc(len(replayed))
    return replayed
