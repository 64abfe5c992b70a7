"""Index construction — Algorithm 3.

Two phases over the tree decomposition:

1. **Bottom-up (contraction order)**: build the *edge-driven* path sets
   ``P_e``.  Contracting ``v`` adds, for every pair ``(u, w)`` of its
   remaining neighbours, the concatenations ``P_(u,v) (+) P_(v,w)`` into
   ``P_(u,w)`` and refines.  The contraction *centers* of every pair are
   recorded — they are the ``C(e)`` sets that drive maintenance
   (Algorithm 4).
2. **Top-down (root first)**: build each label entry
   ``P^{>0.5}_{uv} = RF( U_w  P_(v,w) (+) P^{>0.5}_{uw} )`` over the bag
   neighbours ``w`` (all ancestors of ``v``), reusing ancestor labels
   already built.

Both phases write through the storage layer: edge sets mirror their
moments/windows into a :class:`repro.core.labelstore.ColumnarPathStore`
for exact size accounting, and labels land in a
:class:`repro.core.labelstore.LabelStore` whose
:class:`repro.core.pruning.LabelPathSet` views keep the algorithmic API.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.labelstore import ColumnarPathStore, LabelStore
from repro.core.pathsummary import PathSummary, concatenate, edge_path
from repro.core.pruning import LabelPathSet
from repro.core.refine import Refiner
from repro.obs import get_registry, get_tracer
from repro.resilience.failpoints import failpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.covariance import CovarianceStore
    from repro.network.graph import StochasticGraph
    from repro.treedec.decomposition import TreeDecomposition

__all__ = ["EdgeSetStore", "build_edge_sets", "build_labels", "build_label_paths"]

EdgeKey = tuple[int, int]

#: Exact cost of one C(e) center entry: one ``array('l')`` slot.
_CENTER_ITEMSIZE = array("l").itemsize


class EdgeSetStore:
    """The edge-driven path sets ``P_e`` plus their center sets ``C(e)``.

    ``sets`` maps each edge key to its refined path tuple; all writes must
    go through :meth:`set_paths`, which mirrors the numeric payload into a
    columnar store so byte accounting stays exact.  Centers are kept in
    ``array('l')`` so their storage cost (Table III's last column) is
    exact as well.
    """

    def __init__(self) -> None:
        self.sets: dict[EdgeKey, tuple[PathSummary, ...]] = {}
        self.centers: dict[EdgeKey, array] = {}
        self.columns = ColumnarPathStore()

    def set_paths(self, key: EdgeKey, paths: Iterable[PathSummary]) -> None:
        """Install ``P_key`` (the only supported way to mutate ``sets``)."""
        paths = tuple(paths)
        self.sets[key] = paths
        self.columns.set_entry(key, paths)

    def add_center(self, key: EdgeKey, center: int) -> None:
        self.centers.setdefault(key, array("l")).append(center)

    def num_paths(self) -> int:
        return self.columns.num_paths()

    def window_edges(self) -> int:
        return self.columns.window_edges()

    def centers_storage_entries(self) -> int:
        """Entries in the C(e) maps — Table III's "extra storage"."""
        return sum(len(centers) for centers in self.centers.values())

    def exact_bytes(self) -> int:
        """Exact live bytes of the columnar mirror (paths + windows)."""
        return self.columns.live_bytes()

    def centers_bytes(self) -> int:
        return self.centers_storage_entries() * _CENTER_ITEMSIZE

    def compact(self) -> None:
        self.columns.compact()


def _edge_key(u: int, w: int) -> EdgeKey:
    return (u, w) if u <= w else (w, u)


def build_edge_sets(
    graph: "StochasticGraph",
    td: "TreeDecomposition",
    refiner: Refiner,
    cov: "CovarianceStore | None" = None,
    window: int = 0,
) -> EdgeSetStore:
    """Phase 1 of Algorithm 3 (Lines 1-5)."""
    started = perf_counter()
    store = EdgeSetStore()
    with get_tracer().span(
        "construction.edge_sets", direction=refiner.direction
    ) as span:
        with_windows = window > 0
        for u, v, weight in graph.edges():
            store.set_paths(
                _edge_key(u, v),
                [edge_path(u, v, weight.mu, weight.variance, with_windows)],
            )
        for v in td.order:
            neighbors = td.bags[v][1:]
            for i, u in enumerate(neighbors):
                set_uv = store.sets[_edge_key(u, v)]
                for w in neighbors[i + 1 :]:
                    set_vw = store.sets[_edge_key(v, w)]
                    key = _edge_key(u, w)
                    candidates = list(store.sets.get(key, ()))
                    for p1 in set_uv:
                        for p2 in set_vw:
                            candidates.append(concatenate(p1, p2, v, cov, window))
                    store.set_paths(key, refiner.refine(candidates))
                    store.add_center(key, v)
        span.set(edge_sets=len(store.sets), paths=store.num_paths())
    failpoint("construction.edge_sets.built")
    registry = get_registry()
    if registry.enabled:
        registry.counter("construction.edge_set_paths").inc(store.num_paths())
        registry.timer("construction.edge_sets").observe(perf_counter() - started)
    return store


def build_label_paths(
    v: int,
    u: int,
    bag_neighbors: tuple[int, ...],
    store: EdgeSetStore,
    labels: Mapping[int, Mapping[int, LabelPathSet]],
    td: "TreeDecomposition",
    refiner: Refiner,
    cov: "CovarianceStore | None",
    window: int,
) -> list[PathSummary]:
    """The refined paths of one label entry ``P^{>0.5}_{uv}`` (Lines 8-10).

    ``u`` must be a proper ancestor of ``v`` whose own label entries (and
    those of all bag neighbours above ``v``) are already built.  The caller
    installs the result into the plane's :class:`LabelStore`.
    """
    candidates: list[PathSummary] = []
    depth = td.depth
    for w in bag_neighbors:
        set_vw = store.sets[_edge_key(v, w)]
        if w == u:
            candidates.extend(set_vw)
            continue
        # u and w are both on v's root path, hence comparable; the label of
        # the deeper one holds P_{uw}.
        deeper, shallower = (u, w) if depth[u] > depth[w] else (w, u)
        set_uw = labels[deeper][shallower].paths
        for p1 in set_vw:
            for p2 in set_uw:
                candidates.append(concatenate(p1, p2, w, cov, window))
    return refiner.refine(candidates)


def build_labels(
    graph: "StochasticGraph",
    td: "TreeDecomposition",
    store: EdgeSetStore,
    refiner: Refiner,
    cov: "CovarianceStore | None" = None,
    window: int = 0,
    label_store: LabelStore | None = None,
) -> dict[int, dict[int, LabelPathSet]]:
    """Phase 2 of Algorithm 3 (Lines 6-10): all labels, root first."""
    if label_store is None:
        # Intersection-dominance statistics (Definitions 10-11) are only
        # meaningful for the independent high plane, where sigmas strictly
        # decrease along each refined set.
        label_store = LabelStore(
            independent=not refiner.correlated and refiner.direction == "high"
        )
    started = perf_counter()
    labels: dict[int, dict[int, LabelPathSet]] = {}
    with get_tracer().span(
        "construction.labels", direction=refiner.direction
    ) as span:
        for v in td.top_down():
            bag_neighbors = td.bags[v][1:]
            entry: dict[int, LabelPathSet] = {}
            for u in td.ancestors(v):
                paths = build_label_paths(
                    v, u, bag_neighbors, store, labels, td, refiner, cov, window
                )
                entry[u] = label_store.add_entry((v, u), paths)
            labels[v] = entry
        span.set(entries=len(label_store), paths=label_store.num_paths())
    failpoint("construction.labels.built")
    registry = get_registry()
    if registry.enabled:
        registry.counter("construction.label_entries").inc(len(label_store))
        registry.counter("construction.label_paths").inc(label_store.num_paths())
        registry.timer("construction.labels").observe(perf_counter() - started)
    return labels
