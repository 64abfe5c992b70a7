"""The public NRP index facade.

``NRPIndex`` is a thin service layer wiring the three core layers
together: the *storage* layer (per-plane columnar
:class:`repro.core.labelstore.LabelStore` plus the edge-driven
:class:`repro.core.construction.EdgeSetStore`), the *engine* layer
(:class:`repro.core.engine.QueryEngine`, which plans and executes
Algorithm 1), and the tree decomposition.  Build one with
:func:`build_index` (or the constructor), then call
:meth:`NRPIndex.query`.  Index maintenance lives in
:class:`repro.core.maintenance.IndexMaintainer` and mutates labels only
through the store API.

The index always stores the ``P^{>0.5}`` plane (the paper's focus — users
"usually set the confidence level alpha to be greater than 0.5").  Passing
``support_low_alpha=True`` additionally builds the symmetric ``P^{<0.5}``
plane that the paper omits, enabling risk-seeking queries with
``alpha < 0.5``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.construction import EdgeSetStore, build_edge_sets, build_labels
from repro.core.engine import QueryEngine
from repro.core.labelstore import LabelStore
from repro.core.pruning import LabelPathSet
from repro.core.query import QueryResult, QueryStats
from repro.core.refine import PRACTICAL_Z_MAX, NeighborhoodCache, Refiner
from repro.network.covariance import CovarianceStore
from repro.obs import get_registry, get_tracer
from repro.resilience.errors import QueryValidationError
from repro.network.graph import StochasticGraph
from repro.treedec.decomposition import TreeDecomposition, build_tree_decomposition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.explain import QueryExplanation
    from repro.core.pathsummary import PathSummary

__all__ = ["NRPIndex", "IndexPlane", "IndexSizeInfo", "build_index"]

# The pre-columnar per-object size guesses, kept only so benchmarks can
# report the old heuristic next to the exact figures (Table II / Fig. 11).
_BYTES_PER_PATH = 88
_BYTES_PER_WINDOW_EDGE = 16
_BYTES_PER_CENTER_ENTRY = 12


@dataclass(frozen=True)
class IndexSizeInfo:
    """Size accounting for Table II, Table III, and Figure 11.

    Byte figures are *exact*: they are the live sizes of the columnar
    storage arrays (label store and edge-set mirror), not per-object
    estimates.  ``heuristic_bytes`` preserves the old ``_BYTES_PER_*``
    guess for comparison.
    """

    label_entries: int
    label_paths: int
    edge_sets: int
    edge_set_paths: int
    window_edges: int
    center_entries: int
    label_bytes: int = 0
    edge_set_bytes: int = 0
    center_bytes: int = 0

    @property
    def exact_bytes(self) -> int:
        """Exact index size: live label columns + edge-set columns."""
        return self.label_bytes + self.edge_set_bytes

    @property
    def estimated_bytes(self) -> int:
        """Backwards-compatible alias — now backed by the exact figure."""
        return self.exact_bytes

    @property
    def heuristic_bytes(self) -> int:
        """The old per-object estimate, kept for before/after comparisons."""
        return (
            (self.label_paths + self.edge_set_paths) * _BYTES_PER_PATH
            + self.window_edges * _BYTES_PER_WINDOW_EDGE
        )

    @property
    def extra_storage_bytes(self) -> int:
        """The maintenance-only C(e) storage (Table III's last column)."""
        return self.center_bytes

    @property
    def heuristic_extra_storage_bytes(self) -> int:
        return self.center_entries * _BYTES_PER_CENTER_ENTRY


class IndexPlane:
    """One direction's label structure: ``P^{>0.5}`` or ``P^{<0.5}``.

    Owns the plane's storage: the edge-driven sets and the columnar
    :class:`LabelStore` whose :class:`LabelPathSet` views populate
    ``labels``.  All label mutation goes through :meth:`set_label_entry`.
    """

    def __init__(
        self,
        direction: str,
        graph: StochasticGraph,
        td: TreeDecomposition,
        cov: CovarianceStore | None,
        window: int,
        z_max: float | None,
        neighborhoods: NeighborhoodCache | None,
        flags: dict[int, bool] | None,
    ) -> None:
        self.direction = direction
        self.refiner = Refiner(z_max, cov, neighborhoods, flags, direction=direction)
        self.edge_store: EdgeSetStore = build_edge_sets(
            graph, td, self.refiner, cov, window
        )
        self.label_store = LabelStore(independent=self.independent_stats)
        self.labels: dict[int, dict[int, LabelPathSet]] = build_labels(
            graph, td, self.edge_store, self.refiner, cov, window, self.label_store
        )

    @property
    def independent_stats(self) -> bool:
        """Whether Definition-10/11 pruning statistics apply to this plane."""
        return not self.refiner.correlated and self.direction == "high"

    def set_label_entry(
        self, v: int, u: int, paths: "Sequence[PathSummary]"
    ) -> LabelPathSet:
        """Install ``P_{uv}`` through the store and refresh the view."""
        view = self.label_store.add_entry((v, u), paths)
        self.labels.setdefault(v, {})[u] = view
        return view

    @classmethod
    def empty(cls, direction: str, refiner: Refiner) -> "IndexPlane":
        """An uninitialised plane shell (deserialisation fills it in)."""
        plane = cls.__new__(cls)
        plane.direction = direction
        plane.refiner = refiner
        plane.edge_store = EdgeSetStore()
        plane.label_store = LabelStore(independent=plane.independent_stats)
        plane.labels = {}
        return plane


class NRPIndex:
    """The Non-dominated Reliable Path index (Sections III-IV).

    Parameters
    ----------
    graph:
        The stochastic road network.  The index keeps a reference (not a
        copy); maintenance updates mutate it.
    cov:
        Covariance store; ``None`` or an empty store selects the independent
        machinery throughout.
    window:
        The correlation locality ``K`` — how many edges of head/tail context
        each stored path keeps.  Ignored in the independent case.
    z_max:
        Practical refine bound (Section IV: 3.1 covers alpha <= 0.999);
        ``None`` falls back to strict M-V refinement.
    order:
        Optional explicit contraction order (the paper's examples fix one);
        default is the minimum-degree heuristic.
    support_low_alpha:
        Also build the symmetric ``P^{<0.5}`` plane so queries with
        ``alpha < 0.5`` are answerable (roughly doubles build time/space).
    """

    def __init__(
        self,
        graph: StochasticGraph,
        cov: CovarianceStore | None = None,
        *,
        window: int = 4,
        z_max: float | None = PRACTICAL_Z_MAX,
        order: Sequence[int] | None = None,
        support_low_alpha: bool = False,
    ) -> None:
        start = time.perf_counter()
        tracer = get_tracer()
        with tracer.span(
            "construction.build",
            vertices=graph.num_vertices,
            edges=graph.num_edges,
        ):
            self.graph = graph
            self.cov = cov if cov is not None else CovarianceStore()
            self.correlated = not self.cov.is_empty()
            self.window = window if self.correlated else 0
            self.z_max = z_max
            td_start = time.perf_counter()
            with tracer.span("construction.tree_decomposition") as td_span:
                self.td: TreeDecomposition = build_tree_decomposition(graph, order)
                td_span.set(
                    treewidth=self.td.max_bag_size, treeheight=self.td.treeheight
                )
            registry = get_registry()
            if registry.enabled:
                registry.timer("construction.tree_decomposition").observe(
                    time.perf_counter() - td_start
                )
            if self.correlated:
                neighborhoods = NeighborhoodCache(graph, self.cov, self.window)
                flags = self.cov.compute_vertex_flags(graph, self.window)
                plane_cov: CovarianceStore | None = self.cov
            else:
                neighborhoods = None
                flags = None
                plane_cov = None
            with tracer.span("construction.plane", direction="high"):
                self.high = IndexPlane(
                    "high",
                    graph,
                    self.td,
                    plane_cov,
                    self.window,
                    z_max,
                    neighborhoods,
                    flags,
                )
            self.low: IndexPlane | None = None
            if support_low_alpha:
                with tracer.span("construction.plane", direction="low"):
                    self.low = IndexPlane(
                        "low",
                        graph,
                        self.td,
                        plane_cov,
                        self.window,
                        z_max,
                        neighborhoods,
                        flags,
                    )
            self.engine = QueryEngine(self)
        self.construction_seconds = time.perf_counter() - start
        if registry.enabled:
            registry.timer("construction.build").observe(self.construction_seconds)

    # ------------------------------------------------------------------
    # Back-compatible accessors for the default (high) plane
    # ------------------------------------------------------------------
    @property
    def refiner(self) -> Refiner:
        return self.high.refiner

    @property
    def edge_store(self) -> EdgeSetStore:
        return self.high.edge_store

    @property
    def labels(self) -> dict[int, dict[int, LabelPathSet]]:
        return self.high.labels

    def plane_for(self, alpha: float) -> IndexPlane:
        """The plane answering queries at this confidence level."""
        if alpha >= 0.5:
            return self.high
        if self.low is None:
            raise QueryValidationError(
                "alpha < 0.5 requires an index built with support_low_alpha=True "
                "(the paper's omitted-by-symmetry P^{<0.5} case)"
            )
        return self.low

    def planes(self) -> list[IndexPlane]:
        return [self.high] if self.low is None else [self.high, self.low]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        s: int,
        t: int,
        alpha: float,
        *,
        use_pruning: bool = True,
        stats: QueryStats | None = None,
        deadline_s: "float | None" = None,
    ) -> QueryResult:
        """Answer one RSP query (Algorithm 1).

        ``use_pruning=False`` disables Algorithm 2 / Proposition 5 — the
        "NRP-w/o pruning" ablation of Figure 9.  Pass a :class:`QueryStats`
        to accumulate hoplink/concatenation counters across a workload.
        ``deadline_s`` arms the graceful-degradation guard: over-budget
        queries come back as the exact mean-only fallback with
        ``degraded=True`` instead of failing (docs/resilience.md).
        """
        return self.engine.answer(s, t, alpha, use_pruning, stats, deadline_s=deadline_s)

    def explain(
        self, s: int, t: int, alpha: float, *, use_pruning: bool = True
    ) -> "QueryExplanation":
        """Run the query and return its plan (see :mod:`repro.core.explain`)."""
        from repro.core.explain import explain_query

        return explain_query(self, s, t, alpha, use_pruning)

    def query_batch(
        self,
        queries: Sequence[tuple[int, int, float]],
        *,
        use_pruning: bool = True,
        stats: QueryStats | None = None,
        per_query_stats: bool = False,
        deadline_s: "float | None" = None,
    ) -> list[QueryResult]:
        """Answer a workload of ``(s, t, alpha)`` triples on the batch path.

        The engine memoises separators and whole plans, so repeated
        ``(s, t, alpha)`` triples plan once.  ``per_query_stats=True``
        attaches a private :class:`QueryStats` to each result (still
        merging totals into ``stats`` when given) instead of sharing one
        accumulator across the workload.  ``deadline_s`` is a per-query
        budget: each query degrades individually on expiry, exactly as in
        :meth:`query`.
        """
        return self.engine.answer_batch(
            queries,
            use_pruning=use_pruning,
            stats=stats,
            per_query_stats=per_query_stats,
            deadline_s=deadline_s,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def treewidth(self) -> int:
        """The paper's omega (maximum bag size)."""
        return self.td.max_bag_size

    @property
    def treeheight(self) -> int:
        """The paper's eta."""
        return self.td.treeheight

    def size_info(self) -> IndexSizeInfo:
        label_entries = 0
        label_paths = 0
        window_edges = 0
        edge_sets = 0
        edge_set_paths = 0
        center_entries = 0
        label_bytes = 0
        edge_set_bytes = 0
        center_bytes = 0
        for plane in self.planes():
            label_entries += len(plane.label_store)
            label_paths += plane.label_store.num_paths()
            window_edges += plane.label_store.window_edges()
            label_bytes += plane.label_store.live_bytes()
            edge_sets += len(plane.edge_store.sets)
            edge_set_paths += plane.edge_store.num_paths()
            center_entries += plane.edge_store.centers_storage_entries()
            edge_set_bytes += plane.edge_store.exact_bytes()
            center_bytes += plane.edge_store.centers_bytes()
        return IndexSizeInfo(
            label_entries=label_entries,
            label_paths=label_paths,
            edge_sets=edge_sets,
            edge_set_paths=edge_set_paths,
            window_edges=window_edges,
            center_entries=center_entries,
            label_bytes=label_bytes,
            edge_set_bytes=edge_set_bytes,
            center_bytes=center_bytes,
        )

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on damage.

        Intended for tests and debugging after maintenance operations:
        label sets non-empty, means sorted, (high plane, independent case)
        sigmas strictly decreasing, and store columns consistent with the
        label views.
        """
        for plane in self.planes():
            for v, entry in plane.labels.items():
                for u, label_set in entry.items():
                    assert len(label_set) > 0, f"empty label P[{u}][{v}]"
                    mus = list(label_set.mus)
                    assert mus == sorted(mus), f"unsorted label P[{u}][{v}]"
                    assert mus == [p.mu for p in label_set.paths], (
                        f"store columns out of sync with paths P[{u}][{v}]"
                    )
                    if not self.correlated:
                        sigmas = list(label_set.sigmas)
                        ordered = sorted(sigmas, reverse=plane.direction == "high")
                        assert sigmas == ordered, f"sigma order broken P[{u}][{v}]"


def build_index(
    graph: StochasticGraph,
    cov: CovarianceStore | None = None,
    *,
    window: int = 4,
    z_max: float | None = PRACTICAL_Z_MAX,
    order: Sequence[int] | None = None,
    support_low_alpha: bool = False,
) -> NRPIndex:
    """Build an :class:`NRPIndex`; see the class docstring for parameters."""
    return NRPIndex(
        graph,
        cov,
        window=window,
        z_max=z_max,
        order=order,
        support_low_alpha=support_low_alpha,
    )
