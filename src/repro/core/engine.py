"""The query engine — Algorithm 1 split into planning and execution.

:meth:`QueryEngine.answer` is the one answer path: validate and plan,
check the deadline, execute, fall back to the mean-only answer on expiry,
and hand one per-query record to every enabled observability sink.
Planning and execution are separate so they can be cached and optimised
independently:

- **Planning** (:meth:`QueryEngine.plan`): plane choice, the
  ancestor-descendant shortcut via the LCA, Lemma-1 separator selection,
  and the Algorithm-2 / Proposition-5 prune-index computation.  Plans are
  pure functions of ``(s, t, alpha, pruning)`` and the current label
  structure, so the batch path memoises them (and every path memoises the
  underlying separator lookups) — a batch with repeated ``(s, t, alpha)``
  triples plans once.
- **Execution** (:meth:`QueryEngine.execute`): the concatenation scan over
  the surviving label slices, reading moments from the columnar views.

Index maintenance must call :meth:`invalidate_plans` after mutating labels
(the separator cache survives: it depends only on the immutable tree
decomposition).  Statistics are accumulated at execution time, so a cached
plan contributes exactly the same counters as a freshly built one.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.kernels import reference
from repro.core.pathsummary import PathSummary, concatenate, edge_path, trivial_path
from repro.core.pruning import LabelPathSet, prune_correlated, prune_pair
from repro.obs import get_flight_recorder, get_registry, get_slow_query_log, get_tracer
from repro.obs.flight import result_digest
from repro.resilience.degraded import mean_shortest_path
from repro.resilience.errors import DeadlineExpired, QueryValidationError
from repro.stats.zscores import z_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import IndexPlane, NRPIndex
    from repro.core.query import QueryResult, QueryStats

__all__ = ["QueryEngine", "QueryPlan", "HoplinkTask", "BoundedCache"]

#: Bound on each memoisation cache.  Reaching it evicts the least
#: recently used entry — one at a time, never wholesale — so a long-lived
#: server keeps its hot plans instead of hitting a periodic latency cliff
#: where every memoised plan is lost at once.
_CACHE_LIMIT = 65536


class BoundedCache:
    """A thread-safe bounded LRU map for the engine's memoisation.

    Replaces the old "clear the whole dict at ``_CACHE_LIMIT``" policy:
    under a sustained workload that wiped every memoised plan at once and
    caused a periodic latency cliff.  Here a full cache evicts exactly
    one entry (the least recently touched), so hot keys survive
    indefinitely.  All operations take one internal lock, making the
    cache safe for the serving plane's concurrent workers; the lock is
    uncontended in single-threaded use and costs well under a
    microsecond per hit.
    """

    __slots__ = ("_data", "_limit", "_lock")

    def __init__(self, limit: int = _CACHE_LIMIT) -> None:
        if limit <= 0:
            raise ValueError("cache limit must be positive")
        self._data: "OrderedDict[Any, Any]" = OrderedDict()  # nrplint: guarded-by=_lock
        self._limit = limit
        self._lock = threading.Lock()

    @property
    def limit(self) -> int:
        return self._limit

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def get(self, key: Any) -> Any:
        """The cached value (refreshing its recency), or None on a miss."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        """Insert, evicting the least recently used entry when full."""
        with self._lock:
            data = self._data
            if key not in data and len(data) >= self._limit:
                data.popitem(last=False)
            data[key] = value
            data.move_to_end(key)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class HoplinkTask:
    """One hoplink's share of a separator-case plan."""

    __slots__ = ("hoplink", "set_sh", "set_ht", "idx_sh", "idx_ht")

    def __init__(
        self,
        hoplink: int,
        set_sh: LabelPathSet,
        set_ht: LabelPathSet,
        idx_sh: Sequence[int],
        idx_ht: Sequence[int],
    ) -> None:
        self.hoplink = hoplink
        self.set_sh = set_sh
        self.set_ht = set_ht
        self.idx_sh = idx_sh
        self.idx_ht = idx_ht


class QueryPlan:
    """The decisions of Algorithm 1 for one ``(s, t, alpha)`` query."""

    __slots__ = (
        "s",
        "t",
        "alpha",
        "z",
        "case",
        "plane",
        "pruning",
        "deeper",
        "other",
        "lca",
        "separator_s",
        "separator_t",
        "hoplinks",
        "tasks",
        "pruned_prop2",
        "pruned_prop3",
        "pruned_prop5",
    )

    def __init__(self, s: int, t: int, alpha: float, z: float, case: str) -> None:
        self.s = s
        self.t = t
        self.alpha = alpha
        self.z = z
        self.case = case  # "trivial" | "ancestor" | "separator"
        self.plane: "IndexPlane | None" = None
        self.pruning = False
        self.deeper = -1
        self.other = -1
        self.lca: int | None = None
        self.separator_s: frozenset[int] = frozenset()
        self.separator_t: frozenset[int] = frozenset()
        self.hoplinks: tuple[int, ...] = ()
        self.tasks: list[HoplinkTask] = []
        # Per-proposition prune attribution (how many stored paths each
        # dominance rule removed while building this plan); a memoised
        # plan keeps its counts, so per-query attribution survives the
        # batch path's plan cache.
        self.pruned_prop2 = 0
        self.pruned_prop3 = 0
        self.pruned_prop5 = 0


class QueryEngine:
    """Plans and executes RSP queries against one :class:`NRPIndex`."""

    def __init__(self, index: "NRPIndex") -> None:
        self.index = index
        self._z_cache: BoundedCache = BoundedCache()
        self._separator_cache: BoundedCache = BoundedCache()
        self._plan_cache: BoundedCache = BoundedCache()
        # Observability handles (process-wide singletons).  Metric handles
        # are resolved once here; the hot path only pays ``enabled`` checks
        # while observation is off (see docs/observability.md).
        reg = get_registry()
        self._registry = reg
        self._tracer = get_tracer()
        self._slow_log = get_slow_query_log()
        self._flight = get_flight_recorder()
        self._c_queries = reg.counter("engine.queries")
        self._c_hoplinks = reg.counter("engine.hoplinks")
        self._c_concatenations = reg.counter("engine.concatenations")
        self._c_label_lookups = reg.counter("engine.label_lookups")
        self._c_candidate_paths = reg.counter("engine.candidate_paths")
        self._c_surviving_paths = reg.counter("engine.surviving_paths")
        self._c_prop2 = reg.counter("engine.prune.prop2")
        self._c_prop3 = reg.counter("engine.prune.prop3")
        self._c_prop5 = reg.counter("engine.prune.prop5")
        self._c_plan_hit = reg.counter("engine.plan_cache.hit")
        self._c_plan_miss = reg.counter("engine.plan_cache.miss")
        self._c_sep_hit = reg.counter("engine.separator_cache.hit")
        self._c_sep_miss = reg.counter("engine.separator_cache.miss")
        self._c_slow = reg.counter("engine.slow_queries")
        self._c_degraded = reg.counter("resilience.query.degraded")
        self._t_answer = reg.timer("engine.answer")
        self._t_plan = reg.timer("engine.plan")
        self._t_execute = reg.timer("engine.execute")
        self._h_query = reg.histogram("engine.query_seconds")

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def invalidate_plans(self) -> None:
        """Drop memoised plans (call after any label mutation)."""
        self._plan_cache.clear()

    def z_of(self, alpha: float) -> float:
        z = self._z_cache.get(alpha)
        if z is None:
            z = z_value(alpha)
            self._z_cache.put(alpha, z)
        return z

    def separators(self, s: int, t: int) -> tuple[set[int], set[int]]:
        """Memoised ``td.separators``; safe across maintenance (td is fixed)."""
        key = (s, t)
        cached = self._separator_cache.get(key)
        if cached is None:
            if self._registry.enabled:
                self._c_sep_miss.inc()
            cached = self.index.td.separators(s, t)
            self._separator_cache.put(key, cached)
        elif self._registry.enabled:
            self._c_sep_hit.inc()
        return cached

    def hoplinks(self, s: int, t: int) -> set[int]:
        """The smaller of the two Lemma-1 candidate separators."""
        separator_s, separator_t = self.separators(s, t)
        return separator_s if len(separator_s) <= len(separator_t) else separator_t

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def validate(self, s: int, t: int, alpha: float) -> None:
        """Raise :class:`QueryValidationError` unless the index can answer
        ``(s, t, alpha)``: both vertices indexed, ``alpha`` in (0, 1)
        within the refine bound ``z_max``, and a plane built for it.

        :meth:`plan` calls this first; the serving plane calls it before
        a micro-batch reaches :meth:`answer_batch`, so only an internal
        fault can fail the batch.
        """
        index = self.index
        for name, v in (("source", s), ("target", t)):
            if not index.graph.has_vertex(v):
                raise QueryValidationError(
                    f"{name} vertex {v} is not in the indexed graph"
                )
        if not 0.0 < alpha < 1.0:
            raise QueryValidationError(f"alpha must lie in (0, 1), got {alpha}")
        if index.z_max is not None:
            z = self.z_of(alpha)
            if abs(z) > index.z_max:
                raise QueryValidationError(
                    f"alpha={alpha} needs |Z|={abs(z):.3f} > the index's practical "
                    f"refine bound z_max={index.z_max} (labels would be "
                    f"incomplete); build with a larger z_max or z_max=None"
                )
        if s != t:
            index.plane_for(alpha)

    def plan(
        self,
        s: int,
        t: int,
        alpha: float,
        use_pruning: bool = True,
        *,
        sort_hoplinks: bool = False,
        use_cache: bool = False,
    ) -> QueryPlan:
        """Build the plan for one query.

        ``use_cache=True`` memoises the plan per ``(s, t, alpha, pruning)``
        — the batch path's repeated-triple optimisation (single queries
        plan fresh, like the pre-engine code).  ``sort_hoplinks`` yields
        deterministic hoplink order for explanations; those plans always
        bypass the cache.  Raises :class:`QueryValidationError` for an
        unknown vertex or an alpha the index cannot answer.
        """
        self.validate(s, t, alpha)
        z = self.z_of(alpha)
        if s == t:
            return QueryPlan(s, t, alpha, z, "trivial")
        index = self.index
        plane = index.plane_for(alpha)
        pruning = use_pruning and plane.direction != "low"
        use_cache = use_cache and not sort_hoplinks
        key = (s, t, alpha, pruning)
        if use_cache:
            cached = self._plan_cache.get(key)
            if cached is not None:
                if self._registry.enabled:
                    self._c_plan_hit.inc()
                return cached
            if self._registry.enabled:
                self._c_plan_miss.inc()
        plan = self._build_plan(s, t, alpha, z, plane, pruning, sort_hoplinks)
        if use_cache:
            self._plan_cache.put(key, plan)
        return plan

    def _build_plan(
        self,
        s: int,
        t: int,
        alpha: float,
        z: float,
        plane: "IndexPlane",
        pruning: bool,
        sort_hoplinks: bool,
    ) -> QueryPlan:
        td = self.index.td
        labels = plane.labels
        ancestor = td.lca(s, t)
        is_ancestor = ancestor == s or ancestor == t
        plan = QueryPlan(s, t, alpha, z, "ancestor" if is_ancestor else "separator")
        plan.plane = plane
        plan.pruning = pruning
        plan.lca = ancestor
        if is_ancestor:
            plan.deeper = t if ancestor == s else s
            plan.other = s if ancestor == s else t
            return plan

        separator_s, separator_t = self.separators(s, t)
        hoplinks = separator_s if len(separator_s) <= len(separator_t) else separator_t
        plan.separator_s = frozenset(separator_s)
        plan.separator_t = frozenset(separator_t)
        ordered = sorted(hoplinks) if sort_hoplinks else tuple(hoplinks)
        plan.hoplinks = tuple(ordered)
        correlated = self.index.correlated
        prune_counts = [0, 0]
        for h in plan.hoplinks:
            set_sh = labels[s][h]
            set_ht = labels[t][h]
            if pruning:
                if correlated:
                    idx_sh, idx_ht = prune_correlated(
                        set_sh, set_ht, alpha, prune_counts
                    )
                else:
                    idx_sh, idx_ht = prune_pair(set_sh, set_ht, alpha, prune_counts)
            else:
                idx_sh = range(len(set_sh))
                idx_ht = range(len(set_ht))
            plan.tasks.append(HoplinkTask(h, set_sh, set_ht, idx_sh, idx_ht))
        if correlated:
            plan.pruned_prop5 = prune_counts[0]
        else:
            plan.pruned_prop2, plan.pruned_prop3 = prune_counts
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def scan_hoplink(self, task: HoplinkTask, z: float) -> tuple[float, int, int]:
        """Best concatenation over one hoplink's surviving index pairs.

        Returns ``(value, i, j)`` (``math.inf, -1, -1`` when no pair
        exists).  The independent case runs the kernel layer's
        ``scan_pairs`` over the columnar views; the correlated case needs
        the path objects for their junction windows.
        """
        index = self.index
        best_value = math.inf
        best_i = best_j = -1
        set_sh, set_ht = task.set_sh, task.set_ht
        idx_sh, idx_ht = task.idx_sh, task.idx_ht
        if not index.correlated:
            mus_sh, _, vars_sh, _, _ = set_sh.columns()
            mus_ht, _, vars_ht, _, _ = set_ht.columns()
            return reference.scan_pairs(
                mus_sh, vars_sh, mus_ht, vars_ht, idx_sh, idx_ht, z
            )
        else:
            cov = index.cov
            h = task.hoplink
            paths_sh = set_sh.paths
            paths_ht = set_ht.paths
            for i in idx_sh:
                p1 = paths_sh[i]
                w1 = p1.window_at(h)
                for j in idx_ht:
                    p2 = paths_ht[j]
                    var = p1.var + p2.var + 2.0 * cov.cross_covariance(
                        w1, p2.window_at(h)
                    )
                    if var < 0.0:
                        var = 0.0
                    value = p1.mu + p2.mu + z * math.sqrt(var)
                    if value < best_value:
                        best_value = value
                        best_i, best_j = i, j
        return best_value, best_i, best_j

    def best_in_label(self, label_set: LabelPathSet, z: float) -> tuple[float, int]:
        """Best stored path of one label entry at ``Z_alpha = z``."""
        mus, sigmas, _, _, _ = label_set.columns()
        value, best_i = reference.best_label(mus, sigmas, z)
        if best_i < 0:
            raise ValueError("empty label entry")
        return value, best_i

    def execute(
        self,
        plan: QueryPlan,
        stats: "QueryStats",
        *,
        deadline_at: "float | None" = None,
    ) -> "QueryResult":
        """Run the concatenation scan of one plan, accumulating ``stats``.

        ``deadline_at`` (absolute ``perf_counter`` time) is checked between
        hoplink tasks; expiry raises :class:`DeadlineExpired`, which
        :meth:`answer` converts into the degraded mean-only fallback.
        """
        from repro.core.query import QueryResult

        s, t, alpha = plan.s, plan.t, plan.alpha
        if plan.case == "trivial":
            return QueryResult(s, t, alpha, 0.0, 0.0, 0.0, trivial_path(s), stats)

        if plan.case == "ancestor":
            label_set = plan.plane.labels[plan.deeper][plan.other]
            stats.label_lookups += 1
            stats.candidate_paths += len(label_set)
            # surviving == candidate is intentional here: the ancestor case
            # reads one label entry and Algorithm 2's pair pruning has no
            # opposite set to prune against (see QueryStats docstring).
            stats.surviving_paths += len(label_set)
            value, i = self.best_in_label(label_set, plan.z)
            best = label_set.paths[i]
            return QueryResult(s, t, alpha, value, best.mu, best.var, best, stats)

        stats.hoplinks += len(plan.hoplinks)
        best_value = math.inf
        best_task: HoplinkTask | None = None
        best_i = best_j = -1
        for task in plan.tasks:
            if deadline_at is not None and perf_counter() > deadline_at:
                raise DeadlineExpired(
                    f"query ({s}, {t}, alpha={alpha}) blew its deadline "
                    f"mid-scan"
                )
            stats.label_lookups += 2
            stats.candidate_paths += len(task.set_sh) + len(task.set_ht)
            stats.surviving_paths += len(task.idx_sh) + len(task.idx_ht)
            stats.concatenations += len(task.idx_sh) * len(task.idx_ht)
            value, i, j = self.scan_hoplink(task, plan.z)
            if value < best_value:
                best_value = value
                best_task, best_i, best_j = task, i, j
        if best_task is None or best_i < 0:
            raise ValueError(f"no path between {s} and {t}: graph not connected?")
        p1 = best_task.set_sh.paths[best_i]
        p2 = best_task.set_ht.paths[best_j]
        index = self.index
        cov = index.cov if index.correlated else None
        joined = concatenate(
            p1, p2, best_task.hoplink, cov, index.window if cov is not None else 0
        )
        return QueryResult(s, t, alpha, best_value, joined.mu, joined.var, joined, stats)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def answer(
        self,
        s: int,
        t: int,
        alpha: float,
        use_pruning: bool = True,
        stats: "QueryStats | None" = None,
        *,
        use_cache: bool = False,
        deadline_s: "float | None" = None,
    ) -> "QueryResult":
        """Algorithm 1: validate and plan (or, on the batch path, reuse a
        memoised plan), then execute.

        ``deadline_s`` (seconds) arms the graceful-degradation guard: if
        planning plus the hoplink scan exceed the budget the query is
        answered from the exact mean-only fallback instead of failing,
        flagged ``degraded=True`` (docs/resilience.md).

        With any observability sink on (metrics, tracing, the slow-query
        log or the flight recorder) the query's flight record is built once
        and handed to each of them (:meth:`_observe`); no sink changes a
        returned value (the golden suite runs bit-identical with tracing
        on).
        """
        from repro.core.query import QueryStats

        if stats is None:
            stats = QueryStats()
        observed = (
            self._registry.enabled
            or self._tracer.enabled
            or self._slow_log.enabled
            or self._flight.enabled
        )
        if observed:
            # Cache membership before planning fills the caches; the plan
            # key mirrors plan()'s, whose ``pruning`` is ``alpha >= 0.5``.
            plan_hit = use_cache and (
                (s, t, alpha, use_pruning and alpha >= 0.5) in self._plan_cache
            )
            sep_hit = (s, t) in self._separator_cache
            before = (
                stats.hoplinks,
                stats.label_lookups,
                stats.candidate_paths,
                stats.surviving_paths,
                stats.concatenations,
            )
        t_start = perf_counter()
        plan = self.plan(s, t, alpha, use_pruning, use_cache=use_cache)
        t_planned = perf_counter()
        deadline_at = None if deadline_s is None else t_start + deadline_s
        try:
            if deadline_at is not None and t_planned > deadline_at:
                raise DeadlineExpired(
                    f"query ({s}, {t}, alpha={alpha}) blew its deadline "
                    f"during planning"
                )
            result = self.execute(plan, stats, deadline_at=deadline_at)
        except DeadlineExpired:
            result = self._degraded_answer(s, t, alpha, stats)
        if observed:
            self._observe(
                plan, result, stats, before, plan_hit, sep_hit,
                t_start, t_planned, perf_counter(),
            )
        return result

    def _degraded_answer(
        self, s: int, t: int, alpha: float, stats: "QueryStats"
    ) -> "QueryResult":
        """The mean-only fallback: a valid path, exact moments, flagged."""
        from repro.core.query import QueryResult

        if s == t:
            return QueryResult(
                s, t, alpha, 0.0, 0.0, 0.0, trivial_path(s), stats, degraded=True
            )
        index = self.index
        _, route = mean_shortest_path(index.graph, s, t)
        cov = index.cov if index.correlated else None
        window = index.window
        graph = index.graph
        summary: PathSummary | None = None
        for u, v in zip(route, route[1:]):
            weight = graph.edge(u, v)
            leg = edge_path(u, v, weight.mu, weight.variance, window > 0)
            summary = (
                leg if summary is None else concatenate(summary, leg, u, cov, window)
            )
        assert summary is not None  # route has >= 2 vertices when s != t
        z = self.z_of(alpha)
        value = summary.mu + (z * math.sqrt(summary.var) if summary.var > 0.0 else 0.0)
        return QueryResult(
            s, t, alpha, value, summary.mu, summary.var, summary, stats,
            degraded=True,
        )

    def _observe(
        self,
        plan: QueryPlan,
        result: "QueryResult",
        stats: "QueryStats",
        before: tuple[int, int, int, int, int],
        plan_hit: bool,
        sep_hit: bool,
        t_start: float,
        t_planned: float,
        t_done: float,
    ) -> None:
        """Build one query's flight record and feed every enabled sink.

        The record is a tuple in ``repro.obs.flight.FLIGHT_FIELDS`` order
        carrying this query's own counts (``stats`` may be a workload-wide
        accumulator, hence the ``before`` snapshot).  The flight ring and
        the slow-query log take the tuple; the registry's ``engine.*``
        counters, timers and histogram and the tracer's
        ``engine.answer``/``engine.plan``/``engine.execute`` spans are
        made from the same fields.
        """
        degraded = result.degraded
        case = "degraded" if degraded else plan.case
        plan_ns = int((t_planned - t_start) * 1e9)
        execute_ns = int((t_done - t_planned) * 1e9)
        total_ns = int((t_done - t_start) * 1e9)
        hoplinks = stats.hoplinks - before[0]
        lookups = stats.label_lookups - before[1]
        candidates = stats.candidate_paths - before[2]
        survivors = stats.surviving_paths - before[3]
        concatenations = stats.concatenations - before[4]
        # Memoised plans keep their prune attribution, so these count
        # pruning power applied per answered query, cached or not.
        p2, p3, p5 = plan.pruned_prop2, plan.pruned_prop3, plan.pruned_prop5
        rec = (
            plan.s, plan.t, plan.alpha,
            plan.plane.direction if plan.plane is not None else "-",
            case,
            self.index.td.depth[plan.lca] if plan.lca is not None else -1,
            plan_hit, sep_hit and plan.case == "separator",
            plan_ns, execute_ns, total_ns,
            hoplinks, lookups, candidates, survivors, concatenations,
            p2, p3, p5,
            degraded,
            result_digest(result),
        )
        flight = self._flight
        if flight.enabled:
            flight.record(rec)
        registry = self._registry
        if registry.enabled:
            self._c_queries.inc()
            self._c_hoplinks.inc(hoplinks)
            self._c_label_lookups.inc(lookups)
            self._c_candidate_paths.inc(candidates)
            self._c_surviving_paths.inc(survivors)
            self._c_concatenations.inc(concatenations)
            self._c_prop2.inc(p2)
            self._c_prop3.inc(p3)
            self._c_prop5.inc(p5)
            if degraded:
                self._c_degraded.inc()
            self._t_answer.observe(total_ns * 1e-9)
            self._t_plan.observe(plan_ns * 1e-9)
            self._t_execute.observe(execute_ns * 1e-9)
            self._h_query.observe(total_ns * 1e-9)
        slow = self._slow_log
        if slow.enabled and slow.log(rec) and registry.enabled:
            self._c_slow.inc()
        tracer = self._tracer
        if tracer.enabled:
            outer = tracer.add(
                "engine.answer", t_start, t_done,
                s=plan.s, t=plan.t, alpha=plan.alpha, case=case, value=result.value,
            )
            tracer.add("engine.plan", t_start, t_planned, outer)
            tracer.add("engine.execute", t_planned, t_done, outer, case=plan.case)

    def answer_batch(
        self,
        queries: Sequence[tuple[int, int, float]],
        *,
        use_pruning: bool = True,
        stats: "QueryStats | None" = None,
        per_query_stats: bool = False,
        deadline_s: "float | None" = None,
    ) -> "list[QueryResult]":
        """Answer a workload, sharing plans across repeated triples.

        By default every result carries the shared ``stats`` accumulator
        (or a private one when ``stats`` is None) — the pre-engine
        behaviour.  ``per_query_stats=True`` attaches a fresh
        :class:`QueryStats` to each result and, when ``stats`` is given,
        merges each into it, so aggregate numbers are unchanged while
        per-query breakdowns (Figure 8) become possible.

        ``deadline_s`` is a **per-query** budget, not a whole-batch one:
        every query in the batch gets its own ``deadline_s`` seconds and
        degrades individually to the mean-only fallback on expiry.
        """
        from repro.core.query import QueryStats

        results = []
        for s, t, alpha in queries:
            result = self.answer(
                s, t, alpha, use_pruning,
                QueryStats() if per_query_stats else stats,
                use_cache=True, deadline_s=deadline_s,
            )
            if per_query_stats and stats is not None:
                stats.merge(result.stats)
            results.append(result)
        return results
