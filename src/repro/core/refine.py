"""The refining operation ``RF(P)`` (Section IV).

Keeps only non-dominated paths in a same-endpoints path set:

- **Independent case**: sort by mean; sweep keeping the practical condition
  ``mu_1 + z_max*sigma_1 > mu_2 + z_max*sigma_2 > ...`` (paper uses
  ``z_max = 3.1``, i.e. alpha <= 0.999).  ``z_max=None`` recovers the strict
  M-V dominance of Proposition 1 (the limit ``alpha -> 1``).
- **Correlated case**: Proposition 4's correlated M-V dominance, checked
  against the K-hop neighbourhood path windows ``Nei_K(u) + Nei_K(v)``,
  skipping neighbourhoods whose per-vertex correlation flag is off.

Soundness of the ``z_max`` sweep: for ``mu_1 <= mu_2`` and any independent
extension ``p_3``, ``sqrt(s1^2+s3^2) - sqrt(s2^2+s3^2) <= s1 - s2`` whenever
``s1 >= s2``, so ``mu_1 + z*s1 <= mu_2 + z*s2`` implies dominance for every
``Z_alpha`` in ``(0, z_max]``; for ``s1 <= s2`` plain M-V applies.  The
correlated check applies the same compression argument to the covariance-
adjusted variances ``sigma_i^2 + 2*cov(p_i, q)`` for each neighbourhood
window ``q`` (and the empty window).

The correlated check is bound first.  ``NeighborhoodCache.covariance_bounds``
brackets ``cov(p, q)`` over every window ``q`` of an endpoint, and the
condition is tried once on the extremes: ``p_1``'s upper bound against
``p_2``'s lower bound on the high side, the reverse on the low side.  The
condition is monotone in both adjusted variances, and so are rounded ``+``,
``*2``, ``sqrt`` and ``mu + z*s`` for ``z >= 0``; so when the extremes pass,
every window passes.  Only an inconclusive bound merges the covariances and
runs the per-window check, so the kept set is bit-identical to the one the
per-window check alone would keep.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.kernels import reference
from repro.core.pathsummary import PathSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.covariance import CovarianceStore
    from repro.network.graph import StochasticGraph

__all__ = [
    "PRACTICAL_Z_MAX",
    "refine_independent",
    "refine_independent_low",
    "NeighborhoodCache",
    "Refiner",
]

#: The paper's practical refine bound: alpha <= 0.999 -> Z_alpha <= 3.1.
PRACTICAL_Z_MAX = 3.1

EdgeKey = tuple[int, int]


def _refine_sweep(
    paths: Iterable[PathSummary],
    z_max: float | None,
    low: bool,
) -> list[PathSummary]:
    """Sort, run the kernel sweep, and map kept indices back to paths."""
    if low:
        # Equal means: the largest variance wins on (0, 0.5).
        ordered = sorted(paths, key=lambda p: (p.mu, -p.var))
    else:
        ordered = sorted(paths, key=lambda p: (p.mu, p.var))
    kept = reference.refine_keep(
        [p.mu for p in ordered],
        [p.var for p in ordered],
        [p.sigma for p in ordered],
        z_max,
        low,
    )
    return [ordered[i] for i in kept]


def refine_independent(
    paths: Iterable[PathSummary],
    z_max: float | None = PRACTICAL_Z_MAX,
) -> list[PathSummary]:
    """``RF(P)`` for independent travel times on ``alpha > 0.5``.

    Returns paths sorted by strictly increasing mean, strictly decreasing
    sigma, and (when ``z_max`` is given) strictly decreasing
    ``mu + z_max * sigma``.  The sweep itself runs in the kernel layer.
    """
    return _refine_sweep(paths, z_max, low=False)


def refine_independent_low(
    paths: Iterable[PathSummary],
    z_max: float | None = PRACTICAL_Z_MAX,
) -> list[PathSummary]:
    """``RF(P)`` for the symmetric ``alpha < 0.5`` case (``P^{<0.5}``).

    The paper omits this case "by symmetry" (Section III-B2); here it is:
    on ``(0, 0.5)`` we have ``Z_alpha < 0``, so Proposition 1 flips —
    ``p_1`` dominates ``p_2`` when ``mu_1 <= mu_2`` and ``sigma_1 >
    sigma_2``.  The kept set has strictly increasing means and strictly
    *increasing* sigmas, and the practical bound keeps
    ``mu - z_max * sigma`` strictly decreasing (covering ``alpha >=
    1 - Phi(z_max)``, i.e. 0.001 for the default 3.1).
    """
    return _refine_sweep(paths, z_max, low=True)


class NeighborhoodCache:
    """Lazily enumerated ``Nei_K(v)``: edge windows of simple paths from v.

    Only windows containing at least one *correlated* edge are kept —
    windows made of uncorrelated edges behave exactly like the empty window,
    which the dominance check always includes.  Each vertex also gets an
    inverted index ``edge -> window positions`` so the dominance check can
    visit only the windows that actually interact with a given pair of
    paths (the hot path of correlated index construction).
    """

    def __init__(
        self, graph: "StochasticGraph", cov: "CovarianceStore", hops: int
    ) -> None:
        self._graph = graph
        self._cov = cov
        self.hops = hops
        self._cache: dict[
            int,
            tuple[tuple[tuple[EdgeKey, ...], ...], dict[EdgeKey, tuple[int, ...]]],
        ] = {}
        self._rowsums: dict[int, dict[EdgeKey, dict[int, float]]] = {}
        self._rowsum_bounds: dict[int, dict[EdgeKey, tuple[float, float]]] = {}

    def windows(self, v: int) -> tuple[tuple[EdgeKey, ...], ...]:
        return self._entry(v)[0]

    def window_index(self, v: int) -> dict[EdgeKey, tuple[int, ...]]:
        """``edge -> indices of windows(v) containing that edge``."""
        return self._entry(v)[1]

    def rowsums(self, v: int, e: EdgeKey) -> dict[int, float]:
        """``{window index i: sum_{f in q_i} cov(e, f)}`` at vertex ``v``.

        Memoised; the covariance of a whole path window against every
        neighbourhood window is then just the merge of its edges' rowsums.
        """
        per_vertex = self._rowsums.setdefault(v, {})
        cached = per_vertex.get(e)
        if cached is None:
            cached = {}
            partners = self._cov.correlated_partners(e)
            if partners:
                inverted = self._entry(v)[1]
                for f, value in partners.items():
                    for i in inverted.get(f, ()):
                        cached[i] = cached.get(i, 0.0) + value
            per_vertex[e] = cached
        return cached

    def covariance_bounds(
        self, v: int, window: tuple[EdgeKey, ...]
    ) -> tuple[float, float]:
        """``(lo, hi)`` with ``lo <= cov(path, q_i) <= hi`` for every window
        ``q_i`` at ``v``, and ``lo <= 0.0 <= hi``.

        Sums each edge's smallest and largest rowsum (0.0 included, for the
        windows it misses) in :meth:`path_covariances`' merge order.  Rounded
        addition is monotone, so the sums bound each merged value term by
        term without merging anything.
        """
        per_vertex = self._rowsum_bounds.setdefault(v, {})
        lo = hi = 0.0
        for e in set(window):
            bounds = per_vertex.get(e)
            if bounds is None:
                values = (0.0, *self.rowsums(v, e).values())
                bounds = per_vertex[e] = (min(values), max(values))
            lo += bounds[0]
            hi += bounds[1]
        return lo, hi

    def path_covariances(self, v: int, window: tuple[EdgeKey, ...]) -> dict[int, float]:
        """``{window index i: cov(path, q_i)}`` for a path window at ``v``.

        Merging runs through the kernel layer's ``merge_rowsums`` (float
        accumulation order is part of the determinism contract).
        """
        return reference.merge_rowsums(
            [self.rowsums(v, e) for e in set(window)]
        )

    def _entry(
        self, v: int
    ) -> tuple[tuple[tuple[EdgeKey, ...], ...], dict[EdgeKey, tuple[int, ...]]]:
        cached = self._cache.get(v)
        if cached is None:
            # Two windows with the same set of *correlated* edges yield the
            # same cross-covariances against any path, hence the same
            # dominance condition — keep one representative per subset.
            cov = self._cov
            subsets: dict[frozenset[EdgeKey], tuple[EdgeKey, ...]] = {}
            for window in self._enumerate(v):
                key = frozenset(e for e in window if cov.has_correlation(e))
                if key and key not in subsets:
                    subsets[key] = tuple(sorted(key))
            windows = tuple(subsets.values())
            inverted: dict[EdgeKey, list[int]] = {}
            for i, window in enumerate(windows):
                for key in window:
                    inverted.setdefault(key, []).append(i)
            cached = (windows, {k: tuple(ix) for k, ix in inverted.items()})
            self._cache[v] = cached
        return cached

    def _enumerate(self, v: int) -> Iterable[tuple[EdgeKey, ...]]:
        graph, cov = self._graph, self._cov
        # DFS over simple paths of at most `hops` edges starting at v.
        stack: list[tuple[int, tuple[EdgeKey, ...], frozenset[int], bool]] = [
            (v, (), frozenset((v,)), False)
        ]
        while stack:
            vertex, window, visited, correlated = stack.pop()
            if window and correlated:
                yield window
            if len(window) == self.hops:
                continue
            for w in graph.neighbors(vertex):
                if w in visited:
                    continue
                key = (vertex, w) if vertex <= w else (w, vertex)
                now_correlated = correlated or cov.has_correlation(key)
                stack.append((w, window + (key,), visited | {w}, now_correlated))

    # Dropping uncorrelated windows is sound: their cross-covariance with
    # anything is zero, so the dominance condition for them coincides with
    # the always-checked empty-window condition.


class Refiner:
    """``RF(P)`` dispatcher used by index construction and maintenance.

    Parameters
    ----------
    z_max:
        Practical refine bound (None = strict M-V, the ``alpha -> 1`` limit).
    cov, neighborhoods, flags:
        Correlated-case machinery; all three must be given together.  When
        both endpoints of a set are unflagged the independent refine is used
        (the paper's per-vertex flag shortcut).
    """

    def __init__(
        self,
        z_max: float | None = PRACTICAL_Z_MAX,
        cov: "CovarianceStore | None" = None,
        neighborhoods: NeighborhoodCache | None = None,
        flags: dict[int, bool] | None = None,
        direction: str = "high",
    ) -> None:
        if direction not in ("high", "low"):
            raise ValueError(f"direction must be 'high' or 'low', got {direction!r}")
        self.z_max = z_max
        self.cov = cov
        self.neighborhoods = neighborhoods
        self.flags = flags
        self.direction = direction
        self.correlated = cov is not None and not cov.is_empty()
        if self.correlated and (neighborhoods is None or flags is None):
            raise ValueError("correlated refine needs neighborhoods and flags")

    def refine(self, paths: Sequence[PathSummary]) -> list[PathSummary]:
        """Keep only the non-dominated paths of a same-endpoints set."""
        independent_refine = (
            refine_independent if self.direction == "high" else refine_independent_low
        )
        if len(paths) <= 1:
            return list(paths)
        if not self.correlated:
            return independent_refine(paths, self.z_max)
        sample = paths[0]
        u, v = sample.a, sample.b
        if not (self.flags.get(u, False) or self.flags.get(v, False)):
            return independent_refine(paths, self.z_max)
        return self._refine_correlated(paths, u, v)

    # ------------------------------------------------------------------
    # Correlated case (Proposition 4)
    # ------------------------------------------------------------------
    def _refine_correlated(
        self, paths: Sequence[PathSummary], u: int, v: int
    ) -> list[PathSummary]:
        if self.direction == "high":
            ordered = sorted(paths, key=lambda p: (p.mu, p.var))
        else:
            ordered = sorted(paths, key=lambda p: (p.mu, -p.var))
        endpoints = tuple(x for x in ((u,) if u == v else (u, v)) if self.flags.get(x))
        neighborhoods = self.neighborhoods
        # Covariance bounds per path and flagged endpoint, computed when a
        # pair with the path first passes the empty-window check:
        # bounds[j][x] = covariance_bounds(x, window of path j at x).
        bounds: list[dict[int, tuple[float, float]] | None] = [None] * len(ordered)

        def bounds_of(j: int) -> dict[int, tuple[float, float]]:
            entry = bounds[j]
            if entry is None:
                path = ordered[j]
                entry = bounds[j] = {
                    x: neighborhoods.covariance_bounds(x, path.window_at(x))
                    for x in endpoints
                }
            return entry

        condition = self._adjusted_condition
        kept: list[int] = []
        for j, candidate in enumerate(ordered):
            for i in kept:
                p1 = ordered[i]
                if condition(
                    p1.mu, p1.var, candidate.mu, candidate.var
                ) and self._windows_dominate(
                    p1, candidate, bounds_of(i), bounds_of(j), endpoints
                ):
                    break
            else:
                kept.append(j)
        return [ordered[j] for j in kept]

    def _windows_dominate(
        self,
        p1: PathSummary,
        p2: PathSummary,
        bounds1: dict[int, tuple[float, float]],
        bounds2: dict[int, tuple[float, float]],
        endpoints: tuple[int, ...],
    ) -> bool:
        """Proposition 4 over every neighbourhood window, bound first.

        Requires ``mu_1 <= mu_2`` (sort order) and a passed empty-window
        check.  The extremes test is sufficient, not necessary (see the
        module docstring); when it fails, the per-window check decides.
        """
        condition = self._adjusted_condition
        low = self.direction == "low"
        for x in endpoints:
            lo1, hi1 = bounds1[x]
            lo2, hi2 = bounds2[x]
            if condition(
                p1.mu,
                p1.var + 2.0 * (lo1 if low else hi1),
                p2.mu,
                p2.var + 2.0 * (hi2 if low else lo2),
            ):
                continue
            c1s = self.neighborhoods.path_covariances(x, p1.window_at(x))
            c2s = self.neighborhoods.path_covariances(x, p2.window_at(x))
            for i in c1s.keys() | c2s.keys():
                if not condition(
                    p1.mu,
                    p1.var + 2.0 * c1s.get(i, 0.0),
                    p2.mu,
                    p2.var + 2.0 * c2s.get(i, 0.0),
                ):
                    return False
        return True

    def _adjusted_condition(
        self, mu1: float, var1: float, mu2: float, var2: float
    ) -> bool:
        """Dominance for one adjusted-variance pair.

        On the high side, ``var1 <= var2`` gives plain correlated M-V
        dominance; otherwise the ``z_max`` compression bound must close the
        gap.  On the low side (``alpha < 0.5``, ``Z < 0``) the variance
        comparison flips.  Requires ``mu1 <= mu2`` (guaranteed by the
        caller's sort order); equal paths count as dominated so duplicates
        collapse.
        """
        if self.direction == "low":
            if var1 >= var2:
                return True
            if self.z_max is None:
                return False
            s1 = math.sqrt(var1) if var1 > 0.0 else 0.0
            s2 = math.sqrt(var2) if var2 > 0.0 else 0.0
            return mu1 - self.z_max * s1 <= mu2 - self.z_max * s2
        if var1 <= var2:
            return True
        if self.z_max is None:
            return False
        s1 = math.sqrt(var1) if var1 > 0.0 else 0.0
        s2 = math.sqrt(var2) if var2 > 0.0 else 0.0
        return mu1 + self.z_max * s1 <= mu2 + self.z_max * s2
