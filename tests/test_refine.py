"""Tests for the RF operation: independent and correlated dominance."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pathsummary import PathSummary, edge_path
from repro.core.refine import (
    PRACTICAL_Z_MAX,
    NeighborhoodCache,
    Refiner,
    refine_independent,
)
from repro.network.covariance import CovarianceStore
from repro.network.generators import random_connected_graph
from repro.network.graph import StochasticGraph


def mk(mu, var, a=0, b=1):
    return edge_path(a, b, mu, var, window=False)


class TestRefineIndependent:
    def test_empty_and_singleton(self):
        assert refine_independent([]) == []
        p = mk(1, 1)
        assert refine_independent([p]) == [p]

    def test_mv_dominated_removed(self):
        kept = refine_independent([mk(1, 4), mk(2, 5)], z_max=None)
        assert [(p.mu, p.var) for p in kept] == [(1, 4)]

    def test_pareto_kept_under_strict_mv(self):
        kept = refine_independent([mk(1, 9), mk(2, 4), mk(3, 1)], z_max=None)
        assert len(kept) == 3
        sigmas = [p.sigma for p in kept]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_duplicates_collapse(self):
        kept = refine_independent([mk(1, 4), mk(1, 4), mk(1, 4)])
        assert len(kept) == 1

    def test_zmax_prunes_more_than_strict(self):
        # (10, 100) vs (10.1, 99.9...): strict M-V keeps both, z=3.1 drops
        # the second since 10.1 + 3.1*sqrt(99.8) > 10 + 3.1*10.
        paths = [mk(10, 100), mk(10.1, 99.8)]
        assert len(refine_independent(paths, z_max=None)) == 2
        assert len(refine_independent(paths, z_max=3.1)) == 1

    def test_output_sorted_and_strictly_pareto(self):
        rng = random.Random(0)
        paths = [mk(rng.uniform(1, 20), rng.uniform(0, 30)) for _ in range(100)]
        kept = refine_independent(paths)
        mus = [p.mu for p in kept]
        sigmas = [p.sigma for p in kept]
        values = [p.mu + 3.1 * p.sigma for p in kept]
        assert mus == sorted(mus)
        assert all(sigmas[i] > sigmas[i + 1] for i in range(len(sigmas) - 1))
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=50),
                st.floats(min_value=0.0, max_value=50),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_refined_set_preserves_best_value(self, moments, alpha):
        """For any alpha <= 0.999, the refined set contains a path whose
        F^{-1}(alpha) equals the best over the full set — with or without
        an arbitrary independent extension (the dominance definition)."""
        from repro.stats.zscores import z_value

        z = z_value(alpha)
        paths = [mk(mu, var) for mu, var in moments]
        kept = refine_independent(paths, z_max=PRACTICAL_Z_MAX)
        for ext_var in (0.0, 7.3):
            full_best = min(p.mu + z * math.sqrt(p.var + ext_var) for p in paths)
            kept_best = min(p.mu + z * math.sqrt(p.var + ext_var) for p in kept)
            assert kept_best == pytest.approx(full_best)


class TestNeighborhoodCache:
    @pytest.fixture()
    def path_graph(self):
        g = StochasticGraph()
        for i in range(5):
            g.add_edge(i, i + 1, 1.0, 1.0)
        return g

    def test_only_correlated_windows_kept(self, path_graph):
        cov = CovarianceStore()
        cov.set((1, 2), (2, 3), 0.5)
        cache = NeighborhoodCache(path_graph, cov, hops=2)
        windows = cache.windows(2)
        # Every kept window contains a correlated edge.
        for window in windows:
            assert any(cov.has_correlation(e) for e in window)
        # Windows from vertex 2 within 2 hops include (1,2) and (2,3).
        flat = {e for w in windows for e in w}
        assert (1, 2) in flat and (2, 3) in flat

    def test_no_correlations_no_windows(self, path_graph):
        cache = NeighborhoodCache(path_graph, CovarianceStore(), hops=3)
        assert cache.windows(2) == ()

    def test_window_index_consistent(self, path_graph):
        cov = CovarianceStore()
        cov.set((1, 2), (2, 3), 0.5)
        cov.set((0, 1), (1, 2), 0.2)
        cache = NeighborhoodCache(path_graph, cov, hops=3)
        windows = cache.windows(2)
        index = cache.window_index(2)
        for e, positions in index.items():
            for i in positions:
                assert e in windows[i]

    def test_rowsums_match_direct_sum(self, path_graph):
        cov = CovarianceStore()
        cov.set((1, 2), (2, 3), 0.5)
        cov.set((1, 2), (3, 4), -0.25)
        cache = NeighborhoodCache(path_graph, cov, hops=3)
        windows = cache.windows(2)
        sums = cache.rowsums(2, (1, 2))
        for i, window in enumerate(windows):
            expected = sum(cov.get((1, 2), f) for f in window)
            assert sums.get(i, 0.0) == pytest.approx(expected)


class TestRefinerCorrelated:
    def _setup(self):
        g = StochasticGraph()
        g.add_edge(0, 1, 1.0, 2.0)
        g.add_edge(1, 2, 1.0, 2.0)
        g.add_edge(0, 2, 2.5, 3.0)
        g.add_edge(2, 3, 1.0, 1.0)
        return g

    def test_falls_back_to_independent_when_unflagged(self):
        g = self._setup()
        cov = CovarianceStore()
        cov.set((2, 3), (1, 2), 0.1)  # correlation far from vertex 0... but
        flags = {v: False for v in g.vertices()}
        refiner = Refiner(3.1, cov, NeighborhoodCache(g, cov, 1), flags)
        paths = [mk(1, 4), mk(2, 5)]
        kept = refiner.refine(paths)
        assert [(p.mu, p.var) for p in kept] == [(1, 4)]

    def test_negative_correlation_blocks_domination(self):
        """A higher-mean, higher-variance path can survive when a negative
        covariance with a neighbourhood window lowers its adjusted variance
        below the rival's (Proposition 4's condition fails)."""
        g = self._setup()
        cov = CovarianceStore()
        # Path B = (0,2) direct edge negatively correlated with (2,3).
        cov.set((0, 2), (2, 3), -1.2)
        flags = cov.compute_vertex_flags(g, 1)
        refiner = Refiner(None, cov, NeighborhoodCache(g, cov, 1), flags)
        path_a = edge_path(0, 1, 1.0, 2.0, True)
        path_ab = edge_path(1, 2, 1.0, 2.0, True)
        from repro.core.pathsummary import concatenate

        a = concatenate(path_a, path_ab, 1, cov, 1)  # (0,1,2): mu 2, var 4
        b = edge_path(0, 2, 2.5, 3.0, True)  # mu 2.5, var 3
        kept = refiner.refine([a, b])
        # Empty-window check: var_a=4 > var_b=3 is fine for a dominating b?
        # mu_a < mu_b and var_a > var_b: plain M-V does NOT dominate; with
        # z_max=None a cannot dominate b, so both survive.
        assert len(kept) == 2

    def test_correlated_domination_with_window_checks(self):
        g = self._setup()
        cov = CovarianceStore()
        cov.set((0, 1), (2, 3), 0.3)
        flags = cov.compute_vertex_flags(g, 1)
        refiner = Refiner(3.1, cov, NeighborhoodCache(g, cov, 1), flags)
        from repro.core.pathsummary import concatenate

        a = concatenate(
            edge_path(0, 1, 1.0, 2.0, True), edge_path(1, 2, 1.0, 2.0, True), 1, cov, 1
        )
        b = edge_path(0, 2, 2.5, 5.0, True)
        kept = refiner.refine([a, b])
        # a has smaller mean; its adjusted variances never exceed b's
        # (cov(a's windows, any q) is 0 at endpoint 2 and small at 0),
        # so b is dominated.
        assert [(p.mu, p.var) for p in kept] == [(2.0, 4.0)]

    def test_requires_support_objects(self):
        cov = CovarianceStore()
        cov.set((0, 1), (1, 2), 0.5)
        with pytest.raises(ValueError):
            Refiner(3.1, cov)


def _condition(mu1, var1, mu2, var2, z_max, low):
    """Proposition 4 for one adjusted-variance pair (``mu1 <= mu2``)."""
    if low:
        if var1 >= var2:
            return True
        if z_max is None:
            return False
        s1 = math.sqrt(var1) if var1 > 0.0 else 0.0
        s2 = math.sqrt(var2) if var2 > 0.0 else 0.0
        return mu1 - z_max * s1 <= mu2 - z_max * s2
    if var1 <= var2:
        return True
    if z_max is None:
        return False
    s1 = math.sqrt(var1) if var1 > 0.0 else 0.0
    s2 = math.sqrt(var2) if var2 > 0.0 else 0.0
    return mu1 + z_max * s1 <= mu2 + z_max * s2


def _oracle_refine(paths, cache, flags, z_max, direction):
    """Proposition 4 spelled out: every kept path against every window."""
    low = direction == "low"
    ordered = sorted(paths, key=lambda p: (p.mu, -p.var if low else p.var))
    u, v = ordered[0].a, ordered[0].b
    endpoints = [x for x in ((u,) if u == v else (u, v)) if flags.get(x)]

    def dominates(p1, p2):
        if not _condition(p1.mu, p1.var, p2.mu, p2.var, z_max, low):
            return False
        for x in endpoints:
            c1s = cache.path_covariances(x, p1.window_at(x))
            c2s = cache.path_covariances(x, p2.window_at(x))
            for i in c1s.keys() | c2s.keys():
                if not _condition(
                    p1.mu,
                    p1.var + 2.0 * c1s.get(i, 0.0),
                    p2.mu,
                    p2.var + 2.0 * c2s.get(i, 0.0),
                    z_max,
                    low,
                ):
                    return False
        return True

    kept = []
    for candidate in ordered:
        if not any(dominates(p, candidate) for p in kept):
            kept.append(candidate)
    return kept


class TestProposition4Oracle:
    """The bound-first refine keeps exactly what the per-window check keeps."""

    @pytest.mark.parametrize("direction", ["high", "low"])
    @pytest.mark.parametrize("z_max", [3.1, None])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_signed_sets_match_oracle(self, seed, z_max, direction):
        rng = random.Random(seed)
        graph = random_connected_graph(12, 10, seed=seed)
        edges = sorted(graph.edge_keys())
        cov = CovarianceStore()
        for i, e in enumerate(edges):
            for f in edges[i + 1 :]:
                if rng.random() < 0.3:
                    cov.set(e, f, rng.uniform(-0.6, 0.6))
        cache = NeighborhoodCache(graph, cov, hops=2)
        flags = {x: True for x in graph.vertices()}
        refiner = Refiner(z_max, cov, cache, flags, direction=direction)
        u, v = rng.sample(sorted(graph.vertices()), 2)
        pool = [tuple(rng.sample(edges, rng.randint(1, 3))) for _ in range(6)]
        for _ in range(4):
            paths = [
                PathSummary(
                    rng.uniform(1.0, 10.0),
                    rng.uniform(0.5, 6.0),
                    u,
                    v,
                    rng.choice(pool),
                    rng.choice(pool),
                    3,
                )
                for _ in range(30)
            ]
            expected = _oracle_refine(paths, cache, flags, z_max, direction)
            kept = refiner.refine(paths)
            assert [id(p) for p in kept] == [id(p) for p in expected]
        for x in (u, v):
            for window in pool:
                lo, hi = cache.covariance_bounds(x, window)
                values = cache.path_covariances(x, window).values()
                assert lo <= min(values, default=0.0) and lo <= 0.0
                assert hi >= max(values, default=0.0) and hi >= 0.0

    @pytest.fixture()
    def star(self):
        g = StochasticGraph()
        for leaf in range(1, 6):
            g.add_edge(0, leaf, 1.0, 1.0)
        return g

    def test_dominance_found_when_the_bound_is_inconclusive(self, star):
        cov = CovarianceStore()
        cov.set((0, 1), (0, 2), 0.5)
        cache = NeighborhoodCache(star, cov, hops=1)
        flags = {0: True}
        p1 = PathSummary(1.0, 4.0, 0, 5, ((0, 1),), (), 2)
        p2 = PathSummary(2.0, 4.0, 0, 5, ((0, 1),), (), 2)
        lo, hi = cache.covariance_bounds(0, ((0, 1),))
        assert (lo, hi) == (0.0, 0.5)
        assert list(cache.path_covariances(0, ((0, 1),)).values()) == [0.5]
        # Extremes: 4 + 2*0.5 > 4 + 2*0.0, so the bound cannot decide ...
        assert not _condition(1.0, 4.0 + 2.0 * hi, 2.0, 4.0 + 2.0 * lo, None, False)
        # ... but the only window adjusts both variances alike.
        kept = Refiner(None, cov, cache, flags).refine([p2, p1])
        assert kept == [p1]

    def test_single_window_blocks_dominance(self, star):
        cov = CovarianceStore()
        cov.set((0, 1), (0, 2), 0.5)
        cov.set((0, 3), (0, 4), -1.0)
        cache = NeighborhoodCache(star, cov, hops=1)
        flags = {0: True}
        p1 = PathSummary(1.0, 4.0, 0, 5, ((0, 1),), (), 2)
        p2 = PathSummary(2.0, 5.0, 0, 5, ((0, 3),), (), 2)
        c1s = cache.path_covariances(0, ((0, 1),))
        c2s = cache.path_covariances(0, ((0, 3),))
        failing = [
            i
            for i in c1s.keys() | c2s.keys()
            if not _condition(
                1.0, 4.0 + 2.0 * c1s.get(i, 0.0), 2.0, 5.0 + 2.0 * c2s.get(i, 0.0),
                None, False,
            )
        ]
        assert len(failing) == 1
        assert Refiner(None, cov, cache, flags).refine([p1, p2]) == [p1, p2]
        # Without the blocking covariance p1 dominates p2.
        cov.set((0, 3), (0, 4), 0.0)
        cache = NeighborhoodCache(star, cov, hops=1)
        assert Refiner(None, cov, cache, flags).refine([p1, p2]) == [p1]
