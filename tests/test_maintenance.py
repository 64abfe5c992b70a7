"""Maintenance (Algorithms 4-5): equivalence with full rebuild + behaviour."""

from __future__ import annotations

import random

import pytest

from conftest import make_correlated_instance, make_random_instance, random_query
from repro import IndexMaintainer, build_index
from repro.baselines.brute_force import exact_rsp


def label_snapshot(index):
    return {
        plane.direction: {
            v: {u: tuple((p.mu, p.var) for p in ls.paths) for u, ls in entry.items()}
            for v, entry in plane.labels.items()
        }
        for plane in index.planes()
    }


class TestEquivalenceWithRebuild:
    @pytest.mark.parametrize("seed", range(6))
    def test_independent_updates(self, seed):
        graph = make_random_instance(seed, n=14, extra=12)
        index = build_index(graph)
        maintainer = IndexMaintainer(index)
        rng = random.Random(seed + 500)
        edges = list(graph.edge_keys())
        for _ in range(5):
            u, v = edges[rng.randrange(len(edges))]
            w = graph.edge(u, v)
            maintainer.update_edge(
                u,
                v,
                w.mu * rng.choice([0.5, 0.8, 1.5, 2.0]),
                w.variance * rng.choice([0.5, 1.0, 2.0]) + 0.01,
            )
            fresh = build_index(graph, order=index.td.order)
            assert label_snapshot(index) == label_snapshot(fresh)

    @pytest.mark.parametrize(
        "seed, low",
        [pytest.param(seed, False, id=str(seed)) for seed in range(3)]
        + [pytest.param(seed, True, id=f"{seed}-low") for seed in range(3)],
    )
    def test_correlated_updates(self, seed, low):
        graph, cov = make_correlated_instance(seed, n=10, extra=8)
        index = build_index(graph, cov, window=3, support_low_alpha=low)
        maintainer = IndexMaintainer(index)
        rng = random.Random(seed + 900)
        edges = list(graph.edge_keys())
        for _ in range(3):
            u, v = edges[rng.randrange(len(edges))]
            w = graph.edge(u, v)
            maintainer.update_edge(u, v, w.mu * 1.7, w.variance * 1.3 + 0.05)
            fresh = build_index(
                graph, cov, window=3, order=index.td.order, support_low_alpha=low
            )
            assert label_snapshot(index) == label_snapshot(fresh)

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_with_disjoint_regions(self, seed):
        """Regression: a batch touching several far-apart edges must rebuild
        the union of affected subtrees, not just one chain's subtree."""
        graph = make_random_instance(seed + 100, n=30, extra=20)
        index = build_index(graph)
        rng = random.Random(seed + 300)
        edges = list(graph.edge_keys())
        changes = []
        for u, v in rng.sample(edges, 6):
            w = graph.edge(u, v)
            changes.append((u, v, w.mu * rng.uniform(0.4, 2.5), w.variance + 0.5))
        IndexMaintainer(index).update_batch(changes)
        fresh = build_index(graph, order=index.td.order)
        assert label_snapshot(index) == label_snapshot(fresh)

    def test_batch_equals_sequential_final_state(self):
        graph = make_random_instance(7, n=12, extra=10)
        index_batch = build_index(graph.copy())
        index_seq = build_index(graph.copy(), order=index_batch.td.order)
        rng = random.Random(7)
        edges = list(graph.edge_keys())
        changes = []
        for _ in range(4):
            u, v = edges[rng.randrange(len(edges))]
            w = graph.edge(u, v)
            changes.append((u, v, w.mu * 1.5, w.variance + 1.0))
        IndexMaintainer(index_batch).update_batch(changes)
        seq = IndexMaintainer(index_seq)
        for change in changes:
            seq.update_edge(*change)
        assert label_snapshot(index_batch) == label_snapshot(index_seq)


class TestQueriesAfterUpdates:
    def test_answers_stay_exact(self):
        graph = make_random_instance(9, n=12, extra=10)
        index = build_index(graph)
        maintainer = IndexMaintainer(index)
        rng = random.Random(9)
        edges = list(graph.edge_keys())
        for _ in range(4):
            u, v = edges[rng.randrange(len(edges))]
            w = graph.edge(u, v)
            maintainer.update_edge(u, v, w.mu * rng.uniform(0.5, 2.0), w.variance)
            s, t, alpha = random_query(graph, rng)
            expected, _ = exact_rsp(graph, s, t, alpha)
            assert index.query(s, t, alpha).value == pytest.approx(expected)


class TestPropagationScope:
    def test_noop_update_touches_nothing(self):
        graph = make_random_instance(2, n=12, extra=8)
        index = build_index(graph)
        maintainer = IndexMaintainer(index)
        u, v = next(iter(graph.edge_keys()))
        w = graph.edge(u, v)
        report = maintainer.update_edge(u, v, w.mu, w.variance)
        assert report.edge_sets_changed == 0
        assert report.labels_rebuilt == 0

    def test_report_fields_populated(self):
        graph = make_random_instance(3, n=12, extra=8)
        index = build_index(graph)
        maintainer = IndexMaintainer(index)
        u, v = next(iter(graph.edge_keys()))
        report = maintainer.update_edge(u, v, 500.0, 1.0)
        assert report.edge_sets_recomputed >= 1
        assert report.seconds > 0

    def test_subtree_rebuild_smaller_than_full(self):
        """The point of Algorithm 5: most updates rebuild few labels."""
        graph = make_random_instance(5, n=40, extra=30)
        index = build_index(graph)
        maintainer = IndexMaintainer(index)
        rng = random.Random(5)
        edges = list(graph.edge_keys())
        rebuilds = []
        for _ in range(10):
            u, v = edges[rng.randrange(len(edges))]
            w = graph.edge(u, v)
            report = maintainer.update_edge(u, v, w.mu * 1.2, w.variance)
            rebuilds.append(report.labels_rebuilt)
        assert min(rebuilds) < graph.num_vertices
