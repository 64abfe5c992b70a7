"""Direct unit tests for Algorithm 3's two phases."""

from __future__ import annotations

import hashlib

import pytest

from conftest import make_correlated_instance, make_random_instance
from repro import build_index
from repro.baselines.brute_force import exact_non_dominated
from repro.core.construction import EdgeSetStore, build_edge_sets, build_labels
from repro.core.refine import Refiner
from repro.network.datasets import make_dataset
from repro.network.generators import PAPER_FIGURE1_ORDER, paper_figure1
from repro.treedec.decomposition import build_tree_decomposition


@pytest.fixture(scope="module")
def fig1_parts():
    graph, _ = paper_figure1()
    td = build_tree_decomposition(graph, PAPER_FIGURE1_ORDER)
    refiner = Refiner()
    store = build_edge_sets(graph, td, refiner)
    labels = build_labels(graph, td, store, refiner)
    return graph, td, store, labels


class TestEdgeSets:
    def test_original_edges_have_sets(self, fig1_parts):
        graph, _, store, _ = fig1_parts
        for u, v, _ in graph.edges():
            key = (u, v) if u <= v else (v, u)
            assert key in store.sets
            assert store.sets[key]

    def test_shortcut_sets_created(self, fig1_parts):
        _, _, store, _ = fig1_parts
        # Contraction of v2 creates shortcut (6, 9); of v4, (6, 7).
        assert (6, 9) in store.sets
        assert (6, 7) in store.sets

    def test_centers_recorded(self, fig1_parts):
        _, _, store, _ = fig1_parts
        assert list(store.centers[(6, 8)]) == [3]
        assert list(store.centers[(6, 9)]) == [2]
        # (8, 9) is touched by the contractions of v6 and v7 in order.
        assert list(store.centers[(8, 9)]) == [6, 7]

    def test_sets_sorted_pareto(self, fig1_parts):
        _, _, store, _ = fig1_parts
        for paths in store.sets.values():
            mus = [p.mu for p in paths]
            sigmas = [p.sigma for p in paths]
            assert mus == sorted(mus)
            assert all(sigmas[i] > sigmas[i + 1] for i in range(len(sigmas) - 1))

    def test_num_paths_accounting(self, fig1_parts):
        _, _, store, _ = fig1_parts
        assert store.num_paths() == sum(len(p) for p in store.sets.values())
        assert store.centers_storage_entries() == sum(
            len(c) for c in store.centers.values()
        )


class TestLabels:
    def test_every_ancestor_has_entry(self, fig1_parts):
        _, td, _, labels = fig1_parts
        for v in td.order:
            ancestors = set(td.ancestors(v))
            assert set(labels[v]) == ancestors

    def test_entries_nonempty(self, fig1_parts):
        _, _, _, labels = fig1_parts
        for entry in labels.values():
            for label_set in entry.values():
                assert len(label_set) > 0

    def test_label_paths_connect_the_right_endpoints(self, fig1_parts):
        graph, td, _, labels = fig1_parts
        for v, entry in labels.items():
            for u, label_set in entry.items():
                for p in label_set.paths:
                    vertices = p.vertices()
                    assert {vertices[0], vertices[-1]} == {u, v}
                    for a, b in zip(vertices, vertices[1:]):
                        assert graph.has_edge(a, b)

    def test_min_mean_entry_matches_exact_front(self, fig1_parts):
        graph, td, _, labels = fig1_parts
        for v, entry in labels.items():
            for u, label_set in entry.items():
                front = exact_non_dominated(graph, u, v)
                assert label_set.paths[0].mu == pytest.approx(front[0][0])


class TestRandomGraphInvariants:
    @pytest.mark.parametrize("seed", range(3))
    def test_store_and_labels_consistent(self, seed):
        graph = make_random_instance(seed, n=15, extra=12)
        td = build_tree_decomposition(graph)
        refiner = Refiner()
        store = build_edge_sets(graph, td, refiner)
        labels = build_labels(graph, td, store, refiner)
        # Root label empty; everyone else labelled up to the root.
        assert labels[td.root] == {}
        for v in td.order:
            if v != td.root:
                assert td.root in labels[v]


def label_fingerprint(index) -> str:
    """sha256 over every ``(v, u, mu, var, vertices)`` of every plane."""
    digest = hashlib.sha256()
    for plane in index.planes():
        digest.update(plane.direction.encode())
        for v in sorted(plane.labels):
            entry = plane.labels[v]
            for u in sorted(entry):
                for p in entry[u].paths:
                    digest.update(repr((v, u, p.mu, p.var, p.vertices())).encode())
    return digest.hexdigest()


class TestCorrelatedLabelFingerprint:
    """Correlated labels of both planes are pinned bit for bit."""

    def test_ny_both_planes(self):
        graph, cov = make_dataset("NY", scale=0.3, cv=0.5, hops=4, correlated=True)
        index = build_index(graph, cov, window=4, support_low_alpha=True)
        assert label_fingerprint(index) == (
            "75de5cca6482ac6350ee6f7cdb0adea5161f8ccb948b0411f699343ba6ad2f56"
        )

    @pytest.mark.parametrize(
        "seed, hops, expected",
        [
            (0, 2, "d3b21056b6cdf594aede5cb0a590c357d1db79b693e4593cb2e00da943c3eeac"),
            (1, 3, "5fdd8597772454e8d7ec1d4f054144e87971a24e41bcd28d748cb7e10231ce67"),
        ],
    )
    def test_small_strict_both_planes(self, seed, hops, expected):
        graph, cov = make_correlated_instance(seed, hops=hops)
        index = build_index(
            graph, cov, window=hops, z_max=None, support_low_alpha=True
        )
        assert label_fingerprint(index) == expected
