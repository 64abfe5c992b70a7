"""Deadline guards, graceful degradation, and query validation.

A degraded answer is never garbage: it is the exact mean-shortest path
with exact moments, flagged ``degraded=True`` and counted, so callers can
tell a fallback from a full Algorithm-1 answer.
"""

from __future__ import annotations

import math

import pytest

import repro.obs as obs
from conftest import make_correlated_instance, make_random_instance
from repro import build_index
from repro.baselines.dijkstra import shortest_mean_path
from repro.resilience import DeadlineExpired, QueryValidationError, ResilienceError
from repro.resilience.degraded import mean_shortest_path

TIGHT = 1e-9  # expires before planning finishes
GENEROUS = 60.0


@pytest.fixture(scope="module")
def index():
    return build_index(make_random_instance(11))


@pytest.fixture(scope="module")
def correlated_index():
    graph, cov = make_correlated_instance(13)
    return build_index(graph, cov, window=1)


class TestDeadline:
    def test_generous_deadline_changes_nothing(self, index):
        exact = index.query(0, 5, 0.9)
        guarded = index.query(0, 5, 0.9, deadline_s=GENEROUS)
        assert not guarded.degraded
        assert guarded.value == exact.value
        assert guarded.path == exact.path

    def test_tight_deadline_degrades_instead_of_failing(self, index):
        result = index.query(0, 5, 0.9, deadline_s=TIGHT)
        assert result.degraded
        assert result.value > 0.0

    def test_degraded_path_is_valid_with_exact_moments(self, index):
        result = index.query(0, 5, 0.9, deadline_s=TIGHT)
        route = result.path
        assert route[0] == 0 and route[-1] == 5
        mu, var = index.graph.path_mean_variance(route)
        assert result.mu == pytest.approx(mu)
        assert result.variance == pytest.approx(var)
        assert result.value == pytest.approx(mu + 1.2815515655446004 * math.sqrt(var))

    def test_degraded_is_exact_at_alpha_half(self, index):
        """At alpha=0.5 the optimum IS the mean-shortest path."""
        exact = index.query(2, 9, 0.5)
        degraded = index.query(2, 9, 0.5, deadline_s=TIGHT)
        assert degraded.degraded
        assert degraded.value == pytest.approx(exact.value)

    def test_degraded_correlated_moments_fold_the_covariance(self, correlated_index):
        index = correlated_index
        result = index.query(0, 7, 0.9, deadline_s=TIGHT)
        assert result.degraded
        mu, var = mean_shortest_path(index.graph, 0, 7)[0], None
        assert result.mu == pytest.approx(mu)
        # Correlated variance comes from the summary fold, not a plain sum;
        # it must still be finite and non-negative.
        assert result.variance >= 0.0

    def test_trivial_query_degrades_cleanly(self, index):
        result = index.query(4, 4, 0.9, deadline_s=TIGHT)
        assert result.degraded
        assert result.value == 0.0 and result.mu == 0.0

    def test_deadline_expired_is_a_resilience_error(self):
        assert issubclass(DeadlineExpired, ResilienceError)


class TestValidation:
    def test_bad_alpha_is_not_swallowed_by_the_deadline_guard(self, index):
        with pytest.raises(QueryValidationError, match="alpha"):
            index.query(0, 5, 1.5, deadline_s=TIGHT)

    def test_unknown_vertex_rejected(self, index):
        # With and without a deadline, either endpoint, and s == t (which
        # must not short-circuit to a phantom zero-cost answer).
        for deadline_s in (GENEROUS, None):
            for s, t in ((0, 10**6), (10**6, 0), (10**6, 10**6)):
                with pytest.raises(QueryValidationError, match="not in the indexed"):
                    index.query(s, t, 0.9, deadline_s=deadline_s)
                with pytest.raises(QueryValidationError, match="not in the indexed"):
                    index.query_batch([(0, 5, 0.9), (s, t, 0.9)], deadline_s=deadline_s)

    def test_validation_errors_stay_valueerrors(self, index):
        with pytest.raises(ValueError):
            index.query(0, 5, 0.0)


class TestObservability:
    def test_degraded_counter(self, index):
        obs.enable(metrics=True, tracing=False)
        try:
            counter = obs.registry().counter("resilience.query.degraded")
            base = counter.value
            index.query(0, 5, 0.9, deadline_s=GENEROUS)
            assert counter.value == base  # on-time query: no increment
            index.query(0, 5, 0.9, deadline_s=TIGHT)
            assert counter.value == base + 1
        finally:
            obs.reset()


class TestSingleDijkstra:
    """There is exactly one mean-Dijkstra; both entry points agree."""

    def test_baseline_delegates_to_resilience(self, index):
        graph = index.graph
        for s, t in [(0, 5), (2, 9), (1, 11)]:
            cost_a, route_a = shortest_mean_path(graph, s, t)
            cost_b, route_b = mean_shortest_path(graph, s, t)
            assert cost_a == cost_b
            assert route_a == route_b

    def test_unreachable_raises(self, index):
        with pytest.raises(ValueError):
            mean_shortest_path(index.graph, 0, 10**6)
