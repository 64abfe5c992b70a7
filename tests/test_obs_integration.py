"""Integration tests for the observability layer.

The three contracts that make ``repro.obs`` safe to wire through every
layer of the core:

1. **Observation never changes results** — the golden engine suite runs
   bit-identical with metrics + tracing enabled (construction included).
2. **The disabled path is near-free** — the query hot path pays one
   combined ``enabled`` guard; its measured cost must stay under 2% of
   the per-query latency (the `bench_queries_micro` budget).
3. **Exports match the checked-in schema** — every CLI/registry document
   validates against ``docs/obs_schema.json`` via
   ``tools/check_obs_schema.py`` (the same check CI runs).

Plus the satellite regression: the ancestor-case ``surviving ==
candidate`` behaviour of :class:`QueryStats` is intentional and locked.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import random
import time
from pathlib import Path

import pytest

import golden_tool
from conftest import make_correlated_instance, make_random_instance
from repro import build_index, obs
from repro.cli import main as cli_main
from repro.core.kernels import reference
from repro.core.query import QueryStats

_CHECKER_PATH = Path(__file__).parent.parent / "tools" / "check_obs_schema.py"
_spec = importlib.util.spec_from_file_location("check_obs_schema", _CHECKER_PATH)
check_obs_schema = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_obs_schema)

_SCHEMAS = json.loads(
    (Path(__file__).parent.parent / "docs" / "obs_schema.json").read_text()
)


def _assert_valid(path: Path) -> None:
    errors = check_obs_schema.check_file(path, _SCHEMAS)
    assert not errors, errors


@pytest.fixture(autouse=True)
def _obs_clean():
    """Observability is process-wide state; every test starts and ends off."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ----------------------------------------------------------------------
# 1. Observation never changes results
# ----------------------------------------------------------------------
class TestGoldenWithObservation:
    """The golden suite re-run with the full layer on: construction,
    queries, and explanations must match the checked-in file bit-for-bit
    (the same file ``test_engine_equivalence`` checks with the layer off)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(golden_tool.GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("name", sorted(golden_tool.INSTANCES))
    def test_instance_matches_golden_with_obs_enabled(self, golden, name):
        obs.enable(metrics=True, tracing=True)
        obs.slow_query_log().configure(3600.0)
        try:
            index = golden_tool.INSTANCES[name]()
            assert golden_tool.snapshot_instance(name, index) == golden[name]
        finally:
            obs.slow_query_log().configure(None)
        # ...and the layer actually observed the run.
        assert obs.registry().counter("engine.queries").value > 0
        assert len(obs.tracer()) > 0


# ----------------------------------------------------------------------
# 2. Disabled-path overhead budget
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_guard_within_two_percent(self):
        """With observation off, ``answer()`` pays exactly one combined
        guard (``registry.enabled or tracer.enabled or slow.enabled or
        flight.enabled``);
        separator/plan-cache guards sit behind cache misses.  Measure the
        guard against real per-query latency and budget two guards per
        query for slack: still < 2%."""
        index = build_index(make_random_instance(99, n=24, extra=20, cv=0.6))
        rng = random.Random(5)
        vertices = sorted(index.graph.vertices())
        workload = []
        while len(workload) < 60:
            s, t = rng.choice(vertices), rng.choice(vertices)
            if s != t:
                workload.append((s, t, rng.choice((0.8, 0.9, 0.95))))

        def best_of(runs, fn):
            best = float("inf")
            for _ in range(runs):
                started = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - started)
            return best

        per_query = best_of(
            5, lambda: [index.query(s, t, a) for s, t, a in workload]
        ) / len(workload)

        engine = index.engine
        n = 200_000

        def guard_loop():
            for _ in range(n):
                if (
                    engine._registry.enabled
                    or engine._tracer.enabled
                    or engine._slow_log.enabled
                    or engine._flight.enabled
                ):
                    pass

        def empty_loop():
            for _ in range(n):
                pass

        guard = (best_of(5, guard_loop) - best_of(5, empty_loop)) / n
        assert 2 * guard < 0.02 * per_query, (
            f"guard {guard * 1e9:.1f} ns/query x2 exceeds 2% of "
            f"{per_query * 1e6:.1f} us per query"
        )

    def test_disabled_records_nothing(self):
        index = build_index(make_random_instance(7, n=12, extra=8))
        obs.reset()
        index.query(0, 5, 0.9)
        doc = obs.registry().to_json()
        assert all(c["value"] == 0 for c in doc["counters"].values())
        assert len(obs.tracer()) == 0


# ----------------------------------------------------------------------
# 3. QueryStats <-> registry mirror
# ----------------------------------------------------------------------
class TestRegistryMirror:
    def test_counters_match_query_stats(self):
        index = build_index(make_random_instance(17, n=16, extra=12, cv=0.5))
        obs.reset()
        obs.enable(metrics=True, tracing=False)
        stats = QueryStats()
        rng = random.Random(3)
        vertices = sorted(index.graph.vertices())
        queries = 0
        while queries < 30:
            s, t = rng.choice(vertices), rng.choice(vertices)
            if s == t:
                continue
            index.query(s, t, rng.choice((0.8, 0.9, 0.95)), stats=stats)
            queries += 1
        registry = obs.registry()
        for name, value in stats.as_dict().items():
            assert registry.counter(f"engine.{name}").value == value, name
        assert registry.counter("engine.queries").value == queries
        # Prune counters attribute every pruned path to exactly one rule.
        doc = obs.registry().to_json()["counters"]
        pruned = (
            doc["engine.prune.prop2"]["value"]
            + doc["engine.prune.prop3"]["value"]
            + doc["engine.prune.prop5"]["value"]
        )
        assert pruned == stats.candidate_paths - stats.surviving_paths

    @pytest.mark.parametrize("deadline_s", [None, 5.0])
    def test_every_sink_sees_the_same_queries(self, deadline_s, caplog):
        """With all four sinks armed, the registry, the slow-query log and
        the tracer each account for exactly the queries the flight ring
        recorded, whether or not a deadline is armed."""
        index = build_index(make_random_instance(17, n=16, extra=12, cv=0.5))
        rng = random.Random(4)
        vertices = sorted(index.graph.vertices())
        workload = [
            (rng.choice(vertices), rng.choice(vertices), rng.choice((0.8, 0.95)))
            for _ in range(40)
        ]
        obs.enable(metrics=True, tracing=True, flight=True)
        obs.slow_query_log().configure(0.0)
        with caplog.at_level(logging.WARNING, logger=obs.SLOW_QUERY_LOGGER):
            for s, t, alpha in workload[:20]:
                index.query(s, t, alpha, deadline_s=deadline_s)
            index.query_batch(workload[20:], deadline_s=deadline_s)

        records = obs.flight_recorder().records()
        assert len(records) == len(workload)
        field = {name: i for i, name in enumerate(obs.FLIGHT_FIELDS)}
        registry = obs.registry()
        assert registry.counter("engine.queries").value == len(records)
        for counter, name in (
            ("engine.hoplinks", "hoplinks"),
            ("engine.label_lookups", "label_lookups"),
            ("engine.candidate_paths", "candidate_paths"),
            ("engine.surviving_paths", "surviving_paths"),
            ("engine.concatenations", "concatenations"),
            ("engine.prune.prop2", "pruned_prop2"),
            ("engine.prune.prop3", "pruned_prop3"),
            ("engine.prune.prop5", "pruned_prop5"),
        ):
            total = sum(rec[field[name]] for rec in records)
            assert registry.counter(counter).value == total, counter
        assert registry.timer("engine.answer").count == len(records)
        assert registry.counter("engine.prune.prop2").value > 0  # pruning ran

        lines = [r for r in caplog.records if r.name == obs.SLOW_QUERY_LOGGER]
        assert len(lines) == len(records)
        assert obs.slow_query_log().logged == len(records)

        spans = obs.tracer().spans
        answers = [sp for sp in spans if sp.name == "engine.answer"]
        assert len(answers) == len(records)
        for answer in answers:
            children = {sp.name for sp in spans if sp.parent == answer.id}
            assert children == {"engine.plan", "engine.execute"}

    def test_ancestor_case_surviving_equals_candidate(self):
        """Satellite regression: in the ancestor case there is no opposite
        label set, so Algorithm-2 pair pruning never runs and every
        candidate path survives — ``surviving_paths == candidate_paths``
        is intentional, documented in :class:`QueryStats`, and locked
        here."""
        index = build_index(make_random_instance(23, n=16, extra=12, cv=0.5))
        td = index.td
        pair = None
        for v in sorted(index.graph.vertices()):
            ancestors = [u for u in td.ancestors(v) if u != v]
            if ancestors:
                pair = (v, ancestors[-1])
                break
        assert pair is not None
        s, t = pair
        plan = index.engine.plan(s, t, 0.9)
        assert plan.case == "ancestor"
        stats = QueryStats()
        index.query(s, t, 0.9, stats=stats)
        assert stats.candidate_paths > 0
        assert stats.surviving_paths == stats.candidate_paths


class TestKernelCallsFromRecords:
    """No registry counter tracks kernel calls: a query's calls are a
    function of its flight record (the table in docs/observability.md).
    Counting wrappers on the kernel module, the way perfbench times the
    kernels from outside, must agree with that function on both answer
    paths, both planes and both pruning settings."""

    KERNELS = ("prune_independent", "prune_correlated_keep", "scan_pairs", "best_label")
    FIELD = {name: i for i, name in enumerate(obs.FLIGHT_FIELDS)}

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = dict.fromkeys(self.KERNELS, 0)
        for name in self.KERNELS:
            original = getattr(reference, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                counted[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(reference, name, wrapper)
        return counted

    @classmethod
    def expected_calls(cls, records, correlated, pruning):
        field = cls.FIELD
        expected = dict.fromkeys(cls.KERNELS, 0)
        prune = "prune_correlated_keep" if correlated else "prune_independent"
        for rec in records:
            case, hoplinks = rec[field["case"]], rec[field["hoplinks"]]
            if case == "ancestor":
                expected["best_label"] += 1
            elif case == "separator":
                if (
                    pruning
                    and rec[field["plane"]] == "high"
                    and not rec[field["plan_cache_hit"]]
                ):
                    expected[prune] += 2 * hoplinks
                if not correlated:
                    expected["scan_pairs"] += hoplinks
        return expected

    @pytest.mark.parametrize("correlated", [False, True], ids=["independent", "correlated"])
    def test_calls_follow_from_records(self, correlated, calls):
        if correlated:
            graph, cov = make_correlated_instance(5, n=12, extra=10)
            index = build_index(graph, cov, window=2, support_low_alpha=True)
        else:
            index = build_index(
                make_random_instance(17, n=16, extra=12, cv=0.5),
                support_low_alpha=True,
            )
        rng = random.Random(8)
        vertices = sorted(index.graph.vertices())
        distinct = [
            (rng.choice(vertices), rng.choice(vertices), rng.choice((0.3, 0.8, 0.95)))
            for _ in range(30)
        ]
        distinct.append((vertices[0], vertices[0], 0.9))
        workload = distinct + distinct[:15]  # repeats hit the plan cache
        obs.enable(metrics=True, tracing=False, flight=True)
        seen = dict.fromkeys(("ancestor", "separator", "cached", "low"), 0)
        for pruning in (True, False):
            for batch in (False, True):
                obs.flight_recorder().reset()
                for name in calls:
                    calls[name] = 0
                if batch:
                    index.query_batch(workload, use_pruning=pruning)
                else:
                    for s, t, alpha in workload:
                        index.query(s, t, alpha, use_pruning=pruning)
                records = obs.flight_recorder().records()
                assert len(records) == len(workload)
                assert calls == self.expected_calls(records, correlated, pruning)
                field = self.FIELD
                for rec in records:
                    case = rec[field["case"]]
                    if case in seen:
                        seen[case] += 1
                    if case == "separator" and rec[field["hoplinks"]]:
                        seen["cached"] += bool(rec[field["plan_cache_hit"]])
                        seen["low"] += rec[field["plane"]] == "low"
        # The workload reaches every term of the formula.
        assert all(seen.values()), seen


# ----------------------------------------------------------------------
# 4. CLI surfaces + schema validation
# ----------------------------------------------------------------------
class TestCliAndSchemas:
    @pytest.fixture(scope="class")
    def index_file(self, tmp_path_factory):
        file = tmp_path_factory.mktemp("obs") / "ny.nrp.json"
        assert (
            cli_main(
                ["build", "--dataset", "NY", "--scale", "0.3", "--output", str(file)]
            )
            == 0
        )
        return file

    def test_traced_query_writes_valid_chrome_trace(
        self, index_file, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert (
            cli_main(
                [
                    "query",
                    "--index",
                    str(index_file),
                    "--random",
                    "4",
                    "--trace",
                    str(trace),
                    "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine.queries" in out  # metrics table printed
        document = json.loads(trace.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert {"engine.answer", "engine.plan", "engine.execute"} <= names
        _assert_valid(trace)

    def test_traced_query_flat_json_format(self, index_file, tmp_path):
        trace = tmp_path / "trace_flat.json"
        assert (
            cli_main(
                [
                    "query",
                    "--index",
                    str(index_file),
                    "--random",
                    "2",
                    "--trace",
                    str(trace),
                    "--trace-format",
                    "json",
                ]
            )
            == 0
        )
        document = json.loads(trace.read_text())
        assert document["schema"] == "repro.obs.trace/1"
        parents = {s["id"]: s["parent"] for s in document["spans"]}
        assert any(p in parents for p in parents.values())  # real nesting
        _assert_valid(trace)

    def test_profile_output_validates(self, index_file, tmp_path):
        profile = tmp_path / "profile.json"
        assert (
            cli_main(
                [
                    "query",
                    "--index",
                    str(index_file),
                    "--random",
                    "3",
                    "--profile",
                    str(profile),
                ]
            )
            == 0
        )
        assert json.loads(profile.read_text())["schema"] == "repro.obs.profile/1"
        _assert_valid(profile)

    def test_obs_dump_json_validates(self, tmp_path, capsys):
        dump = tmp_path / "metrics.json"
        assert (
            cli_main(
                [
                    "obs",
                    "dump",
                    "--dataset",
                    "NY",
                    "--scale",
                    "0.2",
                    "--output",
                    str(dump),
                ]
            )
            == 0
        )
        document = json.loads(dump.read_text())
        assert document["schema"] == "repro.obs.metrics/2"
        # A dump exercises build + queries + one maintenance update, and
        # pre-registration exposes never-hit metrics at zero.
        assert document["counters"]["engine.queries"]["value"] > 0
        assert document["counters"]["maintenance.updates"]["value"] == 1
        assert "labelstore.compactions" in document["counters"]
        _assert_valid(dump)

    def test_obs_dump_prometheus(self, capsys):
        assert (
            cli_main(
                ["obs", "dump", "--dataset", "NY", "--scale", "0.2", "--format", "prom"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_queries_total counter" in out
        assert "repro_engine_query_seconds_bucket" in out

    def test_validator_rejects_broken_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"schema": "repro.obs.metrics/1", "enabled": "yes"})
        )
        errors = check_obs_schema.check_file(bad, _SCHEMAS)
        assert errors and any("enabled" in e for e in errors)
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"schema": "repro.obs.metrics/9"}))
        assert check_obs_schema.check_file(unknown, _SCHEMAS)


# ----------------------------------------------------------------------
# 4. obs.reset() drops every component's recorded state
# ----------------------------------------------------------------------
class TestFullReset:
    def test_reset_clears_all_recorded_state(self):
        """Regression: ``obs.reset()`` must reset *all four* components —
        registry, tracer, slow-query log, and flight recorder — not just
        the registry (the slow log and flight ring were once missed)."""
        graph = make_random_instance(5)
        obs.enable(flight=True)
        obs.slow_query_log().configure(0.0)  # threshold 0: log everything
        index = build_index(graph)
        rng = random.Random(9)
        vertices = list(graph.vertices())
        for _ in range(5):
            s, t = rng.sample(vertices, 2)
            index.query(s, t, 0.9)

        assert obs.registry().counter("engine.queries").value > 0
        assert len(obs.tracer()) > 0
        assert obs.slow_query_log().logged > 0
        assert len(obs.flight_recorder()) > 0

        obs.reset()

        assert obs.registry().counter("engine.queries").value == 0
        assert len(obs.tracer()) == 0
        assert obs.slow_query_log().logged == 0
        assert len(obs.flight_recorder()) == 0
        assert obs.flight_recorder().recorded == 0
        # reset drops data, not configuration/armed state.
        assert obs.registry().enabled
        assert obs.tracer().enabled
        assert obs.slow_query_log().enabled
        assert obs.flight_recorder().enabled

    def test_disable_disarms_flight_recorder(self):
        obs.enable(flight=True)
        assert obs.flight_recorder().enabled
        obs.disable()
        assert not obs.flight_recorder().enabled
