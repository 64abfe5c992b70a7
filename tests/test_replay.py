"""Workload capture and deterministic replay (``repro.experiments.replay``).

The acceptance contract: a captured workload replays with every result
digest reproduced bit-identically — on the same kernels, from a workload
file written when a ``vector`` kernel backend still existed, and across
an index serialisation round-trip.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import build_index, obs
from repro.experiments.replay import (
    REPLAY_SCHEMA,
    WORKLOAD_SCHEMA,
    capture_workload,
    format_replay_report,
    load_workload,
    percentile,
    replay_workload,
    run_capture,
    save_workload,
)
from repro.obs.flight import FLIGHT_FIELDS

from conftest import make_random_instance

_F = {name: i for i, name in enumerate(FLIGHT_FIELDS)}


@pytest.fixture(autouse=True)
def _clean_obs():
    """Capture manipulates the process-wide recorder; leave no residue."""
    yield
    obs.disable()
    obs.reset()


def _triples(graph, count: int, seed: int = 3):
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    out = []
    while len(out) < count:
        s, t = rng.choice(vertices), rng.choice(vertices)
        if s != t:
            out.append((s, t, rng.choice((0.8, 0.9, 0.95, 0.99))))
    return out


@pytest.fixture(scope="module")
def instance():
    graph = make_random_instance(17, n=40, extra=50)
    return graph, build_index(graph)


class TestPercentile:
    def test_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 1.0) == 40.0
        assert percentile(values, 0.5) == 25.0
        assert percentile([7.0], 0.99) == 7.0

    def test_order_independent(self):
        assert percentile([30.0, 10.0, 20.0], 0.5) == 20.0

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestCapture:
    def test_run_capture_restores_recorder_state(self, instance):
        _, index = instance
        recorder = obs.flight_recorder()
        recorder.configure(32)
        assert not recorder.enabled
        records = run_capture(index, _triples(instance[0], 5))
        assert len(records) == 5
        assert not recorder.enabled          # restored
        assert recorder.capacity == 32       # restored
        assert len(recorder) == 0            # configure() dropped the data

    def test_capture_document_shape(self, instance):
        graph, index = instance
        triples = _triples(graph, 20)
        doc = capture_workload(index, triples)
        assert doc["schema"] == WORKLOAD_SCHEMA
        assert doc["meta"]["queries"] == 20
        assert doc["meta"]["use_pruning"] is True
        assert doc["meta"]["vertices"] == graph.num_vertices
        assert doc["meta"]["edges"] == graph.num_edges
        assert doc["meta"]["backends"] == ["python"]
        assert doc["fields"] == list(FLIGHT_FIELDS)
        assert len(doc["records"]) == 20
        # Triples round-trip in capture order.
        assert [(r[0], r[1], r[2]) for r in doc["records"]] == triples
        json.dumps(doc)  # persistable as-is

    def test_save_load_roundtrip(self, instance, tmp_path):
        graph, index = instance
        doc = capture_workload(index, _triples(graph, 10))
        path = tmp_path / "wl.json"
        save_workload(doc, path)
        assert load_workload(path) == doc

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/1"}), encoding="utf-8")
        with pytest.raises(ValueError, match="not a workload file"):
            load_workload(path)

    def test_load_rejects_field_drift(self, instance, tmp_path):
        graph, index = instance
        doc = capture_workload(index, _triples(graph, 3))
        doc["fields"] = doc["fields"][:-1]
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="field layout"):
            load_workload(path)


class TestReplay:
    def test_same_backend_bit_identical(self, instance):
        graph, index = instance
        workload = capture_workload(index, _triples(graph, 50))
        report = replay_workload(index, workload)
        assert report["schema"] == REPLAY_SCHEMA
        assert report["identical"] is True
        assert report["queries"] == 50
        assert report["digest_matches"] == 50
        assert report["digest_mismatches"] == []
        assert report["latency"]["baseline"]["count"] == 50
        assert set(report["latency"]["delta_ns"]) == {
            "mean_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns"
        }
        text = format_replay_report(report)
        assert "50/50 digests bit-identical" in text

    def test_cross_backend_1000_queries_bit_identical(self, instance, tmp_path):
        """1000 queries from a workload file that says ``vector`` (written
        while the numpy backend existed) still load and replay digest-clean
        on the reference kernels."""
        graph, index = instance
        captured = capture_workload(index, _triples(graph, 1000))
        for record in captured["records"]:
            record[_F["backend"]] = "vector"
        captured["meta"]["backends"] = ["vector"]
        path = tmp_path / "old.json"
        save_workload(captured, path)
        report = replay_workload(index, load_workload(path))
        assert report["identical"] is True, report["digest_mismatches"][:3]
        assert report["digest_matches"] == 1000
        # The per-backend counter report keys each run by its backend.
        assert set(report["counters"]) == {"python", "vector"}

    def test_replay_across_serialization_roundtrip(self, instance, tmp_path):
        from repro.core.serialization import load_index, save_index

        graph, index = instance
        workload = capture_workload(index, _triples(graph, 30))
        path = tmp_path / "idx.nrp.json"
        save_index(index, path)
        reloaded = load_index(path)
        report = replay_workload(reloaded, workload)
        assert report["identical"] is True

    def test_divergence_detected_and_reported(self, instance):
        graph, index = instance
        workload = capture_workload(index, _triples(graph, 10))
        workload["records"][4][_F["digest"]] ^= 1  # flip one digest bit
        report = replay_workload(index, workload)
        assert report["identical"] is False
        assert report["digest_matches"] == 9
        [mismatch] = report["digest_mismatches"]
        assert mismatch["seq"] == 4
        assert mismatch["s"] == workload["records"][4][0]
        assert mismatch["expected_digest"] != mismatch["actual_digest"]
        assert "1 DIGEST MISMATCH" in format_replay_report(report)

    def test_replay_empty_workload_rejected(self, instance):
        _, index = instance
        with pytest.raises(ValueError, match="empty workload"):
            replay_workload(
                index,
                {"schema": WORKLOAD_SCHEMA, "records": [], "meta": {}},
            )

    def test_pruning_flag_honoured_from_meta(self, instance):
        graph, index = instance
        workload = capture_workload(
            index, _triples(graph, 20), use_pruning=False
        )
        assert workload["meta"]["use_pruning"] is False
        # Replaying with the recorded flag still reproduces the digests.
        report = replay_workload(index, workload)
        assert report["identical"] is True
