"""The perf-regression gate (``tools/bench_compare.py``) on synthetic data.

Covers the metrics-sidecar comparison, both noise knobs (relative
threshold, absolute floor), the counters-are-drift-not-failures rule,
and the CLI's exit codes including ``--advisory``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_compare import compare_sidecars, main  # noqa: E402


def _sidecar(
    *,
    mean_s: float = 0.010,
    count: int = 10,
    queries: int = 100,
    p95: "float | None" = None,
) -> dict:
    doc = {
        "schema": "repro.obs.metrics/2",
        "enabled": True,
        "counters": {"engine.queries": {"value": queries}},
        "gauges": {},
        "timers": {
            "engine.answer": {
                "count": count,
                "total_seconds": mean_s * count,
                "min_seconds": mean_s,
                "max_seconds": mean_s,
                "mean_seconds": mean_s,
            }
        },
        "histograms": {},
    }
    if p95 is not None:
        doc["histograms"]["engine.query_seconds"] = {
            "buckets_le": [1.0, "+Inf"],
            "cumulative_counts": [count, count],
            "count": count,
            "total": mean_s * count,
            "p50": p95 / 2,
            "p95": p95,
            "p99": None,  # unobserved quantiles are skipped, not compared
        }
    return doc


class TestCompareSidecars:
    def test_clean_when_identical(self):
        base = _sidecar()
        found, notes = compare_sidecars(
            base, _sidecar(), threshold=0.25, min_seconds=0.005
        )
        assert found == [] and notes == []

    def test_regression_over_threshold(self):
        found, _ = compare_sidecars(
            _sidecar(mean_s=0.010),
            _sidecar(mean_s=0.014),  # +40%
            threshold=0.25,
            min_seconds=0.005,
        )
        [line] = found
        assert "engine.answer" in line and "+40.0%" in line

    def test_within_threshold_is_noise(self):
        found, _ = compare_sidecars(
            _sidecar(mean_s=0.010),
            _sidecar(mean_s=0.012),  # +20% < 25%
            threshold=0.25,
            min_seconds=0.005,
        )
        assert found == []

    def test_absolute_floor_skips_tiny_timers(self):
        # +300%, but a 1 ms baseline sits under the 5 ms floor: pure noise.
        found, _ = compare_sidecars(
            _sidecar(mean_s=0.001),
            _sidecar(mean_s=0.004),
            threshold=0.25,
            min_seconds=0.005,
        )
        assert found == []

    def test_histogram_quantiles_compared(self):
        found, _ = compare_sidecars(
            _sidecar(p95=0.020),
            _sidecar(p95=0.040),
            threshold=0.25,
            min_seconds=0.005,
        )
        assert any("engine.query_seconds/p95" in line for line in found)
        # p50 regressed too (half of p95) — both quantiles flagged.
        assert any("engine.query_seconds/p50" in line for line in found)

    def test_counter_drift_is_note_not_regression(self):
        found, notes = compare_sidecars(
            _sidecar(queries=100),
            _sidecar(queries=140),
            threshold=0.25,
            min_seconds=0.005,
        )
        assert found == []
        [note] = notes
        assert "engine.queries" in note and "+40" in note

    def test_missing_current_metric_skipped(self):
        current = _sidecar()
        del current["timers"]["engine.answer"]
        found, _ = compare_sidecars(
            _sidecar(), current, threshold=0.25, min_seconds=0.005
        )
        assert found == []


class TestCli:
    def _dirs(self, tmp_path, base_doc, cur_doc):
        baseline = tmp_path / "baseline"
        results = tmp_path / "results"
        baseline.mkdir()
        results.mkdir()
        (baseline / "bench.metrics.json").write_text(
            json.dumps(base_doc), encoding="utf-8"
        )
        (results / "bench.metrics.json").write_text(
            json.dumps(cur_doc), encoding="utf-8"
        )
        return baseline, results

    def test_clean_exit_0(self, tmp_path, capsys):
        baseline, results = self._dirs(tmp_path, _sidecar(), _sidecar())
        assert main(["--baseline", str(baseline), "--results", str(results)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_regression_exit_1(self, tmp_path, capsys):
        baseline, results = self._dirs(
            tmp_path, _sidecar(mean_s=0.010), _sidecar(mean_s=0.020)
        )
        assert main(["--baseline", str(baseline), "--results", str(results)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_advisory_never_fails(self, tmp_path, capsys):
        baseline, results = self._dirs(
            tmp_path, _sidecar(mean_s=0.010), _sidecar(mean_s=0.020)
        )
        code = main(
            ["--baseline", str(baseline), "--results", str(results), "--advisory"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "advisory" in out

    def test_missing_fresh_sidecar_skipped(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        results = tmp_path / "results"
        baseline.mkdir()
        results.mkdir()
        (baseline / "bench.metrics.json").write_text(
            json.dumps(_sidecar()), encoding="utf-8"
        )
        # An empty comparison set is a usage error, not a clean pass.
        assert main(["--baseline", str(baseline), "--results", str(results)]) == 2
        assert "skipped" in capsys.readouterr().out

    def test_missing_baseline_dir_exit_2(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        code = main(
            ["--baseline", str(tmp_path / "nope"), "--results", str(results)]
        )
        assert code == 2

    def test_checked_in_baselines_compare_clean_against_themselves(self, capsys):
        """The repo's own baselines vs themselves: no regressions, exit 0."""
        repo = Path(__file__).resolve().parent.parent
        baselines = repo / "benchmarks" / "baselines"
        code = main(
            ["--baseline", str(baselines), "--results", str(baselines)]
        )
        assert code == 0
