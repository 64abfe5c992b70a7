"""CLI tests (direct main() invocation, output captured)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.network.dimacs import write_gr
from conftest import make_random_instance


class TestInfo:
    def test_dataset_info(self, capsys):
        assert main(["info", "--dataset", "NY", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "approx. diameter" in out

    def test_dimacs_info(self, capsys, tmp_path):
        graph = make_random_instance(1, n=12, extra=8)
        gr = tmp_path / "net.gr"
        write_gr(graph, gr)
        assert main(["info", "--gr", str(gr)]) == 0
        assert "12" in capsys.readouterr().out


class TestBuildQueryUpdate:
    @pytest.fixture()
    def index_file(self, tmp_path, capsys):
        file = tmp_path / "ny.json.gz"
        assert (
            main(["build", "--dataset", "NY", "--scale", "0.3", "--output", str(file)])
            == 0
        )
        capsys.readouterr()
        return file

    def test_build_reports_stats(self, tmp_path, capsys):
        file = tmp_path / "idx.json"
        assert (
            main(["build", "--dataset", "NY", "--scale", "0.3", "--output", str(file)])
            == 0
        )
        out = capsys.readouterr().out
        assert "treewidth" in out
        assert file.exists()

    def test_single_query(self, index_file, capsys):
        assert (
            main(
                [
                    "query",
                    "--index",
                    str(index_file),
                    "--source",
                    "0",
                    "--target",
                    "5",
                    "--alpha",
                    "0.9",
                    "--show-paths",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "budget w" in out
        assert "->" in out

    def test_random_queries(self, index_file, capsys):
        assert main(["query", "--index", str(index_file), "--random", "5"]) == 0
        out = capsys.readouterr().out
        assert "5 queries" in out

    def test_query_requires_endpoints(self, index_file, capsys):
        assert main(["query", "--index", str(index_file)]) == 2

    def test_update(self, index_file, capsys):
        assert (
            main(
                [
                    "update",
                    "--index",
                    str(index_file),
                    "--u",
                    "0",
                    "--v",
                    "1",
                    "--mu",
                    "500",
                    "--sigma",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "labels rebuilt" in out

    def test_low_alpha_build(self, tmp_path, capsys):
        file = tmp_path / "low.json"
        assert (
            main(
                [
                    "build",
                    "--dataset",
                    "NY",
                    "--scale",
                    "0.3",
                    "--low-alpha",
                    "--output",
                    str(file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "--index",
                    str(file),
                    "--source",
                    "0",
                    "--target",
                    "5",
                    "--alpha",
                    "0.3",
                ]
            )
            == 0
        )


class TestWorkloadAndReplay:
    @pytest.fixture()
    def index_file(self, tmp_path, capsys):
        file = tmp_path / "ny.json"
        assert (
            main(["build", "--dataset", "NY", "--scale", "0.3", "--output", str(file)])
            == 0
        )
        capsys.readouterr()
        return file

    def test_capture_show_replay_roundtrip(self, index_file, tmp_path, capsys):
        import json

        workload = tmp_path / "wl.json"
        assert (
            main(
                [
                    "workload", "capture",
                    "--index", str(index_file),
                    "--count", "30",
                    "--alpha", "0.9",
                    "--alpha", "0.95",
                    "--output", str(workload),
                ]
            )
            == 0
        )
        assert json.loads(workload.read_text())["schema"] == "repro.workload/2"

        assert main(["workload", "show", str(workload)]) == 0
        out = capsys.readouterr().out
        assert "queries" in out and "30" in out

        report_file = tmp_path / "replay.json"
        assert (
            main(
                [
                    "replay",
                    "--index", str(index_file),
                    "--workload", str(workload),
                    "--report", str(report_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "30/30 digests bit-identical" in out
        report = json.loads(report_file.read_text())
        assert report["schema"] == "repro.replay/2"
        assert report["identical"] is True

    def test_replay_detects_divergence(self, index_file, tmp_path, capsys):
        import json

        workload = tmp_path / "wl.json"
        assert (
            main(
                [
                    "workload", "capture",
                    "--index", str(index_file),
                    "--count", "10",
                    "--output", str(workload),
                ]
            )
            == 0
        )
        doc = json.loads(workload.read_text())
        digest_col = doc["fields"].index("digest")
        doc["records"][0][digest_col] ^= 1
        workload.write_text(json.dumps(doc))
        assert (
            main(["replay", "--index", str(index_file), "--workload", str(workload)])
            == 1
        )
        assert "DIGEST MISMATCH" in capsys.readouterr().out

    def test_replay_rejects_malformed_workload(self, index_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope/1"}')
        assert (
            main(["replay", "--index", str(index_file), "--workload", str(bad)])
            == 2
        )

    def test_query_flight_export(self, index_file, tmp_path, capsys):
        import json

        out_file = tmp_path / "flight.jsonl"
        assert (
            main(
                [
                    "query",
                    "--index", str(index_file),
                    "--random", "5",
                    "--flight", str(out_file),
                ]
            )
            == 0
        )
        lines = out_file.read_text().splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert {"seq", "s", "t", "alpha", "digest"} <= set(first)


class TestBench:
    def test_bench_fast_algorithms(self, capsys):
        assert (
            main(
                [
                    "bench",
                    "--dataset",
                    "NY",
                    "--scale",
                    "0.3",
                    "--queries",
                    "4",
                    "--algorithms",
                    "NRP,TBS",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "NRP" in out and "TBS" in out and "per query" in out
