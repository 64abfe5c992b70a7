"""CLI resilience surface: ``index verify``, exit codes, recovery, deadlines.

Exit-code contract (also in the CLI module docstring):

* ``0`` success, ``1`` damaged (verify), ``2`` usage/validation,
* ``3`` corrupt index file, ``4`` truncated, ``5`` unknown format.
"""

from __future__ import annotations

import pytest

from conftest import make_random_instance
from repro import build_index, save_index
from repro.cli import main
from repro.resilience import (
    FailpointSchedule,
    FaultAction,
    InjectedCrash,
    WriteAheadLog,
    failpoints,
)

pytestmark = pytest.mark.faultinject


@pytest.fixture()
def index_file(tmp_path):
    path = tmp_path / "net.nrp"
    save_index(build_index(make_random_instance(7)), path)
    return path


def _query_args(path, *extra):
    return [
        "query", "--index", str(path),
        "--source", "0", "--target", "9", "--alpha", "0.9",
        *extra,
    ]


class TestVerify:
    def test_intact_index(self, index_file, capsys):
        assert main(["index", "verify", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "checksummed" in out and "verified" in out

    def test_truncated_index(self, index_file, capsys):
        index_file.write_bytes(index_file.read_bytes()[:50])
        assert main(["index", "verify", str(index_file)]) == 1
        assert "damaged" in capsys.readouterr().err

    def test_corrupt_index(self, index_file, capsys):
        blob = bytearray(index_file.read_bytes())
        blob[-1] ^= 0x01
        index_file.write_bytes(bytes(blob))
        assert main(["index", "verify", str(index_file)]) == 1
        assert "damaged" in capsys.readouterr().err

    def test_not_an_index(self, tmp_path, capsys):
        junk = tmp_path / "junk.nrp"
        junk.write_bytes(b"hello world")
        assert main(["index", "verify", str(junk)]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["index", "verify", str(tmp_path / "absent.nrp")]) == 2


class TestExitCodes:
    def test_query_corrupt_file_exits_3(self, index_file, capsys):
        blob = bytearray(index_file.read_bytes())
        blob[-1] ^= 0x01
        index_file.write_bytes(bytes(blob))
        assert main(_query_args(index_file)) == 3

    def test_query_truncated_file_exits_4(self, index_file, capsys):
        index_file.write_bytes(index_file.read_bytes()[:50])
        assert main(_query_args(index_file)) == 4

    def test_query_unknown_format_exits_5(self, index_file, capsys):
        index_file.write_bytes(b'{"format": 99, "not": "an index"}')
        assert main(_query_args(index_file)) == 5

    def test_invalid_alpha_exits_2(self, index_file, capsys):
        # 1.5 lies outside (0, 1); 0.3 needs the low plane this index lacks.
        for alpha in ("1.5", "0.3"):
            args = _query_args(index_file)
            args[args.index("0.9")] = alpha
            assert main(args) == 2
            assert "alpha" in capsys.readouterr().err


class TestDeadline:
    def test_degraded_rows_are_marked(self, index_file, capsys):
        assert main(_query_args(index_file, "--deadline-ms", "0.0001")) == 0
        captured = capsys.readouterr()
        assert " *" in captured.out
        assert "deadline" in captured.err

    def test_generous_deadline_is_unmarked(self, index_file, capsys):
        assert main(_query_args(index_file, "--deadline-ms", "60000")) == 0
        captured = capsys.readouterr()
        assert " *" not in captured.out
        assert "deadline" not in captured.err


class TestRecovery:
    def test_query_replays_interrupted_update(self, index_file, capsys):
        """Crash mid-update, then a plain query recovers and answers."""
        wal_path = index_file.with_name(index_file.name + ".wal")
        schedule = FailpointSchedule().arm(
            "maintenance.batch.applied", FaultAction.crash()
        )
        update = [
            "update", "--index", str(index_file),
            "--u", "0", "--v", "9", "--mu", "9.5", "--sigma", "1.5",
        ]
        with pytest.raises(InjectedCrash):
            with failpoints(schedule):
                main(update)
        assert WriteAheadLog(wal_path).pending()  # journaled, uncommitted

        assert main(_query_args(index_file)) == 0
        captured = capsys.readouterr()
        assert "recovered" in captured.err
        assert not wal_path.exists()

        # Second run: nothing left to replay.
        assert main(_query_args(index_file)) == 0
        assert "recovered" not in capsys.readouterr().err
