"""Unit tests for the query flight recorder (``repro.obs.flight``).

All tests here use private :class:`FlightRecorder` instances, never the
process-wide singleton, so they cannot interfere with other modules; the
engine-integration side (what the records *contain* for real queries)
lives in ``tests/test_replay.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.flight import (
    FLIGHT_FIELDS,
    FLIGHT_SCHEMA,
    FlightRecorder,
    records_from_rows,
    result_digest,
)


def _rec(i: int) -> tuple:
    """A synthetic but fully-typed record (FLIGHT_FIELDS order)."""
    return (
        i,                  # s
        i + 1,              # t
        0.9,                # alpha
        "high",             # plane
        "separator",        # case
        3,                  # lca_depth
        bool(i % 2),        # plan_cache_hit
        False,              # separator_cache_hit
        1000 + i,           # plan_ns
        2000 + i,           # execute_ns
        3000 + i,           # total_ns
        4, 5, 6, 7, 8,      # hoplinks..concatenations
        1, 2, 3,            # pruned_prop2/3/5
        False,              # degraded
        0xDEAD0000 + i,     # digest
    )


class TestRing:
    def test_starts_disarmed_and_empty(self):
        fr = FlightRecorder(capacity=4)
        assert not fr.enabled
        assert len(fr) == 0
        assert fr.recorded == 0 and fr.dropped == 0
        assert fr.records() == []
        assert fr.first_seq() == 0

    def test_arm_disarm(self):
        fr = FlightRecorder(capacity=4)
        fr.arm()
        assert fr.enabled
        fr.disarm()
        assert not fr.enabled

    def test_records_in_order_before_wrap(self):
        fr = FlightRecorder(capacity=4)
        for i in range(3):
            fr.record(_rec(i))
        assert len(fr) == 3
        assert fr.dropped == 0
        assert [r[0] for r in fr.records()] == [0, 1, 2]
        assert fr.first_seq() == 0

    def test_wraparound_keeps_newest_oldest_first(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.record(_rec(i))
        assert fr.recorded == 10
        assert len(fr) == 4
        assert fr.dropped == 6
        assert [r[0] for r in fr.records()] == [6, 7, 8, 9]
        assert fr.first_seq() == 6

    def test_exact_capacity_boundary(self):
        fr = FlightRecorder(capacity=4)
        for i in range(4):
            fr.record(_rec(i))
        assert fr.dropped == 0
        assert [r[0] for r in fr.records()] == [0, 1, 2, 3]
        fr.record(_rec(4))
        assert fr.dropped == 1
        assert [r[0] for r in fr.records()] == [1, 2, 3, 4]

    def test_reset_keeps_capacity_and_armed_state(self):
        fr = FlightRecorder(capacity=4)
        fr.arm()
        for i in range(6):
            fr.record(_rec(i))
        fr.reset()
        assert fr.enabled            # reset drops data, not the arm state
        assert fr.capacity == 4
        assert len(fr) == 0 and fr.recorded == 0 and fr.dropped == 0

    def test_configure_resizes_and_drops(self):
        fr = FlightRecorder(capacity=2)
        fr.record(_rec(0))
        fr.configure(capacity=8)
        assert fr.capacity == 8
        assert len(fr) == 0

    def test_configure_rejects_nonpositive(self):
        fr = FlightRecorder(capacity=2)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                fr.configure(bad)


class TestExports:
    def test_to_json_shape(self):
        fr = FlightRecorder(capacity=4)
        for i in range(6):
            fr.record(_rec(i))
        doc = fr.to_json()
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["capacity"] == 4
        assert doc["recorded"] == 6
        assert doc["dropped"] == 2
        assert doc["first_seq"] == 2
        assert doc["fields"] == list(FLIGHT_FIELDS)
        assert [row[0] for row in doc["records"]] == [2, 3, 4, 5]
        # Row-major arrays must be JSON-serialisable as-is.
        json.dumps(doc)

    def test_json_row_roundtrip(self):
        fr = FlightRecorder(capacity=8)
        originals = [_rec(i) for i in range(5)]
        for rec in originals:
            fr.record(rec)
        rows = fr.to_json()["records"]
        assert records_from_rows(rows) == originals

    def test_degraded_enum_values_roundtrip(self):
        rec = list(_rec(0))
        fields = dict(zip(FLIGHT_FIELDS, range(len(FLIGHT_FIELDS))))
        rec[fields["plane"]] = "-"
        rec[fields["case"]] = "degraded"
        rec[fields["lca_depth"]] = -1
        rec[fields["degraded"]] = True
        fr = FlightRecorder(capacity=1)
        fr.record(tuple(rec))
        rows = json.loads(json.dumps(fr.to_json()))["records"]
        assert records_from_rows(rows) == [tuple(rec)]

    def test_records_from_rows_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            records_from_rows([[1, 2, 3]])

    def test_write_jsonl(self, tmp_path):
        fr = FlightRecorder(capacity=2)
        for i in range(3):                       # one wrap: seqs 1, 2 survive
            fr.record(_rec(i))
        path = tmp_path / "flight.jsonl"
        assert fr.write_jsonl(path) == 2
        lines = path.read_text(encoding="utf-8").splitlines()
        objs = [json.loads(line) for line in lines]
        assert [o["seq"] for o in objs] == [1, 2]
        assert objs[0]["s"] == 1 and objs[0]["case"] == "separator"
        assert set(objs[0]) == {"seq", *FLIGHT_FIELDS}

    def test_write_jsonl_empty(self, tmp_path):
        fr = FlightRecorder(capacity=2)
        path = tmp_path / "empty.jsonl"
        assert fr.write_jsonl(path) == 0
        assert path.read_text(encoding="utf-8") == ""


class TestResultDigest:
    class _Summary:
        def __init__(self, num_edges: int) -> None:
            self.num_edges = num_edges

    class _Result:
        def __init__(self, value, mu, variance, num_edges, degraded):
            self.value = value
            self.mu = mu
            self.variance = variance
            self.summary = TestResultDigest._Summary(num_edges)
            self.degraded = degraded

    def test_deterministic_and_sensitive(self):
        a = self._Result(1.5, 1.0, 0.25, 7, False)
        b = self._Result(1.5, 1.0, 0.25, 7, False)
        assert result_digest(a) == result_digest(b)
        for mutated in (
            self._Result(1.5000000000000002, 1.0, 0.25, 7, False),  # 1 ulp
            self._Result(1.5, 1.0, 0.25, 8, False),
            self._Result(1.5, 1.0, 0.25, 7, True),
        ):
            assert result_digest(mutated) != result_digest(a)

    def test_is_32_bit(self):
        d = result_digest(self._Result(0.0, 0.0, 0.0, 0, False))
        assert 0 <= d < 2**32


class TestSingleton:
    def test_obs_accessors(self):
        from repro import obs
        from repro.obs.flight import get_flight_recorder

        assert obs.flight_recorder() is get_flight_recorder()
