"""The query flight recorder: a bounded ring buffer of per-query records.

Every production incident starts with the same question — *what exactly
did the slow/wrong query do?* — and the metrics registry can only answer
in aggregates while the slow-query log only samples outliers.  The
flight recorder closes that gap: while armed it keeps the last
``capacity`` answered queries as compact structured records (the triple,
alpha, chosen plane, LCA depth, kernel backend, plan/separator-cache
hits, per-phase nanosecond timings, per-proposition prune counts, the
degraded flag, and a bit-exact result digest), overwriting the oldest
record once full, so memory stays bounded no matter how long the process
runs.

Design rules, matching the rest of ``repro.obs``:

- **Disarmed by default, near-zero cost while disarmed.**  The engine
  pays one ``enabled`` attribute check per query; the armed cost is
  budgeted at <3% of per-query latency and enforced by
  ``benchmarks/bench_flight_overhead.py``.
- **Leaf module.**  Records arrive as plain tuples and results are
  digested by duck-typed attribute access, so ``repro.obs`` never
  imports ``repro.core`` (the NRP001 layering contract).
- **Replayable.**  A drained recorder is exactly a workload file:
  ``repro workload capture`` persists the records and ``repro replay``
  re-executes the triples and verifies every digest bit-identically
  (see ``repro.experiments.replay``).

Exports: :meth:`FlightRecorder.to_json` (schema ``repro.obs.flight/1``),
:meth:`FlightRecorder.write_jsonl` (one record object per line), and a
compact fixed-width binary codec (:meth:`FlightRecorder.to_binary` /
:func:`unpack_records`) for workloads too large for JSON.
"""

from __future__ import annotations

import json
import struct
import threading
from pathlib import Path
from typing import Any, Iterable
from zlib import crc32

__all__ = [
    "FLIGHT_SCHEMA",
    "FLIGHT_FIELDS",
    "FlightRecorder",
    "get_flight_recorder",
    "result_digest",
    "unpack_records",
]

#: Schema identifier stamped on JSON exports of the ring buffer.
FLIGHT_SCHEMA = "repro.obs.flight/1"

#: Field names of one flight record, in tuple order.  ``seq`` (the global
#: query sequence number) is derived at export time, not stored per record.
FLIGHT_FIELDS = (
    "s",
    "t",
    "alpha",
    "plane",            # "high" | "low" | "-"
    "case",             # "trivial" | "ancestor" | "separator" | "degraded"
    "lca_depth",        # -1 when no LCA applies
    "backend",          # kernels that answered: "python" ("vector" in old files)
    "plan_cache_hit",
    "separator_cache_hit",
    "plan_ns",
    "execute_ns",
    "total_ns",
    "hoplinks",
    "label_lookups",
    "candidate_paths",
    "surviving_paths",
    "concatenations",
    "pruned_prop2",
    "pruned_prop3",
    "pruned_prop5",
    "degraded",
    "digest",           # crc32 of the packed result moments (bit-exact)
)

_F = {name: i for i, name in enumerate(FLIGHT_FIELDS)}

#: Enumerations for the compact binary rendering of the string fields
#: (``"vector"`` stays decodable: files written before the numpy backend
#: was removed carry it).
_PLANES = ("-", "high", "low")
_CASES = ("trivial", "ancestor", "separator", "degraded")
_BACKENDS = ("", "python", "vector")

#: value, mu, variance, num_edges, degraded — the exact payload digested.
_DIGEST_STRUCT = struct.Struct("<dddqB")
_digest_pack = _DIGEST_STRUCT.pack

#: One binary record: q s t | d alpha | BBB plane/case/backend | i lca |
#: BB cache hits | qqq timings | 8q counters | B degraded | I digest.
_RECORD_STRUCT = struct.Struct("<qqdBBBiBBqqqqqqqqqqqBI")
_BINARY_MAGIC = b"NRPFLT1\n"


def result_digest(result: Any) -> int:
    """A bit-exact 32-bit digest of one query result.

    Packs the answer's moments (``value``, ``mu``, ``variance``), the
    path's edge count, and the degraded flag as raw IEEE-754/int bytes —
    so two results digest equal iff they are bit-identical — and CRC-32s
    them.  Duck-typed (any object with those attributes), so the obs leaf
    needs no import of ``repro.core``.
    """
    return crc32(
        _digest_pack(
            result.value,
            result.mu,
            result.variance,
            result.summary.num_edges,
            result.degraded,
        )
    )


class FlightRecorder:
    """Fixed-capacity ring buffer of per-query flight records.

    Hot-path contract: callers check ``enabled`` first and hand
    :meth:`record` a pre-built tuple in :data:`FLIGHT_FIELDS` order; the
    armed cost is one lock, one modulo, one list store, and one
    increment.  The lock matters: ``record`` is a read-modify-write of
    ``_count``/``_ring``, and two concurrent server workers without it
    could clobber one slot and corrupt the ``recorded``/``dropped``
    accounting (the slot index and the count would drift apart).
    """

    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.enabled = False
        self._capacity = 0  # nrplint: guarded-by=_lock
        self._ring: list[tuple | None] = []  # nrplint: guarded-by=_lock
        self._count = 0  # nrplint: guarded-by=_lock
        self._lock = threading.Lock()
        self.configure(capacity)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def recorded(self) -> int:
        """Total queries ever recorded (retained + overwritten)."""
        return self._count

    @property
    def dropped(self) -> int:
        """Records overwritten because the ring wrapped."""
        return max(0, self._count - self._capacity)

    def __len__(self) -> int:
        return min(self._count, self._capacity)

    def configure(self, capacity: int) -> None:
        """Resize the ring (drops all retained records)."""
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        with self._lock:
            self._capacity = capacity
            self._ring = [None] * capacity
            self._count = 0

    def arm(self) -> None:
        self.enabled = True

    def disarm(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all retained records (capacity and armed state are kept)."""
        with self._lock:
            self._ring = [None] * self._capacity
            self._count = 0

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def record(self, rec: tuple) -> None:
        """Store one record tuple (``FLIGHT_FIELDS`` order), evicting the
        oldest once the ring is full.  Thread-safe: the slot index and
        the count advance atomically under one lock."""
        with self._lock:
            count = self._count
            self._ring[count % self._capacity] = rec
            self._count = count + 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple[int, int, list[tuple]]:
        """``(recorded, capacity, retained-oldest-first)`` under ONE lock.

        Every reader goes through this: taking ``_count``, ``dropped``,
        ``first_seq`` and the record list with separate lock acquisitions
        lets a racing ``record()``/``reset()`` interleave between them
        and produce an export whose header disagrees with its rows.
        """
        with self._lock:
            count = self._count
            capacity = self._capacity
            if count <= capacity:
                retained = [r for r in self._ring[:count] if r is not None]
            else:
                pivot = count % capacity
                out = self._ring[pivot:] + self._ring[:pivot]
                retained = [r for r in out if r is not None]
            return count, capacity, retained

    def records(self) -> list[tuple]:
        """Retained records, oldest first (a coherent snapshot)."""
        return self._snapshot()[2]

    def first_seq(self) -> int:
        """Global sequence number of the oldest retained record."""
        count, _, retained = self._snapshot()
        return count - len(retained)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Schema-versioned document: header + row-major record arrays."""
        count, capacity, retained = self._snapshot()
        return {
            "schema": FLIGHT_SCHEMA,
            "capacity": capacity,
            "recorded": count,
            "dropped": max(0, count - capacity),
            "first_seq": count - len(retained),
            "fields": list(FLIGHT_FIELDS),
            "records": [list(rec) for rec in retained],
        }

    def write_jsonl(self, path: "str | Path") -> int:
        """Write one JSON object per retained record; returns the count."""
        count, _, retained = self._snapshot()
        base = count - len(retained)
        lines = []
        for offset, rec in enumerate(retained):
            obj = {"seq": base + offset}
            obj.update(zip(FLIGHT_FIELDS, rec))
            lines.append(json.dumps(obj, separators=(",", ":")))
        Path(path).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )
        return len(lines)

    def to_binary(self) -> bytes:
        """Compact fixed-width binary export (magic + packed records)."""
        _, _, retained = self._snapshot()
        return _BINARY_MAGIC + b"".join(
            pack_record(rec) for rec in retained
        )


def pack_record(rec: tuple) -> bytes:
    """One record tuple -> its fixed-width binary row."""
    return _RECORD_STRUCT.pack(
        rec[_F["s"]],
        rec[_F["t"]],
        rec[_F["alpha"]],
        _PLANES.index(rec[_F["plane"]]),
        _CASES.index(rec[_F["case"]]),
        _BACKENDS.index(rec[_F["backend"]]),
        rec[_F["lca_depth"]],
        int(rec[_F["plan_cache_hit"]]),
        int(rec[_F["separator_cache_hit"]]),
        rec[_F["plan_ns"]],
        rec[_F["execute_ns"]],
        rec[_F["total_ns"]],
        rec[_F["hoplinks"]],
        rec[_F["label_lookups"]],
        rec[_F["candidate_paths"]],
        rec[_F["surviving_paths"]],
        rec[_F["concatenations"]],
        rec[_F["pruned_prop2"]],
        rec[_F["pruned_prop3"]],
        rec[_F["pruned_prop5"]],
        int(rec[_F["degraded"]]),
        rec[_F["digest"]],
    )


def unpack_records(payload: bytes) -> list[tuple]:
    """Decode :meth:`FlightRecorder.to_binary` output back into tuples."""
    if not payload.startswith(_BINARY_MAGIC):
        raise ValueError("not a flight-recorder binary export (bad magic)")
    body = payload[len(_BINARY_MAGIC):]
    if len(body) % _RECORD_STRUCT.size:
        raise ValueError(
            f"torn flight-recorder export: {len(body)} payload bytes is not "
            f"a multiple of the {_RECORD_STRUCT.size}-byte record"
        )
    out: list[tuple] = []
    for row in _RECORD_STRUCT.iter_unpack(body):
        (s, t, alpha, plane, case, backend, lca_depth, plan_hit, sep_hit,
         plan_ns, execute_ns, total_ns, hoplinks, lookups, candidates,
         survivors, concatenations, p2, p3, p5, degraded, digest) = row
        out.append(
            (
                s, t, alpha, _PLANES[plane], _CASES[case], lca_depth,
                _BACKENDS[backend], bool(plan_hit), bool(sep_hit),
                plan_ns, execute_ns, total_ns, hoplinks, lookups, candidates,
                survivors, concatenations, p2, p3, p5, bool(degraded), digest,
            )
        )
    return out


def records_from_rows(rows: Iterable[Iterable[Any]]) -> list[tuple]:
    """Row-major JSON arrays (``to_json()["records"]``) back into tuples."""
    out: list[tuple] = []
    for row in rows:
        rec = tuple(row)
        if len(rec) != len(FLIGHT_FIELDS):
            raise ValueError(
                f"flight record has {len(rec)} fields, "
                f"expected {len(FLIGHT_FIELDS)}"
            )
        out.append(rec)
    return out


#: The process-wide recorder the engine emits into.
_FLIGHT_RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-wide :class:`FlightRecorder` singleton."""
    return _FLIGHT_RECORDER
