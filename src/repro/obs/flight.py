"""The query flight recorder: a bounded ring buffer of per-query records.

Every production incident starts with the same question — *what exactly
did the slow/wrong query do?* — and the metrics registry can only answer
in aggregates while the slow-query log only samples outliers.  The
flight recorder closes that gap: while armed it keeps the last
``capacity`` answered queries as compact structured records (the triple,
alpha, chosen plane, LCA depth, plan/separator-cache hits, per-phase
nanosecond timings, per-proposition prune counts, the degraded flag, and
a bit-exact result digest), overwriting the oldest record once full, so
memory stays bounded no matter how long the process runs.

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

Exports: :meth:`FlightRecorder.to_json` (schema ``repro.obs.flight/2``)
and :meth:`FlightRecorder.write_jsonl` (one record object per line).
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
]

#: Schema identifier stamped on JSON exports of the ring buffer.
FLIGHT_SCHEMA = "repro.obs.flight/2"

#: Field names of one flight record, in tuple order.  ``seq`` (the global
#: query sequence number) is derived at export time, not stored per record.
FLIGHT_FIELDS = (
    "s",
    "t",
    "alpha",
    "plane",            # "high" | "low" | "-"
    "case",             # "trivial" | "ancestor" | "separator" | "degraded"
    "lca_depth",        # -1 when no LCA applies
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

#: The ``/1`` row layout: one more column after ``lca_depth``, the kernel
#: ``backend`` that answered (``"python"`` or ``"vector"``).  Rows in it
#: still load; :func:`records_from_rows` drops that column.
_V1_BACKEND = _F["lca_depth"] + 1
_V1_FIELDS = FLIGHT_FIELDS[:_V1_BACKEND] + ("backend",) + FLIGHT_FIELDS[_V1_BACKEND:]

#: value, mu, variance, num_edges, degraded — the exact payload digested.
_DIGEST_STRUCT = struct.Struct("<dddqB")
_digest_pack = _DIGEST_STRUCT.pack


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


def records_from_rows(
    rows: Iterable[Iterable[Any]], fields: Iterable[str] = FLIGHT_FIELDS
) -> list[tuple]:
    """Row-major JSON arrays (``to_json()["records"]``) back into tuples.

    ``fields`` names the rows' columns: :data:`FLIGHT_FIELDS`, or the
    ``/1`` layout, whose ``backend`` column is dropped on read.
    """
    layout = tuple(fields)
    legacy = layout == _V1_FIELDS
    if not legacy and layout != FLIGHT_FIELDS:
        raise ValueError(
            "flight record field layout does not match this build's "
            "flight-record layout"
        )
    out: list[tuple] = []
    for row in rows:
        rec = tuple(row)
        if len(rec) != len(layout):
            raise ValueError(
                f"flight record has {len(rec)} fields, expected {len(layout)}"
            )
        out.append(rec[:_V1_BACKEND] + rec[_V1_BACKEND + 1:] if legacy else rec)
    return out


#: The process-wide recorder the engine emits into.
_FLIGHT_RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-wide :class:`FlightRecorder` singleton."""
    return _FLIGHT_RECORDER
