"""Deterministic fault injection — the ``failpoint(name)`` hook.

Every IO/commit site in serialization, the maintenance WAL, compaction,
and construction calls :func:`failpoint` with a name from
:data:`CATALOGUE`.  With no schedule armed (the production default) the
hook is a single module-global ``None`` check — cheap enough to sit on
the <2% observability budget (``benchmarks/bench_resilience_overhead.py``
measures it).  Tests arm a :class:`FailpointSchedule` to force IO
errors, torn writes, and mid-batch crashes at exact, reproducible
points:

>>> schedule = FailpointSchedule({"serialization.save.renamed": FaultAction.crash()})
>>> with failpoints(schedule):
...     save_index(index, path)          # doctest: +SKIP
InjectedCrash: serialization.save.renamed

Schedules are explicit or seeded (:meth:`FailpointSchedule.from_seed`
arms a deterministic pseudo-random subset from an *injected* seed); no
ambient randomness is ever consulted, so a failing fuzz case replays
bit-identically from its seed.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.resilience.errors import InjectedCrash, InjectedFaultError

__all__ = [
    "CATALOGUE",
    "FaultAction",
    "FailpointSchedule",
    "failpoint",
    "failpoints",
]

#: Every registered failpoint, name -> where it sits.  Tests iterate this
#: to prove crash-consistency at *each* site; ``FailpointSchedule.fire``
#: rejects unknown names so call sites and schedules cannot drift apart.
CATALOGUE: dict[str, str] = {
    "serialization.save.encoded": "index document encoded, before any write",
    "serialization.save.temp_written": "temp file written, before fsync",
    "serialization.save.synced": "temp file fsynced, before atomic rename",
    "serialization.save.renamed": "renamed over the target, before dir fsync",
    "atomic.temp_written": "generic atomic write: temp file written",
    "atomic.synced": "generic atomic write: temp file fsynced",
    "atomic.renamed": "generic atomic write: renamed over the target",
    "wal.append.written": "batch record appended, before fsync",
    "wal.append.synced": "batch record durable, before returning the LSN",
    "wal.commit.written": "commit record appended, before fsync",
    "wal.truncated": "journal truncated after full commit",
    "maintenance.batch.logged": "WAL append done, before any store mutation",
    "maintenance.plane.updated": "one plane repaired, next plane pending",
    "maintenance.batch.applied": "all planes repaired, caller yet to persist",
    "labelstore.compacted": "columnar store compaction committed",
    "construction.edge_sets.built": "edge-driven sets built (Alg. 3, lines 1-5)",
    "construction.labels.built": "label entries built (Alg. 3, lines 6-10)",
    # Serve-plane sites (the live-daemon chaos harness arms these against
    # a running QueryServer; see docs/serving.md "Chaos testing").
    "serve.worker.batch": "worker took a request off the queue, before answering it",
    "serve.engine.answer": "one request validated and admitted, before the engine call",
    "serve.batch.stall": "mid-request stall point (arm a delay: slow engine)",
    "serve.queue.poll": "worker about to poll the admission queue",
    "serve.response.write": "response encoded, before the socket write",
    "serve.reload.verify": "hot reload: candidate file about to be verified",
    "serve.reload.wal": "hot reload: candidate loaded, before WAL replay",
}


class FaultAction:
    """What an armed failpoint does when it fires."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[str, "Path | str | None"], None]) -> None:
        self._fn = fn

    def __call__(self, name: str, path: "Path | str | None") -> None:
        self._fn(name, path)

    @classmethod
    def crash(cls) -> "FaultAction":
        """Simulate process death: raise :class:`InjectedCrash`."""

        def fire(name: str, path: "Path | str | None") -> None:
            raise InjectedCrash(name)

        return cls(fire)

    @classmethod
    def io_error(cls) -> "FaultAction":
        """Raise a transient :class:`InjectedFaultError` (an ``OSError``)."""

        def fire(name: str, path: "Path | str | None") -> None:
            raise InjectedFaultError(f"injected IO error at {name}")

        return cls(fire)

    @classmethod
    def truncate(cls, keep_bytes: int) -> "FaultAction":
        """Tear the file at the site to ``keep_bytes`` bytes, then crash.

        Models a partial write that never reached the disk: the site must
        pass its file ``path`` to :func:`failpoint` for this to apply.
        """

        def fire(name: str, path: "Path | str | None") -> None:
            if path is not None:
                target = Path(path)
                if target.exists():
                    size = target.stat().st_size
                    with open(target, "r+b") as handle:
                        handle.truncate(min(keep_bytes, size))
            raise InjectedCrash(f"{name} (torn at {keep_bytes} bytes)")

        return cls(fire)

    @classmethod
    def tear(cls, keep_bytes: int) -> "FaultAction":
        """Tear the file at the site to ``keep_bytes`` bytes — *without*
        crashing.

        Models pre-existing damage discovered mid-operation (e.g. a WAL
        torn by an earlier crash that a hot reload now replays): the
        code path continues and must cope with the mutilated file.
        """

        def fire(name: str, path: "Path | str | None") -> None:
            if path is not None:
                target = Path(path)
                if target.exists():
                    size = target.stat().st_size
                    with open(target, "r+b") as handle:
                        handle.truncate(min(keep_bytes, size))

        return cls(fire)

    @classmethod
    def delay(cls, seconds: float) -> "FaultAction":
        """Stall the site for ``seconds`` (a slow disk / slow engine).

        Unlike the raising actions this returns normally, so the caller
        proceeds — late.  Used by the chaos harness to model stalled
        batches and stuck queues without killing anything.
        """

        def fire(name: str, path: "Path | str | None") -> None:
            time.sleep(seconds)

        return cls(fire)


class FailpointSchedule:
    """Which failpoints fire, on which hit, with what action.

    ``plan`` arms the first hit of each named site; :meth:`arm` targets a
    later hit (1-based) for sites that are passed several times.  Every
    hit — armed or not — is counted in :attr:`hits`, so tests can assert
    a site was actually reached.
    """

    def __init__(self, plan: "dict[str, FaultAction] | None" = None) -> None:
        self._armed: dict[tuple[str, int], FaultAction] = {}
        self.hits: dict[str, int] = {}
        for name, action in (plan or {}).items():
            self.arm(name, action)

    def arm(self, name: str, action: FaultAction, hit: int = 1) -> "FailpointSchedule":
        """Arm ``action`` on the ``hit``-th pass through ``name``."""
        if name not in CATALOGUE:
            raise ValueError(f"unknown failpoint {name!r}; see CATALOGUE")
        if hit < 1:
            raise ValueError(f"hit index is 1-based, got {hit}")
        self._armed[(name, hit)] = action
        return self

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        rate: float = 0.5,
        action: "FaultAction | None" = None,
        names: "Iterable[str] | None" = None,
    ) -> "FailpointSchedule":
        """Arm a deterministic pseudo-random subset of sites.

        The injected ``random.Random(seed)`` owns all randomness: the
        same seed arms the same sites in the same order, every run.
        """
        rng = random.Random(seed)
        chosen = action if action is not None else FaultAction.crash()
        schedule = cls()
        for name in sorted(names) if names is not None else sorted(CATALOGUE):
            if rng.random() < rate:
                schedule.arm(name, chosen)
        return schedule

    def fire(self, name: str, path: "Path | str | None") -> None:
        if name not in CATALOGUE:
            raise ValueError(f"failpoint site {name!r} is not in CATALOGUE")
        count = self.hits.get(name, 0) + 1
        self.hits[name] = count
        armed = self._armed.get((name, count))
        if armed is not None:
            armed(name, path)


#: The armed schedule, or None (the production default: hook is a no-op).
_ACTIVE: "FailpointSchedule | None" = None


def failpoint(name: str, path: "Path | str | None" = None) -> None:
    """Fault-injection hook; a no-op unless a schedule is armed.

    ``path`` carries the file a torn-write action should tear; sites
    without a natural file pass nothing (no allocation either way).
    """
    if _ACTIVE is not None:
        _ACTIVE.fire(name, path)


@contextmanager
def failpoints(schedule: FailpointSchedule) -> "Iterator[FailpointSchedule]":
    """Arm ``schedule`` for the duration of the block (tests only)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = schedule
    try:
        yield schedule
    finally:
        _ACTIVE = previous
