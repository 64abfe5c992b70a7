"""Profiling hooks: an opt-in sampling profiler and the slow-query log.

:class:`SamplingProfiler` is a wall-clock stack sampler: a background
thread snapshots the profiled thread's frames every ``interval`` seconds
(via ``sys._current_frames``), aggregating identical stacks.  It answers
"where does the time actually go?" for long construction or maintenance
runs without the 2-5x slowdown of a deterministic tracer — and costs
exactly nothing unless the context manager is entered.

:class:`SlowQueryLog` is the per-query deadline hook: it compares each
answered query's flight record (``total_ns``) against the configured
threshold and, over it, emits one ``repro.obs.slowquery`` log line
carrying enough plan detail (plane, LCA depth, hoplink count,
per-proposition prune counts) to diagnose the query without re-running
it.
"""

from __future__ import annotations

import logging
import sys
import threading
from time import perf_counter

from repro.obs.flight import FLIGHT_FIELDS

__all__ = [
    "SamplingProfiler",
    "SlowQueryLog",
    "get_slow_query_log",
    "PROFILE_SCHEMA",
]

#: Schema identifier stamped on profile JSON exports.
PROFILE_SCHEMA = "repro.obs.profile/1"

#: Logger the slow-query hook writes to (one line per slow query).
SLOW_QUERY_LOGGER = "repro.obs.slowquery"

_TOTAL_NS = FLIGHT_FIELDS.index("total_ns")


class SamplingProfiler:
    """Sample one thread's stack on a wall-clock interval.

    >>> profiler = SamplingProfiler(interval=0.005)
    >>> with profiler:
    ...     heavy_work()
    >>> profiler.top(5)  # [(stack tuple, samples), ...]
    """

    def __init__(self, interval: float = 0.005, max_depth: int = 64) -> None:
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.max_depth = max_depth
        self.samples: dict[tuple[str, ...], int] = {}
        self.total_samples = 0
        self.elapsed = 0.0
        self._target_id: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._started = 0.0

    # ------------------------------------------------------------------
    # Sampling loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target_id)
            if frame is None:
                continue
            # walk from innermost frame outwards, capped at max_depth
            frames: list[str] = []
            f = frame
            while f is not None and len(frames) < self.max_depth:
                code = f.f_code
                frames.append(f"{code.co_name} ({code.co_filename}:{f.f_lineno})")
                f = f.f_back
            stack = tuple(reversed(frames))
            self.samples[stack] = self.samples.get(stack, 0) + 1
            self.total_samples += 1

    # ------------------------------------------------------------------
    # Context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "SamplingProfiler":
        self._target_id = threading.get_ident()
        self._stop.clear()
        self._started = perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.elapsed += perf_counter() - self._started
        return False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def top(self, n: int = 10) -> list[tuple[tuple[str, ...], int]]:
        """The ``n`` most-sampled stacks, heaviest first."""
        return sorted(self.samples.items(), key=lambda kv: -kv[1])[:n]

    def to_json(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "interval_s": self.interval,
            "elapsed_s": self.elapsed,
            "total_samples": self.total_samples,
            "stacks": [
                {"frames": list(stack), "samples": count}
                for stack, count in sorted(
                    self.samples.items(), key=lambda kv: -kv[1]
                )
            ],
        }


class SlowQueryLog:
    """Deadline hook: log one diagnosable line per over-threshold query.

    Disabled until a threshold is set (``threshold_s = None``).  The
    engine calls :meth:`log` with each query's flight record; the line
    contains everything needed to understand the query's cost shape:
    plane direction, LCA depth, hoplink count, candidate/surviving path
    counts, and per-proposition prune counts.
    """

    def __init__(self) -> None:
        self.threshold_s: float | None = None
        self._lock = threading.Lock()
        self.logged = 0  # nrplint: guarded-by=_lock
        self._logger = logging.getLogger(SLOW_QUERY_LOGGER)

    @property
    def enabled(self) -> bool:
        return self.threshold_s is not None

    def configure(self, threshold_s: float | None) -> None:
        """Set (or, with ``None``, clear) the slow-query threshold."""
        if threshold_s is not None and threshold_s < 0.0:
            raise ValueError("threshold must be >= 0")
        self.threshold_s = threshold_s

    def reset(self) -> None:
        """Zero the logged-entry count (the threshold is left configured)."""
        with self._lock:
            self.logged = 0

    def log(self, rec: tuple) -> bool:
        """Emit the slow-query line for one flight record (a tuple in
        :data:`~repro.obs.flight.FLIGHT_FIELDS` order) if its
        ``total_ns`` is at or over the threshold."""
        threshold = self.threshold_s
        if threshold is None or rec[_TOTAL_NS] < threshold * 1e9:
            return False
        f = dict(zip(FLIGHT_FIELDS, rec))
        self._logger.warning(
            "slow query s=%d t=%d alpha=%g case=%s plane=%s elapsed_ms=%.3f "
            "lca_depth=%d hoplinks=%d candidates=%d survivors=%d "
            "pruned_prop2=%d pruned_prop3=%d pruned_prop5=%d concatenations=%d",
            f["s"],
            f["t"],
            f["alpha"],
            f["case"],
            f["plane"],
            f["total_ns"] / 1e6,
            f["lca_depth"],
            f["hoplinks"],
            f["candidate_paths"],
            f["surviving_paths"],
            f["pruned_prop2"],
            f["pruned_prop3"],
            f["pruned_prop5"],
            f["concatenations"],
        )
        # Every server worker logs through this one hook; an unlocked
        # ``+=`` could lose updates (see ``Counter``).
        with self._lock:
            self.logged += 1
        return True


#: The process-wide slow-query hook the engine consults.
_SLOW_QUERY_LOG = SlowQueryLog()


def get_slow_query_log() -> SlowQueryLog:
    """The process-wide :class:`SlowQueryLog` singleton."""
    return _SLOW_QUERY_LOG
