"""Thread-safety suite: concurrent engine use must stay bit-identical.

The serving plane hammers one engine from several worker threads with
observability armed, which is exactly the regime the three concurrency
bugfixes in this PR protect:

- per-metric locks in ``repro.obs.metrics`` (counter increments are
  read-modify-write),
- the flight recorder's locked ring advance (slot index and count must
  move atomically),
- the engine's :class:`BoundedCache` (locked LRU instead of unlocked
  dict mutation + clear-everything eviction).

The headline test: N threads hammering one engine — metrics on, tracing
off, flight armed — must produce
per-query digests bit-identical to a sequential run of the same
workload.  Plus targeted lost-update tests for each primitive.
"""

from __future__ import annotations

import logging
import random
import sys
import threading

import pytest

from repro import build_index
from repro.core.engine import BoundedCache
from repro.obs import get_flight_recorder, get_registry
from repro.obs.metrics import Counter, Histogram, Timer
from repro.obs.profiling import SLOW_QUERY_LOGGER, SlowQueryLog
from conftest import make_random_instance, random_query

THREADS = 6
PER_THREAD = 40


@pytest.fixture(scope="module")
def conc_index():
    return build_index(make_random_instance(41, n=28, extra=36))


@pytest.fixture()
def observed():
    """Metrics enabled + flight armed for one test, fully restored after."""
    registry = get_registry()
    flight = get_flight_recorder()
    registry.enable()
    flight.configure(1 << 14)
    flight.arm()
    try:
        yield registry, flight
    finally:
        flight.disarm()
        flight.configure(flight.DEFAULT_CAPACITY)
        registry.disable()
        registry.reset()


def _workload(graph, seed: int, count: int):
    """Random triples with deliberate repeats (cache-hit pressure)."""
    rng = random.Random(seed)
    distinct = [random_query(graph, rng) for _ in range(max(4, count // 4))]
    return [distinct[rng.randrange(len(distinct))] for _ in range(count)]


def test_threaded_digests_match_sequential(conc_index, observed):
    engine = conc_index.engine
    workloads = [
        _workload(conc_index.graph, 100 + i, PER_THREAD) for i in range(THREADS)
    ]
    # Sequential ground truth (fresh caches).
    engine.invalidate_plans()
    expected = [
        [engine.answer(s, t, a).digest() for s, t, a in wl]
        for wl in workloads
    ]
    engine.invalidate_plans()
    actual: list = [None] * THREADS
    errors: list = []

    def hammer(slot: int) -> None:
        try:
            digests = []
            for s, t, alpha in workloads[slot]:
                digests.append(engine.answer(s, t, alpha, use_cache=True).digest())
            actual[slot] = digests
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=hammer, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert actual == expected


def test_threaded_flight_recorder_loses_nothing(conc_index, observed):
    """Every threaded query lands in the ring: ``recorded`` must equal
    the exact query count (the unlocked read-modify-write lost updates)."""
    registry, flight = observed
    flight.reset()
    engine = conc_index.engine
    total = THREADS * PER_THREAD

    def hammer(seed: int) -> None:
        for s, t, alpha in _workload(conc_index.graph, 200 + seed, PER_THREAD):
            engine.answer(s, t, alpha)

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert flight.recorded == total
    records = flight.records()
    assert len(records) == total  # capacity 2^14 > total: nothing dropped
    assert all(rec is not None for rec in records)
    # the registry's query counter saw every answer too (locked inc)
    assert registry.counter("engine.queries").value == total


def test_counter_inc_is_atomic():
    counter = Counter("test.conc.counter")
    rounds = 5000

    def spin() -> None:
        for _ in range(rounds):
            counter.inc()

    threads = [threading.Thread(target=spin) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == 8 * rounds


def test_timer_observe_is_atomic():
    timer = Timer("test.conc.timer")
    rounds = 3000

    def spin() -> None:
        for _ in range(rounds):
            timer.observe(0.001)

    threads = [threading.Thread(target=spin) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert timer.count == 6 * rounds
    assert timer.total == pytest.approx(6 * rounds * 0.001)


def test_histogram_observe_is_atomic():
    hist = Histogram("test.conc.hist", buckets=(0.5, 1.5))
    rounds = 3000

    def spin() -> None:
        for _ in range(rounds):
            hist.observe(1.0)

    threads = [threading.Thread(target=spin) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert hist.count == 6 * rounds
    assert hist.cumulative()[-1] == 6 * rounds


def test_flight_record_is_atomic():
    from repro.obs.flight import FLIGHT_FIELDS, FlightRecorder

    recorder = FlightRecorder(capacity=512)
    recorder.arm()
    rec = tuple(range(len(FLIGHT_FIELDS)))
    rounds = 4000

    def spin() -> None:
        for _ in range(rounds):
            recorder.record(rec)

    threads = [threading.Thread(target=spin) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert recorder.recorded == 8 * rounds
    assert recorder.dropped == 8 * rounds - 512
    assert len(recorder.records()) == 512


def test_slow_query_log_count_is_atomic():
    """Every server worker logs through one hook; ``logged`` must count
    each line exactly once under a forced-fine thread switch interval."""
    from repro.obs.flight import FLIGHT_FIELDS

    slow = SlowQueryLog()
    slow.configure(0.0)  # every record is slow
    rec = tuple(
        "-" if name in ("plane", "case", "backend") else 0 for name in FLIGHT_FIELDS
    )
    rounds = 3000
    logger = logging.getLogger(SLOW_QUERY_LOGGER)
    level, interval = logger.level, sys.getswitchinterval()

    def spin() -> None:
        for _ in range(rounds):
            slow.log(rec)

    logger.setLevel(logging.ERROR)  # count the lines, do not emit them
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        logger.setLevel(level)
    assert not any(thread.is_alive() for thread in threads)
    assert slow.logged == 4 * rounds


def test_bounded_cache_concurrent_churn():
    """Concurrent put/get under heavy eviction never corrupts the map."""
    cache = BoundedCache(limit=64)
    errors: list = []

    def churn(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for i in range(4000):
                key = rng.randrange(256)
                value = cache.get(key)
                if value is not None and value != key * 3:
                    errors.append((key, value))
                cache.put(key, key * 3)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(repr(exc))

    threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= 64


def test_bounded_cache_single_entry_eviction_order():
    """Full cache + one insert evicts exactly the least-recently-used key
    (PR 8 replaced clear-everything eviction; this pins the LRU contract)."""
    cache = BoundedCache(limit=4)
    for key in range(4):
        cache.put(key, key * 10)
    assert cache.get(0) == 0  # refresh 0 → key 1 is now the LRU
    cache.put(9, 90)
    assert cache.get(1) is None, "exactly the LRU entry is evicted"
    for key in (0, 2, 3, 9):
        assert cache.get(key) is not None, f"hot key {key} must survive"
    assert len(cache) == 4


def test_bounded_cache_churn_no_lost_entries(conc_index):
    """8 threads of disjoint puts + engine answers: every put survives.

    The keyspace fits the limit, so after the storm every thread's final
    values must all be present (an unlocked dict or wholesale eviction
    loses some), the engine answers must bit-match a sequential run, and
    the whole thing must finish — ``join(timeout=...)`` guards deadlock.
    """
    engine = conc_index.engine
    per_thread = 50
    workers = 8
    cache = BoundedCache(limit=workers * per_thread)
    triples = _workload(conc_index.graph, 4242, per_thread)
    engine.invalidate_plans()
    expected = [engine.answer(s, t, a).digest() for s, t, a in triples]
    engine.invalidate_plans()
    errors: list = []

    def churn(slot: int) -> None:
        try:
            digests = []
            for i, (s, t, alpha) in enumerate(triples):
                cache.put((slot, i), slot * 1000 + i)
                digests.append(engine.answer(s, t, alpha, use_cache=True).digest())
                assert cache.get((slot, i)) == slot * 1000 + i
            if digests != expected:
                errors.append(f"thread {slot}: digests diverged")
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=churn, args=(i,)) for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    stuck = [t for t in threads if t.is_alive()]
    assert not stuck, "cache/engine deadlocked under churn"
    assert not errors, errors
    assert len(cache) == workers * per_thread, "a put was lost"
    for slot in range(workers):
        for i in range(per_thread):
            assert cache.get((slot, i)) == slot * 1000 + i


def test_flight_reset_race_keeps_snapshots_coherent():
    """obs.reset() against an armed, recording ring: every export stays
    internally consistent (header vs rows), and nothing deadlocks.

    Without the one-lock snapshot, ``to_json`` reads ``recorded``,
    ``dropped``, ``first_seq`` and the record list with separate lock
    acquisitions — a racing ``reset()``/``record()`` interleaves between
    them and produces a header that disagrees with its rows (even a
    negative ``first_seq``)."""
    from repro.obs.flight import FLIGHT_FIELDS, FlightRecorder

    recorder = FlightRecorder(capacity=64)
    recorder.arm()
    rec = tuple(range(len(FLIGHT_FIELDS)))
    stop = threading.Event()
    errors: list = []

    def write_storm() -> None:
        try:
            while not stop.is_set():
                recorder.record(rec)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(repr(exc))

    def check_coherence() -> None:
        try:
            for _ in range(400):
                recorder.reset()
                doc = recorder.to_json()
                recorded = doc["recorded"]
                retained = doc["records"]
                assert doc["capacity"] == 64
                assert len(retained) == min(recorded, 64), (
                    f"header says {recorded} recorded but "
                    f"{len(retained)} rows retained"
                )
                assert doc["dropped"] == max(0, recorded - 64)
                assert doc["first_seq"] == recorded - len(retained)
                assert doc["first_seq"] >= 0
                assert all(row == list(rec) for row in retained)
        except Exception as exc:
            errors.append(repr(exc))

    writers = [threading.Thread(target=write_storm) for _ in range(4)]
    checker = threading.Thread(target=check_coherence)
    for thread in writers:
        thread.start()
    checker.start()
    checker.join(timeout=60.0)
    stop.set()
    for thread in writers:
        thread.join(timeout=10.0)
    assert not checker.is_alive(), "reset/export deadlocked against record()"
    assert not any(t.is_alive() for t in writers)
    assert not errors, errors


def test_obs_reset_with_armed_recorder_keeps_accounting():
    """Module-level obs.reset() mid-storm: afterwards a quiet reset gives
    an exactly-empty ring, proving no record() interleaved with the swap."""
    import repro.obs as obs
    from repro.obs.flight import FLIGHT_FIELDS

    flight = get_flight_recorder()
    flight.configure(128)
    flight.arm()
    rec = tuple(range(len(FLIGHT_FIELDS)))
    stop = threading.Event()
    errors: list = []

    def write_storm() -> None:
        try:
            while not stop.is_set():
                flight.record(rec)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(repr(exc))

    writers = [threading.Thread(target=write_storm) for _ in range(4)]
    for thread in writers:
        thread.start()
    try:
        for _ in range(200):
            obs.reset()
            count, capacity, retained = flight._snapshot()
            assert capacity == 128
            assert len(retained) == min(count, capacity)
    finally:
        stop.set()
        for thread in writers:
            thread.join(timeout=10.0)
    assert not any(t.is_alive() for t in writers)
    assert not errors, errors
    stop.set()
    obs.reset()
    assert flight.recorded == 0
    assert flight.records() == []
    flight.disarm()
    flight.configure(flight.DEFAULT_CAPACITY)
