"""Chaos suite: deterministic faults against a *live* query daemon.

Each test arms a :class:`FailpointSchedule` on one (or a seeded subset)
of the ``serve.*`` catalogue sites while a real :class:`QueryServer`
answers real sockets, then asserts the three self-healing invariants
from docs/serving.md:

1. **No wrong answers** — every ``ok`` response carries a digest
   bit-identical to the direct engine path, no matter what was failing
   around it.  Unavailability is bounded and *typed* (``internal``,
   ``circuit_open``, ``expired``, a torn line), never silent corruption.
2. **Correct health transitions** — crashes surface as DEGRADED/DOWN in
   the monitor's transition log before the watchdog heals them.
3. **Clean recovery** — after the schedule disarms, the daemon climbs
   back to HEALTHY with a full worker pool and answers correctly,
   without a restart.

All scheduling is seeded/explicit (no ambient randomness), so every
failure here replays bit-identically.  CI runs this file in the
dedicated fault-injection job (``pytest -m faultinject``).
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import build_index
from repro.core.serialization import save_index
from repro.resilience.errors import InjectedCrash, InjectedFaultError
from repro.resilience.failpoints import FailpointSchedule, FaultAction, failpoints
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.health import DEGRADED, DOWN, HEALTHY, CircuitBreaker
from repro.serve.server import QueryServer
from conftest import make_random_instance, random_query

pytestmark = pytest.mark.faultinject


# ----------------------------------------------------------------------
# Fixtures and helpers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_index():
    return build_index(make_random_instance(55, n=24, extra=30))


@pytest.fixture(scope="module")
def chaos_queries(chaos_index):
    """A fixed workload plus its ground-truth digests (computed before
    any fault is armed)."""
    rng = random.Random(56)
    queries = [random_query(chaos_index.graph, rng) for _ in range(15)]
    expected = {
        (s, t, a): chaos_index.engine.answer(s, t, a).digest()
        for (s, t, a) in queries
    }
    return queries, expected


@pytest.fixture(scope="module")
def index_file(chaos_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "chaos.nrp"
    save_index(chaos_index, path)
    return path


@pytest.fixture(autouse=True)
def quiet_injected_thread_deaths(monkeypatch):
    """Injected crashes kill worker threads *by design*; keep their
    tracebacks out of the test output (anything else still prints)."""

    def hook(args):
        if isinstance(args.exc_value, (InjectedCrash, InjectedFaultError)):
            return
        threading.__excepthook__(args)

    monkeypatch.setattr(threading, "excepthook", hook)


def wait_until(predicate, timeout: float = 8.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def fast_retry(retries: int = 8) -> RetryPolicy:
    return RetryPolicy(retries=retries, backoff_base_s=0.02, backoff_max_s=0.2, seed=0)


def assert_parity(responses, expected) -> None:
    """Every response must be ok and bit-identical to the direct engine."""
    for (s, t, a), resp in responses:
        assert resp.get("ok"), (s, t, a, resp)
        assert resp["digest"] == expected[(s, t, a)], (s, t, a, resp)


# ----------------------------------------------------------------------
# Worker crash -> watchdog respawn -> HEALTHY
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def test_crashed_worker_is_respawned_and_no_answer_is_wrong(
        self, chaos_index, chaos_queries
    ):
        queries, expected = chaos_queries
        with QueryServer(
            chaos_index, workers=2, watchdog_interval_s=0.05
        ) as qs:
            schedule = FailpointSchedule().arm(
                "serve.worker.batch", FaultAction.crash()
            )
            responses = []
            with failpoints(schedule):
                with ServeClient(port=qs.port, retry=fast_retry()) as client:
                    for s, t, a in queries:
                        responses.append(
                            ((s, t, a), client.query(s, t, a, resilient=True))
                        )
            # 1. No wrong answers, bounded unavailability (retries absorbed it).
            assert_parity(responses, expected)
            assert schedule.hits["serve.worker.batch"] >= 1
            # 2. The crash was *seen*: a DEGRADED or DOWN transition exists.
            assert wait_until(
                lambda: any(
                    t["to"] in (DEGRADED, DOWN)
                    for t in qs.monitor.snapshot()["transitions"]
                )
            ), qs.monitor.snapshot()
            # 3. Clean recovery without a restart: full pool, HEALTHY state.
            assert wait_until(lambda: qs._workers_alive() == 2)
            assert wait_until(lambda: qs.monitor.state == HEALTHY)
            assert qs.stats.snapshot()["worker_restarts"] >= 1
            with ServeClient(port=qs.port) as client:
                resp = client.query(*queries[0])
            assert resp["ok"] and resp["digest"] == expected[queries[0]]

    def test_poll_loop_crash_strands_nothing(self, chaos_index, chaos_queries):
        """A worker dying at the queue-poll site (holding no request) must
        not strand any request: the other worker (or the respawn) serves."""
        queries, expected = chaos_queries
        with QueryServer(
            chaos_index, workers=2, watchdog_interval_s=0.05
        ) as qs:
            schedule = FailpointSchedule().arm(
                "serve.queue.poll", FaultAction.crash()
            )
            responses = []
            with failpoints(schedule):
                # The idle poll loop reaches the site almost immediately.
                assert wait_until(
                    lambda: schedule.hits.get("serve.queue.poll", 0) >= 1
                )
                with ServeClient(port=qs.port, retry=fast_retry()) as client:
                    for s, t, a in queries[:8]:
                        responses.append(
                            ((s, t, a), client.query(s, t, a, resilient=True))
                        )
            assert_parity(responses, expected)
            assert wait_until(lambda: qs._workers_alive() == 2)
            assert wait_until(lambda: qs.monitor.state == HEALTHY)


# ----------------------------------------------------------------------
# Engine failures -> circuit breaker -> half-open recovery
# ----------------------------------------------------------------------
class TestCircuitBreakerLive:
    def test_breaker_opens_sheds_and_recovers(self, chaos_index, chaos_queries):
        queries, expected = chaos_queries
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=0.3)
        with QueryServer(
            chaos_index,
            workers=1,
            breaker=breaker,
            watchdog_interval_s=0.05,
        ) as qs:
            schedule = FailpointSchedule()
            for hit in range(1, 21):
                schedule.arm("serve.engine.answer", FaultAction.io_error(), hit=hit)
            seen: list[str] = []
            with failpoints(schedule):
                with ServeClient(port=qs.port) as client:
                    for s, t, a in queries:
                        resp = client.query(s, t, a)
                        seen.append(resp.get("error") if not resp.get("ok") else "ok")
                        if resp.get("error") == "circuit_open":
                            break
                engine_hits = schedule.hits["serve.engine.answer"]
            # Exactly threshold failures reached the engine, then the
            # breaker shed at admission without burning worker time.
            assert seen[:3] == ["internal", "internal", "internal"]
            assert seen[-1] == "circuit_open"
            assert engine_hits == 3
            assert breaker.state == "open"
            assert qs.stats.snapshot()["circuit_open"] >= 1
            # The watchdog saw the open circuit as pressure.
            assert wait_until(
                lambda: any(
                    t["to"] == DEGRADED
                    for t in qs.monitor.snapshot()["transitions"]
                )
            )
            # Disarmed + timeout elapsed: the half-open trial closes it.
            time.sleep(0.35)
            with ServeClient(port=qs.port) as client:
                resp = client.query(*queries[0])
                health = client.health()
            assert resp["ok"] and resp["digest"] == expected[queries[0]]
            assert breaker.state == "closed"
            assert health["circuit"]["state"] == "closed"
            assert wait_until(lambda: qs.monitor.state == HEALTHY)


# ----------------------------------------------------------------------
# Hot reload: rollback on damage, live swap, torn-WAL tolerance
# ----------------------------------------------------------------------
class TestHotReload:
    def _stream(self, qs, queries, expected, stop, failures):
        try:
            with ServeClient(port=qs.port) as client:
                i = 0
                while not stop.is_set():
                    s, t, a = queries[i % len(queries)]
                    i += 1
                    resp = client.query(s, t, a)
                    if not resp.get("ok"):
                        failures.append(resp)
                    elif resp["digest"] != expected[(s, t, a)]:
                        failures.append((resp, expected[(s, t, a)]))
        except Exception as exc:  # surface thread errors to the test
            failures.append(repr(exc))

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_corrupt_candidate_rolls_back_with_zero_inflight_failures(
        self, chaos_index, chaos_queries, index_file, tmp_path, damage
    ):
        queries, expected = chaos_queries
        bad = tmp_path / f"{damage}.nrp"
        if damage == "garbage":
            bad.write_bytes(b"this is not an index file\n" * 20)
        else:
            raw = index_file.read_bytes()
            bad.write_bytes(raw[: len(raw) // 2])
        with QueryServer(
            chaos_index, workers=2, index_path=str(index_file)
        ) as qs:
            stop = threading.Event()
            failures: list = []
            streams = [
                threading.Thread(
                    target=self._stream,
                    args=(qs, queries, expected, stop, failures),
                )
                for _ in range(4)
            ]
            for thread in streams:
                thread.start()
            try:
                time.sleep(0.1)  # streams in full flight
                with ServeClient(port=qs.port) as client:
                    ack = client.reload(str(bad))
                time.sleep(0.1)  # keep streaming after the rollback
            finally:
                stop.set()
                for thread in streams:
                    thread.join(timeout=10.0)
            # The reload refused with the damage taxonomy, nothing leaked
            # into the serving path, and not one in-flight request failed.
            assert not ack["ok"] and ack["error"] == "reload_failed"
            assert "Error" in ack["detail"]  # taxonomy class name included
            assert failures == []
            snap = qs.stats.snapshot()
            assert snap["reload_failures"] == 1 and snap["reloads"] == 0
            with ServeClient(port=qs.port) as client:
                resp = client.query(*queries[0])  # still the old index
            assert resp["ok"] and resp["digest"] == expected[queries[0]]

    def test_reload_verify_fault_rolls_back(self, chaos_index, index_file):
        """An injected IO error at the verify site refuses identically to
        real damage: old index keeps serving."""
        with QueryServer(chaos_index, index_path=str(index_file)) as qs:
            schedule = FailpointSchedule().arm(
                "serve.reload.verify", FaultAction.io_error()
            )
            with failpoints(schedule):
                with ServeClient(port=qs.port) as client:
                    ack = client.reload()
            assert not ack["ok"] and ack["error"] == "reload_failed"
            assert "InjectedFaultError" in ack["detail"]
            with ServeClient(port=qs.port) as client:
                assert client.ping()["ok"]

    def test_live_swap_serves_old_or_new_never_garbage(
        self, chaos_index, chaos_queries, index_file, tmp_path
    ):
        """During a successful reload every answer matches the old engine
        or the new one — never a torn in-between."""
        queries, expected_old = chaos_queries
        new_index = build_index(make_random_instance(77, n=24, extra=30))
        expected_new = {
            (s, t, a): new_index.engine.answer(s, t, a).digest()
            for (s, t, a) in queries
        }
        new_path = tmp_path / "new.nrp"
        save_index(new_index, new_path)
        with QueryServer(
            chaos_index, workers=2, index_path=str(index_file)
        ) as qs:
            stop = threading.Event()
            failures: list = []

            def stream():
                try:
                    with ServeClient(port=qs.port) as client:
                        i = 0
                        while not stop.is_set():
                            s, t, a = queries[i % len(queries)]
                            i += 1
                            resp = client.query(s, t, a)
                            if not resp.get("ok"):
                                failures.append(resp)
                            elif resp["digest"] not in (
                                expected_old[(s, t, a)],
                                expected_new[(s, t, a)],
                            ):
                                failures.append(resp)
                except Exception as exc:
                    failures.append(repr(exc))

            streams = [threading.Thread(target=stream) for _ in range(4)]
            for thread in streams:
                thread.start()
            try:
                time.sleep(0.1)
                with ServeClient(port=qs.port) as client:
                    ack = client.reload(str(new_path))
                time.sleep(0.1)
            finally:
                stop.set()
                for thread in streams:
                    thread.join(timeout=10.0)
            assert ack["ok"] and ack["path"] == str(new_path)
            assert failures == []
            assert qs.stats.snapshot()["reloads"] == 1
            assert qs.index_path == str(new_path)
            # Post-swap answers come from the new index, bit-identically.
            with ServeClient(port=qs.port) as client:
                pong = client.ping()
                resp = client.query(*queries[0])
            assert pong["n"] == new_index.graph.num_vertices
            assert resp["ok"] and resp["digest"] == expected_new[queries[0]]

    def test_reload_discards_wal_torn_mid_record(
        self, chaos_index, chaos_queries, index_file, tmp_path
    ):
        """A WAL torn mid-record at reload time (the tear fires *at* the
        serve.reload.wal site) recovers the committed prefix: the reload
        succeeds with zero replays and the journal is cleaned up."""
        queries, expected = chaos_queries
        candidate = tmp_path / "candidate.nrp"
        candidate.write_bytes(index_file.read_bytes())
        wal_path = tmp_path / "candidate.nrp.wal"
        wal_path.write_bytes(b'{"lsn": 1, "op": "batch", "changes": [[0, 1')
        with QueryServer(chaos_index, index_path=str(index_file)) as qs:
            schedule = FailpointSchedule().arm(
                "serve.reload.wal", FaultAction.tear(4)
            )
            with failpoints(schedule):
                with ServeClient(port=qs.port) as client:
                    ack = client.reload(str(candidate))
            assert ack["ok"] and ack["replayed"] == 0
            assert not wal_path.exists()  # truncated away after recovery
            with ServeClient(port=qs.port) as client:
                resp = client.query(*queries[0])
            assert resp["ok"] and resp["digest"] == expected[queries[0]]

    def test_concurrent_reloads_refused_not_queued(self, chaos_index, index_file):
        with QueryServer(chaos_index, index_path=str(index_file)) as qs:
            acks: list = []
            schedule = FailpointSchedule().arm(
                "serve.reload.verify", FaultAction.delay(0.4)
            )
            with failpoints(schedule):
                first = threading.Thread(
                    target=lambda: acks.append(qs.reload())
                )
                first.start()
                time.sleep(0.1)  # first reload is inside the stall
                second = qs.reload()
                first.join(timeout=10.0)
            assert not second["ok"]
            assert "already in progress" in second["detail"]
            assert acks and acks[0]["ok"]


# ----------------------------------------------------------------------
# Stalls and torn responses
# ----------------------------------------------------------------------
class TestStallsAndTornWrites:
    def test_stalled_batch_answers_late_not_wrong(
        self, chaos_index, chaos_queries
    ):
        queries, expected = chaos_queries
        with QueryServer(chaos_index, workers=1) as qs:
            schedule = FailpointSchedule().arm(
                "serve.batch.stall", FaultAction.delay(0.3)
            )
            with failpoints(schedule):
                started = time.monotonic()
                with ServeClient(port=qs.port) as client:
                    resp = client.query(*queries[0])
                elapsed = time.monotonic() - started
            assert resp["ok"] and resp["digest"] == expected[queries[0]]
            assert elapsed >= 0.25  # the stall really happened

    def test_torn_response_line_recovers_via_reconnect(
        self, chaos_index, chaos_queries
    ):
        queries, expected = chaos_queries
        with QueryServer(chaos_index, workers=1) as qs:
            schedule = FailpointSchedule().arm(
                "serve.response.write", FaultAction.io_error()
            )
            with failpoints(schedule):
                with ServeClient(port=qs.port, retry=fast_retry()) as client:
                    resp = client.query(*queries[0], resilient=True)
                    reconnects = client.retry_stats["reconnects"]
            assert resp["ok"] and resp["digest"] == expected[queries[0]]
            assert reconnects >= 1  # the torn line forced a redial


# ----------------------------------------------------------------------
# Seeded schedules: arbitrary fault mixes, same three invariants
# ----------------------------------------------------------------------
class TestSeededSchedules:
    SITES = (
        "serve.worker.batch",
        "serve.engine.answer",
        "serve.queue.poll",
        "serve.response.write",
        "serve.batch.stall",
    )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_any_seeded_mix_yields_no_wrong_answers(
        self, chaos_index, chaos_queries, seed
    ):
        queries, expected = chaos_queries
        schedule = FailpointSchedule.from_seed(
            seed, rate=0.7, action=FaultAction.io_error(), names=self.SITES
        )
        with QueryServer(
            chaos_index, workers=2, watchdog_interval_s=0.05
        ) as qs:
            responses = []
            with failpoints(schedule):
                with ServeClient(port=qs.port, retry=fast_retry()) as client:
                    for s, t, a in queries:
                        responses.append(
                            ((s, t, a), client.query(s, t, a, resilient=True))
                        )
            assert_parity(responses, expected)
            assert wait_until(lambda: qs._workers_alive() == 2)
            assert wait_until(lambda: qs.monitor.state == HEALTHY)
