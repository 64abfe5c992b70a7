"""Chaos harness: a live daemon absorbing a deterministic 3-fault schedule.

Boots a real :class:`repro.serve.server.QueryServer` (real sockets, real
worker pool, fast watchdog) and drives it with 8 closed-loop *resilient*
clients while a :class:`FailpointSchedule` injects three serve-plane
faults at exact hit counts:

- a worker **crash** mid-request (``serve.worker.batch``) — the watchdog
  must respawn the thread and the stranded request must be retried,
- an engine **IO error** on one request's engine call
  (``serve.engine.answer``) — the worker must answer it ``internal``
  and the client must retry,
- a **torn response line** (``serve.response.write``) — the client must
  reconnect and retry.

Acceptance (the same three invariants as ``tests/test_chaos_serve.py``,
here under concurrent load): every final answer is bit-identical to the
direct engine path, every armed fault actually fired, and the daemon
recovers to HEALTHY with a full worker pool after the schedule disarms —
no restart, bounded recovery time.

CI runs this file as the chaos-smoke step of the fault-injection job;
locally: ``PYTHONPATH=src python -m pytest benchmarks/bench_chaos.py``.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from conftest import QUERIES, SCALE, save_report
from repro.core.index import NRPIndex
from repro.experiments.reporting import format_table
from repro.network.datasets import make_dataset
from repro.resilience.errors import InjectedCrash, InjectedFaultError
from repro.resilience.failpoints import FailpointSchedule, FaultAction, failpoints
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.health import HEALTHY
from repro.serve.server import QueryServer

pytestmark = pytest.mark.faultinject

_CLIENTS = 8
_DISTINCT = 10
_RECOVERY_TIMEOUT_S = 10.0


def _wait_until(predicate, timeout: float, interval: float = 0.02) -> float:
    """Poll until true; returns elapsed seconds (or the timeout)."""
    start = time.monotonic()
    deadline = start + timeout
    while time.monotonic() < deadline:
        if predicate():
            return time.monotonic() - start
        time.sleep(interval)
    return time.monotonic() - start


def test_chaos_smoke():
    graph, _ = make_dataset("NY", scale=min(SCALE, 0.25), seed=7)
    index = NRPIndex(graph)
    rng = random.Random(13)
    vertices = list(graph.vertices())
    triples = []
    while len(triples) < _DISTINCT:
        s, t = rng.choice(vertices), rng.choice(vertices)
        if s != t:
            triples.append((s, t, rng.choice((0.8, 0.9, 0.95))))
    per_client = max(25, QUERIES * 2)
    # Ground truth before any fault is armed.
    expected = {
        (s, t, a): index.engine.answer(s, t, a).digest() for (s, t, a) in triples
    }

    # The deterministic 3-fault schedule (exact sites, exact hit counts).
    schedule = (
        FailpointSchedule()
        .arm("serve.worker.batch", FaultAction.crash(), hit=2)
        .arm("serve.engine.answer", FaultAction.io_error(), hit=5)
        .arm("serve.response.write", FaultAction.io_error(), hit=3)
    )
    armed_sites = ("serve.worker.batch", "serve.engine.answer", "serve.response.write")

    # Injected crashes kill worker threads by design; keep the default
    # excepthook's tracebacks out of the benchmark output.
    previous_hook = threading.excepthook

    def quiet_hook(args):
        if isinstance(args.exc_value, (InjectedCrash, InjectedFaultError)):
            return
        previous_hook(args)

    threading.excepthook = quiet_hook
    failures: list = []
    budgets: list[dict] = []
    try:
        with QueryServer(
            index, workers=2, watchdog_interval_s=0.05
        ) as qs:

            def client_loop(seed: int) -> None:
                try:
                    policy = RetryPolicy(
                        retries=8, backoff_base_s=0.02, backoff_max_s=0.2, seed=seed
                    )
                    with ServeClient(port=qs.port, retry=policy) as client:
                        rng = random.Random(seed)
                        for i in range(per_client):
                            s, t, a = triples[rng.randrange(_DISTINCT)]
                            resp = client.query(s, t, a, id=i, resilient=True)
                            if not resp.get("ok"):
                                failures.append(resp)
                            elif resp["digest"] != expected[(s, t, a)]:
                                failures.append((resp, expected[(s, t, a)]))
                        budgets.append(dict(client.retry_stats))
                except Exception as exc:  # surface thread errors
                    failures.append(repr(exc))

            load_start = time.perf_counter()
            with failpoints(schedule):
                threads = [
                    threading.Thread(target=client_loop, args=(seed,))
                    for seed in range(_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
            load_s = time.perf_counter() - load_start

            # Recovery: HEALTHY with a full pool, without a restart.
            recovery_s = _wait_until(
                lambda: qs._workers_alive() == qs.workers
                and qs.monitor.state == HEALTHY,
                _RECOVERY_TIMEOUT_S,
            )
            assert qs._workers_alive() == qs.workers
            assert qs.monitor.state == HEALTHY, qs.monitor.snapshot()
            snap = qs.stats.snapshot()
            transitions = len(qs.monitor.snapshot()["transitions"])
    finally:
        threading.excepthook = previous_hook

    # 1. No wrong answers, no unserved requests.
    assert failures == [], failures[:5]
    # 2. Every armed fault actually fired.
    for site in armed_sites:
        assert schedule.hits.get(site, 0) >= 1, (site, schedule.hits)
    # 3. The crash was healed by a respawn, not a restart.
    assert snap["worker_restarts"] >= 1

    total = _CLIENTS * per_client
    retries = sum(b["retries"] for b in budgets)
    reconnects = sum(b["reconnects"] for b in budgets)
    report = format_table(
        ["quantity", "value"],
        [
            ["clients x queries", f"{_CLIENTS} x {per_client} = {total}"],
            ["fault sites armed / fired", f"{len(armed_sites)} / {len(armed_sites)}"],
            ["wrong answers", "0"],
            ["retries spent (all clients)", retries],
            ["reconnects (all clients)", reconnects],
            ["worker restarts", snap["worker_restarts"]],
            ["health transitions", transitions],
            ["load wall time", f"{load_s:.2f} s"],
            ["recovery to HEALTHY", f"{recovery_s * 1e3:.0f} ms"],
        ],
        title=f"Chaos smoke (NY, scale={min(SCALE, 0.25)}): 3 faults, 8 clients",
    )
    save_report("chaos", report)
