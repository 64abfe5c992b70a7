"""Flight-recorder overhead: query latency disarmed vs armed.

The flight recorder's contract (docs/observability.md) is two-sided:

- **disarmed** — one attribute check per query, ~0% overhead; and
- **armed**    — <3% mean per-query latency: ``QueryEngine.answer``
  builds the 22-field flight record once and, with the other sinks off,
  hands it to the ring alone.

This benchmark measures mean per-query latency under three
configurations on the same workload:

- ``disabled``       — nothing armed (the default)
- ``flight``         — flight recorder alone
- ``flight+metrics`` — the same record also feeding the metrics registry

The armed budget is enforced here (best-of-N minima are stable enough
for a 3% bound; the disarmed ~0% claim is covered by the tighter <2%
whole-layer budget in ``tests/test_obs_integration.py``).  Also
asserted: every configuration returns bit-identical query values, and
the armed runs record one digest per query matching ``result.digest()``
of the unobserved run — arming the recorder never changes an answer.
"""

from __future__ import annotations

import random
import time

from conftest import QUERIES, SCALE, save_report
from repro import obs
from repro.core.index import NRPIndex
from repro.experiments.reporting import format_table
from repro.network.datasets import make_dataset

_ROUNDS = 7
#: Armed budget: <3% mean per-query latency versus disarmed, plus a small
#: absolute allowance so sub-microsecond timer jitter on tiny workloads
#: cannot fail the gate spuriously.
_ARMED_BUDGET = 0.03
_JITTER_S = 2e-6


def _workload(graph, seed: int = 11):
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    out = []
    while len(out) < QUERIES * 10:
        s, t = rng.choice(vertices), rng.choice(vertices)
        if s != t:
            out.append((s, t, rng.choice((0.8, 0.9, 0.95, 0.99))))
    return out


def _pass(index, workload) -> tuple[float, list[float]]:
    """One timed pass: mean per-query seconds plus the answer values."""
    start = time.perf_counter()
    results = [index.query(s, t, alpha) for s, t, alpha in workload]
    elapsed = time.perf_counter() - start
    return elapsed / len(workload), [r.value for r in results]


def test_flight_overhead():
    graph, _ = make_dataset("NY", scale=SCALE, seed=11)
    index = NRPIndex(graph)
    workload = _workload(graph)
    index.query_batch(workload)  # warm process-level state

    # Reference digests from a fully unobserved run.
    obs.disable()
    obs.reset()
    expected_digests = [
        index.query(s, t, alpha).digest() for s, t, alpha in workload
    ]

    configs = (
        ("disabled", {"metrics": False, "flight": False}),
        ("flight", {"metrics": False, "flight": True}),
        ("flight+metrics", {"metrics": True, "flight": True}),
    )
    # Rounds are interleaved across configurations (round-robin, best-of-N
    # per config) so machine drift over the run biases every configuration
    # equally instead of penalising whichever happens to run last.
    timings = {name: float("inf") for name, _ in configs}
    answers: dict[str, list[float]] = {}
    digests: dict[str, list[int]] = {}
    flight = obs.flight_recorder()
    try:
        for _ in range(_ROUNDS):
            for name, flags in configs:
                obs.disable()
                obs.reset()
                if any(flags.values()):
                    obs.enable(tracing=False, **flags)
                if flags["flight"]:
                    flight.configure(capacity=len(workload))
                per_query, answers[name] = _pass(index, workload)
                timings[name] = min(timings[name], per_query)
                if flags["flight"]:
                    digests[name] = [rec[-1] for rec in flight.records()]
    finally:
        obs.disable()
        obs.reset()
        obs.enable(metrics=True, tracing=False)

    # Arming the recorder must never change an answer, and every armed
    # run's recorded digests must match the unobserved run bit-for-bit.
    assert answers["flight"] == answers["disabled"]
    assert answers["flight+metrics"] == answers["disabled"]
    assert digests["flight"] == expected_digests
    assert digests["flight+metrics"] == expected_digests

    base = timings["disabled"]
    rows = [
        [name, f"{timings[name] * 1e6:.1f} us",
         f"{(timings[name] / base - 1.0) * 100:+.1f}%"]
        for name, _ in configs
    ]
    report = format_table(
        ["configuration", "per-query", "vs disabled"],
        rows,
        title=(
            f"Flight-recorder overhead (NY, scale={SCALE}, "
            f"best of {_ROUNDS} interleaved)"
        ),
    )
    save_report("flight_overhead", report)

    # The armed budget is the flight recorder's headline contract.
    assert timings["flight"] <= base * (1.0 + _ARMED_BUDGET) + _JITTER_S, (
        f"armed flight recorder overhead "
        f"{(timings['flight'] / base - 1.0) * 100:+.1f}% exceeds "
        f"{_ARMED_BUDGET * 100:.0f}% budget"
    )
