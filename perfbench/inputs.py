"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is made here from the run's
``--seed``: the query triples, the Poisson arrival offsets, the Zipf
popularity stream and the edge-weight change batches.  The road networks
themselves are the repository's fixed synthetic datasets (dataset seed 7,
as in every experiment of the reproduction), so a run's set-up cost and
index size depend on the dataset and not on the seed.

Distance bands are the paper's Q1-Q5 (Section VI-A) as
``repro.experiments.workloads.distance_query_sets`` draws them: a pair
lies in band ``i`` when its mean distance lies in
``[d_max/2^(6-i), d_max/2^(5-i))``.  Alphas come from that module's
``alpha_query_sets`` (band ``i`` uniform in ``[0.4 + 0.1 i, 0.5 + 0.1 i]``,
clamped to ``(0.5, 0.999]``).  Only the spreading of pairs over sources is
the benchmark's own: it needs thousands of distinct pairs per run.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterator

DATASET_SEED = 7

Triple = tuple  # (s, t, alpha)


def make_graph(spec: dict):
    """The workload's dataset graph and covariance store (fixed, not seeded)."""
    from repro.network.datasets import make_dataset

    return make_dataset(
        spec["dataset"],
        scale=spec["scale"],
        cv=0.5,
        hops=4,
        correlated=spec["correlated"],
        seed=DATASET_SEED,
    )


def banded_pairs(graph, per_band: int, seed: int) -> list[list[tuple[int, int]]]:
    """Up to ``per_band`` distinct ``(s, t)`` pairs in each of the bands Q1..Q5.

    Pairs are drawn round-robin over sources, one new target per source
    and band per round, so every band spreads over as many sources as the
    dataset allows.
    """
    from repro.baselines.dijkstra import approximate_diameter, dijkstra

    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    # Swept from a fixed vertex, so d_max (and the band edges) do not
    # depend on the seed.
    d_max = approximate_diameter(graph, seeds=vertices[:1])
    edges = [d_max / 2 ** (6 - i) for i in range(1, 6)] + [d_max]
    sources = vertices[:]
    rng.shuffle(sources)
    # targets[s][b]: s's targets in band b, in a seeded random order.
    targets = {}
    for s in sources:
        by_band: list[list[int]] = [[] for _ in range(5)]
        for t, d in dijkstra(graph, s)[0].items():
            band = bisect.bisect_right(edges, d) - 1
            if 0 <= band < 5 and t != s:
                by_band[band].append(t)
        for band in by_band:
            band.sort()
            rng.shuffle(band)
        targets[s] = by_band
    bands: list[list[tuple[int, int]]] = [[] for _ in range(5)]
    for depth in range(len(vertices)):
        progressed = False
        for s in sources:
            for b in range(5):
                if len(bands[b]) < per_band and depth < len(targets[s][b]):
                    bands[b].append((s, targets[s][b][depth]))
                    progressed = True
        if not progressed or all(len(b) >= per_band for b in bands):
            break
    if not all(bands):
        raise ValueError(f"dataset has an empty distance band: {[len(b) for b in bands]}")
    return bands


def distinct_triples(graph, count: int, seed: int) -> list[Triple]:
    """``count`` distinct triples, Q1..Q5 and the five alpha bands in equal shares.

    The list cycles through the distance bands, so every prefix is
    balanced.  Alphas are continuous, so no triple repeats and the plan
    cache cannot hit.  Pairs repeat only when a band of the dataset holds
    fewer than ``count / 5`` pairs (then the separator cache can hit on
    them).
    """
    from repro.experiments.workloads import Query, alpha_query_sets

    per_band = -(-count // 5)
    bands = banded_pairs(graph, per_band, seed)
    pairs = [bands[i % 5][(i // 5) % len(bands[i % 5])] for i in range(count)]
    by_alpha = alpha_query_sets([Query(s, t, 0.0) for s, t in pairs], seed=seed + 1)
    # Triple i takes its alpha from band (i + i // 5) % 5, so both the
    # distance and the alpha bands cycle through every prefix.
    return [
        (q.source, q.target, q.alpha)
        for q in (by_alpha[(i + i // 5) % 5 + 1][i] for i in range(count))
    ]


def zipf_stream(popular: list[Triple], exponent: float, seed: int) -> Iterator[Triple]:
    """An endless Zipf-distributed stream over the popular triples."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(popular))]
    cumulative = []
    total = 0.0
    for w in weights:
        total += w
        cumulative.append(total)
    while True:
        yield popular[bisect.bisect_left(cumulative, rng.random() * total)]


def poisson_offsets(rate: float, duration: float, seed: int) -> list[float]:
    """Arrival offsets (seconds from the phase start) of a Poisson process."""
    rng = random.Random(seed)
    offsets = []
    at = rng.expovariate(rate)
    while at < duration:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


def change_batches(graph, batches: int, size: int, seed: int) -> list[list[tuple]]:
    """Seeded edge-weight change batches ``[(u, v, mu, variance), ...]``.

    Each change scales one edge's mean and variance by a factor in
    ``[0.8, 1.25]``, relative to the weights the previous batches left.
    """
    rng = random.Random(seed)
    weights = {(u, v): (w.mu, w.variance) for u, v, w in graph.edges()}
    keys = sorted(weights)
    out = []
    for _ in range(batches):
        batch = []
        for key in rng.sample(keys, size):
            mu, var = weights[key]
            mu *= rng.uniform(0.8, 1.25)
            var *= rng.uniform(0.8, 1.25)
            weights[key] = (mu, var)
            batch.append((key[0], key[1], mu, var))
        out.append(batch)
    return out
