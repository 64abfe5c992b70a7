"""The reference kernels (reported as backend ``python``).

Every function here is the original hot loop from ``labelstore``,
``pruning``, ``refine``, or ``engine``, extracted verbatim — same
iteration order, same arithmetic, same tie-breaking.  They are the only
kernels: label sets hold a handful of paths (median one), so plain
loops beat any per-call vectorisation overhead, and the golden engine
suite plus the flight-recorder digests pin their results down.

Kernels are pure (nrplint NRP006 applies to every function in this
module): they read columns, return fresh lists/tuples/scalars, and
never mutate arguments or emit metrics.  Columns arrive as any
``float``-yielding indexable — tuples from ``LabelPathSet``'s caches,
``memoryview`` slices of the store's arrays, or plain lists in tests.

Paper mapping (see docs/algorithms.md):

- :func:`compute_bound_refs` — Definitions 10/11 (ub/lb reference paths).
- :func:`bound_value` — Definition 9, the bound ``B_{p_i}(p_j, x)``.
- :func:`prune_independent` — Propositions 2/3 as applied by Algorithm 2.
- :func:`prune_correlated_keep` — Proposition 5's threshold test.
- :func:`refine_keep` — Proposition 1 / the RF sweep (with practical z cap).
- :func:`scan_pairs` / :func:`best_label` — Algorithm 1's concatenation
  scan and per-label minimisation.
- :func:`merge_rowsums` — Proposition 4's windowed covariance row-sums.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.stats.normal import phi_cdf

#: The name wire replies, flight records and workload files report.
NAME = "python"


def bound_value(
    mu_i: float, mu_j: float, sigma_i: float, sigma_j: float, x: float
) -> float:
    """Definition 9: the dominance bound ``B_{p_i}(p_j, x)``."""
    denom = math.sqrt(sigma_i ** 2 + x * x) - math.sqrt(sigma_j ** 2 + x * x)
    return phi_cdf((mu_j - mu_i) / denom)


def compute_bound_refs(
    mus: Sequence[float], sigmas: Sequence[float]
) -> tuple[list[int], list[int]]:
    """Definitions 10/11: per-path ub/lb reference indices.

    Definition 10: ``p_max = argmax_{mu' < mu} Phi((mu-mu')/(sigma'-sigma))``;
    Definition 11: ``p_min = argmin_{mu' > mu} Phi((mu'-mu)/(sigma-sigma'))``.
    ``-1`` marks "no such path" (first/last elements).  Sets are sorted by
    increasing mean and strictly decreasing sigma, so candidates with
    smaller mean are exactly the earlier indices and the denominators are
    positive.  O(k^2) pairwise scan, first-occurrence ties via strict
    comparisons.
    """
    k = len(mus)
    ub = [-1] * k
    lb = [-1] * k
    for i in range(k):
        best_ratio = -math.inf
        for j in range(i):
            ratio = (mus[i] - mus[j]) / (sigmas[j] - sigmas[i])
            if ratio > best_ratio:
                best_ratio = ratio
                ub[i] = j
        best_ratio = math.inf
        for j in range(i + 1, k):
            ratio = (mus[j] - mus[i]) / (sigmas[i] - sigmas[j])
            if ratio < best_ratio:
                best_ratio = ratio
                lb[i] = j
    return ub, lb


def prune_independent(
    mus: Sequence[float],
    sigmas: Sequence[float],
    ub: Sequence[int],
    lb: Sequence[int],
    other_sigma_min: float,
    other_sigma_max: float,
    alpha: float,
) -> tuple[list[int], int, int]:
    """Propositions 2/3 over one side of a hoplink (Algorithm 2).

    Returns ``(keep, pruned_prop2, pruned_prop3)`` where ``keep`` lists
    the surviving indices in order.  A path is dropped when its ub
    reference already beats it at the other side's ``sigma_min``
    (Prop. 2), or — failing that — when its lb reference shows it can
    never win at the other side's ``sigma_max`` (Prop. 3).
    """
    keep: list[int] = []
    pruned2 = 0
    pruned3 = 0
    for i in range(len(mus)):
        j = ub[i]
        if j >= 0 and alpha < bound_value(
            mus[i], mus[j], sigmas[i], sigmas[j], other_sigma_min
        ):
            pruned2 += 1
            continue
        j = lb[i]
        if j >= 0 and alpha > bound_value(
            mus[i], mus[j], sigmas[i], sigmas[j], other_sigma_max
        ):
            pruned3 += 1
            continue
        keep.append(i)
    return keep, pruned2, pruned3


def prune_correlated_keep(
    mus: Sequence[float],
    sigmas: Sequence[float],
    other_sigma_max: float,
    z: float,
) -> list[int]:
    """Proposition 5: keep paths whose mu clears the pessimistic threshold.

    ``z`` is ``z_value(alpha)``; the threshold is the minimum pessimistic
    completion value over the side's own paths.
    """
    if not len(mus):
        return []
    threshold = min(
        mu + z * (sigma + other_sigma_max) for mu, sigma in zip(mus, sigmas)
    )
    return [i for i, mu in enumerate(mus) if mu <= threshold]


def refine_keep(
    mus: Sequence[float],
    vars_: Sequence[float],
    sigmas: Sequence[float],
    z_max: float | None,
    low: bool,
) -> list[int]:
    """The RF sweep (Proposition 1 with the practical z cap).

    Columns must already be sorted by ``(mu, var)`` ascending (``high``)
    or ``(mu, -var)`` ascending (``low``); returns the kept indices in
    sweep order.  A path survives when it strictly improves the running
    variance extremum and — under a finite ``z_max`` — also strictly
    improves the best capped value seen so far.
    """
    kept: list[int] = []
    best_value = math.inf
    if low:
        best_var = -math.inf
        for i in range(len(mus)):
            if vars_[i] <= best_var:
                continue
            if z_max is not None:
                value = mus[i] - z_max * sigmas[i]
                if value >= best_value:
                    continue
                best_value = value
            best_var = vars_[i]
            kept.append(i)
        return kept
    best_var = math.inf
    for i in range(len(mus)):
        if vars_[i] >= best_var:
            continue
        if z_max is not None:
            value = mus[i] + z_max * sigmas[i]
            if value >= best_value:
                continue
            best_value = value
        best_var = vars_[i]
        kept.append(i)
    return kept


def scan_pairs(
    mus_sh: Sequence[float],
    vars_sh: Sequence[float],
    mus_ht: Sequence[float],
    vars_ht: Sequence[float],
    idx_sh: Sequence[int],
    idx_ht: Sequence[int],
    z: float,
) -> tuple[float, int, int]:
    """Algorithm 1's independent concatenation scan over one hoplink.

    Evaluates every surviving (s->h, h->t) pair and returns
    ``(best_value, i, j)`` with ``i``/``j`` drawn from ``idx_sh``/
    ``idx_ht`` (first-occurrence ties, row-major order).  ``(inf, -1,
    -1)`` when either side is empty.
    """
    best_value = math.inf
    best_i = -1
    best_j = -1
    for i in idx_sh:
        mu1 = mus_sh[i]
        var1 = vars_sh[i]
        for j in idx_ht:
            var = var1 + vars_ht[j]
            value = mu1 + mus_ht[j] + (z * math.sqrt(var) if var > 0.0 else 0.0)
            if value < best_value:
                best_value = value
                best_i = i
                best_j = j
    return best_value, best_i, best_j


def best_label(
    mus: Sequence[float], sigmas: Sequence[float], z: float
) -> tuple[float, int]:
    """Algorithm 1's per-label minimisation of ``mu + z * sigma``.

    Labels are mu-ascending, so for ``z >= 0`` the scan stops once mu
    alone exceeds the best value.  Returns ``(inf, -1)`` on an empty
    label; callers decide whether that is an error.
    """
    best_value = math.inf
    best_i = -1
    for i in range(len(mus)):
        value = mus[i] + z * sigmas[i]
        if value < best_value:
            best_value = value
            best_i = i
        elif z >= 0.0 and mus[i] > best_value:
            break
    return best_value, best_i


def merge_rowsums(
    maps: Sequence[Mapping[int, float]],
) -> dict[int, float]:
    """Proposition 4: merge per-edge covariance row-sums into one map.

    Summation order follows the given sequence of maps and each map's own
    iteration order — float addition is not associative, so the order is
    part of the determinism contract.
    """
    total: dict[int, float] = {}
    for rowsums in maps:
        for i, value in rowsums.items():
            total[i] = total.get(i, 0.0) + value
    return total
