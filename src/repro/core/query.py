"""Query results, statistics, and the Algorithm-1 entry point.

The actual query machinery lives in :mod:`repro.core.engine`, which splits
Algorithm 1 into a planning stage (plane choice, LCA/ancestor shortcut,
separator selection, prune-index computation) and an execution stage (the
concatenation scan over columnar label views).  This module keeps the
result/statistics dataclasses and the long-standing :func:`answer_query`
convenience wrapper.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.core.pathsummary import PathSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import NRPIndex

__all__ = ["QueryStats", "QueryResult", "answer_query"]


@dataclass
class QueryStats:
    """Counters behind Figures 8 and 9.

    Semantics worth pinning down (locked by a regression test in
    ``tests/test_obs_integration.py``):

    - On the **separator** case, ``candidate_paths`` counts every stored
      path of both hoplink label sets and ``surviving_paths`` the subset
      Algorithm 2 / Proposition 5 kept, so ``candidate - surviving`` is
      the pruning power of Figure 9.
    - On the **ancestor** case (one endpoint is the other's tree
      ancestor), ``surviving_paths == candidate_paths`` *by design*, not
      by accident: the query scans a single label entry and the paper's
      pair-pruning has no second set to prune against, so every candidate
      survives.  Counting it this way keeps prune ratios attributable to
      the separator case only.
    - The **trivial** case (``s == t``) touches no labels and contributes
      nothing.

    The same five counters are mirrored into the process-wide
    observability registry (``repro.obs``) as ``engine.<field>`` whenever
    it is enabled.
    """

    hoplinks: int = 0
    concatenations: int = 0
    label_lookups: int = 0
    candidate_paths: int = 0
    surviving_paths: int = 0

    def merge(self, other: "QueryStats") -> None:
        self.hoplinks += other.hoplinks
        self.concatenations += other.concatenations
        self.label_lookups += other.label_lookups
        self.candidate_paths += other.candidate_paths
        self.surviving_paths += other.surviving_paths

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class QueryResult:
    """An answered RSP query."""

    source: int
    target: int
    alpha: float
    value: float
    mu: float
    variance: float
    summary: PathSummary
    stats: QueryStats = field(default_factory=QueryStats)
    #: True when a deadline expired and this is the mean-only fallback
    #: answer (a valid path with exact moments, but optimal only at
    #: alpha = 0.5) — see docs/resilience.md.
    degraded: bool = False

    @property
    def path(self) -> list[int]:
        """The vertex sequence of the optimal path (reconstructed lazily)."""
        vertices = self.summary.vertices()
        if vertices and vertices[0] != self.source:
            vertices.reverse()
        return vertices

    def digest(self) -> int:
        """Bit-exact 32-bit digest of this answer (value, moments, path
        length, degraded flag) — the replay-verification token carried in
        flight records and workload files (``repro.obs.flight``)."""
        from repro.obs.flight import result_digest

        return result_digest(self)


def answer_query(
    index: "NRPIndex",
    s: int,
    t: int,
    alpha: float,
    use_pruning: bool = True,
    stats: QueryStats | None = None,
) -> QueryResult:
    """Algorithm 1 via the index's engine.

    ``use_pruning=False`` is the Figure-9 ablation variant.  Queries with
    ``alpha >= 0.5`` use the ``P^{>0.5}`` plane with the full Algorithm-2 /
    Proposition-5 pruning; ``alpha < 0.5`` uses the symmetric low plane (if
    built) without intersection pruning, whose statistics are only defined
    for the high side.
    """
    return index.engine.answer(s, t, alpha, use_pruning, stats)
