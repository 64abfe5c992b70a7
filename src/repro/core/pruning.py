"""Query-time pruning (Section III-B): Algorithm 2 and Proposition 5.

A :class:`LabelPathSet` is a lightweight *view* over one entry of a
columnar :class:`repro.core.labelstore.LabelStore`, exposing one refined
set ``P^{>0.5}_{uv}`` together with the statistics the paper precomputes
at indexing time:

- ``sigma_min`` / ``sigma_max`` over the set,
- each path's *upper bound maximizer* ``p_max`` (Definition 10) and *lower
  bound minimizer* ``p_min`` (Definition 11).

At query time, :func:`prune_pair` applies Algorithm 2: a path ``p`` of
``P_sh`` survives only when ``B_p(p_max, sigma_min(P_ht)) <= alpha <=
B_p(p_min, sigma_max(P_ht))`` where ``B_p(p_m, x) = Phi((mu_m - mu_p) /
(sqrt(sigma_p^2+x^2) - sqrt(sigma_m^2+x^2)))`` — the intersection dominance
(Prop. 2) from below and the reverse intersection dominance (Prop. 3) from
above.  For correlated sets the intersection machinery is unsound (variances
do not simply add), so :func:`prune_correlated` applies the correlated bound
dominance of Proposition 5 instead.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.core.kernels import reference
from repro.core.pathsummary import PathSummary
from repro.stats.normal import phi_cdf
from repro.stats.zscores import z_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.labelstore import LabelStore, Slice

__all__ = ["LabelPathSet", "prune_pair", "prune_correlated"]


class LabelPathSet:
    """A view over one :class:`LabelStore` entry slice.

    ``paths`` must come out of the independent refine: strictly increasing
    means, strictly decreasing sigmas.  The correlated case uses a store
    with ``independent=False`` and only ``sigma_min``/``sigma_max`` apply.

    The numeric columns (``mus``, ``sigmas``, ``vars``, ``ub_ratio``,
    ``lb_ratio``) live in the store's contiguous arrays; the view
    materialises them into tuples lazily, on first access, and caches the
    result (entries are immutable between maintenance rebuilds, which
    install fresh views).  Constructing ``LabelPathSet(paths)`` directly —
    handy in tests and for ad-hoc sets — backs the view with a private
    single-entry store.
    """

    __slots__ = (
        "paths",
        "sigma_min",
        "sigma_max",
        "_store",
        "_slice",
        "_start",
        "_count",
        "_mus",
        "_sigmas",
        "_vars",
        "_ub",
        "_lb",
        "__weakref__",
    )

    paths: tuple[PathSummary, ...]
    sigma_min: float
    sigma_max: float
    _store: "LabelStore"
    _slice: "Slice"
    _start: int
    _count: int
    _mus: tuple[float, ...] | None
    _sigmas: tuple[float, ...] | None
    _vars: tuple[float, ...] | None
    _ub: tuple[int, ...] | None
    _lb: tuple[int, ...] | None

    def __init__(self, paths: Sequence[PathSummary], independent: bool = True) -> None:
        from repro.core.labelstore import LabelStore

        store = LabelStore(independent=independent)
        view = store.add_entry(None, paths)
        self.paths = view.paths
        self.sigma_min = view.sigma_min
        self.sigma_max = view.sigma_max
        self._store = store
        self._slice = view._slice
        self._start = view._start
        self._count = view._count
        self._mus = self._sigmas = self._vars = self._ub = self._lb = None

    @classmethod
    def from_store(
        cls, store: "LabelStore", info: "Slice", paths: tuple[PathSummary, ...]
    ) -> "LabelPathSet":
        """Store-side constructor: the view half of ``LabelStore.add_entry``."""
        self = object.__new__(cls)
        self.paths = paths
        self._store = store
        self._slice = info
        self._start = info.start
        self._count = info.count
        if info.count:
            sigmas = store.sigmas[info.start : info.start + info.count]
            self.sigma_min = min(sigmas)
            self.sigma_max = max(sigmas)
        else:
            self.sigma_min = self.sigma_max = 0.0
        self._mus = self._sigmas = self._vars = self._ub = self._lb = None
        return self

    # ------------------------------------------------------------------
    # Lazy column materialisation
    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        start, count = self._start, self._count
        if start < 0:  # poisoned by LabelStore.compact(): entry was replaced
            raise RuntimeError("stale LabelPathSet view: its entry was dropped")
        store = self._store
        stop = start + count
        # ``_mus`` is assigned LAST: it is the guard every caller checks
        # (``columns`` returns all five fields after testing only
        # ``_mus``), so a concurrent reader that observes a non-None
        # ``_mus`` is guaranteed to see the other columns populated too.
        # Re-materialising twice under a race is idempotent.
        self._sigmas = tuple(store.sigmas[start:stop])
        self._vars = tuple(store.vars[start:stop])
        if store.independent:
            self._ub = tuple(store.ub[start:stop])
            self._lb = tuple(store.lb[start:stop])
        self._mus = tuple(store.mus[start:stop])

    @property
    def mus(self) -> tuple[float, ...]:
        mus = self._mus
        if mus is None:
            self._materialize()
            mus = self._mus
            assert mus is not None
        return mus

    @property
    def sigmas(self) -> tuple[float, ...]:
        sigmas = self._sigmas
        if sigmas is None:
            self._materialize()
            sigmas = self._sigmas
            assert sigmas is not None
        return sigmas

    @property
    def vars(self) -> tuple[float, ...]:
        vars_ = self._vars
        if vars_ is None:
            self._materialize()
            vars_ = self._vars
            assert vars_ is not None
        return vars_

    @property
    def ub_ratio(self) -> tuple[int, ...] | None:
        """Definition-10 upper bound maximizer indices (independent only)."""
        if not self._store.independent:
            return None
        if self._ub is None:
            self._materialize()
        return self._ub

    @property
    def lb_ratio(self) -> tuple[int, ...] | None:
        """Definition-11 lower bound minimizer indices (independent only)."""
        if not self._store.independent:
            return None
        if self._lb is None:
            self._materialize()
        return self._lb

    # ------------------------------------------------------------------
    # Kernel columns
    # ------------------------------------------------------------------
    def columns(self) -> tuple[Any, Any, Any, Any, Any]:
        """The entry's ``(mus, sigmas, vars, ub, lb)`` columns for the kernels.

        One check of the lazy tuple caches; ``ub``/``lb`` are None on
        stores without bound references (the correlated planes).
        """
        if self._mus is None:
            self._materialize()
        return (self._mus, self._sigmas, self._vars, self._ub, self._lb)

    def bound(self, i: int, j: int, x: float) -> float:
        """``B_{p_i}(p_j, x)`` — the intersection confidence level.

        The y-value where the quantile curves of ``p_i (+) q`` and
        ``p_j (+) q`` cross, for an extension of standard deviation ``x``.
        """
        sigmas = self.sigmas
        denom = math.sqrt(sigmas[i] ** 2 + x * x) - math.sqrt(
            sigmas[j] ** 2 + x * x
        )
        return phi_cdf((self.mus[j] - self.mus[i]) / denom)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[PathSummary]:
        return iter(self.paths)


def prune_pair(
    set_sh: LabelPathSet,
    set_ht: LabelPathSet,
    alpha: float,
    counts: list[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Algorithm 2: prune both sides of a hoplink against each other.

    Returns the surviving indices of each side.  Pruning one side uses only
    the *precomputed* ``sigma_min``/``sigma_max`` of the other side's full
    stored set, exactly as in the paper (Lines 1-4 of Algorithm 2).  The
    Proposition 2/3 bound evaluation runs in the kernel layer.

    ``counts``, when given, is a two-slot accumulator incremented per
    pruned path by proposition: ``counts[0]`` intersection dominance
    (Prop. 2), ``counts[1]`` reverse intersection dominance (Prop. 3) —
    the per-proposition attribution behind the observability layer's
    ``engine.prune.prop2/prop3`` counters.
    """
    mus, sigmas, _, ub, lb = set_sh.columns()
    keep_sh, n2_sh, n3_sh = reference.prune_independent(
        mus, sigmas, ub, lb, set_ht.sigma_min, set_ht.sigma_max, alpha
    )
    mus, sigmas, _, ub, lb = set_ht.columns()
    keep_ht, n2_ht, n3_ht = reference.prune_independent(
        mus, sigmas, ub, lb, set_sh.sigma_min, set_sh.sigma_max, alpha
    )
    if counts is not None:
        # nrplint: disable-next-line=purity -- counts is the documented obs accumulator out-param (prune attribution); it never feeds back into pruning decisions
        counts[0], counts[1] = counts[0] + n2_sh + n2_ht, counts[1] + n3_sh + n3_ht
    return keep_sh, keep_ht


def prune_correlated(
    set_sh: LabelPathSet,
    set_ht: LabelPathSet,
    alpha: float,
    counts: list[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Proposition 5 pruning for correlated sets.

    ``p_2`` is dominated w.r.t. the other side's set ``P`` when some ``p_1``
    satisfies ``mu_1 + Z_alpha*(sigma_1 + sigma_max(P)) < mu_2``: even with
    maximal positive correlation, ``p_1``'s concatenations stay below
    ``p_2``'s mean alone.  The threshold test runs in the kernel layer.

    ``counts``, when given, is a one-slot accumulator incremented per
    pruned path (the ``engine.prune.prop5`` counter).
    """
    z = z_value(alpha)
    mus, sigmas, _, _, _ = set_sh.columns()
    survivors_sh = reference.prune_correlated_keep(mus, sigmas, set_ht.sigma_max, z)
    mus, sigmas, _, _, _ = set_ht.columns()
    survivors_ht = reference.prune_correlated_keep(mus, sigmas, set_sh.sigma_max, z)
    if counts is not None:
        # nrplint: disable-next-line=purity -- counts is the documented obs accumulator out-param (prune attribution); it never feeds back into pruning decisions
        counts[0] += (len(set_sh) - len(survivors_sh)) + (
            len(set_ht) - len(survivors_ht)
        )
    return survivors_sh, survivors_ht
