"""Seeded randomized equivalence fuzz: the kernels vs their definitions.

The kernel layer's contract is *bit*-identity with the paper's
definitions evaluated naively: every kernel keeps a shortcut (early
breaks, running extrema, a threshold instead of a pairwise test), and
each is checked here against a plain O(k^2) oracle that spells the
definition out with the same arithmetic.  The fuzz sweeps random store
shapes (empty, singleton, large), both sweep directions, and an alpha
ladder including the ``0.5`` sentinel (``z = 0``) and ``0.9999``.

The minimal backend surface (one kernel set, ``NRP_KERNELS`` ignored)
is covered at the bottom.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import kernels
from repro.core.kernels import reference
from repro.core.labelstore import LabelStore
from repro.core.pathsummary import PathSummary
from repro.core.pruning import prune_correlated, prune_pair
from repro.stats.normal import phi_cdf
from repro.stats.zscores import z_value

ALPHAS = (0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 0.9999)

SEEDS = (11, 23, 47)
SIZES = (0, 1, 2, 7, 33, 128)


def _candidates(rng: random.Random, k: int) -> list[tuple[float, float]]:
    return [
        (rng.uniform(10.0, 40.0), rng.uniform(0.5, 30.0) ** 2) for _ in range(k)
    ]


def _refined(rng: random.Random, k: int) -> tuple[list[float], list[float], list[float]]:
    """A valid refined independent-high set: run the reference RF sweep
    over random candidates, so mu strictly rises and sigma strictly falls."""
    cand = sorted(_candidates(rng, k))
    mus = [mu for mu, _ in cand]
    vars_ = [var for _, var in cand]
    sigmas = [var ** 0.5 for var in vars_]
    kept = reference.refine_keep(mus, vars_, sigmas, None, False)
    return (
        [mus[i] for i in kept],
        [sigmas[i] for i in kept],
        [vars_[i] for i in kept],
    )


def _bound(mus, sigmas, i: int, j: int, x: float) -> float:
    """Definition 9, spelled out."""
    denom = math.sqrt(sigmas[i] ** 2 + x * x) - math.sqrt(sigmas[j] ** 2 + x * x)
    return phi_cdf((mus[j] - mus[i]) / denom)


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_compute_bound_refs(self, seed):
        """Definitions 10/11: first argmax / argmin of the ratio."""
        rng = random.Random(seed)
        for k in SIZES:
            mus, sigmas, _ = _refined(rng, k)
            ub = [
                max(range(i), key=lambda j: (mus[i] - mus[j]) / (sigmas[j] - sigmas[i]))
                if i
                else -1
                for i in range(len(mus))
            ]
            lb = [
                min(
                    range(i + 1, len(mus)),
                    key=lambda j: (mus[j] - mus[i]) / (sigmas[i] - sigmas[j]),
                )
                if i + 1 < len(mus)
                else -1
                for i in range(len(mus))
            ]
            assert reference.compute_bound_refs(mus, sigmas) == (ub, lb), (seed, k)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prune_independent(self, seed):
        """Algorithm 2: Prop. 2 at sigma_min first, then Prop. 3 at sigma_max."""
        rng = random.Random(seed)
        for k in SIZES:
            mus, sigmas, _ = _refined(rng, k)
            o_mus, o_sigmas, _ = _refined(rng, max(k, 1))
            ub, lb = reference.compute_bound_refs(mus, sigmas)
            lo, hi = min(o_sigmas), max(o_sigmas)
            for alpha in ALPHAS:
                keep, n2, n3 = [], 0, 0
                for i in range(len(mus)):
                    if ub[i] >= 0 and alpha < _bound(mus, sigmas, i, ub[i], lo):
                        n2 += 1
                    elif lb[i] >= 0 and alpha > _bound(mus, sigmas, i, lb[i], hi):
                        n3 += 1
                    else:
                        keep.append(i)
                got = reference.prune_independent(mus, sigmas, ub, lb, lo, hi, alpha)
                assert got == (keep, n2, n3), (seed, k, alpha)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prune_correlated_keep(self, seed):
        """Proposition 5: drop p_2 iff some p_1 has mu_1 + z(s_1 + s_max) < mu_2."""
        rng = random.Random(seed)
        for k in SIZES:
            mus, sigmas, _ = _refined(rng, k)
            other = rng.uniform(0.5, 20.0)
            for alpha in ALPHAS:
                z = z_value(alpha)
                want = [
                    i
                    for i, mu in enumerate(mus)
                    if not any(
                        m + z * (s + other) < mu for m, s in zip(mus, sigmas)
                    )
                ]
                assert reference.prune_correlated_keep(mus, sigmas, other, z) == (
                    want
                ), (seed, k, alpha)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_refine_keep(self, seed):
        """RF: keep a path iff it strictly beats every earlier path on the
        variance extremum and (capped) on ``mu -/+ z_max * sigma``."""
        rng = random.Random(seed)
        for k in SIZES:
            for low in (False, True):
                cand = sorted(
                    _candidates(rng, k),
                    key=(lambda mv: (mv[0], -mv[1])) if low else None,
                )
                mus = [mu for mu, _ in cand]
                vars_ = [var for _, var in cand]
                sigmas = [var ** 0.5 for var in vars_]
                sign = -1.0 if low else 1.0
                for z_max in (None, 2.0, 3.0):

                    def beats(i: int, j: int) -> bool:
                        better_var = vars_[i] > vars_[j] if low else vars_[i] < vars_[j]
                        if z_max is None:
                            return better_var
                        value_i = mus[i] + sign * z_max * sigmas[i]
                        value_j = mus[j] + sign * z_max * sigmas[j]
                        return better_var and value_i < value_j

                    want = [i for i in range(k) if all(beats(i, j) for j in range(i))]
                    assert reference.refine_keep(mus, vars_, sigmas, z_max, low) == (
                        want
                    ), (seed, k, low, z_max)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scan_pairs_and_best_label(self, seed):
        """Algorithm 1: first row-major minimum over every surviving pair,
        and the early-exit label scan against a full scan."""
        rng = random.Random(seed)
        for k in SIZES:
            mus, sigmas, vars_ = _refined(rng, k)
            o_mus, o_sigmas, o_vars = _refined(rng, k)
            n, m = len(mus), len(o_mus)
            idx_sh = sorted(rng.sample(range(n), rng.randint(0, n))) if n else []
            idx_ht = sorted(rng.sample(range(m), rng.randint(0, m))) if m else []
            for alpha in (0.3, *ALPHAS):  # 0.3: a negative-z scan
                z = z_value(alpha)

                def pair_value(ij: tuple[int, int]) -> float:
                    var = vars_[ij[0]] + o_vars[ij[1]]
                    return mus[ij[0]] + o_mus[ij[1]] + (
                        z * math.sqrt(var) if var > 0.0 else 0.0
                    )

                pairs = [(i, j) for i in idx_sh for j in idx_ht]
                if pairs:
                    best = min(pairs, key=pair_value)
                    want_pair = (pair_value(best), *best)
                else:
                    want_pair = (math.inf, -1, -1)
                assert reference.scan_pairs(
                    mus, vars_, o_mus, o_vars, idx_sh, idx_ht, z
                ) == want_pair, (seed, k, alpha)
                if n:
                    i = min(range(n), key=lambda i: mus[i] + z * sigmas[i])
                    want_label = (mus[i] + z * sigmas[i], i)
                else:
                    want_label = (math.inf, -1)
                assert reference.best_label(mus, sigmas, z) == want_label, (
                    seed, k, alpha,
                )


    def test_merge_rowsums_shared(self):
        """Proposition 4's merge: per key, a left-to-right sum in the
        given map order (float addition order is part of the contract)."""
        maps = [{1: 0.1, 2: 0.2}, {2: 0.3, 5: -0.4}, {1: 1e-9}, {2: 1e-17}]
        assert reference.merge_rowsums(maps) == {
            1: 0.1 + 1e-9,
            2: 0.2 + 0.3 + 1e-17,
            5: -0.4,
        }
        assert list(reference.merge_rowsums(maps)) == [1, 2, 5]


class TestStoreLevelEquivalence:
    """prune_pair / prune_correlated through real store views agree with
    the kernels over plain lists: the two column backends are the
    ``LabelStore`` arrays (bound references computed by the store) and
    the moments the paths were built from."""

    def _sets(self, seed: int, independent: bool):
        rng = random.Random(seed)
        store = LabelStore(independent=independent)
        views, columns = [], []
        for key, k in (((1, 0), 19), ((2, 0), 31)):
            mus, sigmas, vars_ = _refined(rng, k)
            views.append(
                store.add_entry(
                    key,
                    [PathSummary(mu, var, 0, 1) for mu, var in zip(mus, vars_)],
                )
            )
            columns.append((mus, [math.sqrt(var) for var in vars_]))
        return views, columns

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prune_pair_backends_agree(self, seed):
        (sh, ht), ((mus_sh, sig_sh), (mus_ht, sig_ht)) = self._sets(seed, True)
        for alpha in ALPHAS:
            counts = [0, 0]
            got = prune_pair(sh, ht, alpha, counts)
            keep_sh, a2, a3 = reference.prune_independent(
                mus_sh, sig_sh, *reference.compute_bound_refs(mus_sh, sig_sh),
                min(sig_ht), max(sig_ht), alpha,
            )
            keep_ht, b2, b3 = reference.prune_independent(
                mus_ht, sig_ht, *reference.compute_bound_refs(mus_ht, sig_ht),
                min(sig_sh), max(sig_sh), alpha,
            )
            assert got == (keep_sh, keep_ht), (seed, alpha)
            assert counts == [a2 + b2, a3 + b3], (seed, alpha)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prune_correlated_backends_agree(self, seed):
        (sh, ht), ((mus_sh, sig_sh), (mus_ht, sig_ht)) = self._sets(seed, False)
        for alpha in ALPHAS:
            z = z_value(alpha)
            counts = [0]
            got = prune_correlated(sh, ht, alpha, counts)
            want = (
                reference.prune_correlated_keep(mus_sh, sig_sh, max(sig_ht), z),
                reference.prune_correlated_keep(mus_ht, sig_ht, max(sig_sh), z),
            )
            assert got == want, (seed, alpha)
            assert counts == [len(sh) + len(ht) - len(want[0]) - len(want[1])]


class TestBackendSelection:
    def test_env_and_override(self, monkeypatch):
        """One kernel set: ``NRP_KERNELS`` is not read, and the override
        accepts only the reference name (or None)."""
        for value in ("vector", "auto", "nonsense"):
            monkeypatch.setenv("NRP_KERNELS", value)
            assert kernels.active_backend() is reference
        assert kernels.backend_names() == ("python",)
        kernels.set_backend("python")
        kernels.set_backend(None)
        assert kernels.active_backend() is reference
        with pytest.raises(ValueError, match="vector"):
            kernels.set_backend("vector")
