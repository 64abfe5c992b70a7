#!/usr/bin/env python3
"""Noise-aware perf-regression gate over benchmark artefacts.

Diffs the ``benchmarks/results/*.metrics.json`` sidecars
(observability-registry snapshots written by ``benchmarks/conftest.py``)
against a checked-in baseline and flags regressions in per-timer mean
latencies and, when present (metrics schema >= 2), per-histogram
p50/p95/p99.

Noise handling — both knobs must trip before anything is a regression:

- a **relative threshold** (``--threshold``, default 25%): timings within
  the band are treated as machine noise, not regressions;
- an **absolute floor** (``--min-seconds``): timings whose
  baseline is below the floor are too small to compare reliably and are
  skipped entirely.

Counter values are compared exactly but reported as *drift* notes, never
failures: a counter change means the workload's algorithmic shape changed
(more concatenations, fewer pruned paths), which deserves eyes but has a
bit-identity test suite to decide correctness.

Exit codes: 0 clean (or ``--advisory``), 1 regressions found, 2 usage.
Stdlib-only by design — CI runs it before installing anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["compare_sidecars", "main"]


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _timer_means(document: dict) -> dict[str, float]:
    means = {}
    for name, data in document.get("timers", {}).items():
        if data.get("count"):
            means[name] = data["total_seconds"] / data["count"]
    return means


def _histogram_quantiles(document: dict) -> dict[str, float]:
    """``{"<hist>/p50": value, ...}`` for every quantile the dump carries."""
    out = {}
    for name, data in document.get("histograms", {}).items():
        for key in ("p50", "p95", "p99"):
            value = data.get(key)
            if value is not None:
                out[f"{name}/{key}"] = value
    return out


def compare_sidecars(
    baseline: dict,
    current: dict,
    *,
    threshold: float,
    min_seconds: float,
) -> tuple[list[str], list[str]]:
    """Diff two metrics sidecars -> ``(regressions, drift_notes)``."""
    regressions: list[str] = []
    notes: list[str] = []
    base_times = _timer_means(baseline)
    base_times.update(_histogram_quantiles(baseline))
    cur_times = _timer_means(current)
    cur_times.update(_histogram_quantiles(current))
    for name in sorted(base_times):
        base = base_times[name]
        cur = cur_times.get(name)
        if cur is None or base < min_seconds:
            continue
        if cur > base * (1.0 + threshold):
            regressions.append(
                f"{name}: {_fmt_s(base)} -> {_fmt_s(cur)} "
                f"(+{(cur / base - 1.0) * 100.0:.1f}% > {threshold * 100.0:.0f}%)"
            )
    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for name in sorted(base_counters):
        base = base_counters[name].get("value", 0)
        cur = cur_counters.get(name, {}).get("value")
        if cur is not None and cur != base:
            notes.append(f"{name}: {base} -> {cur} ({cur - base:+d})")
    return regressions, notes


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"bench_compare: cannot read {path}: {exc}", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description="diff benchmark sidecars against a baseline",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="directory of checked-in baseline *.metrics.json sidecars",
    )
    parser.add_argument(
        "--results",
        type=Path,
        required=True,
        help="directory of freshly produced *.metrics.json sidecars",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative slowdown tolerated before flagging (default 0.25)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.005,
        help="skip sidecar timings whose baseline mean is under this "
        "(too noisy to compare; default 0.005 s)",
    )
    parser.add_argument(
        "--advisory",
        action="store_true",
        help="report regressions but always exit 0 (CI advisory mode)",
    )
    args = parser.parse_args(argv)
    if not args.baseline.is_dir():
        print(f"bench_compare: no baseline dir {args.baseline}", file=sys.stderr)
        return 2
    if not args.results.is_dir():
        print(f"bench_compare: no results dir {args.results}", file=sys.stderr)
        return 2

    regressions: list[str] = []
    compared = 0
    for base_path in sorted(args.baseline.glob("*.metrics.json")):
        cur_path = args.results / base_path.name
        if not cur_path.is_file():
            print(f"-- {base_path.name}: no fresh sidecar, skipped")
            continue
        base_doc = _load(base_path)
        cur_doc = _load(cur_path)
        if base_doc is None or cur_doc is None:
            continue
        compared += 1
        found, notes = compare_sidecars(
            base_doc,
            cur_doc,
            threshold=args.threshold,
            min_seconds=args.min_seconds,
        )
        status = f"{len(found)} regression(s)" if found else "ok"
        print(f"-- {base_path.name}: {status}")
        for line in found:
            print(f"   REGRESSION {line}")
            regressions.append(f"{base_path.name}: {line}")
        for line in notes:
            print(f"   drift {line}")

    if compared == 0:
        print("bench_compare: nothing to compare", file=sys.stderr)
        return 2
    if regressions:
        print(
            f"bench_compare: {len(regressions)} perf regression(s) over "
            f"{compared} artefact(s)"
            + (" [advisory: not failing]" if args.advisory else "")
        )
        return 0 if args.advisory else 1
    print(f"bench_compare: {compared} artefact(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
