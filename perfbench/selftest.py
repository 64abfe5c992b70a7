"""Self-test of the benchmark's inputs and of its correctness gate.

Usage (from the repository root): ``python3 perfbench/selftest.py``

Checks, without starting a daemon:

- a fixed seed gives identical inputs and another seed different ones,
  for every workload;
- the request stream of ``serve_read`` repeats no triple and that of
  ``serve_update`` mostly repeats (``workload.repeat_share``);
- the digest gate flags a reply whose digest is wrong, and a run with
  no ok reply, and failed requests raise the median round trip;
- the p99 limit quoted in ``BENCHMARK.json`` is the one the ladder uses.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from loadgen import Record  # noqa: E402

SECONDS = 10


def check(ok: bool, what: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def steady_stream(made: dict, spec: dict, reference: list, seed: int) -> list:
    """The triples of the steady phase, in send order."""
    source = run.triple_source(made, spec, reference, seed)
    return list(itertools.islice(source, len(made["steady_offsets"])))


def main() -> int:
    failures: list[str] = []
    for name, spec in run.WORKLOADS.items():
        graph, _ = inputs.make_graph(spec)
        reference = run.reference_triples(spec, graph)
        check(
            reference == run.reference_triples(spec, graph),
            f"{name}: the reference query set is reproducible",
            failures,
        )
        first = run.make_inputs(spec, graph, 1, SECONDS)
        again = run.make_inputs(spec, graph, 1, SECONDS)
        other = run.make_inputs(spec, graph, 2, SECONDS)
        check(first == again, f"{name}: seed 1 twice gives identical inputs", failures)
        check(
            all(first[k] != other[k] for k in first),
            f"{name}: seeds 1 and 2 differ in every input ({', '.join(first)})",
            failures,
        )
        stream = steady_stream(first, spec, reference, 1)
        check(
            stream == steady_stream(again, spec, reference, 1),
            f"{name}: seed 1 twice gives the identical request stream",
            failures,
        )
        check(
            stream != steady_stream(other, spec, reference, 2),
            f"{name}: seeds 1 and 2 give different request streams",
            failures,
        )
        share = run.repeat_share(stream)
        if spec["traffic"] == "distinct":
            check(share == 0.0, f"{name}: repeat_share {share:.3f} == 0", failures)
        else:
            check(share > 0.5, f"{name}: repeat_share {share:.3f} > 0.5", failures)

    # The digest gate: a reply whose digest differs from the in-process
    # answer must be reported as a mismatch.
    gate = run.Pipeline("serve_read", 1, SECONDS, HERE)
    graph, _ = inputs.make_graph(gate.spec)
    triple = inputs.distinct_triples(graph, 1, 1)[0]
    reference = {(0, triple): (1234, 1.0)}
    good, bad = Record(0, triple, 0, 0, 0), Record(1, triple, 0, 1, 0)
    good.reply = {"ok": True, "digest": 1234}
    bad.reply = {"ok": True, "digest": 4321}
    gate.records = [good, bad]
    gate.check_digests(reference, 0)
    check(
        len(gate.mismatches) == 1 and "request 1 " in gate.mismatches[0],
        "digest gate flags exactly the wrong reply",
        failures,
    )

    # Failed requests count as infinite round trips: they cannot lower the
    # median, and a phase with most requests failed fails the run.
    check(run.median_rtt([1.0, 2.0, math.inf]) == 2.0, "a failed request raises the median", failures)
    for rtts in ([], [math.inf, math.inf, 1.0]):
        try:
            run.median_rtt(rtts)
        except run.BenchmarkError:
            refused = True
        else:
            refused = False
        check(refused, f"a steady phase of {rtts} fails the run", failures)
    gate.mismatches, gate.records = [], []
    gate.check_digests({}, 0)
    check(gate.mismatches == ["no ok reply to check"], "a run with no ok reply fails the digest gate", failures)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    quoted = [
        float(m.group(1))
        for w in bench["workloads"]
        for m in [re.search(r"p99 < (\d+(?:\.\d+)?) ms", w["why"])]
        if m
    ]
    check(
        quoted == [run.P99_LIMIT_MS],
        f"BENCHMARK.json quotes the ladder's p99 limit ({quoted} vs {run.P99_LIMIT_MS})",
        failures,
    )
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
