"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``info``   — describe a synthetic dataset or a DIMACS file (Table-I view).
- ``build``  — build an NRP index and save it to disk.
- ``query``  — answer RSP queries against a saved index; ``--trace`` /
  ``--metrics`` / ``--profile`` / ``--slow-ms`` surface the observability
  layer (see docs/observability.md).
- ``update`` — apply a travel-time distribution change to a saved index
  (journaled through the maintenance WAL; see docs/resilience.md).
- ``index``  — saved-index tooling; ``index verify`` checks framing,
  checksum, and structure without building the index.
- ``bench``  — quick per-query latency comparison of NRP vs the baselines.
- ``obs``    — observability tooling; ``obs dump`` exercises build /
  query / maintenance with full observation on and dumps the metrics
  registry as JSON or Prometheus text.
- ``workload`` — flight-recorder tooling; ``workload capture`` answers a
  random workload with the recorder armed and persists a replayable
  workload file, ``workload show`` summarises one.
- ``replay`` — re-execute a captured workload, verify every result digest
  bit-identically (exit 1 on any mismatch), and print the latency /
  per-phase / counter comparison report.
- ``serve`` — long-lived query daemon: load the index once, answer
  concurrent queries over the NDJSON protocol with admission control,
  per-request deadlines, and micro-batching (docs/serving.md).
- ``serve-client`` — drive a running daemon: single or random workloads,
  concurrent connections, ``--stats`` / ``--ping`` / ``--shutdown``.

Exit codes: 0 success; 2 usage errors; damaged index files map the typed
taxonomy of :mod:`repro.resilience.errors` to distinct codes instead of
tracebacks — 3 corrupt, 4 truncated, 5 wrong/unknown format (``index
verify`` itself uses the compact 0 ok / 1 damaged / 2 unreadable
contract expected by scripting).
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import signal
import sys
import threading
import time
from pathlib import Path

from repro import obs

from repro.baselines.dijkstra import approximate_diameter
from repro.core.index import NRPIndex
from repro.core.maintenance import IndexMaintainer
from repro.core.serialization import load_index, save_index, verify_index
from repro.experiments.reporting import format_bytes, format_seconds, format_table
from repro.network.datasets import DATASETS, make_dataset
from repro.network.dimacs import apply_co, read_co, read_gr
from repro.network.generators import assign_random_cv
from repro.resilience.errors import (
    IndexCorruptError,
    IndexFormatError,
    IndexTruncatedError,
    QueryValidationError,
)

__all__ = ["main", "build_parser"]

#: ``main``'s mapping from typed index-file damage to exit codes.
EXIT_CORRUPT = 3
EXIT_TRUNCATED = 4
EXIT_FORMAT = 5


def _open_with_recovery(index_path: Path):
    """Load a saved index, replaying any interrupted maintenance batch.

    Delegates to :func:`repro.serve.lifecycle.open_with_recovery` — the
    daemon's hot-reload path runs the same protocol, so CLI opens and
    serve reloads can never drift apart (docs/resilience.md).
    """
    from repro.serve.lifecycle import open_with_recovery

    index, replayed = open_with_recovery(index_path)
    if replayed:
        print(
            f"recovered {len(replayed)} interrupted maintenance "
            f"batch(es) from {index_path.name}.wal",
            file=sys.stderr,
        )
    return index


def _load_network(args: argparse.Namespace):
    """Resolve a network from --dataset or --gr options."""
    if args.gr:
        graph = read_gr(args.gr)
        if args.co:
            apply_co(graph, read_co(args.co))
        assign_random_cv(graph, args.cv, seed=args.seed)
        from repro.network.covariance import CovarianceStore

        cov = CovarianceStore()
        if getattr(args, "correlated", False):
            from repro.network.generators import generate_correlations

            cov = generate_correlations(graph, args.k, seed=args.seed)
        return graph, cov
    return make_dataset(
        args.dataset,
        scale=args.scale,
        cv=args.cv,
        hops=args.k,
        correlated=getattr(args, "correlated", False),
        seed=args.seed,
    )


def _add_network_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=sorted(DATASETS), default="NY", help="synthetic dataset"
    )
    parser.add_argument("--scale", type=float, default=0.5, help="grid scale factor")
    parser.add_argument("--gr", type=Path, help="DIMACS .gr file instead of a dataset")
    parser.add_argument("--co", type=Path, help="DIMACS .co coordinates file")
    parser.add_argument("--cv", type=float, default=0.5, help="coefficient-of-variation bound")
    parser.add_argument("--k", type=int, default=4, help="correlation locality window K")
    parser.add_argument("--seed", type=int, default=7)


def cmd_info(args: argparse.Namespace) -> int:
    graph, cov = _load_network(args)
    rng = random.Random(args.seed)
    seeds = rng.sample(list(graph.vertices()), min(3, graph.num_vertices))
    rows = [
        ["vertices", graph.num_vertices],
        ["edges", graph.num_edges],
        ["connected", graph.is_connected()],
        ["approx. diameter", f"{approximate_diameter(graph, seeds=seeds):.0f}"],
        ["correlated pairs", cov.num_entries],
    ]
    print(format_table(["property", "value"], rows, title="Network description"))
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    graph, cov = _load_network(args)
    start = time.perf_counter()
    index = NRPIndex(
        graph,
        cov if not cov.is_empty() else None,
        window=args.k,
        support_low_alpha=args.low_alpha,
    )
    elapsed = time.perf_counter() - start
    info = index.size_info()
    save_index(index, args.output)
    print(
        format_table(
            ["metric", "value"],
            [
                ["build time", format_seconds(elapsed)],
                ["treewidth (omega)", index.treewidth],
                ["treeheight (eta)", index.treeheight],
                ["label entries", info.label_entries],
                ["stored paths", info.label_paths],
                ["index size (exact)", format_bytes(info.exact_bytes)],
                ["index size (old heuristic)", format_bytes(info.heuristic_bytes)],
                ["written to", str(args.output)],
            ],
            title="NRP index built",
        )
    )
    return 0


def _random_queries(index, count: int, alpha: float, seed: int):
    rng = random.Random(seed)
    vertices = list(index.graph.vertices())
    queries: list[tuple[int, int, float]] = []
    while len(queries) < count:
        s, t = rng.choice(vertices), rng.choice(vertices)
        if s != t:
            queries.append((s, t, alpha))
    return queries


def _print_metrics_table(registry) -> None:
    dump = registry.to_json()
    rows = [
        [name, data["value"]]
        for name, data in dump["counters"].items()
        if data["value"]
    ]
    rows += [
        [f"{name} (s)", f"{data['total_seconds']:.4f} / {data['count']}"]
        for name, data in dump["timers"].items()
        if data["count"]
    ]
    print(
        format_table(
            ["metric", "value"],
            rows or [["(no observations)", "-"]],
            title=f"Metrics registry ({dump['schema']})",
        )
    )


def cmd_query(args: argparse.Namespace) -> int:
    observing = bool(args.trace or args.metrics or args.profile)
    if observing:
        obs.enable(metrics=True, tracing=bool(args.trace))
    if args.flight:
        obs.flight_recorder().arm()
    if args.slow_ms is not None:
        obs.slow_query_log().configure(args.slow_ms / 1000.0)
        logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s")
        logging.getLogger(obs.SLOW_QUERY_LOGGER).setLevel(logging.WARNING)
    index = _open_with_recovery(args.index)
    queries: list[tuple[int, int, float]]
    if args.random:
        queries = _random_queries(index, args.random, args.alpha, args.seed)
    else:
        if args.source is None or args.target is None:
            print("error: provide --source and --target, or --random N", file=sys.stderr)
            return 2
        queries = [(args.source, args.target, args.alpha)]
    from repro.core.query import QueryStats

    deadline_s = args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
    stats = QueryStats() if args.stats else None
    profiler = obs.SamplingProfiler() if args.profile else None

    def run_workload():
        return index.query_batch(queries, stats=stats, deadline_s=deadline_s)

    start = time.perf_counter()
    if profiler is not None:
        with profiler:
            results = run_workload()
    else:
        results = run_workload()
    elapsed = time.perf_counter() - start
    rows = [
        [
            r.source,
            r.target,
            f"{r.alpha:.3f}",
            f"{r.value:.2f}" + (" *" if r.degraded else ""),
            f"{r.mu:.2f}",
            f"{r.variance:.2f}",
            "->".join(map(str, r.path)) if args.show_paths else f"{len(r.path)} vertices",
        ]
        for r in results
    ]
    print(
        format_table(
            ["s", "t", "alpha", "budget w", "mean", "variance", "path"],
            rows,
            title=f"{len(results)} queries in {format_seconds(elapsed)} "
            f"({format_seconds(elapsed / len(results))}/query)",
        )
    )
    degraded = sum(1 for r in results if r.degraded)
    if degraded:
        print(
            f"* {degraded} of {len(results)} queries blew the "
            f"{args.deadline_ms:g} ms deadline and were answered by the "
            f"mean-only fallback (valid path, optimal only at alpha=0.5)",
            file=sys.stderr,
        )
    if stats is not None:
        print(
            format_table(
                ["counter", "total"],
                [
                    ["hoplinks scanned", stats.hoplinks],
                    ["label lookups", stats.label_lookups],
                    ["candidate paths", stats.candidate_paths],
                    ["surviving paths", stats.surviving_paths],
                    ["concatenations", stats.concatenations],
                ],
                title="Workload statistics (Algorithm 1/2 counters)",
            )
        )
    if args.trace:
        obs.tracer().write(args.trace, format=args.trace_format)
        print(
            f"wrote {len(obs.tracer())} spans to {args.trace} "
            f"({args.trace_format} format)",
            file=sys.stderr,
        )
    if args.profile:
        Path(args.profile).write_text(
            json.dumps(profiler.to_json(), indent=1) + "\n", encoding="utf-8"
        )
        print(
            f"wrote {profiler.total_samples} profile samples to {args.profile}",
            file=sys.stderr,
        )
    if args.flight:
        written = obs.flight_recorder().write_jsonl(args.flight)
        print(
            f"wrote {written} flight records to {args.flight} (JSONL)",
            file=sys.stderr,
        )
    if args.metrics:
        _print_metrics_table(obs.registry())
    return 0


def cmd_workload_capture(args: argparse.Namespace) -> int:
    from repro.experiments.replay import capture_workload, save_workload

    index = _open_with_recovery(args.index)
    rng = random.Random(args.seed)
    alphas = args.alpha or [0.95]
    vertices = list(index.graph.vertices())
    triples: list[tuple[int, int, float]] = []
    while len(triples) < args.count:
        s, t = rng.choice(vertices), rng.choice(vertices)
        if s != t:
            triples.append((s, t, rng.choice(alphas)))
    deadline_s = args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
    document = capture_workload(
        index, triples, use_pruning=not args.no_pruning, deadline_s=deadline_s
    )
    save_workload(document, args.output)
    meta = document["meta"]
    print(
        format_table(
            ["property", "value"],
            [
                ["queries captured", meta["queries"]],
                ["alphas", ", ".join(f"{a:g}" for a in sorted(set(alphas)))],
                ["pruning", not args.no_pruning],
                ["written to", str(args.output)],
            ],
            title="Workload captured",
        )
    )
    return 0


def cmd_workload_show(args: argparse.Namespace) -> int:
    from repro.experiments.replay import load_workload, percentile
    from repro.obs.flight import FLIGHT_FIELDS, records_from_rows

    workload = load_workload(args.workload)
    records = records_from_rows(workload["records"])
    if not records:
        print(f"{args.workload}: empty workload", file=sys.stderr)
        return 1
    idx = {name: i for i, name in enumerate(FLIGHT_FIELDS)}
    totals = [rec[idx["total_ns"]] for rec in records]
    cases: dict[str, int] = {}
    for rec in records:
        cases[rec[idx["case"]]] = cases.get(rec[idx["case"]], 0) + 1
    rows = [
        ["queries", len(records)],
        ["case mix", ", ".join(f"{k}={v}" for k, v in sorted(cases.items()))],
        ["degraded", sum(1 for rec in records if rec[idx["degraded"]])],
        ["p50 latency", f"{percentile(totals, 0.50) / 1e6:.3f} ms"],
        ["p95 latency", f"{percentile(totals, 0.95) / 1e6:.3f} ms"],
        ["p99 latency", f"{percentile(totals, 0.99) / 1e6:.3f} ms"],
    ]
    print(
        format_table(
            ["property", "value"],
            rows,
            title=f"Workload {args.workload} ({workload['schema']})",
        )
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.experiments.replay import (
        format_replay_report,
        load_workload,
        replay_workload,
    )

    index = _open_with_recovery(args.index)
    try:
        workload = load_workload(args.workload)
        report = replay_workload(index, workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_replay_report(report))
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8"
        )
        print(f"wrote replay report to {args.report}", file=sys.stderr)
    return 0 if report["identical"] else 1


def cmd_obs_dump(args: argparse.Namespace) -> int:
    """Exercise every instrumented phase with observation on, then dump.

    Builds (or loads) an index, answers a random workload, and — unless
    ``--no-update`` — applies one maintenance update, so the dump carries
    live construction, engine, and maintenance observations alongside the
    full pre-registered metric name space.
    """
    obs.enable()
    if args.index:
        index = load_index(args.index)
    else:
        graph, cov = _load_network(args)
        index = NRPIndex(graph, cov if not cov.is_empty() else None, window=args.k)
    queries = _random_queries(index, args.queries, args.alpha, args.seed)
    index.query_batch(queries)
    if not args.no_update:
        u, v, weight = next(iter(index.graph.edges()))
        IndexMaintainer(index).update_edge(u, v, weight.mu * 1.1, weight.variance)
    registry = obs.registry()
    if args.format == "prom":
        text = registry.to_prometheus()
    else:
        text = json.dumps(registry.to_json(), indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote metrics dump to {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    from repro.serve.lifecycle import wal_for

    index = _open_with_recovery(args.index)
    variance = args.sigma * args.sigma
    wal = wal_for(args.index)
    # WAL protocol: journal, apply in memory, durably save, then commit —
    # a crash anywhere in between either replays or rolls back on reopen.
    report = IndexMaintainer(index, wal=wal).update_edge(
        args.u, args.v, args.mu, variance
    )
    save_index(index, args.index)
    if report.wal_lsn is not None:
        wal.commit(report.wal_lsn)
    wal.truncate()
    print(
        format_table(
            ["metric", "value"],
            [
                ["edge", f"({args.u}, {args.v}) -> N({args.mu}, {variance})"],
                ["edge sets recomputed", report.edge_sets_recomputed],
                ["edge sets changed", report.edge_sets_changed],
                ["labels rebuilt", report.labels_rebuilt],
                ["repair time", format_seconds(report.seconds)],
            ],
            title="Index updated in place",
        )
    )
    return 0


def cmd_index_verify(args: argparse.Namespace) -> int:
    """0 = intact, 1 = damaged (corrupt/truncated), 2 = unreadable."""
    try:
        report = verify_index(args.path)
    except (IndexCorruptError, IndexTruncatedError) as exc:
        print(f"damaged: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (IndexFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"unreadable: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(
        format_table(
            ["property", "value"],
            [
                ["file", str(args.path)],
                ["format", report["format"]],
                ["bytes", report["bytes"]],
                ["checksummed", report["checksummed"]],
                ["vertices", report["vertices"]],
                ["edges", report["edges"]],
                ["planes", ", ".join(report["planes"])],
            ],
            title="Index file verified",
        )
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.runners import AlgorithmSuite
    from repro.experiments.workloads import random_queries

    if args.metrics or args.metrics_output:
        obs.enable(metrics=True, tracing=False)
    graph, cov = _load_network(args)
    algorithms = tuple(args.algorithms.split(","))
    suite = AlgorithmSuite(graph, cov if not cov.is_empty() else None, algorithms=algorithms)
    queries = random_queries(graph, args.queries, seed=args.seed)
    rows = []
    for name in suite.algorithms:
        result = suite.run(name, queries)
        rows.append([name, format_seconds(result.seconds), f"{result.ms_per_query:.3f} ms"])
    print(
        format_table(
            ["algorithm", "workload time", "per query"],
            rows,
            title=f"{len(queries)} random queries on {args.dataset} (scale {args.scale})",
        )
    )
    if args.metrics:
        _print_metrics_table(obs.registry())
    if args.metrics_output:
        from repro.resilience.atomic import atomic_write_text

        atomic_write_text(
            Path(args.metrics_output),
            json.dumps(obs.registry().to_json(), indent=1) + "\n",
        )
        print(f"wrote metrics sidecar to {args.metrics_output}", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import QueryServer

    if not args.no_obs:
        obs.enable(metrics=True, tracing=False)
    index = _open_with_recovery(args.index)
    server = QueryServer(
        index,
        host=args.host,
        port=args.port,
        queue_capacity=args.queue,
        workers=args.workers,
        default_deadline_ms=args.deadline_ms,
        default_ttl_ms=args.ttl_ms,
        index_path=str(args.index),
    )
    server.start()
    # SIGHUP hot-reloads the index (the classic daemon convention).  The
    # handler only hands off: reload does file IO, which has no business
    # inside a signal handler.  Registration is main-thread-only —
    # in-process test harnesses run cmd_serve on a worker thread, where
    # signal.signal raises ValueError.
    if (
        hasattr(signal, "SIGHUP")
        and threading.current_thread() is threading.main_thread()
    ):
        def _on_sighup(signum, frame):  # pragma: no cover - signal path
            threading.Thread(
                target=lambda: print(
                    json.dumps(server.reload()), file=sys.stderr, flush=True
                ),
                name="serve-sighup-reload",
                daemon=True,
            ).start()

        signal.signal(signal.SIGHUP, _on_sighup)
    # One parseable line on stdout so scripts can discover an ephemeral
    # port; everything else goes to stderr.
    print(f"repro-serve listening {server.host}:{server.port}", flush=True)
    print(
        f"serving {args.index} (workers={server.workers}, "
        f"queue={server.queue_capacity}, "
        f"deadline_ms={args.deadline_ms}, ttl_ms={args.ttl_ms}) — repro "
        f"serve-client --port {server.port} to query, op shutdown or "
        f"SIGINT to stop, SIGHUP or op reload to hot-swap the index",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.wait()
    except KeyboardInterrupt:
        print("interrupt: stopping", file=sys.stderr)
        server.stop()
    snapshot = server.stats.snapshot()
    print(
        f"served {snapshot['completed']} queries "
        f"({snapshot['degraded']} degraded, {snapshot['shed']} shed, "
        f"{snapshot['expired']} expired, {snapshot['circuit_open']} "
        f"circuit-open, {snapshot['invalid']} invalid); "
        f"{snapshot['worker_restarts']} worker restart(s), "
        f"{snapshot['reloads']} reload(s)",
        file=sys.stderr,
    )
    return 0


def cmd_serve_client(args: argparse.Namespace) -> int:
    from repro.experiments.replay import percentile
    from repro.serve.client import RetryPolicy, ServeClient, ServeError

    host, port = args.host, args.port

    def policy(seed: int) -> RetryPolicy:
        return RetryPolicy(retries=args.retries, seed=seed)

    if args.ping:
        with ServeClient(host, port) as client:
            print(json.dumps(client.ping(), indent=1))
    if args.health:
        with ServeClient(host, port) as client:
            print(json.dumps(client.health(), indent=1))
    if args.reload is not None:
        with ServeClient(host, port) as client:
            reply = client.reload(args.reload or None)
        print(json.dumps(reply, indent=1))
        if not reply.get("ok"):
            return 1
    queries: list[tuple[int, int, float]] = []
    if args.random:
        with ServeClient(host, port) as probe:
            n = int(probe.ping().get("n", 0))
        if n < 2:
            print("error: server index has fewer than 2 vertices", file=sys.stderr)
            return 2
        rng = random.Random(args.seed)
        for _ in range(args.random):
            s = rng.randrange(n)
            t = rng.randrange(n)
            while t == s:
                t = rng.randrange(n)
            queries.append((s, t, args.alpha))
    elif args.source is not None and args.target is not None:
        queries.append((args.source, args.target, args.alpha))

    exit_code = 0
    if len(queries) == 1 and args.concurrency <= 1:
        with ServeClient(host, port, retry=policy(args.seed)) as client:
            s, t, alpha = queries[0]
            print(
                json.dumps(
                    client.query(
                        s,
                        t,
                        alpha,
                        deadline_ms=args.deadline_ms,
                        ttl_ms=args.ttl_ms,
                        resilient=args.retries > 0,
                    )
                )
            )
    elif queries:
        # Every refusal class gets its own bucket: a shed (or a breaker
        # shed, or a triaged TTL) is *not* a success, and the exit code
        # below makes that machine-visible.
        outcome = {
            "ok": 0,
            "degraded": 0,
            "shed": 0,
            "circuit_open": 0,
            "expired": 0,
            "error": 0,
        }
        budget = {"attempts": 0, "retries": 0, "reconnects": 0, "exhausted": 0}
        latencies: list[float] = []
        lock = threading.Lock()

        def drive(worker_id: int, chunk: list[tuple[int, int, float]]) -> None:
            try:
                with ServeClient(
                    host, port, retry=policy(args.seed + worker_id)
                ) as client:
                    for i, (s, t, alpha) in enumerate(chunk):
                        started = time.perf_counter()
                        try:
                            response = client.query(
                                s,
                                t,
                                alpha,
                                id=i,
                                deadline_ms=args.deadline_ms,
                                ttl_ms=args.ttl_ms,
                                resilient=args.retries > 0,
                            )
                        except ServeError as exc:
                            with lock:
                                outcome["error"] += 1
                            print(f"request failed: {exc}", file=sys.stderr)
                            continue
                        elapsed_one = time.perf_counter() - started
                        with lock:
                            latencies.append(elapsed_one)
                            if response.get("ok"):
                                outcome["ok"] += 1
                                if response.get("degraded"):
                                    outcome["degraded"] += 1
                            elif response.get("error") in outcome:
                                outcome[response["error"]] += 1
                            else:
                                outcome["error"] += 1
                    with lock:
                        for key in budget:
                            budget[key] += client.retry_stats[key]
            except ServeError as exc:
                with lock:
                    outcome["error"] += 1
                print(f"connection failed: {exc}", file=sys.stderr)

        workers = max(1, args.concurrency)
        chunks = [queries[i::workers] for i in range(workers)]
        threads = [
            threading.Thread(target=drive, args=(wid, chunk))
            for wid, chunk in enumerate(chunks)
            if chunk
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        qps = len(latencies) / elapsed if elapsed > 0 else 0.0
        shed_classes = (
            outcome["shed"] + outcome["circuit_open"] + outcome["expired"]
        )
        shed_pct = 100.0 * shed_classes / len(queries) if queries else 0.0
        rows = [
            ["queries", str(len(queries))],
            ["connections", str(len(threads))],
            ["ok", str(outcome["ok"])],
            ["degraded", str(outcome["degraded"])],
            ["shed", str(outcome["shed"])],
            ["circuit-open", str(outcome["circuit_open"])],
            ["expired", str(outcome["expired"])],
            ["errors", str(outcome["error"])],
            ["shed classes", f"{shed_pct:.1f}% (max {args.max_shed_pct:g}%)"],
            ["retries spent", f"{budget['retries']} of {args.retries}/query"],
            ["reconnects", str(budget["reconnects"])],
            ["throughput", f"{qps:.0f} q/s"],
        ]
        if latencies:
            rows += [
                ["p50 latency", format_seconds(percentile(latencies, 0.50))],
                ["p95 latency", format_seconds(percentile(latencies, 0.95))],
                ["p99 latency", format_seconds(percentile(latencies, 0.99))],
            ]
        print(format_table(["metric", "value"], rows, title="serve-client workload"))
        if shed_pct > args.max_shed_pct:
            print(
                f"error: {shed_pct:.1f}% of queries were shed/triaged "
                f"(> --max-shed-pct {args.max_shed_pct:g})",
                file=sys.stderr,
            )
            exit_code = 1
        if outcome["error"] and args.max_shed_pct < 100.0:
            # A strict threshold implies strict accounting: hard errors
            # must not pass where soft sheds would fail.
            exit_code = 1
    if args.stats:
        with ServeClient(host, port) as client:
            print(json.dumps(client.stats(), indent=1))
    if args.shutdown:
        with ServeClient(host, port) as client:
            client.shutdown()
        print("server stopping", file=sys.stderr)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NRP: reliable shortest path index (ICDE 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a network")
    _add_network_options(p_info)
    p_info.set_defaults(fn=cmd_info)

    p_build = sub.add_parser("build", help="build and save an NRP index")
    _add_network_options(p_build)
    p_build.add_argument("--correlated", action="store_true")
    p_build.add_argument("--low-alpha", action="store_true", help="also build P^{<0.5}")
    p_build.add_argument("--output", type=Path, required=True)
    p_build.set_defaults(fn=cmd_build)

    p_query = sub.add_parser("query", help="answer RSP queries from a saved index")
    p_query.add_argument("--index", type=Path, required=True)
    p_query.add_argument("--source", type=int)
    p_query.add_argument("--target", type=int)
    p_query.add_argument("--alpha", type=float, default=0.95)
    p_query.add_argument("--random", type=int, help="run N random queries instead")
    p_query.add_argument("--seed", type=int, default=7)
    p_query.add_argument("--show-paths", action="store_true")
    p_query.add_argument(
        "--stats", action="store_true", help="print aggregate Algorithm 1/2 counters"
    )
    p_query.add_argument(
        "--trace",
        type=Path,
        help="write a span trace of the workload to this file",
    )
    p_query.add_argument(
        "--trace-format",
        choices=("chrome", "json"),
        default="chrome",
        help="trace file format: chrome://tracing events or schema'd JSON",
    )
    p_query.add_argument(
        "--metrics",
        action="store_true",
        help="print the observability metrics registry after the workload",
    )
    p_query.add_argument(
        "--profile",
        type=Path,
        help="sample the workload with the wall-clock profiler; write JSON here",
    )
    p_query.add_argument(
        "--slow-ms",
        type=float,
        help="log any query slower than this many milliseconds (stderr)",
    )
    p_query.add_argument(
        "--deadline-ms",
        type=float,
        help="per-query latency budget; over-budget queries fall back to "
        "the mean-only degraded answer instead of failing",
    )
    p_query.add_argument(
        "--flight",
        type=Path,
        help="arm the flight recorder and write its per-query records "
        "to this file as JSONL",
    )
    p_query.set_defaults(fn=cmd_query)

    p_workload = sub.add_parser("workload", help="flight-recorder workload tooling")
    workload_sub = p_workload.add_subparsers(dest="workload_command", required=True)
    p_capture = workload_sub.add_parser(
        "capture",
        help="answer a random workload with the flight recorder armed and "
        "persist it as a replayable workload file",
    )
    p_capture.add_argument("--index", type=Path, required=True)
    p_capture.add_argument("--count", type=int, default=1000, help="queries to capture")
    p_capture.add_argument(
        "--alpha",
        type=float,
        action="append",
        help="alpha value(s) to draw from (repeatable; default 0.95)",
    )
    p_capture.add_argument("--seed", type=int, default=7)
    p_capture.add_argument(
        "--no-pruning", action="store_true", help="capture the Figure-9 ablation"
    )
    p_capture.add_argument(
        "--deadline-ms", type=float, help="per-query deadline during capture"
    )
    p_capture.add_argument("--output", "-o", type=Path, required=True)
    p_capture.set_defaults(fn=cmd_workload_capture)
    p_show = workload_sub.add_parser("show", help="summarise a workload file")
    p_show.add_argument("workload", type=Path)
    p_show.set_defaults(fn=cmd_workload_show)

    p_replay = sub.add_parser(
        "replay",
        help="re-execute a captured workload, verify result digests "
        "bit-identically (exit 1 on mismatch), and print the comparison",
    )
    p_replay.add_argument("--index", type=Path, required=True)
    p_replay.add_argument("--workload", type=Path, required=True)
    p_replay.add_argument(
        "--report", type=Path, help="also write the comparison report as JSON"
    )
    p_replay.set_defaults(fn=cmd_replay)

    p_update = sub.add_parser("update", help="change one edge's distribution")
    p_update.add_argument("--index", type=Path, required=True)
    p_update.add_argument("--u", type=int, required=True)
    p_update.add_argument("--v", type=int, required=True)
    p_update.add_argument("--mu", type=float, required=True)
    p_update.add_argument("--sigma", type=float, required=True)
    p_update.set_defaults(fn=cmd_update)

    p_index = sub.add_parser("index", help="saved-index tooling")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_verify = index_sub.add_parser(
        "verify",
        help="check a saved index's framing, checksum, and structure "
        "(exit 0 intact / 1 damaged / 2 unreadable)",
    )
    p_verify.add_argument("path", type=Path, help="saved index file")
    p_verify.set_defaults(fn=cmd_index_verify)

    p_bench = sub.add_parser("bench", help="quick latency comparison")
    _add_network_options(p_bench)
    p_bench.add_argument("--correlated", action="store_true")
    p_bench.add_argument("--queries", type=int, default=20)
    p_bench.add_argument(
        "--algorithms", default="NRP,TBS,ERSP-A*,SDRSP-A*,SMOGA", help="comma-separated"
    )
    p_bench.add_argument(
        "--metrics",
        action="store_true",
        help="enable the metrics registry and print it after the run",
    )
    p_bench.add_argument(
        "--metrics-output",
        type=Path,
        help="write the full metrics registry dump (JSON) to this file",
    )
    p_bench.set_defaults(fn=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="long-lived query daemon over a saved index (docs/serving.md)"
    )
    p_serve.add_argument("--index", type=Path, required=True)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port (printed)"
    )
    p_serve.add_argument(
        "--queue",
        type=int,
        default=256,
        help="admission queue capacity; a full queue sheds new requests",
    )
    p_serve.add_argument("--workers", type=int, default=2, help="worker threads")
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        help="default per-query budget; over-budget queries return the "
        "mean-only degraded answer (requests may override per query)",
    )
    p_serve.add_argument(
        "--ttl-ms",
        type=float,
        help="default queue-wait budget; a request still queued past its "
        "TTL is answered 'expired' without touching the engine",
    )
    p_serve.add_argument(
        "--no-obs",
        action="store_true",
        help="leave the metrics registry disabled (/metrics stays empty)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_sclient = sub.add_parser(
        "serve-client", help="query a running 'repro serve' daemon"
    )
    p_sclient.add_argument("--host", default="127.0.0.1")
    p_sclient.add_argument("--port", type=int, required=True)
    p_sclient.add_argument("--source", type=int)
    p_sclient.add_argument("--target", type=int)
    p_sclient.add_argument("--alpha", type=float, default=0.95)
    p_sclient.add_argument(
        "--random", type=int, help="run N random queries (node range via ping)"
    )
    p_sclient.add_argument("--seed", type=int, default=7)
    p_sclient.add_argument(
        "--concurrency", type=int, default=1, help="concurrent connections"
    )
    p_sclient.add_argument("--deadline-ms", type=float, help="per-query budget")
    p_sclient.add_argument(
        "--ttl-ms", type=float, help="per-query queue-wait budget (TTL triage)"
    )
    p_sclient.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry budget per query for transient failures (shed, "
        "circuit-open, torn lines); 0 disables client resilience",
    )
    p_sclient.add_argument(
        "--max-shed-pct",
        type=float,
        default=100.0,
        help="exit non-zero if more than this %% of queries came back "
        "shed/circuit-open/expired (default 100: never fail)",
    )
    p_sclient.add_argument("--ping", action="store_true", help="print the ping reply")
    p_sclient.add_argument(
        "--health", action="store_true", help="print the daemon's health report"
    )
    p_sclient.add_argument(
        "--reload",
        nargs="?",
        const="",
        metavar="PATH",
        help="hot-reload the daemon's index (from PATH if given, else the "
        "file it was started from); exits non-zero on rollback",
    )
    p_sclient.add_argument(
        "--stats", action="store_true", help="print server stats after the workload"
    )
    p_sclient.add_argument(
        "--shutdown", action="store_true", help="stop the daemon when done"
    )
    p_sclient.set_defaults(fn=cmd_serve_client)

    p_obs = sub.add_parser("obs", help="observability tooling")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_dump = obs_sub.add_parser(
        "dump",
        help="run an instrumented build/query/update cycle and dump all metrics",
    )
    _add_network_options(p_dump)
    p_dump.add_argument("--correlated", action="store_true")
    p_dump.add_argument(
        "--index", type=Path, help="load this saved index instead of building one"
    )
    p_dump.add_argument("--queries", type=int, default=10)
    p_dump.add_argument("--alpha", type=float, default=0.95)
    p_dump.add_argument(
        "--no-update", action="store_true", help="skip the maintenance update step"
    )
    p_dump.add_argument(
        "--format", choices=("json", "prom"), default="json", help="dump format"
    )
    p_dump.add_argument("--output", type=Path, help="write here instead of stdout")
    p_dump.set_defaults(fn=cmd_obs_dump)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except IndexCorruptError as exc:
        print(f"error: corrupt index file: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except IndexTruncatedError as exc:
        print(f"error: truncated index file: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except IndexFormatError as exc:
        print(f"error: unreadable index format: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except QueryValidationError as exc:
        print(f"error: invalid query: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
