"""The serving plane: protocol units, daemon E2E, and CLI round trips.

The E2E tests spawn a real :class:`repro.serve.server.QueryServer` on an
ephemeral port and drive it over real sockets — concurrent clients,
deadline-induced degradation, deterministic load shedding (a gated
server subclass), the HTTP observability endpoints, and clean shutdown.
Every served answer is checked bit-identical (by digest) to the direct
engine path: the daemon must never change a result, only its transport.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro import build_index
from repro.cli import main
from repro.core.serialization import save_index
from repro.obs import get_registry
from repro.serve.client import ServeClient, ServeError, http_get
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode_message,
    error_response,
)
from repro.serve.server import QueryServer, _Handler
from conftest import make_random_instance, random_query


@pytest.fixture(scope="module")
def serve_index():
    return build_index(make_random_instance(21, n=26, extra=34))


@pytest.fixture()
def server(serve_index):
    with QueryServer(serve_index, workers=2, batch_max=8) as qs:
        yield qs


# ----------------------------------------------------------------------
# Protocol units
# ----------------------------------------------------------------------
class TestProtocol:
    def test_query_round_trip(self):
        req = decode_request(
            b'{"op":"query","id":7,"s":1,"t":2,"alpha":0.9,'
            b'"deadline_ms":50,"pruning":false}'
        )
        assert (req.op, req.id, req.s, req.t) == ("query", 7, 1, 2)
        assert req.alpha == 0.9
        assert req.deadline_ms == 50.0
        assert req.pruning is False

    def test_optional_fields_default(self):
        req = decode_request('{"op":"query","s":1,"t":2,"alpha":0.5}')
        assert req.id is None
        assert req.deadline_ms is None
        assert req.pruning is None

    @pytest.mark.parametrize(
        "line",
        [
            b"not json at all",
            b'"a string"',
            b'{"op":"frobnicate"}',
            b'{"op":"query","s":1,"t":2}',  # missing alpha
            b'{"op":"query","s":"x","t":2,"alpha":0.5}',
            b'{"op":"query","s":true,"t":2,"alpha":0.5}',  # bool is not int
            b'{"op":"query","s":1,"t":2,"alpha":"high"}',
            b'{"op":"query","s":1,"t":2,"alpha":0.5,"deadline_ms":-1}',
            b'{"op":"query","s":1,"t":2,"alpha":0.5,"pruning":"yes"}',
            b'{"op":"query","s":1,"t":2,"alpha":0.5,"id":[1]}',
            b"\xff\xfe invalid utf8",
        ],
    )
    def test_rejects_garbage(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_non_query_ops(self):
        for op in ("ping", "stats", "shutdown"):
            req = decode_request(json.dumps({"op": op, "id": "x"}))
            assert req.op == op and req.id == "x"

    def test_encode_message_is_one_line(self):
        wire = encode_message(error_response(3, "shed"))
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1
        assert json.loads(wire) == {"id": 3, "ok": False, "error": "shed"}


# ----------------------------------------------------------------------
# Daemon end-to-end
# ----------------------------------------------------------------------
class TestServerE2E:
    def test_ping_reports_index_and_backend(self, server, serve_index):
        with ServeClient(port=server.port) as client:
            pong = client.ping()
        assert pong["ok"] and pong["n"] == serve_index.graph.num_vertices
        assert pong["backend"] == "python"

    def test_answers_match_direct_engine(self, server, serve_index):
        import random

        rng = random.Random(31)
        queries = [random_query(serve_index.graph, rng) for _ in range(20)]
        with ServeClient(port=server.port) as client:
            responses = [client.query(s, t, a, id=i) for i, (s, t, a) in enumerate(queries)]
        for (s, t, alpha), resp in zip(queries, responses):
            assert resp["ok"], resp
            direct = serve_index.engine.answer(s, t, alpha)
            assert resp["digest"] == direct.digest()
            assert resp["value"] == direct.value
            assert resp["path_len"] == direct.summary.num_edges

    def test_concurrent_clients_all_correct(self, server, serve_index):
        import random

        failures: list = []
        expected = {}
        rng = random.Random(32)
        per_client = [
            [random_query(serve_index.graph, rng) for _ in range(25)]
            for _ in range(6)
        ]
        for chunk in per_client:
            for s, t, alpha in chunk:
                if (s, t, alpha) not in expected:
                    expected[(s, t, alpha)] = serve_index.engine.answer(
                        s, t, alpha
                    ).digest()

        def drive(chunk):
            try:
                with ServeClient(port=server.port) as client:
                    for i, (s, t, alpha) in enumerate(chunk):
                        resp = client.query(s, t, alpha, id=i)
                        if not resp.get("ok"):
                            failures.append(resp)
                        elif resp["digest"] != expected[(s, t, alpha)]:
                            failures.append((resp, expected[(s, t, alpha)]))
            except Exception as exc:  # surface thread errors to the test
                failures.append(repr(exc))

        threads = [threading.Thread(target=drive, args=(c,)) for c in per_client]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_deadline_induces_degraded(self, server):
        with ServeClient(port=server.port) as client:
            resp = client.query(0, 19, 0.9, deadline_ms=0.0001)
        assert resp["ok"] and resp["degraded"] is True
        # the degraded answer is still a real path with exact moments
        assert resp["path_len"] >= 1 and resp["variance"] >= 0.0

    def test_invalid_queries_answered_not_fatal(self, server):
        with ServeClient(port=server.port) as client:
            bad_alpha = client.query(0, 5, 1.7)
            bad_vertex = client.query(0, 10_000, 0.9)
            bad_self = client.query(10_000, 10_000, 0.9)
            good = client.query(0, 5, 0.9)  # connection survives all three
        assert bad_alpha == {
            "id": None,
            "ok": False,
            "error": "invalid",
            "detail": bad_alpha["detail"],
        }
        assert bad_vertex["error"] == "invalid"
        assert bad_self["error"] == "invalid"
        assert good["ok"]

    def test_mixed_batch_isolates_bad_query(self, serve_index):
        """One invalid query inside a micro-batch must not poison its
        batchmates (the answer_batch fallback path)."""
        with QueryServer(serve_index, workers=1, batch_max=8) as qs:
            results: dict = {}

            def one(key, s, t, alpha):
                with ServeClient(port=qs.port) as client:
                    results[key] = client.query(s, t, alpha)

            threads = [
                threading.Thread(target=one, args=("good1", 0, 7, 0.9)),
                threading.Thread(target=one, args=("bad", 0, 9_999, 0.9)),
                threading.Thread(target=one, args=("good2", 3, 12, 0.85)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert results["good1"]["ok"] and results["good2"]["ok"]
        assert results["bad"]["error"] == "invalid"

    def test_stats_op_counts(self, serve_index):
        with QueryServer(serve_index, workers=1, batch_max=4) as qs:
            with ServeClient(port=qs.port) as client:
                for i in range(5):
                    assert client.query(0, 8 + i, 0.9)["ok"]
                stats = client.stats()
        assert stats["ok"]
        assert stats["admitted"] == 5 and stats["completed"] == 5
        assert stats["shed"] == 0
        assert stats["batches"] >= 1
        assert stats["queue_capacity"] == 256

    def test_protocol_error_closes_connection(self, server):
        with ServeClient(port=server.port) as client:
            resp = client.request({"op": "frobnicate"})
            assert resp["error"] == "protocol"
            with pytest.raises(ServeError):
                client.ping()  # server hung up after the protocol error

    def test_oversized_line_refused(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        try:
            sock.sendall(b'{"op":"query","s":1,"t":2,"alpha":0.9,"id":"' +
                         b"x" * MAX_LINE_BYTES + b'"}\n')
            reply = sock.makefile("rb").readline()
        finally:
            sock.close()
        assert json.loads(reply)["error"] == "protocol"

    def test_http_endpoints(self, server):
        status, body = http_get("127.0.0.1", server.port, "/healthz")
        assert status == 200 and body.strip() == "ok"
        status, body = http_get("127.0.0.1", server.port, "/metrics")
        assert status == 200  # registry may be disabled; exposition still works
        status, body = http_get("127.0.0.1", server.port, "/stats")
        assert status == 200
        snapshot = json.loads(body)
        assert "completed" in snapshot and "queue_depth" in snapshot
        status, _ = http_get("127.0.0.1", server.port, "/nope")
        assert status == 404

    def test_metrics_exposed_when_enabled(self, serve_index):
        registry = get_registry()
        registry.enable()
        try:
            with QueryServer(serve_index, workers=1, batch_max=4) as qs:
                with ServeClient(port=qs.port) as client:
                    assert client.query(0, 13, 0.9)["ok"]
                _, body = http_get("127.0.0.1", qs.port, "/metrics")
        finally:
            registry.disable()
            registry.reset()
        assert "repro_serve_admitted_total" in body
        assert "repro_serve_completed_total" in body
        assert "repro_engine_queries_total" in body

    def test_shutdown_op_stops_server(self, serve_index):
        qs = QueryServer(serve_index, workers=1)
        qs.start()
        with ServeClient(port=qs.port) as client:
            ack = client.shutdown()
        assert ack["ok"] and ack["stopping"]
        assert qs._stop.wait(timeout=5.0)
        assert not qs.running
        qs.stop()  # idempotent

    def test_shed_when_queue_full(self, serve_index):
        """Deterministic shed: gate the worker so the queue (capacity 1)
        holds one admitted request, then submit another."""
        gate = threading.Event()
        release = threading.Event()

        class GatedServer(QueryServer):
            def _process_batch(self, batch):
                gate.set()
                release.wait(timeout=10.0)
                super()._process_batch(batch)

        with GatedServer(serve_index, workers=1, queue_capacity=1, batch_max=1) as qs:
            first_resp: dict = {}

            def first():
                with ServeClient(port=qs.port) as client:
                    first_resp.update(client.query(0, 7, 0.9))

            filler: dict = {}

            def second_query():
                with ServeClient(port=qs.port) as client:
                    filler.update(client.query(1, 8, 0.9))

            blocker = threading.Thread(target=first)
            blocker.start()
            assert gate.wait(timeout=10.0)  # worker holds the first query
            # fill the (now empty) queue slot, then overflow it
            second = threading.Thread(target=second_query)
            second.start()
            pause = threading.Event()
            for _ in range(250):
                if qs._queue.full():
                    break
                pause.wait(0.02)
            assert qs._queue.full()
            with ServeClient(port=qs.port) as client:
                shed = client.query(2, 9, 0.9)
            assert shed == {"id": None, "ok": False, "error": "shed"}
            assert qs.stats.snapshot()["shed"] == 1
            release.set()
            blocker.join(timeout=10.0)
            second.join(timeout=10.0)
            assert first_resp["ok"] and filler["ok"]

    def test_rejects_bad_construction(self, serve_index):
        with pytest.raises(ValueError):
            QueryServer(serve_index, queue_capacity=0)
        with pytest.raises(ValueError):
            QueryServer(serve_index, workers=0)
        with pytest.raises(ValueError):
            QueryServer(serve_index, batch_max=-1)


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------
class TestTransport:
    """Both ends of an NDJSON connection run with Nagle's algorithm off."""

    def test_accepted_socket_has_nodelay(self, server, monkeypatch):
        seen = []
        original = _Handler.handle

        def handle(self):
            seen.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            original(self)

        monkeypatch.setattr(_Handler, "handle", handle)
        with ServeClient(port=server.port) as client:
            assert client.ping()["ok"]
        assert len(seen) == 1 and seen[0] != 0

    def test_client_socket_has_nodelay(self, server):
        with ServeClient(port=server.port) as client:
            assert client.ping()["ok"]
            sock = client._sock
            assert sock is not None
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_server_answers_without_numpy(self, serve_index, tmp_path):
        """Load, serve and answer in a fresh interpreter that never
        imports numpy; the served digest matches this process's engine."""
        from repro.core.serialization import save_index

        path = tmp_path / "idx.nrp"
        save_index(serve_index, path)
        script = textwrap.dedent(
            """
            import json, sys
            from repro.core.serialization import load_index
            from repro.serve.client import ServeClient
            from repro.serve.server import QueryServer

            with QueryServer(load_index(sys.argv[1]), workers=1) as qs:
                with ServeClient(port=qs.port) as client:
                    reply = client.query(0, 9, 0.9)
            print(json.dumps({"reply": reply, "numpy": "numpy" in sys.modules}))
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["numpy"] is False
        assert out["reply"]["ok"] and out["reply"]["backend"] == "python"
        assert out["reply"]["digest"] == serve_index.query(0, 9, 0.9).digest()


class TestServeCLI:
    def test_serve_and_client_round_trip(self, tmp_path, capsys):
        from repro import obs

        index_file = tmp_path / "serve.nrp"
        assert main(
            ["build", "--dataset", "NY", "--scale", "0.15",
             "--output", str(index_file)]
        ) == 0
        capsys.readouterr()
        # reserve an ephemeral port for the daemon thread
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        daemon = threading.Thread(
            target=main,
            args=(
                ["serve", "--index", str(index_file), "--port", str(port),
                 "--workers", "2", "--batch-max", "8"],
            ),
            daemon=True,
        )
        daemon.start()
        try:
            assert main(
                ["serve-client", "--port", str(port), "--random", "20",
                 "--concurrency", "3", "--stats"]
            ) == 0
            out = capsys.readouterr().out
            assert "throughput" in out and '"completed": 20' in out
            assert main(
                ["serve-client", "--port", str(port), "--source", "0",
                 "--target", "9", "--alpha", "0.9"]
            ) == 0
            single = json.loads(capsys.readouterr().out)
            assert single["ok"] and single["backend"] == "python"
        finally:
            assert main(["serve-client", "--port", str(port), "--shutdown"]) == 0
            daemon.join(timeout=10.0)
            obs.disable()
        assert not daemon.is_alive()


# ----------------------------------------------------------------------
# Self-healing satellites: degraded round trip, TTL triage, readiness
# ----------------------------------------------------------------------
class TestSelfHealingSatellites:
    def test_ttl_and_reload_fields_round_trip_the_protocol(self):
        req = decode_request(
            b'{"op":"query","s":1,"t":2,"alpha":0.9,"ttl_ms":25.5}'
        )
        assert req.ttl_ms == 25.5
        with pytest.raises(ProtocolError):
            decode_request(b'{"op":"query","s":1,"t":2,"alpha":0.9,"ttl_ms":0}')
        reload_req = decode_request(b'{"op":"reload","path":"/tmp/x.nrp"}')
        assert reload_req.op == "reload" and reload_req.path == "/tmp/x.nrp"
        with pytest.raises(ProtocolError):
            decode_request(b'{"op":"reload","path":7}')

    def test_degraded_flag_survives_ndjson_and_is_counted(self, serve_index):
        """satellite contract: ``QueryResult.degraded`` crosses the wire
        intact and lands in the ``serve.*`` metrics taxonomy."""
        registry = get_registry()
        registry.enable()
        registry.reset()  # earlier tests may have left counts behind
        try:
            with QueryServer(serve_index, workers=1, batch_max=4) as qs:
                with ServeClient(port=qs.port) as client:
                    resp = client.query(0, 19, 0.9, deadline_ms=0.0001)
            counters = registry.to_json()["counters"]
        finally:
            registry.disable()
            registry.reset()
        # The JSON-decoded response preserves the boolean, not a truthy echo.
        assert resp["ok"] and resp["degraded"] is True
        assert counters["serve.degraded"]["value"] == 1
        assert counters["serve.completed"]["value"] == 1
        assert counters["serve.expired"]["value"] == 0

    def test_expired_request_triaged_without_touching_engine(self, serve_index):
        """A request that overstays its TTL in the queue is answered
        ``expired`` at batch pickup; no engine call happens for it."""
        release = threading.Event()
        groups: list = []

        class GatedSpyServer(QueryServer):
            def _process_batch(self, batch):
                release.wait(timeout=10.0)
                super()._process_batch(batch)

            def _answer_group(self, members, *args):
                groups.append(list(members))
                super()._answer_group(members, *args)

        with GatedSpyServer(serve_index, workers=1, batch_max=4) as qs:
            result: dict = {}

            def go():
                with ServeClient(port=qs.port) as client:
                    result.update(client.query(0, 9, 0.9, ttl_ms=30))

            thread = threading.Thread(target=go)
            thread.start()
            pause = threading.Event()
            pause.wait(0.15)  # overstay the 30ms TTL inside the queue
            release.set()
            thread.join(timeout=10.0)
            snap = qs.stats.snapshot()
        assert result["error"] == "expired"
        assert "ttl 30ms" in result["detail"]
        assert groups == []  # the engine was never consulted
        assert snap["expired"] == 1 and snap["completed"] == 0

    def test_server_default_ttl_applies_when_request_has_none(self, serve_index):
        release = threading.Event()

        class GatedServer(QueryServer):
            def _process_batch(self, batch):
                release.wait(timeout=10.0)
                super()._process_batch(batch)

        with GatedServer(
            serve_index, workers=1, batch_max=4, default_ttl_ms=30
        ) as qs:
            result: dict = {}

            def go():
                with ServeClient(port=qs.port) as client:
                    result.update(client.query(0, 9, 0.9))  # no ttl_ms

            thread = threading.Thread(target=go)
            thread.start()
            pause = threading.Event()
            pause.wait(0.15)
            release.set()
            thread.join(timeout=10.0)
        assert result["error"] == "expired"

    def test_readyz_flips_on_draining_while_healthz_stays_alive(self, serve_index):
        with QueryServer(serve_index, workers=1) as qs:
            status, body = http_get("127.0.0.1", qs.port, "/readyz")
            assert status == 200 and body.strip() == "ok"
            qs.monitor.mark_draining()
            status, body = http_get("127.0.0.1", qs.port, "/readyz")
            assert status == 503 and body.strip() == "draining"
            # Liveness: draining is not a state a restart would improve.
            status, body = http_get("127.0.0.1", qs.port, "/healthz")
            assert status == 200 and body.strip() == "draining"
            with ServeClient(port=qs.port) as client:
                health = client.health()
            assert health["ok"] and health["state"] == "draining"
            assert health["workers_alive"] == 1
            assert health["circuit"]["state"] == "closed"

    def test_stats_surface_health_and_circuit(self, serve_index):
        with QueryServer(serve_index, workers=1) as qs:
            with ServeClient(port=qs.port) as client:
                stats = client.stats()
        assert stats["health"] == "healthy" and stats["circuit"] == "closed"
        assert stats["expired"] == 0 and stats["circuit_open"] == 0
        assert stats["worker_restarts"] == 0
        assert stats["reloads"] == 0 and stats["reload_failures"] == 0

    def test_reload_without_file_backing_refuses(self, serve_index):
        with QueryServer(serve_index, workers=1) as qs:
            with ServeClient(port=qs.port) as client:
                ack = client.reload()
        assert not ack["ok"] and ack["error"] == "reload_failed"
        assert "not file-backed" in ack["detail"]


class TestServeLedger:
    """``ServerStats`` is the daemon's one serve ledger: each ``serve.*``
    registry counter is its mirror, never a second count."""

    def test_registry_counters_reconcile_with_stats(self, serve_index, tmp_path):
        path = tmp_path / "served.nrp.json.gz"
        save_index(serve_index, path)
        registry = get_registry()
        registry.enable()
        registry.reset()  # earlier tests may have left counts behind
        try:
            with QueryServer(
                serve_index, workers=1, batch_max=4, index_path=str(path)
            ) as qs:
                with ServeClient(port=qs.port) as client:
                    for i in range(4):
                        assert client.query(0, 8 + i, 0.9)["ok"]
                    assert client.query(0, 10_000, 0.9)["error"] == "invalid"
                    # A 1 ns queue budget has always passed at batch pickup.
                    expired = client.query(0, 9, 0.9, ttl_ms=1e-6)
                    failed = client.reload(str(tmp_path / "missing.nrp.json.gz"))
                    reloaded = client.reload()
                stats = qs.stats.snapshot()
            counters = {
                name: entry["value"]
                for name, entry in registry.to_json()["counters"].items()
            }
        finally:
            registry.disable()
            registry.reset()
        assert expired["error"] == "expired"
        assert not failed["ok"] and reloaded["ok"]
        assert stats["completed"] == 4
        assert stats["invalid"] == 1 and stats["expired"] == 1
        for field, name in (
            ("admitted", "serve.admitted"),
            ("completed", "serve.completed"),
            ("shed", "serve.shed"),
            ("degraded", "serve.degraded"),
            ("batches", "serve.batches"),
            ("expired", "serve.expired"),
            ("circuit_open", "serve.circuit_open"),
            ("worker_restarts", "serve.worker.restarts"),
            ("reloads", "serve.reloads"),
            ("reload_failures", "serve.reload.failures"),
        ):
            assert counters[name] == stats[field], name
        assert counters["serve.errors"] == stats["errors"] + stats["invalid"]
        assert counters["serve.reloads"] == counters["serve.reload.failures"] == 1
