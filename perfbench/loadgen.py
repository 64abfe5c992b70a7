"""Open-loop load over two pipelined NDJSON connections.

Requests are sent at their Poisson due times whatever the replies do (an
open loop: independent users).  The sender is the calling thread and one
receiver thread reads both connections and the daemon's stderr, so the
load costs two threads and two connections, the core count of the
machine the benchmark was sized on.  Latency is taken from each
request's *due* time, so a stall also charges the requests queued behind
it, and ``send_ns - due_ns`` records how far behind schedule the sender
ran.

The per-request client work is kept small so the client does not cap the
rates it measures: request lines are encoded before the phase starts,
overdue requests go out in one write, and the receiver only stamps each
line with its arrival time.  The daemon answers each connection in
request order, so the k-th line on a connection answers its k-th
request; replies are parsed after the phase, and a reply whose ``id``
differs from its request's is a protocol error.

All timestamps are ``time.perf_counter_ns()``: CLOCK_MONOTONIC on Linux,
one clock for every process on the host, so the daemon's spans line up
with the client's without any offset.
"""

from __future__ import annotations

import collections
import json
import selectors
import socket
import threading
import time
from typing import Callable, Iterable

#: How long after the last send the receiver waits for stragglers.
GRACE_S = 15.0


class Record:
    """One request as the client saw it."""

    __slots__ = ("id", "triple", "due_ns", "send_ns", "recv_ns", "reply", "conn", "version")

    def __init__(self, rid: int, triple: tuple, due_ns: int, conn: int, version: int):
        self.id = rid
        self.triple = triple
        self.due_ns = due_ns
        self.send_ns = 0
        self.recv_ns = 0
        self.reply: "dict | bytes | None" = None
        self.conn = conn
        self.version = version

    @property
    def ok(self) -> bool:
        reply = self.reply
        return reply is not None and reply.get("ok") is True and not reply.get("degraded")

    @property
    def rtt_ns(self) -> int:
        return self.recv_ns - self.due_ns


class LoadGen:
    """Two connections to one daemon, reused across phases."""

    def __init__(self, daemon) -> None:
        self.daemon = daemon
        self.socks = []
        for _ in range(2):
            sock = socket.create_connection(("127.0.0.1", daemon.port), timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.next_id = 0
        self._error: "BaseException | None" = None

    def close(self) -> None:
        for sock in self.socks:
            sock.close()

    def run(
        self,
        offsets: list[float],
        triples: Iterable[tuple],
        actions: "list[tuple[float, Callable[[], None]]] | None" = None,
    ) -> list[Record]:
        """Send one request per offset; returns the records in send order.

        ``actions`` are ``(offset, fn)`` pairs the sender runs when their
        time comes (the index swaps of ``serve_update``).
        """
        lines = []
        records: list[Record] = []
        for offset, triple in zip(offsets, triples):
            rid = self.next_id
            self.next_id += 1
            s, t, alpha = triple
            lines.append(
                json.dumps({"op": "query", "id": rid, "s": s, "t": t, "alpha": alpha}).encode()
                + b"\n"
            )
            records.append(Record(rid, triple, int(offset * 1e9), rid % 2, 0))
        actions = sorted(actions or [], key=lambda a: a[0])
        pending = [collections.deque(), collections.deque()]
        sent_all = threading.Event()
        receiver = threading.Thread(
            target=self._receive, args=(pending, sent_all, len(records)), name="perfbench-recv"
        )
        start = time.perf_counter_ns() + 20_000_000
        for record in records:
            record.due_ns += start
        receiver.start()
        try:
            i, count = 0, len(records)
            while i < count:
                due = records[i].due_ns
                while actions and start + int(actions[0][0] * 1e9) <= due:
                    self._sleep_until(start + int(actions[0][0] * 1e9))
                    actions.pop(0)[1]()
                self._sleep_until(due)
                # Everything already due goes out now, one write per connection.
                now = time.perf_counter_ns()
                j = i + 1
                while j < count and records[j].due_ns <= now:
                    j += 1
                # The index version is the number of reload acks read so far.
                version = len(self.daemon.acks)
                for conn in (0, 1):
                    chunk = [k for k in range(i, j) if records[k].conn == conn]
                    if not chunk:
                        continue
                    for k in chunk:
                        records[k].version = version
                        records[k].send_ns = now
                        pending[conn].append(records[k])
                    self.socks[conn].sendall(b"".join(lines[k] for k in chunk))
                i = j
            for _, fn in actions:
                fn()
        finally:
            sent_all.set()
            receiver.join()
        if self._error is not None:
            raise self._error
        for record in records:
            if record.reply is not None:
                record.reply = json.loads(record.reply)
                if record.reply.get("id") != record.id:
                    raise ConnectionError(
                        f"reply for request {record.reply.get('id')} "
                        f"arrived in the slot of request {record.id}"
                    )
        return records

    @staticmethod
    def _sleep_until(when_ns: int) -> None:
        left = when_ns - time.perf_counter_ns()
        if left > 0:
            time.sleep(left / 1e9)

    def _receive(self, pending, sent_all: threading.Event, expected: int) -> None:
        sel = selectors.DefaultSelector()
        buffers = [b"", b""]
        for i, sock in enumerate(self.socks):
            sel.register(sock, selectors.EVENT_READ, i)
        sel.register(self.daemon.stderr_fd, selectors.EVENT_READ, -1)
        received = 0
        deadline = None
        try:
            while received < expected:
                if sent_all.is_set():
                    if deadline is None:
                        deadline = time.perf_counter() + GRACE_S
                    elif time.perf_counter() > deadline:
                        return
                for key, _ in sel.select(timeout=0.05):
                    i = key.data
                    if i < 0:
                        self.daemon.pump_stderr()
                        continue
                    data = self.socks[i].recv(262144)
                    now = time.perf_counter_ns()
                    if not data:
                        raise ConnectionError("daemon closed a load connection")
                    lines = (buffers[i] + data).split(b"\n")
                    buffers[i] = lines.pop()
                    queue = pending[i]
                    for line in lines:
                        record = queue.popleft()
                        record.recv_ns = now
                        record.reply = line
                    received += len(lines)
        except BaseException as exc:  # re-raised on the sending thread
            self._error = exc
        finally:
            sel.close()
