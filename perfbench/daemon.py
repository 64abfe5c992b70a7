"""Start, probe and stop a ``repro serve`` daemon in its own process.

The plain daemon is ``python -m repro serve --index FILE`` with every flag
at its default.  The traced daemon is the same CLI entry point started by
``perfbench/traced_daemon.py``, which wraps the serve and engine entry
points first and writes the spans it kept to ``spans_path`` at exit.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.client import ServeClient, ServeError, http_get

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def prometheus_values(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


class Daemon:
    """One running daemon; ``start_s`` is spawn-to-``/readyz``-200 time."""

    def __init__(self, root: Path, index_path: Path, spans_path: "Path | None" = None):
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        serve_args = ["serve", "--index", str(index_path)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = root / "perfbench" / "traced_daemon.py"
            cmd = [sys.executable, str(launcher), str(spans_path), *serve_args]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        self.acks: list[tuple[int, dict]] = []
        self._stderr_buf = b""
        self.stderr_lines: list[str] = []
        os.set_blocking(self.proc.stderr.fileno(), False)
        try:
            self.port = self._read_port(started + START_TIMEOUT_S)
            while http_get("127.0.0.1", self.port, "/readyz")[0] != 200:
                if time.perf_counter() > started + START_TIMEOUT_S:
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise
        self.start_s = time.perf_counter() - started

    @property
    def stderr_fd(self) -> int:
        return self.proc.stderr.fileno()

    def _read_port(self, deadline: float) -> int:
        out = self.proc.stdout
        while True:
            ready, _, _ = select.select([out], [], [], max(0.0, deadline - time.perf_counter()))
            if not ready:
                raise RuntimeError("daemon printed no listening line")
            line = out.readline().decode("utf-8")
            if not line:
                self.pump_stderr()
                raise RuntimeError("daemon exited at start: " + "".join(self.stderr_lines)[-2000:])
            if line.startswith("repro-serve listening "):
                return int(line.rsplit(":", 1)[1])

    def pump_stderr(self) -> None:
        """Read whatever the daemon wrote to stderr; JSON lines are reload acks."""
        now = time.perf_counter_ns()
        try:
            data = os.read(self.stderr_fd, 65536)
        except BlockingIOError:
            return
        lines = (self._stderr_buf + data).split(b"\n")
        self._stderr_buf = lines.pop()
        for raw in lines:
            line = raw.decode("utf-8", "replace")
            self.stderr_lines.append(line)
            if line.startswith("{"):
                self.acks.append((now, json.loads(line)))

    def sighup(self) -> int:
        """Ask for a hot reload; returns the send time (perf_counter_ns)."""
        sent = time.perf_counter_ns()
        os.kill(self.proc.pid, signal.SIGHUP)
        return sent

    def wait_ack(self, count: int, timeout: float = 60.0) -> None:
        """Block until ``count`` reload acks have been read."""
        deadline = time.perf_counter() + timeout
        while len(self.acks) < count:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise RuntimeError("no reload ack from the daemon")
            select.select([self.stderr_fd], [], [], left)
            self.pump_stderr()

    def metrics(self) -> dict[str, float]:
        return prometheus_values(http_get("127.0.0.1", self.port, "/metrics")[1])

    def ping(self) -> dict:
        with ServeClient(port=self.port) as client:
            return client.ping()

    def vm_hwm_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Shut down through the protocol and wait for the process to end."""
        try:
            with ServeClient(port=self.port) as client:
                try:
                    client.shutdown()
                except ServeError:
                    pass  # the process may exit before it writes the ack
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        while True:
            ready, _, _ = select.select([self.stderr_fd], [], [], 0)
            if not ready:
                break
            before = len(self.stderr_lines), self._stderr_buf
            self.pump_stderr()
            if (len(self.stderr_lines), self._stderr_buf) == before:
                break
        self.proc.stdout.close()
        self.proc.stderr.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
