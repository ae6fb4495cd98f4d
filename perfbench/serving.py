"""A `bfl serve` child process and the single keep-alive client that drives it."""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "serve_launcher.py")

_READY = re.compile(r"listening on http://[^:]+:(\d+) ")

#: Longest wait for the ready line or a drain.
START_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 120.0


class ServerError(RuntimeError):
    pass


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for pid {pid}")


class Server:
    """One `bfl serve` child: started, read ready, driven, stopped.

    Args:
        workdir: Directory for the child's stderr log (and spans file).
        scenarios: Scenario name -> Galileo file path.
        pool_size: ``--pool-size``.
        store: ``--store`` directory.
        trace_out: Spans file; when given the child wraps the layer
            functions (see ``serve_launcher.py``).
    """

    def __init__(
        self,
        workdir: str,
        scenarios: Dict[str, str],
        pool_size: int,
        store: str,
        trace_out: Optional[str] = None,
        tag: str = "server",
    ) -> None:
        command = [sys.executable, LAUNCHER]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += [
            "serve",
            "--port", "0",
            "--pool-size", str(pool_size),
            "--store", store,
        ]
        for name, path in scenarios.items():
            command += ["--scenario", f"{name}={path}"]
        self.stderr_path = os.path.join(workdir, f"{tag}.stderr")
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                command,
                cwd=ROOT,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
        self.connection: Optional[http.client.HTTPConnection] = None
        try:
            self.port = self._read_port()
        except BaseException:
            self.kill()
            raise
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=START_TIMEOUT_S
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read_port(self) -> int:
        # Block on the child's stdout until the ready line arrives (no
        # sleep-polling); the selector only bounds the wait.
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise ServerError("bfl serve printed no ready line")
                line = self.process.stdout.readline().decode()
                if not line:
                    raise ServerError(
                        "bfl serve exited before it was ready: "
                        + self.stderr_text()[-2000:]
                    )
                match = _READY.search(line)
                if match:
                    return int(match.group(1))

    def stderr_text(self) -> str:
        with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as f:
            return f.read()

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        assert self.connection is not None
        self.connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> Dict[str, Any]:
        assert self.connection is not None
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        data = response.read()
        if response.status != 200:
            raise ServerError(f"GET {path} -> {response.status}")
        return json.loads(data)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.pid)

    def kill(self) -> None:
        """Stop a child whose state is no longer needed (set-up repeats)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close()

    def terminate(self) -> Dict[str, Any]:
        """SIGTERM with the client connection still open, as a real
        client leaves it; returns the drain finding."""
        start = time.perf_counter()
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        drain_s = time.perf_counter() - start
        self._close()
        stderr = self.stderr_text()
        return {
            "drain_s": drain_s,
            "exit_code": code,
            "stderr_traceback": "Traceback" in stderr,
            "stderr_cancelled_error": "CancelledError" in stderr,
            "stderr_tail": stderr[-1500:],
        }

    def _close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.process.stdout is not None:
            self.process.stdout.close()


def start(
    workdir: str,
    scenarios: Dict[str, str],
    pool_size: int,
    store: str,
    prewarm: List[bytes],
    trace_out: Optional[str] = None,
    tag: str = "server",
) -> Tuple[Server, float]:
    """Start a server and prewarm it; returns it with the set-up seconds
    (spawn to the last prewarm answer)."""
    start_at = time.perf_counter()
    server = Server(workdir, scenarios, pool_size, store, trace_out, tag)
    try:
        for body in prewarm:
            status, data = server.post("/battery", body)
            if status != 200 or not json.loads(data).get("ok"):
                raise ServerError(f"prewarm failed ({status}): {data[:500]!r}")
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - start_at
