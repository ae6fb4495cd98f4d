"""`bfl serve`: the long-lived analysis daemon with a warm cache tier.

Every other entry point in this repo is a one-shot process that pays a
cold kernel build per invocation.  :class:`AnalysisServer` is the
session-holding front-end the BFL/PFL papers' interactive workflow
actually wants: fault trees are registered once at startup, live
:class:`~repro.service.batch.AnalysisSession`s are kept hot in an LRU
:class:`~repro.service.pool.SessionPool`, and evicted or cold scenarios
warm-start from a content-addressed
:class:`~repro.service.store.SnapshotStore` instead of re-running
Algorithm 1 — the three-tier lifecycle (live kernel / kernel snapshot /
cold tree) that ``benchmarks/bench_server.py`` gates at >= 10x.

The HTTP surface is stdlib ``asyncio`` only (mirroring the kernel's
numpy soft-dependency stance: the container may not have FastAPI, and a
five-endpoint JSON API does not need it).  The JSON battery format is
exactly ``bfl batch``'s query-file format, and every battery is
evaluated by a real :class:`~repro.service.batch.BatchAnalyzer` that
*adopts* the pooled sessions — so server answers are identical to a
sequential batch run by construction, per-request ``deadline_ms`` /
``query_timeout_ms`` ride the PR-8 :class:`~repro.runtime.limits.Governor`
unchanged, and failures come back as the same structured
``error_kind`` rows.

Operational behaviour (full reference: ``docs/server.md`` and
``docs/operations.md``):

* **Admission** — at most ``max_concurrency`` batteries evaluate at
  once; up to ``queue_limit`` more may wait.  Beyond that requests are
  rejected ``503 server-busy`` instead of queueing unboundedly.
* **Rate limiting** — an optional token bucket (``rate_limit``
  requests/sec, ``rate_burst`` burst) rejects excess requests with
  ``429 rate-limited`` and a ``retry_after_ms`` hint.  ``/healthz`` is
  exempt so liveness probes keep working under load.
* **Serialisation** — batteries touching the same scenario are
  serialised on per-scenario locks (they share one session; BDD
  managers are not re-entrant), while batteries over disjoint scenarios
  evaluate concurrently in worker threads.
* **Drain** — SIGTERM/SIGINT stop the listener, let in-flight batteries
  finish, persist every pooled session into the snapshot store, then
  exit; the next process warm-starts everything.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..errors import (
    QuerySpecError,
    RateLimitError,
    ReproError,
    ServerBusyError,
    error_kind,
)
from ..ft.tree import FaultTree
from .batch import AnalysisSession, BatchAnalyzer, kernel_key
from .options import AnalysisOptions, check_int, check_number
from .pool import SessionPool, overrides_digest
from .queries import DEFAULT_SCENARIO, BatchReport, specs_from_any
from .store import SnapshotStore

logger = logging.getLogger(__name__)

__all__ = [
    "AnalysisServer",
    "Route",
    "ROUTES",
    "SERVE_DEFAULTS",
    "ServerConfig",
    "TokenBucket",
]


@dataclass(frozen=True)
class Route:
    """One HTTP endpoint (the drift-gated public surface).

    ``docs/server.md`` keeps its endpoint table between
    ``<!-- endpoints:begin -->`` / ``<!-- endpoints:end -->`` markers in
    sync with this tuple; ``benchmarks/docs_gate.py`` enforces it the
    same way the DSL kind tables track the query-kind registry.
    """

    method: str
    path: str
    summary: str


#: The server's complete endpoint surface, in documentation order.
ROUTES: Tuple[Route, ...] = (
    Route("GET", "/healthz", "liveness/readiness probe (rate-limit exempt)"),
    Route("GET", "/scenarios", "registered scenarios with fingerprints and cache-tier state"),
    Route("GET", "/stats", "server, session-pool and snapshot-store counters"),
    Route("POST", "/query", "answer one query (single spec, optionally wrapped with options)"),
    Route("POST", "/battery", "answer a battery (the bfl batch query-file format over HTTP)"),
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request-body keys a battery may carry beyond the query list.  The
#: rest of the ``bfl batch`` file surface (trees, variants, workers,
#: snapshots) is *server* state, fixed at startup — a request trying to
#: smuggle it in gets a 400 instead of silently diverging.
_BATTERY_OPTION_KEYS = frozenset(
    {"probabilities", "uniform", "deadline_ms", "query_timeout_ms"}
)


class TokenBucket:
    """Classic token-bucket limiter (``rate`` tokens/sec, ``burst`` cap).

    ``clock`` is injectable for deterministic tests.  Thread-safe,
    although the server only consults it from the event loop.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not rate > 0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        if not burst >= 1:
            raise ValueError(f"burst must be >= 1, got {burst!r}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> Tuple[bool, float]:
        """``(admitted, retry_after_ms)`` — the hint is the time until
        the bucket refills a whole token."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            return False, (1.0 - self._tokens) / self.rate * 1000.0


#: The analysis defaults of ``bfl serve``: the API's, except that
#: automatic GC is on — a daemon's sessions live long enough to
#: accumulate dead intermediate BDDs worth reclaiming.
SERVE_DEFAULTS = AnalysisOptions(auto_gc=True)


@dataclass
class ServerConfig:
    """Knobs for :class:`AnalysisServer` (CLI flags map 1:1 onto these).

    Attributes:
        host: Bind address.
        port: Bind port (``0`` = ephemeral; read the bound port from
            ``server.port`` after ``start()``).
        pool_size: Live-session LRU capacity (hot tier).
        store_path: Snapshot-store directory (warm tier).  ``None``
            disables persistence: evicted sessions are simply dropped
            and cold starts rebuild from the tree.
        max_concurrency: Batteries evaluating at once (worker threads).
        queue_limit: Batteries allowed to *wait* for a worker slot
            before new requests are rejected ``503 server-busy``
            (``0``: admit only when a slot is free).
        rate_limit: Token-bucket refill rate in requests/sec
            (``None`` disables rate limiting).
        rate_burst: Token-bucket capacity (defaults to
            ``max(1, rate_limit)`` when left ``None``).
        max_body_bytes: Request-body cap (``413`` beyond it).
        analysis: Server-default :class:`AnalysisOptions` for every
            battery (:data:`SERVE_DEFAULTS`: automatic GC on).  A
            request's own ``probabilities``/``uniform``/``deadline_ms``/
            ``query_timeout_ms`` replace these for that request (and
            requests with their own weights get their own pooled
            sessions — PFL answers depend on the weights).

    Raises:
        QuerySpecError: On an invalid server field.
    """

    host: str = "127.0.0.1"
    port: int = 8346
    pool_size: int = 8
    store_path: Optional[str] = None
    max_concurrency: int = 4
    queue_limit: int = 16
    rate_limit: Optional[float] = None
    rate_burst: Optional[float] = None
    max_body_bytes: int = 8 * 1024 * 1024
    analysis: AnalysisOptions = SERVE_DEFAULTS

    def __post_init__(self) -> None:
        for name, minimum in (
            ("port", 0),
            ("pool_size", 1),
            ("max_concurrency", 1),
            ("queue_limit", 0),
            ("max_body_bytes", 0),
        ):
            check_int(name, getattr(self, name), minimum)
        if self.port > 65535:
            raise QuerySpecError(f"'port' must be <= 65535, got {self.port}")
        if self.rate_limit is not None:
            check_number(
                "rate_limit", self.rate_limit, "> 0", lambda v: v > 0
            )
        if self.rate_burst is not None:
            check_number(
                "rate_burst", self.rate_burst, ">= 1", lambda v: v >= 1
            )
        if not isinstance(self.analysis, AnalysisOptions):
            raise QuerySpecError(
                f"'analysis' must be an AnalysisOptions, got {self.analysis!r}"
            )


class _HTTPError(Exception):
    """Internal: abort request handling with a specific status."""

    def __init__(
        self,
        status: int,
        message: str,
        kind: str,
        extra: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.extra = extra or {}
        self.headers = headers or {}


class AnalysisServer:
    """The `bfl serve` daemon: scenarios in, JSON batteries out.

    Args:
        trees: A single tree (scenario ``"default"``) or a mapping of
            scenario name -> tree, exactly as
            :class:`~repro.service.batch.BatchAnalyzer` takes them.
        config: Server knobs (default :class:`ServerConfig`).
        store: Pre-built snapshot store (overrides
            ``config.store_path``); mostly for tests.
        pool: Pre-built session pool; mostly for tests.
    """

    def __init__(
        self,
        trees: Union[FaultTree, Mapping[str, FaultTree]],
        config: Optional[ServerConfig] = None,
        *,
        store: Optional[SnapshotStore] = None,
        pool: Optional[SessionPool] = None,
    ) -> None:
        self.config = config or ServerConfig()
        if isinstance(trees, FaultTree):
            trees = {DEFAULT_SCENARIO: trees}
        if not trees:
            raise QuerySpecError("AnalysisServer needs at least one tree")
        self._trees: Dict[str, FaultTree] = dict(trees)
        # The content address of each scenario's kernel in the pool and
        # the store: its tree plus the sessions' variable order.
        self._kernel_keys: Dict[str, str] = {
            name: kernel_key(tree) for name, tree in self._trees.items()
        }
        if store is None and self.config.store_path:
            store = SnapshotStore(self.config.store_path)
        self.store = store
        self.pool = pool or SessionPool(
            self.config.pool_size, store=self.store
        )
        self._bucket: Optional[TokenBucket] = None
        if self.config.rate_limit is not None:
            burst = self.config.rate_burst
            if burst is None:
                burst = max(1.0, float(self.config.rate_limit))
            self._bucket = TokenBucket(self.config.rate_limit, burst)
        # Event-loop state (created in start()).
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._scenario_locks: Dict[str, asyncio.Lock] = {}
        self._stopped: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._waiting = 0
        self._inflight = 0
        self._draining = False
        self._started_at = time.monotonic()
        self.port: Optional[int] = None
        #: Request counters surfaced under ``GET /stats``.
        self._counters: Dict[str, int] = {
            "total": 0,
            "batteries": 0,
            "queries_answered": 0,
            "rejected_rate_limited": 0,
            "rejected_busy": 0,
            "bad_requests": 0,
            "rewarms": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (``self.port`` holds the bound port)."""
        self._loop = asyncio.get_running_loop()
        self._semaphore = asyncio.Semaphore(self.config.max_concurrency)
        self._stopped = asyncio.Event()
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "bfl serve: listening on %s:%d (%d scenario(s), pool=%d, "
            "store=%s)",
            self.config.host,
            self.port,
            len(self._trees),
            self.pool.capacity,
            self.store.path if self.store is not None else "off",
        )

    async def begin_drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight
        batteries, persist the pool into the store, close connections."""
        if self._draining:
            return
        self._draining = True
        logger.info(
            "bfl serve: draining (%d in flight)", self._inflight
        )
        if self._server is not None:
            self._server.close()
        while self._inflight or self._waiting:
            await asyncio.sleep(0.005)
        persisted = await asyncio.to_thread(self.pool.persist_all)
        if persisted:
            logger.info(
                "bfl serve: persisted %d session(s) to the store",
                persisted,
            )
        connections = list(self._connections)
        for connection in connections:
            connection.cancel()
        # Let every handler finish closing its socket before the loop
        # stops: a handler still in ``wait_closed`` when ``asyncio.run``
        # tears down would be cancelled a second time and logged.
        await asyncio.gather(*connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        if self._stopped is not None:
            self._stopped.set()

    def request_drain(self) -> None:
        """Thread-safe drain trigger (tests, embedding harnesses)."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(self.begin_drain())
        )

    async def wait_stopped(self) -> None:
        if self._stopped is not None:
            await self._stopped.wait()

    def run(
        self,
        ready: Optional[Callable[["AnalysisServer"], None]] = None,
        install_signal_handlers: bool = True,
    ) -> None:
        """Blocking entry point (what ``bfl serve`` calls): start, run
        until a drain completes.  ``ready`` fires once the port is
        bound; SIGTERM/SIGINT trigger :meth:`begin_drain`."""

        async def _main() -> None:
            await self.start()
            if ready is not None:
                ready(self)
            if install_signal_handlers:
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(
                            signum,
                            lambda: asyncio.ensure_future(
                                self.begin_drain()
                            ),
                        )
                    except (NotImplementedError, RuntimeError):
                        pass
            await self.wait_stopped()

        asyncio.run(_main())

    # ------------------------------------------------------------------
    # HTTP plumbing (stdlib asyncio; request/response bodies are JSON)
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HTTPError as exc:
                    await self._write_error(writer, exc, close=True)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    status, payload, extra_headers = await self._dispatch(
                        method, path, body
                    )
                except _HTTPError as exc:
                    await self._write_error(
                        writer, exc, close=not keep_alive
                    )
                    if not keep_alive:
                        break
                    continue
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 — a handler bug
                    # must not kill the connection loop silently.
                    logger.exception("bfl serve: unhandled error")
                    self._counters["errors"] += 1
                    await self._write_error(
                        writer,
                        _HTTPError(
                            500, str(exc), error_kind(exc)
                        ),
                        close=not keep_alive,
                    )
                    if not keep_alive:
                        break
                    continue
                await self._write_json(
                    writer,
                    status,
                    payload,
                    headers=extra_headers,
                    close=not keep_alive,
                )
                if not keep_alive:
                    break
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HTTPError(
                400, "malformed request line", "bad-request"
            )
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as exc:
            raise _HTTPError(
                400, "malformed Content-Length header", "bad-request"
            ) from exc
        if length < 0:
            raise _HTTPError(
                400, "malformed Content-Length header", "bad-request"
            )
        if length > self.config.max_body_bytes:
            raise _HTTPError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
                "payload-too-large",
            )
        body = await reader.readexactly(length) if length else b""
        # Query strings are not part of the API surface; strip them so
        # routing sees the bare path.
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, Any],
        headers: Optional[Mapping[str, str]] = None,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8") + b"\n"
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        try:
            await writer.drain()
        except ConnectionError:
            pass

    async def _write_error(
        self,
        writer: asyncio.StreamWriter,
        exc: _HTTPError,
        close: bool,
    ) -> None:
        payload = {"error": str(exc), "error_kind": exc.kind}
        payload.update(exc.extra)
        await self._write_json(
            writer, exc.status, payload, headers=exc.headers, close=close
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        self._counters["total"] += 1
        if path == "/healthz" and method == "GET":
            return self._healthz()
        routes_for_path = [r for r in ROUTES if r.path == path]
        if not routes_for_path:
            raise _HTTPError(
                404,
                f"unknown path {path!r}",
                "not-found",
                extra={
                    "endpoints": [
                        f"{r.method} {r.path}" for r in ROUTES
                    ]
                },
            )
        if method not in {r.method for r in routes_for_path}:
            raise _HTTPError(
                405,
                f"{method} not allowed on {path}",
                "method-not-allowed",
                headers={
                    "Allow": ", ".join(
                        r.method for r in routes_for_path
                    )
                },
            )
        if self._bucket is not None:
            admitted, retry_after_ms = self._bucket.try_acquire()
            if not admitted:
                self._counters["rejected_rate_limited"] += 1
                raise _HTTPError(
                    429,
                    "rate limit exceeded "
                    f"({self.config.rate_limit:g} requests/sec)",
                    RateLimitError.kind,
                    extra={"retry_after_ms": round(retry_after_ms, 1)},
                    headers={
                        "Retry-After": str(
                            max(1, int(retry_after_ms / 1000.0 + 0.999))
                        )
                    },
                )
        if path == "/scenarios":
            return 200, self._scenarios_payload(), {}
        if path == "/stats":
            return 200, self._stats_payload(), {}
        if path == "/query":
            return await self._handle_query(body)
        if path == "/battery":
            return await self._handle_battery(body)
        raise _HTTPError(404, f"unknown path {path!r}", "not-found")

    def _healthz(self) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        status = "draining" if self._draining else "ok"
        payload = {
            "status": status,
            "scenarios": len(self._trees),
            "pooled_sessions": len(self.pool),
            "inflight": self._inflight,
        }
        return (503 if self._draining else 200), payload, {}

    def _scenarios_payload(self) -> Dict[str, Any]:
        pooled_prefixes = {
            key.split(":", 1)[0] for key in self.pool.keys()
        }
        scenarios = []
        for name in sorted(self._trees):
            tree = self._trees[name]
            fingerprint = self._kernel_keys[name]
            scenarios.append(
                {
                    "name": name,
                    "fingerprint": fingerprint,
                    "top": tree.top,
                    "basic_events": len(tree.basic_events),
                    "pooled": fingerprint in pooled_prefixes,
                    "stored": (
                        self.store is not None
                        and fingerprint in self.store
                    ),
                }
            )
        return {"scenarios": scenarios}

    def _stats_payload(self) -> Dict[str, Any]:
        return {
            "server": {
                "uptime_ms": round(
                    (time.monotonic() - self._started_at) * 1000.0, 1
                ),
                "draining": self._draining,
                "inflight": self._inflight,
                "waiting": self._waiting,
                "max_concurrency": self.config.max_concurrency,
                "queue_limit": self.config.queue_limit,
                "rate_limit": self.config.rate_limit,
                "requests": dict(self._counters),
            },
            "pool": self.pool.stats(),
            "store": (
                self.store.stats() if self.store is not None else None
            ),
        }

    # ------------------------------------------------------------------
    # Battery evaluation
    # ------------------------------------------------------------------

    def _parse_body(self, body: bytes) -> Any:
        if not body:
            raise _HTTPError(
                400, "request body is empty", "bad-request"
            )
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(
                400, f"request body is not valid JSON: {exc}", "bad-request"
            ) from exc

    @staticmethod
    def _request_fields(
        payload: Mapping[str, Any], reserved: str
    ) -> Dict[str, Any]:
        """The option fields of a request body (everything but its
        ``reserved`` query key); a field outside
        :data:`_BATTERY_OPTION_KEYS` is a 400."""
        fields = {k: v for k, v in payload.items() if k != reserved}
        unknown = set(fields) - _BATTERY_OPTION_KEYS
        if unknown:
            raise _HTTPError(
                400,
                "unknown battery field(s) "
                + ", ".join(sorted(unknown))
                + f" (allowed: {reserved}, "
                + ", ".join(sorted(_BATTERY_OPTION_KEYS))
                + "; trees/variants/workers are server state, fixed "
                "at startup)",
                "bad-request",
            )
        return fields

    async def _handle_query(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        payload = self._parse_body(body)
        if isinstance(payload, dict) and "query" in payload:
            fields = self._request_fields(payload, "query")
            queries = [payload["query"]]
        elif isinstance(payload, (dict, str)):
            fields = {}
            queries = [payload]
        else:
            raise _HTTPError(
                400,
                "POST /query takes one query spec (object or DSL "
                "string), optionally wrapped as {'query': ..., "
                "<options>}",
                "bad-request",
            )
        report = await self._admit_and_run(queries, fields)
        data = report.to_dict()
        return (
            200,
            {
                "result": data["results"][0],
                "stats": data["stats"],
                "elapsed_ms": data["elapsed_ms"],
            },
            {},
        )

    async def _handle_battery(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        payload = self._parse_body(body)
        if isinstance(payload, list):
            payload = {"queries": payload}
        if not isinstance(payload, dict):
            raise _HTTPError(
                400,
                "POST /battery takes {'queries': [...], <options>} "
                "or a bare query list",
                "bad-request",
            )
        if "queries" not in payload:
            raise _HTTPError(
                400, "battery is missing 'queries'", "bad-request"
            )
        fields = self._request_fields(payload, "queries")
        report = await self._admit_and_run(payload["queries"], fields)
        return 200, report.to_dict(), {}

    async def _admit_and_run(
        self, queries: Any, fields: Dict[str, Any]
    ) -> BatchReport:
        try:
            specs = specs_from_any(queries)
            # Requests without option fields (the common case) share the
            # server's validated defaults as they are.
            analysis = self.config.analysis
            if fields:
                analysis = AnalysisOptions.from_mapping(fields, base=analysis)
        except ReproError as exc:
            self._counters["bad_requests"] += 1
            raise _HTTPError(
                400, str(exc), error_kind(exc)
            ) from exc
        if self._draining:
            self._counters["rejected_busy"] += 1
            raise _HTTPError(
                503,
                "server is draining",
                ServerBusyError.kind,
                extra={"draining": True},
            )
        assert self._semaphore is not None
        if (
            self._semaphore.locked()
            and self._waiting >= self.config.queue_limit
        ):
            self._counters["rejected_busy"] += 1
            raise _HTTPError(
                503,
                f"admission queue is full ({self._waiting} waiting, "
                f"limit {self.config.queue_limit})",
                ServerBusyError.kind,
            )
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        locked: List[asyncio.Lock] = []
        try:
            touched = sorted(
                {spec.tree for spec in specs if spec.tree in self._trees}
            )
            for name in touched:
                lock = self._scenario_locks.setdefault(
                    name, asyncio.Lock()
                )
                await lock.acquire()
                locked.append(lock)
            self._inflight += 1
            try:
                report = await asyncio.to_thread(
                    self._evaluate_battery, specs, analysis
                )
            finally:
                self._inflight -= 1
        except ReproError as exc:
            # Request-level configuration errors (bad deadline_ms,
            # stray probability events, ...) — the battery never ran.
            self._counters["bad_requests"] += 1
            raise _HTTPError(400, str(exc), error_kind(exc)) from exc
        finally:
            for lock in reversed(locked):
                lock.release()
            self._semaphore.release()
        self._counters["batteries"] += 1
        self._counters["queries_answered"] += len(report.results)
        return report

    def _pool_key(self, name: str, analysis: AnalysisOptions) -> str:
        """Pool key for one scenario under one set of request weights.

        The kernel is weight-independent, so its content address
        (:func:`~repro.service.batch.kernel_key`: tree plus variable
        order) is the key; requests carrying PFL overrides get a
        ``:digest`` suffix because a session's probability answers are
        baked at construction.
        """
        fingerprint = self._kernel_keys[name]
        overrides = analysis.overrides_for(name, self._trees[name])
        if not overrides:
            return fingerprint
        return f"{fingerprint}:{overrides_digest(overrides)}"

    def _evaluate_battery(
        self, specs: List[Any], analysis: AnalysisOptions
    ) -> BatchReport:
        """Worker-thread core: adopt pooled sessions, warm-start the
        rest from the store, run a real :class:`BatchAnalyzer`."""
        touched = sorted(
            {spec.tree for spec in specs if spec.tree in self._trees}
        )
        keys: Dict[str, str] = {}
        pinned: Dict[str, AnalysisSession] = {}
        snapshots: Dict[str, Mapping[str, Any]] = {}
        for name in touched:
            key = self._pool_key(name, analysis)
            keys[name] = key
            session = self.pool.acquire(key)
            if session is not None:
                pinned[name] = session
            elif self.store is not None:
                entry = self.store.get(self._kernel_keys[name])
                if entry is not None:
                    # Warm tier hit: the per-request analyzer will
                    # load_snapshot this instead of rebuilding (and
                    # degrade to a cold build if the entry rotted).
                    snapshots[name] = entry
                    self._counters["rewarms"] += 1
        try:
            analyzer = BatchAnalyzer(
                dict(self._trees), analysis, snapshots=snapshots
            )
            for name, session in pinned.items():
                analyzer.adopt_session(name, session)
            report = analyzer.run(specs)
            # A pooled kernel the battery dropped (it failed its
            # invariants after a deep-recursion abort) leaves the pool;
            # the analyzer's rebuild, if any, is adopted below.
            dropped = [
                name for name, session in pinned.items()
                if analyzer.sessions.get(name) is not session
            ]
            for name in dropped:
                self.pool.release(keys[name])
                self.pool.discard(keys[name])
                del pinned[name]
            # Capture the sessions this battery built (cold or rewarmed)
            # into the hot tier; pool.adopt pins them, and the finally
            # below releases every pin in one place.
            for name, session in analyzer.sessions.items():
                if name in keys and name not in pinned:
                    pinned[name] = self.pool.adopt(
                        keys[name],
                        session,
                        fingerprint=self._kernel_keys[name],
                    )
            return report
        finally:
            for name in pinned:
                self.pool.release(keys[name])
