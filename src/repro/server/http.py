"""Asyncio HTTP/1.1 + WebSocket front end for the inference service.

Pure stdlib (``asyncio`` streams, no third-party HTTP framework): the
server speaks enough HTTP/1.1 for production load balancers — keep-alive,
``Content-Length`` bodies, ``Retry-After``, readable JSON errors — plus
RFC 6455 WebSockets for streaming clients.  Routes:

* ``POST /v1/query``  — one exact request (the stdin JSON-lines schema);
  sent to its shard at once, or coalesced with the queries that arrive
  while a pass on the same (program, database) is in flight.
* ``POST /v1/batch``  — an explicit multi-query request, dispatched
  directly (it already is a batch).
* ``POST /v1/sample`` — adaptive Monte-Carlo estimation (``adaptive`` is
  forced on).
* ``POST /v1/update`` — streaming-evidence delta (``{"delta": {"insert":
  [...], "retract": [...]}}``): the shard owning the program hash
  delta-maintains its cached engine and answers with the canonical
  post-delta ``database`` text (plus post-delta query results when the
  request lists ``queries``).  Requests may name a ``stream`` instead of
  re-sending sources; stream state lives in the front end, so shard
  workers stay stateless and a respawned worker rebuilds correctly from
  the forwarded request alone.
* ``GET /healthz``    — liveness/readiness (``503`` while draining).
* ``GET /metrics``    — Prometheus text: request/latency histograms,
  admission rejections, micro-batch volumes, and live per-shard cache +
  join-engine counters.
* ``GET /v1/ws``      — WebSocket; each text frame is one JSON request,
  each response frame echoes the request ``id``.

Requests are admitted (token buckets + bounded shard queues, see
:mod:`repro.server.admission`), routed by canonical program key to a
persistent worker process (:mod:`repro.server.shards`), and exact queries
that arrive behind an in-flight pass are coalesced into shared
:class:`QueryBatch` passes (:mod:`repro.server.batching`).  SIGTERM/SIGINT
triggers a graceful drain: stop accepting, finish in-flight work, stop the
workers, exit.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import signal
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.server import faults
from repro.server.admission import AdmissionController, Rejection
from repro.server.batching import BatchFailed, MicroBatcher
from repro.server.journal import DEFAULT_MAX_BYTES, JournalError, StreamJournal
from repro.server.metrics import MetricsRegistry
from repro.server.protocol import (
    RequestError,
    StreamRegistry,
    error_response,
    is_update_request,
    request_queries,
    resolve_sources,
    resolve_stream,
    validate_queries,
)
from repro.server.shards import ShardConfig, ShardRouter, WorkerCrashed

__all__ = ["ServerConfig", "InferenceServer", "serve_http"]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_STATUS_PHRASES = {
    200: "OK",
    101: "Switching Protocols",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServerConfig:
    """Everything the ``gdatalog serve --http`` front end can tune."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Persistent worker processes; each owns an isolated engine cache.
    shards: int = 2
    cache_size: int = 32
    grounder: str = "simple"
    factorize: bool = False
    slice: bool = False
    #: Maximum in-flight requests per shard before 503 load shedding; it
    #: also bounds a micro-batch, since a queued query holds its ticket.
    max_queue: int = 64
    #: Per-client token bucket: sustained requests/second and burst size.
    client_rate: float = 200.0
    client_burst: float = 400.0
    #: Upper bound on graceful-drain wait after SIGTERM.
    drain_timeout: float = 30.0
    max_body_bytes: int = 4 * 1024 * 1024
    #: Static-check programs on first sighting; failures answer 400 with
    #: structured diagnostics instead of a bare engine error.
    validate: bool = True
    #: Write-ahead journal directory for named streams (None disables
    #: durability); on boot the journal is replayed so every stream resumes
    #: at bit-identical post-delta state.
    journal_dir: str | None = None
    #: Journal fsync policy: "always" | "batch" | "never".
    journal_fsync: str = "always"
    #: Journal size that triggers snapshot compaction.
    journal_max_bytes: int = DEFAULT_MAX_BYTES
    #: Per-request deadline in seconds (None disables): an expired request
    #: answers 504 with a typed retryable error and its partial work is
    #: discarded (no stream/journal state is recorded).
    request_timeout: float | None = None

    def shard_config(self) -> ShardConfig:
        return ShardConfig(
            grounder=self.grounder,
            cache_size=self.cache_size,
            factorize=self.factorize,
            slice=self.slice,
            validate=self.validate,
        )


@dataclass
class _HttpRequest:
    method: str
    path: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


async def _read_http_request(
    reader: asyncio.StreamReader, max_body: int
) -> _HttpRequest | None:
    """Parse one request head+body; ``None`` on a cleanly closed connection."""
    try:
        line = await reader.readline()
    except (asyncio.IncompleteReadError, ConnectionError, ValueError):
        return None
    if not line or not line.strip():
        return None
    try:
        method, path, version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise RequestError("malformed HTTP request line") from None
    headers: dict[str, str] = {}
    for _ in range(128):
        header_line = await reader.readline()
        if header_line in (b"\r\n", b"\n", b""):
            break
        name, _, value = header_line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise RequestError("too many HTTP headers")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise RequestError("malformed Content-Length header") from None
        if length > max_body:
            raise RequestError(f"request body exceeds {max_body} bytes")
        body = await reader.readexactly(length)
    elif headers.get("transfer-encoding"):
        raise RequestError("chunked request bodies are not supported; send Content-Length")
    return _HttpRequest(method.upper(), path, version.strip(), headers, body)


def _response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Mapping[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _ws_frame(opcode: int, payload: bytes) -> bytes:
    """One server→client (unmasked) WebSocket frame."""
    header = bytearray([0x80 | opcode])
    length = len(payload)
    if length < 126:
        header.append(length)
    elif length < 1 << 16:
        header.append(126)
        header += length.to_bytes(2, "big")
    else:
        header.append(127)
        header += length.to_bytes(8, "big")
    return bytes(header) + payload


async def _read_ws_frame(
    reader: asyncio.StreamReader, max_payload: int
) -> tuple[int, bool, bytes] | None:
    """``(opcode, fin, payload)`` of one client frame; ``None`` on EOF."""
    try:
        first = await reader.readexactly(2)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    fin = bool(first[0] & 0x80)
    opcode = first[0] & 0x0F
    masked = bool(first[1] & 0x80)
    length = first[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    if length > max_payload:
        raise RequestError(f"WebSocket frame exceeds {max_payload} bytes")
    mask = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(length)
    if masked:
        payload = bytes(byte ^ mask[index % 4] for index, byte in enumerate(payload))
    return opcode, fin, payload


class InferenceServer:
    """The asyncio server: admission → routing → (micro-)batched evaluation."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.router = ShardRouter(self.config.shards, self.config.shard_config())
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(
            shards=self.config.shards,
            max_queue=self.config.max_queue,
            client_rate=self.config.client_rate,
            client_burst=self.config.client_burst,
        )
        self.batcher = MicroBatcher(self.router, metrics=self.metrics)
        #: Named evidence streams (front-end state; workers stay stateless).
        self.streams = StreamRegistry()
        # Env-armed chaos specs (subprocess harnesses); a no-op otherwise.
        faults.install_from_env()
        #: Durable write-ahead journal — opening it replays any prior
        #: history, so recovered streams are live before the first request.
        self.journal: StreamJournal | None = None
        if self.config.journal_dir:
            self.journal = StreamJournal(
                self.config.journal_dir,
                fsync=self.config.journal_fsync,
                max_bytes=self.config.journal_max_bytes,
            )
            for recovered in self.journal.recovered_streams():
                self.streams.record(recovered.name, recovered.program, recovered.database)
        #: Idempotency-key → response LRU: a client retry that raced a lost
        #: ack replays the recorded response instead of re-applying.
        self._idempotency: OrderedDict[str, dict] = OrderedDict()
        self._idempotency_limit = 1024
        self._server: asyncio.base_events.Server | None = None
        self._inflight = 0
        self._drain_requested = asyncio.Event()
        self._drained = asyncio.Event()
        self._describe_metrics()

    def _describe_metrics(self) -> None:
        self.metrics.describe("gdatalog_requests_total", "Requests answered, by route and status")
        self.metrics.describe("gdatalog_request_seconds", "Request latency, by route")
        self.metrics.describe("gdatalog_rejected_total", "Admission rejections, by reason")
        self.metrics.describe(
            "gdatalog_microbatch_batches_total", "Combined QueryBatch passes dispatched"
        )
        self.metrics.describe(
            "gdatalog_microbatch_requests_total", "Client requests sent in a batch pass"
        )
        self.metrics.describe(
            "gdatalog_microbatch_coalesced_total",
            "Client requests that shared another request's batch pass",
        )
        self.metrics.describe("gdatalog_worker_respawns_total", "Crashed shard workers respawned")
        self.metrics.describe(
            "gdatalog_updates_applied_total", "Streaming fact deltas applied via /v1/update"
        )
        self.metrics.describe(
            "gdatalog_subtrees_invalidated_total",
            "Chase subtrees (outcomes/components) re-chased by streaming updates",
        )
        self.metrics.describe(
            "gdatalog_subtrees_reused_total",
            "Chase subtrees (outcomes/components) reused unchanged by streaming updates",
        )
        self.metrics.describe(
            "gdatalog_chase_reuse_ratio",
            "Share of chase subtrees reused across all applied updates",
        )
        self.metrics.describe("gdatalog_service_cache", "Per-shard InferenceService counters")
        self.metrics.describe("gdatalog_join_counters", "Per-shard join-engine JOIN_STATS counters")
        self.metrics.describe("gdatalog_shard_up", "1 if the shard worker answered the last probe")
        self.metrics.describe("gdatalog_shard_cache_entries", "Engines cached per shard")
        self.metrics.describe(
            "gdatalog_journal_records_total", "Records appended to the stream write-ahead journal"
        )
        self.metrics.describe(
            "gdatalog_journal_truncated_total", "Torn journal tails truncated on open"
        )
        self.metrics.describe(
            "gdatalog_recoveries_total", "Named streams restored by boot-time journal replay"
        )
        self.metrics.describe(
            "gdatalog_faults_injected_total",
            "Faults fired by the deterministic injection harness (front end + live workers)",
        )

    # -- lifecycle -----------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self.admission.draining

    async def start(self) -> None:
        """Fork the shard workers, then start accepting connections."""
        self.router.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_body_bytes,
        )

    async def wait_ready(self, timeout: float = 10.0) -> None:
        """Block until every shard worker answers a stats probe, or raise.

        The CI startup guard: a hung worker (import deadlock, fork gone
        wrong) fails fast here instead of stalling the whole pipeline.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"shard workers not ready within {timeout:.1f}s "
                    f"(pids {self.router.worker_pids()})"
                )
            stats = await self.router.shard_stats(timeout=min(remaining, 2.0))
            if all(snapshot is not None for snapshot in stats):
                return
            await asyncio.sleep(0.05)

    def begin_drain(self) -> None:
        """Stop admitting, close the listener; in-flight requests finish."""
        self.admission.begin_drain()
        self._drain_requested.set()
        if self._server is not None:
            self._server.close()
        if self._inflight == 0:
            self._drained.set()

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for in-flight work to finish; ``False`` on timeout."""
        timeout = self.config.drain_timeout if timeout is None else timeout
        try:
            await asyncio.wait_for(self._drained.wait(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def stop(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Drain (optionally), close the listener, stop the workers."""
        self.begin_drain()
        drained = await self.drain(timeout) if drain else False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.router.stop()
        if self.journal is not None:
            self.journal.close()
        return drained or not drain

    async def run(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain gracefully (the CLI path)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await self.start()
        print(
            f"serving on http://{self.config.host}:{self.port} ({self.config.shards} shard(s))",
            file=sys.stderr,
            flush=True,
        )
        await self._drain_requested.wait()
        # Bounded drain: a hung in-flight request must not stall exit (the
        # CI guard relies on SIGTERM always terminating the process).
        drained = await self.drain(self.config.drain_timeout)
        await self.stop(drain=False)
        requests = int(
            sum(
                self.metrics.counter_value("gdatalog_requests_total", {"route": route, "status": status})
                for route in ("query", "batch", "sample", "update", "check", "ws")
                for status in ("200", "400", "429", "503")
            )
        )
        print(
            f"drained {'cleanly' if drained else 'with a timeout'}; "
            f"served {requests} request(s)",
            file=sys.stderr,
            flush=True,
        )

    # -- request accounting --------------------------------------------------------

    def _enter_request(self) -> None:
        self._inflight += 1

    def _exit_request(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and self.admission.draining:
            self._drained.set()

    # -- connection handling -------------------------------------------------------

    def _client_identity(self, request: _HttpRequest, writer: asyncio.StreamWriter) -> str:
        client = request.header("x-client-id")
        if client:
            return client
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if isinstance(peer, tuple) and peer else "unknown"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_http_request(reader, self.config.max_body_bytes)
                except RequestError as error:
                    body = json.dumps(error_response(str(error))).encode("utf-8")
                    writer.write(_response_bytes(400, body, keep_alive=False))
                    await writer.drain()
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                if (
                    request.header("upgrade").lower() == "websocket"
                    and request.path.split("?")[0] == "/v1/ws"
                ):
                    await self._websocket_session(request, reader, writer)
                    break
                keep_alive = (
                    not self.draining
                    and request.header("connection").lower() != "close"
                    and request.version != "HTTP/1.0"
                )
                status, payload, extra = await self._dispatch(request, writer)
                if isinstance(payload, bytes):
                    body, content_type = payload, "text/plain; version=0.0.4"
                else:
                    body = json.dumps(payload).encode("utf-8")
                    content_type = "application/json"
                writer.write(
                    _response_bytes(status, body, content_type, extra, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancels idle keep-alive connections; completing
            # normally here keeps asyncio's stream teardown quiet.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> tuple[int, Any, dict[str, str]]:
        """Route one HTTP request → (status, JSON payload or raw bytes, headers)."""
        path = request.path.split("?")[0]
        started = time.monotonic()
        if path == "/healthz" and request.method == "GET":
            if self.draining:
                return 503, {"ok": False, "draining": True}, {"Retry-After": "1"}
            return (
                200,
                {
                    "ok": True,
                    "shards": self.config.shards,
                    "draining": False,
                    "inflight": self.admission.inflight(),
                },
                {},
            )
        if path == "/metrics" and request.method == "GET":
            return 200, await self._render_metrics(), {}
        route = {
            "/v1/query": "query",
            "/v1/batch": "batch",
            "/v1/sample": "sample",
            "/v1/update": "update",
            "/v1/check": "check",
        }.get(path)
        if route is None:
            return 404, error_response(f"no such route: {path}"), {}
        if request.method != "POST":
            return 405, error_response(f"{path} requires POST"), {"Allow": "POST"}
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, error_response(f"invalid JSON request: {error}"), {}
        client = self._client_identity(request, writer)
        status, response, extra = await self._serve_payload(payload, client, route)
        elapsed = time.monotonic() - started
        self.metrics.inc(
            "gdatalog_requests_total", {"route": route, "status": str(status)}
        )
        self.metrics.observe("gdatalog_request_seconds", elapsed, {"route": route})
        return status, response, extra

    async def _serve_payload(
        self, payload: Any, client: str, route: str
    ) -> tuple[int, dict, dict[str, str]]:
        """Admit, route, and answer one protocol request (HTTP or WS)."""
        if not isinstance(payload, dict):
            return 400, error_response(
                "serve requests must be JSON objects", kind="bad_request", retryable=False
            ), {}
        request_id = payload.get("id")
        try:
            payload = resolve_stream(payload, self.streams)
            program, database = resolve_sources(payload)
        except RequestError as error:
            return 400, error_response(
                str(error), request_id, kind="bad_request", retryable=False
            ), {}
        shard = self.router.shard_for(program)
        admitted = self.admission.try_admit(client, shard)
        if isinstance(admitted, Rejection):
            self.metrics.inc("gdatalog_rejected_total", {"reason": admitted.reason})
            response = error_response(
                admitted.message, request_id, kind=admitted.reason, retryable=True
            )
            response["retry_after"] = round(admitted.retry_after, 3)
            return (
                admitted.status,
                response,
                {"Retry-After": str(max(1, int(admitted.retry_after_hint + 0.999)))},
            )
        self._enter_request()
        try:
            with admitted:
                work = self._execute(payload, route, program, database, shard)
                if self.config.request_timeout is not None:
                    try:
                        response = await asyncio.wait_for(
                            work, timeout=self.config.request_timeout
                        )
                    except asyncio.TimeoutError:
                        # Partial-work cleanup is implicit in the write order:
                        # stream registry, journal and idempotency records are
                        # written only after the worker answered, so a request
                        # cancelled mid-flight leaves no half-applied state —
                        # the retry re-runs it from scratch.
                        self.metrics.inc("gdatalog_rejected_total", {"reason": "deadline"})
                        response = error_response(
                            f"request exceeded its {self.config.request_timeout:.3f}s "
                            "deadline (no state was recorded; safe to retry)",
                            request_id,
                            kind="deadline",
                            retryable=True,
                        )
                        response["retry_after"] = 1.0
                        return 504, response, {"Retry-After": "1"}
                else:
                    response = await work
        except RequestError as error:
            return 400, error_response(
                str(error), request_id, kind="bad_request", retryable=False
            ), {}
        except BatchFailed as error:
            response = error_response(str(error), request_id, kind="bad_request", retryable=False)
            if error.diagnostics:
                response["diagnostics"] = error.diagnostics
            return 400, response, {}
        except JournalError as error:
            # The update may have reached the worker, but it was never
            # acknowledged nor recorded in the stream registry: retrying is
            # safe (set-semantics delta + log-hash dedup) and required.
            self.metrics.inc("gdatalog_rejected_total", {"reason": "journal_error"})
            response = error_response(
                f"durable journal write failed: {error}", request_id,
                kind="journal_error", retryable=True,
            )
            response["retry_after"] = 1.0
            return 503, response, {"Retry-After": "1"}
        except WorkerCrashed:
            self.metrics.inc("gdatalog_rejected_total", {"reason": "worker_crashed"})
            response = error_response(
                "shard worker crashed; please retry", request_id,
                kind="worker_crashed", retryable=True,
            )
            response["retry_after"] = 1.0
            return 503, response, {"Retry-After": "1"}
        except Exception as error:  # noqa: BLE001 - a bug must answer, not hang up
            return 500, error_response(
                f"internal error ({type(error).__name__}): {error}", request_id,
                kind="internal", retryable=False,
            ), {}
        finally:
            self._exit_request()
        response["id"] = request_id
        status = 200 if response.get("ok") else 400
        return status, response, {}

    async def _execute(
        self, payload: dict, route: str, program: str, database: str, shard: int
    ) -> dict:
        """Dispatch one admitted request (the deadline-bounded inner work)."""
        stream = payload.get("stream")
        if isinstance(stream, str) and stream and self.streams.get(stream) is None:
            # First sighting of a named stream opens it (query or update),
            # so follow-up requests may carry just the name and a delta —
            # journaled first so a crash cannot forget an open stream.
            self._open_stream(stream, program, database)
        check = route == "check" or payload.get("op") == "check"
        update = not check and (route == "update" or is_update_request(payload))
        adaptive = not check and not update and (
            route == "sample" or bool(payload.get("adaptive"))
        )
        if check:
            forwarded = self._forwarded(payload, program, database)
            forwarded.pop("stream", None)
            forwarded["op"] = "check"
            return await self.router.submit(shard, forwarded)
        if update:
            return await self._handle_update(payload, program, database, shard)
        if adaptive:
            forwarded = self._forwarded(payload, program, database)
            forwarded["adaptive"] = True
            return await self.router.submit(shard, forwarded)
        if route == "batch":
            forwarded = self._forwarded(payload, program, database)
            return await self.router.submit(shard, forwarded)
        specs = request_queries(payload)
        validate_queries(specs)
        results = await self.batcher.submit(
            shard, program, database, specs, payload.get("slice")
        )
        return {"ok": True, "results": results}

    @staticmethod
    def _forwarded(payload: dict, program: str, database: str) -> dict:
        """A worker-bound copy of the request with inline sources only."""
        forwarded = dict(payload)
        forwarded["program"] = program
        forwarded["database"] = database
        forwarded.pop("program_path", None)
        forwarded.pop("database_path", None)
        return forwarded

    def _open_stream(self, stream: str, program: str, database: str) -> None:
        """Open a named stream: journal its sources (when durable), register it."""
        if self.journal is not None:
            self.journal.record_open(stream, program, database)
        self.streams.record(stream, program, database)

    async def _handle_update(
        self, payload: dict, program: str, database: str, shard: int
    ) -> dict:
        """One update: idempotency replay, worker apply, journal, registry.

        Write order is the durability contract (see
        :mod:`repro.server.journal`): worker apply → journal append →
        stream registry → idempotency record → client ack.  Any failure
        before the ack leaves the registry at the pre-delta state and the
        client retries; set-semantics deltas plus log-hash dedup make the
        retry exactly-once in effect.
        """
        idempotency_key = payload.get("idempotency_key")
        if idempotency_key is not None and not isinstance(idempotency_key, str):
            raise RequestError("'idempotency_key' must be a string")
        if idempotency_key:
            cached = self._idempotency.get(idempotency_key)
            if cached is not None:
                self._idempotency.move_to_end(idempotency_key)
                response = dict(cached)
                response["replayed"] = True
                return response
        forwarded = self._forwarded(payload, program, database)
        forwarded.pop("stream", None)
        forwarded.pop("idempotency_key", None)
        forwarded["op"] = "update"
        response = await self._submit_update(shard, forwarded)
        if response.get("ok"):
            stream = payload.get("stream")
            database_after = response.get("database", "")
            if isinstance(stream, str) and stream:
                if self.journal is not None:
                    self.journal.record_delta(
                        stream, forwarded.get("delta") or {}, database_after=database_after
                    )
                self.streams.record(stream, program, database_after)
            self._record_update(response.get("update") or {})
            if idempotency_key:
                self._idempotency[idempotency_key] = {
                    key: value for key, value in response.items() if key != "id"
                }
                if len(self._idempotency) > self._idempotency_limit:
                    self._idempotency.popitem(last=False)
        return response

    async def _submit_update(self, shard: int, forwarded: dict) -> dict:
        """Forward one update to its shard, retrying once across a worker crash.

        Safe because forwarded updates are fully specified (inline program,
        database and delta — never a stream reference): re-answering on the
        respawned worker recomputes the same post-delta state, just from a
        cold cache.
        """
        try:
            return await self.router.submit(shard, forwarded)
        except WorkerCrashed:
            self.metrics.inc("gdatalog_rejected_total", {"reason": "worker_crashed_retried"})
            return await self.router.submit(shard, forwarded)

    def _record_update(self, report: Mapping[str, Any]) -> None:
        """Roll one update report into the streaming-update metrics."""
        invalidated = int(report.get("invalidated_subtrees", 0) or 0)
        reused = int(report.get("reused_subtrees", 0) or 0)
        self.metrics.inc("gdatalog_updates_applied_total")
        # Zero-amount increments still register the series, so all three
        # counters appear on /metrics from the first applied update.
        self.metrics.inc("gdatalog_subtrees_invalidated_total", amount=invalidated)
        self.metrics.inc("gdatalog_subtrees_reused_total", amount=reused)
        total_invalidated = self.metrics.counter_value("gdatalog_subtrees_invalidated_total")
        total_reused = self.metrics.counter_value("gdatalog_subtrees_reused_total")
        total = total_invalidated + total_reused
        self.metrics.set_gauge(
            "gdatalog_chase_reuse_ratio", total_reused / total if total else 0.0
        )

    # -- metrics -------------------------------------------------------------------

    async def _render_metrics(self) -> bytes:
        """Prometheus text, including live per-shard worker snapshots."""
        snapshots = await self.router.shard_stats(timeout=2.0)
        for shard, snapshot in enumerate(snapshots):
            labels = {"shard": str(shard)}
            self.metrics.set_gauge("gdatalog_shard_up", 0 if snapshot is None else 1, labels)
            self.metrics.set_gauge(
                "gdatalog_worker_respawns_total", self.router.respawns[shard], labels
            )
            if snapshot is None:
                continue
            self.metrics.set_gauge(
                "gdatalog_shard_cache_entries", snapshot.get("cache_entries", 0), labels
            )
            for counter, value in snapshot.get("service", {}).items():
                self.metrics.set_gauge(
                    "gdatalog_service_cache", value, {"shard": str(shard), "counter": counter}
                )
            for counter, value in snapshot.get("join", {}).items():
                self.metrics.set_gauge(
                    "gdatalog_join_counters", value, {"shard": str(shard), "counter": counter}
                )
        if self.journal is not None:
            stats = self.journal.stats()
            self.metrics.set_counter(
                "gdatalog_journal_records_total", stats["records_appended"]
            )
            self.metrics.set_counter(
                "gdatalog_journal_truncated_total", stats["truncations"]
            )
            self.metrics.set_counter("gdatalog_recoveries_total", stats["recoveries"])
        # Faults fired in this process plus every live worker's count.  A
        # killed worker takes its tally with it — the metric undercounts by
        # exactly the fault that killed it, which the respawn counter shows.
        faults_total = faults.FAULTS.injected_total
        for snapshot in snapshots:
            if snapshot is not None:
                faults_total += sum(snapshot.get("faults", {}).values())
        if faults_total or faults.FAULTS.active:
            self.metrics.set_counter("gdatalog_faults_injected_total", faults_total)
        return self.metrics.render().encode("utf-8")

    # -- websocket -----------------------------------------------------------------

    async def _websocket_session(
        self, request: _HttpRequest, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        key = request.header("sec-websocket-key")
        if not key:
            writer.write(
                _response_bytes(
                    400,
                    json.dumps(error_response("missing Sec-WebSocket-Key")).encode("utf-8"),
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        accept = base64.b64encode(
            hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
        ).decode("latin-1")
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept}\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        client = self._client_identity(request, writer)
        fragments: list[bytes] = []
        while True:
            try:
                frame = await _read_ws_frame(reader, self.config.max_body_bytes)
            except RequestError:
                writer.write(_ws_frame(0x8, (1009).to_bytes(2, "big")))
                await writer.drain()
                return
            if frame is None:
                return
            opcode, fin, payload = frame
            if opcode == 0x8:  # close: echo and finish
                writer.write(_ws_frame(0x8, payload[:2]))
                await writer.drain()
                return
            if opcode == 0x9:  # ping → pong
                writer.write(_ws_frame(0xA, payload))
                await writer.drain()
                continue
            if opcode in (0x1, 0x2, 0x0):
                fragments.append(payload)
                if not fin:
                    continue
                message = b"".join(fragments)
                fragments = []
                response = await self._serve_ws_message(message, client)
                writer.write(_ws_frame(0x1, json.dumps(response).encode("utf-8")))
                await writer.drain()

    async def _serve_ws_message(self, message: bytes, client: str) -> dict:
        """One WebSocket text frame = one protocol request (id echoed)."""
        started = time.monotonic()
        try:
            payload = json.loads(message.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            status, response = 400, error_response(f"invalid JSON request: {error}")
        else:
            status, response, _ = await self._serve_payload(payload, client, "ws")
            # WebSockets carry no HTTP status line; embed the admission
            # verdict so clients can back off exactly like HTTP ones.
            if status != 200:
                response.setdefault("status", status)
        self.metrics.inc("gdatalog_requests_total", {"route": "ws", "status": str(status)})
        self.metrics.observe("gdatalog_request_seconds", time.monotonic() - started, {"route": "ws"})
        return response


async def serve_http(config: ServerConfig) -> None:
    """Run an :class:`InferenceServer` until SIGTERM/SIGINT (the CLI entry)."""
    server = InferenceServer(config)
    await server.run()
