"""Sharded worker processes: canonical-program routing, crash respawn.

One :class:`ShardRouter` owns ``N`` persistent worker processes.  Each
worker runs its **own** :class:`~repro.runtime.service.InferenceService`
— its own engine LRU, component cache and slice cache — and requests are
routed by a hash of the *canonical program key* (the same parse-and-sort
canonicalization :meth:`InferenceService.cache_key` uses, so two textual
variants of one program land on the same shard).  The payoff over one
shared cache: a hot program hammering shard 0 can never evict another
program's engines on shard 1, and shards evaluate truly in parallel
(separate processes, no GIL sharing).

Transport is a duplex pipe per worker.  The parent side never blocks the
event loop: a **sender thread** drains an outbound queue and a **reader
thread** resolves :class:`asyncio.Future` completions via
``call_soon_threadsafe``.  A worker crash (EOF/``OSError`` on the pipe, or
a dead PID) fails that worker's in-flight futures with
:class:`WorkerCrashed` — surfaced to clients as a retryable ``503`` — and
the next request to the shard transparently **respawns** a fresh worker
(with a cold cache; correctness is unaffected, only latency).
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import multiprocessing
import os
import queue
import signal
import threading
from dataclasses import dataclass
from typing import Any

from repro.logic.join import JOIN_STATS
from repro.logic.parser import parse_gdatalog_program
from repro.server import faults

__all__ = ["ShardConfig", "ShardRouter", "WorkerCrashed", "canonical_program_key"]

#: Parent→worker message kinds.
_REQUEST, _STATS, _SHUTDOWN = "request", "stats", "shutdown"


class WorkerCrashed(RuntimeError):
    """A shard worker died with requests in flight (clients should retry)."""


@dataclass(frozen=True)
class ShardConfig:
    """Per-worker :class:`InferenceService` configuration (picklable)."""

    grounder: str = "simple"
    cache_size: int = 32
    factorize: bool = False
    slice: bool = False
    #: Run the static checker on first sighting of each program; error
    #: diagnostics become structured ``ok: false`` responses (HTTP 400).
    validate: bool = True


def canonical_program_key(program_source: str) -> str:
    """SHA-256 of the parsed program's sorted rules (cache-key canonical form).

    Unparseable programs hash their raw text instead: routing must stay
    deterministic so the shard that answers (with a parse error) is stable.
    """
    try:
        program = parse_gdatalog_program(program_source)
        payload = "\n".join(sorted(str(rule) for rule in program))
    except Exception:  # noqa: BLE001 - the worker will report the parse error
        payload = program_source
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _join_stats_snapshot() -> dict[str, int]:
    """The worker process's process-wide join counters as a plain dict."""
    return {
        "index_probes": JOIN_STATS.index_probes,
        "full_scans": JOIN_STATS.full_scans,
        "indexes_built": JOIN_STATS.indexes_built,
        "plans_compiled": JOIN_STATS.plans_compiled,
        "plans_reused": JOIN_STATS.plans_reused,
    }


def _shard_worker_main(conn, config: ShardConfig) -> None:
    """Worker process entry point: serve pipe messages until shutdown/EOF.

    Lifecycle is controlled entirely by the pipe (shutdown message or EOF
    when the parent dies); stray terminal signals are ignored so a SIGINT
    or SIGTERM aimed at the parent's graceful drain cannot kill a worker
    mid-request.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    from repro.runtime.service import InferenceService
    from repro.server import faults
    from repro.server.protocol import answer, is_update_request

    # Fork-started workers inherit the parent's armed injector; env specs
    # cover subprocess harnesses and spawn-context platforms.
    faults.install_from_env()
    service = InferenceService(
        cache_size=config.cache_size,
        grounder=config.grounder,
        factorize=config.factorize,
        slice=config.slice,
        validate=config.validate,
    )
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == _SHUTDOWN:
            break
        seq = message[1]
        if kind == _STATS:
            payload: Any = {
                "pid": os.getpid(),
                "cache_entries": len(service),
                "service": service.stats.snapshot(),
                "join": _join_stats_snapshot(),
                "faults": faults.FAULTS.counters(),
            }
        else:
            # Chaos injection points: a request-scoped hard kill (the crash
            # the respawn + retry-once + journal recovery paths must absorb)
            # and a slow-shard sleep (what the deadline budget must bound).
            # Stats probes skip them so health checks stay truthful.
            faults.maybe_kill("worker.request")
            if isinstance(message[2], dict) and is_update_request(message[2]):
                faults.maybe_kill("worker.update")
            faults.maybe_sleep("worker.slow")
            payload = answer(service, message[2])
        try:
            conn.send((seq, payload))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _WorkerHandle:
    """Parent-side handle of one worker process (pipe + sender/reader threads)."""

    def __init__(self, index: int, config: ShardConfig, ctx):
        self.index = index
        self._seq = itertools.count()
        self._pending: dict[int, tuple[asyncio.AbstractEventLoop, asyncio.Future]] = {}
        self._pending_lock = threading.Lock()
        self._outbound: queue.Queue = queue.Queue()
        self._dead = False
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, config),
            name=f"gdatalog-shard-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._sender = threading.Thread(
            target=self._send_loop, name=f"shard-{index}-sender", daemon=True
        )
        self._reader = threading.Thread(
            target=self._read_loop, name=f"shard-{index}-reader", daemon=True
        )
        self._sender.start()
        self._reader.start()

    @property
    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()

    # -- parent-side threads -------------------------------------------------------

    def _send_loop(self) -> None:
        while True:
            message = self._outbound.get()
            if message is None:
                return
            if faults.should_fire("pipe.send") is not None:
                # Injected parent→worker write failure: same observable
                # outcome as a broken pipe (worker dead, futures failed).
                self._mark_dead()
                return
            try:
                self._conn.send(message)
            except (BrokenPipeError, OSError):
                self._mark_dead()
                return

    def _read_loop(self) -> None:
        while True:
            try:
                seq, payload = self._conn.recv()
            except (EOFError, OSError):
                self._mark_dead()
                return
            if faults.should_fire("pipe.frame") is not None:
                # Injected corrupt/malformed frame from the worker: the only
                # safe reaction is to distrust the pipe entirely.
                self._mark_dead()
                return
            with self._pending_lock:
                slot = self._pending.pop(seq, None)
            if slot is None:
                continue
            loop, future = slot
            loop.call_soon_threadsafe(self._resolve, future, payload)

    @staticmethod
    def _resolve(future: asyncio.Future, payload: Any) -> None:
        if not future.done():
            future.set_result(payload)

    def _mark_dead(self) -> None:
        self._dead = True
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for loop, future in pending.values():
            loop.call_soon_threadsafe(self._fail, future)

    @staticmethod
    def _fail(future: asyncio.Future) -> None:
        if not future.done():
            future.set_exception(WorkerCrashed("shard worker died with the request in flight"))

    # -- API -----------------------------------------------------------------------

    def submit(self, kind: str, payload: Any, loop: asyncio.AbstractEventLoop) -> asyncio.Future:
        """Queue one message; the returned future resolves with the response."""
        future: asyncio.Future = loop.create_future()
        if self._dead:
            future.set_exception(WorkerCrashed("shard worker is down"))
            return future
        seq = next(self._seq)
        with self._pending_lock:
            self._pending[seq] = (loop, future)
        if kind == _STATS:
            self._outbound.put((_STATS, seq))
        else:
            self._outbound.put((_REQUEST, seq, payload))
        return future

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: drain queued sends, then stop the process."""
        self._outbound.put((_SHUTDOWN,))
        self._outbound.put(None)
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)
        self._mark_dead()
        try:
            self._conn.close()
        except OSError:
            pass


class ShardRouter:
    """Deterministic program→shard routing over respawning worker processes."""

    def __init__(self, shards: int = 2, config: ShardConfig | None = None):
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        self.num_shards = int(shards)
        self.config = config or ShardConfig()
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context("spawn")
        self._workers: list[_WorkerHandle | None] = [None] * self.num_shards
        #: Times each shard's worker was restarted after a crash.
        self.respawns = [0] * self.num_shards
        # Raw program text → shard index memo (bounded, cleared wholesale):
        # routing must not re-parse the hot program on every request.
        self._route_memo: dict[str, int] = {}
        self._route_memo_limit = 1024
        self._started = False

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker up front (before traffic, so forks are clean)."""
        for index in range(self.num_shards):
            if self._workers[index] is None:
                self._workers[index] = _WorkerHandle(index, self.config, self._ctx)
        self._started = True

    def stop(self, timeout: float = 5.0) -> None:
        for worker in self._workers:
            if worker is not None:
                worker.stop(timeout=timeout)
        self._workers = [None] * self.num_shards
        self._started = False

    def worker_pids(self) -> list[int | None]:
        return [w.process.pid if w is not None else None for w in self._workers]

    def worker_alive(self, shard: int) -> bool:
        worker = self._workers[shard]
        return worker is not None and worker.alive

    def _worker(self, shard: int) -> _WorkerHandle:
        """The shard's live worker, respawning a crashed one on demand."""
        if not self._started:
            raise RuntimeError("ShardRouter.start() must run before submit()")
        worker = self._workers[shard]
        if worker is None or not worker.alive:
            if worker is not None:
                worker.stop(timeout=0.1)
                self.respawns[shard] += 1
            worker = _WorkerHandle(shard, self.config, self._ctx)
            self._workers[shard] = worker
        return worker

    # -- routing -------------------------------------------------------------------

    def shard_for(self, program_source: str) -> int:
        """The deterministic shard index of a program (canonical-key hash)."""
        shard = self._route_memo.get(program_source)
        if shard is None:
            key = canonical_program_key(program_source)
            shard = int(key[:16], 16) % self.num_shards
            if len(self._route_memo) >= self._route_memo_limit:
                self._route_memo.clear()
            self._route_memo[program_source] = shard
        return shard

    # -- submission ----------------------------------------------------------------

    def submit(
        self, shard: int, request: dict, loop: asyncio.AbstractEventLoop | None = None
    ) -> asyncio.Future:
        """Send one protocol request dict to a shard; future → response dict."""
        loop = loop or asyncio.get_running_loop()
        return self._worker(shard).submit(_REQUEST, request, loop)

    async def shard_stats(self, timeout: float = 2.0) -> list[dict | None]:
        """Live per-shard stats snapshots (``None`` for an unresponsive shard)."""
        loop = asyncio.get_running_loop()
        futures = []
        for shard in range(self.num_shards):
            try:
                futures.append(self._worker(shard).submit(_STATS, None, loop))
            except RuntimeError:
                futures.append(None)
        results: list[dict | None] = []
        for future in futures:
            if future is None:
                results.append(None)
                continue
            try:
                results.append(await asyncio.wait_for(future, timeout=timeout))
            except (asyncio.TimeoutError, WorkerCrashed):
                results.append(None)
        return results
