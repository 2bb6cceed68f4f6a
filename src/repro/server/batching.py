"""Cross-request micro-batching: queries behind a busy pass share the next one.

Many clients ask the *same* (program, database) — that is the point of the
engine cache — yet each request would pay its own
:class:`~repro.runtime.batch.QueryBatch` pass over the outcome space plus
one pipe round-trip to the shard worker.  :class:`MicroBatcher` keys exact
queries on (shard, program, database, slice): a query whose key has no pass
in flight goes to the shard at once; queries arriving while one is in
flight join one pending group, sent as **one** combined request (one pipe
message, one cache lookup, one ``QueryBatch`` pass) when that pass settles,
and the results are sliced back per requester.  So batching happens exactly
when the shard is busy with the key, and an idle request never waits.  A
group needs no size cap: each waiter holds its admission ticket, and
admission bounds the requests in flight per shard.

Each pass is a detached task: a request deadline cancels only its own
waiter, never the pass or the group behind it.  A failed pass (``BatchFailed``
or :class:`~repro.server.shards.WorkerCrashed`) fails only its own waiters;
the pending group still goes as its own pass, which after a crash respawns
the worker.  ``QueryBatch`` sums each query's mass independently with
``math.fsum`` over the same outcome order, so batched answers are
**bit-identical** to per-request evaluation.  Query specs are validated per
client *before* coalescing, so one malformed spec cannot poison its
batch-mates.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.server.metrics import MetricsRegistry

__all__ = ["MicroBatcher", "BatchFailed"]


class BatchFailed(RuntimeError):
    """The combined request answered ``ok: false``; carries the error text.

    When the worker's response included structured checker findings (the
    validation gate's :class:`~repro.gdatalog.checker.DiagnosticsError`),
    they ride along in :attr:`diagnostics` so the HTTP 400 payload keeps
    the codes and spans instead of just the flattened message.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics


class _Group:
    """Queries sent together as one pass for one (shard, program, database, slice) key."""

    __slots__ = ("shard", "request_core", "specs", "waiters")

    def __init__(self, shard: int, request_core: dict):
        self.shard = shard
        self.request_core = request_core
        self.specs: list[Any] = []
        #: ``(start, count, future)`` per coalesced client request.
        self.waiters: list[tuple[int, int, asyncio.Future]] = []

    def add(self, specs: list[Any]) -> asyncio.Future:
        """Append one client's specs; its future resolves to their results."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.waiters.append((len(self.specs), len(specs), future))
        self.specs.extend(specs)
        return future


class MicroBatcher:
    """Send idle keys' queries at once; coalesce those behind an in-flight pass."""

    def __init__(self, router, metrics: MetricsRegistry | None = None):
        self.router = router
        self.metrics = metrics
        #: Keys with a pass in flight, each with the group queued behind it
        #: (``None`` while nothing has arrived since the pass was sent).
        self._inflight: dict[tuple, _Group | None] = {}
        # asyncio keeps only weak references to tasks: hold every pass.
        self._passes: set[asyncio.Task] = set()

    async def submit(
        self,
        shard: int,
        program: str,
        database: str,
        specs: list[Any],
        slice_: Any = None,
    ) -> list[float]:
        """The results for *specs*, possibly answered by a shared batch pass."""
        request_core = {"program": program, "database": database}
        if slice_ is not None:
            request_core["slice"] = bool(slice_)
        key = (shard, program, database, request_core.get("slice"))
        if key in self._inflight:
            group = self._inflight[key]
            if group is None:
                group = self._inflight[key] = _Group(shard, request_core)
            return await group.add(specs)
        group = _Group(shard, request_core)
        future = group.add(specs)
        self._dispatch(key, group)
        return await future

    # -- passes --------------------------------------------------------------------

    def _dispatch(self, key: tuple, group: _Group) -> None:
        """Send *group* as the key's in-flight pass."""
        self._inflight[key] = None
        if self.metrics is not None:
            requests = len(group.waiters)
            self.metrics.inc("gdatalog_microbatch_batches_total")
            self.metrics.inc("gdatalog_microbatch_requests_total", amount=requests)
            self.metrics.inc("gdatalog_microbatch_coalesced_total", amount=requests - 1)
        task = asyncio.ensure_future(self._run_pass(key, group))
        self._passes.add(task)
        task.add_done_callback(self._passes.discard)

    async def _run_pass(self, key: tuple, group: _Group) -> None:
        try:
            results = await self._evaluate(group.shard, group.request_core, group.specs)
        except Exception as error:  # noqa: BLE001 - fan the failure out per waiter
            for _, _, future in group.waiters:
                if not future.done():
                    future.set_exception(error)
        else:
            for start, count, future in group.waiters:
                if not future.done():
                    future.set_result(results[start : start + count])
        finally:
            pending = self._inflight.pop(key)
            if pending is not None:
                self._dispatch(key, pending)

    async def _evaluate(self, shard: int, request_core: dict, specs: list[Any]) -> list[float]:
        """One protocol round-trip to the shard for a (possibly merged) batch."""
        request = dict(request_core)
        request["queries"] = list(specs)
        response = await self.router.submit(shard, request)
        if not response.get("ok"):
            raise BatchFailed(
                str(response.get("error", "batch evaluation failed")),
                response.get("diagnostics"),
            )
        results = response.get("results")
        if not isinstance(results, list) or len(results) != len(specs):
            raise BatchFailed(
                f"shard returned {0 if not isinstance(results, list) else len(results)} "
                f"results for {len(specs)} queries"
            )
        return results
