"""The micro-batcher's dispatch rule, driven through a fake shard router.

A query whose (shard, program, database, slice) key has no pass in flight
goes to the router at once; queries arriving while that key's pass is in
flight wait as one group and go as one combined request when the pass
settles.  The fake router hands back futures the test resolves, so every
step is explicit and no test depends on wall-clock time.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.server.batching import BatchFailed, MicroBatcher
from repro.server.metrics import MetricsRegistry
from repro.server.shards import WorkerCrashed

PROGRAM = "coin(flip<0.5>)."


class FakeRouter:
    """Records each ``submit``; the test resolves the returned futures."""

    def __init__(self):
        self.calls: list[tuple[int, dict, asyncio.Future]] = []

    def submit(self, shard: int, request: dict) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.calls.append((shard, request, future))
        return future

    def answer(self, index: int) -> None:
        """Answer call *index*: each query spec comes back as its result."""
        _, request, future = self.calls[index]
        future.set_result({"ok": True, "results": list(request["queries"])})


async def _turns(predicate=lambda: False, limit: int = 20) -> None:
    """Yield to the loop until *predicate* holds, at most *limit* times.

    Zero-length sleeps only: a request that waited for a timer would not be
    seen within them.
    """
    for _ in range(limit):
        if predicate():
            return
        await asyncio.sleep(0)


def _submit(batcher: MicroBatcher, specs, database: str = "", shard: int = 0, slice_=None):
    return asyncio.ensure_future(batcher.submit(shard, PROGRAM, database, specs, slice_))


def test_an_idle_request_reaches_the_router_at_once():
    async def scenario():
        router = FakeRouter()
        waiter = _submit(MicroBatcher(router), ["q(1)"])
        await _turns(lambda: router.calls)
        assert len(router.calls) == 1, "an idle request waited before dispatch"
        shard, request, _ = router.calls[0]
        assert shard == 0
        assert request == {"program": PROGRAM, "database": "", "queries": ["q(1)"]}
        router.answer(0)
        assert await waiter == ["q(1)"]

    asyncio.run(scenario())


def test_requests_behind_an_in_flight_pass_share_one_combined_pass():
    async def scenario():
        router, metrics = FakeRouter(), MetricsRegistry()
        batcher = MicroBatcher(router, metrics=metrics)
        first = _submit(batcher, ["a"])
        await _turns(lambda: router.calls)
        queued = [_submit(batcher, ["b"]), _submit(batcher, ["c", "d"]), _submit(batcher, ["e"])]
        await _turns()
        assert len(router.calls) == 1  # the three wait behind the first pass
        router.answer(0)
        assert await first == ["a"]
        await _turns(lambda: len(router.calls) > 1)
        assert len(router.calls) == 2
        assert router.calls[1][1]["queries"] == ["b", "c", "d", "e"]  # arrival order
        router.answer(1)
        assert [await waiter for waiter in queued] == [["b"], ["c", "d"], ["e"]]
        await _turns()
        assert len(router.calls) == 2
        assert metrics.counter_value("gdatalog_microbatch_batches_total") == 2
        assert metrics.counter_value("gdatalog_microbatch_requests_total") == 4
        assert metrics.counter_value("gdatalog_microbatch_coalesced_total") == 2

    asyncio.run(scenario())


def test_database_slice_flag_and_shard_are_part_of_the_key():
    async def scenario():
        router = FakeRouter()
        batcher = MicroBatcher(router)
        waiters = [_submit(batcher, ["a"])]
        await _turns(lambda: router.calls)
        waiters += [
            _submit(batcher, ["b"], database="src(1)."),
            _submit(batcher, ["c"], slice_=True),
            _submit(batcher, ["d"], slice_=False),
            _submit(batcher, ["e"], shard=1),
        ]
        await _turns(lambda: len(router.calls) == 5)
        assert len(router.calls) == 5  # four other keys, none in flight
        assert [call[1].get("slice") for call in router.calls] == [None, None, True, False, None]
        assert [call[0] for call in router.calls] == [0, 0, 0, 0, 1]
        waiters.append(_submit(batcher, ["f"], database="src(1)."))
        await _turns()
        assert len(router.calls) == 5  # same key as the second pass: it waits
        for index in range(5):
            router.answer(index)
        await _turns(lambda: len(router.calls) == 6)
        assert router.calls[5][1]["database"] == "src(1)."
        router.answer(5)
        assert [await waiter for waiter in waiters] == [["a"], ["b"], ["c"], ["d"], ["e"], ["f"]]

    asyncio.run(scenario())


@pytest.mark.parametrize("failure", ["batch_failed", "worker_crashed"])
def test_a_failed_pass_still_dispatches_the_pending_group(failure):
    async def scenario():
        router = FakeRouter()
        batcher = MicroBatcher(router)
        first = _submit(batcher, ["a"])
        await _turns(lambda: router.calls)
        queued = [_submit(batcher, ["b"]), _submit(batcher, ["c"])]
        await _turns()
        future = router.calls[0][2]
        if failure == "batch_failed":
            future.set_result({"ok": False, "error": "GDL000: boom"})
            expected = BatchFailed
        else:
            future.set_exception(WorkerCrashed("shard worker died"))
            expected = WorkerCrashed
        with pytest.raises(expected):
            await first
        await _turns(lambda: len(router.calls) > 1)
        assert len(router.calls) == 2
        assert router.calls[1][1]["queries"] == ["b", "c"]
        router.answer(1)
        assert [await waiter for waiter in queued] == [["b"], ["c"]]

    asyncio.run(scenario())


def test_a_cancelled_waiter_leaves_its_pass_and_the_pending_group_running():
    async def scenario():
        router = FakeRouter()
        batcher = MicroBatcher(router)
        first = _submit(batcher, ["a"])
        await _turns(lambda: router.calls)
        second = _submit(batcher, ["b"])
        await _turns()
        first.cancel()  # what ``asyncio.wait_for`` does at a request deadline
        await _turns(first.done)
        assert first.cancelled()
        assert not router.calls[0][2].cancelled()  # the pass itself runs on
        router.answer(0)
        await _turns(lambda: len(router.calls) > 1)
        assert len(router.calls) == 2
        assert router.calls[1][1]["queries"] == ["b"]
        router.answer(1)
        assert await second == ["b"]

    asyncio.run(scenario())
