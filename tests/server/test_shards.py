"""Shard routing determinism, worker processes, crash detection and respawn."""

from __future__ import annotations

import asyncio
import dataclasses
import os
import signal
import time

import pytest

from repro.runtime.service import InferenceService
from repro.logic.join import JOIN_STATS, JoinStats
from repro.server.shards import ShardConfig, ShardRouter, _join_stats_snapshot, canonical_program_key

PROGRAM = """
coin1(X, flip<0.5>[1, X]) :- src1(X).
hit1(X) :- coin1(X, 1).
"""
#: The same program, textually scrambled (rule order, whitespace, comments).
PROGRAM_VARIANT = """
% a comment
hit1(X) :- coin1(X, 1).

coin1(X,  flip<0.5>[1, X]) :-  src1(X).
"""
DATABASE = "src1(1)."


def _wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestRouting:
    def test_canonical_key_ignores_textual_variation(self):
        assert canonical_program_key(PROGRAM) == canonical_program_key(PROGRAM_VARIANT)
        assert canonical_program_key(PROGRAM) != canonical_program_key(PROGRAM + "extra(1).")

    def test_unparseable_programs_route_deterministically(self):
        assert canonical_program_key(":- :- :-") == canonical_program_key(":- :- :-")

    def test_shard_for_is_deterministic_across_router_instances(self):
        programs = [PROGRAM] + [PROGRAM + f"extra{i}(1)." for i in range(3)]
        first = ShardRouter(shards=4)
        second = ShardRouter(shards=4)
        assert [first.shard_for(p) for p in programs] == [second.shard_for(p) for p in programs]
        assert first.shard_for(PROGRAM) == first.shard_for(PROGRAM_VARIANT)

    def test_submit_before_start_raises(self):
        router = ShardRouter(shards=1)

        async def attempt():
            return await router.submit(0, {"program": PROGRAM})

        with pytest.raises(RuntimeError, match="start"):
            asyncio.run(attempt())


def test_join_stats_snapshot_mirrors_every_join_counter():
    counters = {f.name for f in dataclasses.fields(JoinStats) if not f.name.startswith("_")}
    snapshot = _join_stats_snapshot()
    assert set(snapshot) == counters
    assert snapshot == {name: getattr(JOIN_STATS, name) for name in counters}


class TestWorkers:
    def test_round_trip_and_per_shard_stats(self):
        router = ShardRouter(shards=2, config=ShardConfig(cache_size=8))
        router.start()
        try:

            async def scenario():
                shard = router.shard_for(PROGRAM)
                request = {"program": PROGRAM, "database": DATABASE, "queries": ["hit1(1)"]}
                first = await router.submit(shard, dict(request))
                second = await router.submit(shard, dict(request))
                stats = await router.shard_stats(timeout=5.0)
                return shard, first, second, stats

            shard, first, second, stats = asyncio.run(scenario())
            direct = InferenceService().evaluate(PROGRAM, DATABASE, ["hit1(1)"])
            assert first["ok"] and first["results"] == direct
            assert second["ok"] and second["results"] == direct
            assert all(snapshot is not None for snapshot in stats)
            # The worker that served the program saw one miss then one hit;
            # the other shard's cache is untouched (isolation).
            assert stats[shard]["service"]["hits"] == 1
            assert stats[shard]["service"]["misses"] == 1
            other = stats[1 - shard]["service"]
            assert other["hits"] == 0 and other["misses"] == 0
            assert stats[shard]["pid"] != os.getpid()
            assert stats[0]["pid"] != stats[1]["pid"]
        finally:
            router.stop()

    def test_worker_crash_is_detected_and_respawned(self):
        router = ShardRouter(shards=1, config=ShardConfig(cache_size=4))
        router.start()
        try:

            async def before():
                return await router.submit(
                    0, {"program": PROGRAM, "database": DATABASE, "queries": ["hit1(1)"]}
                )

            assert asyncio.run(before())["ok"]
            pid = router.worker_pids()[0]
            os.kill(pid, signal.SIGKILL)
            assert _wait_for(lambda: not router.worker_alive(0))

            async def after():
                return await router.submit(
                    0, {"program": PROGRAM, "database": DATABASE, "queries": ["hit1(1)"]}
                )

            response = asyncio.run(after())
            assert response["ok"] and response["results"] == [0.5]
            assert router.respawns[0] == 1
            assert router.worker_pids()[0] != pid
            assert router.worker_alive(0)
        finally:
            router.stop()

    def test_stop_terminates_workers(self):
        router = ShardRouter(shards=2)
        router.start()
        pids = router.worker_pids()
        router.stop()
        for pid in pids:
            assert _wait_for(lambda: not _pid_alive(pid))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True
