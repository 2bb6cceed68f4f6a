"""Concurrency and slicing behaviour of :class:`~repro.runtime.service.InferenceService`.

The service's LRU caches are plain ``OrderedDict`` objects; before the lock
was added, concurrent use (e.g. a threaded wrapper around ``serve``) could
corrupt eviction order or double-insert entries.  These tests hammer one
service instance from many threads and assert the caches stay consistent,
and pin the slice-aware cache-key contract: different queries that cut the
program to the same slice share one sliced space.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.runtime.service import InferenceService

COLUMN_TEMPLATE = """
coin{c}(X, flip<0.5>[{c}, X]) :- src{c}(X).
hit{c}(X) :- coin{c}(X, 1).
"""


def _program(columns: int) -> str:
    return "\n".join(COLUMN_TEMPLATE.format(c=c) for c in range(1, columns + 1))


def _database(columns: int) -> str:
    return " ".join(f"src{c}(1)." for c in range(1, columns + 1))


class TestThreadSafety:
    def test_concurrent_evaluate_keeps_the_caches_consistent(self):
        service = InferenceService(cache_size=3)
        requests = [(_program(c), _database(c)) for c in range(1, 7)]
        errors: list[BaseException] = []
        results: dict[int, list[float]] = {}

        def worker(index: int) -> None:
            try:
                for round_ in range(8):
                    program, database = requests[(index + round_) % len(requests)]
                    answer = service.evaluate(program, database, ["hit1(1)"])
                    assert answer == [0.5]
                results[index] = answer
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(results) == 8
        # The LRU invariant survived: never more entries than the capacity,
        # and every request was accounted as a hit or a miss.
        assert len(service) <= service.cache_size
        assert service.stats.hits + service.stats.misses == 8 * 8

    def test_concurrent_sliced_requests(self):
        service = InferenceService(cache_size=8, slice=True)
        program, database = _program(4), _database(4)
        errors: list[BaseException] = []

        def worker(column: int) -> None:
            try:
                for _ in range(5):
                    answer = service.evaluate(program, database, [f"hit{column}(1)"])
                    assert answer == [0.5]
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(1 + i % 4,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.stats.slice_hits + service.stats.slice_misses == 8 * 5
        # Four distinct slices: one miss each, the rest shared.
        assert service.stats.slice_misses == 4


    def test_a_cold_check_does_not_block_hits_on_other_entries(self, monkeypatch):
        """The static check runs before the global lock is taken: while one
        request's check is stalled, a cache hit on another program answers."""
        from repro.runtime import service as service_module

        service = InferenceService(validate=True)
        cached = (_program(1), _database(1))
        assert service.evaluate(*cached, ["hit1(1)"]) == [0.5]

        entered, release = threading.Event(), threading.Event()
        real_check = service_module.check_source

        def stalled_check(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return real_check(*args, **kwargs)

        monkeypatch.setattr(service_module, "check_source", stalled_check)
        cold = threading.Thread(
            target=service.evaluate, args=(_program(2), _database(2), ["hit2(1)"]), daemon=True
        )
        answers: list[list[float]] = []
        answered = threading.Event()

        def hit() -> None:
            answers.append(service.evaluate(*cached, ["hit1(1)"]))
            answered.set()

        cold.start()
        try:
            assert entered.wait(timeout=10)
            threading.Thread(target=hit, daemon=True).start()
            assert answered.wait(timeout=5), "a cache hit waited for another request's check"
            assert answers == [[0.5]]
        finally:
            release.set()
            cold.join(timeout=30)
        assert not cold.is_alive()

    @pytest.mark.parametrize("slice", [False, True])
    def test_a_cold_parse_does_not_block_hits_on_other_entries(self, monkeypatch, slice):
        """Without validation the service parses, keys and builds outside the
        global lock — sliced requests too: while one request's parse is
        stalled, a hit answers."""
        from repro.runtime import service as service_module

        service = InferenceService(slice=slice)
        cached = (_program(1), _database(1))
        assert service.evaluate(*cached, ["hit1(1)"]) == [0.5]

        entered, release = threading.Event(), threading.Event()
        real_parse = service_module.parse_database

        def stalled_parse(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(service_module, "parse_database", stalled_parse)
        cold = threading.Thread(
            target=service.evaluate, args=(_program(2), _database(2), ["hit2(1)"]), daemon=True
        )
        answers: list[list[float]] = []
        answered = threading.Event()

        def hit() -> None:
            answers.append(service.evaluate(*cached, ["hit1(1)"]))
            answered.set()

        cold.start()
        try:
            assert entered.wait(timeout=10)
            threading.Thread(target=hit, daemon=True).start()
            assert answered.wait(timeout=1), "a cache hit waited for another request's parse"
            assert answers == [[0.5]]
        finally:
            release.set()
            cold.join(timeout=30)
        assert not cold.is_alive()
        assert (service.stats.misses, service.stats.hits) == (2, 1)

    def test_a_stalled_chase_does_not_block_a_cold_request_on_another_program(
        self, monkeypatch
    ):
        """Every engine guards its space with its own lock: while one
        program's chase is stalled, a cold request on another program chases
        and answers."""
        from repro.gdatalog.chase import ChaseEngine
        from repro.logic.atoms import Predicate

        service = InferenceService()
        entered, release = threading.Event(), threading.Event()
        real_run = ChaseEngine.run

        def stalled_run(self, *args, **kwargs):
            if Predicate("src1", 1) in self.grounder.database.schema:
                entered.set()
                release.wait(timeout=30)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(ChaseEngine, "run", stalled_run)
        stalled = threading.Thread(
            target=service.evaluate, args=(_program(1), _database(1), ["hit1(1)"]), daemon=True
        )
        answers: list[list[float]] = []
        answered = threading.Event()

        def cold() -> None:
            other = COLUMN_TEMPLATE.format(c=2)
            answers.append(service.evaluate(other, "src2(1).", ["hit2(1)"]))
            answered.set()

        stalled.start()
        try:
            assert entered.wait(timeout=10)
            threading.Thread(target=cold, daemon=True).start()
            assert answered.wait(timeout=1), "a cold chase waited for another engine's chase"
            assert answers == [[0.5]]
        finally:
            release.set()
            stalled.join(timeout=30)
        assert not stalled.is_alive()

    def test_racing_cold_builds_share_the_first_inserted_entry(self, monkeypatch):
        """Cold lookups build outside the lock: every thread below builds the
        same entry at once (the barrier in the build admits none until all
        arrive), and every caller still gets the one entry inserted first."""
        from repro.runtime import service as service_module

        service = InferenceService()
        program, database = _program(3), _database(3)
        threads_count = 8
        building = threading.Barrier(threads_count, timeout=10)
        real_engine = service_module.GDatalogEngine

        def gathered_engine(*args, **kwargs):
            building.wait()
            return real_engine(*args, **kwargs)

        monkeypatch.setattr(service_module, "GDatalogEngine", gathered_engine)
        engines: list = []
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                engines.append(service.engine(program, database))
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(engines) == threads_count
        assert len({id(engine) for engine in engines}) == 1
        assert len(service) == 1
        assert (service.stats.misses, service.stats.hits) == (1, threads_count - 1)


class TestSlicedService:
    def test_sliced_results_match_unsliced(self):
        program, database = _program(5), _database(5)
        plain = InferenceService()
        sliced = InferenceService(slice=True)
        queries = ["hit2(1)", "hit4(1)", {"type": "has_stable_model"}]
        assert sliced.evaluate(program, database, queries) == (
            plain.evaluate(program, database, queries)
        )

    def test_queries_with_the_same_slice_share_one_space(self):
        program, database = _program(3), _database(3)
        service = InferenceService(slice=True)
        service.evaluate(program, database, ["hit2(1)"])
        assert (service.stats.slice_misses, service.stats.slice_hits) == (1, 0)
        # A different atom over the same relevant predicate set: cache hit.
        service.evaluate(program, database, ["hit2(99)"])
        assert (service.stats.slice_misses, service.stats.slice_hits) == (1, 1)
        # A different column: different slice, new miss.
        service.evaluate(program, database, ["hit3(1)"])
        assert (service.stats.slice_misses, service.stats.slice_hits) == (2, 1)

    def test_per_request_override(self):
        program, database = _program(3), _database(3)
        service = InferenceService(slice=False)
        assert service.evaluate(program, database, ["hit1(1)"], slice=True) == [0.5]
        assert service.stats.slice_misses == 1
        assert service.evaluate(program, database, ["hit1(1)"], slice=False) == [0.5]
        assert service.stats.slice_misses == 1

    def test_generic_query_falls_back_to_the_full_space(self):
        program, database = _program(2), _database(2)
        service = InferenceService(slice=True)
        answer = service.evaluate(
            program, database, ["hit1(1)", {"type": "has_stable_model"}]
        )
        assert answer == [0.5, 1.0]

    def test_sliced_service_composes_with_factorization(self):
        program, database = _program(4), _database(4)
        factorized = InferenceService(slice=True, factorize=True)
        plain = InferenceService()
        queries = ["hit3(1)", {"type": "has_stable_model"}]
        assert factorized.evaluate(program, database, queries) == (
            plain.evaluate(program, database, queries)
        )

    def test_slice_cache_respects_capacity(self):
        program, database = _program(6), _database(6)
        service = InferenceService(cache_size=2, slice=True)
        for column in range(1, 7):
            service.evaluate(program, database, [f"hit{column}(1)"])
        assert len(service) <= 2
        assert service.stats.evictions > 0
