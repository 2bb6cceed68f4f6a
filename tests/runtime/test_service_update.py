"""Streaming updates through :meth:`InferenceService.update`.

The load-bearing contracts:

* **No cache-key drift** — the key an update derives for the post-delta
  state is exactly the key :meth:`cache_key` computes for a fresh request
  over the canonical post-delta database text, so an updated entry and a
  later from-scratch request share one slot (never a double entry);
* post-update answers are bit-identical to a cold service's answers;
* the ``updates_applied`` / ``subtrees_invalidated`` / ``subtrees_reused``
  counters advance with the maintenance reports;
* concurrent updates and queries on the same stream keep the caches
  consistent.
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ValidationError
from repro.gdatalog.checker import ProgramAnalysis
from repro.logic.deltas import DbDelta
from repro.logic.parser import parse_database
from repro.runtime import service as service_module
from repro.runtime.service import InferenceService
from repro.server import protocol

PROGRAM = """
coin(X, flip<0.5>[X]) :- src(X).
hit(X) :- coin(X, 1).
base(X) :- src(X), aux(X).
"""
DATABASE = "src(1). src(2). aux(1)."
QUERIES = ["base(1)", "base(2)", "hit(1)"]


class TestDerivedCacheKeys:
    def test_update_key_equals_fresh_key_for_post_delta_database(self):
        service = InferenceService()
        result = service.update(PROGRAM, DATABASE, {"insert": ["aux(2)"]})
        assert result.key == service.cache_key(PROGRAM, result.database_source)
        # The canonical text itself is stable under re-parsing.
        noop = service.update(PROGRAM, result.database_source, {"insert": ["aux(2)"]})
        assert noop.key == result.key and noop.report.mode == "noop"

    def test_no_double_entry_for_the_same_post_delta_state(self):
        service = InferenceService()
        service.evaluate(PROGRAM, DATABASE, QUERIES)
        before = len(service)
        result = service.update(PROGRAM, DATABASE, {"insert": ["aux(2)"]})
        assert len(service) == before + 1  # pre-delta entry + post-delta entry
        # A fresh request over the same post-delta state reuses the slot.
        service.evaluate(PROGRAM, result.database_source, QUERIES)
        assert len(service) == before + 1

    def test_textually_different_same_database_converges(self):
        service = InferenceService()
        shuffled = "aux(2). src(2). aux(1). src(1)."
        result = service.update(PROGRAM, DATABASE, {"insert": ["aux(2)"]})
        assert service.cache_key(PROGRAM, shuffled) == result.key


class TestUpdateAnswers:
    def test_post_update_answers_match_a_cold_service(self):
        service = InferenceService()
        service.evaluate(PROGRAM, DATABASE, QUERIES)
        result = service.update(
            PROGRAM, DATABASE, DbDelta.of(inserts=["aux(2)"], retracts=["aux(1)"])
        )
        maintained = service.evaluate(PROGRAM, result.database_source, QUERIES)
        cold = InferenceService().evaluate(PROGRAM, result.database_source, QUERIES)
        assert maintained == cold == [0.0, 1.0, 0.5]

    def test_update_report_modes(self):
        service = InferenceService()
        service.evaluate(PROGRAM, DATABASE, QUERIES)  # chase the base entry
        patched = service.update(PROGRAM, DATABASE, {"insert": ["aux(2)"]})
        assert patched.report.mode == "patch"
        assert patched.report.reused_subtrees > 0
        rebuilt = service.update(PROGRAM, DATABASE, {"insert": ["src(3)"]})
        assert rebuilt.report.mode == "rebuild"

    def test_chained_updates_walk_the_database(self):
        service = InferenceService()
        source = DATABASE
        for delta, expected in (
            ({"insert": ["aux(2)"]}, [1.0, 1.0, 0.5]),
            ({"retract": ["aux(1)"]}, [0.0, 1.0, 0.5]),
        ):
            result = service.update(PROGRAM, source, delta)
            source = result.database_source
            assert service.evaluate(PROGRAM, source, QUERIES) == expected

    def test_invalid_delta_spec_is_rejected(self):
        service = InferenceService()
        with pytest.raises(ValidationError):
            service.update(PROGRAM, DATABASE, {"isnert": ["aux(2)"]})


class TestPostDeltaAnalysis:
    """An update derives the post-delta analysis instead of checking its text again."""

    @staticmethod
    def _record(monkeypatch, owner, name: str) -> list:
        calls: list = []
        real = getattr(owner, name)

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return calls

    def test_a_cold_update_and_its_queries_check_once(self, monkeypatch):
        checks = self._record(monkeypatch, service_module, "check_source")
        service = InferenceService(validate=True)
        request = {
            "program": PROGRAM,
            "database": DATABASE,
            "delta": {"insert": ["aux(2)"]},
            "queries": QUERIES,
        }
        response = protocol.answer(service, request)
        assert response["ok"], response
        assert len(checks) == 1
        cold = InferenceService().evaluate(PROGRAM, response["database"], QUERIES)
        assert response["results"] == cold

    def test_a_noop_reassertion_derives_nothing(self, monkeypatch):
        service = InferenceService(validate=True)
        canonical = InferenceService.canonical_database_source(parse_database(DATABASE))
        assert protocol.answer(service, {"program": PROGRAM, "database": canonical})["ok"]
        checks = self._record(monkeypatch, service_module, "check_source")
        derived = self._record(monkeypatch, ProgramAnalysis, "with_database")
        request = {
            "program": PROGRAM,
            "database": canonical,
            "delta": {"insert": ["src(1)"]},
            "queries": QUERIES,
        }
        response = protocol.answer(service, request)
        assert response["ok"], response
        assert response["update"]["mode"] == "noop"
        assert response["database"] == canonical
        assert checks == [] and derived == []


class TestCanonicalOrder:
    def test_a_cold_evaluate_and_its_update_sort_each_database_once(self, monkeypatch):
        """The cache key and the grounder read one canonical order per database."""
        from repro.logic.atoms import Atom

        facts = 300
        database = "src(1). " + " ".join(f"aux({i})." for i in range(1, facts))
        calls = 0
        real_sort_key = Atom.sort_key

        def counted_sort_key(self):
            nonlocal calls
            calls += 1
            return real_sort_key(self)

        monkeypatch.setattr(Atom, "sort_key", counted_sort_key)
        service = InferenceService()
        assert service.evaluate(PROGRAM, database, QUERIES) == [1.0, 0.0, 0.5]
        assert calls / facts < 1.5
        calls = 0
        result = service.update(PROGRAM, database, {"insert": [f"aux({facts})"]})
        assert result.report.mode == "patch"
        assert calls / (facts + 1) < 1.5


class TestUpdateCounters:
    def test_counters_follow_the_reports(self):
        service = InferenceService()
        service.evaluate(PROGRAM, DATABASE, QUERIES)
        result = service.update(PROGRAM, DATABASE, {"insert": ["aux(2)"]})
        snapshot = service.stats.snapshot()
        assert snapshot["updates_applied"] == 1
        assert snapshot["subtrees_invalidated"] == result.report.invalidated_subtrees
        assert snapshot["subtrees_reused"] == result.report.reused_subtrees
        service.update(PROGRAM, DATABASE, {"retract": ["aux(1)"]})
        assert service.stats.snapshot()["updates_applied"] == 2


class TestConcurrentUpdates:
    def test_parallel_updates_and_queries_stay_consistent(self):
        service = InferenceService(cache_size=8)
        service.evaluate(PROGRAM, DATABASE, QUERIES)
        errors: list[BaseException] = []

        def update_worker(i: int) -> None:
            try:
                result = service.update(PROGRAM, DATABASE, {"insert": [f"aux({i + 10})"]})
                assert result.key == service.cache_key(PROGRAM, result.database_source)
                answers = service.evaluate(
                    PROGRAM, result.database_source, [f"base({i + 10})"]
                )
                assert answers == [0.0]  # src(i+10) is absent: aux alone derives nothing
            except BaseException as error:  # noqa: BLE001 - collected for the main thread
                errors.append(error)

        def query_worker() -> None:
            try:
                assert service.evaluate(PROGRAM, DATABASE, QUERIES) == [1.0, 0.0, 0.5]
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=update_worker, args=(i,)) for i in range(6)]
        threads += [threading.Thread(target=query_worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.stats.snapshot()["updates_applied"] == 6
