"""Unit and regression tests for the indexed join engine (logic/join.py)."""

from __future__ import annotations

import threading

import pytest

from repro.logic.atoms import Predicate, atom, fact
from repro.logic.join import (
    ArgIndex,
    JoinStats,
    RulePlan,
    clear_plan_cache,
    iter_join,
    iter_join_seminaive,
    join_stats,
    match_conjunction_indexed,
    match_conjunction_seminaive_indexed,
)
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.logic.unify import FactIndex, match_conjunction, match_conjunction_seminaive

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

EDGES = [fact("edge", 1, 2), fact("edge", 2, 3), fact("edge", 3, 1), fact("edge", 2, 2)]
COLORS = [fact("colored", 1, "red"), fact("colored", 2, "blue"), fact("colored", 3, "red")]


def _sub_set(iterator):
    return {frozenset(dict(s.items() if isinstance(s, Substitution) else s.items()).items()) for s in iterator}


class TestArgIndex:
    def test_probe_matches_filtered_bucket(self):
        index = ArgIndex(EDGES)
        probed = set(index.probe(EDGES[0].predicate, 0, Constant(2)))
        assert probed == {fact("edge", 2, 3), fact("edge", 2, 2)}
        assert set(index.probe(EDGES[0].predicate, 1, Constant(2))) == {
            fact("edge", 1, 2),
            fact("edge", 2, 2),
        }
        assert set(index.probe(EDGES[0].predicate, 0, Constant(99))) == set()

    def test_lazily_built_index_is_maintained_incrementally(self):
        index = ArgIndex(EDGES)
        predicate = EDGES[0].predicate
        assert len(index.probe(predicate, 0, Constant(1))) == 1  # builds position 0
        assert index.add(fact("edge", 1, 9))
        assert set(index.probe(predicate, 0, Constant(1))) == {
            fact("edge", 1, 2),
            fact("edge", 1, 9),
        }
        # A never-probed position is built on first use and still complete.
        assert set(index.probe(predicate, 1, Constant(9))) == {fact("edge", 1, 9)}

    def test_duplicate_add_is_a_noop(self):
        index = ArgIndex(EDGES)
        predicate = EDGES[0].predicate
        index.probe(predicate, 0, Constant(1))
        assert not index.add(fact("edge", 1, 2))
        assert len(index.probe(predicate, 0, Constant(1))) == 1

    def test_unknown_predicate_has_empty_buckets_and_zero_estimate(self):
        index = ArgIndex(EDGES)
        unknown = Predicate("nope", 2)
        assert set(index.probe(unknown, 0, Constant(1))) == set()
        assert index.estimated_bucket_size(unknown, 0) == 0.0
        assert set(index.facts_for(unknown)) == set()

    def test_copy_is_independent_in_both_directions(self):
        index = ArgIndex(EDGES)
        predicate = EDGES[0].predicate
        index.probe(predicate, 0, Constant(1))  # build before copying
        duplicate = index.copy()
        assert isinstance(duplicate, ArgIndex)

        duplicate.add(fact("edge", 1, 7))
        assert fact("edge", 1, 7) not in index
        assert set(index.probe(predicate, 0, Constant(1))) == {fact("edge", 1, 2)}

        index.add(fact("edge", 1, 8))
        assert fact("edge", 1, 8) not in duplicate
        assert set(duplicate.probe(predicate, 0, Constant(1))) == {
            fact("edge", 1, 2),
            fact("edge", 1, 7),
        }

    def test_copy_stays_consistent_with_all_set(self):
        index = ArgIndex(EDGES)
        duplicate = index.copy()
        duplicate.add(fact("edge", 9, 9))
        assert len(duplicate) == len(EDGES) + 1
        assert set(duplicate.facts_for(EDGES[0].predicate)) == duplicate.as_set()

    def test_estimated_bucket_size(self):
        index = ArgIndex(EDGES)
        predicate = EDGES[0].predicate
        # 4 facts over 3 distinct first arguments.
        assert index.estimated_bucket_size(predicate, 0) == pytest.approx(4 / 3)
        assert index.estimated_bucket_size(predicate, 1) == pytest.approx(4 / 3)
        assert index.estimated_bucket_size(fact("nope", 1).predicate, 0) == 0.0


class TestFactsForAliasing:
    def test_facts_for_returns_a_read_only_view(self):
        index = FactIndex(EDGES)
        view = index.facts_for(EDGES[0].predicate)
        with pytest.raises(AttributeError):
            view.add(fact("edge", 5, 5))  # type: ignore[attr-defined]
        with pytest.raises(AttributeError):
            view.discard(EDGES[0])  # type: ignore[attr-defined]

    def test_view_is_live_and_set_algebra_detaches(self):
        index = FactIndex(EDGES[:2])
        view = index.facts_for(EDGES[0].predicate)
        assert len(view) == 2
        index.add(fact("edge", 8, 8))
        assert len(view) == 3  # live view reflects later adds
        detached = view | {fact("edge", 9, 9)}
        assert isinstance(detached, frozenset)
        index.add(fact("edge", 10, 10))
        assert len(detached) == 4  # frozenset result is detached

    def test_empty_predicate_view_is_empty_immutable_and_live(self):
        index = FactIndex()
        view = index.facts_for(EDGES[0].predicate)
        assert len(view) == 0 and list(view) == []
        with pytest.raises(AttributeError):
            view.add(EDGES[0])  # type: ignore[attr-defined]
        index.add(EDGES[0])
        assert EDGES[0] in view and len(view) == 1  # live even from empty

    def test_index_cannot_be_desynced_through_the_view(self):
        index = FactIndex(EDGES)
        assert set(index.facts_for(EDGES[0].predicate)) == set(index.as_set())
        # The historical hazard: mutating the returned bucket desynced _all.
        # The view exposes no mutators, so the invariant is preserved.
        assert len(index) == len(EDGES)


class TestIterJoin:
    def test_matches_naive_on_bound_constant_patterns(self):
        index = ArgIndex(EDGES + COLORS)
        patterns = (atom("edge", 2, "Y"),)
        assert _sub_set(iter_join(patterns, index)) == _sub_set(match_conjunction(patterns, index))

    def test_matches_naive_on_multi_atom_join(self):
        index = ArgIndex(EDGES + COLORS)
        patterns = (atom("colored", "X", "red"), atom("edge", "X", "Y"), atom("colored", "Y", "red"))
        assert _sub_set(iter_join(patterns, index)) == _sub_set(match_conjunction(patterns, index))

    def test_repeated_variable_pattern(self):
        index = ArgIndex(EDGES)
        patterns = (atom("edge", "X", "X"),)
        expected = _sub_set(match_conjunction(patterns, index))
        assert _sub_set(iter_join(patterns, index)) == expected
        assert expected == {frozenset({(X, Constant(2))})}  # edge(2, 2) is the only self-loop

    def test_empty_conjunction_yields_the_initial_binding(self):
        index = ArgIndex(EDGES)
        assert list(iter_join((), index)) == [{}]
        binding = Substitution.of({X: Constant(1)})
        assert list(iter_join((), index, binding)) == [{X: Constant(1)}]

    def test_initial_binding_restricts_matches(self):
        index = ArgIndex(EDGES)
        patterns = (atom("edge", "X", "Y"),)
        binding = Substitution.of({X: Constant(2)})
        naive = _sub_set(match_conjunction(patterns, index, binding))
        fast = _sub_set(iter_join(patterns, index, binding))
        assert naive == fast
        assert all(dict(pairs)[X] == Constant(2) for pairs in fast)

    def test_variable_to_variable_initial_binding(self):
        index = ArgIndex(EDGES)
        patterns = (atom("edge", "X", "Z"),)
        binding = Substitution.of({X: Y})
        naive = _sub_set(match_conjunction(patterns, index, binding))
        fast = _sub_set(iter_join(patterns, index, binding))
        assert naive == fast

    def test_accepts_plain_fact_iterables(self):
        patterns = (atom("edge", "X", 2),)
        assert _sub_set(iter_join(patterns, EDGES)) == _sub_set(match_conjunction(patterns, EDGES))

    def test_deterministic_enumeration(self):
        index = ArgIndex(EDGES + COLORS)
        patterns = (atom("edge", "X", "Y"), atom("colored", "Y", "Z"))
        first = list(match_conjunction_indexed(patterns, index))
        second = list(match_conjunction_indexed(patterns, index))
        assert first == second


class TestIterJoinSeminaive:
    def test_matches_naive_seminaive_sets(self):
        facts = FactIndex(EDGES + COLORS)
        arg_facts = ArgIndex(EDGES + COLORS)
        delta = FactIndex([fact("edge", 2, 3), fact("colored", 3, "red")])
        patterns = (atom("edge", "X", "Y"), atom("colored", "Y", "C"))
        naive = _sub_set(match_conjunction_seminaive(patterns, facts, delta))
        fast = _sub_set(iter_join_seminaive(patterns, arg_facts, delta))
        assert naive == fast

    def test_each_qualifying_substitution_exactly_once(self):
        arg_facts = ArgIndex(EDGES)
        delta = FactIndex([fact("edge", 2, 3), fact("edge", 2, 2)])
        patterns = (atom("edge", "X", "Y"), atom("edge", "Y", "Z"))
        results = [frozenset(m.items()) for m in iter_join_seminaive(patterns, arg_facts, delta)]
        assert len(results) == len(set(results))  # duplicate-free decomposition

    def test_empty_delta_or_patterns_yield_nothing(self):
        arg_facts = ArgIndex(EDGES)
        assert list(iter_join_seminaive((atom("edge", "X", "Y"),), arg_facts, FactIndex())) == []
        assert list(iter_join_seminaive((), arg_facts, FactIndex(EDGES))) == []

    def test_substitution_wrapper_equivalence(self):
        facts = FactIndex(EDGES)
        arg_facts = ArgIndex(EDGES)
        delta = FactIndex([fact("edge", 3, 1)])
        patterns = (atom("edge", "X", "Y"), atom("edge", "Y", "Z"))
        naive = set(match_conjunction_seminaive(patterns, facts, delta))
        fast = set(match_conjunction_seminaive_indexed(patterns, arg_facts, delta))
        assert naive == fast


class TestRulePlanCache:
    def test_plans_are_cached_and_counted(self):
        clear_plan_cache()
        stats = join_stats()
        compiled_before, reused_before = stats.plans_compiled, stats.plans_reused
        patterns = (atom("edge", "X", "Y"), atom("edge", "Y", "Z"))
        first = RulePlan.for_patterns(patterns)
        second = RulePlan.for_patterns(patterns)
        assert first is second
        assert stats.plans_compiled == compiled_before + 1
        assert stats.plans_reused == reused_before + 1

    def test_join_order_prefers_selective_atoms(self):
        index = ArgIndex(EDGES + COLORS + [fact("start", 2)])
        patterns = (atom("edge", "X", "Y"), atom("start", "X"))
        plan = RulePlan.for_patterns(patterns)
        ordered = plan.join_order(index)
        # start/1 has one fact; the planner should pivot on it first.
        assert ordered[0].predicate.name == "start"

    def test_probe_and_scan_counters_move(self):
        stats = join_stats()
        index = ArgIndex(EDGES)
        probes_before, scans_before = stats.index_probes, stats.full_scans
        list(iter_join((atom("edge", 1, "Y"),), index))
        assert stats.index_probes > probes_before
        list(iter_join((atom("edge", "X", "Y"),), index))
        assert stats.full_scans > scans_before


class TestJoinStats:
    def test_bump_adds_to_each_counter(self):
        stats = JoinStats()
        for amount, counter in enumerate(
            ("index_probes", "full_scans", "indexes_built", "plans_compiled", "plans_reused"), 1
        ):
            stats.bump(counter, amount)
        counters = (stats.index_probes, stats.full_scans, stats.plans_compiled, stats.plans_reused)
        assert counters == (1, 2, 4, 5)
        assert stats.indexes_built == 3

    def test_reset_zeroes_every_counter(self):
        stats = JoinStats(index_probes=3, full_scans=2, indexes_built=1, plans_compiled=4, plans_reused=5)
        stats.reset()
        counters = (stats.index_probes, stats.full_scans, stats.plans_compiled, stats.plans_reused)
        assert counters == (0, 0, 0, 0)
        assert stats.indexes_built == 0

    def test_concurrent_bumps_are_not_lost(self):
        stats = JoinStats()

        def worker():
            for _ in range(2000):
                stats.bump("index_probes")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.index_probes == 8000
