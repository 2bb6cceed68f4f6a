"""Unit tests for query-relevant slicing (:mod:`repro.gdatalog.relevance`)."""

from __future__ import annotations

import pytest

from repro.gdatalog.engine import GDatalogEngine
from repro.gdatalog.relevance import (
    atoms_for_queries,
    compute_slice,
    forward_reachable,
    permanent_seeds,
    relevant_predicates,
)
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_database, parse_gdatalog_program
from repro.ppdl.queries import AtomQuery, EventQuery, HasStableModelQuery
from repro.workloads import coin_program

TWO_COLUMNS = """
coin_a(X, flip<0.5>[a, X]) :- src_a(X).
hit_a(X) :- coin_a(X, 1).
coin_b(X, flip<0.5>[b, X]) :- src_b(X).
hit_b(X) :- coin_b(X, 1).
miss_b(X) :- src_b(X), not hit_b(X).
"""

TWO_COLUMNS_DB = "src_a(1). src_a(2). src_b(1). src_b(2)."


def _parsed():
    return parse_gdatalog_program(TWO_COLUMNS), parse_database(TWO_COLUMNS_DB)


class TestBackwardReachability:
    def test_closure_follows_positive_and_negative_bodies(self):
        program, _ = _parsed()
        closure = relevant_predicates(program, [Predicate("miss_b", 1)])
        names = {p.name for p in closure}
        # miss_b negates hit_b, which needs coin_b, which needs src_b.
        assert names == {"miss_b", "src_b", "hit_b", "coin_b"}

    def test_unrelated_column_is_not_reached(self):
        program, _ = _parsed()
        closure = relevant_predicates(program, [Predicate("hit_a", 1)])
        assert {p.name for p in closure} == {"hit_a", "coin_a", "src_a"}


class TestSliceConstruction:
    def test_slice_drops_the_other_column(self):
        program, database = _parsed()
        slice_ = compute_slice(program, database, ["hit_a(1)"])
        assert not slice_.is_full and not slice_.is_empty
        assert len(slice_.program) == 2
        assert len(slice_.database) == 2
        assert slice_.dropped_rules == 3 and slice_.dropped_facts == 2

    def test_unreachable_query_yields_the_empty_slice(self):
        program, database = _parsed()
        slice_ = compute_slice(program, database, ["nosuch(1)"])
        assert slice_.is_empty
        assert len(slice_.program) == 0 and len(slice_.database) == 0

    def test_constraints_are_permanent_seeds(self):
        program = parse_gdatalog_program(TWO_COLUMNS + "\n:- miss_b(X), hit_a(X).\n")
        _, database = _parsed()
        slice_ = compute_slice(program, database, ["hit_a(1)"])
        # The constraint couples both columns: nothing can be cut.
        assert slice_.is_full

    def test_negative_cycles_are_permanent_seeds(self):
        # The coin program's aux1/aux2 even loop and its constraint keep
        # everything relevant no matter the query.
        program = coin_program()
        seeds = {p.name for p in permanent_seeds(program)}
        assert {"aux1", "aux2", "coin"} <= seeds
        slice_ = compute_slice(program, parse_database(""), ["unrelated(1)"])
        assert slice_.dropped_rules == 0

    def test_inexact_choice_is_kept_but_its_consumers_can_drop(self):
        source = """
        coin_a(X, flip<0.5>[a, X]) :- src_a(X).
        hit_a(X) :- coin_a(X, 1).
        coin_b(X, flip<0.3>[b, X]) :- src_b(X).
        hit_b(X) :- coin_b(X, 1).
        """
        program = parse_gdatalog_program(source)
        database = parse_database(TWO_COLUMNS_DB)
        slice_ = compute_slice(program, database, ["hit_a(1)"])
        kept = {str(r.head.predicate.name) for r in slice_.program.rules}
        # flip<0.3> branch masses are not dyadic: dropping the choice would
        # not contribute a factor of exactly 1, so it stays chased...
        assert "coin_b" in kept
        # ...but its deterministic consumer is still cut.
        assert "hit_b" not in kept

    def test_empty_seed_batch_slices_to_the_model_killing_core(self):
        program, database = _parsed()
        slice_ = compute_slice(program, database, [])
        # No constraints, no negative cycles, dyadic flips: nothing can
        # kill a stable model, so the core is empty.
        assert slice_.is_empty


class TestQueryBatchSeeds:
    def test_atom_and_stable_model_queries_are_sliceable(self):
        atoms = atoms_for_queries([AtomQuery.of("hit_a(1)"), HasStableModelQuery()])
        assert atoms is not None and [str(a) for a in atoms] == ["hit_a(1)"]

    def test_generic_queries_force_the_full_fallback(self):
        assert atoms_for_queries([EventQuery(lambda o: True)]) is None


class TestEngineWiring:
    @pytest.fixture()
    def engine(self):
        program, database = _parsed()
        return GDatalogEngine(program, database)

    def test_sliced_engine_answers_bit_identically(self, engine):
        sliced = engine.sliced(["hit_a(1)"])
        assert sliced is not engine
        assert sliced.marginal("hit_a(1)") == engine.marginal("hit_a(1)")
        assert engine.sliced([AtomQuery.of("hit_a(1)", "brave")]).marginal("hit_a(1)") == (
            engine.marginal("hit_a(1)")
        )
        assert engine.sliced([HasStableModelQuery()]).probability_has_stable_model() == (
            engine.probability_has_stable_model()
        )

    def test_sliced_outcome_count_shrinks(self, engine):
        assert len(engine.output_space()) == 16
        assert len(engine.sliced(["hit_a(1)"]).output_space()) == 4

    def test_full_slice_returns_self(self, engine):
        # Querying both columns makes every rule and fact relevant, so the
        # engine (and its cached chase) is reused as-is...
        assert engine.sliced(["hit_a(1)", "miss_b(1)"]) is engine
        # ...and a generic query always falls back to self too.
        assert engine.sliced([EventQuery(lambda o: True)]) is engine

    def test_one_atom_slice_matches_a_fresh_engine(self):
        program, database = _parsed()
        engine = GDatalogEngine(program, database).sliced(["hit_b(2)"])
        assert engine.query_slice is not None and not engine.query_slice.is_full
        reference = GDatalogEngine(program, database)
        assert engine.marginal("hit_b(2)") == reference.marginal("hit_b(2)")

    def test_evaluate_queries_union_slice(self, engine):
        queries = ["hit_a(1)", "hit_a(2)", {"type": "has_stable_model"}]
        assert engine.sliced(queries).evaluate_queries(queries) == engine.evaluate_queries(queries)

    def test_sliced_sampler_estimates(self, engine):
        sliced = engine.sliced(["hit_a(1)"]).estimate_marginal("hit_a(1)", n=400, seed=3)
        assert sliced.samples == 400
        assert abs(sliced.value - 0.5) < 0.15
        core = engine.sliced([HasStableModelQuery()])
        estimate = core.estimate_has_stable_model(n=50, seed=3)
        assert estimate.value == 1.0

    def test_sliced_engine_keeps_the_grounder_family(self):
        program, database = _parsed()
        engine = GDatalogEngine(program, database, grounder="perfect")
        sliced = engine.sliced(["hit_a(1)"])
        assert type(sliced.grounder).__name__ == "PerfectGrounder"

    def test_sliced_engines_are_memoized_per_relevant_predicate_set(self, engine):
        first = engine.sliced(["hit_a(1)"])
        # A different atom with the same backward cone reuses the engine
        # (and its cached chase) instead of re-slicing and re-chasing.
        assert engine.sliced(["hit_a(2)"]) is first
        assert engine.sliced(["hit_b(1)"]) is not first

    def test_custom_grounder_family_falls_back_to_self(self):
        from repro.gdatalog.grounders import SimpleGrounder, grounder_name
        from repro.gdatalog.translate import translate_program
        from repro.exceptions import GroundingError

        program, database = _parsed()

        class InstrumentedGrounder(SimpleGrounder):
            pass

        # A SimpleGrounder subclass still resolves to its family...
        sliced = GDatalogEngine(
            program, database, grounder=InstrumentedGrounder(translate_program(program), database)
        ).sliced(["hit_a(1)"])
        assert not sliced.query_slice.is_full

        # ...but a grounder outside both families cannot be rebuilt over the
        # sliced program: grounder_name refuses, and the engine returns self
        # instead of silently switching implementations.
        class AlienGrounder(SimpleGrounder.__mro__[1]):  # the abstract Grounder
            def ground(self, atr_rules, seed=None):  # pragma: no cover - never chased
                return frozenset()

        alien = AlienGrounder(translate_program(program), database)
        with pytest.raises(GroundingError):
            grounder_name(alien)
        engine = GDatalogEngine(program, database, grounder=alien)
        assert engine.sliced(["hit_a(1)"]) is engine


class TestForwardReachability:
    """The affected-cone dual of backward relevance (streaming updates)."""

    def test_closure_follows_bodies_to_heads(self):
        program, _ = _parsed()
        cone = forward_reachable(program, [Predicate("src_b", 1)])
        # src_b feeds the coin, the coin feeds hit_b, and miss_b negates
        # hit_b — negation counts forward exactly as it counts backward.
        assert {p.name for p in cone} == {"src_b", "coin_b", "hit_b", "miss_b"}

    def test_negative_bodies_count(self):
        program, _ = _parsed()
        cone = forward_reachable(program, [Predicate("hit_b", 1)])
        assert {p.name for p in cone} == {"hit_b", "miss_b"}

    def test_unrelated_column_is_not_reached(self):
        program, _ = _parsed()
        cone = forward_reachable(program, [Predicate("src_a", 1)])
        assert {p.name for p in cone} == {"src_a", "coin_a", "hit_a"}

    def test_seeds_are_included_even_when_underivable(self):
        program, _ = _parsed()
        assert forward_reachable(program, [Predicate("nowhere", 1)]) == frozenset(
            [Predicate("nowhere", 1)]
        )

    def test_constraints_contribute_no_edges(self):
        program = parse_gdatalog_program(
            "p(X) :- e(X).\n:- p(X), q(X)."
        )
        cone = forward_reachable(program, [Predicate("e", 1)])
        assert {p.name for p in cone} == {"e", "p"}

    def test_cycles_terminate(self):
        program = parse_gdatalog_program("p(X) :- q(X).\nq(X) :- p(X).\np(X) :- e(X).")
        cone = forward_reachable(program, [Predicate("e", 1)])
        assert {p.name for p in cone} == {"e", "p", "q"}
