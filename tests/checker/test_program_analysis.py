"""ProgramAnalysis strategy pre-selection: cached inputs match the runtime.

The analysis promises bit-identical strategy inputs to what the engine
derives per request (the Hypothesis suite in
``tests/property/test_checker_equivalence.py`` fuzzes this; here the
identities are pinned on named workloads, plus the memoisation and
engine-attachment semantics).
"""

from __future__ import annotations

from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.checker import analyze_program
from repro.gdatalog.engine import GDatalogEngine
from repro.gdatalog.factorize import decompose
from repro.gdatalog.incremental import patch_eligible
from repro.gdatalog.relevance import compute_slice, permanent_seeds
from repro.gdatalog.translate import translate_program
from repro.logic.database import Database
from repro.workloads import (
    dime_quarter_database,
    dime_quarter_program,
    independent_coins_database,
    independent_coins_program,
    paper_example_database,
    resilience_program,
)


class TestStrategyInputs:
    def test_permanent_seeds_match_relevance(self):
        for program in (dime_quarter_program(), resilience_program()):
            analysis = analyze_program(program)
            assert analysis.permanent_seeds == permanent_seeds(program)

    def test_slice_cone_matches_compute_slice(self):
        program = dime_quarter_program()
        database = dime_quarter_database()
        analysis = analyze_program(program, database)
        for atoms in (["somedimetail"], ["quartertail(1, 1)"], []):
            predicted = analysis.slice_cone(atoms)
            actual = compute_slice(program, database, atoms).predicates
            assert predicted == actual

    def test_decomposition_is_bit_identical_to_decompose(self):
        program = independent_coins_program()
        database = independent_coins_database(4)
        translated = translate_program(program)
        config = ChaseConfig(factorize=True)
        analysis = analyze_program(program, database)
        assert analysis.decomposition(translated, database, config) == decompose(
            translated, database, config
        )

    def test_decomposition_is_memoised_per_database_and_config(self):
        program = independent_coins_program()
        database = independent_coins_database(3)
        translated = translate_program(program)
        config = ChaseConfig(factorize=True)
        analysis = analyze_program(program, database)
        first = analysis.decomposition(translated, database, config)
        assert analysis.decomposition(translated, database, config) is first
        # A different database must not reuse the memoised partition.
        other = Database(tuple(database.facts)[:1])
        assert analysis.decomposition(translated, other, config) != first

    def test_delta_patchable_matches_patch_eligible(self):
        program = dime_quarter_program()
        analysis = analyze_program(program)
        for predicate in sorted(program.predicates(), key=str):
            assert analysis.delta_patchable((predicate,)) == patch_eligible(
                program, (predicate,)
            ), str(predicate)

    def test_patchable_predicates_is_the_extensional_patchable_set(self):
        program = dime_quarter_program()
        analysis = analyze_program(program)
        expected = frozenset(
            p for p in program.extensional_predicates() if patch_eligible(program, (p,))
        )
        assert analysis.patchable_predicates == expected


class TestProgramDigest:
    def test_digest_is_insensitive_to_rule_order(self):
        program = dime_quarter_program()
        reordered = type(program)(tuple(reversed(program.rules)), program.registry)
        assert (
            analyze_program(program).program_digest
            == analyze_program(reordered).program_digest
        )

    def test_digest_distinguishes_programs(self):
        assert (
            analyze_program(dime_quarter_program()).program_digest
            != analyze_program(resilience_program()).program_digest
        )


class TestEngineAttachment:
    def test_precomputed_analysis_is_attached(self):
        program = dime_quarter_program()
        database = dime_quarter_database()
        analysis = analyze_program(program, database)
        engine = GDatalogEngine(program, database, analysis=analysis)
        assert engine.analysis is analysis

    def test_equal_but_distinct_program_object_still_attaches(self):
        # The guard compares rule tuples, not object identity: an analysis
        # for an equal program (e.g. re-parsed source) is just as valid.
        database = dime_quarter_database()
        analysis = analyze_program(dime_quarter_program(), database)
        engine = GDatalogEngine(dime_quarter_program(), database, analysis=analysis)
        assert engine.analysis is analysis

    def test_mismatched_analysis_is_rejected(self):
        database = paper_example_database()
        wrong = analyze_program(dime_quarter_program())
        engine = GDatalogEngine(resilience_program(), database, analysis=wrong)
        assert engine.analysis is not wrong
        assert engine.analysis.program.rules == engine.program.rules

    def test_lazy_analysis_is_derived_and_cached(self):
        engine = GDatalogEngine(dime_quarter_program(), dime_quarter_database())
        assert engine.analysis is engine.analysis

    def test_engine_with_analysis_answers_identically(self):
        program = dime_quarter_program()
        database = dime_quarter_database()
        analysis = analyze_program(program, database)
        specs = ["somedimetail", "quartertail(1, 1)", {"type": "has_stable_model"}]
        with_analysis = GDatalogEngine(program, database, analysis=analysis)
        without = GDatalogEngine(program, database)
        assert with_analysis.evaluate_queries(specs) == without.evaluate_queries(specs)
        assert with_analysis.sliced(specs).evaluate_queries(specs) == (
            without.sliced(specs).evaluate_queries(specs)
        )

    def test_factorized_engine_reuses_the_analysis_partition(self):
        program = independent_coins_program()
        database = independent_coins_database(3)
        analysis = analyze_program(program, database)
        config = ChaseConfig(factorize=True)
        engine = GDatalogEngine(program, database, chase_config=config, analysis=analysis)
        space = engine.output_space()
        cached = analysis.decomposition(engine.translated, database, config)
        assert cached is not None and cached.generative_count >= 2
        flat = GDatalogEngine(program, database).output_space()
        heads = "heads(1)"
        from repro.ppdl.queries import query_from_spec

        query = query_from_spec(heads)
        assert query.evaluate(space) == query.evaluate(flat)
