"""Property tests: the checker's predictions are bit-identical to the runtime.

:class:`ProgramAnalysis` pre-selects execution strategies — the
factorization partition, the query-relevant slice cone, delta
patchability, stratification — that the engine otherwise derives per
request.  These suites fuzz random (stratified and deliberately broken)
programs and assert the predictions equal the runtime derivations
**exactly**: same frozensets, same component partition (``==`` on the
frozen dataclasses), same verdicts.  A divergence here means a
pre-selected strategy could silently change answers.

Runs without NumPy (the CI no-numpy job includes it) — everything here
is pure-Python engine code.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.exceptions import GroundingError, StratificationError, ValidationError
from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.checker import analyze_program, check_source
from repro.gdatalog.engine import GDatalogEngine
from repro.gdatalog.factorize import decompose
from repro.gdatalog.incremental import patch_eligible
from repro.gdatalog.relevance import compute_slice, permanent_seeds
from repro.gdatalog.syntax import GDatalogProgram, GDatalogRule, HeadAtom
from repro.gdatalog.translate import translate_program
from repro.logic.atoms import Atom, Predicate
from repro.logic.terms import Constant
from repro.workloads import random_database, random_stratified_program

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
CHASE_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def _program(seed: int, constraints: bool) -> GDatalogProgram:
    return random_stratified_program(
        seed=seed, constraint_probability=0.5 if constraints else 0.0
    )


def _with_negative_cycle(program: GDatalogProgram) -> GDatalogProgram:
    """The program plus an even negative loop (legal, but not stratified)."""
    odd1, odd2 = Predicate("odd1", 0), Predicate("odd2", 0)
    extra = (
        GDatalogRule(HeadAtom(odd1, ()), (), (Atom(odd2, ()),)),
        GDatalogRule(HeadAtom(odd2, ()), (), (Atom(odd1, ()),)),
    )
    return GDatalogProgram(tuple(program.rules) + extra, program.registry)


def _head_atoms(program: GDatalogProgram) -> list[Atom]:
    """One ground query atom per head predicate (matching its arity)."""
    heads = sorted(
        {r.head.predicate for r in program.rules if not r.is_constraint}, key=str
    )
    return [Atom(p, tuple(Constant(1) for _ in range(p.arity))) for p in heads]


class TestSliceCone:
    @given(seed=seeds, constraints=st.booleans(), keep=st.integers(0, 255))
    @SETTINGS
    def test_slice_cone_equals_compute_slice_predicates(self, seed, constraints, keep):
        program = _program(seed, constraints)
        database = random_database(seed=seed)
        analysis = analyze_program(program, database)
        atoms = [a for i, a in enumerate(_head_atoms(program)) if keep & (1 << i)]
        predicted = analysis.slice_cone(atoms)
        actual = compute_slice(program, database, atoms).predicates
        assert predicted == actual

    @given(seed=seeds, constraints=st.booleans())
    @SETTINGS
    def test_empty_query_cone_is_the_model_killing_core(self, seed, constraints):
        program = _program(seed, constraints)
        database = random_database(seed=seed)
        analysis = analyze_program(program, database)
        assert analysis.slice_cone([]) == compute_slice(program, database, []).predicates

    @given(seed=seeds, constraints=st.booleans())
    @SETTINGS
    def test_permanent_seeds_match_relevance(self, seed, constraints):
        program = _program(seed, constraints)
        assert analyze_program(program).permanent_seeds == permanent_seeds(program)


class TestFactorizationPartition:
    @given(seed=seeds, constraints=st.booleans())
    @SETTINGS
    def test_decomposition_equals_decompose(self, seed, constraints):
        program = _program(seed, constraints)
        database = random_database(seed=seed)
        translated = translate_program(program)
        config = ChaseConfig(factorize=True)
        analysis = analyze_program(program, database)
        predicted = analysis.decomposition(translated, database, config)
        actual = decompose(translated, database, config)
        # Component/Decomposition are frozen dataclasses: == is the full
        # structural (bit-identical) partition comparison.
        assert predicted == actual
        # The memo must be stable across repeated lookups.
        assert analysis.decomposition(translated, database, config) is predicted


class TestStratification:
    @given(seed=seeds, break_it=st.booleans())
    @SETTINGS
    def test_stratified_iff_stratification_succeeds(self, seed, break_it):
        program = _program(seed, constraints=False)
        if break_it:
            program = _with_negative_cycle(program)
        analysis = analyze_program(program)
        try:
            program.stratification()
            runtime_stratified = True
        except StratificationError:
            runtime_stratified = False
        assert analysis.stratified == runtime_stratified
        if not runtime_stratified:
            codes = {d.code for d in analysis.diagnostics}
            assert "GDL010" in codes
            assert analysis.negative_cycle is not None


class TestDeltaPatchability:
    @given(seed=seeds, constraints=st.booleans(), keep=st.integers(0, 255))
    @SETTINGS
    def test_delta_patchable_equals_patch_eligible(self, seed, constraints, keep):
        program = _program(seed, constraints)
        analysis = analyze_program(program)
        predicates = sorted(program.predicates(), key=str)
        for predicate in predicates:
            assert analysis.delta_patchable((predicate,)) == patch_eligible(
                program, (predicate,)
            ), str(predicate)
        subset = [p for i, p in enumerate(predicates) if keep & (1 << i)]
        if subset:
            assert analysis.delta_patchable(subset) == patch_eligible(program, subset)


class TestCheckCleanImpliesRunnable:
    @given(seed=seeds, constraints=st.booleans())
    @CHASE_SETTINGS
    def test_clean_programs_chase_without_validation_errors(self, seed, constraints):
        program = _program(seed, constraints)
        database = random_database(seed=seed)
        source = "\n".join(str(rule) for rule in program.rules)
        database_source = "\n".join(f"{fact}." for fact in sorted(database.facts, key=str))
        analysis = check_source(source, database_source)
        assert analysis.ok  # the generators only build well-formed programs
        engine = GDatalogEngine(analysis.program, analysis.database)
        try:
            engine.probability_has_stable_model()
        except (GroundingError, ValidationError) as error:  # pragma: no cover
            pytest.fail(f"check-clean program failed to chase: {error}")

    @given(seed=seeds)
    @CHASE_SETTINGS
    def test_checked_source_round_trips_the_program(self, seed):
        program = _program(seed, constraints=True)
        source = "\n".join(str(rule) for rule in program.rules)
        analysis = check_source(source)
        assert analysis.program.rules == program.rules
        assert analysis.program_digest == analyze_program(program).program_digest


class TestServicePreselection:
    @given(seed=seeds)
    @CHASE_SETTINGS
    def test_validating_service_is_bit_identical_to_direct_engine(self, seed):
        from repro.runtime.service import InferenceService

        program = _program(seed, constraints=bool(seed % 2))
        database = random_database(seed=seed)
        source = "\n".join(str(rule) for rule in program.rules)
        database_source = "\n".join(f"{fact}." for fact in sorted(database.facts, key=str))
        specs = [str(a) for a in _head_atoms(program)] + [{"type": "has_stable_model"}]
        expected = GDatalogEngine(program, database).evaluate_queries(specs)
        validating = InferenceService(validate=True)
        assert validating.evaluate(source, database_source, specs) == expected
        sliced = InferenceService(validate=True, slice=True)
        assert sliced.evaluate(source, database_source, specs) == expected


#: Delta atoms: extensional facts, facts of derived predicates (GDL021 with
#: a fact span), an arity clash (GDL020), an unknown predicate, a quoted
#: string, and a float ``str`` writes with an exponent (1e-05).
_DELTA_POOL = (
    "e(1)", "e(2)", "e(4)", "r(1, 2)", "r(3, 3)", "layer0(1)", "layer1(2)",
    "e(1, 2)", "zz(1)", "e(0.5)", 'e("a b")', "e(0.00001)",
)


class TestPostDeltaAnalysis:
    @given(seed=seeds, constraints=st.booleans(), break_it=st.booleans(), data=st.data())
    @SETTINGS
    def test_update_stores_the_analysis_a_fresh_check_gives(
        self, seed, constraints, break_it, data
    ):
        """Two deltas in a row: the second update starts from the analysis
        the first one derived."""
        from unittest import mock

        from repro.runtime import service as service_module
        from repro.runtime.service import InferenceService

        program = _program(seed, constraints)
        if break_it:
            program = _with_negative_cycle(program)
        source = "\n".join(str(rule) for rule in program.rules)
        facts = data.draw(st.permutations(sorted(random_database(seed=seed).facts, key=str)))
        database_source = "\n".join(f"{fact}." for fact in facts)
        present = [str(fact) for fact in facts]
        service = InferenceService(validate=True)
        refuse = AssertionError("the post-delta text was checked again")
        for _ in range(2):
            inserts = data.draw(st.lists(st.sampled_from(_DELTA_POOL), unique=True, max_size=4))
            candidates = present + list(_DELTA_POOL)
            retracts = [
                atom
                for atom in data.draw(
                    st.lists(st.sampled_from(candidates), unique=True, max_size=4)
                )
                if atom not in inserts
            ]
            delta = {"insert": inserts, "retract": retracts}
            result = service.update(source, database_source, delta)
            with mock.patch.object(service_module, "check_source", side_effect=refuse):
                stored = service.check(source, result.database_source)
            fresh = check_source(source, result.database_source)
            assert stored.diagnostics == fresh.diagnostics
            assert stored.database == fresh.database
            assert stored.program_digest == fresh.program_digest
            assert stored.strategy_summary() == fresh.strategy_summary()
            if not stored.ok:  # an error (e.g. an arity clash): the next update is refused
                break
            database_source = result.database_source
            present = [str(fact) for fact in stored.database.facts]
