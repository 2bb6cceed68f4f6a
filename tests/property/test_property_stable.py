"""Property-based tests for the stable-model engine on random ground programs."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.atoms import Atom, Predicate
from repro.logic.rules import FALSE_ATOM, Rule
from repro.stable.grounding import GroundProgram
from repro.stable.reduct import gelfond_lifschitz_reduct, is_stable_model
from repro.stable.fixpoint import least_model
from repro.stable.solver import SolverConfig, StableModelSolver
from repro.stable.wellfounded import gamma_operator, well_founded_model

# A tiny ground Herbrand base: nullary atoms a..f.
ATOMS = [Atom(Predicate(name, 0), ()) for name in "abcdef"]


@st.composite
def ground_rules(draw) -> Rule:
    head = draw(st.sampled_from(ATOMS))
    body_size = draw(st.integers(0, 2))
    negative_size = draw(st.integers(0, 2))
    positive = tuple(draw(st.sampled_from(ATOMS)) for _ in range(body_size))
    negative = tuple(draw(st.sampled_from(ATOMS)) for _ in range(negative_size))
    return Rule(head, positive, negative)


@st.composite
def ground_constraints(draw) -> Rule:
    positive = tuple(draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=2)))
    negative = tuple(draw(st.lists(st.sampled_from(ATOMS), max_size=1)))
    return Rule(FALSE_ATOM, positive, negative)


@st.composite
def ground_programs(draw) -> GroundProgram:
    rules = draw(st.lists(ground_rules(), min_size=1, max_size=8))
    rules += draw(st.lists(ground_constraints(), max_size=2))
    # Ensure at least one fact so programs are not vacuously empty too often.
    rules.append(Rule(draw(st.sampled_from(ATOMS)), (), ()))
    return GroundProgram(tuple(dict.fromkeys(rules)))


def reference_well_founded_bounds(rules) -> tuple[frozenset[Atom], frozenset[Atom]]:
    """The alternating fixpoint in rounds of two half-steps, stopping only
    after a whole round that changes neither bound."""
    lower: frozenset[Atom] = frozenset()
    upper = gamma_operator(rules, lower)
    while True:
        new_lower = gamma_operator(rules, upper)
        new_upper = gamma_operator(rules, new_lower)
        if new_lower == lower and new_upper == upper:
            return lower, upper
        lower, upper = new_lower, new_upper


@settings(max_examples=120, deadline=None)
@given(ground_programs())
def test_enumerated_models_pass_the_reduct_check(program):
    solver = StableModelSolver()
    for model in solver.enumerate(program):
        assert is_stable_model(program.rules, model)


@settings(max_examples=120, deadline=None)
@given(ground_programs())
def test_enumerated_models_are_distinct_and_incomparable_only_if_different(program):
    solver = StableModelSolver()
    models = solver.all_stable_models(program)
    assert len(models) == len(set(models))
    # Stable models are minimal models of their reduct: no stable model is a
    # strict subset of another stable model (anti-chain property).
    for left in models:
        for right in models:
            if left != right:
                assert not left < right


@settings(max_examples=120, deadline=None)
@given(ground_programs())
def test_well_founded_approximates_every_stable_model(program):
    wf = well_founded_model(program.rules)
    solver = StableModelSolver()
    for model in solver.enumerate(program):
        assert wf.true <= set(model)
        assert not (wf.false & set(model))


@settings(max_examples=120, deadline=None)
@given(ground_programs())
def test_positive_reduct_least_model_is_monotone_in_assumptions(program):
    """Γ is antitone: a larger interpretation removes more rules from the reduct."""
    non_constraints = [r for r in program.rules if not r.is_constraint]
    smaller = least_model(gelfond_lifschitz_reduct(non_constraints, set()))
    larger_assumption = set(ATOMS)
    larger = least_model(gelfond_lifschitz_reduct(non_constraints, larger_assumption))
    assert larger <= smaller


@settings(max_examples=80, deadline=None)
@given(ground_programs())
def test_solver_agrees_with_and_without_well_founded_pruning(program):
    pruned = set(StableModelSolver().enumerate(program))
    unpruned = set(StableModelSolver(SolverConfig(use_well_founded=False)).enumerate(program))
    assert pruned == unpruned


@settings(max_examples=80, deadline=None)
@given(ground_programs())
def test_positive_fragment_has_exactly_one_stable_model(program):
    positive_rules = tuple(
        Rule(r.head, r.positive_body, ()) for r in program.rules if not r.is_constraint
    )
    positive_program = GroundProgram(positive_rules)
    models = StableModelSolver().all_stable_models(positive_program)
    assert len(models) == 1
    assert models[0] == least_model(positive_rules)


@settings(max_examples=150, deadline=None)
@given(ground_programs())
def test_well_founded_model_matches_the_two_half_step_loop(program):
    lower, upper = reference_well_founded_bounds(program.rules)
    base = {a for r in program.rules for a in r.positive_body + r.negative_body}
    base |= {r.head for r in program.rules if not r.is_constraint}
    wf = well_founded_model(program.rules)
    assert wf.true == set(lower)
    assert wf.false == base - upper


@settings(max_examples=120, deadline=None)
@given(ground_programs())
def test_existence_check_agrees_with_enumeration_in_either_order(program):
    expected = set(StableModelSolver(SolverConfig(use_well_founded=False)).enumerate(program))
    exists_first = StableModelSolver()
    assert exists_first.has_stable_model(program) == bool(expected)
    assert set(exists_first.enumerate(program)) == expected
    enumerate_first = StableModelSolver()
    assert set(enumerate_first.enumerate(program)) == expected
    assert enumerate_first.has_stable_model(program) == bool(expected)
    assert StableModelSolver(SolverConfig(memoize=False)).has_stable_model(program) == bool(expected)


@settings(max_examples=120, deadline=None)
@given(ground_programs(), st.data())
def test_models_do_not_depend_on_rule_order(program, data):
    shuffled = GroundProgram(tuple(data.draw(st.permutations(program.rules))))
    assert StableModelSolver().all_stable_models(shuffled) == StableModelSolver().all_stable_models(program)
