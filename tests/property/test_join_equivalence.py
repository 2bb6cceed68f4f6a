"""Property tests: the indexed join engine is substitution-set equivalent to
the naive reference matchers, and groundings routed through it are
bit-identical to naive-matcher groundings.

The naive :func:`~repro.logic.unify.match_conjunction` /
:func:`~repro.logic.unify.match_conjunction_seminaive` stay in the library
exactly to serve as the oracle here.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gdatalog.engine import GDatalogEngine
from repro.logic.atoms import Atom, Predicate
from repro.logic.join import (
    ArgIndex,
    iter_join,
    iter_join_seminaive,
    match_conjunction_indexed,
)
from repro.logic.program import DatalogProgram
from repro.logic.rules import rule
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.logic.unify import FactIndex, match_conjunction, match_conjunction_seminaive
from repro.stable.grounding import ground_program, naive_ground_program
from repro.stable.stratified import perfect_model, perfect_model_ground
from repro.workloads import (
    random_database,
    random_stratified_program,
    selective_join_database,
    selective_join_program,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_PREDICATES = (Predicate("p", 1), Predicate("q", 2), Predicate("r", 2), Predicate("s", 3))
_CONSTANTS = tuple(Constant(v) for v in (1, 2, 3, "a", "b"))
_VARIABLES = tuple(Variable(n) for n in ("X", "Y", "Z", "W"))


@st.composite
def ground_atoms(draw) -> Atom:
    predicate = draw(st.sampled_from(_PREDICATES))
    args = tuple(draw(st.sampled_from(_CONSTANTS)) for _ in range(predicate.arity))
    return Atom(predicate, args)


@st.composite
def pattern_atoms(draw) -> Atom:
    """Patterns mixing constants (bound arguments) and repeatable variables."""
    predicate = draw(st.sampled_from(_PREDICATES))
    args = tuple(
        draw(st.sampled_from(_CONSTANTS + _VARIABLES)) for _ in range(predicate.arity)
    )
    return Atom(predicate, args)


fact_sets = st.lists(ground_atoms(), min_size=0, max_size=30).map(tuple)
conjunctions = st.lists(pattern_atoms(), min_size=1, max_size=3).map(tuple)
bindings = st.dictionaries(
    st.sampled_from(_VARIABLES), st.sampled_from(_CONSTANTS), max_size=2
)


def _idempotent(binding) -> bool:
    """No bound variable is the value of another pair (``{Y: Y}`` is allowed)."""
    return all(
        not isinstance(term, Variable) or term == var or term not in binding
        for var, term in binding.items()
    )


#: Initial bindings whose values may be variables too: identity pairs
#: (``{Y: Y}``, which bind nothing) and links to unbound variables.
term_bindings = st.dictionaries(
    st.sampled_from(_VARIABLES), st.sampled_from(_CONSTANTS + _VARIABLES), max_size=2
).filter(_idempotent)


@st.composite
def datalog_rules(draw):
    """Safe random Datalog rules: every head variable occurs in the body."""
    body = draw(conjunctions)
    body_variables = sorted(
        {t for a in body for t in a.args if isinstance(t, Variable)}, key=str
    )
    head_predicate = draw(st.sampled_from(_PREDICATES))
    args = tuple(
        draw(st.sampled_from(tuple(body_variables) + _CONSTANTS))
        if body_variables
        else draw(st.sampled_from(_CONSTANTS))
        for _ in range(head_predicate.arity)
    )
    return rule(Atom(head_predicate, args), body)


def _sub_set(substitutions):
    return {frozenset(s.items()) for s in substitutions}


def _dict_set(mappings):
    return {frozenset(m.items()) for m in mappings}


# ---------------------------------------------------------------------------
# Matcher equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(conjunctions, fact_sets)
def test_indexed_join_equals_naive_match_conjunction(patterns, facts):
    naive = _sub_set(match_conjunction(patterns, FactIndex(facts)))
    indexed = _sub_set(match_conjunction_indexed(patterns, ArgIndex(facts)))
    assert naive == indexed
    fast = _dict_set(iter_join(patterns, ArgIndex(facts)))
    assert naive == fast


@settings(max_examples=120, deadline=None)
@given(conjunctions, fact_sets, st.data())
def test_indexed_seminaive_equals_naive_seminaive(patterns, facts, data):
    all_facts = FactIndex(facts)
    delta_members = data.draw(st.lists(st.sampled_from(facts), unique=True)) if facts else []
    delta = FactIndex(delta_members)
    naive = _sub_set(match_conjunction_seminaive(patterns, all_facts, delta))
    fast = _dict_set(iter_join_seminaive(patterns, ArgIndex(facts), delta))
    assert naive == fast


@settings(max_examples=80, deadline=None)
@given(conjunctions, fact_sets, term_bindings)
@example(  # an identity binding is no binding: q(1, Y) under {Y: Y} matches q(1, 1)
    patterns=(Atom(_PREDICATES[1], (_CONSTANTS[0], _VARIABLES[1])),),
    facts=(Atom(_PREDICATES[1], (_CONSTANTS[0], _CONSTANTS[0])),),
    binding={_VARIABLES[1]: _VARIABLES[1]},
)
def test_indexed_join_respects_initial_bindings(patterns, facts, binding):
    naive = _sub_set(match_conjunction(patterns, FactIndex(facts), Substitution.of(binding)))
    fast = _dict_set(iter_join(patterns, ArgIndex(facts), binding))
    assert naive == fast


@settings(max_examples=60, deadline=None)
@given(conjunctions, fact_sets, st.data())
def test_seminaive_is_the_differential_of_the_full_join(patterns, facts, data):
    """full(facts) − full(facts − delta) == seminaive(facts, delta)."""
    delta_members = data.draw(st.lists(st.sampled_from(facts), unique=True)) if facts else []
    delta = FactIndex(delta_members)
    remainder = [f for f in facts if f not in delta]
    full = _dict_set(iter_join(patterns, ArgIndex(facts)))
    old = _dict_set(iter_join(patterns, ArgIndex(remainder)))
    differential = _dict_set(iter_join_seminaive(patterns, ArgIndex(facts), delta))
    assert differential == full - old


@settings(max_examples=80, deadline=None)
@given(conjunctions, fact_sets, bindings, st.data())
def test_indexed_seminaive_respects_initial_bindings(patterns, facts, binding, data):
    delta_members = data.draw(st.lists(st.sampled_from(facts), unique=True)) if facts else []
    delta = FactIndex(delta_members)
    naive = _sub_set(
        match_conjunction_seminaive(patterns, FactIndex(facts), delta, Substitution.of(binding))
    )
    fast = _dict_set(iter_join_seminaive(patterns, ArgIndex(facts), delta, binding))
    assert naive == fast


@settings(max_examples=80, deadline=None)
@given(conjunctions, fact_sets, st.lists(ground_atoms(), min_size=1, max_size=4).map(tuple))
@example(  # q(1, X) probes the parent's bucket the child's q(1, 3) lands in
    patterns=(Atom(_PREDICATES[1], (_CONSTANTS[0], _VARIABLES[0])),),
    facts=(Atom(_PREDICATES[1], _CONSTANTS[:2]),),
    extra=(Atom(_PREDICATES[1], (_CONSTANTS[0], _CONSTANTS[2])),),
)
def test_join_over_a_copy_equals_join_over_a_rebuild(patterns, facts, extra):
    """Joins over an extended copy equal joins over an independent rebuild,
    and the extension never leaks into the parent — including the argument
    indexes the parent built lazily before it was copied."""
    parent = ArgIndex(facts)
    before = _dict_set(iter_join(patterns, parent))  # builds the probed positions
    child = parent.copy()
    for added in extra:
        child.add(added)
    assert _dict_set(iter_join(patterns, child)) == _dict_set(
        iter_join(patterns, ArgIndex(facts + extra))
    )
    assert _dict_set(iter_join(patterns, parent)) == before
    assert before == _dict_set(iter_join(patterns, ArgIndex(facts)))


_KNOWN = Atom(_PREDICATES[0], (Constant(1),))
_NEVER_SEEN = Atom(Predicate("never_seen", 1), (Variable("X"),))


@pytest.mark.parametrize(
    "patterns, facts",
    [
        pytest.param((_NEVER_SEEN,), (_KNOWN,), id="unknown-predicate"),
        pytest.param(
            (Atom(_PREDICATES[0], (Variable("X"),)), _NEVER_SEEN), (_KNOWN,), id="unknown-after-match"
        ),
        pytest.param(
            (Atom(_PREDICATES[0], (Constant("unseen-constant"),)),), (_KNOWN,), id="unseen-constant"
        ),
        pytest.param((Atom(_PREDICATES[0], (Variable("X"),)), _NEVER_SEEN), (), id="empty-index"),
    ],
)
def test_empty_extents_yield_no_matches(patterns, facts):
    """Predicates without facts and constants no fact mentions match nothing,
    in the full join and in its seminaive differential alike."""
    assert list(match_conjunction(patterns, FactIndex(facts))) == []
    assert list(iter_join(patterns, ArgIndex(facts))) == []
    assert list(iter_join_seminaive(patterns, ArgIndex(facts), FactIndex(facts))) == []


@settings(max_examples=60, deadline=None)
@given(conjunctions, fact_sets)
def test_indexed_enumeration_is_deterministic(patterns, facts):
    index = ArgIndex(facts)
    first = [dict(m) for m in iter_join(patterns, index)]
    second = [dict(m) for m in iter_join(patterns, index)]
    assert first == second


# ---------------------------------------------------------------------------
# Grounding-level equivalence (bit-identical, order included)
# ---------------------------------------------------------------------------


def test_ground_program_bit_identical_to_naive_reference():
    """Production grounding (join engine) vs. the library's naive oracle
    (:func:`naive_ground_program`, the same reference the E13 bench gates on)."""
    program = selective_join_program()
    database = selective_join_database(60, seed=3)
    assert ground_program(program, database).rules == naive_ground_program(program, database).rules


@settings(max_examples=40, deadline=None)
@given(st.lists(datalog_rules(), min_size=1, max_size=4), fact_sets)
def test_random_program_groundings_bit_identical(rules, facts):
    program = DatalogProgram(rules)
    assert ground_program(program, facts).rules == naive_ground_program(program, facts).rules


#: Negated only, never derived: rules negating it stay stratified.
_NEGATED = Predicate("n", 1)


@st.composite
def stratified_rules(draw):
    """Safe random rules with negation on the extensional ``n/1`` only."""
    base = draw(datalog_rules())
    body_variables = sorted(
        {t for a in base.positive_body for t in a.args if isinstance(t, Variable)}, key=str
    )
    negated = [
        Atom(_NEGATED, (draw(st.sampled_from(tuple(body_variables) or _CONSTANTS)),))
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    return rule(base.head, base.positive_body, negated)


negated_facts = st.lists(
    st.sampled_from(_CONSTANTS).map(lambda c: Atom(_NEGATED, (c,))), min_size=1, max_size=4
).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.lists(stratified_rules(), min_size=1, max_size=4), fact_sets, negated_facts)
@example(  # p(X) :- q(X, Y), not n(X).  — blocked for X = 1 only
    rules=[
        rule(
            Atom(_PREDICATES[0], (_VARIABLES[0],)),
            [Atom(_PREDICATES[1], _VARIABLES[:2])],
            [Atom(_NEGATED, (_VARIABLES[0],))],
        )
    ],
    facts=(Atom(_PREDICATES[1], _CONSTANTS[:2]), Atom(_PREDICATES[1], _CONSTANTS[1:3])),
    negated=(Atom(_NEGATED, (_CONSTANTS[0],)),),
)
def test_perfect_model_equals_the_naive_ground_oracle(rules, facts, negated):
    """Production stratum saturation (join engine) vs. the perfect model of
    the naive-matcher grounding."""
    program = DatalogProgram(rules)
    database = facts + negated
    expected = perfect_model_ground(naive_ground_program(program, database))
    assert perfect_model(program, database) == expected


@pytest.mark.parametrize("nodes, seed", [(40, 7), (80, 1), (120, 2)])
def test_selective_join_perfect_model_equals_naive_oracle(nodes, seed):
    program = selective_join_program()
    database = selective_join_database(nodes, seed=seed)
    expected = perfect_model_ground(naive_ground_program(program, database))
    assert perfect_model(program, database) == expected


def test_random_program_output_spaces_survive_the_join_engine():
    """End-to-end: chase + solving over random stratified programs agrees
    across grounder families (both routed through the join engine).

    Simple and perfect groundings legitimately differ as rule sets (the
    perfect grounder prunes instances via negation), but per Theorem 5.3
    the visible stable models and their probability masses coincide.
    """
    for seed in range(4):
        program = random_stratified_program(seed=seed, rule_count=3)
        database = random_database(seed=seed)
        simple = GDatalogEngine(program, database, grounder="simple").output_space()
        perfect = GDatalogEngine(program, database, grounder="perfect").output_space()

        def mass_by_models(space):
            masses: dict[frozenset, float] = {}
            for outcome in space:
                key = outcome.visible_stable_models()
                masses[key] = masses.get(key, 0.0) + outcome.probability
            return {k: round(v, 12) for k, v in masses.items()}

        assert mass_by_models(simple) == mass_by_models(perfect)
