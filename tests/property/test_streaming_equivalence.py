"""Property tests: delta-maintained engines are bit-identical to rebuilds.

Random stratified GDatalog¬[Δ] programs (half with integrity constraints)
receive random sequences of single-fact EDB inserts and retracts, applied
through :meth:`GDatalogEngine.updated` — the streaming-evidence path that
picks a ``patch``/``component``/``rebuild`` maintenance mode per delta.
After **every** delta the maintained engine must agree with a from-scratch
engine over the post-delta database:

* exact marginals and stable-model mass are equal as floats (``==``, no
  tolerance — the workload's flips are dyadic and both engines accumulate
  with ``fsum``);
* the flat output spaces are structurally identical (same AtR sets, same
  groundings, same path probabilities in the same canonical order);
* seeded Monte-Carlo estimates coincide exactly (the maintained grounder's
  planted root state is the fresh root state, so the sampler draws the
  same trajectories);
* the identities hold with ``factorize=True`` and composed with
  query-relevant slicing.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.engine import GDatalogEngine
from repro.logic.atoms import fact
from repro.logic.deltas import DbDelta
from repro.workloads import random_database, random_stratified_program

#: Single EDB facts over the random-workload schema (``e/1`` and ``r/2``).
_FACTS = st.one_of(
    st.integers(min_value=1, max_value=4).map(lambda i: fact("e", i)),
    st.tuples(
        st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
    ).map(lambda pair: fact("r", *pair)),
)

#: A stream: up to four single-fact deltas, each an insert or a retract.
_STREAMS = st.lists(st.tuples(st.booleans(), _FACTS), min_size=1, max_size=4)

_PROGRAM_SEEDS = st.integers(min_value=0, max_value=12)


def _program(seed: int):
    return random_stratified_program(
        seed=seed, constraint_probability=0.5 if seed % 2 else 0.0
    )


def _query_specs(program) -> list:
    heads = sorted({r.head.predicate.name for r in program.rules if not r.is_constraint})
    return [f"{name}(1)" for name in heads] + [{"type": "has_stable_model"}]


def _flat_fingerprint(space):
    return (
        [(o.atr_rules, o.grounding, o.probability) for o in space.outcomes],
        space.error_probability,
    )


@settings(max_examples=25, deadline=None)
@given(seed=_PROGRAM_SEEDS, stream=_STREAMS)
def test_maintained_marginals_match_rebuild(seed, stream):
    program = _program(seed)
    database = random_database(seed=seed)
    engine = GDatalogEngine(program, database)
    engine.output_space()  # chase once; the stream maintains from here
    specs = _query_specs(program)
    for is_insert, atom_ in stream:
        delta = DbDelta.of(inserts=[atom_]) if is_insert else DbDelta.of(retracts=[atom_])
        engine = engine.updated(delta)
        database = delta.apply(database)
        fresh = GDatalogEngine(program, database)
        assert engine.evaluate_queries(specs) == fresh.evaluate_queries(specs)
        assert _flat_fingerprint(engine.output_space()) == _flat_fingerprint(
            fresh.output_space()
        )


@settings(max_examples=15, deadline=None)
@given(seed=_PROGRAM_SEEDS, stream=_STREAMS)
def test_maintained_engines_sample_identically_when_seeded(seed, stream):
    program = _program(seed)
    database = random_database(seed=seed)
    engine = GDatalogEngine(program, database)
    engine.output_space()
    for is_insert, atom_ in stream:
        delta = DbDelta.of(inserts=[atom_]) if is_insert else DbDelta.of(retracts=[atom_])
        engine = engine.updated(delta)
        database = delta.apply(database)
    fresh = GDatalogEngine(program, database)
    estimate = engine.estimate_has_stable_model(n=64, seed=seed + 1)
    reference = fresh.estimate_has_stable_model(n=64, seed=seed + 1)
    assert estimate.value == reference.value


@settings(max_examples=15, deadline=None)
@given(seed=_PROGRAM_SEEDS, stream=_STREAMS)
def test_maintained_matches_rebuild_under_factorization(seed, stream):
    program = _program(seed)
    database = random_database(seed=seed)
    config = ChaseConfig(factorize=True)
    engine = GDatalogEngine(program, database, chase_config=config)
    engine.output_space()
    specs = _query_specs(program)
    for is_insert, atom_ in stream:
        delta = DbDelta.of(inserts=[atom_]) if is_insert else DbDelta.of(retracts=[atom_])
        engine = engine.updated(delta)
        database = delta.apply(database)
        fresh = GDatalogEngine(program, database, chase_config=config)
        assert engine.evaluate_queries(specs) == fresh.evaluate_queries(specs)


@settings(max_examples=15, deadline=None)
@given(seed=_PROGRAM_SEEDS, stream=_STREAMS)
def test_maintained_engines_compose_with_slicing(seed, stream):
    program = _program(seed)
    database = random_database(seed=seed)
    engine = GDatalogEngine(program, database)
    engine.output_space()
    specs = _query_specs(program)
    for is_insert, atom_ in stream:
        delta = DbDelta.of(inserts=[atom_]) if is_insert else DbDelta.of(retracts=[atom_])
        engine = engine.updated(delta)
        database = delta.apply(database)
    fresh = GDatalogEngine(program, database)
    assert engine.sliced(specs).evaluate_queries(specs) == fresh.evaluate_queries(specs)
    assert engine.sliced(specs).evaluate_queries(specs) == engine.evaluate_queries(specs)
