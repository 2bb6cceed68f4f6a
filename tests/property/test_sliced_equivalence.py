"""Property tests: sliced inference is bit-identical to unsliced inference.

Random stratified programs (with negation and, for half the seeds,
integrity constraints) and random databases are queried with and without
query-relevant slicing; every answer must agree **exactly** (``==``, no
tolerance) — the workload's flips are dyadic, so the dropped choices'
branch masses sum to exactly 1 and the fsum-accumulated query masses are
equal as floats, not merely close.  The same identity must hold composed
with ``factorize=True`` and under the perfect grounder.
"""

from __future__ import annotations

import pytest

from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.engine import GDatalogEngine
from repro.ppdl.queries import AtomQuery
from repro.workloads import (
    random_database,
    random_positive_program,
    random_stratified_program,
    wide_database,
    wide_program,
    wide_query_atoms,
)

SEEDS = range(6)


def _query_specs(program):
    """A batch touching every source head predicate plus stable-model existence."""
    heads = sorted({r.head.predicate.name for r in program.rules if not r.is_constraint})
    specs: list = [f"{name}(1)" for name in heads]
    specs.append({"type": "has_stable_model"})
    specs.append("unreachable_predicate(1)")
    return specs


@pytest.mark.parametrize("seed", SEEDS)
def test_sliced_matches_unsliced_on_stratified_programs(seed):
    constraint_probability = 0.5 if seed % 2 else 0.0
    program = random_stratified_program(
        seed=seed, constraint_probability=constraint_probability
    )
    database = random_database(seed=seed)
    engine = GDatalogEngine(program, database)
    specs = _query_specs(program)
    assert engine.sliced(specs).evaluate_queries(specs) == engine.evaluate_queries(specs)


@pytest.mark.parametrize("seed", SEEDS)
def test_sliced_marginals_match_per_query(seed):
    program = random_stratified_program(seed=seed)
    database = random_database(seed=seed)
    engine = GDatalogEngine(program, database)
    for spec in _query_specs(program):
        if isinstance(spec, dict):
            assert engine.sliced([spec]).probability_has_stable_model() == (
                engine.probability_has_stable_model()
            )
        else:
            for mode in ("brave", "cautious"):
                sliced = engine.sliced([AtomQuery.of(spec, mode)])
                assert sliced.marginal(spec, mode=mode) == engine.marginal(spec, mode=mode)


@pytest.mark.parametrize("seed", SEEDS)
def test_sliced_matches_unsliced_on_positive_programs(seed):
    program = random_positive_program(seed=seed)
    database = random_database(seed=seed)
    engine = GDatalogEngine(program, database)
    specs = _query_specs(program)
    assert engine.sliced(specs).evaluate_queries(specs) == engine.evaluate_queries(specs)


@pytest.mark.parametrize("seed", range(3))
def test_sliced_composes_with_factorization(seed):
    program = random_stratified_program(seed=seed)
    database = random_database(seed=seed)
    flat = GDatalogEngine(program, database)
    factorized = GDatalogEngine(program, database, chase_config=ChaseConfig(factorize=True))
    specs = _query_specs(program)
    assert factorized.sliced(specs).evaluate_queries(specs) == flat.evaluate_queries(specs)


@pytest.mark.parametrize("seed", range(3))
def test_sliced_matches_under_the_perfect_grounder(seed):
    program = random_stratified_program(seed=seed, constraint_probability=0.4)
    database = random_database(seed=seed)
    engine = GDatalogEngine(program, database, grounder="perfect")
    specs = _query_specs(program)
    assert engine.sliced(specs).evaluate_queries(specs) == engine.evaluate_queries(specs)


def test_wide_program_slices_compose_with_factorization():
    # Slice first, then decompose the slice: with several rows per column
    # the sliced sub-program still factorizes into per-row components.
    program = wide_program(6, depth=2)
    database = wide_database(6, rows=2)
    flat = GDatalogEngine(program, database)
    factorized = GDatalogEngine(program, database, chase_config=ChaseConfig(factorize=True))
    queries = wide_query_atoms(3, depth=2, rows=2) + [{"type": "has_stable_model"}]
    assert factorized.sliced(queries).evaluate_queries(queries) == flat.evaluate_queries(queries)


def test_unreachable_query_answers_without_chasing():
    program = random_stratified_program(seed=1)
    database = random_database(seed=1)
    engine = GDatalogEngine(program, database)
    sliced = engine.sliced(["unreachable_predicate(7)"])
    assert sliced.query_slice is not None and sliced.query_slice.is_empty
    assert sliced.marginal("unreachable_predicate(7)") == 0.0
    assert len(sliced.output_space()) == 1
