"""Unit tests for the independent-component decomposition and the product space."""

from __future__ import annotations

import pytest

from repro.exceptions import InferenceError
from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.dependency import ground_atom_components
from repro.gdatalog.engine import GDatalogEngine
from repro.gdatalog.factorize import ProductSpace, decompose, factorized_space
from repro.gdatalog.probability_space import OutputSpace
from repro.logic.atoms import fact
from repro.logic.parser import parse_atom, parse_datalog_program
from repro.workloads import (
    coin_program,
    dime_quarter_database,
    dime_quarter_program,
    independent_coins_database,
    independent_coins_program,
)

CONFIG = ChaseConfig()


def _rule(text: str):
    return parse_datalog_program(text).rules[0]


def coins_engine(n: int, factorize: bool = True, **config_overrides) -> GDatalogEngine:
    config = ChaseConfig(factorize=factorize, **config_overrides)
    return GDatalogEngine(
        independent_coins_program(), independent_coins_database(n), chase_config=config
    )


class TestGroundAtomComponents:
    def test_rule_cooccurrence_connects_atoms(self):
        rules = [_rule("b(1) :- a(1)."), _rule("c(2) :- b(2).")]
        components = ground_atom_components(rules)
        assert len(components) == 2
        assert frozenset({parse_atom("a(1)"), parse_atom("b(1)")}) in components

    def test_constraint_bottom_head_does_not_glue_components(self):
        # Both constraints share the ⊥ head; their bodies must stay separate.
        rules = [_rule(":- a(1)."), _rule(":- b(2).")]
        components = ground_atom_components(rules)
        assert len(components) == 2

    def test_links_and_extra_atoms(self):
        components = ground_atom_components(
            [],
            links=[(parse_atom("a(1)"), parse_atom("b(1)"))],
            extra_atoms=[fact("orphan", 7)],
        )
        assert len(components) == 2
        assert frozenset({fact("orphan", 7)}) in components


class TestDecompose:
    def test_independent_coins_split_per_coin(self):
        engine = coins_engine(5)
        decomposition = decompose(engine.translated, engine.database, CONFIG)
        assert decomposition is not None
        assert decomposition.generative_count == 5
        for component in decomposition.components:
            assert len(component.facts) == 1

    def test_connected_program_returns_none(self):
        # somedimetail couples every dime with every quarter: one component.
        engine = GDatalogEngine(dime_quarter_program(), dime_quarter_database(2, 1))
        assert decompose(engine.translated, engine.database, CONFIG) is None

    def test_empty_body_rules_fall_back(self):
        # Π_coin's flip has an empty body: its head would re-fire in every
        # component's sub-chase, so factorization must decline.
        engine = GDatalogEngine(coin_program())
        assert decompose(engine.translated, engine.database, CONFIG) is None

    def test_unmatched_facts_collect_into_one_deterministic_base(self):
        program = independent_coins_program()
        database = independent_coins_database(2).with_facts([fact("spare", 1), fact("spare", 2)])
        engine = GDatalogEngine(program, database)
        decomposition = decompose(engine.translated, engine.database, CONFIG)
        assert decomposition is not None
        assert decomposition.generative_count == 2
        base = [c for c in decomposition.components if not c.generative]
        assert len(base) == 1 and len(base[0].facts) == 2


class TestProductSpace:
    def test_lazy_iteration_matches_materialized_space(self):
        engine = coins_engine(3)
        space = engine.output_space()
        assert isinstance(space, ProductSpace)
        flat = space.materialize()
        assert isinstance(flat, OutputSpace)
        assert len(flat) == len(space) == 8
        assert flat.finite_probability == pytest.approx(1.0)

    def test_marginal_routes_to_one_component(self):
        space = coins_engine(6).output_space()
        assert space.marginal(parse_atom("heads(3)")) == 0.5
        assert space.marginal(parse_atom("lucky(3)"), mode="cautious") == 0.5
        assert space.marginal(parse_atom("heads(99)")) == 0.0  # derivable nowhere

    def test_marginal_rejects_bad_mode(self):
        with pytest.raises(InferenceError):
            coins_engine(2).output_space().marginal(parse_atom("heads(1)"), mode="maybe")

    def test_events_combine_component_events(self):
        engine = coins_engine(2)
        product = engine.output_space()
        sequential = coins_engine(2, factorize=False).output_space()
        mine = product.distribution_over_model_sets()
        theirs = sequential.distribution_over_model_sets()
        assert set(mine) == set(theirs)
        for model_set, mass in theirs.items():
            assert mine[model_set] == pytest.approx(mass, abs=1e-12)

    def test_merge_concatenates_disjoint_components(self):
        space = coins_engine(4).output_space()
        left = ProductSpace(space.components[:2], space.translated)
        right = ProductSpace(space.components[2:], space.translated)
        merged = ProductSpace.merge([left, right])
        assert len(merged.components) == 4
        assert merged.probability_has_stable_model() == space.probability_has_stable_model()
        assert merged.marginal(parse_atom("heads(4)")) == space.marginal(parse_atom("heads(4)"))

    def test_conditional_on_generic_predicate_materializes(self):
        space = coins_engine(3).output_space()
        heads_1 = parse_atom("heads(1)")
        posterior = space.conditional(
            lambda o: any(heads_1 in model for model in o.stable_models)
        )
        assert isinstance(posterior, OutputSpace)
        assert posterior.finite_probability == pytest.approx(1.0)
        assert posterior.marginal(heads_1) == pytest.approx(1.0)

    def test_factorized_space_falls_back_to_none_when_connected(self):
        engine = GDatalogEngine(dime_quarter_program(), dime_quarter_database(2, 1))
        assert factorized_space(engine.grounder, CONFIG) is None
        # And the engine transparently serves the flat space instead.
        engine = GDatalogEngine(
            dime_quarter_program(),
            dime_quarter_database(2, 1),
            chase_config=ChaseConfig(factorize=True),
        )
        assert isinstance(engine.output_space(), OutputSpace)

    def test_error_probability_is_zero_without_truncation(self):
        space = coins_engine(4).output_space()
        assert space.error_probability == 0.0
        assert space.total_probability() == pytest.approx(1.0)

    def test_profile_summary_never_runs_the_flat_chase(self):
        engine = coins_engine(12)
        summary = engine.profile_summary()
        assert "factorized" in summary
        assert "independent components:   12" in summary
        # The flat 2^12-outcome chase must not have been triggered.
        assert engine._chase_result is None

    def test_possible_outcomes_enumerates_the_product(self):
        engine = coins_engine(3)
        outcomes = engine.possible_outcomes()
        assert len(outcomes) == 8
        assert engine._chase_result is None
