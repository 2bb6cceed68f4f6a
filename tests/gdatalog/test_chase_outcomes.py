"""Unit tests for the chase procedure, possible outcomes and the output probability space."""

from __future__ import annotations

import pytest

from repro.exceptions import ChaseLimitError, InferenceError
from repro.gdatalog.chase import ChaseConfig, ChaseEngine, TriggerStrategy
from repro.gdatalog.grounders import SimpleGrounder
from repro.gdatalog.outcomes import outcome_probability
from repro.gdatalog.probability_space import OutputSpace
from repro.gdatalog.translate import translate_program
from repro.logic.atoms import atom, fact
from repro.logic.database import Database
from repro.logic.parser import parse_gdatalog_program
from repro.workloads import coin_program, paper_example_database, resilience_program


@pytest.fixture()
def resilience_chase():
    translated = translate_program(resilience_program(0.1))
    grounder = SimpleGrounder(translated, paper_example_database())
    return ChaseEngine(grounder)


class TestChaseMechanics:
    def test_root_node(self, resilience_chase):
        root = resilience_chase.root()
        assert root.probability == 1.0
        assert root.depth == 0
        assert len(root.triggers(resilience_chase.grounder)) == 2

    def test_expand_branches_over_support(self, resilience_chase):
        root = resilience_chase.root()
        trigger = root.triggers(resilience_chase.grounder)[0]
        children = resilience_chase.expand(root, trigger)
        assert len(children) == 2  # flip: outcomes 0 and 1
        assert sum(c.probability for c in children) == pytest.approx(1.0)
        assert sorted(c.probability for c in children) == pytest.approx([0.1, 0.9])
        for child in children:
            assert child.depth == 1
            assert len(child.atr_rules) == 1

    def test_run_total_mass_is_one(self, resilience_chase):
        result = resilience_chase.run()
        assert result.finite_probability == pytest.approx(1.0)
        assert result.error_probability == pytest.approx(0.0, abs=1e-9)
        assert result.truncated_paths == 0
        assert len(result) > 0

    def test_atr_sets_are_terminal_and_minimal(self, resilience_chase):
        result = resilience_chase.run()
        grounder = resilience_chase.grounder
        for outcome in result.outcomes:
            assert grounder.is_terminal(outcome.atr_rules, outcome.grounding)

    def test_distinct_atr_sets(self, resilience_chase):
        result = resilience_chase.run()
        atr_sets = [outcome.atr_rules for outcome in result.outcomes]
        assert len(atr_sets) == len(set(atr_sets))

    def test_trigger_strategies_yield_same_outcomes(self):
        """Lemma 4.4: the chase result does not depend on the trigger order."""
        translated = translate_program(resilience_program(0.1))
        grounder = SimpleGrounder(translated, paper_example_database())
        reference = None
        for strategy in (TriggerStrategy.FIRST, TriggerStrategy.LAST, TriggerStrategy.RANDOM):
            config = ChaseConfig(trigger_strategy=strategy, seed=7)
            result = ChaseEngine(grounder, config).run()
            summary = {(outcome.atr_rules, round(outcome.probability, 12)) for outcome in result.outcomes}
            if reference is None:
                reference = summary
            else:
                assert summary == reference

    def test_depth_limit_moves_mass_to_error_event(self):
        translated = translate_program(resilience_program(0.5))
        grounder = SimpleGrounder(translated, paper_example_database())
        config = ChaseConfig(max_depth=1)
        result = ChaseEngine(grounder, config).run()
        assert result.error_probability > 0.0
        assert result.finite_probability + result.error_probability == pytest.approx(1.0)

    def test_depth_limit_strict_raises(self):
        translated = translate_program(resilience_program(0.5))
        grounder = SimpleGrounder(translated, paper_example_database())
        config = ChaseConfig(max_depth=1, strict=True)
        with pytest.raises(ChaseLimitError):
            ChaseEngine(grounder, config).run()

    def test_infinite_support_is_truncated(self):
        program = parse_gdatalog_program("count(X, poisson<2.0>[X]) :- item(X).")
        translated = translate_program(program)
        grounder = SimpleGrounder(translated, Database([fact("item", 1)]))
        config = ChaseConfig(mass_tolerance=1e-4)
        result = ChaseEngine(grounder, config).run()
        assert 0.0 < result.error_probability < 1e-3
        assert result.finite_probability == pytest.approx(1.0 - result.error_probability, abs=1e-9)

    def test_sample_path_reaches_leaf(self, resilience_chase):
        from repro.rng import default_rng

        outcome, depth = resilience_chase.sample_path(default_rng(0))
        assert outcome is not None
        assert depth >= 2
        assert resilience_chase.grounder.is_terminal(outcome.atr_rules, outcome.grounding)


class TestPossibleOutcome:
    def test_coin_outcomes(self):
        translated = translate_program(coin_program())
        grounder = SimpleGrounder(translated, Database())
        result = ChaseEngine(grounder).run()
        assert len(result) == 2
        by_probability = {round(o.probability, 6): o for o in result.outcomes}
        heads = by_probability[0.5]
        assert heads.probability == pytest.approx(0.5)
        models = [o.stable_models for o in result.outcomes]
        sizes = sorted(len(m) for m in models)
        assert sizes == [0, 2]

    def test_visible_stable_models_hide_auxiliary(self):
        translated = translate_program(coin_program())
        grounder = SimpleGrounder(translated, Database())
        result = ChaseEngine(grounder).run()
        tails = next(o for o in result.outcomes if o.has_stable_model)
        for model in tails.visible_stable_models():
            assert all(not a.predicate.name.startswith(("active_", "result_")) for a in model)
            assert fact("coin", 1) in model

    def test_outcome_probability_product(self):
        translated = translate_program(resilience_program(0.1))
        grounder = SimpleGrounder(translated, paper_example_database())
        result = ChaseEngine(grounder).run()
        registry = translated.program.registry
        for outcome in result.outcomes:
            assert outcome.probability == pytest.approx(outcome_probability(outcome.atr_rules, registry))

    def test_full_rules_include_atr(self):
        translated = translate_program(coin_program())
        grounder = SimpleGrounder(translated, Database())
        result = ChaseEngine(grounder).run()
        outcome = result.outcomes[0]
        assert len(outcome.full_rules) == len(outcome.grounding) + len(outcome.atr_rules)
        assert len(outcome) == len(outcome.full_rules)
        assert outcome.result_atoms() <= outcome.head_atoms()

    def test_existence_check_then_marginal_solves_each_outcome_once(self):
        """``P(has stable model)`` seeds the model memo the marginal reads."""
        from pathlib import Path

        from repro.gdatalog.engine import GDatalogEngine
        from repro.stable.solver import shared_solver

        programs = Path(__file__).resolve().parents[2] / "examples" / "programs"
        engine = GDatalogEngine.from_source(
            (programs / "resilience.dl").read_text(), (programs / "resilience.facts").read_text()
        )
        space = engine.output_space()
        shared_solver().clear_cache()
        assert space.probability_has_stable_model() == pytest.approx(0.19)
        space.marginal(atom("uninfected", 2))
        stats = shared_solver().cache_stats()
        assert len(space.outcomes) == 37
        assert (stats["misses"], stats["hits"]) == (37, 37)


class TestOutputSpace:
    @pytest.fixture()
    def resilience_space(self, resilience_chase):
        result = resilience_chase.run()
        return OutputSpace(result.outcomes, result.error_probability)

    def test_example_310_probability(self, resilience_space):
        """Example 3.10: the network is dominated with probability 0.19."""
        assert resilience_space.probability_has_stable_model() == pytest.approx(0.19)
        assert resilience_space.probability_no_stable_model() == pytest.approx(0.81)

    def test_events_partition_mass(self, resilience_space):
        events = resilience_space.events()
        assert sum(e.probability for e in events) == pytest.approx(1.0)
        no_model_event = next(e for e in events if not e.has_stable_model)
        assert no_model_event.probability == pytest.approx(0.81)

    def test_marginals(self, resilience_space):
        # Router 2 ends up infected iff some flip targeting it succeeds.
        p_infected_2 = resilience_space.marginal(atom("infected", 2, 1), mode="brave")
        assert 0.0 < p_infected_2 < 0.19
        assert resilience_space.marginal(atom("infected", 2, 1), mode="cautious") == pytest.approx(
            p_infected_2
        )
        with pytest.raises(InferenceError):
            resilience_space.marginal(atom("infected", 2, 1), mode="wrong")

    def test_conditioning(self, resilience_space):
        conditioned = resilience_space.conditional(lambda o: o.has_stable_model)
        assert conditioned.finite_probability == pytest.approx(1.0)
        assert conditioned.probability_has_stable_model() == pytest.approx(1.0)
        with pytest.raises(InferenceError):
            resilience_space.conditional(lambda o: False)

    def test_as_good_as_is_reflexive(self, resilience_space):
        assert resilience_space.as_good_as(resilience_space)

    def test_summary_mentions_key_figures(self, resilience_space):
        text = resilience_space.summary()
        assert "0.19" in text
        assert "possible outcomes" in text

    def test_distribution_over_model_sets(self, resilience_space):
        distribution = resilience_space.distribution_over_model_sets()
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert frozenset() in distribution  # the no-stable-model event
