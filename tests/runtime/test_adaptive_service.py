"""Unit tests for the adaptive sampler, Wilson intervals and the inference service."""

from __future__ import annotations

import pytest

from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.grounders import SimpleGrounder
from repro.gdatalog.sampler import Estimate
from repro.gdatalog.translate import translate_program
from repro.ppdl.queries import HasStableModelQuery, query_from_spec
from repro.runtime.adaptive import AdaptiveSampler
from repro.runtime.service import InferenceService
from repro.workloads import (
    coin_program,
    network_database,
    resilience_program,
    topology_graph,
)
from repro.logic.database import Database
from repro.logic.parser import parse_database, parse_gdatalog_program

COIN = """
coin(flip<0.5>).
aux2 :- coin(1), not aux1.
aux1 :- coin(1), not aux2.
:- coin(0).
"""

RESILIENCE = """
infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
uninfected(X) :- router(X), not infected(X, 1).
:- uninfected(X), uninfected(Y), connected(X, Y).
"""

RESILIENCE_DB = """
router(1). router(2). router(3).
infected(1, 1).
connected(1, 2). connected(2, 1). connected(1, 3).
connected(3, 1). connected(2, 3). connected(3, 2).
"""


class TestWilsonInterval:
    def test_degenerate_at_zero_has_positive_width(self):
        estimate = Estimate(0.0, 0.0, 100)
        low, high = estimate.confidence_interval(method="wilson")
        assert (low, high) != (0.0, 0.0)
        assert low == 0.0 and 0.0 < high < 0.1
        # The Wald interval would collapse to a point here; the normal
        # method now falls back to Wilson in the degenerate case.
        assert estimate.confidence_interval(method="normal") == estimate.wilson_interval()

    def test_degenerate_at_one_has_positive_width(self):
        estimate = Estimate(1.0, 0.0, 100)
        low, high = estimate.wilson_interval()
        assert 0.9 < low < 1.0
        assert high == pytest.approx(1.0)
        assert estimate.confidence_interval(method="normal") == (low, high)

    def test_normal_interval_unchanged_away_from_the_endpoints(self):
        estimate = Estimate(0.25, 0.01, 400)
        assert estimate.confidence_interval(method="normal") == (
            0.25 - 1.96 * 0.01,
            0.25 + 1.96 * 0.01,
        )

    def test_wilson_contains_estimate_and_stays_in_unit_interval(self):
        for p_hat, n in ((0.5, 10), (0.01, 50), (0.99, 50), (0.3, 1000)):
            low, high = Estimate(p_hat, 0.0, n).wilson_interval()
            assert 0.0 <= low < high <= 1.0
            assert low <= p_hat <= high

    def test_width_shrinks_with_samples(self):
        widths = [Estimate(0.2, 0.0, n).half_width(method="wilson") for n in (10, 100, 1000)]
        assert widths[0] > widths[1] > widths[2]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            Estimate(0.5, 0.05, 100).confidence_interval(method="bogus")

    def test_zero_samples_is_vacuous(self):
        assert Estimate(0.0, 0.0, 0).wilson_interval() == (0.0, 1.0)


def _coin_grounder():
    return SimpleGrounder(translate_program(coin_program()), Database())


def _resilience_grounder(n: int = 4):
    database = network_database(topology_graph("chain", n), infected_seeds=[0])
    return SimpleGrounder(translate_program(resilience_program(0.3)), database)


class TestAdaptiveSampler:
    @pytest.mark.parametrize("stratify", [False, True])
    def test_stops_within_target_half_width_on_coin(self, stratify):
        driver = AdaptiveSampler(
            _coin_grounder(), target_half_width=0.05, stratify=stratify, seed=5
        )
        result = driver.estimate(HasStableModelQuery())
        assert result.converged
        assert result.half_width <= 0.05
        assert abs(result.value - 0.5) <= 3 * result.half_width
        assert result.stratified is stratify

    @pytest.mark.parametrize("stratify", [False, True])
    def test_stops_within_target_half_width_on_resilience(self, stratify):
        grounder = _resilience_grounder()
        driver = AdaptiveSampler(
            grounder, target_half_width=0.05, stratify=stratify, seed=5
        )
        result = driver.estimate(HasStableModelQuery())
        from repro.gdatalog.chase import ChaseEngine
        from repro.gdatalog.probability_space import OutputSpace

        chase = ChaseEngine(_resilience_grounder(), ChaseConfig()).run()
        exact = OutputSpace(chase.outcomes).probability_has_stable_model()
        assert result.converged
        assert result.half_width <= 0.05
        assert abs(result.value - exact) <= 3 * result.half_width

    def test_easy_queries_need_few_samples(self):
        # P ≈ 0 ⇒ Wilson converges quickly instead of looping to max_samples,
        # and (unlike the normal interval) never stops after one chunk of
        # unanimous samples with a zero-width interval at the wrong budget.
        driver = AdaptiveSampler(
            _resilience_grounder(5), target_half_width=0.05, chunk_size=64, seed=1
        )
        result = driver.estimate(HasStableModelQuery())
        assert result.converged
        assert result.samples <= 512

    def test_budget_exhaustion_is_reported(self):
        driver = AdaptiveSampler(
            _coin_grounder(), target_half_width=0.001, chunk_size=64, max_samples=256, seed=2
        )
        result = driver.estimate(HasStableModelQuery())
        assert not result.converged
        assert result.samples == 256
        assert result.half_width > 0.001

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveSampler(_coin_grounder(), target_half_width=0.0)
        with pytest.raises(ValueError):
            AdaptiveSampler(_coin_grounder(), chunk_size=0)
        with pytest.raises(ValueError):
            AdaptiveSampler(_coin_grounder(), max_samples=0)

    def test_stratification_declined_when_strata_outnumber_the_budget(self):
        # The Poisson first trigger has ~20 branches, more than 8 draws
        # could cover at one per stratum: the plain loop runs instead.
        service = InferenceService()
        result = service.estimate(
            "roll(X, poisson<4>[X]) :- thing(X).",
            "thing(1).",
            {"type": "has_stable_model"},
            stratify=True,
            seed=3,
            max_samples=8,
        )
        assert result.samples == 8
        assert not result.stratified

    def test_stratified_run_stops_when_the_rest_cannot_reach_every_stratum(self):
        grounder = SimpleGrounder(
            translate_program(parse_gdatalog_program("die(X, uniform_int<1, 3>[X]) :- thing(X).")),
            parse_database("thing(1)."),
        )
        driver = AdaptiveSampler(
            grounder,
            target_half_width=0.001,
            chunk_size=8,
            max_samples=10,
            stratify=True,
            seed=4,
        )
        result = driver.estimate(query_from_spec("die(1, 2)"))
        # One chunk of 8; the 2 draws left cannot give each of 3 strata one.
        assert result.samples == 8
        assert result.stratified and not result.converged

    def test_chunks_smaller_than_the_strata_draw_one_per_stratum(self):
        grounder = SimpleGrounder(
            translate_program(parse_gdatalog_program("die(X, uniform_int<1, 3>[X]) :- thing(X).")),
            parse_database("thing(1)."),
        )
        driver = AdaptiveSampler(
            grounder,
            target_half_width=0.001,
            chunk_size=2,
            max_samples=10,
            stratify=True,
            seed=4,
        )
        result = driver.estimate(query_from_spec("die(1, 2)"))
        # Each chunk gives each of the 3 strata one draw; after 3 chunks the
        # single draw left cannot, so the run stops short of the budget.
        assert (result.samples, result.chunks) == (9, 3)
        assert result.stratified and not result.converged

    def test_strata_beyond_the_chunk_size_still_stratify(self):
        # The Poisson first trigger has more branches than a chunk of 8 but
        # far fewer than the budget: stratified, one draw per stratum a chunk.
        grounder = SimpleGrounder(
            translate_program(parse_gdatalog_program("roll(X, poisson<4>[X]) :- thing(X).")),
            parse_database("thing(1)."),
        )
        driver = AdaptiveSampler(
            grounder,
            target_half_width=0.1,
            chunk_size=8,
            max_samples=1000,
            stratify=True,
            seed=3,
        )
        strata = len(driver._first_branch_strata())
        assert strata > 8
        result = driver.estimate(HasStableModelQuery())
        assert result.stratified and result.converged
        assert result.samples == strata * result.chunks < 1000

    def test_as_estimate_view(self):
        driver = AdaptiveSampler(_coin_grounder(), target_half_width=0.1, seed=3)
        result = driver.estimate(HasStableModelQuery())
        view = result.as_estimate()
        assert view.samples == result.samples
        assert view.value == result.value


class TestQueryFromSpec:
    def test_atom_shorthand(self):
        query = query_from_spec("coin(1)")
        assert str(query) == "P[brave](coin(1))"

    def test_mapping_forms(self):
        assert str(query_from_spec({"type": "has_stable_model"})) == "P(has stable model)"
        query = query_from_spec({"type": "atom", "atom": "coin(1)", "mode": "cautious"})
        assert str(query) == "P[cautious](coin(1))"

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            query_from_spec({"type": "atom"})
        with pytest.raises(ValueError):
            query_from_spec({"type": "mystery"})
        with pytest.raises(ValueError):
            query_from_spec({"type": "atom", "atom": "a", "mode": "timid"})
        with pytest.raises(ValueError):
            query_from_spec(42)


class TestInferenceService:
    def test_repeated_requests_hit_the_cache(self):
        service = InferenceService(cache_size=4)
        first = service.evaluate(COIN, "", [{"type": "has_stable_model"}])
        second = service.evaluate(COIN, "", ["coin(1)"])
        assert first == [pytest.approx(0.5)]
        assert second == [pytest.approx(0.5)]
        assert service.stats.misses == 1
        assert service.stats.hits == 1
        assert len(service) == 1

    def test_canonical_key_ignores_rule_order_and_whitespace(self):
        service = InferenceService(cache_size=4)
        reordered = """
        aux1   :- coin(1), not aux2.
        aux2 :- coin(1), not aux1.
        :- coin(0).
        coin(flip<0.5>).
        """
        assert service.cache_key(COIN) == service.cache_key(reordered)
        service.evaluate(COIN, "", ["coin(1)"])
        service.evaluate(reordered, "", ["coin(1)"])
        assert service.stats.hits == 1 and service.stats.misses == 1

    def test_different_databases_get_different_entries(self):
        service = InferenceService(cache_size=4)
        key_a = service.cache_key(RESILIENCE, RESILIENCE_DB)
        key_b = service.cache_key(RESILIENCE, "")
        assert key_a != key_b

    def test_lru_eviction(self):
        service = InferenceService(cache_size=1)
        service.evaluate(COIN, "", ["coin(1)"])
        service.evaluate(RESILIENCE, RESILIENCE_DB, [{"type": "has_stable_model"}])
        assert service.stats.evictions == 1
        # The coin entry was evicted; asking again is a miss.
        service.evaluate(COIN, "", ["coin(1)"])
        assert service.stats.misses == 3

    def test_exact_matches_engine(self):
        service = InferenceService(cache_size=2)
        [probability] = service.evaluate(RESILIENCE, RESILIENCE_DB, [{"type": "has_stable_model"}])
        assert probability == pytest.approx(0.19)

    def test_parallel_service_space_matches(self):
        serial = InferenceService(cache_size=2)
        parallel = InferenceService(cache_size=2, workers=2)
        mine = serial.evaluate(RESILIENCE, RESILIENCE_DB, ["infected(2, 1)"])
        theirs = parallel.evaluate(RESILIENCE, RESILIENCE_DB, ["infected(2, 1)"])
        assert mine == theirs

    def test_adaptive_estimate_through_service(self):
        service = InferenceService(cache_size=2)
        result = service.estimate(
            COIN, "", {"type": "has_stable_model"}, target_half_width=0.05, seed=9
        )
        assert result.converged
        assert abs(result.value - 0.5) <= 3 * result.half_width

    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            InferenceService(cache_size=0)
