"""The chase record: a warm engine's samplers descend the tree its chase walked.

Each test compares a sampler against the same sampler without a record
(a fresh engine over the same program and database), draw for draw: the
outcome's AtR set, grounding and probability, its depth, and the error
events.  The property over random programs is in
``tests/property/test_record_sampling.py``.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.gdatalog.chase import ChaseConfig, TriggerStrategy
from repro.gdatalog.engine import GDatalogEngine
from repro.gdatalog.grounders import SimpleGrounder
from repro.gdatalog.sampler import MonteCarloSampler
from repro.ppdl.queries import HasStableModelQuery
from tests.conftest import (
    RESILIENCE_DATABASE,
    RESILIENCE_SOURCE,
    observed_sampling,
    sample_draws,
)

#: A patch-eligible program: deltas on ``aux`` lie outside the choice cone.
STREAM_PROGRAM = """
coin(X, flip<0.5>[X]) :- src(X).
hit(X) :- coin(X, 1), not miss(X).
miss(X) :- coin(X, 1), not hit(X).
:- coin(1, 1), coin(2, 1).
base(X) :- src(X), aux(X).
quiet(X) :- src(X), not base(X).
"""
STREAM_DATABASE = "src(1). src(2). src(3). aux(1)."

#: Independent coins, so a factorized engine splits them into components.
COINS_PROGRAM = "coin(X, flip<0.3>[X]) :- coin_id(X).\nheads(X) :- coin(X, 1)."
COINS_DATABASE = "coin_id(1). coin_id(2). coin_id(3)."


def _engine(program: str = RESILIENCE_SOURCE, database: str = RESILIENCE_DATABASE, **config):
    return GDatalogEngine.from_source(program, database, chase_config=ChaseConfig(**config))


def _warm(engine: GDatalogEngine) -> GDatalogEngine:
    engine.output_space()
    return engine


def _extensions_while_sampling(engine: GDatalogEngine) -> int:
    """Grounding steps of a plain sampler and a plain adaptive estimate.

    Stratified estimates ground the root's children as strata, record or
    not, so they are left out here.
    """
    extensions = []
    extend = SimpleGrounder.extend_state

    def counted(self, *args, **kwargs):
        extensions.append(1)
        return extend(self, *args, **kwargs)

    with mock.patch.object(SimpleGrounder, "extend_state", counted):
        engine.sampler(seed=11).sample_outcomes(30)
        engine.adaptive_estimate(
            HasStableModelQuery(), target_half_width=0.05, seed=11, chunk_size=8, max_samples=40
        )
    return len(extensions)


class TestRecordedSampling:
    @pytest.mark.parametrize("strategy", [TriggerStrategy.FIRST, TriggerStrategy.LAST])
    def test_warm_engine_samples_like_a_fresh_one_without_grounding(self, strategy):
        warm = _warm(_engine(trigger_strategy=strategy))
        assert warm._record is not None
        assert sample_draws(warm) == sample_draws(_engine(trigger_strategy=strategy))
        assert _extensions_while_sampling(warm) == 0
        assert _extensions_while_sampling(_engine(trigger_strategy=strategy)) > 0

    def test_paths_end_at_the_chases_own_outcomes(self):
        engine = _warm(_engine())
        space_outcomes = {id(outcome) for outcome in engine.output_space().outcomes}
        for outcome in engine.sampler(seed=3).sample_outcomes(20):
            assert id(outcome) in space_outcomes

    @pytest.mark.parametrize(
        "config, grounds",
        [
            # Depth 1 cuts every path below the first choice: the record
            # answers the error event without grounding.
            ({"max_depth": 1}, False),
            # Leaves past two outcomes, and draws outside a Poisson support
            # cut by the tolerance or by the branch cap, end the record.
            ({"max_outcomes": 2}, True),
            ({"mass_tolerance": 0.3}, True),
            ({"max_support": 2}, True),
        ],
    )
    def test_cuts_answer_as_without_a_record(self, config, grounds):
        program = "n(X, poisson<2>[X]) :- e(X).\nbig(X) :- n(X, Y), e(Y)."
        database = "e(1). e(2). e(3)."
        warm = _warm(_engine(program, database, **config))
        assert warm._record is not None
        assert sample_draws(warm) == sample_draws(_engine(program, database, **config))
        assert (_extensions_while_sampling(warm) > 0) is grounds


class TestWithoutRecord:
    def _assert_samples_as_today(self, engine: GDatalogEngine, fresh: GDatalogEngine) -> None:
        assert engine._record is None
        assert sample_draws(engine) == sample_draws(fresh)

    def test_random_strategy_records_nothing(self):
        config = {"trigger_strategy": TriggerStrategy.RANDOM, "seed": 5}
        self._assert_samples_as_today(_warm(_engine(**config)), _engine(**config))

    def test_factorized_engine_records_nothing(self):
        engine = _warm(_engine(COINS_PROGRAM, COINS_DATABASE, factorize=True))
        assert type(engine.output_space()).__name__ == "ProductSpace"
        self._assert_samples_as_today(engine, _engine(COINS_PROGRAM, COINS_DATABASE, factorize=True))

    def test_engine_whose_space_is_not_built(self):
        self._assert_samples_as_today(_engine(), _engine())

    def test_sampler_with_another_config_ignores_the_record(self):
        engine = _warm(_engine())
        other = ChaseConfig(max_depth=2)
        with observed_sampling() as (draws, runs):
            recorded = MonteCarloSampler(engine.grounder, other, seed=7, record=engine._record)
            assert recorded._engine.record is None
            recorded.sample_outcomes(20)
        fresh = _engine()
        with observed_sampling() as (fresh_draws, _):
            MonteCarloSampler(fresh.grounder, other, seed=7).sample_outcomes(20)
        assert draws == fresh_draws
        assert not runs


class TestMaintainedRecord:
    def test_patch_carries_the_record_to_the_post_delta_engine(self):
        engine = _warm(_engine(STREAM_PROGRAM, STREAM_DATABASE))
        delta = {"insert": ["aux(2)"], "retract": ["aux(1)"]}
        maintained = engine.updated(delta)
        assert maintained.last_update_report.mode == "patch"
        record = maintained._record
        assert record is not None and record.root is engine._record.root
        assert record.outcomes == maintained.output_space().outcomes
        post_delta = "src(1). src(2). src(3). aux(2)."
        assert sample_draws(maintained) == sample_draws(_engine(STREAM_PROGRAM, post_delta))
        assert sample_draws(maintained) == sample_draws(_warm(_engine(STREAM_PROGRAM, post_delta)))

    def test_rebuild_drops_the_record(self):
        engine = _warm(_engine(STREAM_PROGRAM, STREAM_DATABASE))
        rebuilt = engine.updated({"insert": ["src(4)"]})
        assert rebuilt.last_update_report.mode == "rebuild"
        assert rebuilt._record is None
        assert _warm(rebuilt)._record is not None  # its own chase records anew

    def test_component_maintenance_drops_the_record(self):
        engine = _warm(_engine(COINS_PROGRAM, COINS_DATABASE, factorize=True))
        updated = engine.updated({"insert": ["coin_id(4)"]})
        assert updated.last_update_report.mode == "component"
        assert updated._record is None
