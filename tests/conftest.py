"""Shared fixtures: the paper's example programs and databases, and a sampling probe."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

# Allow running the tests without installing the package (e.g. straight from
# a source checkout); the editable install takes precedence when present.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import GDatalogEngine  # noqa: E402
from repro.gdatalog.chase import ChaseEngine  # noqa: E402
from repro.logic import Database, parse_database, parse_gdatalog_program  # noqa: E402
from repro.ppdl.queries import HasStableModelQuery  # noqa: E402
from repro.workloads import (  # noqa: E402
    coin_program,
    dime_quarter_database,
    dime_quarter_program,
    paper_example_database,
    resilience_program,
)

#: The network-resilience program of Example 3.1 (propagation probability 0.1).
RESILIENCE_SOURCE = """
infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
uninfected(X) :- router(X), not infected(X, 1).
:- uninfected(X), uninfected(Y), connected(X, Y).
"""

#: The database of Example 3.6: 3 fully connected routers, router 1 infected.
RESILIENCE_DATABASE = """
router(1). router(2). router(3).
infected(1, 1).
connected(1, 2). connected(2, 1). connected(1, 3).
connected(3, 1). connected(2, 3). connected(3, 2).
"""


@pytest.fixture(scope="session")
def resilience_engine() -> GDatalogEngine:
    """The Example 3.6/3.10 engine with the simple grounder (session-cached)."""
    return GDatalogEngine.from_source(RESILIENCE_SOURCE, RESILIENCE_DATABASE, grounder="simple")


@pytest.fixture(scope="session")
def coin_engine() -> GDatalogEngine:
    """The Section-3 fair-coin program."""
    return GDatalogEngine(coin_program(), Database(), grounder="simple")


@pytest.fixture(scope="session")
def dime_quarter_engines() -> dict[str, GDatalogEngine]:
    """The Appendix-E dime/quarter program under both grounders."""
    program = dime_quarter_program()
    database = dime_quarter_database(dimes=2, quarters=1)
    return {
        "simple": GDatalogEngine(program, database, grounder="simple"),
        "perfect": GDatalogEngine(program, database, grounder="perfect"),
    }


@pytest.fixture()
def resilience_program_obj():
    return resilience_program(0.1)


@pytest.fixture()
def resilience_database_obj() -> Database:
    return paper_example_database()


# -- sampling probe ----------------------------------------------------------------


def _draw(result) -> tuple:
    outcome, depth = result
    if outcome is None:
        return None, depth
    return (outcome.atr_rules, outcome.grounding, outcome.probability), depth


@contextmanager
def observed_sampling():
    """The draws of every ``sample_path`` call, and the chase runs, meanwhile."""
    draws: list = []
    runs: list = []
    sample_path, run = ChaseEngine.sample_path, ChaseEngine.run

    def observed_sample_path(self, rng, start=None):
        result = sample_path(self, rng, start)
        draws.append(_draw(result))
        return result

    def observed_run(self, *args, **kwargs):
        runs.append(self)
        return run(self, *args, **kwargs)

    with mock.patch.object(ChaseEngine, "sample_path", observed_sample_path), mock.patch.object(
        ChaseEngine, "run", observed_run
    ):
        yield draws, runs


def sample_draws(engine: GDatalogEngine, seed: int = 11) -> tuple[list, list, list]:
    """Every draw (outcome, depth) of a plain sampler and of a plain and a
    stratified adaptive one on *engine*, with the outcomes' stable-model
    answers and the adaptive estimates."""
    with observed_sampling() as (draws, runs):
        sampler = engine.sampler(seed=seed)
        models = [
            None if outcome is None else outcome.has_stable_model
            for outcome in sampler.sample_outcomes(30)
        ]
        estimates = [
            engine.adaptive_estimate(
                HasStableModelQuery(),
                target_half_width=0.05,
                stratify=stratify,
                seed=seed,
                chunk_size=8,
                max_samples=40,
            )
            for stratify in (False, True)
        ]
    assert not runs, "sampling must never start the exhaustive chase"
    return draws, models, estimates
