"""Property: sampling along the chase record equals sampling without it, draw for draw.

One engine builds its space, so its samplers descend the tree its chase
recorded; a fresh engine over the same program and database has no record
and grounds every path.  On the same seed both must draw the same
outcomes (AtR set, grounding, probability), at the same depths, with the
same error events, through :class:`~repro.gdatalog.sampler.MonteCarloSampler`
and through plain and stratified
:class:`~repro.runtime.adaptive.AdaptiveSampler` runs.  The random programs
mix negation, constraints, a Poisson support cut by the mass tolerance or
the branch cap, and chase limits that cut the tree by depth and by outcome
count, under both deterministic trigger strategies.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdatalog.chase import ChaseConfig, TriggerStrategy
from repro.gdatalog.engine import GDatalogEngine
from tests.conftest import sample_draws

#: Rule groups a program draws from; the first is always present.
CHOICES = "c(X, flip<0.4>[X]) :- e(X)."
GROUPS = {
    "negation": "ok(X) :- c(X, 1), not bad(X).\nbad(X) :- c(X, 0), r(X, Y), ok(Y).",
    "even_cycle": "p(X) :- c(X, 1), not q(X).\nq(X) :- c(X, 1), not p(X).",
    "constraint": ":- c(X, 1), c(Y, 1), r(X, Y).",
    "poisson": "n(X, poisson<{rate}>[X]) :- c(X, 1).\nbig(X) :- n(X, Y), r(X, Y).",
    "chain": "w(Y, flip<0.5>[Y]) :- c(X, 1), r(X, Y).\nfar(Y) :- w(Y, 1), not bad(Y).",
}


@st.composite
def cases(draw):
    groups = draw(st.sets(st.sampled_from(sorted(GROUPS))))
    rate = draw(st.sampled_from([0.5, 2.0]))
    rules = [CHOICES] + [GROUPS[name].format(rate=rate) for name in sorted(groups)]
    size = draw(st.integers(min_value=1, max_value=3))
    pairs = draw(
        st.sets(st.tuples(st.integers(1, size), st.integers(1, size)), max_size=4)
    )
    facts = [f"e({i})." for i in range(1, size + 1)] + [f"r({x}, {y})." for x, y in sorted(pairs)]
    config = ChaseConfig(
        max_depth=draw(st.sampled_from([1, 2, 3, 200])),
        max_outcomes=draw(st.sampled_from([1, 3, 200_000])),
        mass_tolerance=draw(st.sampled_from([1e-9, 0.05, 0.3])),
        max_support=draw(st.sampled_from([2, 64])),
        trigger_strategy=draw(st.sampled_from([TriggerStrategy.FIRST, TriggerStrategy.LAST])),
    )
    return "\n".join(rules), " ".join(facts), config, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_recorded_sampling_matches_grounded_sampling(case):
    program, database, config, seed = case
    warm = GDatalogEngine.from_source(program, database, chase_config=config)
    warm.output_space()
    assert warm._record is not None
    fresh = GDatalogEngine.from_source(program, database, chase_config=config)
    assert sample_draws(warm, seed) == sample_draws(fresh, seed)
