"""E12 — query-relevant slicing vs. the full chase on a wide program.

A query that mentions one predicate family of a *wide* multi-column program
(see :mod:`repro.workloads.wide_program`) does not need the other columns:
their probabilistic choices contribute a factor of exactly 1.  The slicer
in :mod:`repro.gdatalog.relevance` cuts the chase from ``2^columns`` to
``2^rows`` outcomes.  The bench asserts

* **bit-identical query results** (``==``, no tolerance — the flips are
  dyadic and both engines accumulate with ``fsum``) between the sliced and
  the unsliced engine, on the plain and on the constraint-carrying
  workload, and composed with ``factorize=True``;
* the **empty-slice fast path**: a query naming an unreachable predicate
  answers without chasing anything;
* a **≥ 5× end-to-end speedup** (engine build, slice, chase, stable
  models, queries) at the largest size.
"""

from __future__ import annotations

import pytest

from repro.analysis import TextTable, Timer
from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.engine import GDatalogEngine
from repro.ppdl.queries import AtomQuery
from repro.workloads import wide_database, wide_program, wide_query_atoms

SIZES = (8, 12)
DEPTH = 2
#: Required sliced-over-full speedup at the largest size.
TARGET_SPEEDUP = 5.0


def _engine(columns: int, constrained: bool = False, factorize: bool = False) -> GDatalogEngine:
    return GDatalogEngine(
        wide_program(columns, depth=DEPTH, constrained=constrained),
        wide_database(columns),
        chase_config=ChaseConfig(factorize=factorize),
    )


def _queries(column: int) -> list:
    return wide_query_atoms(column, depth=DEPTH) + [{"type": "has_stable_model"}]


def _run(columns: int, slice: bool, constrained: bool = False, factorize: bool = False) -> list[float]:
    """End-to-end exact answers: build, (slice,) chase, solve, answer."""
    engine = _engine(columns, constrained, factorize)
    queries = _queries(column=columns // 2)
    return (engine.sliced(queries) if slice else engine).evaluate_queries(queries)


@pytest.mark.parametrize("n", SIZES)
def test_e12_sliced_results_identical_to_full(n):
    sliced = _run(n, True)
    full = _run(n, False)
    assert sliced == full  # dyadic masses + fsum: exact, no tolerance
    assert sliced == [0.5, 1.0]


def test_e12_identical_with_constraints():
    # The constraint makes column 1 a permanent seed; answers stay equal.
    sliced = _run(SIZES[0], True, constrained=True)
    assert sliced == _run(SIZES[0], False, constrained=True)
    assert sliced == [0.5, 1.0]


def test_e12_slice_composes_with_factorization():
    sliced = _run(8, True, factorize=True)
    assert sliced == _run(8, False, factorize=False)


def test_e12_slice_shape():
    engine = _engine(12).sliced(_queries(column=6))
    assert engine.query_slice is not None and not engine.query_slice.is_full
    # One column's backward cone: the coin and the hit hops (the miss rule
    # is not backward-reachable from the deepest hit and is cut too).
    assert len(engine.program) == DEPTH + 1
    assert len(engine.output_space()) == 2


def test_e12_unreachable_query_yields_the_empty_slice_fast_path():
    engine = _engine(12)
    sliced = engine.sliced(["nowhere(1)"])
    assert sliced.query_slice is not None and sliced.query_slice.is_empty
    assert len(sliced.output_space()) == 1  # the single empty outcome
    assert sliced.marginal("nowhere(1)") == 0.0
    assert engine.sliced([AtomQuery.of("nowhere(1)", "brave")]).marginal("nowhere(1)") == 0.0


def test_e12_report(benchmark):
    def sweep():
        rows = []
        for n in SIZES:
            with Timer() as sliced_timer:
                sliced = _run(n, True)
            with Timer() as full_timer:
                full = _run(n, False)
            assert sliced == full
            rows.append(
                (
                    n,
                    2**n,
                    full_timer.elapsed,
                    sliced_timer.elapsed,
                    full_timer.elapsed / max(sliced_timer.elapsed, 1e-9),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["columns", "full outcomes", "full s", "sliced s", "speedup"],
        title="E12 — sliced vs full exact queries (wide multi-column program)",
    )
    for n, outcomes, full_seconds, sliced_seconds, speedup in rows:
        table.add_row(n, outcomes, f"{full_seconds:.3f}", f"{sliced_seconds:.3f}", f"{speedup:.1f}x")
    print()
    print(table.render())
    largest = rows[-1]
    assert largest[-1] >= TARGET_SPEEDUP, (
        f"sliced speedup {largest[-1]:.1f}x below the {TARGET_SPEEDUP}x floor "
        f"at {SIZES[-1]} columns"
    )
