"""Unit tests for streaming fact deltas and incremental view maintenance.

Covers the three layers under the service: the :class:`DbDelta` value type
(:mod:`repro.logic.deltas`), the DRed-style root-state delta of the simple
grounder (:meth:`SimpleGrounder.delta_root_state`), and the three
maintenance modes of :func:`repro.gdatalog.incremental.maintain_engine` —
always against the gold standard of a from-scratch engine over the
post-delta database, compared **bit-identically** (``==`` on groundings,
AtR sets and float probabilities; no tolerance).
"""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.engine import GDatalogEngine
from repro.gdatalog.grounders import Grounder, SimpleGrounder
from repro.gdatalog.incremental import maintain_engine, patch_eligible
from repro.gdatalog.translate import translate_program
from repro.logic.atoms import fact
from repro.logic.database import Database
from repro.logic.deltas import DbDelta
from repro.logic.parser import parse_database, parse_gdatalog_program
from repro.workloads import (
    telemetry_database,
    telemetry_program,
    wide_database,
    wide_program,
)

TELEMETRY = telemetry_program(sectors=2)
TELEMETRY_DB = telemetry_database(drivers=3, laps=2, sectors=2)


def _space_fingerprint(space):
    """Everything that makes two flat spaces bit-identical."""
    return (
        [(o.atr_rules, o.grounding, o.probability) for o in space.outcomes],
        space.error_probability,
    )


def _assert_bit_identical(maintained_engine, program, database):
    fresh = GDatalogEngine(program, database, chase_config=maintained_engine.chase_config)
    assert _space_fingerprint(maintained_engine.output_space()) == _space_fingerprint(
        fresh.output_space()
    )


class TestDbDelta:
    def test_of_parses_sorts_and_dedupes(self):
        delta = DbDelta.of(inserts=["b(2)", "a(1)", "b(2)"], retracts=[fact("c", 3)])
        assert [str(a) for a in delta.inserts] == ["a(1)", "b(2)"]
        assert [str(a) for a in delta.retracts] == ["c(3)"]
        assert not delta.is_empty

    def test_from_spec_accepts_aliases(self):
        spec = {"add": ["a(1)"], "remove": ["b(2)"], "retracts": ["c(3)"]}
        delta = DbDelta.from_spec(spec)
        assert [str(a) for a in delta.inserts] == ["a(1)"]
        assert {str(a) for a in delta.retracts} == {"b(2)", "c(3)"}

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown delta spec keys"):
            DbDelta.from_spec({"insert": ["a(1)"], "isnert": ["b(2)"]})

    def test_rejects_non_ground_atoms(self):
        with pytest.raises(ValidationError, match="must be ground"):
            DbDelta.of(inserts=["p(X)"])

    def test_rejects_insert_retract_overlap(self):
        with pytest.raises(ValidationError, match="overlap"):
            DbDelta.of(inserts=["p(1)"], retracts=["p(1)"])

    def test_spec_round_trips_and_log_hash_is_canonical(self):
        delta = DbDelta.of(inserts=["b(2)", "a(1)"], retracts=["c(3)"])
        assert DbDelta.from_spec(delta.spec()) == delta
        # A textually different spec of the same change hashes identically.
        other = DbDelta.from_spec({"add": ["a(1)", "b(2)", "b(2)"], "delete": ["c(3)"]})
        assert other.log_hash() == delta.log_hash()

    def test_effective_drops_noop_sides(self):
        database = parse_database("p(1). q(2).")
        delta = DbDelta.of(inserts=["p(1)", "r(3)"], retracts=["q(2)", "s(4)"])
        effective = delta.effective(database)
        assert [str(a) for a in effective.inserts] == ["r(3)"]
        assert [str(a) for a in effective.retracts] == ["q(2)"]

    def test_apply(self):
        database = parse_database("p(1). q(2).")
        updated = DbDelta.of(inserts=["r(3)"], retracts=["q(2)"]).apply(database)
        assert updated == parse_database("p(1). r(3).")


class TestDeltaRootState:
    """``delta_root_state`` must equal a from-scratch root saturation."""

    def _roots(self, program_text, database_text, delta):
        program = parse_gdatalog_program(program_text)
        translated = translate_program(program)
        old = SimpleGrounder(translated, parse_database(database_text)).initial_state()
        new_database = delta.apply(parse_database(database_text))
        fresh = SimpleGrounder(translated, new_database).initial_state()
        derived = SimpleGrounder(translated, new_database).delta_root_state(
            old, delta.inserts, delta.retracts
        )
        return derived, fresh

    def test_insert_matches_fresh_root(self):
        derived, fresh = self._roots(
            "p(X) :- e(X).\nq(X) :- p(X), r(X).", "e(1). r(1).", DbDelta.of(inserts=["e(2)"])
        )
        assert derived.grounding() == fresh.grounding()
        assert set(derived.rules) == set(fresh.rules)

    def test_retract_matches_fresh_root(self):
        derived, fresh = self._roots(
            "p(X) :- e(X).\nq(X) :- p(X), r(X).",
            "e(1). e(2). r(1).",
            DbDelta.of(retracts=["r(1)"]),
        )
        assert derived.grounding() == fresh.grounding()

    def test_cyclic_self_support_dies_on_retract(self):
        # p and q support each other; only e keeps the cycle alive.  A
        # support-counting deleter would leave the cycle standing.
        derived, fresh = self._roots(
            "p(X) :- q(X).\nq(X) :- p(X).\np(X) :- e(X).",
            "e(1). e(2).",
            DbDelta.of(retracts=["e(1)"]),
        )
        assert derived.grounding() == fresh.grounding()
        heads = {str(a) for a in derived.heads()} if callable(
            getattr(derived, "heads", None)
        ) else {str(r.head) for r in derived.rules}
        assert "p(1)" not in heads and "q(1)" not in heads
        assert "p(2)" in heads

    def test_mixed_insert_and_retract(self):
        derived, fresh = self._roots(
            "p(X) :- e(X), not r(X).",
            "e(1). e(2). r(2).",
            DbDelta.of(inserts=["e(3)"], retracts=["e(1)"]),
        )
        assert derived.grounding() == fresh.grounding()

    def test_constraints_follow_the_delta(self):
        derived, fresh = self._roots(
            "p(X) :- e(X).\n:- p(X), bad(X).",
            "e(1). bad(1).",
            DbDelta.of(retracts=["bad(1)"], inserts=["e(2)", "bad(2)"]),
        )
        assert derived.grounding() == fresh.grounding()


class TestPatchEligibility:
    def test_disjoint_cones_are_eligible(self):
        delta = DbDelta.of(inserts=["lap(1, 3)"])
        assert patch_eligible(TELEMETRY, delta.predicates())

    def test_choice_cone_delta_is_not_eligible(self):
        # driver feeds the flip: the affected cone meets the choice cone.
        delta = DbDelta.of(inserts=["driver(9)"])
        assert not patch_eligible(TELEMETRY, delta.predicates())

    def test_choice_free_program_is_always_eligible(self):
        program = parse_gdatalog_program("p(X) :- e(X).")
        assert patch_eligible(program, DbDelta.of(inserts=["e(1)"]).predicates())

    def test_constraint_joining_both_cones_blocks_patching(self):
        program = parse_gdatalog_program(
            "coin(X, flip<0.5>[X]) :- src(X).\n"
            "hit(X) :- coin(X, 1).\n"
            "seen(X) :- obs(X).\n"
            ":- hit(X), seen(X)."
        )
        assert not patch_eligible(program, DbDelta.of(inserts=["obs(1)"]).predicates())


class TestMaintainEngine:
    def test_patch_insert_is_bit_identical(self):
        engine = GDatalogEngine(TELEMETRY, TELEMETRY_DB)
        engine.output_space()
        delta = DbDelta.of(inserts=["lap(1, 3)", "gate1(3)", "gate2(3)"])
        updated = engine.updated(delta)
        assert updated.last_update_report.mode == "patch"
        assert updated.last_update_report.reused_subtrees == len(engine.output_space())
        _assert_bit_identical(updated, TELEMETRY, delta.apply(TELEMETRY_DB))

    def test_patch_retract_is_bit_identical(self):
        engine = GDatalogEngine(TELEMETRY, TELEMETRY_DB)
        engine.output_space()
        delta = DbDelta.of(retracts=["gate2(2)"])
        updated = engine.updated(delta)
        assert updated.last_update_report.mode == "patch"
        _assert_bit_identical(updated, TELEMETRY, delta.apply(TELEMETRY_DB))
        assert updated.marginal("completed(1, 2)") == 0.0

    def test_choice_cone_delta_rebuilds_and_stays_identical(self):
        engine = GDatalogEngine(TELEMETRY, TELEMETRY_DB)
        engine.output_space()
        delta = DbDelta.of(inserts=["driver(4)"])
        updated = engine.updated(delta)
        assert updated.last_update_report.mode == "rebuild"
        assert updated.last_update_report.reused_subtrees == 0
        _assert_bit_identical(updated, TELEMETRY, delta.apply(TELEMETRY_DB))

    def test_noop_delta_returns_the_same_engine(self):
        engine = GDatalogEngine(TELEMETRY, TELEMETRY_DB)
        same, space, report = maintain_engine(engine, DbDelta.of(inserts=["driver(1)"]))
        assert same is engine and report.mode == "noop"

    def test_component_mode_reuses_untouched_columns(self):
        columns = 4
        program = wide_program(columns, depth=1)
        database = wide_database(columns)
        config = ChaseConfig(factorize=True)
        engine = GDatalogEngine(program, database, chase_config=config)
        engine.output_space()
        delta = DbDelta.of(inserts=["src2(2)"])
        new_engine, new_space, report = maintain_engine(engine, delta)
        assert report.mode == "component"
        # The flips are keyed per (column, row), so the new row is its own
        # component: every previously-chased component is kept verbatim.
        assert report.invalidated_subtrees == 1
        assert report.reused_subtrees == columns
        fresh = GDatalogEngine(program, delta.apply(database), chase_config=config)
        queries = [f"hit{c}_1(1)" for c in range(1, columns + 1)]
        assert [new_engine.marginal(q) for q in queries] == [
            fresh.marginal(q) for q in queries
        ]

    def test_component_retract_is_exact(self):
        program = wide_program(3, depth=1)
        database = wide_database(3, rows=2)
        config = ChaseConfig(factorize=True)
        engine = GDatalogEngine(program, database, chase_config=config)
        delta = DbDelta.of(retracts=["src3(2)"])
        engine.output_space()
        new_engine, _, report = maintain_engine(engine, delta)
        assert report.mode == "component"
        fresh = GDatalogEngine(program, delta.apply(database), chase_config=config)
        assert new_engine.marginal("hit3_1(2)") == fresh.marginal("hit3_1(2)") == 0.0
        assert new_engine.marginal("hit3_1(1)") == fresh.marginal("hit3_1(1)") == 0.5

    def test_sliced_engines_are_rejected(self):
        engine = GDatalogEngine(TELEMETRY, TELEMETRY_DB).sliced(["strong(1)"])
        with pytest.raises(ValidationError, match="query-sliced"):
            maintain_engine(engine, DbDelta.of(inserts=["lap(1, 3)"]))

    def test_custom_grounder_instances_are_rejected(self):
        class _WrapperGrounder(Grounder):
            def __init__(self, translated, database):
                super().__init__(translated, database)
                self._inner = SimpleGrounder(translated, database)

            def ground(self, *args, **kwargs):
                return self._inner.ground(*args, **kwargs)

        program = parse_gdatalog_program("p(X) :- e(X).")
        database = parse_database("e(1).")
        translated = translate_program(program)
        engine = GDatalogEngine(
            program, database, grounder=_WrapperGrounder(translated, database)
        )
        with pytest.raises(ValidationError, match="custom grounder"):
            maintain_engine(engine, DbDelta.of(inserts=["e(2)"]))

    def test_updated_chain_applies_many_deltas(self):
        engine = GDatalogEngine(TELEMETRY, TELEMETRY_DB)
        engine.output_space()
        database = TELEMETRY_DB
        for delta in (
            DbDelta.of(inserts=["lap(2, 3)", "gate1(3)"]),
            DbDelta.of(inserts=["gate2(3)"]),
            DbDelta.of(retracts=["lap(2, 3)"]),
        ):
            engine = engine.updated(delta)
            database = delta.apply(database)
            assert engine.last_update_report.mode == "patch"
            _assert_bit_identical(engine, TELEMETRY, database)
