"""Unit tests for the stable-model solver and the stratified evaluator."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exceptions import SolverLimitError, StratificationError
from repro.logic.atoms import atom, fact
from repro.logic.database import Database
from repro.logic.parser import parse_datalog_program
from repro.logic.rules import Rule, constraint, fact_rule, rule
from repro.stable.grounding import GroundProgram, ground_program
from repro.stable.reduct import is_stable_model
from repro.stable.solver import SolverConfig, StableModelSolver, has_stable_model, stable_models
from repro.stable.stratified import perfect_model, perfect_model_ground


def even_loop_program() -> GroundProgram:
    """p :- not q.   q :- not p.   (two stable models)"""
    return GroundProgram((Rule(atom("p"), (), (atom("q"),)), Rule(atom("q"), (), (atom("p"),))))


class TestSolverBasics:
    def setup_method(self):
        self.solver = StableModelSolver()

    def test_positive_program_single_model(self):
        ground = GroundProgram((fact_rule(atom("a")), rule(atom("b"), [atom("a")])))
        models = self.solver.all_stable_models(ground)
        assert models == [frozenset({atom("a"), atom("b")})]

    def test_even_negative_loop(self):
        models = self.solver.all_stable_models(even_loop_program())
        assert set(models) == {frozenset({atom("p")}), frozenset({atom("q")})}

    def test_odd_negative_loop_no_model(self):
        ground = GroundProgram((Rule(atom("a"), (), (atom("a"),)),))
        assert self.solver.all_stable_models(ground) == []
        assert not self.solver.has_stable_model(ground)

    def test_constraint_filters_models(self):
        ground = even_loop_program().with_rules([constraint([atom("p")])])
        models = self.solver.all_stable_models(GroundProgram(tuple(ground)))
        assert models == [frozenset({atom("q")})]

    def test_constraint_eliminating_all_models(self):
        ground = GroundProgram((fact_rule(atom("a")), constraint([atom("a")])))
        assert not self.solver.has_stable_model(ground)

    def test_count_and_brave_cautious(self):
        ground = even_loop_program()
        assert self.solver.count(ground) == 2
        assert self.solver.brave_consequences(ground) == frozenset({atom("p"), atom("q")})
        assert self.solver.cautious_consequences(ground) == frozenset()

    def test_cautious_none_when_inconsistent(self):
        ground = GroundProgram((Rule(atom("a"), (), (atom("a"),)),))
        assert self.solver.cautious_consequences(ground) is None

    def test_is_stable_direct_check(self):
        ground = even_loop_program()
        assert self.solver.is_stable(ground, {atom("p")})
        assert not self.solver.is_stable(ground, {atom("p"), atom("q")})

    def test_every_enumerated_model_passes_reduct_check(self):
        source = """
        a :- not b.
        b :- not a.
        c :- a.
        d :- b, not c.
        """
        ground = ground_program(parse_datalog_program(source), Database())
        for model in StableModelSolver().enumerate(ground):
            assert is_stable_model(ground.rules, model)

    def test_solver_limit(self):
        rules = []
        for i in range(12):
            rules.append(Rule(atom("p", i), (), (atom("q", i),)))
            rules.append(Rule(atom("q", i), (), (atom("p", i),)))
        config = SolverConfig(max_guesses=8)
        with pytest.raises(SolverLimitError):
            list(StableModelSolver(config).enumerate(GroundProgram(tuple(rules))))

    def test_solver_without_well_founded_pruning_agrees(self):
        source = """
        a :- not b.
        b :- not a.
        c :- a.
        """
        ground = ground_program(parse_datalog_program(source), Database())
        default = set(StableModelSolver().enumerate(ground))
        unpruned = set(StableModelSolver(SolverConfig(use_well_founded=False)).enumerate(ground))
        assert default == unpruned


class TestSolverFastPaths:
    """The WF-seeded reduct fixpoints and the lazy existence memo."""

    def _many_model_program(self, choices: int) -> GroundProgram:
        """*choices* independent even loops: 2**choices stable models."""
        rules = []
        for i in range(choices):
            p, q = atom(f"p{i}"), atom(f"q{i}")
            rules.append(Rule(p, (), (q,)))
            rules.append(Rule(q, (), (p,)))
        return GroundProgram(tuple(rules))

    def test_wf_seeding_preserves_models(self):
        """Seeded and unseeded guess fixpoints enumerate identical model sets."""
        base = (
            fact_rule(atom("a")),
            rule(atom("b"), [atom("a")]),
            Rule(atom("p"), (atom("b"),), (atom("q"),)),
            Rule(atom("q"), (atom("b"),), (atom("p"),)),
            Rule(atom("r"), (), (atom("r"),)),  # odd loop: r stays undecided-false
        )
        seeded = StableModelSolver(SolverConfig(use_well_founded=True))
        raw = StableModelSolver(SolverConfig(use_well_founded=False))
        assert set(seeded.enumerate(base)) == set(raw.enumerate(base)) == set()
        consistent = base[:4]
        assert set(seeded.enumerate(consistent)) == set(raw.enumerate(consistent))
        assert set(seeded.all_stable_models(consistent)) == {
            frozenset({atom("a"), atom("b"), atom("p")}),
            frozenset({atom("a"), atom("b"), atom("q")}),
        }

    def test_least_model_seeding_is_identity(self):
        from repro.stable.fixpoint import least_model

        rules = (
            fact_rule(atom("a")),
            rule(atom("b"), [atom("a")]),
            rule(atom("c"), [atom("a"), atom("b")]),
        )
        full = least_model(rules)
        assert least_model(rules, seed=[atom("a")]) == full
        assert least_model(rules, seed=full) == full

    def test_has_stable_model_miss_stays_lazy(self):
        """A cache-missing existence check must not materialize the model cache."""
        solver = StableModelSolver(SolverConfig(memoize=True))
        program = self._many_model_program(6)  # 64 models
        assert solver.has_stable_model(program)
        stats = solver.cache_stats()
        assert stats["entries"] == 0  # full enumeration never ran
        assert stats["existence_entries"] == 1
        assert stats["misses"] == 1

    def test_repeated_existence_checks_hit_the_existence_memo(self):
        solver = StableModelSolver(SolverConfig(memoize=True))
        program = self._many_model_program(4)
        assert solver.has_stable_model(program)
        misses_after_first = solver.cache_misses
        assert solver.has_stable_model(program)
        assert solver.cache_misses == misses_after_first
        assert solver.cache_hits >= 1

    def test_existence_memo_records_negative_answers(self):
        solver = StableModelSolver(SolverConfig(memoize=True))
        ground = GroundProgram((Rule(atom("a"), (), (atom("a"),)),))
        assert not solver.has_stable_model(ground)
        assert not solver.has_stable_model(ground)
        assert solver.cache_stats()["existence_entries"] == 1

    def test_enumerate_after_existence_check_still_full(self):
        solver = StableModelSolver(SolverConfig(memoize=True))
        program = self._many_model_program(3)
        assert solver.has_stable_model(program)
        assert len(list(solver.enumerate(program))) == 8
        # Once enumerated, existence answers from the model cache.
        assert solver.has_stable_model(program)

    def test_clear_cache_drops_the_existence_memo(self):
        solver = StableModelSolver(SolverConfig(memoize=True))
        solver.has_stable_model(even_loop_program())
        solver.clear_cache()
        assert solver.cache_stats()["existence_entries"] == 0


def count_least_model_passes(monkeypatch) -> list[int]:
    """Count the least-model passes of the solver and the well-founded loop."""
    from repro.stable import fixpoint, solver as solver_module, wellfounded

    passes = [0]

    def counted(*args, **kwargs):
        passes[0] += 1
        return fixpoint.least_model(*args, **kwargs)

    monkeypatch.setattr(solver_module, "least_model", counted)
    monkeypatch.setattr(wellfounded, "least_model", counted)
    return passes


class TestSolverCases:
    """Negation-free and settled programs are decided without branching."""

    STRATIFIED = """
    reach(X) :- start(X).
    reach(Y) :- reach(X), edge(X, Y).
    unreached(X) :- node(X), not reach(X).
    """

    def stratified_ground(self, extra: str = "") -> GroundProgram:
        db = Database.from_relations({"start": [(1,)], "edge": [(1, 2)], "node": [(1,), (2,), (3,)]})
        return ground_program(parse_datalog_program(self.STRATIFIED + extra), db)

    def test_negation_free_program_takes_one_least_model_pass(self, monkeypatch):
        passes = count_least_model_passes(monkeypatch)
        ground = GroundProgram((fact_rule(atom("a")), rule(atom("b"), [atom("a")]), constraint([atom("c")])))
        models = StableModelSolver(SolverConfig(memoize=False)).all_stable_models(ground)
        assert models == [frozenset({atom("a"), atom("b")})]
        assert passes[0] == 1

    def test_negation_free_program_still_checks_constraints(self, monkeypatch):
        passes = count_least_model_passes(monkeypatch)
        ground = GroundProgram((fact_rule(atom("a")), rule(atom("b"), [atom("a")]), constraint([atom("b")])))
        assert StableModelSolver(SolverConfig(memoize=False)).all_stable_models(ground) == []
        assert passes[0] == 1

    def test_settled_program_returns_the_well_founded_model(self, monkeypatch):
        ground = self.stratified_ground()
        expected = perfect_model_ground(ground)
        passes = count_least_model_passes(monkeypatch)
        models = StableModelSolver(SolverConfig(memoize=False)).all_stable_models(ground)
        assert models == [expected]
        assert passes[0] == 3  # U_0, K_1 and U_1 = K_1; no re-derivation

    def test_settled_program_still_checks_constraints(self):
        violated = self.stratified_ground(":- unreached(3).")
        kept = self.stratified_ground(":- unreached(1).")
        solver = StableModelSolver(SolverConfig(memoize=False))
        oracle = StableModelSolver(SolverConfig(use_well_founded=False, memoize=False))
        assert solver.all_stable_models(violated) == oracle.all_stable_models(violated) == []
        assert solver.all_stable_models(kept) == oracle.all_stable_models(kept) != []

    def test_existence_check_of_a_decided_program_seeds_the_model_memo(self):
        solver = StableModelSolver(SolverConfig(memoize=True))
        consistent = self.stratified_ground()
        inconsistent = GroundProgram((fact_rule(atom("a")), constraint([atom("a")])))
        assert solver.has_stable_model(consistent)
        assert not solver.has_stable_model(inconsistent)
        stats = solver.cache_stats()
        assert (stats["entries"], stats["existence_entries"], stats["misses"]) == (2, 0, 2)
        assert list(solver.enumerate(consistent)) == [perfect_model_ground(consistent)]
        assert list(solver.enumerate(inconsistent)) == []
        stats = solver.cache_stats()
        assert (stats["hits"], stats["misses"]) == (2, 2)

    def test_memo_key_ignores_rule_order_and_duplicates(self):
        solver = StableModelSolver(SolverConfig(memoize=True))
        rules = self.stratified_ground().rules
        assert solver.has_stable_model(GroundProgram(rules))
        assert solver.has_stable_model(GroundProgram(tuple(reversed(rules)) + rules[:2]))
        assert (solver.cache_hits, solver.cache_misses) == (1, 1)


class TestMemoThreadSafety:
    def test_concurrent_calls_survive_evictions(self):
        """Threads evicting each other's entries never break a lookup.

        With a two-entry memo over three programs, entries are evicted all
        the time: a lookup whose entry another thread evicts between
        finding and refreshing it must not raise ``KeyError``, and no
        counter update may be lost.
        """
        programs = [
            GroundProgram((fact_rule(atom("a", i)), Rule(atom("b", i), (atom("a", i),), (atom("c", i),))))
            for i in range(3)
        ]
        expected = [[frozenset({atom("a", i), atom("b", i)})] for i in range(3)]
        solver = StableModelSolver(SolverConfig(cache_size=2))
        errors: list[Exception] = []

        def work(offset: int) -> None:
            for step in range(3000):
                index = (step + offset) % len(programs)
                try:
                    if step % 2:
                        assert list(solver.enumerate(programs[index])) == expected[index]
                    else:
                        assert solver.has_stable_model(programs[index])
                except Exception as error:  # collected for the assertion below
                    errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = solver.cache_stats()
        assert stats["hits"] + stats["misses"] == 8 * 3000
        assert stats["entries"] <= 2


class TestModuleLevelHelpers:
    def test_stable_models_of_reachability(self):
        program = parse_datalog_program(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X), edge(X, Y).
            unreached(X) :- node(X), not reach(X).
            """
        )
        db = Database.from_relations({"start": [(1,)], "edge": [(1, 2)], "node": [(1,), (2,), (3,)]})
        models = stable_models(program, db)
        assert len(models) == 1
        model = models[0]
        assert fact("reach", 2) in model
        assert fact("unreached", 3) in model

    def test_has_stable_model_helper(self):
        program = parse_datalog_program("a :- not a.")
        assert not has_stable_model(program, Database())
        program2 = parse_datalog_program("a :- not b. b :- not a.")
        assert has_stable_model(program2, Database())


class TestStratifiedEvaluator:
    def setup_method(self):
        self.program = parse_datalog_program(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X), edge(X, Y).
            unreached(X) :- node(X), not reach(X).
            """
        )
        self.db = Database.from_relations(
            {"start": [(1,)], "edge": [(1, 2), (2, 3)], "node": [(1,), (2,), (3,), (4,)]}
        )

    def test_perfect_model_matches_solver(self):
        expected = stable_models(self.program, self.db)[0]
        assert perfect_model(self.program, self.db) == expected

    def test_perfect_model_ground_matches(self):
        ground = ground_program(self.program, self.db)
        expected = StableModelSolver().all_stable_models(ground)[0]
        assert perfect_model_ground(ground) == expected

    def test_perfect_model_ground_rejects_unstratified(self):
        ground = GroundProgram((Rule(atom("a"), (), (atom("a"),)),))
        with pytest.raises(StratificationError):
            perfect_model_ground(ground)

    def test_perfect_model_with_violated_constraint_raises(self):
        program = parse_datalog_program("p(X) :- q(X). :- p(1).")
        with pytest.raises(ValueError):
            perfect_model(program, Database([fact("q", 1)]))
