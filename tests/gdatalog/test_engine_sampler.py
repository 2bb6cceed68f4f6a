"""Unit tests for the high-level engine, the Monte-Carlo sampler and dependency exports."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ValidationError
from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.dependency import format_dependency_graph, format_stratification, to_dot, to_networkx
from repro.gdatalog.engine import GDatalogEngine
from repro.gdatalog.grounders import PerfectGrounder, SimpleGrounder
from repro.gdatalog.sampler import MonteCarloSampler
from repro.gdatalog.translate import translate_program
from repro.logic.atoms import atom, fact
from repro.logic.database import Database
from repro.workloads import (
    DIME_QUARTER_PROGRAM_SOURCE,
    dime_quarter_database,
    dime_quarter_program,
    paper_example_database,
    resilience_program,
)
from tests.conftest import RESILIENCE_DATABASE, RESILIENCE_SOURCE


class TestEngineConstruction:
    def test_from_source_and_objects_agree(self, resilience_engine):
        object_engine = GDatalogEngine(resilience_program(0.1), paper_example_database())
        assert object_engine.probability_has_stable_model() == pytest.approx(
            resilience_engine.probability_has_stable_model()
        )

    def test_grounder_selection(self):
        program = dime_quarter_program()
        database = dime_quarter_database()
        simple_engine = GDatalogEngine(program, database, grounder="simple")
        perfect_engine = GDatalogEngine(program, database, grounder="perfect")
        assert isinstance(simple_engine.grounder, SimpleGrounder)
        assert isinstance(perfect_engine.grounder, PerfectGrounder)

    def test_custom_grounder_instance(self):
        program = dime_quarter_program()
        database = dime_quarter_database()
        translated = translate_program(program)
        grounder = SimpleGrounder(translated, database)
        engine = GDatalogEngine(program, database, grounder=grounder)
        assert engine.grounder is grounder

    def test_invalid_constraint_mode(self):
        with pytest.raises(ValidationError):
            GDatalogEngine(resilience_program(0.1), paper_example_database(), constraint_mode="weird")

    def test_strict_edb_validation(self):
        with pytest.raises(ValidationError):
            GDatalogEngine(
                resilience_program(0.1), paper_example_database(), require_edb_database=True
            )
        # Without the intensional infected(1, 1) fact the strict mode is fine.
        pruned = Database([a for a in paper_example_database() if a.predicate.name != "infected"])
        GDatalogEngine(resilience_program(0.1), pruned, require_edb_database=True)

    def test_empty_database_from_source(self):
        engine = GDatalogEngine.from_source("coin(flip<0.5>).", "")
        assert len(engine.database) == 0
        assert len(engine.possible_outcomes()) == 2


class TestEngineQueries:
    def test_example_310(self, resilience_engine):
        assert resilience_engine.probability_has_stable_model() == pytest.approx(0.19)

    def test_marginal_string_and_atom(self, resilience_engine):
        by_string = resilience_engine.marginal("infected(2, 1)")
        by_atom = resilience_engine.marginal(atom("infected", 2, 1))
        assert by_string == pytest.approx(by_atom)

    def test_probability_of_custom_event(self, resilience_engine):
        p = resilience_engine.probability(lambda o: len(o.atr_rules) >= 2)
        assert p == pytest.approx(1.0)

    def test_report_renders(self, resilience_engine):
        text = resilience_engine.report()
        assert "grounder" in text and "possible outcomes" in text

    def test_chase_result_cached(self, resilience_engine):
        assert resilience_engine.chase_result is resilience_engine.chase_result

    def test_two_threads_asking_a_cold_engine_for_its_space_chase_it_once(self, monkeypatch):
        from repro.gdatalog.chase import ChaseEngine

        engine = GDatalogEngine.from_source(RESILIENCE_SOURCE, RESILIENCE_DATABASE)
        runs: list[ChaseEngine] = []
        chasing, release, contended = threading.Event(), threading.Event(), threading.Event()
        real_run = ChaseEngine.run

        def stalled_run(self, *args, **kwargs):
            runs.append(self)
            chasing.set()
            release.wait(timeout=30)
            return real_run(self, *args, **kwargs)

        class ObservedLock:
            """The engine's lock, reporting when a second thread has to wait for it."""

            def __init__(self, lock):
                self._lock = lock

            def __enter__(self):
                if not self._lock.acquire(blocking=False):
                    contended.set()
                    self._lock.acquire()

            def __exit__(self, *exc_info):
                self._lock.release()

        monkeypatch.setattr(ChaseEngine, "run", stalled_run)
        engine._lock = ObservedLock(engine._lock)
        spaces: list = []
        threads = [
            threading.Thread(target=lambda: spaces.append(engine.output_space())) for _ in range(2)
        ]
        threads[0].start()
        try:
            assert chasing.wait(timeout=10)
            threads[1].start()
            assert contended.wait(timeout=10)
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(runs) == 1
        assert len(spaces) == 2 and spaces[0] is spaces[1]
        assert engine.output_space(workers=2) is spaces[0]

    def test_constraint_modes_agree(self):
        native = GDatalogEngine.from_source(RESILIENCE_SOURCE, RESILIENCE_DATABASE, constraint_mode="native")
        desugared = GDatalogEngine.from_source(
            RESILIENCE_SOURCE, RESILIENCE_DATABASE, constraint_mode="desugar"
        )
        assert native.probability_has_stable_model() == pytest.approx(
            desugared.probability_has_stable_model()
        )


class TestSampler:
    def test_estimates_match_exact_value(self, resilience_engine):
        estimate = resilience_engine.estimate_has_stable_model(n=800, seed=42)
        assert abs(estimate.value - 0.19) < 0.05
        assert estimate.samples == 800
        low, high = estimate.confidence_interval()
        assert low <= estimate.value <= high

    def test_marginal_estimate(self, resilience_engine):
        exact = resilience_engine.marginal("infected(2, 1)")
        estimate = resilience_engine.estimate_marginal("infected(2, 1)", n=800, seed=7)
        assert abs(estimate.value - exact) < 0.06

    def test_sampler_reproducible_with_seed(self, resilience_engine):
        first = resilience_engine.estimate_has_stable_model(n=200, seed=3)
        second = resilience_engine.estimate_has_stable_model(n=200, seed=3)
        assert first.value == pytest.approx(second.value)

    def test_sampler_stats(self, resilience_engine):
        stats = resilience_engine.sampler(seed=0).run_stats(n=200)
        assert stats.samples == 200
        assert stats.error_samples == 0
        assert 0 <= stats.has_stable_model <= 200
        assert stats.mean_depth >= 2.0
        assert stats.error_rate == 0.0

    def test_error_event_sampling_with_depth_limit(self):
        engine = GDatalogEngine(
            resilience_program(0.9),
            paper_example_database(),
            chase_config=ChaseConfig(max_depth=1),
        )
        sampler = engine.sampler(seed=0)
        stats = sampler.run_stats(n=50)
        assert stats.error_samples > 0

    def test_direct_sampler_outcomes(self, resilience_engine):
        sampler = MonteCarloSampler(resilience_engine.grounder, seed=11)
        outcomes = sampler.sample_outcomes(5)
        assert len(outcomes) == 5
        assert all(o is not None for o in outcomes)


class TestProfile:
    def test_profile_summary_reports_the_chase_and_join_engine(self, resilience_engine):
        summary = resilience_engine.profile_summary()
        assert "mode:                     incremental" in summary
        assert "-- join engine (process-wide) --" in summary
        assert "arg indexes built:" in summary


class TestDependencyExports:
    def test_networkx_export(self):
        graph = to_networkx(dime_quarter_program())
        assert set(graph.nodes()) >= {"dime", "dimetail", "somedimetail", "quarter", "quartertail"}
        negative_edges = [
            (u, v) for u, v, data in graph.edges(data=True) if data.get("negative")
        ]
        assert ("somedimetail", "quartertail") in negative_edges

    def test_networkx_is_imported_only_on_export(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from repro.gdatalog.dependency import to_networkx\n"
            "from repro.logic import parse_gdatalog_program\n"
            "program = parse_gdatalog_program(open('examples/programs/dime_quarter.dl').read())\n"
            "before = 'networkx' in sys.modules\n"
            "graph = to_networkx(program)\n"
            "print(before, 'networkx' in sys.modules, graph.number_of_nodes() > 0)\n"
        )
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, cwd=str(root), env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "True", "True"]

    def test_dot_export_dashes_negative_edges(self):
        dot = to_dot(dime_quarter_program())
        assert '"somedimetail" -> "quartertail" [style=dashed];' in dot
        assert dot.startswith("digraph")

    def test_ascii_rendering(self):
        text = format_dependency_graph(dime_quarter_program())
        assert "somedimetail -> quartertail [neg]" in text
        assert "dime -> dimetail" in text

    def test_stratification_rendering_matches_figure_1(self):
        text = format_stratification(dime_quarter_program())
        lines = text.splitlines()
        assert len(lines) == 5
        # DimeTail must come before SomeDimeTail, which must come before QuarterTail.
        order = {line.split(": ")[1]: i for i, line in enumerate(lines)}
        assert order["{dimetail}"] < order["{somedimetail}"] < order["{quartertail}"]
