"""Service and CLI integration for factorized inference: component caching,
--factorize flags, and routed serve requests."""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.cli import main
from repro.gdatalog.factorize import ProductSpace
from repro.runtime.service import InferenceService
from repro.workloads import INDEPENDENT_COINS_PROGRAM_SOURCE

COINS_DB = "\n".join(f"coin_id({i})." for i in range(1, 5))
OVERLAPPING_DB = "\n".join(f"coin_id({i})." for i in range(1, 4))


class TestFactorizedService:
    def test_space_is_a_product_and_queries_route(self):
        service = InferenceService(factorize=True)
        space = service.space(INDEPENDENT_COINS_PROGRAM_SOURCE, COINS_DB)
        assert isinstance(space, ProductSpace)
        results = service.evaluate(
            INDEPENDENT_COINS_PROGRAM_SOURCE,
            COINS_DB,
            ["heads(1)", {"type": "has_stable_model"}],
        )
        assert results == [0.5, 1.0]

    def test_components_are_cached_across_requests(self):
        service = InferenceService(factorize=True)
        service.space(INDEPENDENT_COINS_PROGRAM_SOURCE, COINS_DB)
        assert service.stats.component_misses == 4
        assert service.stats.component_hits == 0
        # A different database sharing three components: only coin 4 is
        # missing from the component cache, and nothing is re-chased for
        # coins 1..3 even though the request-level cache misses.
        service.space(INDEPENDENT_COINS_PROGRAM_SOURCE, OVERLAPPING_DB)
        assert service.stats.component_hits == 3
        assert service.stats.component_misses == 4

    def test_connected_request_falls_back(self):
        from repro.workloads import DIME_QUARTER_PROGRAM_SOURCE

        service = InferenceService(factorize=True)
        space = service.space(DIME_QUARTER_PROGRAM_SOURCE, "dime(1). dime(2). quarter(3).")
        assert not isinstance(space, ProductSpace)

    def test_clear_drops_component_cache(self):
        service = InferenceService(factorize=True)
        service.space(INDEPENDENT_COINS_PROGRAM_SOURCE, COINS_DB)
        service.clear()
        service.space(INDEPENDENT_COINS_PROGRAM_SOURCE, COINS_DB)
        assert service.stats.component_misses == 8

    @pytest.mark.parametrize("validate", [False, True])
    def test_updates_do_not_keep_old_databases_alive(self, validate):
        """Engines memoise their own spaces, so the decomposition memo keeps
        only the latest database: after a long factorized stream, an evicted
        state is garbage."""
        service = InferenceService(cache_size=4, factorize=True, validate=validate)
        program, source = INDEPENDENT_COINS_PROGRAM_SOURCE, COINS_DB
        service.evaluate(program, source, ["heads(1)"])
        first = None
        for step in range(200):
            delta = {"insert": [f"coin_id({step + 5})"], "retract": [f"coin_id({step + 1})"]}
            result = service.update(program, source, delta)
            assert result.report.mode == "component"
            source = result.database_source
            if first is None:
                first = weakref.ref(service.engine(program, source).database)
        assert service.evaluate(program, source, ["heads(204)"]) == [0.5]
        gc.collect()
        assert first is not None and first() is None


class TestFactorizedCLI:
    @pytest.fixture()
    def program_file(self, tmp_path):
        path = tmp_path / "coins.dl"
        path.write_text(INDEPENDENT_COINS_PROGRAM_SOURCE, encoding="utf-8")
        database = tmp_path / "coins.facts"
        database.write_text(COINS_DB, encoding="utf-8")
        return str(path), str(database)

    def test_query_with_factorize_flag(self, program_file, capsys):
        program, database = program_file
        code = main(["query", program, "-d", database, "--factorize", "--atom", "heads(2)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.5" in out

    def test_batch_factorized_matches_plain(self, program_file, capsys):
        program, database = program_file
        assert main(["batch", program, "-d", database, "--atom", "heads(1)", "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert (
            main(["batch", program, "-d", database, "--factorize", "--atom", "heads(1)", "--json"])
            == 0
        )
        factorized = json.loads(capsys.readouterr().out)
        assert factorized == plain

    def test_run_reports_component_summary(self, program_file, capsys):
        program, database = program_file
        assert main(["run", program, "-d", database, "--factorize"]) == 0
        out = capsys.readouterr().out
        assert "independent components:     4" in out

    def test_serve_factorized(self, program_file, capsys, monkeypatch):
        import io

        program, database = program_file
        request = json.dumps(
            {
                "id": 1,
                "program_path": program,
                "database_path": database,
                "queries": ["heads(1)", {"type": "has_stable_model"}],
            }
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", "--factorize", "--max-requests", "1"]) == 0
        response = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert response["ok"] is True
        assert response["results"] == [0.5, 1.0]

    def test_sample_with_workers(self, program_file, capsys):
        program, database = program_file
        code = main(
            ["sample", program, "-d", database, "-n", "200", "--seed", "3", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 workers" in out
