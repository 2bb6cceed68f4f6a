"""The ``check`` op and the validation gate's 400 contract, both transports.

Protocol level: ``op: "check"`` returns structured diagnostics without
evaluating anything, and a validating service turns bad programs into
``ok: false`` responses that carry the diagnostics list.  HTTP level:
``POST /v1/check`` answers 200 with the findings; ``POST /v1/query`` with
a program that fails the static checks answers 400 with the same
structured payload.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.service import InferenceService
from repro.server.client import http_json
from repro.server.http import InferenceServer, ServerConfig
from repro.server.protocol import answer

CLEAN_PROGRAM = """
coin1(X, flip<0.5>[1, X]) :- src1(X).
hit1(X) :- coin1(X, 1).
"""
CLEAN_DATABASE = "src1(1)."
UNSAFE_PROGRAM = "h(X, Y) :- b(X).\nc(flipp<0.5>).\n"
COIN_PROGRAM = (
    "coin(flip<0.5>).\naux2 :- coin(1), not aux1.\n"
    "aux1 :- coin(1), not aux2.\n:- coin(0)."
)


@pytest.fixture()
def service() -> InferenceService:
    return InferenceService(cache_size=4, validate=True)


class TestCheckOp:
    def test_clean_program_reports_clean(self, service):
        response = answer(
            service,
            {"id": 1, "op": "check", "program": CLEAN_PROGRAM, "database": CLEAN_DATABASE},
        )
        assert response["ok"] and response["clean"]
        assert response["errors"] == 0
        assert response["id"] == 1
        assert response["program_digest"]
        assert "stratified" in response["strategy"]

    def test_check_reports_findings_as_data_not_failure(self, service):
        response = answer(service, {"op": "check", "program": UNSAFE_PROGRAM})
        assert response["ok"] is True  # the check itself ran
        assert response["clean"] is False
        assert response["errors"] >= 2
        codes = {d["code"] for d in response["diagnostics"]}
        assert codes >= {"GDL001", "GDL003"}
        spans = [d["span"] for d in response["diagnostics"] if "span" in d]
        assert spans and all("line" in span for span in spans)

    def test_check_carries_warnings_for_evaluable_programs(self, service):
        response = answer(service, {"op": "check", "program": COIN_PROGRAM})
        assert response["ok"] and response["clean"]
        assert response["warnings"] >= 1
        assert any(d["code"] == "GDL010" for d in response["diagnostics"])
        assert response["strategy"]["stratified"] is False

    def test_check_works_without_validation_enabled(self):
        response = answer(
            InferenceService(cache_size=4), {"op": "check", "program": UNSAFE_PROGRAM}
        )
        assert response["ok"] and not response["clean"]

    def test_check_does_not_populate_the_engine_cache(self, service):
        answer(service, {"op": "check", "program": CLEAN_PROGRAM, "database": CLEAN_DATABASE})
        counters = service.stats.snapshot()
        assert counters["hits"] == 0 and counters["misses"] == 0


class TestValidationGateResponses:
    def test_query_on_bad_program_returns_diagnostics(self, service):
        response = answer(
            service,
            {"id": "q1", "program": UNSAFE_PROGRAM, "queries": ["h(1, 1)"]},
        )
        assert response["ok"] is False and response["id"] == "q1"
        assert "DiagnosticsError" in response["error"]
        codes = {d["code"] for d in response["diagnostics"]}
        assert "GDL001" in codes

    def test_update_on_bad_program_returns_diagnostics(self, service):
        response = answer(
            service,
            {
                "program": UNSAFE_PROGRAM,
                "database": "b(1).",
                "delta": {"insert": ["b(2)"]},
            },
        )
        assert response["ok"] is False
        assert any(d["code"] == "GDL001" for d in response.get("diagnostics", []))

    def test_clean_queries_still_answer(self, service):
        response = answer(
            service,
            {"program": CLEAN_PROGRAM, "database": CLEAN_DATABASE, "queries": ["hit1(1)"]},
        )
        assert response["ok"] and response["results"] == [0.5]

    def test_without_validation_no_diagnostics_payload(self):
        response = answer(
            InferenceService(cache_size=4),
            {"program": UNSAFE_PROGRAM, "queries": ["h(1, 1)"]},
        )
        assert response["ok"] is False
        assert "diagnostics" not in response


class TestHttpCheckEndpoint:
    def _run_with_server(self, scenario):
        async def runner():
            server = InferenceServer(
                ServerConfig(port=0, shards=1, validate=True)
            )
            await server.start()
            try:
                await server.wait_ready(timeout=20.0)
                return await scenario(server.port)
            finally:
                await server.stop(drain=False)

        return asyncio.run(runner())

    def test_check_route_and_400_on_invalid_query(self):
        async def scenario(port: int):
            check_clean = await http_json(
                "127.0.0.1", port, "POST", "/v1/check",
                {"id": "c1", "program": CLEAN_PROGRAM, "database": CLEAN_DATABASE},
            )
            check_bad = await http_json(
                "127.0.0.1", port, "POST", "/v1/check",
                {"id": "c2", "program": UNSAFE_PROGRAM},
            )
            query_bad = await http_json(
                "127.0.0.1", port, "POST", "/v1/query",
                {"id": "q1", "program": UNSAFE_PROGRAM, "queries": ["h(1, 1)"]},
            )
            query_clean = await http_json(
                "127.0.0.1", port, "POST", "/v1/query",
                {
                    "id": "q2",
                    "program": CLEAN_PROGRAM,
                    "database": CLEAN_DATABASE,
                    "queries": ["hit1(1)"],
                },
            )
            return check_clean, check_bad, query_bad, query_clean

        check_clean, check_bad, query_bad, query_clean = self._run_with_server(scenario)

        status, payload = check_clean
        assert status == 200 and payload["ok"] and payload["clean"]

        # A check that *finds* problems still succeeds as a request.
        status, payload = check_bad
        assert status == 200 and payload["ok"] and not payload["clean"]
        assert any(d["code"] == "GDL001" for d in payload["diagnostics"])

        # The validation gate rejects the same program on the query route.
        status, payload = query_bad
        assert status == 400 and not payload["ok"] and payload["id"] == "q1"
        assert any(d["code"] == "GDL001" for d in payload["diagnostics"])

        status, payload = query_clean
        assert status == 200 and payload["ok"] and payload["results"] == [0.5]
