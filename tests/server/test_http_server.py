"""End-to-end HTTP/WebSocket serving under concurrency.

The load-bearing assertions of the serving subsystem:

* ≥ 32 simultaneous clients (a shared hot program plus distinct cold
  programs) receive answers **bit-identical** to direct
  :meth:`InferenceService.evaluate` calls;
* shard routing is deterministic, so the hot program's cache traffic all
  lands on one worker;
* overload produces ``429``/``503`` with ``Retry-After`` — never a crash,
  a hang, or unbounded queue growth;
* a killed shard worker is respawned transparently;
* draining finishes in-flight requests before the server stops, and the
  CLI process exits cleanly on SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.service import InferenceService
from repro.server.client import (
    HttpConnection,
    WebSocketConnection,
    http_json,
    wait_until_healthy,
)
from repro.server.http import InferenceServer, ServerConfig

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

COLUMN_TEMPLATE = """
coin{c}(X, flip<0.5>[{c}, X]) :- src{c}(X).
hit{c}(X) :- coin{c}(X, 1).
"""


def _program(columns: int, salt: str = "") -> str:
    body = "\n".join(COLUMN_TEMPLATE.format(c=c) for c in range(1, columns + 1))
    if salt:
        body += f"\nmarker_{salt}(X) :- src1(X).\n"
    return body


def _database(columns: int) -> str:
    return " ".join(f"src{c}(1)." for c in range(1, columns + 1))


HOT_PROGRAM = _program(4)
HOT_DATABASE = _database(4)
HOT_QUERIES = ["hit1(1)", "hit2(1)", {"type": "has_stable_model"}]


def _run(coro):
    return asyncio.run(coro)


def _metric(text, name: str) -> float:
    """The value of the unlabelled series *name* in a ``/metrics`` scrape."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for line in text.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    raise AssertionError(f"{name} missing from /metrics")


async def _with_server(config: ServerConfig, scenario):
    server = InferenceServer(config)
    await server.start()
    try:
        await server.wait_ready(timeout=20.0)
        return await scenario(server)
    finally:
        await server.stop(drain=False)


class TestConcurrentServing:
    def test_32_clients_get_bit_identical_answers(self):
        """The acceptance-criteria core: heavy concurrency, exact answers."""
        cold_programs = [(_program(3, salt=f"c{i}"), _database(3)) for i in range(8)]

        async def scenario(server: InferenceServer):
            port = server.port

            async def hot_client(index: int):
                responses = []
                connection = await HttpConnection.open("127.0.0.1", port)
                try:
                    for round_ in range(3):
                        status, payload = await connection.post_json(
                            "/v1/query",
                            {
                                "id": f"hot-{index}-{round_}",
                                "program": HOT_PROGRAM,
                                "database": HOT_DATABASE,
                                "queries": HOT_QUERIES,
                            },
                            headers={"X-Client-Id": f"hot-{index}"},
                        )
                        responses.append((status, payload))
                finally:
                    await connection.close()
                return responses

            async def cold_client(index: int):
                program, database = cold_programs[index % len(cold_programs)]
                status, payload = await http_json(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/query",
                    {
                        "id": f"cold-{index}",
                        "program": program,
                        "database": database,
                        "queries": ["hit1(1)", "hit3(1)"],
                    },
                    headers={"X-Client-Id": f"cold-{index}"},
                )
                return status, payload

            hot = [hot_client(i) for i in range(24)]
            cold = [cold_client(i) for i in range(8)]
            results = await asyncio.gather(*hot, *cold)
            status, metrics = await http_json("127.0.0.1", port, "GET", "/metrics")
            assert status == 200
            return results, metrics

        results, metrics = _run(
            _with_server(
                ServerConfig(port=0, shards=2, max_queue=256), scenario
            )
        )
        hot_results, cold_results = results[:24], results[24:]
        # Requests that arrive behind an in-flight pass on the same key share
        # the next one: fewer passes than requests.
        passes = _metric(metrics, "gdatalog_microbatch_batches_total")
        assert passes < _metric(metrics, "gdatalog_microbatch_requests_total")

        direct = InferenceService()
        hot_expected = direct.evaluate(HOT_PROGRAM, HOT_DATABASE, HOT_QUERIES)
        for responses in hot_results:
            assert len(responses) == 3
            for index, (status, payload) in enumerate(responses):
                assert status == 200 and payload["ok"]
                assert payload["results"] == hot_expected  # bit-identical floats
                assert payload["id"].endswith(f"-{index}")
        for index, (status, payload) in enumerate(cold_results):
            program, database = cold_programs[index % len(cold_programs)]
            expected = direct.evaluate(program, database, ["hit1(1)", "hit3(1)"])
            assert status == 200 and payload["ok"]
            assert payload["results"] == expected
            assert payload["id"] == f"cold-{index}"

    def test_routing_is_deterministic_and_isolates_the_hot_shard(self):
        async def scenario(server: InferenceServer):
            port = server.port
            shard = server.router.shard_for(HOT_PROGRAM)
            assert shard == server.router.shard_for(HOT_PROGRAM)
            tasks = [
                http_json(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/query",
                    {
                        "id": i,
                        "program": HOT_PROGRAM,
                        "database": HOT_DATABASE,
                        "queries": ["hit1(1)"],
                    },
                    headers={"X-Client-Id": f"client-{i}"},
                )
                for i in range(16)
            ]
            responses = await asyncio.gather(*tasks)
            stats = await server.router.shard_stats(timeout=5.0)
            return shard, responses, stats

        shard, responses, stats = _run(
            _with_server(ServerConfig(port=0, shards=2), scenario)
        )
        assert all(status == 200 and payload["ok"] for status, payload in responses)
        hot_stats = stats[shard]["service"]
        other_stats = stats[1 - shard]["service"]
        # All hot traffic landed on one shard; the other shard's engine
        # cache never saw the program (per-shard isolation).
        assert hot_stats["hits"] + hot_stats["misses"] >= 1
        assert other_stats["hits"] == 0 and other_stats["misses"] == 0

    def test_overload_sheds_with_429_not_queue_growth(self):
        async def scenario(server: InferenceServer):
            port = server.port
            tasks = [
                http_json(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/query",
                    {
                        "id": i,
                        "program": HOT_PROGRAM,
                        "database": HOT_DATABASE,
                        "queries": ["hit1(1)"],
                    },
                    headers={"X-Client-Id": "greedy"},  # one client, many requests
                )
                for i in range(24)
            ]
            responses = await asyncio.gather(*tasks)
            healthz = await http_json("127.0.0.1", port, "GET", "/healthz")
            return responses, healthz

        responses, healthz = _run(
            _with_server(
                ServerConfig(
                    port=0, shards=1, client_rate=0.001, client_burst=4
                ),
                scenario,
            )
        )
        statuses = sorted(status for status, _ in responses)
        assert statuses.count(200) == 4  # exactly the burst budget
        assert statuses.count(429) == 20
        for status, payload in responses:
            if status == 429:
                assert not payload["ok"] and payload["retry_after"] > 0
                assert payload["id"] is not None
        # The server survived the burst and still answers.
        assert healthz[0] == 200 and healthz[1]["ok"]

    def test_queue_full_sheds_with_503(self):
        # One shard, queue bound 1: concurrent requests beyond the single
        # in-flight slot must answer 503 (never hang or crash).
        slow_program = _program(10)
        slow_database = _database(10)

        async def scenario(server: InferenceServer):
            port = server.port
            tasks = [
                http_json(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/query",
                    {
                        "id": i,
                        "program": slow_program,
                        "database": slow_database,
                        "queries": ["hit1(1)"],
                    },
                    headers={"X-Client-Id": f"client-{i}"},
                )
                for i in range(12)
            ]
            return await asyncio.gather(*tasks)

        responses = _run(
            _with_server(
                ServerConfig(port=0, shards=1, max_queue=1), scenario
            )
        )
        statuses = [status for status, _ in responses]
        assert 200 in statuses and 503 in statuses
        expected = InferenceService().evaluate(slow_program, slow_database, ["hit1(1)"])
        for status, payload in responses:
            if status == 200:
                assert payload["results"] == expected
            else:
                assert status == 503 and not payload["ok"]

    def test_worker_crash_respawns_through_http(self):
        async def scenario(server: InferenceServer):
            port = server.port
            request = {
                "program": HOT_PROGRAM,
                "database": HOT_DATABASE,
                "queries": ["hit1(1)"],
            }
            first = await http_json(
                "127.0.0.1", port, "POST", "/v1/query", dict(request, id="before")
            )
            shard = server.router.shard_for(HOT_PROGRAM)
            os.kill(server.router.worker_pids()[shard], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while server.router.worker_alive(shard) and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            second = await http_json(
                "127.0.0.1", port, "POST", "/v1/query", dict(request, id="after")
            )
            return first, second, server.router.respawns[shard]

        first, second, respawns = _run(
            _with_server(ServerConfig(port=0, shards=2), scenario)
        )
        assert first[0] == 200 and first[1]["results"] == [0.5]
        assert second[0] == 200 and second[1]["results"] == [0.5]
        assert respawns == 1


class TestTransportsAgree:
    def test_websocket_round_trip_matches_http_and_direct(self):
        async def scenario(server: InferenceServer):
            port = server.port
            ws = await WebSocketConnection.open("127.0.0.1", port)
            try:
                await ws.send_json(
                    {
                        "id": "ws-1",
                        "program": HOT_PROGRAM,
                        "database": HOT_DATABASE,
                        "queries": HOT_QUERIES,
                    }
                )
                ws_response = await ws.recv_json()
                await ws.send_json({"id": "ws-2", "queries": ["hit1(1)"]})  # missing program
                ws_error = await ws.recv_json()
            finally:
                await ws.close()
            http_response = await http_json(
                "127.0.0.1",
                port,
                "POST",
                "/v1/query",
                {
                    "id": "http-1",
                    "program": HOT_PROGRAM,
                    "database": HOT_DATABASE,
                    "queries": HOT_QUERIES,
                },
            )
            return ws_response, ws_error, http_response

        ws_response, ws_error, http_response = _run(
            _with_server(ServerConfig(port=0, shards=1), scenario)
        )
        expected = InferenceService().evaluate(HOT_PROGRAM, HOT_DATABASE, HOT_QUERIES)
        assert ws_response["ok"] and ws_response["results"] == expected
        assert ws_response["id"] == "ws-1"
        assert not ws_error["ok"] and ws_error["id"] == "ws-2" and ws_error["status"] == 400
        assert http_response[1]["results"] == expected

    def test_batch_and_sample_routes(self):
        async def scenario(server: InferenceServer):
            port = server.port
            batch = await http_json(
                "127.0.0.1",
                port,
                "POST",
                "/v1/batch",
                {
                    "id": "b",
                    "program": HOT_PROGRAM,
                    "database": HOT_DATABASE,
                    "queries": HOT_QUERIES,
                },
            )
            sample = await http_json(
                "127.0.0.1",
                port,
                "POST",
                "/v1/sample",
                {
                    "id": "s",
                    "program": HOT_PROGRAM,
                    "database": HOT_DATABASE,
                    "queries": ["hit1(1)"],
                    "seed": 11,
                    "half_width": 0.05,
                },
            )
            return batch, sample

        batch, sample = _run(
            _with_server(ServerConfig(port=0, shards=1), scenario)
        )
        direct = InferenceService()
        assert batch[0] == 200
        assert batch[1]["results"] == direct.evaluate(HOT_PROGRAM, HOT_DATABASE, HOT_QUERIES)
        assert sample[0] == 200
        expected = direct.estimate(
            HOT_PROGRAM, HOT_DATABASE, "hit1(1)", target_half_width=0.05, seed=11
        ).value
        assert sample[1]["results"] == [expected]  # seeded adaptive sampling is deterministic

    def test_metrics_exposes_histograms_and_shard_counters(self):
        async def scenario(server: InferenceServer):
            port = server.port
            for index in range(3):
                await http_json(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/query",
                    {
                        "id": index,
                        "program": HOT_PROGRAM,
                        "database": HOT_DATABASE,
                        "queries": ["hit1(1)"],
                    },
                )
            status, body = await http_json("127.0.0.1", port, "GET", "/metrics")
            return status, body if isinstance(body, str) else body.decode("utf-8")

        status, text = _run(
            _with_server(ServerConfig(port=0, shards=2), scenario)
        )
        assert status == 200
        assert 'gdatalog_requests_total{route="query",status="200"} 3' in text
        assert "gdatalog_request_seconds_bucket" in text
        assert 'gdatalog_service_cache{counter="hits",shard=' in text
        assert 'gdatalog_join_counters{counter="index_probes",shard=' in text
        assert "gdatalog_shard_up" in text
        assert "gdatalog_microbatch_batches_total" in text


class TestDrain:
    def test_drain_finishes_inflight_then_rejects_new(self):
        async def scenario(server: InferenceServer):
            port = server.port
            slow = {
                "id": "slow",
                "program": _program(11),
                "database": _database(11),
                "queries": ["hit1(1)"],
            }
            task = asyncio.create_task(
                http_json("127.0.0.1", port, "POST", "/v1/query", slow)
            )
            await asyncio.sleep(0.1)  # the request is in flight
            server.begin_drain()
            status, payload = await task
            drained = await server.drain(timeout=20.0)
            return status, payload, drained

        status, payload, drained = _run(
            _with_server(ServerConfig(port=0, shards=1), scenario)
        )
        assert status == 200 and payload["ok"] and payload["id"] == "slow"
        assert drained

    def test_healthz_reports_draining(self):
        async def scenario(server: InferenceServer):
            port = server.port
            # Drain with an open keep-alive connection: the listener closes,
            # but the established connection can still read the 503 verdict.
            connection = await HttpConnection.open("127.0.0.1", port)
            try:
                server.begin_drain()
                response = await connection.request("GET", "/healthz")
                return response.status, response.json(), response.headers
            finally:
                await connection.close()

        status, payload, headers = _run(
            _with_server(ServerConfig(port=0, shards=1), scenario)
        )
        assert status == 503 and payload["draining"]
        assert headers.get("retry-after") == "1"


class TestServeCliHttp:
    def _spawn(self, *extra_args: str) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--http",
                "127.0.0.1:0",
                "--shards",
                "1",
                *extra_args,
            ],
            env=env,
            cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    @staticmethod
    def _port_from_stderr(process: subprocess.Popen, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        line = ""
        while time.monotonic() < deadline:
            line = process.stderr.readline()
            if "serving on http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if process.poll() is not None:
                break
            time.sleep(0.01)
        raise AssertionError(f"server did not announce its port (last line: {line!r})")

    def test_sigterm_drains_and_exits_cleanly(self):
        process = self._spawn()
        try:
            port = self._port_from_stderr(process)

            async def round_trip():
                await wait_until_healthy("127.0.0.1", port, timeout=20.0)
                return await http_json(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/query",
                    {
                        "id": "cli",
                        "program": HOT_PROGRAM,
                        "database": HOT_DATABASE,
                        "queries": ["hit1(1)"],
                    },
                )

            status, payload = _run(round_trip())
            assert status == 200 and payload["results"] == [0.5]
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "drained cleanly" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)

    def test_http_flag_parsing_errors_are_readable(self):
        from repro.cli import main

        assert main(["serve", "--http", "not-a-port"]) == 1


STREAM_PROGRAM = """
coin(X, flip<0.5>[X]) :- src(X).
hit(X) :- coin(X, 1).
base(X) :- src(X), aux(X).
"""
STREAM_DATABASE = "src(1). src(2). aux(1)."


class TestStreamingUpdates:
    """POST /v1/update: maintain, answer post-delta, survive crashes."""

    def test_update_round_trips_through_the_sharded_server(self):
        async def scenario(server: InferenceServer):
            port = server.port
            opening = await http_json(
                "127.0.0.1", port, "POST", "/v1/query",
                {
                    "id": "open", "stream": "lap",
                    "program": STREAM_PROGRAM, "database": STREAM_DATABASE,
                    "queries": ["base(1)", "base(2)"],
                },
            )
            update = await http_json(
                "127.0.0.1", port, "POST", "/v1/update",
                {
                    "id": "u1", "stream": "lap",
                    "delta": {"insert": ["aux(2)"]},
                    "queries": ["base(2)", "hit(2)"],
                },
            )
            follow_up = await http_json(
                "127.0.0.1", port, "POST", "/v1/query",
                {"id": "q2", "stream": "lap", "queries": ["base(2)"]},
            )
            retract = await http_json(
                "127.0.0.1", port, "POST", "/v1/update",
                {
                    "id": "u2", "stream": "lap",
                    "delta": {"retract": ["aux(1)"]},
                    "queries": ["base(1)"],
                },
            )
            metrics = await http_json("127.0.0.1", port, "GET", "/metrics")
            return opening, update, follow_up, retract, metrics

        opening, update, follow_up, retract, metrics = _run(
            _with_server(ServerConfig(port=0, shards=2), scenario)
        )
        assert opening[0] == 200 and opening[1]["results"] == [1.0, 0.0]
        assert update[0] == 200 and update[1]["results"] == [1.0, 0.5]
        assert update[1]["update"]["mode"] == "patch"
        # Post-delta marginals match a direct service over the same state.
        direct = InferenceService()
        direct_result = direct.update(
            STREAM_PROGRAM, STREAM_DATABASE, {"insert": ["aux(2)"]}
        )
        assert update[1]["database"] == direct_result.database_source
        assert update[1]["results"] == direct.evaluate(
            STREAM_PROGRAM, direct_result.database_source, ["base(2)", "hit(2)"]
        )
        assert follow_up[0] == 200 and follow_up[1]["results"] == [1.0]
        assert retract[0] == 200 and retract[1]["results"] == [0.0]
        body = metrics[1]
        text = body.decode() if isinstance(body, bytes) else str(body)
        assert "gdatalog_updates_applied_total 2" in text
        assert "gdatalog_subtrees_invalidated_total" in text
        assert "gdatalog_subtrees_reused_total" in text
        assert "gdatalog_chase_reuse_ratio" in text

    def test_bad_delta_is_a_400_not_a_crash(self):
        async def scenario(server: InferenceServer):
            return await http_json(
                "127.0.0.1", server.port, "POST", "/v1/update",
                {
                    "program": STREAM_PROGRAM, "database": STREAM_DATABASE,
                    "delta": {"isnert": ["aux(2)"]},
                },
            )

        status, payload = _run(
            _with_server(ServerConfig(port=0, shards=1), scenario)
        )
        assert status == 400 and not payload["ok"]
        assert "unknown delta spec keys" in payload["error"]

    def test_worker_crash_mid_stream_rebuilds_from_the_front_end_state(self):
        async def scenario(server: InferenceServer):
            port = server.port
            await http_json(
                "127.0.0.1", port, "POST", "/v1/query",
                {
                    "stream": "lap",
                    "program": STREAM_PROGRAM, "database": STREAM_DATABASE,
                    "queries": ["base(1)"],
                },
            )
            await http_json(
                "127.0.0.1", port, "POST", "/v1/update",
                {"stream": "lap", "delta": {"insert": ["aux(2)"]}},
            )
            shard = server.router.shard_for(STREAM_PROGRAM)
            os.kill(server.router.worker_pids()[shard], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while server.router.worker_alive(shard) and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            # The stream's post-delta database lives in the front end, so
            # the respawned (cold) worker answers correctly from the
            # forwarded request alone.
            after = await http_json(
                "127.0.0.1", port, "POST", "/v1/update",
                {
                    "stream": "lap",
                    "delta": {"retract": ["aux(1)"]},
                    "queries": ["base(1)", "base(2)"],
                },
            )
            return after, server.router.respawns[shard]

        after, respawns = _run(
            _with_server(ServerConfig(port=0, shards=2), scenario)
        )
        assert after[0] == 200 and after[1]["results"] == [0.0, 1.0]
        assert respawns == 1
