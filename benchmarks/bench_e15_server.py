"""E15 — the async inference server vs. the single-client stdin loop.

The serving subsystem (:mod:`repro.server`) exists to turn one engine cache
into a network service that *gains* throughput under concurrency: sharded
worker processes keep per-shard caches hot, and the cross-request
micro-batcher coalesces concurrent queries on the same (program, database)
into one :class:`~repro.runtime.batch.QueryBatch` outcome scan, so N
clients asking the hot program pay the per-outcome walk once instead of N
times.  This driver is the acceptance gate for that claim:

* **bit-identical answers under load**: ≥ 32 simultaneous clients — a
  shared hot program, distinct cold programs, batch requests and a seeded
  adaptive-sampling request — all receive exactly the floats a direct
  :meth:`InferenceService.evaluate` / :meth:`estimate` call returns;
* **≥ 2× throughput** over the single-client ``gdatalog serve`` stdin
  JSON-lines loop on the hot-program workload, as the median of
  :data:`SPEEDUP_PAIRS` interleaved pairs of timed runs;
* **p50/p99 request latencies** are printed and recorded in
  ``BENCH_e15.json`` (``extra_info``), alongside both throughputs;
* **overload sheds, never crashes**: a burst past the client budget yields
  exactly ``burst`` successes and ``429`` for the rest, and the server
  still answers ``/healthz`` afterwards.

The server boots behind :func:`repro.server.client.wait_until_healthy`, so
a hung startup fails the bench within its timeout instead of stalling CI.
No NumPy required — the whole stack is pure stdlib + repro.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis import TextTable
from repro.runtime.service import InferenceService
from repro.server.client import HttpConnection, http_json, wait_until_healthy
from repro.server.http import InferenceServer, ServerConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

CONCURRENT_CLIENTS = 32
#: Hot-program rounds each concurrent client drives during the timed run.
ROUNDS_PER_CLIENT = 6
#: Sequential requests timed against the stdin-loop baseline.
BASELINE_REQUESTS = 48
#: Required server-over-stdin-loop throughput multiple on the hot workload.
TARGET_SPEEDUP = 2.0
#: Interleaved (stdin loop, server) throughput pairs; the speedup is the
#: median of their ratios, so a slow moment of the host skews one pair only.
SPEEDUP_PAIRS = 3

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


#: 10 independent coins → a 1024-outcome space: each exact request walks it,
#: which is exactly the per-request cost micro-batching amortizes.
HOT_COLUMNS = 10
HOT_PROGRAM = _program(HOT_COLUMNS)
HOT_DATABASE = _database(HOT_COLUMNS)
HOT_QUERIES = ["hit1(1)", "hit7(1)"]

COLD_PROGRAMS = [(_program(6, salt=f"cold{i}"), _database(6)) for i in range(6)]
SAMPLE_SEED = 1105


def _hot_request(request_id) -> dict:
    return {
        "id": request_id,
        "program": HOT_PROGRAM,
        "database": HOT_DATABASE,
        "queries": HOT_QUERIES,
    }


# -- the stdin-loop baseline ----------------------------------------------------------


class StdinLoop:
    """A single client of ``gdatalog serve`` (the JSON-lines stdin transport)."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"],
            env=env,
            cwd=str(REPO_ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )

    def ask(self, request: dict) -> dict:
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise AssertionError("stdin serve loop died")
        return json.loads(line)

    def timed(self, latencies: list) -> float:
        """Requests/second over :data:`BASELINE_REQUESTS` sequential hot requests."""
        start = time.perf_counter()
        for index in range(BASELINE_REQUESTS):
            sent = time.perf_counter()
            response = self.ask(_hot_request(index))
            latencies.append(time.perf_counter() - sent)
            assert response["ok"] and response["id"] == index
        return BASELINE_REQUESTS / (time.perf_counter() - start)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=30)


# -- the concurrent server workload ---------------------------------------------------


async def _hot_client(port: int, client_id: str, rounds: int, latencies: list):
    connection = await HttpConnection.open("127.0.0.1", port)
    results = []
    try:
        for round_ in range(rounds):
            sent = time.perf_counter()
            status, payload = await connection.post_json(
                "/v1/query",
                _hot_request(f"{client_id}-{round_}"),
                headers={"X-Client-Id": client_id},
            )
            latencies.append(time.perf_counter() - sent)
            assert status == 200, payload
            results.append(payload["results"])
    finally:
        await connection.close()
    return results


async def _cold_client(port: int, index: int, latencies: list):
    program, database = COLD_PROGRAMS[index % len(COLD_PROGRAMS)]
    sent = time.perf_counter()
    status, payload = await http_json(
        "127.0.0.1",
        port,
        "POST",
        "/v1/query",
        {"id": f"cold-{index}", "program": program, "database": database,
         "queries": ["hit1(1)", "hit5(1)"]},
        headers={"X-Client-Id": f"cold-{index}"},
    )
    latencies.append(time.perf_counter() - sent)
    assert status == 200, payload
    return payload["results"]


async def _batch_client(port: int, index: int, latencies: list):
    sent = time.perf_counter()
    status, payload = await http_json(
        "127.0.0.1", port, "POST", "/v1/batch", _hot_request(f"batch-{index}"),
        headers={"X-Client-Id": f"batch-{index}"},
    )
    latencies.append(time.perf_counter() - sent)
    assert status == 200, payload
    return payload["results"]


async def _sample_client(port: int, index: int, latencies: list):
    sent = time.perf_counter()
    status, payload = await http_json(
        "127.0.0.1",
        port,
        "POST",
        "/v1/sample",
        {"id": f"sample-{index}", "program": HOT_PROGRAM, "database": HOT_DATABASE,
         "queries": ["hit1(1)"], "seed": SAMPLE_SEED, "half_width": 0.25,
         "max_samples": 64},
        headers={"X-Client-Id": f"sample-{index}"},
    )
    latencies.append(time.perf_counter() - sent)
    assert status == 200, payload
    return payload["results"]


async def _hot_phase(port: int, label: str, latencies: list) -> tuple[float, list]:
    """(requests/second, per-client results) of 32 keep-alive clients."""
    start = time.perf_counter()
    results = await asyncio.gather(
        *(
            _hot_client(port, f"{label}-{i}", ROUNDS_PER_CLIENT, latencies)
            for i in range(CONCURRENT_CLIENTS)
        )
    )
    return CONCURRENT_CLIENTS * ROUNDS_PER_CLIENT / (time.perf_counter() - start), results


async def _run_server_workloads(stdin: StdinLoop | None = None) -> dict:
    """Boot the server, run the hot throughput phase then the mixed phase.

    With a warm *stdin* loop, the hot phase runs :data:`SPEEDUP_PAIRS`
    times, each paired with a timed run of the loop; the pairs alternate
    which side goes first.
    """
    server = InferenceServer(
        ServerConfig(port=0, shards=2, max_queue=256)
    )
    await server.start()
    try:
        await server.wait_ready(timeout=30.0)
        await wait_until_healthy("127.0.0.1", server.port, timeout=10.0)
        port = server.port

        # Warm the hot shard (first chase of the 1024-outcome space).
        warm_status, warm = await http_json(
            "127.0.0.1", port, "POST", "/v1/query", _hot_request("warm")
        )
        assert warm_status == 200, warm

        # Phase 1 — hot-program throughput: 32 keep-alive clients.
        hot_latencies: list[float] = []
        stdin_latencies: list[float] = []
        hot_results: list = []
        pairs: list[tuple[float, float]] = []
        for pair in range(SPEEDUP_PAIRS if stdin is not None else 1):
            stdin_rps = 0.0
            if stdin is not None and pair % 2 == 0:
                stdin_rps = await asyncio.to_thread(stdin.timed, stdin_latencies)
            hot_rps, results = await _hot_phase(port, f"hot{pair}", hot_latencies)
            if stdin is not None and pair % 2 == 1:
                stdin_rps = await asyncio.to_thread(stdin.timed, stdin_latencies)
            hot_results.extend(results)
            pairs.append((stdin_rps, hot_rps))

        # Phase 2 — mixed workload, still ≥ 32 simultaneous clients:
        # ~70% hot + distinct cold programs + batch route + seeded sampling.
        mixed_latencies: list[float] = []
        mixed = await asyncio.gather(
            *(
                _hot_client(port, f"mixed-hot-{i}", 2, mixed_latencies)
                for i in range(22)
            ),
            *(_cold_client(port, i, mixed_latencies) for i in range(6)),
            *(_batch_client(port, i, mixed_latencies) for i in range(2)),
            *(_sample_client(port, i, mixed_latencies) for i in range(2)),
        )
        status, metrics_text = await http_json("127.0.0.1", port, "GET", "/metrics")
        assert status == 200
        if isinstance(metrics_text, bytes):
            metrics_text = metrics_text.decode("utf-8")
    finally:
        await server.stop(drain=False)
    return {
        "hot_results": hot_results,
        "pairs": pairs,
        "hot_requests": len(hot_latencies),
        "hot_latencies": hot_latencies,
        "stdin_latencies": stdin_latencies,
        "mixed": mixed,
        "mixed_latencies": mixed_latencies,
        "metrics_text": metrics_text,
    }


def _quantile_ms(latencies: list[float], q: float) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index] * 1000.0


# -- gates ----------------------------------------------------------------------------


def test_e15_bit_identical_under_concurrency():
    """≥ 32 simultaneous clients, every answer equal to the direct call."""
    measured = asyncio.run(_run_server_workloads())
    direct = InferenceService()
    hot_expected = direct.evaluate(HOT_PROGRAM, HOT_DATABASE, HOT_QUERIES)
    for per_client in measured["hot_results"]:
        assert len(per_client) == ROUNDS_PER_CLIENT
        for results in per_client:
            assert results == hot_expected  # no tolerance: identical floats

    mixed = measured["mixed"]
    hot_part, cold_part = mixed[:22], mixed[22:28]
    batch_part, sample_part = mixed[28:30], mixed[30:32]
    for per_client in hot_part:
        assert all(results == hot_expected for results in per_client)
    for index, results in enumerate(cold_part):
        program, database = COLD_PROGRAMS[index % len(COLD_PROGRAMS)]
        assert results == direct.evaluate(program, database, ["hit1(1)", "hit5(1)"])
    for results in batch_part:
        assert results == hot_expected
    sample_expected = direct.estimate(
        HOT_PROGRAM,
        HOT_DATABASE,
        "hit1(1)",
        target_half_width=0.25,
        seed=SAMPLE_SEED,
        max_samples=64,
    ).value
    for results in sample_part:
        assert results == [sample_expected]  # seeded sampling is deterministic


def test_e15_overload_sheds_and_survives():
    """Past the client budget: exactly `burst` 200s, 429 for the rest, no crash."""

    async def scenario():
        server = InferenceServer(
            ServerConfig(
                port=0, shards=1, client_rate=0.001, client_burst=8
            )
        )
        await server.start()
        try:
            await server.wait_ready(timeout=30.0)
            port = server.port
            responses = await asyncio.gather(
                *(
                    http_json(
                        "127.0.0.1", port, "POST", "/v1/query",
                        _hot_request(i), headers={"X-Client-Id": "flood"},
                    )
                    for i in range(40)
                )
            )
            healthz = await http_json("127.0.0.1", port, "GET", "/healthz")
            return responses, healthz
        finally:
            await server.stop(drain=False)

    responses, healthz = asyncio.run(scenario())
    statuses = [status for status, _ in responses]
    assert set(statuses) <= {200, 429}  # shed, never dropped or crashed
    assert statuses.count(200) == 8
    for status, payload in responses:
        if status == 429:
            assert not payload["ok"] and payload["retry_after"] > 0
    assert healthz[0] == 200 and healthz[1]["ok"]


def test_e15_report(benchmark):
    def sweep():
        stdin = StdinLoop()
        try:
            warm = stdin.ask(_hot_request("warm"))
            assert warm["ok"], warm
            measured = asyncio.run(_run_server_workloads(stdin))
        finally:
            stdin.close()
        return warm["results"], measured

    stdin_results, measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Correctness first: both transports agree with the direct call.
    expected = InferenceService().evaluate(HOT_PROGRAM, HOT_DATABASE, HOT_QUERIES)
    assert stdin_results == expected
    assert all(
        results == expected
        for per_client in measured["hot_results"]
        for results in per_client
    )

    stdin_rps = statistics.median(stdin for stdin, _ in measured["pairs"])
    server_rps = statistics.median(server for _, server in measured["pairs"])
    ratios = [server / stdin for stdin, server in measured["pairs"]]
    speedup = statistics.median(ratios)
    stdin_latencies = measured["stdin_latencies"]
    rows = [
        ("stdin loop (1 client)", len(stdin_latencies), 1, stdin_rps, stdin_latencies),
        (
            f"http server ({CONCURRENT_CLIENTS} clients)",
            measured["hot_requests"],
            CONCURRENT_CLIENTS,
            server_rps,
            measured["hot_latencies"],
        ),
        ("http server (mixed 32)", len(measured["mixed_latencies"]), 32, None,
         measured["mixed_latencies"]),
    ]
    table = TextTable(
        ["mode", "requests", "clients", "req/s", "p50 ms", "p99 ms"],
        title=f"E15 — serving the {2**HOT_COLUMNS}-outcome hot program",
    )
    for mode, count, clients, rps, latencies in rows:
        table.add_row(
            mode,
            count,
            clients,
            f"{rps:.0f}" if rps else "-",
            f"{_quantile_ms(latencies, 0.50):.1f}",
            f"{_quantile_ms(latencies, 0.99):.1f}",
        )
    print()
    print(table.render())
    print(
        f"hot-program throughput speedup: {speedup:.2f}x, median of "
        f"{', '.join(f'{ratio:.2f}x' for ratio in ratios)} (floor {TARGET_SPEEDUP}x)"
    )
    for line in measured["metrics_text"].splitlines():
        if line.startswith("gdatalog_microbatch"):
            print(line)

    benchmark.extra_info["stdin_rps"] = round(stdin_rps, 1)
    benchmark.extra_info["server_rps"] = round(server_rps, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["server_p50_ms"] = round(
        _quantile_ms(measured["hot_latencies"], 0.50), 2
    )
    benchmark.extra_info["server_p99_ms"] = round(
        _quantile_ms(measured["hot_latencies"], 0.99), 2
    )
    benchmark.extra_info["stdin_p50_ms"] = round(_quantile_ms(stdin_latencies, 0.50), 2)
    benchmark.extra_info["stdin_p99_ms"] = round(_quantile_ms(stdin_latencies, 0.99), 2)
    benchmark.extra_info["mixed_p99_ms"] = round(
        _quantile_ms(measured["mixed_latencies"], 0.99), 2
    )

    assert statistics.median(measured["hot_latencies"]) > 0  # latencies recorded
    assert speedup >= TARGET_SPEEDUP, (
        f"server throughput {server_rps:.0f} req/s is only {speedup:.2f}x the "
        f"stdin loop's {stdin_rps:.0f} req/s (floor {TARGET_SPEEDUP}x)"
    )
