"""E17 — crash recovery: ``kill -9`` the journaled server, lose nothing.

The durability subsystem (:mod:`repro.server.journal`) exists for one
claim: *acknowledged means durable*.  This driver is its acceptance gate:

* **bit-identical recovery**: a ``gdatalog serve --http --journal DIR``
  subprocess acknowledges a stream of deltas, dies by ``SIGKILL`` (no
  atexit, no flush — the real thing), and a fresh process over the same
  journal directory answers stream queries exactly as an uninterrupted
  :meth:`InferenceService.replay` of the same deltas would — same
  canonical database text, same marginals;
* **bounded overhead**: the journaled server's update throughput on the
  E15-style streaming workload stays within :data:`MAX_SLOWDOWN`× of the
  un-journaled server's (fsync-per-record included), as the median of
  :data:`OVERHEAD_PAIRS` interleaved pairs;
* both throughputs and the recovery head-count land in
  ``BENCH_e17.json`` (``extra_info``) for CI trend tracking.

Pure stdlib + repro — runs identically on the NumPy and no-NumPy images.
"""

from __future__ import annotations

import asyncio
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis import TextTable
from repro.runtime.service import InferenceService
from repro.server.client import http_json, http_json_retry, wait_until_healthy
from repro.server.http import InferenceServer, ServerConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Journaled-over-plain update latency multiple the gate tolerates.
MAX_SLOWDOWN = 1.5
#: Updates driven through each server during the timed phase.
TIMED_UPDATES = 40
#: Interleaved (plain, journaled) throughput pairs; the overhead is the
#: median of their ratios, so a slow moment of the host skews one pair only.
OVERHEAD_PAIRS = 3
#: Deltas acknowledged before the SIGKILL in the recovery scenario.
DELTAS_BEFORE_KILL = 12

#: E15-style stream program: a patch-eligible aux/base chain, so deltas on
#: ``aux``/``src`` maintain the chased space instead of rebuilding it.
STREAM_PROGRAM = (
    "coin(X, flip<0.5>[X]) :- src(X).\n"
    "hit(X) :- coin(X, 1).\n"
    "base(X) :- src(X), aux(X)."
)
STREAM_DATABASE = "src(1). src(2). aux(1)."


def _delta(n: int) -> dict:
    return {"insert": [f"src({n})", f"aux({n})"]}


def _deltas(count: int) -> list[dict]:
    return [_delta(n) for n in range(10, 10 + count)]


# -- in-process throughput phase ------------------------------------------------------


async def _drive_updates(config: ServerConfig, count: int) -> tuple[float, str]:
    """(updates/second, final database text) for one server configuration."""
    server = InferenceServer(config)
    await server.start()
    try:
        await server.wait_ready(timeout=30.0)
        port = server.port
        status, opened = await http_json(
            "127.0.0.1", port, "POST", "/v1/update",
            {"stream": "bench", "program": STREAM_PROGRAM,
             "database": STREAM_DATABASE, "delta": _delta(5)},
        )
        assert status == 200, opened
        start = time.perf_counter()
        final = opened
        for index, delta in enumerate(_deltas(count)):
            status, final = await http_json(
                "127.0.0.1", port, "POST", "/v1/update",
                {"id": index, "stream": "bench", "delta": delta},
            )
            assert status == 200, final
        elapsed = time.perf_counter() - start
        return count / elapsed, final["database"]
    finally:
        await server.stop(drain=False)


def _measure_throughputs(tmp_dir: Path) -> dict:
    """Plain and journaled update rates, measured in interleaved pairs.

    Each pair runs both servers back to back, alternating which goes first;
    the slowdown is the median of the pairs' ratios, and each side's rate
    the median of its runs.
    """
    plain_rates, journaled_rates, ratios, databases = [], [], [], set()
    for pair in range(OVERHEAD_PAIRS):
        configs = {
            "plain": ServerConfig(port=0, shards=1),
            "journaled": ServerConfig(
                port=0, shards=1, journal_dir=str(tmp_dir / f"wal-{pair}"),
                journal_fsync="always",
            ),
        }
        order = ("plain", "journaled") if pair % 2 == 0 else ("journaled", "plain")
        rates = {}
        for mode in order:
            rates[mode], database = asyncio.run(_drive_updates(configs[mode], TIMED_UPDATES))
            databases.add(database)
        plain_rates.append(rates["plain"])
        journaled_rates.append(rates["journaled"])
        ratios.append(rates["plain"] / rates["journaled"])
    assert len(databases) == 1  # journaling must never change answers
    return {
        "plain_rps": statistics.median(plain_rates),
        "journaled_rps": statistics.median(journaled_rates),
        "slowdown": statistics.median(ratios),
        "ratios": ratios,
        "final_database": databases.pop(),
    }


# -- the kill -9 recovery scenario ----------------------------------------------------


def _spawn_server(journal_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--http", "127.0.0.1:0", "--shards", "1",
            "--journal", str(journal_dir),
        ],
        env=env,
        cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # SIGKILL the whole group: parent AND workers
    )


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


async def _apply_deltas(port: int, deltas: list[dict]) -> str:
    database = ""
    for index, delta in enumerate(deltas):
        request: dict = {"id": index, "stream": "crash", "delta": delta}
        if index == 0:
            request["program"] = STREAM_PROGRAM
            request["database"] = STREAM_DATABASE
        status, payload = await http_json_retry(
            "127.0.0.1", port, "POST", "/v1/update", request,
            idempotency_key=f"crash-{index}",
        )
        assert status == 200, payload
        database = payload["database"]
    return database


async def _query_stream(port: int, queries: list[str]) -> list:
    status, payload = await http_json_retry(
        "127.0.0.1", port, "POST", "/v1/query",
        {"stream": "crash", "queries": queries},
    )
    assert status == 200, payload
    return payload["results"]


def _kill_and_recover(journal_dir: Path) -> dict:
    """Acknowledge deltas, SIGKILL the server, restart, compare to the oracle."""
    deltas = _deltas(DELTAS_BEFORE_KILL)
    queries = [f"hit({10 + DELTAS_BEFORE_KILL - 1})", "base(11)", "hit(1)"]

    first = _spawn_server(journal_dir)
    try:
        port = _port_from_stderr(first)
        asyncio.run(wait_until_healthy("127.0.0.1", port, timeout=30.0))
        acked_database = asyncio.run(_apply_deltas(port, deltas))
    finally:
        # The crash under test: SIGKILL the whole process group (front end
        # and forked shard workers) — no flush, no exit handler runs.
        os.killpg(os.getpgid(first.pid), signal.SIGKILL)
        first.communicate(timeout=30)

    second = _spawn_server(journal_dir)
    try:
        port = _port_from_stderr(second)
        asyncio.run(wait_until_healthy("127.0.0.1", port, timeout=30.0))
        recovered_results = asyncio.run(_query_stream(port, queries))
        # The stream keeps accepting deltas after recovery.
        status, resumed = asyncio.run(
            http_json_retry(
                "127.0.0.1", port, "POST", "/v1/update",
                {"stream": "crash", "delta": _delta(99)},
            )
        )
        assert status == 200, resumed
    finally:
        second.send_signal(signal.SIGTERM)
        try:
            second.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            second.kill()
            second.communicate(timeout=10)

    # The oracle: an uninterrupted service replaying the acknowledged feed.
    oracle = InferenceService()
    replayed = oracle.replay(STREAM_PROGRAM, STREAM_DATABASE, deltas)
    expected_results = oracle.evaluate(STREAM_PROGRAM, replayed.database_source, queries)
    resumed_expected = oracle.update(
        STREAM_PROGRAM, replayed.database_source, _delta(99)
    ).database_source
    return {
        "acked_database": acked_database,
        "replayed_database": replayed.database_source,
        "recovered_results": recovered_results,
        "expected_results": expected_results,
        "resumed_database": resumed["database"],
        "resumed_expected": resumed_expected,
    }


# -- gates ----------------------------------------------------------------------------


def test_e17_kill9_recovery_is_bit_identical(tmp_path):
    outcome = _kill_and_recover(tmp_path / "wal")
    # Every acknowledged delta survived the SIGKILL, exactly once.
    assert outcome["acked_database"] == outcome["replayed_database"]
    # The recovered stream answers exactly as the uninterrupted run would.
    assert outcome["recovered_results"] == outcome["expected_results"]
    # And post-recovery updates continue from the exact recovered state.
    assert outcome["resumed_database"] == outcome["resumed_expected"]


def test_e17_report(benchmark, tmp_path):
    def sweep():
        throughput = _measure_throughputs(tmp_path)
        recovery = _kill_and_recover(tmp_path / "crash-wal")
        return throughput, recovery

    throughput, recovery = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Correctness before speed, always.
    assert recovery["acked_database"] == recovery["replayed_database"]
    assert recovery["recovered_results"] == recovery["expected_results"]

    table = TextTable(
        ["mode", "updates", "updates/s"],
        title="E17 — journaled vs. plain streaming updates",
    )
    table.add_row("plain (no journal)", TIMED_UPDATES, f"{throughput['plain_rps']:.0f}")
    table.add_row(
        "journaled (fsync always)", TIMED_UPDATES, f"{throughput['journaled_rps']:.0f}"
    )
    print()
    print(table.render())
    print(
        f"journal overhead: {throughput['slowdown']:.2f}x, median of "
        f"{', '.join(f'{ratio:.2f}x' for ratio in throughput['ratios'])} "
        f"(ceiling {MAX_SLOWDOWN}x); recovered {DELTAS_BEFORE_KILL} deltas "
        "bit-identically after SIGKILL"
    )

    benchmark.extra_info["plain_update_rps"] = round(throughput["plain_rps"], 1)
    benchmark.extra_info["journaled_update_rps"] = round(throughput["journaled_rps"], 1)
    benchmark.extra_info["journal_slowdown"] = round(throughput["slowdown"], 3)
    benchmark.extra_info["deltas_recovered"] = DELTAS_BEFORE_KILL
    benchmark.extra_info["recovery_bit_identical"] = (
        recovery["recovered_results"] == recovery["expected_results"]
    )

    assert throughput["slowdown"] <= MAX_SLOWDOWN, (
        f"journaled updates run {throughput['slowdown']:.2f}x slower than "
        f"un-journaled (ceiling {MAX_SLOWDOWN}x)"
    )
