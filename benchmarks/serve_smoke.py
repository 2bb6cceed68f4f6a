"""CI smoke check: boot ``gdatalog serve --http``, one round-trip, clean SIGTERM.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/serve_smoke.py
    PYTHONPATH=src python benchmarks/serve_smoke.py --factorize --slice

Exercises the full serving stack on whatever interpreter runs it — including
the no-NumPy image, since :mod:`repro.server` is pure stdlib: spawns the CLI
as a subprocess, parses the bound port from its stderr announcement, waits
for ``/healthz`` behind a hard deadline (a hung startup fails fast instead
of stalling the CI job), performs one exact query round-trip with an ``id``
echo, then sends SIGTERM and requires a drained, zero-status exit.

Trailing arguments are passed to ``serve``.  With any, the smoke also asks
for one column and for both columns of the two-column program, and reads
``/metrics``: ``--factorize --slice`` must show a sliced engine built and
the two independent columns chased as separate components.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.server.client import http_json, wait_until_healthy  # noqa: E402

PROGRAM = """
coin1(X, flip<0.5>[1, X]) :- src1(X).
hit1(X) :- coin1(X, 1).
coin2(X, flip<0.5>[2, X]) :- src2(X).
hit2(X) :- coin2(X, 1).
"""
DATABASE = "src1(1). src2(1)."
STARTUP_TIMEOUT = 30.0


def _service_counter(metrics: str, counter: str) -> float:
    """The summed ``gdatalog_service_cache`` series of *counter* in a ``/metrics`` scrape."""
    prefix = f'gdatalog_service_cache{{counter="{counter}",'
    values = [
        float(line.rsplit(" ", 1)[1]) for line in metrics.splitlines() if line.startswith(prefix)
    ]
    assert values, f"{counter} missing from /metrics"
    return sum(values)


def main(serve_flags: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--http", "127.0.0.1:0", "--shards", "1",
            *serve_flags,
        ],
        env=env,
        cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        port = None
        while time.monotonic() < deadline and port is None:
            line = process.stderr.readline()
            if "serving on http://" in line:
                port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            elif process.poll() is not None:
                raise SystemExit(f"server exited during startup: {process.stderr.read()}")
        if port is None:
            raise SystemExit(f"server did not announce a port within {STARTUP_TIMEOUT}s")

        def query(request_id: str, queries: list[str]):
            request = {"program": PROGRAM, "database": DATABASE, "queries": queries}
            return http_json("127.0.0.1", port, "POST", "/v1/query", {"id": request_id, **request})

        async def round_trip():
            await wait_until_healthy("127.0.0.1", port, timeout=STARTUP_TIMEOUT)
            return await query("smoke-1", ["hit1(1)"])

        status, payload = asyncio.run(round_trip())
        assert status == 200, (status, payload)
        assert payload["ok"] and payload["id"] == "smoke-1", payload
        assert payload["results"] == [0.5], payload

        if serve_flags:

            async def strategies():
                answers = [await query("smoke-2", ["hit1(1)"])]
                answers.append(await query("smoke-3", ["hit1(1)", "hit2(1)"]))
                status, metrics = await http_json("127.0.0.1", port, "GET", "/metrics")
                assert status == 200, status
                return answers, metrics if isinstance(metrics, str) else metrics.decode("utf-8")

            answers, metrics = asyncio.run(strategies())
            for (status, body), expected in zip(answers, ([0.5], [0.5, 0.5])):
                assert status == 200 and body["ok"] and body["results"] == expected, body
            assert _service_counter(metrics, "slice_misses") >= 1, metrics
            assert _service_counter(metrics, "component_misses") >= 2, metrics

        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=STARTUP_TIMEOUT)
        assert process.returncode == 0, f"exit {process.returncode}: {stderr}"
        assert "drained cleanly" in stderr, stderr
        flags = " ".join(serve_flags) or "no flags"
        probability = payload["results"][0]
        print(f"serve smoke OK ({flags}): port {port}, P(hit1(1)) = {probability}, clean exit")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
