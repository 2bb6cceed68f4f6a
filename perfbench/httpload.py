"""The server under test and the open-loop HTTP load generator.

The generator is the benchmark's own minimal HTTP/1.1 keep-alive client,
so a change to the repository's client cannot move the measurements.  It
sends every request at its scheduled time, over at most two connections,
and times each request from that scheduled time; how late the generator
itself released each request is recorded separately.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HOST = "127.0.0.1"


class Connection:
    """One keep-alive HTTP/1.1 connection (one request at a time)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(HOST, port, limit=16 * 1024 * 1024)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\nContent-Length: {len(body)}\r\n\r\n"
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await self.reader.readexactly(length)

    async def post_json(self, path: str, payload: dict) -> tuple[int, dict]:
        status, body = await self.request("POST", path, json.dumps(payload).encode("utf-8"))
        return status, json.loads(body)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# -- the server process ----------------------------------------------------------


class Server:
    """``gdatalog serve --http`` in its own process group."""

    def __init__(self, env: dict, log_path: Path, extra_args: list[str], cpus: list[int]):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        if len(cpus) > 1:
            # The server starts on the generator's core (see _pin).
            os.sched_setaffinity(0, {cpus[0]})
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--http", f"{HOST}:0", "--shards", "1", *extra_args],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            start_new_session=True,
        )
        self.port = self._wait_for_port(timeout=60.0)
        self._pin(cpus)

    def _pin(self, cpus: list[int]) -> None:
        """Shard worker on the second core; the front end stays on the first.

        Left to the scheduler, the front end, the shard worker and the
        generator land on different cores from run to run, which moves
        every latency by tens of percent; fixed placement removes that
        spread.  The generator shares the front end's core: the two hand
        every request and response to each other.
        """
        self.pids = self.process_ids()
        if len(cpus) < 2:
            return
        for pid in self.pids:
            cpu = cpus[0] if pid == self.proc.pid else cpus[1]
            for tid in os.listdir(f"/proc/{pid}/task"):
                try:
                    os.sched_setaffinity(int(tid), {cpu})
                except OSError:
                    pass

    def _wait_for_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = re.search(rb"serving on http://[\d.]+:(\d+)", self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log_path.read_text(errors='replace')[-2000:]}")

    def process_ids(self) -> list[int]:
        """The front end and its direct children (the shard worker)."""
        pids = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == self.proc.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak resident set size (VmHWM) of the serving processes."""
        total_kb = 0
        for pid in self.pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill the group if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._log.close()


# -- /metrics ----------------------------------------------------------------------

_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


async def scrape(port: int) -> dict[tuple[str, str], float]:
    """``{(name, labels): value}`` from one ``/metrics`` scrape."""
    connection = await Connection.open(port)
    try:
        status, body = await connection.request("GET", "/metrics")
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    samples: dict[tuple[str, str], float] = {}
    for line in body.decode("utf-8").splitlines():
        match = _SAMPLE.match(line)
        if match:
            samples[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return samples


def metric_sum(samples: dict, name: str, label: str = "") -> float:
    """Sum of a metric's samples whose label set contains *label*."""
    return sum(v for (n, labels), v in samples.items() if n == name and label in labels)


# -- warm-up and the open-loop schedule ---------------------------------------------


def run(coroutine, timeout: float):
    """Run *coroutine* to completion; fail if it takes longer than *timeout* seconds."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


async def send_sequentially(port: int, requests: list[tuple[str, dict]]) -> list[tuple[int, dict]]:
    """Send requests one after another on one connection (set-up traffic)."""
    connection = await Connection.open(port)
    try:
        return [await connection.post_json(path, payload) for path, payload in requests]
    finally:
        await connection.close()


async def run_open_loop(port: int, ops: list[dict], lanes: int, keep_going) -> list[dict]:
    """Send each op at ``start + op["t"]``; two connections.

    With ``lanes == 1`` both connections serve one FIFO of due requests;
    with ``lanes == 2`` connection *i* serves the ops whose ``lane`` is *i*
    (writes and reads of ``stream_rw`` keep their own connection).  The
    schedule is cut into the ops' ``segment`` numbers: when one ends,
    ``keep_going(segment)`` decides whether the next is sent.  Returns one
    record per op sent (a prefix of *ops*): status, body, latency from the
    scheduled time and from the actual send, and how late the generator
    released it.
    """
    loop = asyncio.get_running_loop()
    connections = [await Connection.open(port) for _ in range(2)]
    queues = [asyncio.Queue() for _ in range(lanes)]
    bodies = [json.dumps(op["payload"]).encode("utf-8") for op in ops]
    records: list[dict | None] = [None] * len(ops)

    async def drain(connection: Connection, queue: asyncio.Queue) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            sent = loop.time()
            status, body = await connection.request("POST", ops[index]["path"], bodies[index])
            done = loop.time()
            records[index]["status"] = status
            records[index]["body"] = body
            records[index]["latency"] = done - due
            records[index]["service"] = done - sent
            records[index]["finish"] = done - start

    def release(index: int, due: float) -> None:
        records[index] = {"late": max(0.0, loop.time() - due)}
        queues[ops[index]["lane"] % lanes].put_nowait((index, due))

    def schedule() -> int:
        # A thread sleeps to each due time (sub-millisecond precision) and
        # hands the op to the event loop, whose own timers round to 1 ms.
        for index, op in enumerate(ops):
            delay = start + op["t"] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if index and op["segment"] != ops[index - 1]["segment"] and not keep_going(ops[index - 1]["segment"]):
                return index
            loop.call_soon_threadsafe(release, index, start + op["t"])
        keep_going(ops[-1]["segment"])
        return len(ops)

    start = loop.time() + 0.05
    workers = [
        asyncio.ensure_future(drain(connections[i], queues[i % lanes])) for i in range(2)
    ]
    # The releases were queued on the loop before the executor's result.
    sent = await loop.run_in_executor(None, schedule)
    for i in range(2):
        queues[i % lanes].put_nowait(None)
    await asyncio.gather(*workers)
    for connection in connections:
        await connection.close()
    return records[:sent]  # type: ignore[return-value]
