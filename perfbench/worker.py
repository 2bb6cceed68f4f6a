"""Benchmark child process: the cold_mix caller and the in-process replay.

Run as ``python perfbench/worker.py MODE --job FILE --out FILE [--trace]``
with ``PYTHONPATH`` pointing at the repository's ``src``:

* ``cold``   — the cold_mix closed loop: one in-process caller answering
  never-seen programs through ``repro.server.protocol.answer`` on a service
  configured like a shard worker.  Prints ``ready`` once its set-up (imports
  and one untimed operation per family) is done; ``--setup-only`` exits
  there.  A job with ``"probed": true`` runs a speed probe between ops
  (see :func:`speed_probe`), so ``run.py`` can calibrate each op's time.
* ``replay`` — replays an HTTP workload's operation sequence in-process,
  on a service configured like a shard plus the front end's stream registry
  (and journal, for ``stream_rw``): the reference answers and the
  per-layer decomposition of the HTTP runs.
* ``import`` — prints the seconds a fresh ``import repro.cli`` takes.

With ``--trace`` the layer wrappers of ``tracer.py`` are installed before
the set-up and every measured operation records spans; without it the
process runs the unmodified code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time


def shard_like_service():
    """An ``InferenceService`` built from the shard worker's default config."""
    from repro.runtime.service import InferenceService
    from repro.server.shards import ShardConfig

    return InferenceService(**dataclasses.asdict(ShardConfig()))


class Probe:
    """Counter deltas of the service, solver memo and join engine around traced ops."""

    def __init__(self, service):
        self.service = service
        self.totals: dict[str, int] = {}
        #: Counter sources that do not exist in the code under test.
        self.missing: set[str] = set()

    def _read(self) -> dict[str, int]:
        from tracer import join_counters, solver_counters

        values = join_counters(self.missing)
        values["solve.hits"], values["solve.misses"] = solver_counters(self.missing)
        snapshot = self.service.stats.snapshot()
        for name in ("hits", "misses", "evictions"):
            if name not in snapshot:
                self.missing.add(f"repro.runtime.service:ServiceStats.{name}")
            values[f"service.{name}"] = int(snapshot.get(name, 0))
        return values

    def __enter__(self):
        self._before = self._read()
        return self

    def __exit__(self, *exc):
        after = self._read()
        for name, value in after.items():
            self.totals[name] = self.totals.get(name, 0) + value - self._before[name]


def run_ops(ops, answer_op, tracer=None, probe=None, probed=False) -> list[dict]:
    """Answer every op in order, timing each; spans carry the op's index.

    With *probed*, a speed probe runs before the first op and after every
    op, and each record carries ``probe_s``, the mean of the probes on
    either side of its op.
    """
    records = []
    last_probe = speed_probe() if probed else None
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
            with probe:
                started = time.perf_counter()
                response = answer_op(op)
                elapsed = time.perf_counter() - started
            tracer.op_id = None
        else:
            started = time.perf_counter()
            response = answer_op(op)
            elapsed = time.perf_counter() - started
        record = {
            "seconds": elapsed,
            "ok": bool(response.get("ok")),
            "results": response.get("results"),
            "error": response.get("error"),
        }
        if probed:
            next_probe = speed_probe()
            record["probe_s"] = (last_probe + next_probe) / 2.0
            last_probe = next_probe
        records.append(record)
    return records


def trace_summary(tracer, probe, records) -> dict:
    """The spans, kept in memory during the run, the counter totals, and
    the targets and counter sources that were missing."""
    return {
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "probe": probe.totals,
        "ops": len(records),
        "unwrapped": tracer.unwrapped,
        "unavailable": sorted(probe.missing),
    }


def start_tracer(service):
    """Wrap the layers once, before any warm-up: the wrapped code then
    warms up like the plain code, and only measured ops record spans."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer, Probe(service)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Iterations of the speed probe's loop: about 1 ms on a 2-core x86 VM.
PROBE_LOOPS = 15_000


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the core runs now.

    The loop calls no code under test and allocates nothing the cyclic
    collector tracks, so only the machine moves it.
    """
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def main_cold(job: dict, args) -> dict:
    from repro.server import protocol

    service = shard_like_service()
    tracer, probe = start_tracer(service) if args.trace else (None, None)
    warm = run_ops(job["warm"], lambda op: protocol.answer(service, op["request"]))
    print("ready", flush=True)
    if args.setup_only:
        return {}
    records = run_ops(
        job["ops"], lambda op: protocol.answer(service, op["request"]), tracer, probe, probed=job.get("probed", False)
    )
    result = {"warm": warm, "records": records, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["trace"] = trace_summary(tracer, probe, records)
    return result


def main_replay(job: dict, args) -> dict:
    from repro.server import protocol
    from repro.server.protocol import StreamRegistry

    service = shard_like_service()
    streams = StreamRegistry()
    journal = None
    if job.get("journal_dir"):
        from repro.server.journal import StreamJournal

        journal = StreamJournal(
            job["journal_dir"], fsync=job["journal_fsync"], max_bytes=job["journal_max_bytes"]
        )
    journal_bytes: list[int] = []

    def answer_op(op: dict) -> dict:
        # The front end's part of a request: the sample route forces
        # adaptive sampling; named streams are opened in the journal before
        # answering, and each applied delta is journaled after.
        request = op["payload"]
        if op["path"] == "/v1/sample":
            request = {**request, "adaptive": True}
        stream = request.get("stream")
        if journal is not None and stream and streams.get(stream) is None:
            journal.record_open(stream, request["program"], request.get("database", ""))
        response = protocol.answer(service, request, streams)
        if journal is not None and stream and "delta" in request and response.get("ok"):
            before = journal.stats()
            journal.record_delta(stream, request["delta"], database_after=response["database"])
            after = journal.stats()
            if after["compactions"] == before["compactions"]:
                journal_bytes.append(after["size_bytes"] - before["size_bytes"])
        return response

    tracer, probe = start_tracer(service) if args.trace else (None, None)
    run_ops(job["setup"], answer_op)
    journal_bytes.clear()
    journal_before = journal.stats() if journal is not None else None
    records = run_ops(job["ops"], answer_op, tracer, probe)
    result: dict = {"records": records}
    if journal is not None:
        after = journal.stats()
        result["journal"] = {
            "records": after["records_appended"] - journal_before["records_appended"],
            "compactions": after["compactions"] - journal_before["compactions"],
            "bytes_per_update": sum(journal_bytes) / len(journal_bytes) if journal_bytes else 0.0,
        }
        journal.close()
    if tracer is not None:
        result["trace"] = trace_summary(tracer, probe, records)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cold", "replay", "import"))
    parser.add_argument("--job")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.mode == "import":
        started = time.perf_counter()
        import repro.cli  # noqa: F401

        print(time.perf_counter() - started)
        return 0
    with open(args.job, encoding="utf-8") as handle:
        job = json.load(handle)
    result = main_cold(job, args) if args.mode == "cold" else main_replay(job, args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
