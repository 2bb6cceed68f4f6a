"""Layer-attributed benchmark of the GDatalog¬ reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {cold_mix,serve_read,stream_rw} \\
        --seed N --seconds S --trace {0,1}

Each run replays the workload's seeded operation sequence in fresh
processes and checks every answer.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The lines before it repeat every metric
with its unit and sample count, and record the environment.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
#: Scratch space of one run, inside the checkout; removed when the run ends.
RUN_DIR = ROOT / ".perfbench_run"
#: Fresh processes per run whose set-up is timed (median reported): more
#: where one set-up is short and noisier.
SETUPS = {"cold_mix": 5, "serve_read": 3, "stream_rw": 5}
#: An open-loop segment is invalid when the hypervisor took more than this
#: share of the run's cores (steal time in /proc/stat) or when the load
#: generator woke up later than this; it is measured again.  Open-loop
#: latencies of a few milliseconds take every preemption in full (on a
#: 2-core x86 VM, 1.8% steal moved stream_rw's write median by 14% and
#: 5.3% doubled it).  cold_mix times are calibrated instead, which takes
#: steal out with the rest of the core's slowdown (``PROBE_REFERENCE_S``).
STEAL_LIMIT_PCT = 2.0
LATE_P50_LIMIT_S = 0.002
LATE_MAX_LIMIT_S = 0.25
#: cold_mix reports every op's time scaled to the speed at which the
#: worker's probe loop (``worker.speed_probe``) takes this long: the op's
#: time times this over the mean of the probes run just before and after it.
PROBE_REFERENCE_S = 0.001
#: Seconds a benchmark child process may take before the run fails.
CHILD_TIMEOUT_S = 150.0
#: Absolute tolerance of the closed-form answer checks.
TOLERANCE = 1e-9
#: The cores this run may use, read before any process is pinned to one.
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "update_p50_ms": "ms",
    "update_tail_ms": "ms",
    "throughput_ops": "1/s",
}


# -- environment -------------------------------------------------------------------------


def bench_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONUNBUFFERED="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def environment() -> dict:
    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "columnar_path": version("numpy") is not None,
        "networkx": version("networkx"),
    }


def worker(mode: str, job: dict | None = None, trace: bool = False, setup_only: bool = False, tag: str = "job"):
    """Run ``worker.py`` in a fresh process; returns (setup seconds, result)."""
    command = [sys.executable, str(BENCH / "worker.py"), mode]
    out = RUN_DIR / f"{tag}.out.json"
    if job is not None:
        job_path = RUN_DIR / f"{tag}.json"
        job_path.write_text(json.dumps(job))
        command += ["--job", str(job_path), "--out", str(out)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(command, env=bench_env(), stdout=subprocess.PIPE, text=True)
    if len(CPUS) > 1:
        # One fixed core per run, as for the shard worker of the HTTP runs.
        os.sched_setaffinity(proc.pid, {CPUS[1]})
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            if not selector.select(CHILD_TIMEOUT_S):
                raise RuntimeError(f"worker {mode} printed nothing within {CHILD_TIMEOUT_S:.0f} s")
        first = proc.stdout.readline()
        setup = time.perf_counter() - started
        proc.communicate(timeout=max(1.0, CHILD_TIMEOUT_S - setup))
        code = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker {mode} exited with code {code}")
    if mode == "import":
        return setup, float(first)
    if mode == "cold" and first.strip() != "ready":
        raise RuntimeError(f"worker {mode} did not report ready: {first!r}")
    return setup, json.loads(out.read_text()) if out.exists() else {}


# -- statistics and checks ---------------------------------------------------------------


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least 10 samples beyond it (50 at least)."""
    p = 99
    while p > 50 and count - math.ceil(p / 100 * count) < 10:
        p -= 1
    return p


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def matches(results, expected) -> bool:
    if not isinstance(results, list) or len(results) != len(expected):
        return False
    return all(
        isinstance(r, (int, float)) and abs(r - e) <= TOLERANCE for r, e in zip(results, expected)
    )


def latency_metrics(prefix: str, seconds: list[float], report: list[str]) -> dict:
    p = tail_percentile(len(seconds))
    ms = [s * 1000.0 for s in seconds]
    report.append(f"  {prefix}: n={len(ms)} p50 and p{p} ({len(ms) - math.ceil(p / 100 * len(ms))} beyond)")
    return {f"{prefix}_p50_ms": statistics.median(ms), f"{prefix}_tail_ms": percentile(ms, p)}


# -- valid timed phases ------------------------------------------------------------------


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of the run's cores so far, from /proc/stat."""
    try:
        lines = Path("/proc/stat").read_text().splitlines()
    except OSError:
        return 0, 0
    cores = {f"cpu{cpu}" for cpu in CPUS}
    steal = total = 0
    for line in lines:
        fields = line.split()
        if fields and fields[0] in cores:
            ticks = [int(value) for value in fields[1:9]]
            steal += ticks[7] if len(ticks) > 7 else 0
            total += sum(ticks)
    return steal, total


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    elapsed = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / elapsed if elapsed else 0.0


class SegmentGate:
    """Decides, segment by segment, whether an open loop goes on.

    When a segment of the schedule ends, its steal share is read from
    /proc/stat, and the serving processes' peak RSS so far; the loop stops
    once ``wanted`` segments stayed within *limit*.  :meth:`measured` then
    also drops segments whose generator ran late, and picks the segments
    the metrics use.
    """

    def __init__(self, wanted: int, limit: float, peak_rss_mb):
        self.wanted = wanted
        self.limit = limit
        self.steal: dict[int, float] = {}
        self._peak_rss_mb = peak_rss_mb
        self.rss: list[float] = []
        self._last = cpu_ticks()

    def __call__(self, segment: int) -> bool:
        now = cpu_ticks()
        self.steal[segment] = steal_pct(self._last, now)
        self._last = now
        self.rss.append(self._peak_rss_mb())
        return sum(1 for pct in self.steal.values() if pct <= self.limit) < self.wanted

    def peak_rss_mb(self) -> float:
        """Peak RSS after the first ``wanted`` segments: the memory of the
        same work in every run, however many segments were replaced."""
        return self.rss[min(self.wanted, len(self.rss)) - 1]

    def measured(self, ops: list[dict], records: list[dict], report: list[str]) -> set[int]:
        """The first ``wanted`` valid segments; when too few are valid, the
        least-stolen ``wanted`` ones (the report says so)."""
        late: dict[int, list[float]] = {}
        for op, record in zip(ops, records):
            late.setdefault(op["segment"], []).append(record["late"])
        problems = {}
        for segment, pct in self.steal.items():
            delays = late.get(segment, [0.0])
            reasons = []
            if pct > self.limit:
                reasons.append(f"steal {pct:.1f}% > {self.limit:g}%")
            if statistics.median(delays) > LATE_P50_LIMIT_S or max(delays) > LATE_MAX_LIMIT_S:
                reasons.append(
                    f"generator late p50 {statistics.median(delays) * 1000:.2f} ms, max {max(delays) * 1000:.1f} ms"
                )
            problems[segment] = reasons
        valid = [segment for segment in sorted(self.steal) if not problems[segment]]
        kept = valid[: self.wanted]
        if len(kept) < self.wanted:
            spare = sorted((s for s in self.steal if s not in kept), key=self.steal.get)
            kept += spare[: self.wanted - len(kept)]
        report.append(
            f"  segments: {len(self.steal)} run, {len(valid)} valid, measured {sorted(kept)}; steal "
            + " ".join(f"{self.steal[s]:.1f}%" for s in sorted(self.steal))
        )
        for segment in sorted(kept):
            if problems[segment]:
                report.append(f"  segment {segment} measured although invalid: {'; '.join(problems[segment])}")
        return set(kept)


# -- cold_mix ------------------------------------------------------------------------------


def cold_mix(seed: int, seconds: float, trace: bool, report: list[str]) -> tuple[dict, int, int]:
    import workloads

    if trace:
        # A third of the sequence, in plain, traced and plain processes: the
        # plain runs on both sides are the reference for the tracing overhead.
        job = {**workloads.cold_mix(seed, seconds / 3), "probed": True}
        ops = job["ops"]
        _, plain = worker("cold", job, tag="cold_plain")
        _, traced = worker("cold", job, trace=True, tag="cold_traced")
        _, plain_after = worker("cold", job, tag="cold_plain_after")
        failed = sum(
            count_failed(ops, run["records"]) + count_failed(job["warm"], run["warm"])
            for run in (plain, traced, plain_after)
        )
        metrics = cold_layers(ops, plain, traced, report)
        metrics["trace.overhead_pct"] = overhead_pct(plain, traced, plain_after)
        return metrics, 3 * len(ops), failed
    job = {**workloads.cold_mix(seed, seconds), "probed": True}
    ops = job["ops"]
    setups = [worker("cold", job, setup_only=True, tag=f"cold{index}")[0] for index in range(SETUPS["cold_mix"] - 1)]
    before = cpu_ticks()
    setup, result = worker("cold", job, tag="cold")
    steal = steal_pct(before, cpu_ticks())
    setups.append(setup)
    records = result["records"]
    attempted = len(ops)
    failed = count_failed(ops, records) + count_failed(job["warm"], result["warm"])
    seconds = [op_seconds(r) for r in records]
    probes = [r["probe_s"] for r in records]
    report.append(
        f"  timed phase: steal {steal:.2f}%, speed probe {1000 * min(probes):.3f} / "
        f"{1000 * statistics.median(probes):.3f} / {1000 * max(probes):.3f} ms (min / median / max); "
        f"times below are at a probe of {1000 * PROBE_REFERENCE_S:g} ms"
    )
    reads = [s for op, s in zip(ops, seconds) if op["kind"] == "query"]
    writes = [s for op, s in zip(ops, seconds) if op["kind"] == "update"]
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": result["peak_rss_mb"]}
    report.append(f"  setup_s: median of {len(setups)} fresh workers {['%.3f' % s for s in setups]}")
    metrics.update(latency_metrics("query", reads, report))
    metrics.update(latency_metrics("update", writes, report))
    metrics["throughput_ops"] = len(records) / sum(seconds)
    raw = [r["seconds"] for r in records]
    report.append(
        f"  throughput_ops: {len(records)} ops in {sum(seconds):.2f} s at the reference speed, one caller; "
        f"as measured: {sum(raw):.2f} s, op median {1000 * statistics.median(raw):.2f} ms"
    )
    return metrics, attempted, failed


def op_seconds(record: dict) -> float:
    """An op's time, at the reference speed of the probe loop if it was probed."""
    if "probe_s" in record:
        return record["seconds"] * PROBE_REFERENCE_S / record["probe_s"]
    return record["seconds"]


def count_failed(ops, records) -> int:
    return sum(
        1 for op, record in zip(ops, records)
        if not (record["ok"] and matches(record["results"], op["expected"]))
    )


def cold_layers(ops, plain, traced, report: list[str]) -> dict:
    import families

    plain_seconds = [op_seconds(r) for r in plain["records"]]
    traced_seconds = [r["seconds"] for r in traced["records"]]
    metrics = layer_metrics(traced["trace"], op_seconds=sum(traced_seconds), report=report)
    for family in families.FAMILIES:
        times = [s for op, s in zip(ops, plain_seconds) if op["family"] == family]
        metrics[f"family.{family}.ms"] = 1000.0 * statistics.mean(times)
    return metrics


# -- per-layer metrics ------------------------------------------------------------------------

LAYER_TIMES = {
    "check.ms": "check",
    "translate.ms": "translate",
    "ground.ms": "ground",
    "chase.self_ms": "chase",
    "solve.ms": "solve",
    "scan.ms": "scan",
    "maintain.ms": "maintain",
    "sample.ms": "sample",
    "journal.record_ms": "journal",
    "service.self_ms": "op",
}

_COUNTS = (
    "ground.calls", "join.index_probes", "join.full_scans", "columnar.batches", "columnar.cow_copies",
    "chase.nodes", "chase.outcomes", "solve.misses", "solve.hits", "scan.outcomes",
    "service.hits", "service.misses", "service.evictions",
    "maintain.patch", "maintain.component", "maintain.rebuild", "maintain.noop", "maintain.subtrees",
    "sample.samples", "shard.respawns", "microbatch.passes", "admission.rejected",
    "journal.records", "journal.compactions", "trace.ops", "trace.missing",
)
#: Every per-layer metric and its unit, in report order.
PER_LAYER = {
    "cli.import_ms": "ms",
    **{name: "ms" for name in LAYER_TIMES},
    **{name: "count" for name in _COUNTS},
    "solve.misses_per_outcome": "ratio",
    "service.hit_ratio": "ratio",
    "maintain.reuse_ratio": "ratio",
    "microbatch.requests_per_pass": "ratio",
    "journal.bytes_per_update": "bytes",
    "http.wire_ms": "ms",
    **{f"http.server_ms.{route}": "ms" for route in ("query", "batch", "sample", "update")},
    **{f"family.{family}.ms": "ms" for family in ("coins", "lucky", "dimes", "resilience", "wide", "joins")},
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


def overhead_pct(plain: dict, traced: dict, plain_after: dict) -> float:
    """Median traced op latency over the median plain one, in percent.

    The plain runs before and after the traced one cancel a linear drift
    of the machine's speed; cold_mix ops are calibrated too.
    """
    def median_seconds(run: dict) -> float:
        return statistics.median(op_seconds(r) for r in run["records"])

    reference = (median_seconds(plain) + median_seconds(plain_after)) / 2.0
    return 100.0 * (median_seconds(traced) / reference - 1.0)


def layer_metrics(trace: dict, op_seconds: float, report: list[str]) -> dict:
    """Per-operation self times and counters of one traced phase.

    Times are milliseconds per traced operation; counts are totals over the
    ``trace.ops`` traced operations.  ``trace.missing`` counts the wrapped
    entry points and counter sources that did not exist, so a layer metric
    that reads 0 for that reason shows; the report names them.
    """
    from tracer import self_times

    missing = trace["unwrapped"] + trace["unavailable"]
    report.append(f"  trace: {len(missing)} missing entry points or counters: {', '.join(missing) or 'none'}")
    ops = max(1, trace["ops"])
    self_seconds, calls = self_times(trace["spans"], set(range(trace["ops"])))
    counts, probe = trace["counts"], trace["probe"]
    metrics = {name: 1000.0 * self_seconds.get(layer, 0.0) / ops for name, layer in LAYER_TIMES.items()}
    inner = sum(v for layer, v in self_seconds.items() if layer != "op")
    metrics["trace.coverage_pct"] = 100.0 * inner / op_seconds if op_seconds else 0.0
    metrics["trace.ops"] = trace["ops"]
    metrics["trace.missing"] = len(missing)
    metrics["ground.calls"] = calls.get("ground", 0)
    for name in ("join.index_probes", "join.full_scans", "columnar.batches", "columnar.cow_copies",
                 "solve.hits", "solve.misses", "service.hits", "service.misses", "service.evictions"):
        metrics[name] = probe.get(name, 0)
    metrics["chase.nodes"] = counts.get("chase.nodes", 0)
    metrics["chase.outcomes"] = counts.get("chase.outcomes", 0)
    metrics["solve.misses_per_outcome"] = (
        metrics["solve.misses"] / metrics["chase.outcomes"] if metrics["chase.outcomes"] else 0.0
    )
    metrics["scan.outcomes"] = counts.get("scan.outcomes", 0)
    lookups = metrics["service.hits"] + metrics["service.misses"]
    metrics["service.hit_ratio"] = metrics["service.hits"] / lookups if lookups else 0.0
    for mode in ("patch", "component", "rebuild", "noop"):
        metrics[f"maintain.{mode}"] = counts.get(f"maintain.{mode}", 0)
    subtrees = counts.get("maintain.reused", 0) + counts.get("maintain.invalidated", 0)
    metrics["maintain.subtrees"] = subtrees
    metrics["maintain.reuse_ratio"] = counts.get("maintain.reused", 0) / subtrees if subtrees else 0.0
    metrics["sample.samples"] = counts.get("sample.samples", 0)
    return metrics


def import_ms() -> float:
    times = [worker("import", tag=f"import{i}")[1] for i in range(3)]
    return 1000.0 * statistics.median(times)


# -- the HTTP workloads ---------------------------------------------------------------------


def http_workload(name: str, seed: int, seconds: float, trace: bool, report: list[str]) -> tuple[dict, int, int]:
    import httpload
    import workloads

    job = workloads.serve_read(seed, seconds) if name == "serve_read" else workloads.stream_rw(seed, seconds)
    setup_ops, ops = job["setup"], job["ops"]
    setups: list[float] = []
    failed_setup = 0

    def boot() -> "httpload.Server":
        """A fresh server with its set-up traffic answered and checked."""
        nonlocal failed_setup
        index = len(setups)
        extra: list[str] = []
        if name == "stream_rw":
            extra = [
                "--journal", str(RUN_DIR / f"journal{index}"),
                "--journal-fsync", workloads.JOURNAL_FSYNC,
                "--journal-max-bytes", str(workloads.JOURNAL_MAX_BYTES),
            ]
        server = httpload.Server(bench_env(), RUN_DIR / f"server{index}.log", extra, CPUS)
        try:
            answers = httpload.run(
                httpload.send_sequentially(server.port, [(op["path"], op["payload"]) for op in setup_ops]),
                timeout=CHILD_TIMEOUT_S,
            )
        except BaseException:
            server.stop()
            raise
        setups.append(time.perf_counter() - server.started)
        failed_setup += sum(
            1 for op, (status, body) in zip(setup_ops, answers)
            if status != 200 or not matches(body.get("results"), op["expected"])
        )
        return server

    if not trace:
        for _ in range(SETUPS[name] - 1):
            boot().stop()
    server = boot()
    # The traced run measures the first segments whatever their steal.
    gate = SegmentGate(job["segments"], math.inf if trace else STEAL_LIMIT_PCT, server.peak_rss_mb)
    try:
        before = httpload.run(httpload.scrape(server.port), timeout=30) if trace else None
        records = httpload.run(
            httpload.run_open_loop(server.port, ops, lanes=2 if name == "stream_rw" else 1, keep_going=gate),
            timeout=ops[-1]["t"] + CHILD_TIMEOUT_S / 3,
        )
        after = httpload.run(httpload.scrape(server.port), timeout=30) if trace else None
    finally:
        server.stop()
    ops = ops[: len(records)]
    measured = gate.measured(ops, records, report)
    late = [r["late"] for op, r in zip(ops, records) if op["segment"] in measured]

    # Reference answers: the same sequence replayed in-process on a service
    # configured like the shard (stateless serve_read: each distinct request once).
    replay_job = {"setup": setup_ops, "ops": [dict(op) for op in ops]}
    if name == "stream_rw":
        replay_job.update(
            journal_dir=str(RUN_DIR / "replay_journal"),
            journal_fsync=workloads.JOURNAL_FSYNC,
            journal_max_bytes=workloads.JOURNAL_MAX_BYTES,
        )
    elif not trace:
        distinct = {json.dumps(op["payload"], sort_keys=True): op for op in ops}
        replay_job["ops"] = list(distinct.values())
    _, reference = worker("replay", replay_job, tag="replay")
    by_payload = {
        json.dumps(op["payload"], sort_keys=True): record["results"]
        for op, record in zip(replay_job["ops"], reference["records"])
    }

    failed = failed_setup
    for index, (op, record) in enumerate(zip(ops, records)):
        body = json.loads(record["body"]) if record.get("body") else {}
        results = body.get("results")
        expected_reference = (
            reference["records"][index]["results"]
            if name == "stream_rw" or trace
            else by_payload[json.dumps(op["payload"], sort_keys=True)]
        )
        if record.get("status") != 200 or not matches(results, op["expected"]) or results != expected_reference:
            failed += 1
    attempted = len(ops)

    if trace:
        runs = {}
        for tag, traced_run in (("replay_traced", True), ("replay_after", False)):
            if name == "stream_rw":
                replay_job["journal_dir"] = str(RUN_DIR / tag)
            runs[tag] = worker("replay", replay_job, trace=traced_run, tag=tag)[1]
        traced = runs["replay_traced"]
        failed += sum(
            1 for run in runs.values() for mine, theirs in zip(run["records"], reference["records"])
            if mine["results"] != theirs["results"]
        )
        attempted += 2 * len(ops)
        metrics = http_layers(name, ops, records, reference, traced, before, after, report)
        metrics["trace.overhead_pct"] = overhead_pct(reference, traced, runs["replay_after"])
        metrics["loadgen.late_p50_ms"] = 1000.0 * statistics.median(late)
        metrics["loadgen.late_max_ms"] = 1000.0 * max(late)
        return metrics, attempted, failed

    kept = [(op, r) for op, r in zip(ops, records) if op["segment"] in measured]
    reads = [r["latency"] for op, r in kept if op["kind"] != "update"]
    writes = [r["latency"] for op, r in kept if op["kind"] == "update"]
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": gate.peak_rss_mb()}
    report.append(f"  setup_s: median of {len(setups)} server boots + warm-ups {['%.3f' % s for s in setups]}")
    metrics.update(latency_metrics("query", reads, report))
    metrics.update(latency_metrics("update", writes, report))
    finish = max(r["finish"] for r in records)
    metrics["throughput_ops"] = len(records) / finish
    report.append(
        f"  throughput_ops: {len(records)} ops completed in {finish:.2f} s "
        f"(offered {len(records) / ops[-1]['t']:.1f}/s, open loop, 2 connections)"
    )
    report.append(
        f"  loadgen late: p50 {statistics.median(late) * 1000:.3f} ms, max {max(late) * 1000:.2f} ms"
    )
    return metrics, attempted, failed


def http_layers(name, ops, records, reference, traced, before, after, report: list[str]) -> dict:
    import httpload

    trace = traced["trace"]
    op_seconds = sum(r["seconds"] for r in traced["records"])
    metrics = layer_metrics(trace, op_seconds=op_seconds, report=report)
    absent: list[str] = []

    def delta(series: str, label: str = "", on_first_event: bool = False) -> float:
        """Growth of a /metrics series over the timed phase.  A series the
        server renders only *on_first_event* may be absent and read 0."""
        if not on_first_event and not any(key[0] == series for key in after):
            absent.append(series)
        return httpload.metric_sum(after, series, label) - httpload.metric_sum(before, series, label)

    # The shard's own cache counters and the server-side route timings.
    for counter in ("hits", "misses", "evictions"):
        metrics[f"service.{counter}"] = int(delta("gdatalog_service_cache", f'counter="{counter}"'))
    lookups = metrics["service.hits"] + metrics["service.misses"]
    metrics["service.hit_ratio"] = metrics["service.hits"] / lookups if lookups else 0.0
    for route in ("query", "batch", "sample", "update"):
        label = f'route="{route}"'
        count = delta("gdatalog_request_seconds_count", label)
        total = delta("gdatalog_request_seconds_sum", label)
        metrics[f"http.server_ms.{route}"] = 1000.0 * total / count if count else 0.0
    metrics["shard.respawns"] = int(delta("gdatalog_worker_respawns_total"))
    passes = delta("gdatalog_microbatch_batches_total")
    entering = delta("gdatalog_microbatch_requests_total")
    metrics["microbatch.passes"] = int(passes)
    metrics["microbatch.requests_per_pass"] = entering / passes if passes else 0.0
    metrics["admission.rejected"] = int(delta("gdatalog_rejected_total", on_first_event=True))
    absent = sorted(set(absent))
    report.append(f"  trace: {len(absent)} /metrics series absent: {', '.join(absent) or 'none'}")
    metrics["trace.missing"] += len(absent)
    # Wire: HTTP read latency from the actual send, minus the in-process answer.
    http_reads = [r["service"] for op, r in zip(ops, records) if op["kind"] != "update"]
    local_reads = [r["seconds"] for op, r in zip(ops, reference["records"]) if op["kind"] != "update"]
    metrics["http.wire_ms"] = 1000.0 * (statistics.median(http_reads) - statistics.median(local_reads))
    journal = traced.get("journal") or {}
    metrics["journal.records"] = journal.get("records", 0)
    metrics["journal.compactions"] = journal.get("compactions", 0)
    metrics["journal.bytes_per_update"] = journal.get("bytes_per_update", 0.0)
    return metrics


# -- main ----------------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold_mix", "serve_read", "stream_rw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repository source at {ROOT / 'src' / 'repro'}; run from the checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Bytecode is compiled before anything is timed.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir()
    report = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"]
    try:
        report.append(f"environment {json.dumps(environment())}")
        if args.workload == "cold_mix":
            metrics, attempted, failed = cold_mix(args.seed, args.seconds, bool(args.trace), report)
        else:
            metrics, attempted, failed = http_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), report
            )
        if args.trace:
            metrics["cli.import_ms"] = import_ms()
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    if args.trace:
        units = PER_LAYER
        values = {name: metrics.get(name, 0) for name in PER_LAYER}
    else:
        units = END_TO_END_UNITS
        values = {name: metrics[name] for name in END_TO_END_UNITS}
    report.append(f"attempted {attempted} failed {failed}")
    for line in report:
        print(line)
    for name, value in values.items():
        print(f"  {name} = {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
