"""Seeded operation sequences of the three workloads.

The same ``--seed`` gives the same sequence, and every seed gives the same
*mix*: each block of a sequence holds every cell of the workload's design
exactly once, in a seeded order.  ``--seconds`` sets how many blocks a run
measures, so both sides of a comparison do the same work.

The open-loop schedules are cut into segments of whole blocks.  A run
measures ``segments`` of them; the schedule holds ``SPARE_FACTOR`` times as
many, so a segment the hypervisor stole time from can be replaced by a
later one (see ``run.py``).
"""

from __future__ import annotations

import random

import families as F

#: Scheduled segments per measured segment of an open loop: steal comes in
#: episodes of up to half a minute, and a run only goes on to a spare
#: segment while it lacks valid ones.
SPARE_FACTOR = 2.5


def _segments(seconds: float, segment_seconds: float) -> tuple[int, int]:
    """Segments measured and segments scheduled for a run of *seconds*."""
    measured = max(1, round(seconds / segment_seconds))
    return measured, round(SPARE_FACTOR * measured)


# -- cold_mix ------------------------------------------------------------------------

#: Blocks per second of ``--seconds`` (one block takes four to six seconds
#: on a 2-core x86 VM).
COLD_BLOCKS_PER_SECOND = 0.25


def cold_mix(seed: int, seconds: float) -> dict:
    """Warm-up (one op per family) and the salted op sequence.

    The seed orders and salts the ops.  Every ``joins`` op uses the same
    database instead, so every seed replays the same join work and the
    ``joins`` ops, which hold both tails, differ only in their salt.
    """
    rng = random.Random(seed)
    marker = iter(range(seed * 1_000_000, (seed + 1) * 1_000_000))
    warm = []
    for family in F.FAMILIES:
        size = next(size for name, size, *_ in F.COLD_CELLS if name == family)
        warm.append(F.cold_request(family, size, "query", random.Random(f"warm-{family}"), next(marker)))
    blocks = max(1, round(seconds * COLD_BLOCKS_PER_SECOND))
    cells = [
        (family, size, kind)
        for family, size, queries, updates in F.COLD_CELLS
        for kind, count in (("query", queries), ("update", updates))
        for _ in range(count)
    ]
    ops = []
    for _ in range(blocks):
        rng.shuffle(cells)
        for family, size, kind in cells:
            ops.append(F.cold_request(family, size, kind, random.Random(f"inputs-{family}"), next(marker)))
    return {"warm": warm, "ops": ops}


# -- serve_read ------------------------------------------------------------------------

#: Requests per second of the open loop: half of what one client may send
#: under the server's default admission limit (200/s).
READ_RATE = 100.0
#: Per program of the working set, the requests of each kind in one block
#: of 90; a program's count is its weight in the mix.
#: Fixing the cells, not only their shares, keeps every tail in one mode
#: whatever the seed:
#:
#: * 2 seeded samples per block (40 in a 20 s run) are the slowest reads,
#:   so the read tail (p99, 16 reads beyond it) sits inside them;
#: * 8 no-op updates per block give 160 writes.  Six are the same request
#:   on ``lucky7``, so the update median lies among 120 like requests
#:   rather than between programs of different cost.  Two are the largest
#:   program with its full query list; they hold the tail, the 12th
#:   slowest of 160.  These take either about 6 or about 9 ms, half and
#:   half, so with one per block the tail fell on the edge between the
#:   two; with 40 it lies well inside the slower 20.
READ_CELLS = {
    "lucky5": {"sample": 2, "batch": 2, "query": 25},
    "coins6": {"batch": 1, "query": 15},
    "wide6": {"batch": 1, "query": 11},
    "dimes5": {"batch": 1, "query": 9},
    "lucky7": {"update": 6, "batch": 1, "query": 3},
    "coins7": {"batch": 1, "query": 5},
    "lucky8": {"batch": 1, "query": 3},
    "coins9": {"update_large": 2, "query": 1},
}
#: Paths sampled per seeded ``/v1/sample`` request.
SAMPLE_MAX = 8
#: Blocks of 90 requests per segment (4.5 s).
READ_SEGMENT_BLOCKS = 5


def _read_payload(kind: str, program: dict, rng: random.Random) -> tuple[str, dict, list]:
    sources = {"program": program["program"], "database": program["database"]}
    if kind == "query":
        return "/v1/query", {**sources, "queries": program["small"]}, program["small_expected"]
    if kind == "batch":
        return "/v1/batch", {**sources, "queries": program["large"]}, program["large_expected"]
    if kind in ("update", "update_large"):
        size = "small" if kind == "update" else "large"
        payload = {**sources, "delta": {"insert": [program["existing"]]}, "queries": program[size]}
        return "/v1/update", payload, program[f"{size}_expected"]
    # Every sampled path of these programs ends in an outcome with a stable
    # model, so the seeded estimate has an exact closed form too.
    payload = {
        **sources,
        "queries": [{"type": "has_stable_model"}],
        "seed": rng.randrange(1 << 20),
        "half_width": 0.05,
        "max_samples": SAMPLE_MAX,
    }
    return "/v1/sample", payload, [1.0]


def serve_read(seed: int, seconds: float) -> dict:
    """Warm-up (every program queried, updated and, once, sampled) and the
    seeded open-loop schedule: each block holds every cell of
    ``READ_CELLS`` once, in a seeded order."""
    rng = random.Random(seed)
    programs = {name: F.read_program(family, size) for name, family, size in F.READ_SET}
    setup = []
    for name, cells in READ_CELLS.items():
        for kind in ("query", *(k for k in cells if k != "query")):
            path, payload, expected = _read_payload(kind, programs[name], rng)
            setup.append({"path": path, "payload": payload, "expected": expected, "kind": kind})
    cells = [(name, kind) for name, counts in READ_CELLS.items() for kind, count in counts.items() for _ in range(count)]
    segments, scheduled = _segments(seconds, READ_SEGMENT_BLOCKS * len(cells) / READ_RATE)
    ops = []
    for block in range(scheduled * READ_SEGMENT_BLOCKS):
        rng.shuffle(cells)
        for name, kind in cells:
            path, payload, expected = _read_payload(kind, programs[name], rng)
            ops.append(
                {
                    "t": len(ops) / READ_RATE,
                    "segment": block // READ_SEGMENT_BLOCKS,
                    "lane": 0,
                    "path": path,
                    "payload": payload,
                    "expected": expected,
                    "kind": "update" if kind.startswith("update") else kind,
                }
            )
    return {"setup": setup, "ops": ops, "segments": segments}


# -- stream_rw ------------------------------------------------------------------------

STREAMS = ("s1", "s2", "s3")
BASE_DRIVERS = 3
#: The driver that swaps places with driver ``BASE_DRIVERS``.
SPARE_DRIVER = BASE_DRIVERS + 1
WINDOW = 4
FIRST_LAP = 11
#: Writes per second (one per tick) and reads per tick.
WRITE_RATE = 5.0
READS_PER_TICK = 5
#: The first read of a tick follows its write this closely, so it waits
#: for the write: the time from new evidence to a fresh answer.
READ_BEHIND_WRITE_S = 0.002
#: Every fourth write of a stream changes its drivers.
DRIVER_CHANGE_EVERY = 4
#: Ticks per segment (4.8 s): two whole rounds of every stream's write
#: pattern, so each segment holds the same writes.
STREAM_SEGMENT_TICKS = 2 * len(STREAMS) * DRIVER_CHANGE_EVERY
JOURNAL_FSYNC = "always"
#: Small enough that the journal compacts several times per run.
JOURNAL_MAX_BYTES = 8192


class _Stream:
    def __init__(self, name: str):
        self.name = name
        self.drivers = list(range(1, BASE_DRIVERS + 1))
        self.lo = FIRST_LAP
        self.hi = FIRST_LAP + WINDOW - 1
        self.writes = 0

    def window(self) -> range:
        return range(self.lo, self.hi + 1)

    def open_ops(self) -> list[dict]:
        program = F.telemetry_program_text()
        drivers = "\n".join(f"driver({d})." for d in self.drivers)
        insert = [f for d in self.drivers for f in F.lap_facts(d, self.window())]
        insert += F.gate_facts(self.window())
        queries = ["strong(1)", f"completed(1, {self.hi})", f"completed(1, {self.lo - 1})"]
        return [
            {
                "path": "/v1/query",
                "payload": {"stream": self.name, "program": program, "database": drivers, "queries": ["strong(1)"]},
                "expected": [0.5],
                "kind": "query",
            },
            {
                "path": "/v1/update",
                "payload": {"stream": self.name, "delta": {"insert": insert}, "queries": queries},
                "expected": [0.5, 1.0, 0.0],
                "kind": "update",
            },
        ]

    def write(self) -> tuple[dict, list, list]:
        self.writes += 1
        if self.writes % DRIVER_CHANGE_EVERY == 0:
            # One driver leaves and another joins in the same write: a delta
            # on the probabilistic rules (a rebuild) that keeps the number
            # of drivers, and so the cost of every later write, constant.
            old = SPARE_DRIVER if SPARE_DRIVER in self.drivers else BASE_DRIVERS
            new = BASE_DRIVERS if old == SPARE_DRIVER else SPARE_DRIVER
            self.drivers[self.drivers.index(old)] = new
            delta = {
                "insert": [f"driver({new})"] + F.lap_facts(new, self.window()),
                "retract": [f"driver({old})"] + F.lap_facts(old, self.window()),
            }
            return delta, [f"strong({new})", f"completed({new}, {self.hi})", f"strong({old})"], [0.5, 1.0, 0.0]
        insert = [f for d in self.drivers for f in F.lap_facts(d, [self.hi + 1])]
        retract = [f for d in self.drivers for f in F.lap_facts(d, [self.lo])]
        delta = {"insert": insert + F.gate_facts([self.hi + 1]), "retract": retract + F.gate_facts([self.lo])}
        self.lo += 1
        self.hi += 1
        queries = ["strong(1)", f"completed(1, {self.hi})", f"completed(1, {self.lo - 1})"]
        return delta, queries, [0.5, 1.0, 0.0]

    def read(self) -> tuple[list, list]:
        # Both answers hold in this state and in the two before it, so a
        # read racing the stream's in-flight write has one correct answer.
        return ["strong(1)", f"completed(2, {self.lo + 1})", f"completed(1, {self.lo - 3})"], [0.5, 1.0, 0.0]


def stream_rw(seed: int, seconds: float) -> dict:
    """Set-up (every stream opened, its first window applied) and the
    seeded schedule: per tick, one write, a read of the written stream
    right behind it, and reads of seeded streams spread over the tick."""
    rng = random.Random(seed)
    streams = [_Stream(name) for name in STREAMS]
    setup = [op for stream in streams for op in stream.open_ops()]
    period = 1.0 / WRITE_RATE
    segments, scheduled = _segments(seconds, STREAM_SEGMENT_TICKS * period)
    first = rng.randrange(len(streams))
    ops = []
    for tick in range(scheduled * STREAM_SEGMENT_TICKS):
        stream = streams[(first + tick) % len(streams)]
        delta, queries, expected = stream.write()
        segment = tick // STREAM_SEGMENT_TICKS
        ops.append(
            {
                "t": tick * period,
                "segment": segment,
                "lane": 0,
                "path": "/v1/update",
                "payload": {"stream": stream.name, "delta": delta, "queries": queries},
                "expected": expected,
                "kind": "update",
            }
        )
        for j in range(READS_PER_TICK):
            target = stream if j == 0 else rng.choice(streams)
            offset = READ_BEHIND_WRITE_S if j == 0 else j * period / READS_PER_TICK
            queries, expected = target.read()
            ops.append(
                {
                    "t": tick * period + offset,
                    "segment": segment,
                    "lane": 1,
                    "path": "/v1/query",
                    "payload": {"stream": target.name, "queries": queries},
                    "expected": expected,
                    "kind": "query",
                }
            )
    return {"setup": setup, "ops": ops, "segments": segments}
