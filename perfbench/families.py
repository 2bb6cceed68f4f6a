"""Programs, databases and closed-form answers for the benchmark workloads.

Every program is built with the ``repro.workloads`` generators and sent as
source text, the way a client would send it.  Every request carries the
answers it must produce, as exact closed forms.
"""

from __future__ import annotations

import random

from repro import workloads as W
from repro.logic.atoms import Atom

#: Propagation probability of the resilience family (the paper's 0.1).
INFECTION_P = 0.1


def program_text(program) -> str:
    return "\n".join(str(rule) for rule in program)


def database_text(database) -> str:
    return "\n".join(f"{fact}." for fact in sorted(database.facts, key=Atom.sort_key))


def _without(database, withheld: str) -> str:
    lines = database_text(database).splitlines()
    lines.remove(f"{withheld}.")
    return "\n".join(lines)


def _coins_program() -> str:
    """The independent-coins rules without the stratified-negation rule."""
    return "\n".join(
        str(rule) for rule in W.independent_coins_program() if not rule.negative_body
    )


# -- cold_mix families -----------------------------------------------------------

#: ``(family, size, queries, updates)``: every block of the cold_mix
#: sequence holds each cell's queries and updates once, in a seeded order.
#: The cells form groups by cost (at the reference speed of ``run.py``),
#: and the counts put every median and tail in the middle of one group's
#: operations, not on the edge between two, where a quantile jumps from
#: one group to the other with the seed's order:
#:
#: * fast, 10-20 ms: 16 queries and 8 updates per block;
#: * middle, 22-30 ms: 18 queries and 12 updates per block, holding both
#:   medians (the 25th-26th of 50 queries and the 14th-15th of 28 updates
#:   of a block).  A narrow band with many ops: the median of a broad one
#:   moved by ±10% with the seed's order alone;
#: * slower, 35-135 ms, the rest of every family but ``joins``: 10
#:   queries and 2 updates per block;
#: * ``joins``, 170-470 ms: 6 queries and 6 updates per block, holding
#:   both tails.  A full collection of Python's cyclic collector (0.1-0.2
#:   s here) lands on about 60% of the ``joins`` queries and 80% of their
#:   updates, so in a 5-block run the 11th slowest of 250 queries and the
#:   12th slowest of 140 updates fall well inside the 18 and 24 of them
#:   that carry one.
COLD_CELLS: tuple[tuple[str, object, int, int], ...] = (
    ("coins", 3, 4, 2), ("lucky", 3, 4, 2), ("dimes", (2, 1), 4, 2), ("wide", 3, 4, 2),
    ("coins", 4, 6, 4), ("lucky", 4, 6, 4), ("dimes", (3, 1), 6, 4),
    ("resilience", ("chain", 4), 2, 1), ("wide", 4, 2, 1),
    ("coins", 5, 1, 0), ("lucky", 5, 1, 0), ("dimes", (3, 2), 1, 0),
    ("resilience", ("star", 4), 1, 0), ("resilience", ("clique", 3), 1, 0), ("wide", 5, 1, 0),
    ("joins", 2, 6, 6),
)

FAMILIES = ("coins", "lucky", "dimes", "resilience", "wide", "joins")

#: Nodes of the selective-join database.
JOIN_NODES = 200

_ALERT_RULE = "alert(X, flip<0.5>[X]) :- reach2(X), colored(X, red)."


def _red_two_hop(database) -> list[int]:
    """Red nodes two ``edge`` hops from a ``start`` node, found independently."""
    edges: dict[int, set[int]] = {}
    starts, reds = set(), set()
    for fact in database.facts:
        args = [term.value for term in fact.args]
        if fact.predicate.name == "edge":
            edges.setdefault(args[0], set()).add(args[1])
        elif fact.predicate.name == "start":
            starts.add(args[0])
        elif fact.predicate.name == "colored" and args[1] == "red":
            reds.add(args[0])
    one_hop = {y for x in starts for y in edges.get(x, ())}
    two_hop = {z for y in one_hop for z in edges.get(y, ())}
    return sorted(two_hop & reds)


def _joins_database(rng: random.Random, alerts: int):
    """A selective-join database with exactly *alerts* red two-hop nodes."""
    while True:
        database = W.selective_join_database(JOIN_NODES, seed=rng.randrange(1 << 30))
        reds = _red_two_hop(database)
        if len(reds) == alerts:
            return database, reds


def cold_request(family: str, size, kind: str, rng: random.Random, marker: int) -> dict:
    """One never-seen cold_mix request plus its expected results.

    *marker* salts the program with a unique fact, so neither the service
    cache nor the process-wide solver memo can answer it from an earlier
    operation.  An ``update`` withholds one fact from the database and
    inserts it with the request's delta: the answer on the post-delta state
    has the same closed form as the full program.
    """
    if family in ("coins", "lucky"):
        n = size
        program = _coins_program() if family == "coins" else program_text(W.independent_coins_program())
        database = W.independent_coins_database(n)
        queries = [f"heads({n})", "tails(1)"] if family == "coins" else [f"lucky({n})", "lucky(1)"]
        expected = [0.5, 0.5]
        withheld = f"coin_id({n})"
    elif family == "dimes":
        d, q = size
        program = program_text(W.dime_quarter_program())
        database = W.dime_quarter_database(d, q)
        queries = ["somedimetail", f"quartertail({d + 1}, 1)"]
        expected = [1.0 - 2.0 ** -d, 2.0 ** -(d + 1)]
        withheld = f"quarter({d + q})"
    elif family == "resilience":
        topology, n = size
        program = program_text(W.resilience_program(INFECTION_P))
        database = W.network_database(W.topology_graph(topology, n), infected_seeds=[0])
        queries = [{"type": "has_stable_model"}]
        p = INFECTION_P
        expected = [{"star": 1.0, "chain": p ** (n - 2), "clique": 1.0 - (1.0 - p) ** 2}[topology]]
        withheld = f"router({n})"
    elif family == "wide":
        columns = size
        program = program_text(W.wide_program(columns))
        database = W.wide_database(columns)
        queries = W.wide_query_atoms(1) + W.wide_query_atoms(columns)
        expected = [0.5, 0.5]
        withheld = f"src{columns}(1)"
    elif family == "joins":
        program = program_text(W.selective_join_program()) + "\n" + _ALERT_RULE
        database, reds = _joins_database(rng, size)
        queries = [{"type": "has_stable_model"}] + [f"alert({x}, 1)" for x in reds]
        expected = [1.0] + [0.5] * len(reds)
        withheld = min(
            (str(fact) for fact in database.facts if fact.predicate.name == "start")
        )
    else:
        raise ValueError(f"unknown cold family {family!r}")
    program += f"\nbench_marker({marker})."
    request: dict = {"program": program, "queries": queries}
    if kind == "update":
        request["op"] = "update"
        request["database"] = _without(database, withheld)
        request["delta"] = {"insert": [withheld]}
    else:
        request["database"] = database_text(database)
    return {"family": family, "kind": kind, "request": request, "expected": expected}


# -- serve_read working set --------------------------------------------------------

#: ``(name, family, size)``: the read working set, from 2^5 to 2^9
#: outcomes, hottest first (the request mix is ``workloads.READ_CELLS``).
READ_SET = (
    ("lucky5", "lucky", 5),
    ("coins6", "coins", 6),
    ("wide6", "wide", 6),
    ("dimes5", "dimes", 5),
    ("lucky7", "lucky", 7),
    ("coins7", "coins", 7),
    ("lucky8", "lucky", 8),
    ("coins9", "coins", 9),
)


def read_program(family: str, size: int) -> dict:
    """Sources, a small and a large query list, and their closed forms."""
    if family in ("coins", "lucky"):
        program = _coins_program() if family == "coins" else program_text(W.independent_coins_program())
        database = W.independent_coins_database(size)
        atom = "heads" if family == "coins" else "lucky"
        small = [f"{atom}({size})", f"{atom}(1)"]
        large = [f"{atom}({i})" for i in range(1, size + 1)] + [{"type": "has_stable_model"}]
        small_expected, large_expected = [0.5, 0.5], [0.5] * size + [1.0]
        existing = "coin_id(1)"
    elif family == "wide":
        program = program_text(W.wide_program(size))
        database = W.wide_database(size)
        small = W.wide_query_atoms(1) + W.wide_query_atoms(size)
        large = [atom for c in range(1, size + 1) for atom in W.wide_query_atoms(c)]
        small_expected, large_expected = [0.5, 0.5], [0.5] * size
        existing = "src1(1)"
    elif family == "dimes":
        program = program_text(W.dime_quarter_program())
        database = W.dime_quarter_database(size, 1)
        small = ["somedimetail", f"quartertail({size + 1}, 1)"]
        large = small + [f"dimetail({i}, 1)" for i in range(1, size + 1)]
        small_expected = [1.0 - 2.0 ** -size, 2.0 ** -(size + 1)]
        large_expected = small_expected + [0.5] * size
        existing = "dime(1)"
    else:
        raise ValueError(f"unknown read family {family!r}")
    return {
        "program": program,
        "database": database_text(database),
        "small": small,
        "small_expected": small_expected,
        "large": large,
        "large_expected": large_expected,
        "existing": existing,
    }


# -- stream_rw telemetry streams ----------------------------------------------------

SECTORS = 3


def telemetry_program_text() -> str:
    return program_text(W.telemetry_program(SECTORS))


def lap_facts(driver: int, laps) -> list[str]:
    return [f"lap({driver}, {lap})" for lap in laps]


def gate_facts(laps) -> list[str]:
    return [f"gate{k}({lap})" for lap in laps for k in range(1, SECTORS + 1)]
