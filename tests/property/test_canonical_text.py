"""Property tests: the canonical database text parses back to its database.

:meth:`InferenceService.canonical_database_source` writes each fact as
``f"{fact}."``; an update returns that text, a named stream records it, and
clients send it back with their next request.  So every constant ``str``
writes must read back as itself: floats in exponent form (``1e-05``,
``-2.5e+300``), non-ASCII strings (quoted), strings holding spaces and
commas.  What ``str`` still cannot write — ``inf``, ``nan``, a string
holding ``"`` or a newline, a predicate name built in code — is caught by
:func:`~repro.logic.parser.database_reads_back`, and the post-delta
analysis then checks the text in full.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdatalog.checker import check_source
from repro.logic.atoms import Atom, Predicate
from repro.logic.database import Database
from repro.logic.parser import database_reads_back, parse_database
from repro.logic.terms import Constant
from repro.runtime.service import InferenceService
from repro.server import protocol

_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True)
_STRINGS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters='"\n'),
    max_size=8,
)
_CONSTANTS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.00001, 1e-300, 5e-324, -2.5e300, 1e16, -0.0)),
    _STRINGS,
    st.sampled_from(("é", "naïve", "a b", "x,y", "Upper", "", "not", "ok_1")),
)


@st.composite
def databases(draw) -> Database:
    facts = []
    for _ in range(draw(st.integers(0, 6))):
        args = [Constant(draw(_CONSTANTS)) for _ in range(draw(st.integers(0, 3)))]
        facts.append(Atom(Predicate(draw(_NAMES), len(args)), tuple(args)))
    return Database(facts)


@settings(max_examples=200, deadline=None)
@given(databases())
def test_the_canonical_text_parses_back_to_the_database(database):
    text = InferenceService.canonical_database_source(database)
    assert parse_database(text) == database
    assert database_reads_back(database)


PROGRAM = "coin(flip<0.5>).\nseen(X) :- p(X), coin(1).\n"


@settings(max_examples=40, deadline=None)
@given(value=_CONSTANTS)
def test_a_query_on_the_text_an_update_returned_succeeds(value):
    """Through the protocol: the returned text, sent back directly or kept by
    a named stream, answers the next query."""
    fact = str(Atom(Predicate("p", 1), (Constant(value),)))
    query = f"seen({Constant(value)})"
    service, streams = InferenceService(validate=True), protocol.StreamRegistry()
    update = {"stream": "s", "program": PROGRAM, "database": "p(2).", "delta": {"insert": [fact]}}
    updated = protocol.answer(service, update, streams)
    assert updated["ok"], updated
    direct = {"program": PROGRAM, "database": updated["database"], "queries": [query]}
    assert protocol.answer(service, direct)["results"] == [0.5]
    on_stream = protocol.answer(service, {"stream": "s", "queries": [query]}, streams)
    assert on_stream["ok"], on_stream
    assert on_stream["results"] == [0.5]


def test_the_reproductions_read_back():
    for value, text in ((0.00001, "p(1e-05)."), ("é", 'p("é").')):
        database = Database([Atom(Predicate("p", 1), (Constant(value),))])
        assert InferenceService.canonical_database_source(database) == text
        assert parse_database(text) == database


def test_an_unwritable_database_is_checked_in_full():
    """``inf``, ``nan``, a quote inside a string and a predicate name built
    in code do not read back; the post-delta analysis of such a database
    falls back to a full check of its text."""
    base = check_source("q(X) :- p(X).", "p(1).")
    unwritable = [
        Constant(math.inf),
        Constant(math.nan),
        Constant('say "hi"'),
        Constant("two\nlines"),
    ]
    for constant in unwritable:
        database = Database([Atom(Predicate("p", 1), (constant,))])
        assert not database_reads_back(database)
    database = Database([Atom(Predicate("Not-a-name", 1), (Constant(1),))])
    assert not database_reads_back(database)
    facts = sorted(database.facts, key=Atom.sort_key)
    text = "\n".join(f"{fact}." for fact in facts)
    derived = base.with_database(database, text, facts)
    fresh = check_source("q(X) :- p(X).", text)
    assert not fresh.ok  # the text does not parse: GDL000
    assert derived.diagnostics == fresh.diagnostics
    assert derived.database == fresh.database
