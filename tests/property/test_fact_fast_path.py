"""Property tests: the one-regex-per-line fact reader equals the generic parser.

:func:`~repro.logic.parser.parse_fact_lines` reads a database text of one
ground fact per line; every other text falls back, as a whole, to the
tokenizer and parser.  These suites generate fact files — arities 0-3,
ints, negative ints, floats, quoted strings holding commas and spaces,
lowercase identifiers, blank lines, CRLF line ends and tabs — and assert
that :func:`~repro.logic.parser.parse_database` and
:func:`~repro.gdatalog.checker.check_source` give exactly what the generic
path gives: the same database, the same ``ParseError`` text, the same
diagnostics and the same fact spans.  Malformed lines mixed into a file
must send it down the generic path.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParseError
from repro.gdatalog.checker import analysis as analysis_module
from repro.gdatalog.checker import check_source
from repro.gdatalog.checker.analyses import SpanIndex
from repro.logic.parser import _parse_database_statements, parse_database, parse_fact_lines

_NAMES = ("p", "edge", "not", "q_1", "aB9")
_IDENTS = ("a", "red", "x_1", "not", "zZ9")
_SPACES = st.sampled_from(("", "", " ", "  ", "\t", " \t", "\r"))

#: One line each, of every kind that must send the whole text to the
#: generic path (the fact split over two lines spans two).  The last two
#: hold a form feed and a line separator, which ``str.splitlines`` would
#: split on but the tokenizer rejects.
MALFORMED = (
    "% a comment",
    "p(X) :- edge(X, 1).",
    "p(X).",
    "p(1). edge(2, 3).",
    "p(1,\n2).",
    'p("abc).',
    "p(1).\x0cedge(2, 3).",
    "p(1).\u2028edge(2, 3).",
)

#: Derives ``p/1`` and ``edge/2``, so facts for them draw GDL021 findings
#: whose spans are fact spans, and other arities draw GDL020.
DERIVING = "p(X) :- edge(X, Y).\nedge(X, X) :- q_1(X).\n"


@st.composite
def args(draw) -> str:
    kind = draw(st.sampled_from(("int", "float", "string", "ident")))
    if kind == "int":
        return str(draw(st.integers(-(10**6), 10**6)))
    if kind == "float":
        sign = draw(st.sampled_from(("", "-")))
        return f"{sign}{draw(st.integers(0, 999))}.{draw(st.sampled_from(('0', '5', '25', '125', '007')))}"
    if kind == "string":
        body = draw(st.text(alphabet=" ,abXY1.()%:-_'", max_size=8))
        return f'"{body}"'
    return draw(st.sampled_from(_IDENTS))


@st.composite
def fact_lines(draw) -> str:
    name = draw(st.sampled_from(_NAMES))
    terms = [draw(args()) for _ in range(draw(st.integers(0, 3)))]
    if not terms:
        return f"{draw(_SPACES)}{name}{draw(_SPACES)}.{draw(_SPACES)}"
    inner = ",".join(f"{draw(_SPACES)}{term}{draw(_SPACES)}" for term in terms)
    return f"{draw(_SPACES)}{name}{draw(_SPACES)}({inner}){draw(_SPACES)}.{draw(_SPACES)}"


@st.composite
def fact_files(draw) -> str:
    lines = draw(st.lists(st.one_of(fact_lines(), _SPACES), max_size=12))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


@st.composite
def malformed_files(draw) -> str:
    lines = draw(st.lists(st.one_of(fact_lines(), _SPACES), max_size=8))
    position = draw(st.integers(0, len(lines)))
    lines.insert(position, draw(st.sampled_from(MALFORMED)))
    return "\n".join(lines)


def _parsed(parse, text: str):
    try:
        return parse(text)
    except ParseError as error:
        return f"ParseError: {error}"


def _generic_check(program: str, text: str):
    with mock.patch.object(analysis_module, "parse_fact_lines", lambda source: None):
        return check_source(program, text)


def _read(read, text: str):
    """What one of the checker's database readers yields: database, findings, spans."""
    spans, diagnostics = SpanIndex(), []
    database = read(text, spans, diagnostics)
    return database, diagnostics, spans.fact_spans


def _assert_checks_agree(text: str) -> None:
    assert _read(analysis_module._check_database_source, text) == _read(
        analysis_module._check_database_statements, text
    )
    for program in ("", DERIVING):
        fast = check_source(program, text)
        generic = _generic_check(program, text)
        assert fast.diagnostics == generic.diagnostics
        assert fast.database == generic.database


@settings(max_examples=150, deadline=None)
@given(fact_files())
def test_fact_files_take_the_fast_path_and_parse_as_the_generic_path(text):
    assert parse_fact_lines(text) is not None
    assert _parsed(parse_database, text) == _parsed(_parse_database_statements, text)


@settings(max_examples=60, deadline=None)
@given(fact_files())
def test_fact_files_check_as_on_the_generic_path(text):
    _assert_checks_agree(text)


@settings(max_examples=100, deadline=None)
@given(malformed_files())
def test_malformed_files_fall_back_to_the_generic_path(text):
    assert parse_fact_lines(text) is None
    assert _parsed(parse_database, text) == _parsed(_parse_database_statements, text)
    _assert_checks_agree(text)
