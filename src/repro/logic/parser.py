"""A textual surface syntax for Datalog¬ and GDatalog¬[Δ] programs.

The grammar (Prolog-flavoured, ``%`` starts a line comment)::

    program     ::= (statement)*
    statement   ::= fact | rule | constraint
    fact        ::= atom '.'
    rule        ::= head_atom ':-' body '.'
    constraint  ::= ':-' body '.'
    body        ::= literal (',' literal)*
    literal     ::= atom | 'not' atom
    head_atom   ::= ident '(' head_term (',' head_term)* ')' | ident
    atom        ::= ident '(' term (',' term)* ')' | ident
    head_term   ::= term | delta_term
    delta_term  ::= ident '<' term (',' term)* '>' ('[' term (',' term)* ']')?
    term        ::= VARIABLE | NUMBER | STRING | ident

Identifiers starting with an uppercase letter or ``_`` are variables;
everything else is a constant symbol.  Δ-terms such as ``flip<0.1>[X, Y]``
are only allowed in rule heads; the distribution name must be registered in
the :class:`~repro.distributions.registry.DistributionRegistry` supplied to
:func:`parse_gdatalog_program` (the default registry knows the built-in
distributions).

Two entry points are provided:

* :func:`parse_datalog_program` — plain Datalog¬ (Δ-terms rejected).
* :func:`parse_gdatalog_program` — GDatalog¬[Δ] (returns a
  :class:`~repro.gdatalog.syntax.GDatalogProgram`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.exceptions import ParseError, SourceSpan, ValidationError
from repro.logic.atoms import Atom, Predicate
from repro.logic.database import Database
from repro.logic.program import DatalogProgram
from repro.logic.rules import FALSE_ATOM, Rule
from repro.logic.terms import Constant, Term, Variable

__all__ = [
    "Token",
    "tokenize",
    "split_statements",
    "parse_statements",
    "parse_datalog_program",
    "parse_gdatalog_program",
    "parse_atom",
    "parse_database",
    "parse_fact_lines",
    "database_reads_back",
]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_SPEC: tuple[tuple[str, str], ...] = (
    ("COMMENT", r"%[^\n]*"),
    ("ARROW", r":-"),
    ("NUMBER", r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"),
    ("STRING", r'"[^"\n]*"'),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LANGLE", r"<"),
    ("RANGLE", r">"),
    ("LBRACK", r"\["),
    ("RBRACK", r"\]"),
    ("COMMA", r","),
    ("DOT", r"\."),
    ("NEWLINE", r"\n"),
    ("SKIP", r"[ \t\r]+"),
    ("MISMATCH", r"."),
)

_TOKEN_REGEX = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


@dataclass(frozen=True)
class Token:
    """A lexical token with its source position (1-based)."""

    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, dropping comments and whitespace."""
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN_REGEX.finditer(source):
        kind = match.lastgroup or "MISMATCH"
        text = match.group()
        column = match.start() - line_start + 1
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
            continue
        if kind in ("SKIP", "COMMENT"):
            continue
        if kind == "MISMATCH":
            raise ParseError(f"unexpected character {text!r}", line, column)
        tokens.append(Token(kind, text, line, column))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedDeltaTerm:
    """A Δ-term as produced by the parser (resolved later against a registry)."""

    name: str
    parameters: tuple[Term, ...]
    event_signature: tuple[Term, ...]
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ParsedAtom:
    """An atom whose arguments may include parsed Δ-terms (heads only)."""

    name: str
    args: tuple[object, ...]  # Term | ParsedDeltaTerm
    span: SourceSpan | None = field(default=None, compare=False)

    @property
    def has_delta(self) -> bool:
        return any(isinstance(a, ParsedDeltaTerm) for a in self.args)

    def to_atom(self) -> Atom:
        if self.has_delta:
            raise ParseError(f"Δ-terms are not allowed here: {self.name}")
        return Atom(Predicate(self.name, len(self.args)), tuple(self.args))  # type: ignore[arg-type]


@dataclass(frozen=True)
class ParsedRule:
    """A raw parsed statement before semantic validation."""

    head: ParsedAtom | None  # ``None`` for constraints
    positive_body: tuple[ParsedAtom, ...]
    negative_body: tuple[ParsedAtom, ...]
    span: SourceSpan | None = field(default=None, compare=False)

    @property
    def is_constraint(self) -> bool:
        return self.head is None


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: Sequence[Token]):
        self._tokens = list(tokens)
        self._position = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token | None:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self._position += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"expected {kind}, found end of input")
        if token.kind != kind:
            raise ParseError(f"expected {kind}, found {token.text!r}", token.line, token.column)
        return self._advance()

    def _check(self, kind: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == kind

    def _span_from(self, start: Token) -> SourceSpan:
        """The span from *start* to the most recently consumed token."""
        end = self._tokens[self._position - 1] if self._position else start
        return SourceSpan(start.line, start.column, end.line, end.column + len(end.text))

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> list[ParsedRule]:
        statements: list[ParsedRule] = []
        while self._peek() is not None:
            statements.append(self._statement())
        return statements

    def _statement(self) -> ParsedRule:
        start = self._peek()
        assert start is not None
        if self._check("ARROW"):
            self._advance()
            positive, negative = self._body()
            self._expect("DOT")
            return ParsedRule(None, positive, negative, span=self._span_from(start))
        head = self._atom(allow_delta=True)
        if self._check("DOT"):
            self._advance()
            return ParsedRule(head, (), (), span=self._span_from(start))
        self._expect("ARROW")
        positive, negative = self._body()
        self._expect("DOT")
        return ParsedRule(head, positive, negative, span=self._span_from(start))

    def _body(self) -> tuple[tuple[ParsedAtom, ...], tuple[ParsedAtom, ...]]:
        positive: list[ParsedAtom] = []
        negative: list[ParsedAtom] = []
        while True:
            negated = False
            token = self._peek()
            if token is not None and token.kind == "IDENT" and token.text == "not":
                self._advance()
                negated = True
            atom_ = self._atom(allow_delta=False)
            (negative if negated else positive).append(atom_)
            if self._check("COMMA"):
                self._advance()
                continue
            break
        return tuple(positive), tuple(negative)

    def _atom(self, allow_delta: bool) -> ParsedAtom:
        name_token = self._expect("IDENT")
        name = name_token.text
        if name[0].isupper() or name[0] == "_":
            raise ParseError(f"predicate names must start with a lowercase letter: {name!r}",
                             name_token.line, name_token.column)
        if not self._check("LPAREN"):
            return ParsedAtom(name, (), span=self._span_from(name_token))
        self._advance()
        args: list[object] = []
        while True:
            args.append(self._head_term() if allow_delta else self._term())
            if self._check("COMMA"):
                self._advance()
                continue
            break
        self._expect("RPAREN")
        return ParsedAtom(name, tuple(args), span=self._span_from(name_token))

    def _head_term(self) -> object:
        token = self._peek()
        if token is not None and token.kind == "IDENT" and not (token.text[0].isupper() or token.text[0] == "_"):
            # Could be a plain constant symbol or the start of a Δ-term.
            next_token = self._tokens[self._position + 1] if self._position + 1 < len(self._tokens) else None
            if next_token is not None and next_token.kind == "LANGLE":
                return self._delta_term()
        return self._term()

    def _delta_term(self) -> ParsedDeltaTerm:
        name_token = self._expect("IDENT")
        name = name_token.text
        self._expect("LANGLE")
        parameters: list[Term] = [self._term()]
        while self._check("COMMA"):
            self._advance()
            parameters.append(self._term())
        self._expect("RANGLE")
        event_signature: list[Term] = []
        if self._check("LBRACK"):
            self._advance()
            if not self._check("RBRACK"):
                event_signature.append(self._term())
                while self._check("COMMA"):
                    self._advance()
                    event_signature.append(self._term())
            self._expect("RBRACK")
        return ParsedDeltaTerm(
            name, tuple(parameters), tuple(event_signature), span=self._span_from(name_token)
        )

    def _term(self) -> Term:
        token = self._advance()
        if token.kind == "IDENT" and (token.text[0].isupper() or token.text[0] == "_"):
            return Variable(token.text)
        if token.kind in ("NUMBER", "STRING", "IDENT"):
            return _constant(token.text)
        raise ParseError(f"expected a term, found {token.text!r}", token.line, token.column)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def _parsed_atom_to_atom(parsed: ParsedAtom) -> Atom:
    return parsed.to_atom()


def split_statements(tokens: Sequence[Token]) -> list[list[Token]]:
    """Split a token stream into per-statement groups at ``DOT`` boundaries.

    Used by the static checker for error recovery: each group is parsed
    independently, so one malformed statement yields one diagnostic
    instead of aborting the whole check.  A trailing group without a dot
    is kept (it will fail to parse, producing its own diagnostic).
    """
    groups: list[list[Token]] = []
    current: list[Token] = []
    for token in tokens:
        current.append(token)
        if token.kind == "DOT":
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


def parse_statements(source: str) -> list[ParsedRule]:
    """Parse *source* into raw :class:`ParsedRule` statements (with spans)."""
    return _Parser(tokenize(source)).parse_program()


def parse_statement_tokens(tokens: Sequence[Token]) -> ParsedRule:
    """Parse exactly one statement from *tokens* (a :func:`split_statements` group)."""
    parser = _Parser(tokens)
    statement = parser._statement()
    trailing = parser._peek()
    if trailing is not None:
        raise ParseError(
            f"trailing input after statement: {trailing.text!r}", trailing.line, trailing.column
        )
    return statement


def parse_atom(source: str) -> Atom:
    """Parse a single (possibly non-ground) atom, e.g. ``"edge(1, X)"``."""
    parser = _Parser(tokenize(source))
    parsed = parser._atom(allow_delta=False)
    if parser._peek() is not None:
        token = parser._peek()
        assert token is not None
        raise ParseError(f"trailing input after atom: {token.text!r}", token.line, token.column)
    return _parsed_atom_to_atom(parsed)


#: One whole line holding one ground fact, ``name(arg, ...).`` or ``name.``,
#: in the tokenizer's own terms: an arg is a NUMBER, a STRING or a lowercase
#: identifier, whitespace is SKIP.  Groups: the name, the argument text,
#: and an empty group marking the dot.
_TOKEN_PATTERNS = dict(_TOKEN_SPEC)
_WS = f"(?:{_TOKEN_PATTERNS['SKIP']})?"
_LOWER_IDENT = r"[a-z][A-Za-z0-9_]*"
_FACT_ARG = f"{_TOKEN_PATTERNS['NUMBER']}|{_TOKEN_PATTERNS['STRING']}|{_LOWER_IDENT}"
_FACT_LINE = re.compile(
    rf"{_WS}({_LOWER_IDENT}){_WS}"
    rf"(?:\(({_WS}(?:{_FACT_ARG}){_WS}(?:,{_WS}(?:{_FACT_ARG}){_WS})*)\){_WS})?"
    rf"()\.{_WS}"
)
_FACT_ARG_TOKEN = re.compile(_FACT_ARG)
_FACT_NAME = re.compile(_LOWER_IDENT)


def _constant(text: str) -> Constant:
    """The constant a NUMBER, STRING or lowercase IDENT token denotes."""
    first = text[0]
    if first == '"':
        return Constant(text[1:-1])
    if "a" <= first <= "z":
        return Constant(text)
    # A NUMBER with a ``.`` or an exponent is a float.
    return Constant(int(text) if text.lstrip("-").isdigit() else float(text))


def parse_fact_lines(source: str) -> list[tuple[Atom, SourceSpan]] | None:
    """The facts of *source* with their statement spans, or ``None``.

    The fast path of :func:`parse_database` and the checker: one regex match
    per line.  It applies only when every line is blank (``[ \\t\\r]*``) or
    holds exactly one ground fact; any other line — a comment, a rule, a
    variable, two facts on a line, a fact split over two lines — returns
    ``None`` and the caller parses the whole text on the generic path, so
    errors and diagnostics stay those of the tokenizer and parser.  Lines
    split on ``"\\n"`` only, as the tokenizer counts them, and each span
    equals the generic statement span (the name's column to the column
    after the dot).
    """
    facts: list[tuple[Atom, SourceSpan]] = []
    predicates: dict[tuple[str, int], Predicate] = {}
    constants: dict[str, Constant] = {}
    for number, line in enumerate(source.split("\n"), 1):
        match = _FACT_LINE.fullmatch(line)
        if match is None:
            if line.strip(" \t\r"):
                return None
            continue
        name, arg_text = match.group(1, 2)
        if arg_text is None:
            tokens: list[str] = []
        elif '"' in arg_text:
            tokens = _FACT_ARG_TOKEN.findall(arg_text)
        else:
            tokens = [token.strip(" \t\r") for token in arg_text.split(",")]
        args = []
        for token in tokens:
            constant = constants.get(token)
            if constant is None:
                constant = constants[token] = _constant(token)
            args.append(constant)
        predicate = predicates.get((name, len(args)))
        if predicate is None:
            predicate = predicates[name, len(args)] = Predicate(name, len(args))
        span = SourceSpan(number, match.start(1) + 1, number, match.start(3) + 2)
        facts.append((Atom(predicate, tuple(args)), span))
    return facts


def database_reads_back(database: Database) -> bool:
    """Whether each fact of *database*, written as ``f"{fact}."``, parses back to itself.

    ``str`` writes a few constants in forms the grammar cannot read —
    ``inf`` and ``nan``, strings holding ``"`` or a newline — and a
    predicate built in code may have any name.
    """
    if not all(_FACT_NAME.fullmatch(p.name) for p in database.schema):
        return False
    for constant in database.domain():
        text = str(constant)
        if _FACT_ARG_TOKEN.fullmatch(text) is None or _constant(text) != constant:
            return False
    return True


def parse_database(source: str) -> Database:
    """Parse a sequence of facts (``atom.`` statements) into a :class:`Database`.

    A text of one ground fact per line takes the line-regex fast path of
    :func:`parse_fact_lines`; anything else (comments, several facts on a
    line, malformed input) is parsed by the generic tokenizer and parser,
    which also raises the errors.
    """
    lines = parse_fact_lines(source)
    if lines is not None:
        return Database(fact for fact, _ in lines)
    return _parse_database_statements(source)


def _parse_database_statements(source: str) -> Database:
    """:func:`parse_database` on the generic path (the fast path's reference)."""
    statements = _Parser(tokenize(source)).parse_program()
    facts: list[Atom] = []
    for statement in statements:
        if statement.is_constraint or statement.positive_body or statement.negative_body:
            raise ParseError("databases may only contain facts")
        assert statement.head is not None
        atom_ = _parsed_atom_to_atom(statement.head)
        if not atom_.is_ground:
            raise ParseError(f"database facts must be ground, got {atom_}")
        facts.append(atom_)
    return Database(facts)


def parse_datalog_program(source: str) -> DatalogProgram:
    """Parse a plain Datalog¬ program (rejecting Δ-terms)."""
    statements = _Parser(tokenize(source)).parse_program()
    rules: list[Rule] = []
    for statement in statements:
        positive = tuple(_parsed_atom_to_atom(a) for a in statement.positive_body)
        negative = tuple(_parsed_atom_to_atom(a) for a in statement.negative_body)
        try:
            if statement.is_constraint:
                rules.append(Rule(FALSE_ATOM, positive, negative))
                continue
            assert statement.head is not None
            if statement.head.has_delta:
                raise ParseError(
                    f"Δ-term in head of {statement.head.name}: use parse_gdatalog_program for GDatalog¬[Δ] programs"
                )
            rules.append(Rule(_parsed_atom_to_atom(statement.head), positive, negative))
        except ValidationError as error:
            raise error.with_span(statement.span)
    return DatalogProgram(rules)


def parse_gdatalog_program(source: str, registry=None):
    """Parse a GDatalog¬[Δ] program.

    The returned object is a :class:`repro.gdatalog.syntax.GDatalogProgram`.
    *registry* defaults to the built-in distribution registry.
    """
    # Imported lazily to avoid a circular import (gdatalog.syntax imports terms etc.).
    from repro.distributions.registry import default_registry
    from repro.gdatalog.delta_terms import DeltaTerm
    from repro.gdatalog.syntax import GDatalogProgram, GDatalogRule, HeadAtom

    active_registry = registry if registry is not None else default_registry()
    statements = _Parser(tokenize(source)).parse_program()
    rules: list[GDatalogRule] = []
    for statement in statements:
        positive = tuple(_parsed_atom_to_atom(a) for a in statement.positive_body)
        negative = tuple(_parsed_atom_to_atom(a) for a in statement.negative_body)
        try:
            if statement.is_constraint:
                rules.append(GDatalogRule.constraint(positive, negative))
                continue
            assert statement.head is not None
            head_args: list[object] = []
            for arg in statement.head.args:
                if isinstance(arg, ParsedDeltaTerm):
                    if not active_registry.knows(arg.name):
                        raise ParseError(f"unknown distribution {arg.name!r} in Δ-term")
                    head_args.append(DeltaTerm(arg.name, arg.parameters, arg.event_signature))
                else:
                    head_args.append(arg)
            head = HeadAtom(Predicate(statement.head.name, len(head_args)), tuple(head_args))
            rules.append(GDatalogRule(head, positive, negative))
        except ValidationError as error:
            raise error.with_span(statement.span)
    return GDatalogProgram(rules, registry=active_registry)
