"""`ProgramAnalysis`: the checker's summary, cached strategy inputs included.

``check_source`` is the source-level entry point (per-statement error
recovery, spans); ``analyze_program`` is the object-level one used by the
engine and service.  Both produce a :class:`ProgramAnalysis` whose
derived strategy inputs — choice cone, permanent slice seeds, per-query
slice cones, delta patchability, factorization decomposition — are
computed once and reused instead of re-derived per request.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from typing import Any, Iterable, Sequence

from repro.exceptions import ParseError, SourceSpan, ValidationError
from repro.gdatalog.checker.analyses import (
    SpanIndex,
    choice_diagnostics,
    choice_structure,
    cost_smell_diagnostics,
    derivability_diagnostics,
    diag,
    schema_diagnostics,
    stratification_diagnostics,
    unused_diagnostics,
)
from repro.gdatalog.checker.diagnostics import Diagnostic, DiagnosticsError, Severity
from repro.gdatalog.delta_terms import DeltaTerm
from repro.gdatalog.relevance import permanent_seeds as compute_permanent_seeds
from repro.gdatalog.syntax import GDatalogProgram, GDatalogRule, HeadAtom
from repro.logic.atoms import Atom, Predicate
from repro.logic.database import Database
from repro.logic.parser import (
    ParsedAtom,
    ParsedDeltaTerm,
    ParsedRule,
    database_reads_back,
    parse_fact_lines,
    parse_statement_tokens,
    split_statements,
    tokenize,
)
from repro.logic.terms import Variable

__all__ = ["ProgramAnalysis", "analyze_program", "check_source"]


def _sort_key(diagnostic: Diagnostic) -> tuple:
    span = diagnostic.span
    return (
        diagnostic.origin != "program",
        span.line if span is not None else 10**9,
        span.column if span is not None else 10**9,
        diagnostic.code,
        diagnostic.message,
    )


def _ordered(diagnostics: Iterable[Diagnostic]) -> tuple[Diagnostic, ...]:
    return tuple(sorted(diagnostics, key=_sort_key))


class ProgramAnalysis:
    """The checker's verdict plus precomputed strategy-selection inputs.

    The strategy inputs mirror exactly what the runtime derives on its
    own — :attr:`permanent_seeds` matches
    :func:`repro.gdatalog.relevance.permanent_seeds`,
    :meth:`slice_cone` matches the predicate set of
    :func:`repro.gdatalog.relevance.compute_slice`,
    :meth:`delta_patchable` matches
    :func:`repro.gdatalog.incremental.patch_eligible`, and
    :meth:`decomposition` *is* :func:`repro.gdatalog.factorize.decompose`
    memoised for the latest database and chase config — so pre-selected
    strategies produce bit-identical answers (the Hypothesis suites pin
    this).
    """

    def __init__(
        self,
        program: GDatalogProgram,
        database: Database | None,
        diagnostics: Iterable[Diagnostic],
        source: str | None = None,
        database_source: str | None = None,
        database_diagnostics: Iterable[Diagnostic] = (),
        program_spans: SpanIndex | None = None,
    ):
        self.program = program
        self.database = database
        # The program half — the findings that do not depend on the
        # database, and the rule and predicate spans of the program text —
        # kept for :meth:`with_database`.
        self._program_diagnostics = tuple(diagnostics)
        self._program_spans = program_spans if program_spans is not None else SpanIndex()
        self.diagnostics: tuple[Diagnostic, ...] = _ordered(
            self._program_diagnostics + tuple(database_diagnostics)
        )
        self.source = source
        self.database_source = database_source

        self.graph = program.predicate_graph()
        self.negative_cycle = self.graph.negative_cycle_witness()
        self.stratified = self.negative_cycle is None
        generative_heads = frozenset(
            r.head.predicate
            for r in program.rules
            if not r.is_constraint and r.is_generative
        )
        self.generative_heads = generative_heads
        self.choice_cone: frozenset[Predicate] = (
            self.graph.forward_closure(generative_heads) if generative_heads else frozenset()
        )
        self.permanent_seeds: frozenset[Predicate] = compute_permanent_seeds(program)
        self.dependent_choice_groups, self._choice_estimates = choice_structure(program)
        self.outcome_space_log2: float = sum(self._choice_estimates.values())
        digest = hashlib.sha256()
        for line in sorted(str(rule) for rule in program.rules):
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        self.program_digest = digest.hexdigest()
        self._decomposition: tuple[tuple[Database, str], Any] | None = None
        self._patchable: dict[frozenset[Predicate], bool] = {}

    def with_database(
        self, database: Database, database_source: str, facts: Sequence[Atom]
    ) -> "ProgramAnalysis":
        """This analysis for another database, written one fact per line.

        *database_source* must hold the facts of *database* as
        ``f"{fact}."`` lines from column 1, in the order of *facts* — the
        service's canonical layout.  The result equals
        ``check_source(self.source, database_source)``: the program half
        (rules and statement diagnostics, predicate graph, choice structure,
        digest, program-only passes) is shared with this analysis, and only
        the two database passes run again, with fact spans read off the
        layout.  When some fact's text would not parse back to the fact
        (see :func:`~repro.logic.parser.database_reads_back`), the text is
        checked in full instead.  Only analyses made by :func:`check_source`
        carry the sources this needs.
        """
        if self.source is None:
            raise ValidationError("with_database needs an analysis made by check_source")
        if not database_reads_back(database):
            return check_source(self.source, database_source, self.program.registry)
        spans = dataclasses.replace(
            self._program_spans, fact_lines={fact: line for line, fact in enumerate(facts, 1)}
        )
        derived = copy.copy(self)
        derived.database = database
        derived.database_source = database_source
        derived._decomposition = None
        derived.diagnostics = _ordered(
            self._program_diagnostics + tuple(_database_passes(self.program, database, spans))
        )
        return derived

    # -- verdicts ------------------------------------------------------------

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """Whether the program is evaluable (no error-severity diagnostics)."""
        return not self.errors()

    def raise_for_errors(self) -> None:
        """Raise :class:`DiagnosticsError` when any error diagnostic exists."""
        errors = self.errors()
        if errors:
            summary = "; ".join(f"{d.code}: {d.message}" for d in errors[:3])
            if len(errors) > 3:
                summary += f"; ... ({len(errors) - 3} more)"
            raise DiagnosticsError(
                f"program failed static checks ({len(errors)} error(s)): {summary}",
                self.diagnostics,
            )

    # -- strategy pre-selection ----------------------------------------------

    def slice_cone(self, query_atoms: Sequence[Atom | str]) -> frozenset[Predicate]:
        """The relevant-predicate set a slice for *query_atoms* will use.

        Identical to the ``predicates`` field of
        :func:`~repro.gdatalog.relevance.compute_slice` — the backward
        closure of the query predicates and the permanent seeds.
        """
        from repro.logic.parser import parse_atom

        atoms = tuple(parse_atom(a) if isinstance(a, str) else a for a in query_atoms)
        seeds = {a.predicate for a in atoms} | set(self.permanent_seeds)
        return self.graph.backward_closure(seeds)

    def delta_patchable(self, predicates: Iterable[Predicate]) -> bool:
        """Whether a delta over *predicates* admits incremental ``patch`` mode.

        Memoised per predicate set; identical verdict to
        :func:`repro.gdatalog.incremental.patch_eligible` (which receives
        this analysis's cached choice cone when available).
        """
        key = frozenset(predicates)
        cached = self._patchable.get(key)
        if cached is None:
            from repro.gdatalog.incremental import patch_eligible

            cached = patch_eligible(self.program, key, choice_cone=self.choice_cone)
            self._patchable[key] = cached
        return cached

    @property
    def patchable_predicates(self) -> frozenset[Predicate]:
        """Extensional predicates whose single-predicate deltas are patchable."""
        return frozenset(
            p for p in self.program.extensional_predicates() if self.delta_patchable((p,))
        )

    def decomposition(self, translated: Any, database: Database, config: Any) -> Any:
        """The factorization decomposition of *database* under *config*, memoised.

        *translated* must be the translation of this analysis's program
        (the engine passes its own); the result is exactly
        :func:`repro.gdatalog.factorize.decompose`'s.  Only the latest
        (database, config) is kept: every engine memoises its own space,
        so the partition is asked for again only while that space is
        built, and across delta updates — where the same analysis serves
        engines over ever new databases — a memo per database would keep
        each of them alive.
        """
        key = (database, repr(config))
        memo = self._decomposition
        if memo is None or memo[0] != key:
            from repro.gdatalog.factorize import decompose

            memo = (key, decompose(translated, database, config))
            self._decomposition = memo
        return memo[1]

    # -- reporting -----------------------------------------------------------

    def strategy_summary(self) -> dict[str, Any]:
        return {
            "stratified": self.stratified,
            "generative_rules": sum(
                1 for r in self.program.rules if not r.is_constraint and r.is_generative
            ),
            "choice_cone": sorted(str(p) for p in self.choice_cone),
            "permanent_slice_seeds": sorted(str(p) for p in self.permanent_seeds),
            "dependent_choice_groups": [
                [str(p) for p in group] for group in self.dependent_choice_groups
            ],
            "outcome_space_log2": round(self.outcome_space_log2, 3),
            "patchable_predicates": sorted(str(p) for p in self.patchable_predicates),
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "rules": len(self.program),
            "predicates": len(self.program.predicates()),
            "program_digest": self.program_digest,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "strategy": self.strategy_summary(),
        }


# ---------------------------------------------------------------------------
# Object-level entry point
# ---------------------------------------------------------------------------


def _program_passes(program: GDatalogProgram, spans: SpanIndex) -> list[Diagnostic]:
    """The object-level passes that read the program alone."""
    diagnostics: list[Diagnostic] = []
    diagnostics.extend(stratification_diagnostics(program, spans))
    diagnostics.extend(unused_diagnostics(program, spans))
    diagnostics.extend(choice_diagnostics(program, spans))
    diagnostics.extend(cost_smell_diagnostics(program, spans))
    return diagnostics


def _database_passes(
    program: GDatalogProgram, database: Database | None, spans: SpanIndex
) -> list[Diagnostic]:
    """The object-level passes that also read the database."""
    return schema_diagnostics(program, database, spans) + derivability_diagnostics(
        program, database, spans
    )


def analyze_program(
    program: GDatalogProgram, database: Database | None = None
) -> ProgramAnalysis:
    """Analyse an already-constructed program (no source spans).

    Safety and Δ-term well-formedness are enforced by construction on
    this path, so only the graph/schema/choice analyses run.
    """
    spans = SpanIndex()
    return ProgramAnalysis(
        program,
        database,
        _program_passes(program, spans),
        database_diagnostics=_database_passes(program, database, spans),
    )


# ---------------------------------------------------------------------------
# Source-level entry point
# ---------------------------------------------------------------------------


def _parse_error_diag(error: ParseError, origin: str = "program") -> Diagnostic:
    message = str(error)
    span = error.span
    if span is not None:
        # The position is carried structurally; strip the textual suffix.
        suffix = f" (line {error.line}"
        cut = message.rfind(suffix)
        if cut != -1:
            message = message[:cut]
    return diag("GDL000", message, span=span, origin=origin)


def _parsed_atom_variables(atom_: ParsedAtom) -> set[Variable]:
    result: set[Variable] = set()
    for arg in atom_.args:
        if isinstance(arg, Variable):
            result.add(arg)
        elif isinstance(arg, ParsedDeltaTerm):
            for term in arg.parameters + arg.event_signature:
                if isinstance(term, Variable):
                    result.add(term)
    return result


def _record_predicate_spans(statement: ParsedRule, spans: SpanIndex) -> None:
    atoms = list(statement.positive_body) + list(statement.negative_body)
    if statement.head is not None:
        atoms.insert(0, statement.head)
    for atom_ in atoms:
        if atom_.span is not None:
            spans.predicate_spans.setdefault(atom_.name, atom_.span)
            spans.predicate_spans.setdefault(f"{atom_.name}/{len(atom_.args)}", atom_.span)


def _check_statement(
    statement: ParsedRule,
    registry: Any,
    spans: SpanIndex,
    diagnostics: list[Diagnostic],
) -> GDatalogRule | None:
    """Semantic checks for one statement; returns the rule or ``None``."""
    _record_predicate_spans(statement, spans)
    ok = True
    positive_vars: set[Variable] = set()
    for atom_ in statement.positive_body:
        positive_vars |= _parsed_atom_variables(atom_)

    if statement.head is not None:
        unsafe = _parsed_atom_variables(statement.head) - positive_vars
        if unsafe:
            names = ", ".join(sorted(str(v) for v in unsafe))
            diagnostics.append(
                diag(
                    "GDL001",
                    f"unsafe rule: head variable(s) {names} of "
                    f"{statement.head.name} do not occur in the positive body",
                    span=statement.head.span or statement.span,
                    predicate=statement.head.name,
                )
            )
            ok = False
    for atom_ in statement.negative_body:
        unsafe = _parsed_atom_variables(atom_) - positive_vars
        if unsafe:
            names = ", ".join(sorted(str(v) for v in unsafe))
            diagnostics.append(
                diag(
                    "GDL002",
                    f"unsafe negation: variable(s) {names} of negated atom "
                    f"{atom_.name} do not occur in the positive body",
                    span=atom_.span or statement.span,
                    predicate=atom_.name,
                )
            )
            ok = False

    head_args: list[Any] = []
    if statement.head is not None:
        for arg in statement.head.args:
            if isinstance(arg, ParsedDeltaTerm):
                delta_span = arg.span or statement.head.span or statement.span
                if not registry.knows(arg.name):
                    known = ", ".join(sorted(registry.names()))
                    diagnostics.append(
                        diag(
                            "GDL003",
                            f"unknown distribution {arg.name!r} in Δ-term "
                            f"(known: {known})",
                            span=delta_span,
                        )
                    )
                    ok = False
                    continue
                expected = registry.get(arg.name).parameter_dimension
                if expected is not None and len(arg.parameters) != expected:
                    diagnostics.append(
                        diag(
                            "GDL003",
                            f"distribution {arg.name!r} expects {expected} "
                            f"parameter(s), Δ-term supplies {len(arg.parameters)}",
                            span=delta_span,
                        )
                    )
                    ok = False
                    continue
                head_args.append(DeltaTerm(arg.name, arg.parameters, arg.event_signature))
            else:
                head_args.append(arg)
    if not ok:
        return None

    try:
        if statement.is_constraint:
            rule_ = GDatalogRule.constraint(
                tuple(a.to_atom() for a in statement.positive_body),
                tuple(a.to_atom() for a in statement.negative_body),
            )
        else:
            assert statement.head is not None
            head = HeadAtom(
                Predicate(statement.head.name, len(head_args)), tuple(head_args)
            )
            rule_ = GDatalogRule(
                head,
                tuple(a.to_atom() for a in statement.positive_body),
                tuple(a.to_atom() for a in statement.negative_body),
            )
    except (ValidationError, ParseError) as error:
        diagnostics.append(
            diag("GDL003", f"invalid statement: {error}", span=statement.span)
        )
        return None
    if statement.span is not None:
        spans.rule_spans.setdefault(rule_, statement.span)
    return rule_


def _check_database_source(
    database_source: str, spans: SpanIndex, diagnostics: list[Diagnostic]
) -> Database:
    lines = parse_fact_lines(database_source)
    if lines is not None:
        for fact, span in lines:
            spans.fact_spans.setdefault(fact, span)
        return Database(fact for fact, _ in lines)
    return _check_database_statements(database_source, spans, diagnostics)


def _check_database_statements(
    database_source: str, spans: SpanIndex, diagnostics: list[Diagnostic]
) -> Database:
    """:func:`_check_database_source` on the generic path: per-statement recovery."""
    facts: list[Atom] = []
    try:
        tokens = tokenize(database_source)
    except ParseError as error:
        diagnostics.append(_parse_error_diag(error, origin="database"))
        return Database(())
    for group in split_statements(tokens):
        try:
            statement = parse_statement_tokens(group)
        except ParseError as error:
            diagnostics.append(_parse_error_diag(error, origin="database"))
            continue
        span = statement.span
        if statement.is_constraint or statement.positive_body or statement.negative_body:
            diagnostics.append(
                diag("GDL000", "databases may only contain facts", span=span,
                     origin="database")
            )
            continue
        assert statement.head is not None
        if statement.head.has_delta:
            diagnostics.append(
                diag("GDL000", "database facts cannot contain Δ-terms", span=span,
                     origin="database")
            )
            continue
        fact = statement.head.to_atom()
        if not fact.is_ground:
            diagnostics.append(
                diag("GDL000", f"database facts must be ground, got {fact}",
                     span=span, origin="database")
            )
            continue
        facts.append(fact)
        if span is not None:
            spans.fact_spans.setdefault(fact, span)
    return Database(facts)


def check_source(
    program_source: str,
    database_source: str = "",
    registry: Any = None,
) -> ProgramAnalysis:
    """Statically check program (and optional database) source text.

    Parsing recovers per statement: one malformed statement yields one
    ``GDL000`` diagnostic and checking continues with the rest, so a
    single check reports as many findings as possible.  The returned
    analysis's program contains every well-formed rule (it equals the
    user's program exactly when :attr:`ProgramAnalysis.ok` holds).

    A database text of one ground fact per line is read with one regex
    match per line (:func:`~repro.logic.parser.parse_fact_lines`); any
    other database text falls back, as a whole, to the per-statement
    path, so diagnostics on malformed input are the same either way.
    """
    from repro.distributions.registry import default_registry

    active_registry = registry if registry is not None else default_registry()
    diagnostics: list[Diagnostic] = []
    database_diagnostics: list[Diagnostic] = []
    spans = SpanIndex()
    rules: list[GDatalogRule] = []

    try:
        tokens = tokenize(program_source)
    except ParseError as error:
        diagnostics.append(_parse_error_diag(error))
        tokens = []
    for group in split_statements(tokens):
        try:
            statement = parse_statement_tokens(group)
        except ParseError as error:
            diagnostics.append(_parse_error_diag(error))
            continue
        rule_ = _check_statement(statement, active_registry, spans, diagnostics)
        if rule_ is not None:
            rules.append(rule_)

    database = _check_database_source(database_source, spans, database_diagnostics)

    try:
        program = GDatalogProgram(rules, active_registry)
    except ValidationError as error:
        diagnostics.append(diag("GDL003", f"invalid program: {error}"))
        program = GDatalogProgram((), active_registry)

    diagnostics.extend(_program_passes(program, spans))
    database_diagnostics.extend(_database_passes(program, database, spans))
    return ProgramAnalysis(
        program,
        database,
        diagnostics,
        source=program_source,
        database_source=database_source,
        database_diagnostics=database_diagnostics,
        program_spans=SpanIndex(
            rule_spans=spans.rule_spans, predicate_spans=spans.predicate_spans
        ),
    )
