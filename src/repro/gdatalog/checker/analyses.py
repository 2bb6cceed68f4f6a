"""Object-level analyses over a constructed GDatalog¬[Δ] program.

Each pass returns a list of :class:`Diagnostic` records; the
:class:`SpanIndex` (populated by source-level checking) supplies source
spans when available, so the same passes serve both ``check_source``
(spans) and ``analyze_program`` (no spans).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import SourceSpan, ValidationError
from repro.gdatalog.checker.diagnostics import CODES, Diagnostic, Severity
from repro.gdatalog.syntax import GDatalogProgram, GDatalogRule
from repro.logic.atoms import Atom, Predicate
from repro.logic.database import Database
from repro.logic.rules import FALSE_PREDICATE
from repro.logic.terms import Variable

__all__ = [
    "SpanIndex",
    "diag",
    "stratification_diagnostics",
    "schema_diagnostics",
    "derivability_diagnostics",
    "unused_diagnostics",
    "choice_structure",
    "choice_diagnostics",
    "cost_smell_diagnostics",
    "derivable_predicates",
]


@dataclass
class SpanIndex:
    """Source spans recovered during parsing, keyed for the analyses.

    All maps are best-effort: an empty index (the ``analyze_program``
    path) simply yields span-less diagnostics.
    """

    rule_spans: dict[GDatalogRule, SourceSpan] = field(default_factory=dict)
    predicate_spans: dict[str, SourceSpan] = field(default_factory=dict)
    fact_spans: dict[Atom, SourceSpan] = field(default_factory=dict)
    #: Line of each fact in a text holding one ``fact.`` per line from
    #: column 1 (the canonical database layout); consulted for facts that
    #: have no entry in :attr:`fact_spans`.
    fact_lines: dict[Atom, int] = field(default_factory=dict)

    def for_rule(self, rule_: GDatalogRule) -> SourceSpan | None:
        return self.rule_spans.get(rule_)

    def for_predicate(self, name: str) -> SourceSpan | None:
        """Lookup by ``name/arity`` (preferred) or bare name."""
        span = self.predicate_spans.get(name)
        if span is None and "/" in name:
            span = self.predicate_spans.get(name.rsplit("/", 1)[0])
        return span

    def for_fact(self, fact: Atom) -> SourceSpan | None:
        span = self.fact_spans.get(fact)
        if span is None and fact in self.fact_lines:
            line = self.fact_lines[fact]
            span = SourceSpan(line, 1, line, len(str(fact)) + 2)
        return span


def diag(
    code: str,
    message: str,
    span: SourceSpan | None = None,
    origin: str = "program",
    predicate: str | None = None,
    rule: str | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic` with the code's registered severity."""
    severity = CODES[code][0]
    return Diagnostic(code, severity, message, span=span, origin=origin,
                      predicate=predicate, rule=rule)


# ---------------------------------------------------------------------------
# Stratification (GDL010)
# ---------------------------------------------------------------------------


def stratification_diagnostics(
    program: GDatalogProgram, spans: SpanIndex
) -> list[Diagnostic]:
    graph = program.predicate_graph()
    witness = graph.negative_cycle_witness()
    if witness is None:
        return []
    path = f"{witness[0]} -[not]-> " + " -> ".join(str(p) for p in witness[1:])
    span = None
    culprit = None
    for rule_ in program.rules:
        if rule_.is_constraint:
            continue
        if rule_.head.predicate == witness[1] and any(
            a.predicate == witness[0] for a in rule_.negative_body
        ):
            span = spans.for_rule(rule_)
            culprit = str(rule_)
            break
    return [
        diag(
            "GDL010",
            f"program is not stratified: a cycle traverses a negative edge ({path})",
            span=span,
            rule=culprit,
        )
    ]


# ---------------------------------------------------------------------------
# Schema consistency (GDL020, GDL021)
# ---------------------------------------------------------------------------


def schema_diagnostics(
    program: GDatalogProgram, database: Database | None, spans: SpanIndex
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    arities: dict[str, set[int]] = {}
    for predicate in program.predicates():
        arities.setdefault(predicate.name, set()).add(predicate.arity)
    if database is not None:
        for predicate in database.schema:
            arities.setdefault(predicate.name, set()).add(predicate.arity)
    for name in sorted(arities):
        seen = arities[name]
        if len(seen) > 1:
            listed = ", ".join(str(a) for a in sorted(seen))
            diagnostics.append(
                diag(
                    "GDL020",
                    f"predicate {name!r} is used with {len(seen)} different arities ({listed})",
                    span=spans.for_predicate(name),
                    predicate=name,
                )
            )
    if database is not None:
        intensional = program.intensional_predicates()
        # Only facts of derived predicates are reported: filter before the
        # per-fact ``str`` sort that picks each predicate's example.
        asserted = (
            []
            if database.schema.isdisjoint(intensional)
            else [fact for fact in database.facts if fact.predicate in intensional]
        )
        flagged: set[Predicate] = set()
        for fact in sorted(asserted, key=str):
            if fact.predicate not in flagged:
                flagged.add(fact.predicate)
                diagnostics.append(
                    diag(
                        "GDL021",
                        f"database asserts facts for derived predicate "
                        f"{fact.predicate} (e.g. {fact}); rule derivations and "
                        f"asserted facts will mix",
                        span=spans.for_fact(fact),
                        origin="database",
                        predicate=fact.predicate.name,
                    )
                )
    return diagnostics


# ---------------------------------------------------------------------------
# Derivability: dead predicates and rules (GDL022, GDL023), unused (GDL024)
# ---------------------------------------------------------------------------


def derivable_predicates(
    program: GDatalogProgram, database: Database | None
) -> frozenset[Predicate]:
    """The least fixpoint of "may have a non-empty extension".

    Seeds are the database predicates (or, when no database is supplied,
    every extensional predicate — absence of facts cannot be judged
    then); a head joins when every *positive* body predicate is derivable
    (negative literals can always hold, so they never block).
    """
    derivable: set[Predicate] = set()
    if database is None:
        derivable |= set(program.extensional_predicates())
    else:
        derivable |= database.schema
    rules = [r for r in program.rules if not r.is_constraint]
    changed = True
    while changed:
        changed = False
        for rule_ in rules:
            if rule_.head.predicate in derivable:
                continue
            if all(a.predicate in derivable for a in rule_.positive_body):
                derivable.add(rule_.head.predicate)
                changed = True
    return frozenset(derivable)


def derivability_diagnostics(
    program: GDatalogProgram, database: Database | None, spans: SpanIndex
) -> list[Diagnostic]:
    derivable = derivable_predicates(program, database)
    diagnostics: list[Diagnostic] = []
    dead_predicates: set[Predicate] = set()
    for rule_ in program.rules:
        for atom_ in rule_.positive_body:
            if atom_.predicate not in derivable:
                dead_predicates.add(atom_.predicate)
    for predicate in sorted(dead_predicates, key=str):
        reason = (
            "no facts and no rule can derive it"
            if database is not None
            else "no rule can derive it"
        )
        diagnostics.append(
            diag(
                "GDL022",
                f"predicate {predicate} can never hold ({reason}); "
                f"every rule using it positively is dead",
                span=spans.for_predicate(str(predicate)),
                predicate=predicate.name,
            )
        )
    for rule_ in program.rules:
        dead_in_rule = sorted(
            {str(a.predicate) for a in rule_.positive_body if a.predicate not in derivable}
        )
        if dead_in_rule:
            kind = "constraint" if rule_.is_constraint else "rule"
            diagnostics.append(
                diag(
                    "GDL023",
                    f"dead {kind} {rule_}: positive body predicate(s) "
                    f"{', '.join(dead_in_rule)} can never hold",
                    span=spans.for_rule(rule_),
                    rule=str(rule_),
                )
            )
    return diagnostics


def unused_diagnostics(program: GDatalogProgram, spans: SpanIndex) -> list[Diagnostic]:
    used: set[Predicate] = set()
    for rule_ in program.rules:
        for atom_ in rule_.positive_body + rule_.negative_body:
            used.add(atom_.predicate)
    diagnostics: list[Diagnostic] = []
    for predicate in sorted(program.intensional_predicates() - used, key=str):
        if predicate == FALSE_PREDICATE or predicate.name.startswith("__"):
            continue
        diagnostics.append(
            diag(
                "GDL024",
                f"predicate {predicate} is derived but never used in any rule body "
                f"(query output?)",
                span=spans.for_predicate(str(predicate)),
                predicate=predicate.name,
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Choice structure (GDL030)
# ---------------------------------------------------------------------------


def _branching_log2(rule_: GDatalogRule, program: GDatalogProgram) -> float:
    """log2 of the rule's per-trigger branch count (lower bound 1 bit per Δ-term)."""
    total = 0.0
    registry = program.registry
    for _position, delta in rule_.delta_terms():
        size = 2.0
        if not any(isinstance(term, Variable) for term in delta.parameters):
            try:
                params = delta.parameter_values()
                distribution = registry.get(delta.distribution.lower())
                if distribution.has_finite_support(params):
                    size = float(max(2, len(list(distribution.support(params)))))
            except Exception:  # noqa: BLE001 - estimates must never fail a check
                size = 2.0
        total += math.log2(size)
    return total


def choice_structure(
    program: GDatalogProgram,
) -> tuple[tuple[tuple[Predicate, ...], ...], dict[tuple[Predicate, ...], float]]:
    """Groups of generative rules whose choice cones overlap.

    Returns ``(groups, log2_estimates)``: each group is the sorted tuple
    of head predicates of a maximal set of generative rules with pairwise
    connected (overlapping) forward cones, and its estimate is the summed
    per-trigger branching in bits — the ``2^n`` joint outcome growth that
    factorization cannot split.
    """
    generative = [r for r in program.rules if not r.is_constraint and r.is_generative]
    if not generative:
        return (), {}
    graph = program.predicate_graph()
    cones = [graph.forward_closure({r.head.predicate}) for r in generative]

    parent = list(range(len(generative)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(generative)):
        for j in range(i + 1, len(generative)):
            if cones[i] & cones[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    members: dict[int, list[int]] = {}
    for i in range(len(generative)):
        members.setdefault(find(i), []).append(i)

    groups: list[tuple[Predicate, ...]] = []
    estimates: dict[tuple[Predicate, ...], float] = {}
    for indices in members.values():
        if len(indices) < 2:
            continue
        heads = tuple(sorted({generative[i].head.predicate for i in indices}, key=str))
        estimate = sum(_branching_log2(generative[i], program) for i in indices)
        groups.append(heads)
        estimates[heads] = estimates.get(heads, 0.0) + estimate
    groups_sorted = tuple(sorted(set(groups), key=lambda g: tuple(str(p) for p in g)))
    return groups_sorted, estimates


def choice_diagnostics(
    program: GDatalogProgram, spans: SpanIndex
) -> list[Diagnostic]:
    groups, estimates = choice_structure(program)
    diagnostics: list[Diagnostic] = []
    for heads in groups:
        names = ", ".join(str(p) for p in heads)
        bits = estimates.get(heads, 0.0)
        span = None
        for rule_ in program.rules:
            if not rule_.is_constraint and rule_.is_generative and rule_.head.predicate in heads:
                span = spans.for_rule(rule_)
                break
        diagnostics.append(
            diag(
                "GDL030",
                f"{len(heads)} probabilistic choice predicate(s) share derivation "
                f"cones ({names}): the joint outcome space grows as 2^n "
                f"(>= 2^{bits:.1f} joint branches per trigger family) and "
                f"factorization cannot separate them",
                span=span,
                predicate=str(heads[0]),
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Cost smells (GDL040, GDL041)
# ---------------------------------------------------------------------------


def _variable_groups(atoms: Iterable[Atom]) -> list[set[int]]:
    """Union-find the body atoms on shared variables; returns index groups."""
    atoms = list(atoms)
    parent = list(range(len(atoms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_variable: dict[Variable, int] = {}
    for index, atom_ in enumerate(atoms):
        for variable in atom_.variables():
            if variable in by_variable:
                ri, rj = find(by_variable[variable]), find(index)
                if ri != rj:
                    parent[rj] = ri
            else:
                by_variable[variable] = index
    groups: dict[int, set[int]] = {}
    for index in range(len(atoms)):
        groups.setdefault(find(index), set()).add(index)
    return list(groups.values())


def cost_smell_diagnostics(
    program: GDatalogProgram, spans: SpanIndex
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for rule_ in program.rules:
        positive = list(rule_.positive_body)
        if len(positive) < 2:
            continue
        groups = _variable_groups(positive)
        open_groups = [
            g for g in groups if any(positive[i].variables() for i in g)
        ]
        if len(open_groups) >= 2:
            diagnostics.append(
                diag(
                    "GDL040",
                    f"cross-product body in {rule_}: {len(open_groups)} "
                    f"variable-disjoint groups of positive atoms multiply "
                    f"into a cartesian join",
                    span=spans.for_rule(rule_),
                    rule=str(rule_),
                )
            )
        if len(groups) < 2:
            continue
        group_of: dict[int, int] = {}
        for gid, g in enumerate(groups):
            for i in g:
                group_of[i] = gid
        var_group: dict[Variable, int] = {}
        for index, atom_ in enumerate(positive):
            for variable in atom_.variables():
                var_group[variable] = group_of[index]
        for negated in rule_.negative_body:
            touched = {var_group[v] for v in negated.variables() if v in var_group}
            if len(touched) >= 2:
                diagnostics.append(
                    diag(
                        "GDL041",
                        f"negated atom {negated} in {rule_} joins "
                        f"{len(touched)} otherwise-disconnected body groups: "
                        f"the negation check runs on their cartesian product",
                        span=spans.for_rule(rule_),
                        rule=str(rule_),
                    )
                )
    return diagnostics
