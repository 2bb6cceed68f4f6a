"""Logical substrate: terms, atoms, literals, rules, programs, databases, parsing."""

from repro.logic.atoms import Atom, Predicate, atom, fact
from repro.logic.database import Database
from repro.logic.literals import Literal, neg, pos
from repro.logic.parser import (
    parse_atom,
    parse_database,
    parse_datalog_program,
    parse_gdatalog_program,
)
from repro.logic.join import (
    ArgIndex,
    RulePlan,
    iter_join,
    iter_join_seminaive,
    match_conjunction_indexed,
    match_conjunction_seminaive_indexed,
)
from repro.logic.program import DatalogProgram, DependencyGraph
from repro.logic.rules import FALSE_ATOM, FALSE_PREDICATE, Rule, constraint, fact_rule, rule
from repro.logic.substitution import EMPTY_SUBSTITUTION, Substitution
from repro.logic.terms import Constant, Term, Variable, make_term
from repro.logic.unify import FactIndex, FactsView, match_atom, match_conjunction, unify_atoms

__all__ = [
    "Atom",
    "Predicate",
    "atom",
    "fact",
    "Database",
    "Literal",
    "neg",
    "pos",
    "parse_atom",
    "parse_database",
    "parse_datalog_program",
    "parse_gdatalog_program",
    "DatalogProgram",
    "DependencyGraph",
    "FALSE_ATOM",
    "FALSE_PREDICATE",
    "Rule",
    "constraint",
    "fact_rule",
    "rule",
    "EMPTY_SUBSTITUTION",
    "Substitution",
    "Constant",
    "Term",
    "Variable",
    "make_term",
    "FactIndex",
    "FactsView",
    "ArgIndex",
    "RulePlan",
    "iter_join",
    "iter_join_seminaive",
    "match_conjunction_indexed",
    "match_conjunction_seminaive_indexed",
    "match_atom",
    "match_conjunction",
    "unify_atoms",
]
