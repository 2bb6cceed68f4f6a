"""Grounding of (non-ground) Datalog¬ programs with respect to a database.

The stable models of ``D`` and ``Π`` only depend on the ground instances of
rules whose positive bodies can be matched against *derivable* atoms, where
derivability is taken with respect to the monotone over-approximation that
ignores negative literals.  This is the standard "intelligent grounding"
used by ASP systems, and it is also exactly the set of instances produced by
the paper's simple grounder on negation-free reads of the rules.

The result is a :class:`GroundProgram`: a finite set of ground rules (facts,
proper rules and constraints) plus the Herbrand base they span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.logic.atoms import Atom
from repro.logic.database import Database
from repro.logic.join import ArgIndex, iter_join
from repro.logic.program import DatalogProgram
from repro.logic.rules import Rule, fact_rule
from repro.logic.unify import FactIndex, match_conjunction

__all__ = ["GroundProgram", "ground_program", "ground_rules_against", "naive_ground_program"]


@dataclass(frozen=True)
class GroundProgram:
    """A finite ground Datalog¬ program."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        for r in self.rules:
            if not r.is_ground:
                raise ValueError(f"ground programs contain ground rules only, got {r}")

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def canonical_key(self) -> frozenset[Rule]:
        """A canonical structural key: equal iff the rule *sets* are equal.

        The rule set itself: rules hash by value with their hash cached (and
        the chase's rules are interned, so most comparisons stop at
        identity), so the key costs no sort and ignores rule order.  Used by
        the stable-model solver to memoize enumeration results across
        structurally equal ground programs.
        """
        return frozenset(self.rules)

    @property
    def facts(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.is_fact)

    @property
    def constraints(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.is_constraint)

    @property
    def proper_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if not r.is_constraint)

    def herbrand_base(self) -> frozenset[Atom]:
        """All ground atoms mentioned anywhere in the program (excluding ``⊥``)."""
        atoms: set[Atom] = set()
        for r in self.rules:
            if not r.is_constraint:
                atoms.add(r.head)
            atoms.update(r.positive_body)
            atoms.update(r.negative_body)
        return frozenset(a for a in atoms if not a.predicate.name.startswith("__false__"))

    def negative_body_atoms(self) -> frozenset[Atom]:
        """Atoms occurring in some negative body (the solver branches over these)."""
        atoms: set[Atom] = set()
        for r in self.rules:
            atoms.update(r.negative_body)
        return frozenset(atoms)

    def is_positive(self) -> bool:
        return all(r.is_positive for r in self.rules)

    def with_rules(self, extra: Iterable[Rule]) -> "GroundProgram":
        return GroundProgram(self.rules + tuple(extra))

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def ground_rules_against(rule: Rule, facts: FactIndex) -> Iterator[Rule]:
    """All ground instances of *rule* whose positive body matches *facts*.

    Only homomorphisms of the positive body are considered; negative body
    atoms are instantiated by the same substitution (safety guarantees they
    become ground).  When *facts* is an :class:`~repro.logic.join.ArgIndex`
    the instances are enumerated by the indexed join engine's bucket
    probing; a plain :class:`FactIndex` falls back to the naive reference
    matcher (upgrading a caller-owned, still-mutating index here would read
    a stale copy).
    """
    if isinstance(facts, ArgIndex):
        for mapping in iter_join(rule.positive_body, facts):
            grounded = rule.substitute(mapping)
            if grounded.is_ground:
                yield grounded
        return
    for substitution in match_conjunction(rule.positive_body, facts):
        grounded = rule.substitute(substitution.as_dict())
        if grounded.is_ground:
            yield grounded


def ground_program(program: DatalogProgram, database: Database | Iterable[Atom] = ()) -> GroundProgram:
    """Ground *program* against *database* by monotone forward instantiation.

    The returned program contains a fact rule for each database atom, every
    ground instance of a proper rule / constraint whose positive body is
    contained in the over-approximated derivable atoms, and nothing else.
    The over-approximation treats every negative literal as satisfied, so it
    contains every atom that is true in *some* stable model; consequently the
    ground program has exactly the same stable models as ``Π[D]``.
    """
    facts: Sequence[Atom]
    if isinstance(database, Database):
        facts = tuple(database.facts)
    else:
        facts = tuple(database)

    derivable = ArgIndex(facts)
    ground_rules: set[Rule] = {fact_rule(a) for a in facts}

    proper = [r for r in program.rules if not r.is_constraint]
    constraints = [r for r in program.rules if r.is_constraint]

    changed = True
    while changed:
        changed = False
        for r in proper:
            for grounded in ground_rules_against(r, derivable):
                if grounded not in ground_rules:
                    ground_rules.add(grounded)
                    changed = True
                if derivable.add(grounded.head):
                    changed = True

    # Constraints never derive atoms; instantiate them once the derivable set
    # has converged.
    for r in constraints:
        for grounded in ground_rules_against(r, derivable):
            ground_rules.add(grounded)

    ordered = tuple(sorted(ground_rules, key=str))
    return GroundProgram(ordered)


def naive_ground_program(program: DatalogProgram, database: Database | Iterable[Atom] = ()) -> GroundProgram:
    """Reference grounding through the naive matcher (the pre-join-engine loop).

    Semantically identical to :func:`ground_program` but every body match
    runs through :func:`~repro.logic.unify.match_conjunction` on a plain
    :class:`~repro.logic.unify.FactIndex` — the nested-loop oracle the
    indexed join engine is property-tested and benchmarked against
    (``tests/property/test_join_equivalence.py``,
    ``benchmarks/bench_e13_joins.py``).  Not used on any production path;
    kept in the library so the test oracle and the benchmark gate cannot
    silently diverge.
    """
    facts: Sequence[Atom]
    if isinstance(database, Database):
        facts = tuple(database.facts)
    else:
        facts = tuple(database)

    derivable = FactIndex(facts)
    ground_rules: set[Rule] = {fact_rule(a) for a in facts}
    proper = [r for r in program.rules if not r.is_constraint]
    constraints = [r for r in program.rules if r.is_constraint]

    changed = True
    while changed:
        changed = False
        for r in proper:
            for substitution in match_conjunction(r.positive_body, derivable):
                grounded = r.substitute(substitution.as_dict())
                if not grounded.is_ground:
                    continue
                if grounded not in ground_rules:
                    ground_rules.add(grounded)
                    changed = True
                if derivable.add(grounded.head):
                    changed = True
    for r in constraints:
        for substitution in match_conjunction(r.positive_body, derivable):
            grounded = r.substitute(substitution.as_dict())
            if grounded.is_ground:
                ground_rules.add(grounded)

    return GroundProgram(tuple(sorted(ground_rules, key=str)))
