"""Datalog¬ rules (normal rules and constraints) over ordinary atoms.

A rule has the form::

    R1(ū1), ..., Rn(ūn), ¬P1(v̄1), ..., ¬Pm(v̄m)  →  R0(w̄)

The head is a single atom (constraints use the dedicated false head, see
:data:`FALSE_ATOM`).  Rules must be *safe*: every variable occurring in the
head or in a negative body literal must occur in some positive body atom.
Generative rules whose heads contain Δ-terms live in
:mod:`repro.gdatalog.syntax`; this module is the plain logical substrate used
by the stable-model engine and by grounded programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from repro.exceptions import ValidationError
from repro.logic.atoms import Atom, Predicate
from repro.logic.literals import Literal
from repro.logic.terms import Term, Variable

__all__ = ["Rule", "FALSE_PREDICATE", "FALSE_ATOM", "rule", "constraint", "fact_rule"]

#: Dedicated 0-ary predicate used as the head of integrity constraints
#: (the paper writes ``⊥``; it notes that ``False`` can always be simulated
#: with stable negation via the ``Fail, ¬Aux → Aux`` trick, which
#: :func:`repro.gdatalog.syntax.desugar_constraints` implements).
FALSE_PREDICATE = Predicate("__false__", 0)
FALSE_ATOM = Atom(FALSE_PREDICATE, ())


@dataclass(frozen=True)
class Rule:
    """A normal Datalog¬ rule ``head ← positive_body, not negative_body``."""

    head: Atom
    positive_body: tuple[Atom, ...] = ()
    negative_body: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        self._check_safety()

    # -- validation ---------------------------------------------------------

    def _check_safety(self) -> None:
        """Safety: head and negative-body variables must occur positively."""
        positive_vars: set[Variable] = set()
        for atom_ in self.positive_body:
            positive_vars |= atom_.variables()
        unsafe = self.head.variables() - positive_vars
        if unsafe:
            raise ValidationError(
                f"unsafe rule {self}: head variables {sorted(str(v) for v in unsafe)} "
                "do not occur in the positive body"
            )
        for atom_ in self.negative_body:
            missing = atom_.variables() - positive_vars
            if missing:
                raise ValidationError(
                    f"unsafe rule {self}: negated variables {sorted(str(v) for v in missing)} "
                    "do not occur in the positive body"
                )

    # -- inspection ---------------------------------------------------------

    @property
    def is_fact(self) -> bool:
        """Whether the rule has an empty body and a ground head."""
        return not self.positive_body and not self.negative_body and self.head.is_ground

    @property
    def is_constraint(self) -> bool:
        """Whether the rule is an integrity constraint (head is ``⊥``)."""
        return self.head.predicate == FALSE_PREDICATE

    @property
    def is_positive(self) -> bool:
        """Whether the rule has no negative body literals."""
        return not self.negative_body

    @cached_property
    def is_ground(self) -> bool:
        """Whether no atom of the rule has a variable.

        Cached on the instance: rules are immutable and the grounders intern
        their instances, so each ground rule is checked once per process.
        """
        return (
            self.head.is_ground
            and all(a.is_ground for a in self.positive_body)
            and all(a.is_ground for a in self.negative_body)
        )

    def body_literals(self) -> tuple[Literal, ...]:
        """The body as a tuple of literals (positives first)."""
        return tuple(Literal(a, True) for a in self.positive_body) + tuple(
            Literal(a, False) for a in self.negative_body
        )

    def variables(self) -> set[Variable]:
        result = self.head.variables()
        for atom_ in self.positive_body:
            result |= atom_.variables()
        for atom_ in self.negative_body:
            result |= atom_.variables()
        return result

    def predicates(self) -> set[Predicate]:
        result = {self.head.predicate}
        result |= {a.predicate for a in self.positive_body}
        result |= {a.predicate for a in self.negative_body}
        return result

    def body_predicates(self) -> set[Predicate]:
        return {a.predicate for a in self.positive_body} | {a.predicate for a in self.negative_body}

    def sort_key(self) -> tuple:
        """A cheap structural ordering key over head and body atom keys.

        Replaces ``str(rule)``-based sorting on the hot canonicalization
        paths (chase outcome ordering, solver memo keys).
        """
        return (
            self.head.sort_key(),
            tuple(a.sort_key() for a in self.positive_body),
            tuple(a.sort_key() for a in self.negative_body),
        )

    # -- construction -------------------------------------------------------

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Rule":
        """Apply a variable mapping to all atoms of the rule."""
        return Rule(
            self.head.substitute(mapping),
            tuple(a.substitute(mapping) for a in self.positive_body),
            tuple(a.substitute(mapping) for a in self.negative_body),
        )

    # -- dunder -------------------------------------------------------------

    def __str__(self) -> str:
        body = [str(a) for a in self.positive_body] + [f"not {a}" for a in self.negative_body]
        head = "" if self.is_constraint else str(self.head)
        if not body:
            return f"{head}."
        prefix = f"{head} " if head else ""
        return f"{prefix}:- {', '.join(body)}."

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rule({self!s})"

    def __hash__(self) -> int:
        # Ground rules live in large sets (groundings, reducts); memoize the
        # hash on first use (safe: rules are immutable).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.head, self.positive_body, self.negative_body))
            object.__setattr__(self, "_hash", cached)
        return cached


# -- convenience constructors ------------------------------------------------


def rule(
    head: Atom,
    body: Sequence[Atom | Literal] = (),
    negative: Sequence[Atom] = (),
) -> Rule:
    """Build a rule from a head atom and a body.

    The *body* may freely mix atoms (interpreted positively) and
    :class:`Literal` objects; the *negative* sequence adds further negated
    atoms.
    """
    positive_atoms: list[Atom] = []
    negative_atoms: list[Atom] = list(negative)
    for item in body:
        if isinstance(item, Literal):
            (positive_atoms if item.positive else negative_atoms).append(item.atom)
        elif isinstance(item, Atom):
            positive_atoms.append(item)
        else:
            raise ValidationError(f"rule body items must be atoms or literals, got {item!r}")
    return Rule(head, tuple(positive_atoms), tuple(negative_atoms))


def constraint(body: Sequence[Atom | Literal], negative: Sequence[Atom] = ()) -> Rule:
    """Build an integrity constraint ``⊥ ← body``."""
    return rule(FALSE_ATOM, body, negative)


def fact_rule(atom_: Atom) -> Rule:
    """Build a fact rule ``→ α`` for a ground atom (the paper's ``True → α``)."""
    if not atom_.is_ground:
        raise ValidationError(f"fact rules require ground atoms, got {atom_}")
    return Rule(atom_, (), ())
