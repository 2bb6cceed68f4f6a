"""Relational databases: finite sets of ground atoms over a schema.

A :class:`Database` is the extensional input to a (generative) Datalog¬
program.  It behaves like an immutable set of facts with schema-aware
helpers (per-relation views, tuple import/export, domain extraction).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ValidationError
from repro.logic.atoms import Atom, Predicate, fact
from repro.logic.terms import Constant

__all__ = ["Database"]


class Database:
    """A finite instance: an immutable set of ground atoms."""

    def __init__(self, facts: Iterable[Atom] = ()):
        collected: set[Atom] = set()
        for atom_ in facts:
            if not isinstance(atom_, Atom):
                raise ValidationError(f"databases contain atoms, got {type(atom_).__name__}")
            if not atom_.is_ground:
                raise ValidationError(f"databases contain ground atoms only, got {atom_}")
            collected.add(atom_)
        self._facts: frozenset[Atom] = frozenset(collected)
        by_predicate: dict[Predicate, set[Atom]] = defaultdict(set)
        for atom_ in self._facts:
            by_predicate[atom_.predicate].add(atom_)
        self._by_predicate: dict[Predicate, frozenset[Atom]] = {
            p: frozenset(s) for p, s in by_predicate.items()
        }
        self._canonical: tuple[Atom, ...] | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_facts(cls, *facts_: Atom) -> "Database":
        """Build a database from individual ground atoms."""
        return cls(facts_)

    @classmethod
    def from_relations(cls, relations: Mapping[str, Iterable[Sequence[object]]]) -> "Database":
        """Build a database from ``{relation_name: [tuple, ...]}``.

        >>> db = Database.from_relations({"edge": [(1, 2), (2, 3)], "node": [(1,), (2,), (3,)]})
        >>> len(db)
        5
        """
        atoms: list[Atom] = []
        for name, rows in relations.items():
            for row in rows:
                atoms.append(fact(name, *row))
        return cls(atoms)

    # -- set protocol --------------------------------------------------------

    def __contains__(self, atom_: Atom) -> bool:
        return atom_ in self._facts

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self._facts, key=str))

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Database):
            return self._facts == other._facts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._facts)

    def __or__(self, other: "Database | Iterable[Atom]") -> "Database":
        other_facts = other._facts if isinstance(other, Database) else set(other)
        return Database(self._facts | set(other_facts))

    # -- schema-aware views --------------------------------------------------

    @property
    def facts(self) -> frozenset[Atom]:
        """The underlying set of ground atoms."""
        return self._facts

    @property
    def canonical_facts(self) -> tuple[Atom, ...]:
        """The facts in canonical :meth:`~repro.logic.atoms.Atom.sort_key` order.

        Sorted on first use and kept: cache keys, grounders and the
        factorization all read this one order of the same immutable set.
        """
        if self._canonical is None:
            self._canonical = tuple(sorted(self._facts, key=Atom.sort_key))
        return self._canonical

    @property
    def schema(self) -> frozenset[Predicate]:
        """The set of predicates with at least one fact."""
        return frozenset(self._by_predicate)

    def relation(self, name: str) -> frozenset[Atom]:
        """All facts whose predicate has the given name (any arity)."""
        result: set[Atom] = set()
        for predicate, facts_ in self._by_predicate.items():
            if predicate.name == name:
                result |= facts_
        return frozenset(result)

    def tuples(self, name: str) -> list[tuple[object, ...]]:
        """The facts of relation *name* as plain Python tuples, sorted."""
        rows = [tuple(c.value for c in atom_.args if isinstance(c, Constant)) for atom_ in self.relation(name)]
        return sorted(rows, key=repr)

    def domain(self) -> frozenset[Constant]:
        """``dom(D)``: the constants occurring in the database."""
        constants: set[Constant] = set()
        for atom_ in self._facts:
            constants |= atom_.constants()
        return frozenset(constants)

    def with_facts(self, extra: Iterable[Atom]) -> "Database":
        """Return a new database with additional facts."""
        return Database(self._facts | set(extra))

    # -- dunder --------------------------------------------------------------

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in self) + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({len(self._facts)} facts)"
