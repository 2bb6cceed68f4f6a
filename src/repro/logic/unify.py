"""Matching, unification and homomorphisms between sets of atoms.

The grounding operators of the paper (``Simple``, ``Perfect``) and the chase
all rely on *homomorphisms*: mappings ``h`` from the variables of a rule body
to constants such that ``h(B⁺(σ)) ⊆ heads(Σ')``.  This module provides the
matching machinery:

* :func:`match_atom` — one-way matching of a (possibly non-ground) atom
  against a ground atom.
* :func:`match_conjunction` — enumerate all homomorphisms from a conjunction
  of atoms into a set of ground facts, with an index on predicates for
  efficiency.
* :func:`unify_atoms` — full (two-way) unification, used by tests and by the
  random-program machinery.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Set as AbstractSet
from typing import Iterable, Iterator, Mapping, Sequence

from repro.logic.atoms import Atom, Predicate
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Term, Variable

__all__ = [
    "match_atom",
    "match_conjunction",
    "match_conjunction_seminaive",
    "unify_atoms",
    "FactIndex",
    "FactsView",
]


class FactsView(AbstractSet):
    """A read-only, live view over one predicate bucket of a :class:`FactIndex`.

    :meth:`FactIndex.facts_for` used to hand out the internal mutable bucket
    set; a caller mutating it would silently desynchronize the bucket from
    the index's ``_all`` set.  The view supports the full read-only ``Set``
    protocol (membership, iteration, ``len``, boolean algebra) but exposes no
    mutators, and it stays *live*: facts added to the index after the view
    was obtained are visible through it.
    """

    __slots__ = ("_facts",)

    def __init__(self, facts: AbstractSet[Atom]):
        self._facts = facts

    def __contains__(self, item: object) -> bool:
        return item in self._facts

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    @classmethod
    def _from_iterable(cls, iterable: Iterable[Atom]) -> frozenset[Atom]:
        # Set-algebra results (view | other, view - other, ...) materialize
        # as plain frozensets, detached from the index.
        return frozenset(iterable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FactsView({set(self._facts)!r})"


#: Shared empty bucket handed out by the raw accessor for absent predicates.
_EMPTY_BUCKET: frozenset[Atom] = frozenset()


def match_atom(pattern: Atom, ground: Atom, binding: Substitution | None = None) -> Substitution | None:
    """Match *pattern* against the ground atom *ground*.

    Returns the extension of *binding* under which ``pattern`` becomes
    ``ground``, or ``None`` if no such extension exists.  Matching is
    one-way: variables of *ground* (there should be none) are never bound.
    """
    if pattern.predicate != ground.predicate:
        return None
    current = binding if binding is not None else Substitution()
    for pat_term, ground_term in zip(pattern.args, ground.args):
        if isinstance(pat_term, Constant):
            if pat_term != ground_term:
                return None
        else:
            extended = current.bind(pat_term, ground_term)
            if extended is None:
                return None
            current = extended
    return current


class FactIndex:
    """A predicate-indexed view over a set of ground atoms.

    Construction is O(n); lookups by predicate are O(1) plus the size of the
    bucket.  Used by the grounders and the fixpoint operators, which
    repeatedly enumerate candidate matches for each body atom.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        self._by_predicate: dict[Predicate, set[Atom]] = defaultdict(set)
        self._all: set[Atom] = set()
        self._views: dict[Predicate, FactsView] = {}
        self.add_all(facts)

    def add(self, fact: Atom) -> bool:
        """Add a ground atom; return ``True`` if it was new."""
        if fact in self._all:
            return False
        self._all.add(fact)
        self._by_predicate[fact.predicate].add(fact)
        return True

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Add many atoms; return the number of new ones."""
        return sum(1 for f in facts if self.add(f))

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._all

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._all)

    def facts_for(self, predicate: Predicate) -> FactsView:
        """All indexed atoms with the given predicate (read-only live view).

        The returned :class:`FactsView` cannot be mutated — handing out the
        internal bucket set would let callers silently corrupt the index and
        desync it from ``_all``.  Views are cached per predicate and stay
        live — facts added after the view was obtained are visible through
        it, including for predicates that had no facts yet (the defaultdict
        bucket is created on first request so the view tracks it).
        """
        view = self._views.get(predicate)
        if view is None:
            view = self._views[predicate] = FactsView(self._by_predicate[predicate])
        return view

    def _bucket(self, predicate: Predicate) -> AbstractSet[Atom]:
        """The raw bucket for in-package hot paths (do **not** mutate)."""
        return self._by_predicate.get(predicate, _EMPTY_BUCKET)

    def as_set(self) -> frozenset[Atom]:
        return frozenset(self._all)

    def copy(self) -> "FactIndex":
        """An independent copy (bucket sets are copied, atoms are shared)."""
        duplicate = FactIndex()
        duplicate._all = set(self._all)
        for predicate, bucket in self._by_predicate.items():
            duplicate._by_predicate[predicate] = set(bucket)
        return duplicate


def _initial_binding(binding: Substitution | None) -> Substitution:
    """The caller's binding without identity pairs: ``{Y: Y}`` binds nothing."""
    if binding is None:
        return Substitution()
    return Substitution.of((var, term) for var, term in binding.items() if var != term)


def match_conjunction(
    patterns: Sequence[Atom],
    facts: FactIndex | Iterable[Atom],
    binding: Substitution | None = None,
) -> Iterator[Substitution]:
    """Enumerate every homomorphism from *patterns* into *facts*.

    Yields each substitution ``h`` (restricted to the variables of the
    patterns, extended from *binding*) with ``h(patterns) ⊆ facts``.  The
    search orders body atoms greedily by the number of candidate facts, a
    simple but effective join heuristic for the small-to-medium programs this
    library targets.
    """
    index = facts if isinstance(facts, FactIndex) else FactIndex(facts)
    start = _initial_binding(binding)

    if not patterns:
        yield start
        return

    # Order the atoms so that the most selective one (fewest candidate
    # facts) is matched first; ties are broken by textual order to keep the
    # enumeration deterministic.
    ordered = sorted(patterns, key=lambda a: (len(index.facts_for(a.predicate)), str(a)))

    def _search(i: int, current: Substitution) -> Iterator[Substitution]:
        if i == len(ordered):
            yield current
            return
        pattern = current.apply_atom(ordered[i])
        candidates = sorted(index.facts_for(pattern.predicate), key=str)
        for candidate in candidates:
            extended = match_atom(pattern, candidate, current)
            if extended is not None:
                yield from _search(i + 1, extended)

    yield from _search(0, start)


def match_conjunction_seminaive(
    patterns: Sequence[Atom],
    facts: FactIndex,
    delta: FactIndex,
    binding: Substitution | None = None,
) -> Iterator[Substitution]:
    """Enumerate the homomorphisms from *patterns* into *facts* that use *delta*.

    This is the semi-naive differential of :func:`match_conjunction`: with
    ``delta ⊆ facts`` the iterator yields exactly the substitutions ``h`` with
    ``h(patterns) ⊆ facts`` and ``h(patterns) ∩ delta ≠ ∅`` — the matches that
    did *not* exist before the delta atoms were derived.  Incremental
    grounders call this once per fixpoint round with the freshly derived
    heads as *delta*, so work per round is proportional to the new matches
    instead of to the whole head set.

    Each qualifying substitution is produced exactly once: for pivot position
    ``i`` the ``i``-th atom is matched against *delta* only, earlier atoms
    against ``facts − delta``, later atoms against all of *facts*.
    """
    start = _initial_binding(binding)
    if not patterns or not len(delta):
        return

    # A fixed join order shared by all pivots keeps the pivot decomposition
    # duplicate-free; order by selectivity against the full index with the
    # original position as a deterministic tie-break.
    ordered = sorted(
        range(len(patterns)), key=lambda i: (len(facts.facts_for(patterns[i].predicate)), i)
    )
    atoms_in_order = [patterns[i] for i in ordered]

    def _candidates(position: int, pivot: int, pattern: Atom) -> tuple[Atom, ...]:
        # Materialized so callers may add facts to the indexes mid-iteration
        # (the grounder's fixpoint round does exactly that).
        bucket = facts.facts_for(pattern.predicate)
        if position == pivot:
            return tuple(delta.facts_for(pattern.predicate))
        if position < pivot:
            return tuple(f for f in bucket if f not in delta)
        return tuple(bucket)

    def _search(position: int, pivot: int, current: Substitution) -> Iterator[Substitution]:
        if position == len(atoms_in_order):
            yield current
            return
        pattern = current.apply_atom(atoms_in_order[position])
        for candidate in _candidates(position, pivot, pattern):
            extended = match_atom(pattern, candidate, current)
            if extended is not None:
                yield from _search(position + 1, pivot, extended)

    for pivot in range(len(atoms_in_order)):
        if not delta.facts_for(atoms_in_order[pivot].predicate):
            continue
        yield from _search(0, pivot, start)


def has_homomorphism(patterns: Sequence[Atom], facts: FactIndex | Iterable[Atom]) -> bool:
    """Whether at least one homomorphism from *patterns* into *facts* exists."""
    return next(iter(match_conjunction(patterns, facts)), None) is not None


def unify_atoms(left: Atom, right: Atom, binding: Substitution | None = None) -> Substitution | None:
    """Full two-way unification of two atoms (no occurs check needed — terms are flat)."""
    if left.predicate != right.predicate:
        return None
    current = binding if binding is not None else Substitution()
    for l_term, r_term in zip(left.args, right.args):
        resolved_l = _resolve(current, l_term)
        resolved_r = _resolve(current, r_term)
        if resolved_l == resolved_r:
            continue
        if isinstance(resolved_l, Variable):
            extended = current.bind(resolved_l, resolved_r)
        elif isinstance(resolved_r, Variable):
            extended = current.bind(resolved_r, resolved_l)
        else:
            return None
        if extended is None:
            return None
        current = extended
    return current


def _resolve(binding: Mapping[Variable, Term] | Substitution, term: Term) -> Term:
    """Follow variable bindings until a fixpoint (flat terms: at most one hop chain)."""
    seen: set[Variable] = set()
    current = term
    while isinstance(current, Variable) and current not in seen:
        seen.add(current)
        nxt = binding.get(current) if isinstance(binding, Substitution) else binding.get(current)
        if nxt is None or nxt == current:
            break
        current = nxt
    return current
