"""Indexed join engine: argument-indexed fact storage and compiled rule plans.

Every grounding operator in the library bottoms out in the same primitive:
enumerate the homomorphisms from a conjunction of body atoms into a set of
ground facts.  The reference implementation
(:func:`repro.logic.unify.match_conjunction`) performs a nested-loop join
with predicate-level indexing only — a body atom whose arguments are already
bound still scans (and stringify-sorts) the predicate's full extent at every
search node.  This module replaces that with the standard Datalog-engine
machinery:

* :class:`ArgIndex` — a :class:`~repro.logic.unify.FactIndex` extended with
  lazily-built, incrementally-maintained hash indexes on
  ``(argument position → constant → facts)``.  A pattern with any bound
  argument probes a bucket instead of scanning the extent; multi-bound
  patterns intersect their per-position buckets.
* :class:`RulePlan` — a compiled, cached evaluation plan for one conjunction.
* :func:`iter_join` / :func:`iter_join_seminaive` — the fast execution paths,
  yielding plain ``dict`` bindings for the grounders' hot loops.
* :func:`match_conjunction_indexed` /
  :func:`match_conjunction_seminaive_indexed` — drop-in,
  :class:`~repro.logic.substitution.Substitution`-yielding equivalents of the
  naive matchers (same substitution *sets*; the enumeration order may
  differ, which is invisible at the grounding level because groundings are
  canonicalized sets).

Plan format
-----------

A :class:`RulePlan` stores, per body atom, the static *pattern shape*: the
positions holding constants (``const_positions``) and the positions holding
variables (``var_positions``), plus the atom's structural
:meth:`~repro.logic.atoms.Atom.sort_key` used as a deterministic tie-break.
Shapes never change, so plans are cached process-wide keyed on the pattern
tuple; only the *join order* is (cheaply) recomputed per execution, because
it is selectivity-driven: atoms are picked greedily by the estimated
candidate count under the variables bound so far —

1. a position holding a constant (or a variable bound by the caller's
   initial binding) probes the actual index bucket and contributes its exact
   size;
2. a position whose variable becomes bound by an *earlier* join step
   contributes the predicate's mean bucket size at that position
   (``extent / distinct keys``);
3. an atom with no bound position contributes its full extent size.

Execution walks the ordered atoms with a backtracking search over a single
mutable binding dictionary (trail-undo, no per-step substitution objects).
At each step the candidate facts are the intersection of the per-position
buckets of all bound positions — materialized as a tuple so callers may add
facts to the index mid-iteration, exactly like the naive matcher (the
grounders' fixpoint rounds do this).  The seminaive variant reuses one join
order across all pivot decompositions (pivot atom against the delta only,
earlier atoms against ``facts − delta``, later atoms against all facts),
which keeps the decomposition duplicate-free.

Determinism: join orders depend only on bucket sizes and structural sort
keys — never on hash order or stringification — and all downstream
consumers canonicalize (groundings are sets, chase triggers are sorted), so
groundings, stable models and seeded sampler streams are bit-identical to
the naive matcher's.

Profiling counters (index probes vs. full scans, plans compiled/reused) are
kept process-wide in :data:`JOIN_STATS` and surfaced by ``--profile``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.logic.atoms import Atom, Predicate
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Term, Variable
from repro.logic.unify import FactIndex

__all__ = [
    "ArgIndex",
    "RulePlan",
    "JoinStats",
    "JOIN_STATS",
    "join_stats",
    "clear_plan_cache",
    "iter_join",
    "iter_join_seminaive",
    "match_conjunction_indexed",
    "match_conjunction_seminaive_indexed",
]

_EMPTY_FACTS: frozenset[Atom] = frozenset()

#: Upper bound on cached plans; cleared wholesale beyond it (same policy as
#: the intern tables — plans are tiny and recompiling is cheap).
MAX_PLAN_CACHE_SIZE = 65_536


@dataclass
class JoinStats:
    """Process-wide join-engine counters (``--profile``).

    ``index_probes`` counts candidate sets answered from argument-position
    buckets, ``full_scans`` those that had to enumerate a predicate's whole
    extent (no bound position), ``indexes_built`` the lazily-constructed
    per-position hash indexes, and ``plans_compiled`` / ``plans_reused`` the
    plan-cache traffic.

    All mutation goes through the lock-guarded :meth:`bump` (plain ``+=`` on
    a shared counter is a read-modify-write race under the threaded ``serve``
    path); reads for reporting are tolerant of concurrent writers.
    """

    index_probes: int = 0
    full_scans: int = 0
    indexes_built: int = 0
    plans_compiled: int = 0
    plans_reused: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def bump(self, counter: str, amount: int = 1) -> None:
        """Atomically add *amount* to *counter* (thread-safe)."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def reset(self) -> None:
        with self._lock:
            self.index_probes = 0
            self.full_scans = 0
            self.indexes_built = 0
            self.plans_compiled = 0
            self.plans_reused = 0


#: The process-wide counter instance.
JOIN_STATS = JoinStats()


def join_stats() -> JoinStats:
    """The process-wide join-engine counters."""
    return JOIN_STATS


class ArgIndex(FactIndex):
    """A :class:`FactIndex` with per-argument-position hash indexes.

    For every probed ``(predicate, position)`` pair the index lazily builds
    a ``constant → set of facts`` dictionary on first use and maintains it
    incrementally on later :meth:`add` calls, so a pattern with a bound
    argument retrieves its candidates in O(bucket) instead of O(extent).
    :meth:`copy` duplicates the built indexes; this multiplies the per-copy
    cost by the number of built positions (bounded by the schema's arities),
    but the child — a chase node extending its parent — almost always probes
    the same positions, and set copies are cheaper than the re-hash a lazy
    rebuild pays, so the two strategies measure within noise of each other
    on the chase workloads and the copy keeps probes O(bucket) immediately.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        # Set before super().__init__: FactIndex.__init__ calls add().
        self._arg_buckets: dict[tuple[Predicate, int], dict[Constant, set[Atom]]] = {}
        self._built_positions: dict[Predicate, tuple[int, ...]] = {}
        super().__init__(facts)

    def add(self, fact: Atom) -> bool:
        if not super().add(fact):
            return False
        positions = self._built_positions.get(fact.predicate)
        if positions:
            args = fact.args
            for position in positions:
                self._arg_buckets[(fact.predicate, position)].setdefault(
                    args[position], set()
                ).add(fact)
        return True

    def probe(self, predicate: Predicate, position: int, constant: Constant) -> frozenset[Atom] | set[Atom]:
        """The facts of *predicate* whose argument at *position* is *constant*.

        Builds the ``(predicate, position)`` index on first use.  The
        returned set is internal — callers must not mutate it (the execution
        paths materialize tuples before iterating).
        """
        buckets = self._arg_buckets.get((predicate, position))
        if buckets is None:
            buckets = self._build_position(predicate, position)
        return buckets.get(constant, _EMPTY_FACTS)

    def estimated_bucket_size(self, predicate: Predicate, position: int) -> float:
        """Mean bucket size at ``(predicate, position)`` — the planner's selectivity estimate."""
        extent = len(self._by_predicate.get(predicate, _EMPTY_FACTS))
        if extent == 0:
            return 0.0
        buckets = self._arg_buckets.get((predicate, position))
        if buckets is None:
            buckets = self._build_position(predicate, position)
        return extent / max(1, len(buckets))

    def copy(self) -> "ArgIndex":
        duplicate = ArgIndex()
        duplicate._all = set(self._all)
        for predicate, bucket in self._by_predicate.items():
            duplicate._by_predicate[predicate] = set(bucket)
        for key, buckets in self._arg_buckets.items():
            duplicate._arg_buckets[key] = {c: set(facts) for c, facts in buckets.items()}
        duplicate._built_positions = dict(self._built_positions)
        return duplicate

    # -- internals ----------------------------------------------------------

    def _build_position(self, predicate: Predicate, position: int) -> dict[Constant, set[Atom]]:
        buckets: dict[Constant, set[Atom]] = {}
        for fact in self._by_predicate.get(predicate, _EMPTY_FACTS):
            buckets.setdefault(fact.args[position], set()).add(fact)
        self._arg_buckets[(predicate, position)] = buckets
        self._built_positions[predicate] = self._built_positions.get(predicate, ()) + (position,)
        JOIN_STATS.bump("indexes_built")
        return buckets


class _PatternInfo:
    """The static shape of one body atom (precomputed once per plan)."""

    __slots__ = ("atom", "predicate", "const_positions", "var_positions", "variables", "tie_break")

    def __init__(self, atom: Atom):
        self.atom = atom
        self.predicate = atom.predicate
        const_positions: list[tuple[int, Constant]] = []
        var_positions: list[tuple[int, Variable]] = []
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant):
                const_positions.append((position, term))
            else:
                var_positions.append((position, term))
        self.const_positions = tuple(const_positions)
        self.var_positions = tuple(var_positions)
        self.variables = frozenset(v for _, v in var_positions)
        self.tie_break = atom.sort_key()


_PLAN_CACHE: dict[tuple[Atom, ...], "RulePlan"] = {}


def clear_plan_cache() -> None:
    """Drop all cached plans (used by tests)."""
    _PLAN_CACHE.clear()


class RulePlan:
    """A compiled evaluation plan for one conjunction of body atoms.

    See the module docstring for the plan format.  Plans hold only static
    pattern shapes; the selectivity-driven join order is recomputed per
    execution from the current index cardinalities (they change as the
    fixpoint derives facts).
    """

    __slots__ = ("patterns", "infos")

    def __init__(self, patterns: Sequence[Atom]):
        self.patterns = tuple(patterns)
        self.infos = tuple(_PatternInfo(a) for a in self.patterns)

    @staticmethod
    def for_patterns(patterns: Sequence[Atom]) -> "RulePlan":
        """The cached plan for *patterns* (compiled on first use)."""
        key = tuple(patterns)
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            JOIN_STATS.bump("plans_reused")
            return plan
        JOIN_STATS.bump("plans_compiled")
        plan = RulePlan(key)
        if len(_PLAN_CACHE) >= MAX_PLAN_CACHE_SIZE:
            _PLAN_CACHE.clear()
        _PLAN_CACHE[key] = plan
        return plan

    def join_order(self, index: ArgIndex, bound: Iterable[Variable] = ()) -> tuple[_PatternInfo, ...]:
        """Greedy selectivity-driven atom order, deterministic via structural tie-breaks."""
        remaining = list(self.infos)
        bound_variables = set(bound)
        ordered: list[_PatternInfo] = []
        while remaining:
            best_index = 0
            best_key: tuple | None = None
            for i, info in enumerate(remaining):
                key = (self._estimate(info, bound_variables, index), info.tie_break)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = i
            chosen = remaining.pop(best_index)
            ordered.append(chosen)
            bound_variables |= chosen.variables
        return tuple(ordered)

    @staticmethod
    def _estimate(info: _PatternInfo, bound: set[Variable], index: ArgIndex) -> float:
        best: float | None = None
        for position, constant in info.const_positions:
            size = float(len(index.probe(info.predicate, position, constant)))
            if best is None or size < best:
                best = size
        for position, variable in info.var_positions:
            if variable in bound:
                size = index.estimated_bucket_size(info.predicate, position)
                if best is None or size < best:
                    best = size
        if best is None:
            best = float(len(index._bucket(info.predicate)))
        return best


# -- execution -----------------------------------------------------------------


def _probe_candidates(info: _PatternInfo, binding: dict[Variable, Term], index: ArgIndex) -> tuple[Atom, ...]:
    """Candidate facts for *info* under *binding*, materialized.

    Probes the per-position buckets of every bound position and intersects
    them; with no bound position the predicate's full extent is scanned.
    Candidates are over-approximations only with respect to *unbound*
    repeated variables — :func:`_try_bind` performs the exact per-fact check.
    """
    bound_pairs: list[tuple[int, Term]] = list(info.const_positions)
    for position, variable in info.var_positions:
        value = binding.get(variable)
        if value is not None and isinstance(value, Constant):
            bound_pairs.append((position, value))
    if not bound_pairs:
        JOIN_STATS.bump("full_scans")
        return tuple(index._bucket(info.predicate))
    JOIN_STATS.bump("index_probes")
    if len(bound_pairs) == 1:
        position, value = bound_pairs[0]
        return tuple(index.probe(info.predicate, position, value))
    buckets = [index.probe(info.predicate, position, value) for position, value in bound_pairs]
    buckets.sort(key=len)
    if not buckets[0]:
        return ()
    return tuple(set(buckets[0]).intersection(*buckets[1:]))


def _try_bind(info: _PatternInfo, fact: Atom, binding: dict[Variable, Term]) -> list[Variable] | None:
    """Extend *binding* so the pattern matches *fact*; return the trail or ``None``.

    On failure any partial extension is rolled back before returning.
    """
    args = fact.args
    for position, constant in info.const_positions:
        if args[position] != constant:
            return None
    added: list[Variable] = []
    for position, variable in info.var_positions:
        value = args[position]
        existing = binding.get(variable)
        if existing is None:
            binding[variable] = value
            added.append(variable)
        elif existing != value:
            for v in added:
                del binding[v]
            return None
    return added


def _execute(
    ordered: tuple[_PatternInfo, ...],
    index: ArgIndex,
    binding: dict[Variable, Term],
    delta: FactIndex | None = None,
    pivot: int = -1,
) -> Iterator[dict[Variable, Term]]:
    """Backtracking search over *ordered*; yields binding snapshots.

    With a *delta* and a *pivot*, atom ``pivot`` matches against *delta*
    only, earlier atoms against ``index − delta``, later atoms against all
    of *index* (the seminaive pivot decomposition).
    """
    n = len(ordered)

    def search(i: int) -> Iterator[dict[Variable, Term]]:
        if i == n:
            yield dict(binding)
            return
        info = ordered[i]
        if delta is not None and i == pivot:
            candidates: tuple[Atom, ...] = tuple(delta._bucket(info.predicate))
        elif delta is not None and i < pivot:
            candidates = tuple(f for f in _probe_candidates(info, binding, index) if f not in delta)
        else:
            candidates = _probe_candidates(info, binding, index)
        for fact in candidates:
            added = _try_bind(info, fact, binding)
            if added is None:
                continue
            yield from search(i + 1)
            for variable in added:
                del binding[variable]

    yield from search(0)


# -- public API ----------------------------------------------------------------


def _as_arg_index(facts: FactIndex | Iterable[Atom]) -> ArgIndex:
    if isinstance(facts, ArgIndex):
        return facts
    return ArgIndex(facts)


def _normalize_binding(binding: Substitution | Mapping[Variable, Term] | None) -> dict[Variable, Term]:
    """The caller's binding as a dict, without identity pairs (``{Y: Y}`` binds nothing)."""
    if binding is None:
        return {}
    return {var: term for var, term in binding.items() if var != term}


def iter_join(
    patterns: Sequence[Atom],
    facts: FactIndex | Iterable[Atom],
    binding: Substitution | Mapping[Variable, Term] | None = None,
) -> Iterator[dict[Variable, Term]]:
    """Enumerate the homomorphisms from *patterns* into *facts* as plain dicts.

    The fast-path equivalent of :func:`repro.logic.unify.match_conjunction`:
    same binding *set*, possibly different enumeration order, no
    :class:`Substitution` construction per match.  Accepts any fact source;
    passing an :class:`ArgIndex` avoids an O(extent) upgrade copy.
    """
    index = _as_arg_index(facts)
    pattern_tuple = tuple(patterns)
    initial = _normalize_binding(binding)
    if initial:
        # Pre-apply the caller's binding so the search only ever binds
        # variables to ground terms (mirrors the naive matcher's
        # apply-then-match behaviour, including variable-to-variable links).
        applied = tuple(a.substitute(initial) for a in pattern_tuple)
        plan = RulePlan(applied)  # binding-specific: bypass the cache
        for result in _execute(plan.join_order(index), index, {}):
            merged = dict(initial)
            merged.update(result)
            yield merged
        return
    if not pattern_tuple:
        yield {}
        return
    plan = RulePlan.for_patterns(pattern_tuple)
    yield from _execute(plan.join_order(index), index, {})


def iter_join_seminaive(
    patterns: Sequence[Atom],
    facts: FactIndex | Iterable[Atom],
    delta: FactIndex,
    binding: Substitution | Mapping[Variable, Term] | None = None,
) -> Iterator[dict[Variable, Term]]:
    """Seminaive differential of :func:`iter_join`.

    With ``delta ⊆ facts`` yields exactly the bindings ``h`` with
    ``h(patterns) ⊆ facts`` and ``h(patterns) ∩ delta ≠ ∅``, each exactly
    once — the fast-path equivalent of
    :func:`repro.logic.unify.match_conjunction_seminaive`.
    """
    index = _as_arg_index(facts)
    pattern_tuple = tuple(patterns)
    if not pattern_tuple or not len(delta):
        return
    initial = _normalize_binding(binding)
    if initial:
        # Pre-apply the caller's binding into the patterns (uncached plan);
        # the search itself always starts from an empty binding and the
        # initial binding is merged back into each yielded result.
        plan = RulePlan(tuple(a.substitute(initial) for a in pattern_tuple))
    else:
        plan = RulePlan.for_patterns(pattern_tuple)
    if not any(len(delta._bucket(info.predicate)) for info in plan.infos):
        return
    ordered = plan.join_order(index)
    for pivot in range(len(ordered)):
        if not len(delta._bucket(ordered[pivot].predicate)):
            continue
        for result in _execute(ordered, index, {}, delta=delta, pivot=pivot):
            if initial:
                merged = dict(initial)
                merged.update(result)
                yield merged
            else:
                yield result


def match_conjunction_indexed(
    patterns: Sequence[Atom],
    facts: FactIndex | Iterable[Atom],
    binding: Substitution | None = None,
) -> Iterator[Substitution]:
    """Drop-in indexed equivalent of :func:`~repro.logic.unify.match_conjunction`.

    Yields the same substitution set (possibly in a different order); used
    by the oracle property tests and by callers that want the
    :class:`Substitution` API rather than raw dicts.
    """
    for mapping in iter_join(patterns, facts, binding):
        yield Substitution.of(mapping)


def match_conjunction_seminaive_indexed(
    patterns: Sequence[Atom],
    facts: FactIndex | Iterable[Atom],
    delta: FactIndex,
    binding: Substitution | None = None,
) -> Iterator[Substitution]:
    """Drop-in indexed equivalent of :func:`~repro.logic.unify.match_conjunction_seminaive`."""
    for mapping in iter_join_seminaive(patterns, facts, delta, binding):
        yield Substitution.of(mapping)
