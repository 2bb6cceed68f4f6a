"""Complete stable-model enumeration for ground Datalog¬ programs.

The solver is tailored to the small ground programs that arise as possible
outcomes of generative Datalog¬ programs.  Each program is solved in the
first of three cases that applies:

1. **Negation-free.**  No rule has a negative body, so the least model is
   the only candidate: one least-model pass, then the constraints are
   checked.

2. **Settled.**  The well-founded model fixes the truth value of every atom
   that is decided in all stable models.  When it decides every atom of the
   set ``N`` of negative-body atoms, it is total and its true atoms are the
   only candidate, stable by construction; only the constraints are
   checked.  Every stratified program lands here, after at most three
   least-model passes when its negated atoms are defined without negation.

3. **Branching.**  Stable models of a ground program are uniquely
   determined by their intersection with ``N``: for a guess ``S ⊆ N`` the GL
   reduct only depends on ``S``, and a guess is *stable* iff the least model
   ``M`` of the reduct satisfies ``M ∩ N = S``.  The solver enumerates the
   guesses compatible with the well-founded model, checks each, and filters
   candidates violating an integrity constraint.

The first two cases are *decided*: they have at most one stable model,
found in polynomial time.  The branching step is exponential in the number
of *undecided* negative-body atoms, which is the expected complexity class
(deciding stable-model existence is NP-complete); a configurable guess
limit guards against accidentally huge instances.
``SolverConfig(use_well_founded=False)`` skips the first two cases and the
pruning, branching over all of ``N``: the reference oracle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, TypeVar

from repro.exceptions import SolverLimitError
from repro.logic.atoms import Atom
from repro.logic.database import Database
from repro.logic.program import DatalogProgram
from repro.logic.rules import Rule
from repro.stable.fixpoint import least_model, violated_constraints
from repro.stable.grounding import GroundProgram, ground_program
from repro.stable.reduct import is_stable_model
from repro.stable.wellfounded import alternating_fixpoint

__all__ = [
    "SolverConfig",
    "StableModelSolver",
    "stable_models",
    "has_stable_model",
    "shared_solver",
    "solver_cache_stats",
]

_Entry = TypeVar("_Entry")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the stable-model solver.

    Attributes
    ----------
    max_guesses:
        Upper bound on the number of branching guesses explored
        (``2**len(undecided negative atoms)``); exceeded → :class:`SolverLimitError`.
    use_well_founded:
        Whether to take the negation-free and settled cases and the
        well-founded pruning of the branching case (disable only in tests
        that exercise the raw branching procedure).
    memoize:
        Whether :meth:`StableModelSolver.enumerate` caches its results keyed
        on the ground program's rule set
        (:meth:`~repro.stable.grounding.GroundProgram.canonical_key`).
        Structurally equal programs — e.g. the same chase configuration
        re-sampled by the Monte-Carlo sampler, or outcomes re-queried under
        several marginals — are then solved exactly once per process.
        ``has_stable_model`` stores the 0 or 1 models of a decided
        (negation-free or settled) program in the same model memo, so a
        later ``enumerate`` hits.  On a branching program it never pays
        the eager materialization of a memoized ``enumerate``: it
        enumerates lazily, stops at the first model, and records the
        boolean in a separate existence memo so repeated checks stay O(1).
    cache_size:
        Maximum number of memoized programs (LRU eviction).
    """

    max_guesses: int = 1 << 20
    use_well_founded: bool = True
    memoize: bool = True
    cache_size: int = 8192


class StableModelSolver:
    """Enumerates the stable models of ground Datalog¬ programs."""

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self._cache: OrderedDict[frozenset[Rule], tuple[frozenset[Atom], ...]] = OrderedDict()
        #: Existence-only memo: canonical key -> whether a stable model exists.
        #: Fed by :meth:`has_stable_model` on branching programs, which must
        #: stay lazy (a partial enumeration is not cacheable in ``_cache``).
        self._has_model_cache: OrderedDict[frozenset[Rule], bool] = OrderedDict()
        #: Guards both memos and the counters, never the solving: threads
        #: sharing the solver may evict each other's entries at any time.
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- public API ---------------------------------------------------------

    def enumerate(self, program: GroundProgram | Iterable[Rule]) -> Iterator[frozenset[Atom]]:
        """Yield every stable model of the ground program, each exactly once."""
        ground = program if isinstance(program, GroundProgram) else GroundProgram(tuple(program))
        if not self.config.memoize:
            yield from self._enumerate_uncached(ground)
            return
        key = ground.canonical_key
        models = self._recall(key, self._cache)
        if models is None:
            models = tuple(self._enumerate_uncached(ground))
            self._remember(self._cache, key, models)
        yield from models

    def cache_stats(self) -> dict[str, int]:
        """Memo-cache counters for profiling reports."""
        with self._lock:
            return {
                "entries": len(self._cache),
                "existence_entries": len(self._has_model_cache),
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            }

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self._has_model_cache.clear()
            self.cache_hits = 0
            self.cache_misses = 0

    def _enumerate_uncached(
        self, ground: GroundProgram
    ) -> tuple[frozenset[Atom], ...] | Iterator[frozenset[Atom]]:
        """The stable models of *ground*, solved without the memo.

        A decided program (negation-free or settled, see the module
        docstring) returns its 0 or 1 models as a tuple; a branching one
        returns a lazy iterator over its guesses.
        """
        rules = ground.rules
        negative_atoms = ground.negative_body_atoms()
        if not self.config.use_well_founded:
            return self._branch(rules, negative_atoms, frozenset(), negative_atoms)
        if not negative_atoms:
            return self._checked(rules, least_model(rules))
        lower, upper = alternating_fixpoint(rules)
        undecided = (negative_atoms & upper) - lower
        if not undecided:
            # Γ(I) depends only on I ∩ N, so upper = Γ(lower) = Γ(upper) =
            # lower: the well-founded model is total, and it is stable.
            return self._checked(rules, lower)
        return self._branch(rules, negative_atoms, lower, undecided)

    def _branch(
        self,
        rules: tuple[Rule, ...],
        negative_atoms: frozenset[Atom],
        wf_true: frozenset[Atom],
        undecided: frozenset[Atom],
    ) -> Iterator[frozenset[Atom]]:
        """Guess-and-check over the *undecided* negative-body atoms.

        Every guess ``S`` compatible with the well-founded model contains
        the well-founded true atoms of ``N`` and satisfies ``S ⊆ U∞`` (it
        avoids the well-founded false atoms), and Γ is antimonotone, so
        ``lm(P^S) = Γ(S) ⊇ Γ(U∞) = wf_true``: the well-founded true atoms
        belong to every guess's reduct model and seed its fixpoint instead
        of being re-derived from ∅.
        """
        ordered = sorted(undecided, key=str)
        guess_count = 1 << len(ordered)
        if guess_count > self.config.max_guesses:
            raise SolverLimitError(
                f"{len(ordered)} undecided negative-body atoms would require {guess_count} guesses "
                f"(limit {self.config.max_guesses})"
            )

        forced_true = wf_true & negative_atoms
        non_constraint_rules = [r for r in rules if not r.is_constraint]
        seen: set[frozenset[Atom]] = set()
        for size in range(len(ordered) + 1):
            for extra in combinations(ordered, size):
                assumed_true = forced_true | set(extra)
                candidate = self._candidate_for_guess(
                    non_constraint_rules, negative_atoms, assumed_true, wf_true
                )
                if candidate is None or candidate in seen:
                    continue
                if violated_constraints(rules, candidate):
                    continue
                seen.add(candidate)
                yield candidate

    def all_stable_models(self, program: GroundProgram | Iterable[Rule]) -> list[frozenset[Atom]]:
        """All stable models, sorted for reproducible output."""
        return sorted(self.enumerate(program), key=lambda m: sorted(str(a) for a in m))

    def has_stable_model(self, program: GroundProgram | Iterable[Rule]) -> bool:
        """Whether at least one stable model exists.

        Answers from the memo when the program was already solved.  On a
        miss, a decided program is solved outright and its 0 or 1 models
        are stored in the model memo, so a later :meth:`enumerate` hits.
        A branching program is enumerated *lazily* up to its first model
        (a partial enumeration is not cacheable in the model memo, so
        existence checks never pay the eager materialization of a memoized
        :meth:`enumerate`); the boolean goes to a separate existence memo,
        so repeated existence checks of the same program cost one
        dictionary lookup.
        """
        ground = program if isinstance(program, GroundProgram) else GroundProgram(tuple(program))
        if not self.config.memoize:
            return next(iter(self._enumerate_uncached(ground)), None) is not None
        key = ground.canonical_key
        known = self._recall(key, self._cache, self._has_model_cache)
        if known is not None:
            return bool(known)  # a tuple of models or an existence boolean
        models = self._enumerate_uncached(ground)
        if isinstance(models, tuple):
            self._remember(self._cache, key, models)
            return bool(models)
        exists = next(models, None) is not None
        self._remember(self._has_model_cache, key, exists)
        return exists

    def count(self, program: GroundProgram | Iterable[Rule]) -> int:
        """The number of stable models."""
        return sum(1 for _ in self.enumerate(program))

    def brave_consequences(self, program: GroundProgram | Iterable[Rule]) -> frozenset[Atom]:
        """Atoms true in *some* stable model."""
        result: set[Atom] = set()
        for model in self.enumerate(program):
            result |= model
        return frozenset(result)

    def cautious_consequences(self, program: GroundProgram | Iterable[Rule]) -> frozenset[Atom] | None:
        """Atoms true in *every* stable model, or ``None`` if there are no stable models."""
        result: set[Atom] | None = None
        for model in self.enumerate(program):
            result = set(model) if result is None else result & model
        return frozenset(result) if result is not None else None

    def is_stable(self, program: GroundProgram | Iterable[Rule], candidate: Iterable[Atom]) -> bool:
        """Direct stability check of a candidate interpretation (GL reduct test)."""
        rules = program.rules if isinstance(program, GroundProgram) else tuple(program)
        return is_stable_model(rules, frozenset(candidate))

    # -- internals ----------------------------------------------------------

    def _recall(self, key: frozenset[Rule], *memos: OrderedDict[frozenset[Rule], _Entry]) -> _Entry | None:
        """The entry for *key* in the first memo holding one, or ``None``.

        Counts a hit (and marks the entry most recently used) or a miss.
        """
        with self._lock:
            for memo in memos:
                found = memo.get(key)
                if found is not None:
                    memo.move_to_end(key)
                    self.cache_hits += 1
                    return found
            self.cache_misses += 1
            return None

    def _remember(self, memo: OrderedDict[frozenset[Rule], _Entry], key: frozenset[Rule], value: _Entry) -> None:
        with self._lock:
            memo[key] = value
            if len(memo) > self.config.cache_size:
                memo.popitem(last=False)

    @staticmethod
    def _checked(rules: tuple[Rule, ...], model: frozenset[Atom]) -> tuple[frozenset[Atom], ...]:
        """``(model,)``, or ``()`` when *model* violates a constraint of *rules*."""
        return () if violated_constraints(rules, model) else (model,)

    @staticmethod
    def _candidate_for_guess(
        rules: list[Rule],
        negative_atoms: frozenset[Atom],
        assumed_true: set[Atom],
        seed: frozenset[Atom] = frozenset(),
    ) -> frozenset[Atom] | None:
        """Least model of the reduct induced by a guess, or ``None`` if the guess is unstable.

        *seed* carries the well-founded true atoms: they are contained in
        every compatible guess's reduct model (see :meth:`_branch`), so the
        fixpoint starts from them instead of re-deriving them per guess.
        """
        reduct: list[Rule] = []
        for r in rules:
            if any(b in assumed_true for b in r.negative_body):
                continue
            reduct.append(Rule(r.head, r.positive_body, ()) if r.negative_body else r)
        model = least_model(reduct, seed=seed)
        if model & negative_atoms != assumed_true:
            return None
        return model


# -- module-level conveniences ------------------------------------------------

#: Process-wide memoizing solver shared by all possible-outcome evaluations.
_shared_solver: StableModelSolver | None = None


def shared_solver() -> StableModelSolver:
    """The process-wide memoizing solver (created on first use).

    Keyed on ground programs' rule sets, its cache persists across engines,
    samplers and output spaces, so repeated evaluations of structurally
    equal outcome programs are free after the first.
    """
    global _shared_solver
    if _shared_solver is None:
        _shared_solver = StableModelSolver(SolverConfig())
    return _shared_solver


def solver_cache_stats() -> dict[str, int]:
    """Cache counters of the shared solver (zeros before first use)."""
    if _shared_solver is None:
        return {"entries": 0, "existence_entries": 0, "hits": 0, "misses": 0}
    return _shared_solver.cache_stats()


def stable_models(
    program: DatalogProgram,
    database: Database | Iterable[Atom] = (),
    config: SolverConfig | None = None,
) -> list[frozenset[Atom]]:
    """Ground ``Π[D]`` and enumerate ``sms(D, Π)``."""
    ground = ground_program(program, database)
    return StableModelSolver(config).all_stable_models(ground)


def has_stable_model(
    program: DatalogProgram,
    database: Database | Iterable[Atom] = (),
    config: SolverConfig | None = None,
) -> bool:
    """Whether ``Π[D]`` has at least one stable model."""
    ground = ground_program(program, database)
    return StableModelSolver(config).has_stable_model(ground)
