"""Grounders for generative Datalog¬: the simple and the perfect grounder.

A *grounder* of ``Π[D]`` (Definition 3.3) is a monotone function mapping
every functionally consistent set ``Σ`` of ground AtR rules to a set of
ground existential-free rules ``G(Σ) ⊆ ground(Σ∄_{Π[D]})`` such that,
whenever ``AtR_Σ`` is compatible with ``G(Σ)``, the stable models of
``G(Σ) ∪ Σ`` are exactly those of ``Σ∄_{Π[D]}`` joined with any totalizer of
``AtR_Σ``.

Two grounders are provided:

* :class:`SimpleGrounder` (Definition 3.4) — forward-chains rule instances
  whose *positive* bodies match already-derived heads, ignoring negation.
* :class:`PerfectGrounder` (Definition 5.1) — for stratified programs;
  processes the strata of ``Π`` in topological order and additionally
  requires the instantiated *negative* body to be disjoint from the heads
  derived so far, which prunes rule instances that can never fire.  If the
  AtR set does not cover the Active atoms derived up to some stratum, the
  grounding stops extending at that stratum (the "otherwise" branch of
  Definition 5.1).

Both grounders treat the database ``D`` through the fact rules ``→ α`` of
``Π[D]`` and instantiate integrity constraints by positive-body matching
after the head set has converged.

Incremental grounding
---------------------

The chase explores a tree of AtR sets in which every child extends its
parent by exactly one ground AtR rule.  Re-running the grounding fixpoint
from scratch at every node is wasteful: by monotonicity, the child grounding
is the parent grounding plus whatever the new Result atom makes derivable.
:class:`GroundingState` packages a grounding together with the bookkeeping
needed to *extend* it (head index, fired/unfired AtR rules, per-stratum
checkpoints), and the grounders expose

* :meth:`Grounder.initial_state` — the state of ``G(∅)``,
* :meth:`Grounder.extend_state` — extend a state by new AtR rules
  (semi-naive delta propagation for the simple grounder, stratum-resume for
  the perfect grounder),
* :meth:`Grounder.state_for` — a state from scratch (reference path).

The classic :meth:`Grounder.ground` method is kept as the independent,
naively-iterated reference implementation; property tests assert that the
incremental states produce identical groundings.

All rule matching — saturation, semi-naive propagation and constraint
instantiation — runs through the indexed join engine
(:mod:`repro.logic.join`): head sets are
:class:`~repro.logic.join.ArgIndex` hash-bucket indexes, matched by
``iter_join`` / ``iter_join_seminaive``.  Groundings are bit-identical to
the naive matcher's (``tests/property/test_join_equivalence``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import GroundingError, StratificationError
from repro.gdatalog.atr import GroundAtRRule, is_consistent, pending_active_atoms
from repro.gdatalog.translate import TranslatedProgram
from repro.logic.atoms import Atom, Predicate
from repro.logic.database import Database
from repro.logic.intern import intern_atom, intern_rule
from repro.logic.join import ArgIndex, iter_join, iter_join_seminaive
from repro.logic.rules import Rule, fact_rule
from repro.logic.unify import FactIndex

__all__ = [
    "Grounder",
    "GrounderStats",
    "GroundingState",
    "SimpleGrounder",
    "PerfectGrounder",
    "grounder_name",
    "heads_of",
    "make_grounder",
]


def heads_of(rules: Iterable[Rule]) -> frozenset[Atom]:
    """``heads(Σ)``: the head atoms of the non-constraint rules of *rules*."""
    return frozenset(r.head for r in rules if not r.is_constraint)


@dataclass
class GrounderStats:
    """How a grounder's work was split (``--profile``).

    The join-engine counters are process-wide
    (:data:`repro.logic.join.JOIN_STATS`), not per grounder.
    """

    full_groundings: int = 0
    incremental_extensions: int = 0

    def reset(self) -> None:
        self.full_groundings = 0
        self.incremental_extensions = 0


class GroundingState:
    """The reusable result of grounding one AtR set ``Σ``.

    Bundles the ground program ``G(Σ)`` (proper rules and constraint
    instances kept apart) with the derived-head index and the fired /
    unfired AtR rules, so a grounder can extend it with new AtR rules
    without recomputing the fixpoint.  For the perfect grounder it
    additionally records the stratum at which grounding stopped
    (``resume_index``) and the rules derived *before* that stratum
    (``checkpoint_rules``), allowing an extension to resume mid-pipeline.

    States are value-like: :meth:`copy` produces an independent state
    sharing the (interned, immutable) atoms and rules.
    """

    __slots__ = (
        "atr_rules",
        "rules",
        "constraints",
        "heads",
        "fired_atr",
        "unfired_atr",
        "resume_index",
        "checkpoint_rules",
        "_grounding",
    )

    def __init__(
        self,
        atr_rules: frozenset[GroundAtRRule],
        rules: set[Rule],
        constraints: set[Rule],
        heads: FactIndex,
        fired_atr: set[GroundAtRRule],
        unfired_atr: set[GroundAtRRule],
        resume_index: int = 0,
        checkpoint_rules: frozenset[Rule] = frozenset(),
    ):
        self.atr_rules = atr_rules
        self.rules = rules
        self.constraints = constraints
        self.heads = heads
        self.fired_atr = fired_atr
        self.unfired_atr = unfired_atr
        self.resume_index = resume_index
        self.checkpoint_rules = checkpoint_rules
        self._grounding: frozenset[Rule] | None = None

    def copy(self) -> "GroundingState":
        return GroundingState(
            self.atr_rules,
            set(self.rules),
            set(self.constraints),
            self.heads.copy(),
            set(self.fired_atr),
            set(self.unfired_atr),
            self.resume_index,
            self.checkpoint_rules,
        )

    def grounding(self) -> frozenset[Rule]:
        """``G(Σ)`` as a frozenset (cached after the first call)."""
        if self._grounding is None:
            self._grounding = frozenset(self.rules) | frozenset(self.constraints)
        return self._grounding

    def __len__(self) -> int:
        return len(self.rules) + len(self.constraints)


class Grounder(abc.ABC):
    """Base class of grounders for a fixed program ``Π`` and database ``D``."""

    def __init__(self, translated: TranslatedProgram, database: Database):
        self.translated = translated
        self.database = database
        self._fact_rules: tuple[Rule, ...] = tuple(
            intern_rule(fact_rule(a)) for a in database.canonical_facts
        )
        self._active_predicates: set[Predicate] = set(translated.active_predicates)
        self.stats = GrounderStats()
        self._initial: GroundingState | None = None

    # -- interface ------------------------------------------------------------

    @abc.abstractmethod
    def ground(
        self, atr_rules: frozenset[GroundAtRRule], seed: frozenset[Rule] | None = None
    ) -> frozenset[Rule]:
        """``G(Σ)``: the ground existential-free rules assigned to the AtR set ``Σ``.

        *seed* may carry the grounding of a subset of ``Σ``; by monotonicity
        of grounders the result is unchanged, but the fixpoint computation
        can start from the seed instead of from scratch.
        """

    # -- incremental-state API ---------------------------------------------------

    def initial_state(self) -> GroundingState:
        """The grounding state of the empty AtR set, ``G(∅)`` (memoized).

        Memoization is safe because every extension path copies the state
        before mutating it (:meth:`GroundingState.copy`), and it is
        load-bearing twice over: repeated chase runs and per-sample
        :meth:`~repro.gdatalog.chase.ChaseEngine.sample_path` calls skip the
        root fixpoint, and the streaming-update path can plant a
        delta-derived root via :meth:`seed_initial_state` so an updated
        engine never pays a from-scratch saturation.
        """
        if self._initial is None:
            self._initial = self.state_for(frozenset())
        return self._initial

    def seed_initial_state(self, state: GroundingState) -> None:
        """Plant a precomputed root state (the streaming-update fast path)."""
        if state.atr_rules:
            raise GroundingError("the initial grounding state must have an empty AtR set")
        self._initial = state

    def state_for(self, atr_rules: frozenset[GroundAtRRule]) -> GroundingState:
        """A grounding state computed from scratch (reference path).

        The default implementation wraps :meth:`ground`; subclasses override
        it with a representation that is cheaper to extend.
        """
        self.stats.full_groundings += 1
        return self._state_from_grounding(atr_rules, self.ground(atr_rules))

    def extend_state(
        self, state: GroundingState, new_atr_rules: Iterable[GroundAtRRule]
    ) -> GroundingState:
        """The state of ``Σ ∪ new_atr_rules`` built on top of the state of ``Σ``.

        The base implementation recomputes via :meth:`ground` (seeded with
        the parent grounding); :class:`SimpleGrounder` and
        :class:`PerfectGrounder` override it with genuinely incremental
        algorithms.  Extensions must keep the AtR set functionally
        consistent.
        """
        atr_rules = frozenset(state.atr_rules | set(new_atr_rules))
        self._check_consistent(atr_rules)
        self.stats.full_groundings += 1
        return self._state_from_grounding(atr_rules, self.ground(atr_rules, seed=state.grounding()))

    def _state_from_grounding(
        self, atr_rules: frozenset[GroundAtRRule], grounding: frozenset[Rule]
    ) -> GroundingState:
        rules = {r for r in grounding if not r.is_constraint}
        constraints = {r for r in grounding if r.is_constraint}
        heads = ArgIndex(r.head for r in rules)
        fired = {r for r in atr_rules if r.active_atom in heads}
        for rule_ in fired:
            heads.add(rule_.result_atom)
        return GroundingState(
            atr_rules, rules, constraints, heads, fired, set(atr_rules) - fired
        )

    # -- shared helpers ---------------------------------------------------------

    @property
    def active_predicates(self) -> set[Predicate]:
        return self._active_predicates

    def pending_triggers(
        self, atr_rules: frozenset[GroundAtRRule], grounding: frozenset[Rule]
    ) -> list[Atom]:
        """Active atoms in ``heads(G(Σ))`` that ``Σ`` does not cover (the chase triggers)."""
        return pending_active_atoms(atr_rules, heads_of(grounding), self._active_predicates)

    def pending_triggers_from_state(self, state: GroundingState) -> list[Atom]:
        """The chase triggers of a state, read off the head index.

        Avoids rebuilding ``heads(G(Σ))`` per call: only the buckets of the
        Active predicates are scanned.
        """
        defined = {r.active_atom for r in state.atr_rules}
        pending = [
            atom_
            for predicate in self._active_predicates
            for atom_ in state.heads.facts_for(predicate)
            if atom_ not in defined
        ]
        pending.sort(key=Atom.sort_key)
        return pending

    def is_terminal(self, atr_rules: frozenset[GroundAtRRule], grounding: frozenset[Rule] | None = None) -> bool:
        """Whether ``Σ ∈ terminals(G)``, i.e. ``AtR_Σ ↩→ G(Σ)``."""
        actual = grounding if grounding is not None else self.ground(atr_rules)
        return not self.pending_triggers(atr_rules, actual)

    def _check_consistent(self, atr_rules: frozenset[GroundAtRRule]) -> None:
        if not is_consistent(atr_rules):
            raise GroundingError("grounders are only defined on functionally consistent AtR sets")

    @staticmethod
    def _saturate(
        non_ground_rules: Sequence[Rule],
        atr_rules: Iterable[GroundAtRRule],
        initial_rules: Iterable[Rule],
        respect_negation: bool,
    ) -> set[Rule]:
        """Forward-chain ground rule instances whose positive bodies match derived heads.

        When *respect_negation* is set (perfect grounder), an instance is only
        added if its negative body is disjoint from the heads derived so far.
        Returns the set of derived ground rules **including** the AtR rules
        that fired (callers subtract them as required by ``\\ Σ``).
        """
        derived_rules: set[Rule] = set()
        heads = ArgIndex()

        def add_rule(rule_: Rule) -> bool:
            if rule_ in derived_rules:
                return False
            derived_rules.add(rule_)
            if not rule_.is_constraint:
                heads.add(rule_.head)
            return True

        for rule_ in initial_rules:
            add_rule(rule_)

        atr_plain = [r.as_rule() for r in atr_rules]
        proper = [r for r in non_ground_rules if not r.is_constraint]
        constraints = [r for r in non_ground_rules if r.is_constraint]

        changed = True
        while changed:
            changed = False
            for rule_ in atr_plain:
                if rule_ in derived_rules:
                    continue
                if rule_.positive_body[0] in heads:
                    if add_rule(rule_):
                        changed = True
            for rule_ in proper:
                for mapping in iter_join(rule_.positive_body, heads):
                    grounded = intern_rule(rule_.substitute(mapping))
                    if not grounded.is_ground or grounded in derived_rules:
                        continue
                    if respect_negation and any(b in heads for b in grounded.negative_body):
                        continue
                    if add_rule(grounded):
                        changed = True

        for rule_ in constraints:
            for mapping in iter_join(rule_.positive_body, heads):
                grounded = intern_rule(rule_.substitute(mapping))
                if grounded.is_ground:
                    derived_rules.add(grounded)

        return derived_rules


class SimpleGrounder(Grounder):
    """The simple grounder ``GSimple_{Π[D]}`` of Definition 3.4."""

    def __init__(self, translated: TranslatedProgram, database: Database):
        super().__init__(translated, database)
        rules = translated.existential_free_rules
        self._proper_rules: tuple[Rule, ...] = tuple(
            r for r in rules if not r.is_constraint and r.positive_body
        )
        self._seed_rules: tuple[Rule, ...] = tuple(
            intern_rule(r) for r in rules if not r.is_constraint and not r.positive_body
        )
        self._constraint_rules: tuple[Rule, ...] = tuple(r for r in rules if r.is_constraint)

    def ground(
        self, atr_rules: frozenset[GroundAtRRule], seed: frozenset[Rule] | None = None
    ) -> frozenset[Rule]:
        self._check_consistent(atr_rules)
        initial: list[Rule] = list(self._fact_rules)
        if seed:
            initial.extend(seed)
        derived = self._saturate(
            non_ground_rules=self.translated.existential_free_rules,
            atr_rules=atr_rules,
            initial_rules=initial,
            respect_negation=False,
        )
        atr_plain = {r.as_rule() for r in atr_rules}
        return frozenset(derived - atr_plain)

    # -- incremental path -------------------------------------------------------

    def state_for(self, atr_rules: frozenset[GroundAtRRule]) -> GroundingState:
        """Seed the state with ``G(∅)``'s inputs and propagate everything as delta."""
        self._check_consistent(atr_rules)
        self.stats.full_groundings += 1
        heads = ArgIndex()
        rules: set[Rule] = set()
        delta = FactIndex()
        for rule_ in self._fact_rules + self._seed_rules:
            if rule_ not in rules:
                rules.add(rule_)
                if heads.add(rule_.head):
                    delta.add(rule_.head)
        state = GroundingState(
            frozenset(atr_rules), rules, set(), heads, set(), set(atr_rules)
        )
        self._propagate(state, delta)
        return state

    def delta_root_state(
        self,
        old_root: GroundingState,
        inserts: Iterable[Atom],
        retracts: Iterable[Atom],
    ) -> GroundingState:
        """The root state ``G(∅)`` of *this* grounder, derived from another
        grounder's root over the pre-delta database.

        ``self`` grounds the post-delta database; *old_root* is the (already
        computed) root of the pre-delta database.  Retraction runs
        DRed-style delete/re-derive over the ground rule *instances* of the
        old root — membership of an instance in the simple-grounder fixpoint
        depends only on the derivability of its positive body atoms, so:

        1. **Over-delete.**  Seed the deleted-atom set with the retracted
           facts; transitively delete every instance with a deleted positive
           body atom and mark its head deleted, regardless of remaining
           alternative derivations.  Over-approximating here is what makes
           cyclic self-support (``p :- q.  q :- p.`` after retracting the
           external support of ``p``) come out right.
        2. **Re-derive.**  Atoms that kept a surviving deriving instance,
           plus the inserted facts, seed one semi-naive propagation
           (:meth:`_propagate`) over the surviving instances — re-firing
           exactly the over-deleted instances whose bodies are genuinely
           still derivable, and re-instantiating any constraint whose body
           touches a changed atom.

        The result is set-identical to ``self.state_for(frozenset())``
        computed from scratch (differentially tested), at the cost of the
        changed cone instead of the whole fixpoint.
        """
        if old_root.atr_rules:
            raise GroundingError("delta_root_state requires the root (empty-AtR) state")
        self.stats.incremental_extensions += 1
        inserted_rules = [intern_rule(fact_rule(a)) for a in inserts]
        retracted = list(retracts)

        if not retracted:
            state = old_root.copy()
            delta = FactIndex()
            for rule_ in inserted_rules:
                if rule_ not in state.rules:
                    state.rules.add(rule_)
                    if state.heads.add(rule_.head):
                        delta.add(rule_.head)
            self._propagate(state, delta)
            return state

        retracted_rules = {intern_rule(fact_rule(a)) for a in retracted}
        body_index: dict[Atom, list[Rule]] = {}
        for rule_ in old_root.rules:
            for body_atom in rule_.positive_body:
                body_index.setdefault(body_atom, []).append(rule_)

        overdeleted: set[Rule] = {r for r in retracted_rules if r in old_root.rules}
        deleted_atoms: set[Atom] = set()
        worklist: list[Atom] = [intern_atom(a) for a in retracted]
        while worklist:
            atom_ = worklist.pop()
            if atom_ in deleted_atoms:
                continue
            deleted_atoms.add(atom_)
            for rule_ in body_index.get(atom_, ()):
                if rule_ not in overdeleted:
                    overdeleted.add(rule_)
                    worklist.append(rule_.head)

        surviving = set(old_root.rules) - overdeleted
        heads = ArgIndex(r.head for r in surviving)
        constraints = {
            c
            for c in old_root.constraints
            if not any(b in deleted_atoms for b in c.positive_body)
        }
        state = GroundingState(frozenset(), surviving, constraints, heads, set(), set())

        delta = FactIndex()
        for rule_ in inserted_rules:
            if rule_ not in state.rules:
                state.rules.add(rule_)
                if heads.add(rule_.head):
                    delta.add(rule_.head)
        for atom_ in deleted_atoms:
            # Re-derivation seeds: over-deleted atoms still covered by a
            # surviving instance re-enter the semi-naive frontier.
            if atom_ in heads:
                delta.add(atom_)
        self._propagate(state, delta)
        return state

    def extend_state(
        self, state: GroundingState, new_atr_rules: Iterable[GroundAtRRule]
    ) -> GroundingState:
        """Semi-naive extension: only matches involving newly derived heads are tried."""
        additions = set(new_atr_rules) - state.atr_rules
        child = state.copy()
        child.atr_rules = frozenset(child.atr_rules | additions)
        self._check_consistent(child.atr_rules)
        self.stats.incremental_extensions += 1

        delta = FactIndex()
        for atr_rule in additions:
            if atr_rule.active_atom in child.heads:
                child.fired_atr.add(atr_rule)
                if child.heads.add(atr_rule.result_atom):
                    delta.add(atr_rule.result_atom)
            else:
                child.unfired_atr.add(atr_rule)
        self._propagate(child, delta)
        return child

    def _propagate(self, state: GroundingState, delta: FactIndex) -> None:
        """Drive the semi-naive fixpoint: rounds of delta-driven matching.

        *delta* holds the heads derived in the previous round; each round
        matches every non-ground rule with the requirement that at least one
        body atom falls into the delta, fires AtR rules whose Active atom has
        become derivable, and collects the freshly derived heads as the next
        delta.  Constraints are instantiated at the end against the converged
        head set, again restricted to matches using a new head.
        """
        heads = state.heads
        rules = state.rules
        total_delta = FactIndex(delta)

        while len(delta):
            next_delta = FactIndex()
            for rule_ in self._proper_rules:
                for mapping in iter_join_seminaive(rule_.positive_body, heads, delta):
                    grounded = intern_rule(rule_.substitute(mapping))
                    if not grounded.is_ground or grounded in rules:
                        continue
                    rules.add(grounded)
                    if heads.add(grounded.head):
                        next_delta.add(grounded.head)
                        total_delta.add(grounded.head)
            for atr_rule in tuple(state.unfired_atr):
                if atr_rule.active_atom in heads:
                    state.unfired_atr.discard(atr_rule)
                    state.fired_atr.add(atr_rule)
                    if heads.add(atr_rule.result_atom):
                        next_delta.add(atr_rule.result_atom)
                        total_delta.add(atr_rule.result_atom)
            delta = next_delta

        if len(total_delta):
            for rule_ in self._constraint_rules:
                if rule_.positive_body:
                    matches = iter_join_seminaive(rule_.positive_body, heads, total_delta)
                else:
                    matches = ()
                for mapping in matches:
                    grounded = intern_rule(rule_.substitute(mapping))
                    if grounded.is_ground:
                        state.constraints.add(grounded)
        for rule_ in self._constraint_rules:
            if not rule_.positive_body and rule_.is_ground:
                state.constraints.add(intern_rule(rule_))


class PerfectGrounder(Grounder):
    """The perfect grounder ``GPerfect_{Π[D]}`` of Definition 5.1 (stratified programs only)."""

    def __init__(self, translated: TranslatedProgram, database: Database):
        super().__init__(translated, database)
        if not translated.program.is_stratified:
            raise StratificationError("the perfect grounder requires a stratified GDatalog¬ program")
        self._strata: list[frozenset[Predicate]] = translated.program.stratification()
        known = set().union(*self._strata) if self._strata else set()
        orphan_predicates = frozenset(
            p for p in (a.predicate for a in database.facts) if p not in known
        )
        if orphan_predicates:
            # Database predicates never mentioned by the program form a
            # lowest pseudo-stratum of their own.
            self._strata = [orphan_predicates] + self._strata
        self._constraint_sources: tuple[Rule, ...] = tuple(
            rule_
            for translation in self.translated.translations
            if translation.source.is_constraint
            for rule_ in translation.rules
        )

    def ground(
        self, atr_rules: frozenset[GroundAtRRule], seed: frozenset[Rule] | None = None
    ) -> frozenset[Rule]:
        self._check_consistent(atr_rules)
        current, _, _ = self._run_strata(atr_rules, start_index=0, base_rules=set())
        return frozenset(current | self._instantiate_constraints(current))

    # -- incremental path -------------------------------------------------------

    def state_for(self, atr_rules: frozenset[GroundAtRRule]) -> GroundingState:
        self._check_consistent(atr_rules)
        self.stats.full_groundings += 1
        current, resume_index, checkpoint = self._run_strata(
            atr_rules, start_index=0, base_rules=set()
        )
        return self._assemble_state(atr_rules, current, resume_index, checkpoint)

    def extend_state(
        self, state: GroundingState, new_atr_rules: Iterable[GroundAtRRule]
    ) -> GroundingState:
        """Resume the stratum pipeline at the checkpoint instead of from stratum 0.

        Strata processed strictly before the checkpoint cannot change when the
        AtR set grows: the new AtR rules cover Active atoms first derived in
        the checkpointed stratum, so their Result atoms only feed rules from
        that stratum onward.
        """
        atr_rules = frozenset(state.atr_rules | set(new_atr_rules))
        self._check_consistent(atr_rules)
        if state.resume_index >= len(self._strata):
            # Every stratum was already grounded and its Active atoms covered;
            # extra AtR rules cannot fire, so the grounding is unchanged.
            child = state.copy()
            child.atr_rules = atr_rules
            child.unfired_atr |= set(new_atr_rules) - state.atr_rules
            return child
        self.stats.incremental_extensions += 1
        current, resume_index, checkpoint = self._run_strata(
            atr_rules,
            start_index=state.resume_index,
            base_rules=set(state.checkpoint_rules),
        )
        return self._assemble_state(atr_rules, current, resume_index, checkpoint)

    # -- internals ----------------------------------------------------------------

    def _run_strata(
        self,
        atr_rules: frozenset[GroundAtRRule],
        start_index: int,
        base_rules: set[Rule],
    ) -> tuple[set[Rule], int, frozenset[Rule]]:
        """Process the strata pipeline from *start_index*.

        Returns ``(rules, resume_index, checkpoint)`` where *resume_index* is
        the first stratum a later extension has to reprocess (the stratum
        that derived the still-uncovered Active atoms, or ``len(strata)``
        when everything is covered) and *checkpoint* holds the rules derived
        before that stratum.
        """
        current: set[Rule] = set(base_rules)
        checkpoint: frozenset[Rule] = frozenset(base_rules)
        resume_index = len(self._strata)
        for index in range(start_index, len(self._strata)):
            component = self._strata[index]
            # Compatibility check of Definition 5.1: stop extending as soon as
            # the AtR set fails to cover an Active atom already derived.
            if pending_active_atoms(atr_rules, heads_of(current), self._active_predicates):
                resume_index = index - 1
                break
            checkpoint = frozenset(current)
            stratum_rules = list(self.translated.rules_for_head_predicates(component))
            stratum_facts = [r for r in self._fact_rules if r.head.predicate in component]
            derived = self._saturate(
                non_ground_rules=stratum_rules,
                atr_rules=atr_rules,
                initial_rules=list(current) + stratum_facts,
                respect_negation=True,
            )
            atr_plain = {r.as_rule() for r in atr_rules}
            current = set(derived - atr_plain)
        else:
            if pending_active_atoms(atr_rules, heads_of(current), self._active_predicates):
                resume_index = len(self._strata) - 1
        return current, resume_index, checkpoint

    def _instantiate_constraints(self, current: set[Rule]) -> set[Rule]:
        """Integrity constraints instantiated against the final head set.

        They belong to no stratum and never derive atoms.
        """
        instances: set[Rule] = set()
        if self._constraint_sources:
            heads = ArgIndex(heads_of(current))
            for rule_ in self._constraint_sources:
                for mapping in iter_join(rule_.positive_body, heads):
                    grounded = intern_rule(rule_.substitute(mapping))
                    if grounded.is_ground:
                        instances.add(grounded)
        return instances

    def _assemble_state(
        self,
        atr_rules: frozenset[GroundAtRRule],
        current: set[Rule],
        resume_index: int,
        checkpoint: frozenset[Rule],
    ) -> GroundingState:
        constraints = self._instantiate_constraints(current)
        heads = ArgIndex(r.head for r in current if not r.is_constraint)
        fired = {r for r in atr_rules if r.active_atom in heads}
        for rule_ in fired:
            heads.add(rule_.result_atom)
        return GroundingState(
            atr_rules,
            current,
            constraints,
            heads,
            fired,
            set(atr_rules) - fired,
            resume_index=resume_index,
            checkpoint_rules=checkpoint,
        )


def grounder_name(grounder: "str | Grounder") -> str:
    """The ``make_grounder`` name of a grounder family (``"simple"`` / ``"perfect"``).

    Lets callers rebuild a grounder of the same family over a different
    (e.g. query-sliced) program and database.  Custom :class:`Grounder`
    subclasses outside the two built-in families raise
    :class:`GroundingError` — silently rebuilding them as a different
    family would change which grounding implementation answers.
    """
    if isinstance(grounder, str):
        return grounder.lower()
    if isinstance(grounder, PerfectGrounder):
        return "perfect"
    if isinstance(grounder, SimpleGrounder):
        return "simple"
    raise GroundingError(
        f"cannot determine the grounder family of {type(grounder).__name__}; "
        "expected a SimpleGrounder or PerfectGrounder (sub)class"
    )


def make_grounder(
    name_or_instance: str | Grounder, translated: TranslatedProgram, database: Database
) -> Grounder:
    """Resolve ``"simple"`` / ``"perfect"`` / a ready-made grounder instance."""
    if isinstance(name_or_instance, Grounder):
        return name_or_instance
    normalized = name_or_instance.lower()
    if normalized == "simple":
        return SimpleGrounder(translated, database)
    if normalized == "perfect":
        return PerfectGrounder(translated, database)
    raise GroundingError(f"unknown grounder {name_or_instance!r}; expected 'simple' or 'perfect'")
