"""The chase procedure on ground AtR programs (Section 4).

The chase operates on sets of ground AtR rules ("configurations of
probabilistic choices").  A node labelled ``Σ`` has, for a *trigger*
``α = Active^δ(p̄, q̄) ∈ heads(G(Σ))`` not yet covered by ``Σ``, one child per
outcome ``o`` with ``δ⟨p̄⟩(o) > 0``; a node without triggers is a leaf and its
label (joined with ``G(Σ)``) is a finite possible outcome.  Lemma 4.4 shows
the set of finite-path results is independent of the trigger order; the test
suite exercises this with different :class:`TriggerStrategy` choices.

Distributions with infinite support are truncated at a configurable
probability-mass tolerance, and paths exceeding the depth limit are cut off;
the probability mass lost this way is accounted to the error event
``Ω∞`` (mirroring the treatment of infinite outcomes in the paper).

Since the tree of configurations shares Σ-prefixes along every path, the
engine grounds *incrementally* by default: every node carries the
:class:`~repro.gdatalog.grounders.GroundingState` of its AtR set, and a
child's state is obtained by extending the parent's with the single new AtR
rule (semi-naive delta propagation) instead of re-running the grounding
fixpoint from scratch.  Set :attr:`ChaseConfig.incremental` to ``False`` to
fall back to per-node from-scratch grounding (the reference behaviour used
by the equivalence tests and the E9 benchmark baseline).

An exhaustive chase from the root under a deterministic trigger strategy
also keeps a :class:`ChaseRecord` of the tree it walked: each expanded
node's trigger and children, each leaf's outcome and each cut.  The
Monte-Carlo sampler follows one path of that same tree, so
:meth:`ChaseEngine.sample_path` descends the record instead of grounding
every node of the path again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator, Sequence, Union

from repro.distributions.base import Outcome
from repro.exceptions import ChaseLimitError, InferenceError
from repro.rng import seeded_random
from repro.gdatalog.atr import AtRSpec, GroundAtRRule, outcome_to_constant
from repro.gdatalog.grounders import Grounder, GroundingState
from repro.gdatalog.outcomes import PossibleOutcome
from repro.logic.atoms import Atom
from repro.logic.rules import Rule
from repro.logic.terms import Constant

__all__ = [
    "TriggerStrategy",
    "ChaseConfig",
    "ChaseNode",
    "ChaseStats",
    "ChaseResult",
    "ChaseRecord",
    "ChaseEngine",
]


class TriggerStrategy(str, Enum):
    """How the chase picks the next trigger among the pending Active atoms.

    By Lemma 4.4 every strategy yields the same set of finite possible
    outcomes; exposing the choice lets the tests verify order independence.
    """

    FIRST = "first"
    LAST = "last"
    RANDOM = "random"


@dataclass(frozen=True)
class ChaseConfig:
    """Limits and tolerances of the exhaustive chase.

    Attributes
    ----------
    max_depth:
        Maximum number of trigger applications along one path; deeper paths
        are truncated and their mass moves to the error event.
    max_outcomes:
        Upper bound on the number of finite possible outcomes produced;
        exceeding it raises :class:`ChaseLimitError` in strict mode and
        truncates (moving the remaining mass to the error event) otherwise.
    mass_tolerance:
        For distributions with infinite support, outcomes are enumerated
        until at least ``1 - mass_tolerance`` of the conditional mass is
        covered; the remainder goes to the error event.
    max_support:
        Hard cap on the number of branches per trigger.
    strict:
        Whether hitting ``max_outcomes`` raises instead of truncating.
    trigger_strategy / seed:
        Trigger selection policy (see :class:`TriggerStrategy`).
    incremental:
        Whether chase nodes carry a reusable
        :class:`~repro.gdatalog.grounders.GroundingState` that children
        extend by one AtR rule (the default).  When ``False`` every node's
        grounding is recomputed from scratch via
        :meth:`~repro.gdatalog.grounders.Grounder.ground` — identical
        results, dramatically slower on larger chase trees; kept as the
        reference baseline.
    factorize:
        Whether exact inference may decompose the ground program into
        independent components and chase each on its own sub-database
        (see :mod:`repro.gdatalog.factorize`).  Read by
        :meth:`~repro.gdatalog.engine.GDatalogEngine.output_space`, not by
        :class:`ChaseEngine` itself; programs whose ground dependency graph
        is connected fall back to the sequential chase.  Query-relevant
        slicing is not a chase setting: ask the engine for
        :meth:`~repro.gdatalog.engine.GDatalogEngine.sliced`.
    """

    max_depth: int = 200
    max_outcomes: int = 200_000
    mass_tolerance: float = 1e-9
    max_support: int = 64
    strict: bool = False
    trigger_strategy: TriggerStrategy = TriggerStrategy.FIRST
    seed: int = 0
    incremental: bool = True
    factorize: bool = False


@dataclass(frozen=True)
class ChaseNode:
    """A node of the chase tree: an AtR set, its grounding, and bookkeeping.

    ``state`` carries the reusable grounding state when the engine runs
    incrementally (``None`` in from-scratch mode); it never participates in
    node equality.
    """

    atr_rules: frozenset[GroundAtRRule]
    grounding: frozenset[Rule]
    probability: float
    depth: int
    state: GroundingState | None = field(default=None, compare=False, repr=False)

    def triggers(self, grounder: Grounder) -> list[Atom]:
        if self.state is not None:
            return grounder.pending_triggers_from_state(self.state)
        return grounder.pending_triggers(self.atr_rules, self.grounding)


@dataclass
class ChaseStats:
    """Profiling counters of one chase run (surfaced by ``--profile``)."""

    nodes_expanded: int = 0
    nodes_visited: int = 0
    leaves: int = 0
    grounding_seconds: float = 0.0
    incremental_extensions: int = 0
    full_groundings: int = 0

    def merge_grounder(self, grounder: Grounder) -> None:
        self.incremental_extensions = grounder.stats.incremental_extensions
        self.full_groundings = grounder.stats.full_groundings


class _Cut(Enum):
    """A place where the exhaustive chase cut its tree."""

    DEPTH = "depth"  # a node with triggers at ``max_depth``
    OUTCOMES = "outcomes"  # a leaf past ``max_outcomes``, whose outcome was not kept


class _Branch:
    """An expanded node of a :class:`ChaseRecord`: its trigger and its children."""

    __slots__ = ("trigger", "children")

    def __init__(self, trigger: Atom):
        self.trigger = trigger
        #: The record of each child, keyed by the outcome of its AtR rule.
        self.children: dict[Constant, _Place] = {}


#: The record of one chase node: expanded, a leaf (the number of its outcome
#: in the order the chase reached the leaves) or cut.
_Place = Union[_Branch, int, _Cut]


@dataclass(frozen=True, eq=False)
class ChaseRecord:
    """The tree one exhaustive chase from the root walked, without its groundings.

    Each node is recorded as a :class:`_Branch`, a leaf number or a
    :class:`_Cut`; leaf number ``i`` is the outcome ``outcomes[ranks[i]]``.
    The record is valid for ``config`` only, since the limits and the
    trigger strategy shape the tree.  It is read-only once built, so
    threads share it without a lock.
    """

    config: ChaseConfig
    root: _Place
    ranks: tuple[int, ...]
    outcomes: tuple[PossibleOutcome, ...]

    def with_outcomes(self, outcomes: Sequence[PossibleOutcome]) -> "ChaseRecord":
        """The same tree over *outcomes*, which replace :attr:`outcomes` place by place."""
        return replace(self, outcomes=tuple(outcomes))


@dataclass
class ChaseResult:
    """The outcome of an exhaustive chase.

    ``error_probability`` collects the mass of truncated branches (infinite
    supports cut at the tolerance, depth-limited paths, outcome-count
    truncation); it upper-bounds the paper's ``P(Ω∞)`` for the configured
    limits and equals it in the limit of unbounded exploration.
    ``stats`` carries the profiling counters of the run, and ``record`` the
    tree of a deterministic run from the root (``None`` otherwise).
    """

    outcomes: list[PossibleOutcome]
    error_probability: float
    truncated_paths: int
    max_depth_reached: int
    stats: ChaseStats | None = None
    record: ChaseRecord | None = None

    @property
    def finite_probability(self) -> float:
        return sum(o.probability for o in self.outcomes)

    def __iter__(self) -> Iterator[PossibleOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


class ChaseEngine:
    """Exhaustive, order-independent chase over a fixed grounder.

    *record* is the :class:`ChaseRecord` of an exhaustive chase over the
    same grounder's program and database; :meth:`sample_path` descends it
    when it was built under *config*, and ignores it otherwise.
    """

    def __init__(
        self,
        grounder: Grounder,
        config: ChaseConfig | None = None,
        record: ChaseRecord | None = None,
    ):
        self.grounder = grounder
        self.config = config or ChaseConfig()
        self._registry = grounder.translated.program.registry
        self._rng = seeded_random(self.config.seed)
        self.stats = ChaseStats()
        self.record = record if record is not None and record.config == self.config else None

    # -- public API -------------------------------------------------------------

    def root(self) -> ChaseNode:
        """The root node: the empty AtR set and its grounding."""
        empty: frozenset[GroundAtRRule] = frozenset()
        started = time.perf_counter()
        if self.config.incremental:
            state = self.grounder.initial_state()
            grounding = state.grounding()
        else:
            state = None
            grounding = self.grounder.ground(empty)
        self.stats.grounding_seconds += time.perf_counter() - started
        return ChaseNode(empty, grounding, 1.0, 0, state=state)

    def expand(self, node: ChaseNode, trigger: Atom) -> list[ChaseNode]:
        """One trigger application ``Σ⟨α⟩{Σ1, Σ2, ...}`` (Definition 4.1).

        Children are created only for outcomes with positive probability;
        infinite supports are truncated at the configured tolerance.
        """
        return [
            self._child(node, atr_rule, probability)
            for atr_rule, probability in self._branches(node.probability, trigger)
        ]

    def _branches(self, probability: float, trigger: Atom) -> list[tuple[GroundAtRRule, float]]:
        """The AtR rule and path probability of each child of a node of *probability*."""
        spec = self.grounder.translated.spec_for_active(trigger.predicate)
        distribution = self._registry.get(spec.distribution)
        params = spec.parameters_of(trigger)
        outcomes, _covered = distribution.truncated_support(
            params, mass_tolerance=self.config.mass_tolerance, max_outcomes=self.config.max_support
        )
        self.stats.nodes_expanded += 1
        branches: list[tuple[GroundAtRRule, float]] = []
        for outcome in outcomes:
            factor = distribution.pmf(params, outcome)
            if factor <= 0.0:
                continue
            branches.append((GroundAtRRule.of(spec, trigger, outcome), probability * factor))
        return branches

    def _child(self, node: ChaseNode, atr_rule: GroundAtRRule, probability: float) -> ChaseNode:
        """Build one child node, extending the parent's grounding state if present."""
        child_atr = frozenset(node.atr_rules | {atr_rule})
        started = time.perf_counter()
        if node.state is not None:
            child_state = self.grounder.extend_state(node.state, (atr_rule,))
            child_grounding = child_state.grounding()
        else:
            child_state = None
            child_grounding = self.grounder.ground(child_atr, seed=node.grounding)
        self.stats.grounding_seconds += time.perf_counter() - started
        return ChaseNode(child_atr, child_grounding, probability, node.depth + 1, state=child_state)

    def select_trigger(self, triggers: Sequence[Atom]) -> Atom:
        """Pick the next trigger according to the configured strategy."""
        if not triggers:
            raise InferenceError(
                "select_trigger called with no pending triggers; "
                "the node is terminal and must not be expanded"
            )
        if self.config.trigger_strategy is TriggerStrategy.LAST:
            return triggers[-1]
        if self.config.trigger_strategy is TriggerStrategy.RANDOM:
            return triggers[self._rng.randrange(len(triggers))]
        return triggers[0]

    def run(self, root: ChaseNode | None = None) -> ChaseResult:
        """Exhaustively enumerate the finite possible outcomes (depth-first).

        *root* defaults to the empty configuration; passing an interior
        chase node restricts the enumeration to its subtree (the parallel
        explorer in :mod:`repro.runtime.pool` farms disjoint subtrees to
        workers this way and merges the partial results).  A run from the
        root under ``FIRST`` or ``LAST`` returns the tree it walked as
        :attr:`ChaseResult.record`.  Under ``RANDOM`` the trigger is a draw
        of this engine's own RNG, which no sampler may reuse, so nothing is
        recorded.
        """
        outcomes: list[PossibleOutcome] = []
        error_mass = 0.0
        truncated = 0
        max_depth_reached = 0
        self.stats = ChaseStats()
        self.grounder.stats.reset()

        recording = root is None and self.config.trigger_strategy is not TriggerStrategy.RANDOM
        top: dict[None, _Place] = {}
        # Each entry: a node, and the dict and key its record goes under
        # (no dict when nothing is recorded).
        stack: list[tuple[ChaseNode, dict | None, object]] = [
            (self.root() if root is None else root, top if recording else None, None)
        ]
        while stack:
            node, slots, key = stack.pop()
            self.stats.nodes_visited += 1
            max_depth_reached = max(max_depth_reached, node.depth)
            triggers = node.triggers(self.grounder)
            if not triggers:
                self.stats.leaves += 1
                place: _Place
                if len(outcomes) >= self.config.max_outcomes:
                    if self.config.strict:
                        raise ChaseLimitError(
                            f"chase produced more than {self.config.max_outcomes} possible outcomes"
                        )
                    error_mass += node.probability
                    truncated += 1
                    place = _Cut.OUTCOMES
                else:
                    place = len(outcomes)
                    outcomes.append(
                        PossibleOutcome(
                            atr_rules=node.atr_rules,
                            grounding=node.grounding,
                            probability=node.probability,
                            translated=self.grounder.translated,
                        )
                    )
                if slots is not None:
                    slots[key] = place
                continue
            if node.depth >= self.config.max_depth:
                if self.config.strict:
                    raise ChaseLimitError(
                        f"chase exceeded the maximum depth of {self.config.max_depth}"
                    )
                error_mass += node.probability
                truncated += 1
                if slots is not None:
                    slots[key] = _Cut.DEPTH
                continue
            trigger = self.select_trigger(triggers)
            branches = self._branches(node.probability, trigger)
            children = [self._child(node, atr_rule, p) for atr_rule, p in branches]
            branch_mass = sum(c.probability for c in children)
            # Mass lost to truncated (infinite) supports.
            error_mass += max(node.probability - branch_mass, 0.0)
            if slots is None:
                stack.extend((child, None, None) for child in children)
            else:
                branch = _Branch(trigger)
                slots[key] = branch
                stack.extend(
                    (child, branch.children, atr_rule.outcome)
                    for child, (atr_rule, _) in zip(children, branches)
                )

        # Canonical order via cheap structural keys (the AtR set identifies
        # the outcome); replaces the old O(n·|rules|·log) stringify-sort.
        order = sorted(range(len(outcomes)), key=lambda number: outcomes[number].choice_key)
        outcomes = [outcomes[number] for number in order]
        record = None
        if recording:
            ranks = [0] * len(order)
            for rank, number in enumerate(order):
                ranks[number] = rank
            record = ChaseRecord(self.config, top[None], tuple(ranks), tuple(outcomes))
        self.stats.merge_grounder(self.grounder)
        return ChaseResult(
            outcomes=outcomes,
            error_probability=min(error_mass, 1.0),
            truncated_paths=truncated,
            max_depth_reached=max_depth_reached,
            stats=self.stats,
            record=record,
        )

    # -- single-path sampling (used by the Monte-Carlo sampler) -------------------

    def sample_path(self, rng, start: ChaseNode | None = None) -> tuple[PossibleOutcome | None, int]:
        """Follow a single random chase path; ``None`` signals the error event.

        Returns ``(outcome, depth)``.  Each trigger is resolved by sampling
        its distribution with *rng*; the path probability is tracked so the
        returned outcome is a faithful leaf.  *start* lets the
        stratified adaptive sampler begin below a fixed first choice; the
        returned outcome's probability is then conditional on the prefix
        (the start node's probability factor is inherited as-is).

        With a :attr:`record` a path from the root descends the recorded
        tree, making the same draws in the same order, and ends at the
        chase's own outcome, whose stable models are already solved.  Where
        a draw leaves the record, the node reached is grounded again from
        the root, drawing nothing, and the path goes on as without a record.
        """
        if start is None and self.record is not None:
            return self._descend(rng, self.record)
        return self._walk(rng, self.root() if start is None else start)

    def _walk(self, rng, node: ChaseNode) -> tuple[PossibleOutcome | None, int]:
        """Sample on from a grounded *node*, grounding every node of the path."""
        while True:
            triggers = node.triggers(self.grounder)
            if not triggers:
                return (
                    PossibleOutcome(
                        atr_rules=node.atr_rules,
                        grounding=node.grounding,
                        probability=node.probability,
                        translated=self.grounder.translated,
                    ),
                    node.depth,
                )
            if node.depth >= self.config.max_depth:
                return None, node.depth
            trigger = self.select_trigger(triggers)
            spec, outcome, factor = self._draw(trigger, rng)
            atr_rule = GroundAtRRule.of(spec, trigger, outcome)
            node = self._child(node, atr_rule, node.probability * factor)

    def _descend(self, rng, record: ChaseRecord) -> tuple[PossibleOutcome | None, int]:
        """Sample from the root along *record*, grounding only where it ends.

        A child is looked up by the outcome's constant; the draw's AtR rule
        is built only when the path leaves the record.
        """
        place, probability = record.root, 1.0
        draws: list[tuple[AtRSpec, Atom, Outcome]] = []
        while isinstance(place, _Branch):
            spec, outcome, factor = self._draw(place.trigger, rng)
            probability *= factor
            draws.append((spec, place.trigger, outcome))
            child = place.children.get(outcome_to_constant(outcome))
            if child is None:
                # The draw lies outside a support the chase truncated.
                return self._walk(rng, self._node_along(draws, probability))
            place = child
        if place is _Cut.DEPTH:
            return None, len(draws)
        if place is _Cut.OUTCOMES:
            return self._walk(rng, self._node_along(draws, probability))
        leaf = record.outcomes[record.ranks[place]]
        # The chase multiplied the pmf of its support values, the path that
        # of its draws; they differ only if a distribution's draws and
        # support disagree in type, and then the path's product stands.
        if leaf.probability != probability:
            leaf = PossibleOutcome(leaf.atr_rules, leaf.grounding, probability, leaf.translated)
        return leaf, len(draws)

    def _draw(self, trigger: Atom, rng) -> tuple[AtRSpec, Outcome, float]:
        """Resolve *trigger* by one draw: its spec, the outcome and the outcome's probability."""
        spec = self.grounder.translated.spec_for_active(trigger.predicate)
        distribution = self._registry.get(spec.distribution)
        params = spec.parameters_of(trigger)
        outcome = distribution.sample(params, rng)
        return spec, outcome, distribution.pmf(params, outcome)

    def _node_along(
        self, draws: list[tuple[AtRSpec, Atom, Outcome]], probability: float
    ) -> ChaseNode:
        """The node *draws* reach from the root, grounded as the chase grounds it."""
        node = self.root()
        for draw in draws:
            node = self._child(node, GroundAtRRule.of(*draw), probability)
        return node
