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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

from repro.exceptions import ChaseLimitError, InferenceError
from repro.rng import seeded_random
from repro.gdatalog.atr import GroundAtRRule
from repro.gdatalog.grounders import Grounder, GroundingState
from repro.gdatalog.outcomes import PossibleOutcome
from repro.logic.atoms import Atom
from repro.logic.rules import Rule

__all__ = [
    "TriggerStrategy",
    "ChaseConfig",
    "ChaseNode",
    "ChaseStats",
    "ChaseResult",
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


@dataclass
class ChaseResult:
    """The outcome of an exhaustive chase.

    ``error_probability`` collects the mass of truncated branches (infinite
    supports cut at the tolerance, depth-limited paths, outcome-count
    truncation); it upper-bounds the paper's ``P(Ω∞)`` for the configured
    limits and equals it in the limit of unbounded exploration.
    ``stats`` carries the profiling counters of the run.
    """

    outcomes: list[PossibleOutcome]
    error_probability: float
    truncated_paths: int
    max_depth_reached: int
    stats: ChaseStats | None = None

    @property
    def finite_probability(self) -> float:
        return sum(o.probability for o in self.outcomes)

    def __iter__(self) -> Iterator[PossibleOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


class ChaseEngine:
    """Exhaustive, order-independent chase over a fixed grounder."""

    def __init__(self, grounder: Grounder, config: ChaseConfig | None = None):
        self.grounder = grounder
        self.config = config or ChaseConfig()
        self._registry = grounder.translated.program.registry
        self._rng = seeded_random(self.config.seed)
        self.stats = ChaseStats()

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
        spec = self.grounder.translated.spec_for_active(trigger.predicate)
        distribution = self._registry.get(spec.distribution)
        params = spec.parameters_of(trigger)
        outcomes, _covered = distribution.truncated_support(
            params, mass_tolerance=self.config.mass_tolerance, max_outcomes=self.config.max_support
        )
        self.stats.nodes_expanded += 1
        children: list[ChaseNode] = []
        for outcome in outcomes:
            probability = distribution.pmf(params, outcome)
            if probability <= 0.0:
                continue
            atr_rule = GroundAtRRule.of(spec, trigger, outcome)
            children.append(
                self._child(node, atr_rule, node.probability * probability)
            )
        return children

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
        workers this way and merges the partial results).
        """
        outcomes: list[PossibleOutcome] = []
        error_mass = 0.0
        truncated = 0
        max_depth_reached = 0
        self.stats = ChaseStats()
        self.grounder.stats.reset()

        stack: list[ChaseNode] = [self.root() if root is None else root]
        while stack:
            node = stack.pop()
            self.stats.nodes_visited += 1
            max_depth_reached = max(max_depth_reached, node.depth)
            triggers = node.triggers(self.grounder)
            if not triggers:
                self.stats.leaves += 1
                if len(outcomes) >= self.config.max_outcomes:
                    if self.config.strict:
                        raise ChaseLimitError(
                            f"chase produced more than {self.config.max_outcomes} possible outcomes"
                        )
                    error_mass += node.probability
                    truncated += 1
                    continue
                outcomes.append(
                    PossibleOutcome(
                        atr_rules=node.atr_rules,
                        grounding=node.grounding,
                        probability=node.probability,
                        translated=self.grounder.translated,
                    )
                )
                continue
            if node.depth >= self.config.max_depth:
                if self.config.strict:
                    raise ChaseLimitError(
                        f"chase exceeded the maximum depth of {self.config.max_depth}"
                    )
                error_mass += node.probability
                truncated += 1
                continue
            trigger = self.select_trigger(triggers)
            children = self.expand(node, trigger)
            branch_mass = sum(c.probability for c in children)
            # Mass lost to truncated (infinite) supports.
            error_mass += max(node.probability - branch_mass, 0.0)
            stack.extend(children)

        # Canonical order via cheap structural keys (the AtR set identifies
        # the outcome); replaces the old O(n·|rules|·log) stringify-sort.
        outcomes.sort(key=lambda o: o.choice_key)
        self.stats.merge_grounder(self.grounder)
        return ChaseResult(
            outcomes=outcomes,
            error_probability=min(error_mass, 1.0),
            truncated_paths=truncated,
            max_depth_reached=max_depth_reached,
            stats=self.stats,
        )

    # -- single-path sampling (used by the Monte-Carlo sampler) -------------------

    def sample_path(self, rng, start: ChaseNode | None = None) -> tuple[PossibleOutcome | None, int]:
        """Follow a single random chase path; ``None`` signals the error event.

        Returns ``(outcome, depth)``.  Each trigger is resolved by sampling
        the corresponding distribution, so the path ends at a possible
        outcome with exactly its semantic probability.  *start* lets the
        stratified adaptive sampler begin below a fixed first choice; the
        returned outcome's probability is then conditional on the prefix
        (the start node's probability factor is inherited as-is).
        """
        node = self.root() if start is None else start
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
            spec = self.grounder.translated.spec_for_active(trigger.predicate)
            distribution = self._registry.get(spec.distribution)
            params = spec.parameters_of(trigger)
            outcome = distribution.sample(params, rng)
            probability = distribution.pmf(params, outcome)
            atr_rule = GroundAtRRule.of(spec, trigger, outcome)
            node = self._child(node, atr_rule, node.probability * probability)
