"""Factorized exact inference via independent-component decomposition.

Exhaustive chase enumeration is exponential in the number of probabilistic
choices even when the choices never interact: *n* independent coin flips
cost ``2^n`` materialized outcomes in a flat
:class:`~repro.gdatalog.probability_space.OutputSpace`.  But when the ground
program and database split into components that share no ground atom, the
output space ``Π_G(D)`` is literally a product measure — the chase, the
stable-model computation and most queries decompose per component (the
ground-level analogue of the paper's stratified dependency analysis, and the
PPDL reading of independent generative sub-programs).

The decomposition works on the **union grounding**: starting from the
database facts, the program is saturated with *every* probabilistic choice
of positive probability (all truncated-support outcomes of every Active atom
ever derivable), which by monotonicity of the grounders over-approximates
``G(Σ)`` for every chase-reachable ``Σ``.  Connected components of the
resulting ground-atom co-occurrence graph
(:func:`~repro.gdatalog.dependency.ground_atom_components`) therefore
partition every outcome's ground program; each component is chased
independently on its own sub-database, and the full space is represented as
a :class:`ProductSpace` that

* enumerates joint outcomes **lazily** (no ``∏ |Ω_i|`` materialization),
* answers ``marginal`` / ``probability_has_stable_model`` by touching only
  the component an atom depends on (everything else contributes a cached
  scalar), and
* combines events and conditioning per component where independence allows.

Factorization is sound only when every derivation starts from the database:
programs with unconditional rules (empty positive body — their heads would
re-fire in *every* component's sub-chase) and programs whose ground
dependency graph is connected fall back to the sequential engine;
:func:`factorized_space` returns ``None`` in those cases and callers keep
the flat :class:`OutputSpace` path.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.exceptions import InferenceError
from repro.gdatalog.atr import GroundAtRRule
from repro.gdatalog.chase import ChaseConfig, ChaseEngine, ChaseResult
from repro.gdatalog.dependency import ground_atom_components
from repro.gdatalog.grounders import Grounder, grounder_name, heads_of
from repro.gdatalog.outcomes import PossibleOutcome
from repro.gdatalog.probability_space import (
    AbstractSpace,
    Event,
    ModelSet,
    OutputSpace,
    ZERO_MASS_EPSILON,
)
from repro.gdatalog.translate import TranslatedProgram
from repro.logic.atoms import Atom
from repro.logic.database import Database
from repro.logic.intern import intern_rule
from repro.logic.rules import Rule, fact_rule

if TYPE_CHECKING:
    from repro.runtime.service import ComponentCache

__all__ = [
    "Component",
    "Decomposition",
    "ComponentSpace",
    "ProductSpace",
    "saturated_grounding",
    "decompose",
    "component_space",
    "explore_component_spaces",
    "factorized_space",
]


# ---------------------------------------------------------------------------
# Union grounding (saturation over all probabilistic choices)
# ---------------------------------------------------------------------------


def saturated_grounding(
    translated: TranslatedProgram, database: Database, config: ChaseConfig
) -> tuple[frozenset[Rule], frozenset[GroundAtRRule]] | None:
    """The union grounding over *all* probabilistic choices.

    Repeatedly grounds (ignoring negation, as the simple grounder does) and
    adds, for every newly derived Active atom, one ground AtR rule per
    outcome of positive probability in its truncated support — the same
    truncation the chase applies, so every chase-reachable choice is
    covered.  Returns ``(ground_rules, atr_union)`` once no new Active atom
    appears, or ``None`` when the loop exceeds ``config.max_depth`` rounds
    (a chase that deep is truncated anyway; callers fall back).

    The AtR union is functionally *inconsistent* on purpose (every outcome
    of every trigger at once); it is an analysis artifact, never a chase
    configuration.
    """
    registry = translated.program.registry
    initial_rules = tuple(
        intern_rule(fact_rule(a)) for a in database.canonical_facts
    )
    specs = {spec.active_predicate: spec for spec in translated.atr_specs}
    atr_union: set[GroundAtRRule] = set()
    covered: set[Atom] = set()
    for _round in range(max(config.max_depth, 1) + 1):
        derived = Grounder._saturate(
            non_ground_rules=translated.existential_free_rules,
            atr_rules=atr_union,
            initial_rules=initial_rules,
            respect_negation=False,
        )
        pending = [
            atom_
            for atom_ in heads_of(derived)
            if atom_.predicate in specs and atom_ not in covered
        ]
        if not pending:
            atr_plain = {r.as_rule() for r in atr_union}
            return frozenset(derived - atr_plain), frozenset(atr_union)
        for active in sorted(pending, key=Atom.sort_key):
            covered.add(active)
            spec = specs[active.predicate]
            distribution = registry.get(spec.distribution)
            params = spec.parameters_of(active)
            outcomes, _mass = distribution.truncated_support(
                params,
                mass_tolerance=config.mass_tolerance,
                max_outcomes=config.max_support,
            )
            for outcome in outcomes:
                if distribution.pmf(params, outcome) > 0.0:
                    atr_union.add(GroundAtRRule.of(spec, active, outcome))
    return None


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """One independent block of the ground program: its atoms and database facts.

    ``generative`` components contain at least one Active atom (their chase
    branches); the single non-generative *base* component collects everything
    deterministic.
    """

    atoms: frozenset[Atom]
    facts: tuple[Atom, ...]
    generative: bool

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class Decomposition:
    """The independent-component partition of ``Π[D]``'s ground atoms."""

    components: tuple[Component, ...]

    @property
    def generative_count(self) -> int:
        return sum(1 for c in self.components if c.generative)

    def __len__(self) -> int:
        return len(self.components)


def decompose(
    translated: TranslatedProgram, database: Database, config: ChaseConfig
) -> Decomposition | None:
    """Partition the program's ground atoms into independent components.

    Returns ``None`` — callers fall back to the sequential engine — when

    * the translation contains a non-constraint rule with an empty positive
      body (its head would be re-derived inside every component's
      sub-chase, breaking disjointness),
    * the saturation does not converge within ``config.max_depth`` rounds, or
    * fewer than two *generative* components exist (a connected ground
      dependency graph: nothing to factorize).

    All non-generative components are merged into one deterministic base
    component (kept only when it carries facts), so the product never pays
    per-singleton overhead for untouched facts.
    """
    if any(not r.positive_body and not r.is_constraint for r in translated.existential_free_rules):
        return None
    saturated = saturated_grounding(translated, database, config)
    if saturated is None:
        return None
    rules, atr_union = saturated
    links = [(r.active_atom, r.result_atom) for r in atr_union]
    atom_components = ground_atom_components(rules, links=links, extra_atoms=database.facts)

    active_atoms = {r.active_atom for r in atr_union}
    component_of: dict[Atom, int] = {}
    for index, members in enumerate(atom_components):
        for atom_ in members:
            component_of[atom_] = index
    facts_by_component: dict[int, list[Atom]] = {}
    for atom_ in database.canonical_facts:
        facts_by_component.setdefault(component_of[atom_], []).append(atom_)

    generative: list[Component] = []
    base_atoms: set[Atom] = set()
    base_facts: list[Atom] = []
    for index, members in enumerate(atom_components):
        facts = tuple(facts_by_component.get(index, ()))
        if members & active_atoms:
            generative.append(Component(members, facts, True))
        else:
            base_atoms |= members
            base_facts.extend(facts)
    if len(generative) < 2:
        return None
    components = tuple(generative)
    if base_facts:
        components += (
            Component(frozenset(base_atoms), tuple(sorted(base_facts, key=Atom.sort_key)), False),
        )
    return Decomposition(components)


# ---------------------------------------------------------------------------
# Per-component spaces and their product
# ---------------------------------------------------------------------------


class ComponentSpace:
    """One component's chased :class:`OutputSpace` plus its routing metadata."""

    __slots__ = ("component", "space", "has_model_probability", "finite_probability")

    def __init__(self, component: Component, space: OutputSpace):
        self.component = component
        self.space = space
        # Cached scalars: every query touching a *different* component only
        # needs these two numbers from this one.
        self.finite_probability = space.finite_probability
        self.has_model_probability = space.probability_has_stable_model()

    def __len__(self) -> int:
        return len(self.space)


def component_space(
    grounder: Grounder, component: Component, config: ChaseConfig
) -> ComponentSpace:
    """Chase one component on its own sub-database (same grounder family)."""
    sub_grounder = type(grounder)(grounder.translated, Database(component.facts))
    result = ChaseEngine(sub_grounder, config).run()
    return ComponentSpace(component, OutputSpace(result.outcomes, result.error_probability))


class ProductSpace(AbstractSpace):
    """``Π_G(D)`` as a product of independent per-component spaces.

    Joint outcomes are enumerated lazily (:meth:`__iter__`); queries that
    route to a single component (:meth:`marginal`,
    :meth:`probability_has_stable_model`, the per-component conditioning
    fast path in :mod:`repro.ppdl.conditioning`) never build them at all.
    Generic predicates (:meth:`probability`, :meth:`conditional`) fall back
    to the lazy joint enumeration, which costs ``∏ |Ω_i|`` time but O(1)
    extra memory.
    """

    def __init__(self, components: Sequence[ComponentSpace], translated: TranslatedProgram):
        if not components:
            raise InferenceError("a product space needs at least one component")
        self._components = tuple(components)
        self._translated = translated
        self._atom_component: dict[Atom, int] | None = None

    @property
    def components(self) -> tuple[ComponentSpace, ...]:
        return self._components

    @property
    def translated(self) -> TranslatedProgram:
        return self._translated

    @classmethod
    def merge(cls, spaces: Iterable["ProductSpace"]) -> "ProductSpace":
        """The product over the union of the spaces' (disjoint) components."""
        collected: list[ComponentSpace] = []
        translated: TranslatedProgram | None = None
        for space in spaces:
            collected.extend(space._components)
            translated = space._translated
        if translated is None:
            raise InferenceError("cannot merge an empty collection of product spaces")
        return cls(collected, translated)

    # -- routing -----------------------------------------------------------------

    def component_of(self, atom: Atom) -> int | None:
        """The index of the component whose ground program can derive *atom*."""
        if self._atom_component is None:
            self._atom_component = {
                atom_: index
                for index, component in enumerate(self._components)
                for atom_ in component.component.atoms
            }
        return self._atom_component.get(atom)

    # -- basic accounting ----------------------------------------------------------

    @property
    def error_probability(self) -> float:
        """``1 - ∏ P_i(Ω^fin)`` when any component truncated, exactly 0 otherwise."""
        if all(c.space.error_probability == 0.0 for c in self._components):
            return 0.0
        return max(0.0, 1.0 - self.finite_probability)

    @property
    def finite_probability(self) -> float:
        return math.prod(c.finite_probability for c in self._components)

    def __len__(self) -> int:
        return math.prod(len(c) for c in self._components)

    def __iter__(self) -> Iterator[PossibleOutcome]:
        """Lazily enumerate the joint outcomes (cartesian product order)."""
        for combo in itertools.product(*(c.space for c in self._components)):
            yield self._join(combo)

    def _join(self, combo: Sequence[PossibleOutcome]) -> PossibleOutcome:
        """One joint outcome: unions of the choices/groundings, product mass.

        The joint stable models are the unions of one model per component
        (the ground programs are atom-disjoint), so the solver cache is
        warmed with the product instead of re-solving the union program.
        """
        atr_rules = frozenset().union(*(o.atr_rules for o in combo))
        grounding = frozenset().union(*(o.grounding for o in combo))
        probability = math.prod(o.probability for o in combo)
        joint = PossibleOutcome(
            atr_rules=atr_rules,
            grounding=grounding,
            probability=probability,
            translated=self._translated,
        )
        model_sets = [o.stable_models for o in combo]
        if any(not models for models in model_sets):
            joint.__dict__["stable_models"] = frozenset()
        else:
            joint.__dict__["stable_models"] = frozenset(
                frozenset().union(*pick) for pick in itertools.product(*model_sets)
            )
        return joint

    # -- probability queries ---------------------------------------------------------

    def probability(self, predicate: Callable[[PossibleOutcome], bool]) -> float:
        """Generic event probability via lazy joint enumeration (``∏ |Ω_i|`` time)."""
        return math.fsum(o.probability for o in self if predicate(o))

    def probability_has_stable_model(self) -> float:
        """``∏ P_i(has stable model)`` — the joint program has a model iff every part does."""
        return math.prod(c.has_model_probability for c in self._components)

    def probability_no_stable_model(self) -> float:
        return 1.0 - self.probability_has_stable_model() - self.error_probability

    def marginal(self, atom: Atom, mode: str = "brave") -> float:
        """Atom marginal touching only the atom's component.

        A joint model is a union of per-component models, so *atom* (derivable
        in exactly one component) appears bravely/cautiously in the joint
        models iff it does in its own component's models — every other
        component merely has to admit *some* model.  Atoms no component can
        derive have marginal 0.
        """
        if mode not in ("brave", "cautious"):
            raise InferenceError(f"marginal mode must be 'brave' or 'cautious', got {mode!r}")
        index = self.component_of(atom)
        if index is None:
            return 0.0
        local = self._components[index].space.marginal(atom, mode=mode)
        others = math.prod(
            c.has_model_probability for i, c in enumerate(self._components) if i != index
        )
        return local * others

    # -- events ----------------------------------------------------------------------

    def events(self) -> list[Event]:
        """Joint events combined from the component events.

        Exponential in the number of components (a joint model set is a
        global object), but built from the few per-component *events* rather
        than the many joint outcomes, and without materializing any joint
        outcome (``Event.outcomes`` stays empty — iterate the space for
        outcome-level access).
        """
        masses: dict[ModelSet, list[float]] = {}
        for combo in itertools.product(*(c.space.events() for c in self._components)):
            mass = math.prod(event.probability for event in combo)
            if any(not event.model_set for event in combo):
                joint: ModelSet = frozenset()
            else:
                joint = frozenset(
                    frozenset().union(*pick)
                    for pick in itertools.product(*(event.model_set for event in combo))
                )
            masses.setdefault(joint, []).append(mass)
        events = [
            Event(model_set, (), math.fsum(parts)) for model_set, parts in masses.items()
        ]
        events.sort(key=lambda e: (-e.probability, len(e.model_set)))
        return events

    # -- conditioning ------------------------------------------------------------------

    def materialize(self) -> OutputSpace:
        """The equivalent flat :class:`OutputSpace` (joint outcomes, canonical order)."""
        outcomes = sorted(self, key=lambda o: o.choice_key)
        return OutputSpace(outcomes, error_probability=self.error_probability)

    def conditional(
        self,
        predicate: Callable[[PossibleOutcome], bool],
        epsilon: float = ZERO_MASS_EPSILON,
    ) -> OutputSpace:
        """Condition on an arbitrary joint-outcome event.

        A generic predicate can couple components, so the result is a flat
        renormalized :class:`OutputSpace`; the per-component fast path for
        observation conjunctions lives in
        :func:`repro.ppdl.conditioning.condition`.
        """
        return self.materialize().conditional(predicate, epsilon=epsilon)

    def condition_components(
        self,
        predicates: dict[int, Callable[[PossibleOutcome], bool]],
        epsilon: float = ZERO_MASS_EPSILON,
    ) -> tuple["ProductSpace", float]:
        """Condition each component independently; the product stays a product.

        *predicates* maps component indices to component-outcome events; every
        unmapped component is conditioned on possessing a stable model (the
        semantics of positive observations on the joint space).  Returns the
        conditioned space and the joint evidence probability ``∏ mass_i``.
        Raises :class:`InferenceError` as soon as one component's evidence
        mass is at most *epsilon* — per-component renormalization never
        divides by the (possibly far tinier) joint product, which is exactly
        why legitimately small joint evidence conditions cleanly here.
        """
        conditioned: list[ComponentSpace] = []
        component_masses: list[float] = []
        for index, part in enumerate(self._components):
            event = predicates.get(index)
            if event is None:
                event = lambda outcome: outcome.has_stable_model  # noqa: E731
            mass = part.space.probability(event)
            if mass <= epsilon:
                raise InferenceError(
                    "cannot condition on an event of probability zero "
                    f"(component {index} evidence mass {mass:.3e})"
                )
            conditioned.append(
                ComponentSpace(part.component, part.space.conditional(event, epsilon=epsilon))
            )
            component_masses.append(mass)
        return ProductSpace(conditioned, self._translated), math.prod(component_masses)

    # -- reporting ----------------------------------------------------------------------

    def summary(self) -> str:
        """A per-component summary plus the joint accounting."""
        lines = [
            f"independent components:     {len(self._components)}",
            f"possible outcomes (joint):  {len(self)}"
            f" ({' × '.join(str(len(c)) for c in self._components)})",
            f"finite probability mass:    {self.finite_probability:.6f}",
            f"error-event mass:           {self.error_probability:.6f}",
            f"P(has stable model):        {self.probability_has_stable_model():.6f}",
        ]
        for i, part in enumerate(self._components):
            kind = "generative" if part.component.generative else "deterministic"
            lines.append(
                f"  component {i} ({kind}): {len(part)} outcome(s), "
                f"{len(part.component.facts)} fact(s), "
                f"P(has stable model)={part.has_model_probability:.6f}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Top-level entry point
# ---------------------------------------------------------------------------


def explore_component_spaces(
    grounder: Grounder,
    components: Sequence[Component],
    config: ChaseConfig,
    workers: int | None = None,
) -> list[ComponentSpace]:
    """Chase *components* with fresh grounders of the same family.

    With ``workers > 1`` (and more than one component) the chases run on the
    forked worker pool — components are the parallel-split unit (see
    :func:`repro.runtime.pool.explore_components`); otherwise they run
    inline.  Shared by :func:`factorized_space` and delta maintenance
    (:mod:`repro.gdatalog.incremental`), which only chase the components
    they do not already hold.
    """
    if workers is not None and workers > 1 and len(components) > 1:
        from repro.runtime.pool import explore_components

        sub_grounders = [
            type(grounder)(grounder.translated, Database(c.facts)) for c in components
        ]
        results: list[ChaseResult] = explore_components(sub_grounders, config, workers=workers)
        return [
            ComponentSpace(c, OutputSpace(r.outcomes, r.error_probability))
            for c, r in zip(components, results)
        ]
    return [component_space(grounder, c, config) for c in components]


def _component_key(
    program_digest: str, component: Component, grounder: str, config: ChaseConfig
) -> str:
    """The content address of *component*'s chased space.

    That space is a deterministic function of the program, the component's
    facts, the grounder family and the chase configuration, so engines over
    different databases share the spaces of equal components.
    """
    digest = hashlib.sha256()
    digest.update(program_digest.encode("utf-8"))
    digest.update(b"\x00")
    digest.update("\n".join(str(fact) for fact in component.facts).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(grounder.encode("utf-8"))
    digest.update(repr(config).encode("utf-8"))
    return digest.hexdigest()


def factorized_space(
    grounder: Grounder,
    config: ChaseConfig | None = None,
    workers: int | None = None,
    decomposition: Decomposition | None = None,
    cache: "ComponentCache | None" = None,
    program_digest: str = "",
) -> ProductSpace | None:
    """The factorized output space of a grounder, or ``None`` to fall back.

    *decomposition* lets callers holding a precomputed
    :class:`~repro.gdatalog.checker.ProgramAnalysis` supply its memoised
    component partition instead of re-deriving it here; it must be the
    partition :func:`decompose` yields for this grounder's translated
    program, database and *config*.  With a *cache*, the components it
    holds under the same *program_digest* (the analysis's), grounder
    family and *config* are not chased again, and the others are chased
    and stored in it.
    """
    config = config or ChaseConfig()
    if decomposition is None:
        decomposition = decompose(grounder.translated, grounder.database, config)
    if decomposition is None:
        return None
    components = decomposition.components
    if cache is None:
        parts = explore_component_spaces(grounder, components, config, workers=workers)
        return ProductSpace(parts, grounder.translated)
    family = grounder_name(grounder)
    keys = [_component_key(program_digest, c, family, config) for c in components]
    parts = [cache.get(key) for key in keys]
    missing = [index for index, part in enumerate(parts) if part is None]
    chased = explore_component_spaces(
        grounder, [components[index] for index in missing], config, workers=workers
    )
    for index, part in zip(missing, chased):
        parts[index] = part
        cache.put(keys[index], part)
    return ProductSpace(parts, grounder.translated)
