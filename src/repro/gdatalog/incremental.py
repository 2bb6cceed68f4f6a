"""Incremental view maintenance of chased output spaces under fact deltas.

Given an engine whose output space (flat or factorized) has already been
built, :func:`maintain_engine` builds the engine of the **post-delta**
database while reusing as much chase structure as the change allows; the
maintained space becomes the new engine's own, exactly as if its
:meth:`~repro.gdatalog.engine.GDatalogEngine.output_space` had built it.  Three
modes, picked per delta:

``patch``
    The delta's *affected cone* — the forward closure of the changed
    predicates over ``dg(Π)`` (:func:`~repro.gdatalog.relevance.forward_reachable`)
    — is disjoint from the *choice cone* (the forward closure of the
    generative rule heads).  Then the delta can only change the
    choice-independent part of every outcome's grounding, and it changes it
    the **same way in every outcome**: the new root grounding ``G'(∅)`` is
    derived DRed-style from the old one
    (:meth:`~repro.gdatalog.grounders.SimpleGrounder.delta_root_state`), and
    every chase leaf is patched as ``G'(Σ) = (G(Σ) − removed) ∪ added``
    where ``removed``/``added`` are the root-level diffs.  The AtR sets,
    trigger order and path probabilities are untouched, so the patched
    space is bit-identical to a from-scratch chase — at the cost of one
    root delta instead of ``|Ω|`` full groundings.  For the same reason the
    pre-delta engine's :class:`~repro.gdatalog.chase.ChaseRecord` carries
    over, re-pointed at the patched outcomes; the other modes drop it.

    Soundness of the leaf patch: an instance of ``G(Σ)`` either derives
    without choices (it is in ``G(∅)``, and the root diff covers it) or its
    derivation touches a choice-derived atom, which puts its head predicate
    in the choice cone — disjoint from the affected cone, hence identical
    across the update.  Mixed derivations (a rule body joining an affected
    atom with a choice atom) would put the head in **both** cones, which the
    eligibility check excludes; constraint instances have no head, so
    constraints whose positive body mixes the two cones are excluded
    explicitly.  Gated to the simple grounder: the perfect grounder prunes
    by negation against stratum-order head sets, which a root-level diff
    does not commute with.

``component``
    The engine is factorized (``ChaseConfig.factorize``) and the post-delta
    program still decomposes.  Components whose identity (atoms, facts) is
    unchanged keep their already-chased
    :class:`~repro.gdatalog.factorize.ComponentSpace`; only components the
    delta touched (or newly created by merging/splitting) are re-chased.
    Exact versus a fresh factorized engine because a component's space is a
    deterministic function of its facts and the chase configuration.

``rebuild``
    Everything else (choice-cone deltas under a flat configuration, perfect
    grounder retractions, engines that have not built their space yet).  The
    new engine is returned cold and chases lazily — always correct, never
    reused.

A flat configuration with an affected choice cone is deliberately **not**
patched by re-chasing subtrees into a shared structure: outcome
probabilities are products in path order, and splicing subtrees chased in a
different trigger order would change float rounding — breaking the
bit-identity contract that every maintained space obeys.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.gdatalog.engine import GDatalogEngine
from repro.gdatalog.factorize import (
    ComponentSpace,
    ProductSpace,
    explore_component_spaces,
)
from repro.gdatalog.outcomes import PossibleOutcome
from repro.gdatalog.probability_space import AbstractSpace, OutputSpace
from repro.gdatalog.relevance import forward_reachable
from repro.gdatalog.syntax import GDatalogProgram
from repro.logic.deltas import DbDelta

__all__ = ["UpdateReport", "maintain_engine", "patch_eligible"]


@dataclass(frozen=True)
class UpdateReport:
    """What one delta update did: mode, effective size, and chase reuse.

    ``reused_subtrees``/``invalidated_subtrees`` count chase outcomes in
    ``patch`` mode and components in ``component`` mode; a ``rebuild``
    reuses nothing.  ``reuse_ratio`` is the share of subtrees kept.
    """

    mode: str
    inserted: int
    retracted: int
    invalidated_subtrees: int
    reused_subtrees: int

    @property
    def reuse_ratio(self) -> float:
        total = self.invalidated_subtrees + self.reused_subtrees
        return self.reused_subtrees / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "inserted": self.inserted,
            "retracted": self.retracted,
            "invalidated_subtrees": self.invalidated_subtrees,
            "reused_subtrees": self.reused_subtrees,
            "reuse_ratio": self.reuse_ratio,
        }


def patch_eligible(program: GDatalogProgram, delta_predicates, choice_cone=None) -> bool:
    """Whether a delta over *delta_predicates* admits the ``patch`` mode.

    Requires the affected cone (forward closure of the changed predicates)
    to be disjoint from the choice cone (forward closure of the generative
    rule heads), and no constraint whose positive body joins the two cones.
    Both conditions are judged on the source program; the ``Σ_Π``
    translation only interposes Active/Result predicates *inside* source
    edges, so source-level cones are exact.  *choice_cone* lets callers
    holding a precomputed :class:`~repro.gdatalog.checker.ProgramAnalysis`
    pass its cached cone instead of re-deriving it per update.
    """
    graph = program.predicate_graph()
    if choice_cone is None:
        generative_heads = {
            r.head.predicate for r in program.rules if not r.is_constraint and r.is_generative
        }
        if not generative_heads:
            return True
        choice_cone = graph.forward_closure(generative_heads)
    elif not choice_cone:
        return True
    affected = graph.forward_closure(delta_predicates)
    if affected & choice_cone:
        return False
    for rule_ in program.rules:
        if rule_.is_constraint:
            body = {a.predicate for a in rule_.positive_body}
            if body & affected and body & choice_cone:
                return False
    return True


def _report(mode: str, delta: DbDelta, invalidated: int = 0, reused: int = 0) -> UpdateReport:
    return UpdateReport(
        mode=mode,
        inserted=len(delta.inserts),
        retracted=len(delta.retracts),
        invalidated_subtrees=invalidated,
        reused_subtrees=reused,
    )


def _patch_flat(
    engine: GDatalogEngine,
    new_engine: GDatalogEngine,
    delta: DbDelta,
    base_space: OutputSpace,
) -> OutputSpace:
    """Patch every chase leaf with the root-level grounding diff."""
    old_root = engine.grounder.initial_state()
    new_root = new_engine.grounder.delta_root_state(old_root, delta.inserts, delta.retracts)
    new_engine.grounder.seed_initial_state(new_root)
    removed = old_root.grounding() - new_root.grounding()
    added = new_root.grounding() - old_root.grounding()

    translated = new_engine.translated
    outcomes = []
    for outcome in base_space.outcomes:
        patched = PossibleOutcome(
            outcome.atr_rules,
            (outcome.grounding - removed) | added,
            outcome.probability,
            translated,
        )
        if "choice_key" in outcome.__dict__:
            patched.__dict__["choice_key"] = outcome.__dict__["choice_key"]
        outcomes.append(patched)
    return OutputSpace(outcomes, error_probability=base_space.error_probability)


def maintain_engine(
    engine: GDatalogEngine, delta: DbDelta | Mapping
) -> tuple[GDatalogEngine, AbstractSpace | None, UpdateReport]:
    """The engine of the post-delta database, reusing *engine*'s chase work.

    Reuses the space *engine* has built (:meth:`GDatalogEngine.output_space`),
    after waiting for a build in flight.  Returns the new engine, the
    maintained space — which the new engine also holds as its own — or
    ``None`` when the new engine must chase lazily, and the
    :class:`UpdateReport`.  The new engine shares *engine*'s component
    cache.  The original engine is never mutated — its space stays valid
    for the pre-delta state.
    """
    if not isinstance(delta, DbDelta):
        delta = DbDelta.from_spec(delta)
    if engine.query_slice is not None:
        raise ValidationError(
            "cannot delta-update a query-sliced engine; update the base engine "
            "(slices are rebuilt from it on demand)"
        )
    if engine._grounder_name is None:
        raise ValidationError(
            "cannot delta-update an engine with a custom grounder instance; "
            "the post-delta grounder family cannot be rebuilt"
        )
    with engine._lock:
        base_space, base_record = engine._space, engine._record

    effective = delta.effective(engine.database)
    if effective.is_empty:
        return engine, base_space, _report("noop", effective)

    new_engine = GDatalogEngine(
        engine.program,
        effective.apply(engine.database),
        grounder=engine._grounder_name,
        chase_config=engine.chase_config,
        # The rule set is unchanged, so the pre-delta engine's static
        # analysis (choice cone, permanent seeds) carries over verbatim.
        analysis=engine.analysis,
        component_cache=engine.component_cache,
    )
    config = engine.chase_config

    if config.factorize:
        decomposition = new_engine.analysis.decomposition(
            new_engine.translated, new_engine.database, config
        )
        if decomposition is not None and isinstance(base_space, ProductSpace):
            by_identity: dict = {part.component: part for part in base_space.components}
            parts: list[ComponentSpace | None] = []
            missing = []
            for index, component in enumerate(decomposition.components):
                reused_part = by_identity.get(component)
                parts.append(reused_part)
                if reused_part is None:
                    missing.append((index, component))
            fresh = explore_component_spaces(
                new_engine.grounder, [c for _, c in missing], config
            )
            for (index, _), part in zip(missing, fresh):
                parts[index] = part
            space: AbstractSpace = ProductSpace(parts, new_engine.translated)
            new_engine._adopt_space(space)
            report = _report(
                "component", effective, invalidated=len(missing), reused=len(parts) - len(missing)
            )
            return new_engine, space, report
        # A factorized config whose fresh build would fall back to the flat
        # chase (or with no product to reuse): patching the flat structure
        # is only exact when the fresh path is flat too, so only continue
        # when the post-delta program does not decompose.
        if decomposition is not None:
            return new_engine, None, _report("rebuild", effective)

    if (
        isinstance(base_space, OutputSpace)
        and engine._grounder_name == "simple"
        and engine.analysis.delta_patchable(effective.predicates())
    ):
        space = _patch_flat(engine, new_engine, effective, base_space)
        record = base_record.with_outcomes(space.outcomes) if base_record is not None else None
        new_engine._adopt_space(space, record)
        return new_engine, space, _report(
            "patch", effective, invalidated=0, reused=len(base_space.outcomes)
        )

    return new_engine, None, _report("rebuild", effective)
