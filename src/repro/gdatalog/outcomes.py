"""Possible outcomes of a GDatalog¬[Δ] program on a database (Definition 3.7).

A possible outcome relative to a grounder ``G`` is a ground program
``Σ ∪ G(Σ)`` where ``Σ`` is a minimal terminal AtR set whose Result atoms
all have positive probability.  A :class:`PossibleOutcome` bundles

* the AtR rules ``Σ`` (the probabilistic choices),
* the grounding ``G(Σ)``,
* the probability ``Pr(Σ) = ∏ δ⟨p̄⟩(o)`` over the Result atoms, and
* lazily computed stable models of the induced ground program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from repro.distributions.registry import DistributionRegistry
from repro.gdatalog.atr import GroundAtRRule
from repro.gdatalog.translate import TranslatedProgram
from repro.logic.atoms import Atom
from repro.logic.rules import Rule
from repro.stable.grounding import GroundProgram
from repro.stable.solver import SolverConfig, StableModelSolver, shared_solver

__all__ = ["PossibleOutcome", "outcome_probability"]


def outcome_probability(atr_rules: Iterable[GroundAtRRule], registry: DistributionRegistry) -> float:
    """``Pr(Σ)``: the product of ``δ⟨p̄⟩(o)`` over the AtR rules of ``Σ``."""
    probability = 1.0
    for rule_ in atr_rules:
        probability *= rule_.probability(registry)
    return probability


@dataclass(frozen=True)
class PossibleOutcome:
    """A finite possible outcome ``Σ ∪ G(Σ)`` together with its probability."""

    atr_rules: frozenset[GroundAtRRule]
    grounding: frozenset[Rule]
    probability: float
    translated: TranslatedProgram = field(compare=False, hash=False, repr=False)

    # -- program views --------------------------------------------------------

    @cached_property
    def choice_key(self) -> tuple:
        """A cheap structural identity key for the probabilistic choices ``Σ``.

        The chase uses it to order outcomes canonically (the AtR set
        determines the outcome), replacing per-comparison stringification.
        """
        return tuple(sorted(r.sort_key() for r in self.atr_rules))

    @cached_property
    def full_rules(self) -> tuple[Rule, ...]:
        """The ground program ``Σ ∪ G(Σ)`` with AtR TGDs read as plain rules.

        In no specified order: the stable models, the solver's memo key and
        every consumer are independent of it.
        """
        return tuple(self.grounding) + tuple(r.as_rule() for r in self.atr_rules)

    def ground_program(self) -> GroundProgram:
        return GroundProgram(self.full_rules)

    def with_probability(self, probability: float) -> "PossibleOutcome":
        """A copy with rescaled probability that keeps the lazily computed views.

        Conditioning re-weights outcomes without changing their ground
        program, so the clone inherits any already-solved stable models and
        cached keys instead of recomputing them.
        """
        clone = PossibleOutcome(self.atr_rules, self.grounding, probability, self.translated)
        for attribute in ("choice_key", "full_rules", "stable_models", "has_stable_model"):
            if attribute in self.__dict__:
                clone.__dict__[attribute] = self.__dict__[attribute]
        return clone

    def result_atoms(self) -> frozenset[Atom]:
        """The Result atoms fixed by the probabilistic choices."""
        return frozenset(r.result_atom for r in self.atr_rules)

    def head_atoms(self) -> frozenset[Atom]:
        """``heads(Σ ∪ G(Σ))``."""
        return frozenset(r.head for r in self.full_rules if not r.is_constraint)

    # -- stable-model views ------------------------------------------------------

    @cached_property
    def stable_models(self) -> frozenset[frozenset[Atom]]:
        """``sms(Σ ∪ G(Σ))``: the (possibly empty) set of stable models of the outcome.

        Solved through the process-wide memoized solver: outcomes with the
        same ground rule set (e.g. the same configuration re-sampled by the
        Monte-Carlo sampler) are solved once.
        """
        return frozenset(shared_solver().enumerate(self.ground_program()))

    @cached_property
    def has_stable_model(self) -> bool:
        """Whether the outcome admits a stable model.

        Answers from the already-materialized :attr:`stable_models` when
        available; otherwise routes through the solver's existence check.
        A decided outcome (negation-free, or settled by its well-founded
        model) is solved outright and its model memoized for a later
        :attr:`stable_models`; a branching one stops at the first model
        instead of eagerly enumerating all of them (existence-only
        consumers — the sampler, ``P(has stable model)`` — never pay for a
        full enumeration).  Cached per outcome, so repeated event
        evaluations cost one attribute lookup.
        """
        if "stable_models" in self.__dict__:
            return bool(self.stable_models)
        return shared_solver().has_stable_model(self.ground_program())

    def stable_models_modulo(self, hide_active: bool = True, hide_result: bool = False) -> frozenset[frozenset[Atom]]:
        """Stable models with Active (and optionally Result) atoms projected away."""
        active_names = {p.name for p in self.translated.active_predicates}
        result_names = {p.name for p in self.translated.result_predicates}
        banned = set()
        if hide_active:
            banned |= active_names
        if hide_result:
            banned |= result_names
        projected = set()
        for model in self.stable_models:
            projected.add(frozenset(a for a in model if a.predicate.name not in banned))
        return frozenset(projected)

    def visible_stable_models(self) -> frozenset[frozenset[Atom]]:
        """Stable models over the program's original schema (Active/Result hidden)."""
        return self.stable_models_modulo(hide_active=True, hide_result=True)

    # -- dunder --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.full_rules)

    def __str__(self) -> str:
        choices = ", ".join(sorted(f"{r.active_atom}={r.outcome}" for r in self.atr_rules))
        return f"PossibleOutcome(p={self.probability:.6g}, choices=[{choices}])"
