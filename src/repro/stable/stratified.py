"""Perfect-model evaluation of stratified Datalog¬ programs.

A stratified program has a unique stable model — its *perfect model* —
computable in polynomial time by evaluating the strata in topological order:
within a stratum, negative literals refer only to predicates of strictly
lower strata, whose extension is already fixed.

The module offers both a non-ground evaluator (:func:`perfect_model`) and a
ground-program evaluator (:func:`perfect_model_ground`), which the test
suite cross-validates against the general solver and the well-founded model.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import StratificationError
from repro.logic.atoms import Atom, Predicate
from repro.logic.database import Database
from repro.logic.join import ArgIndex, iter_join
from repro.logic.program import DatalogProgram
from repro.logic.rules import Rule
from repro.logic.unify import FactIndex
from repro.stable.fixpoint import violated_constraints
from repro.stable.grounding import GroundProgram

__all__ = ["perfect_model", "perfect_model_ground"]


def perfect_model(program: DatalogProgram, database: Database | Iterable[Atom] = ()) -> frozenset[Atom]:
    """The perfect model of a stratified program on a database.

    Constraints are evaluated at the end; if one is violated the program has
    no stable model and a :class:`StratificationError` is *not* raised —
    instead an empty frozenset is conventionally wrong, so we raise
    ``ValueError`` to force callers to use the general solver when they need
    constraint-aware semantics.  (The generative-Datalog engine never calls
    this with constraints present.)
    """
    strata = program.stratification()
    facts = tuple(database.facts) if isinstance(database, Database) else tuple(database)
    model = ArgIndex(facts)

    for component in strata:
        stratum_rules = [r for r in program.proper_rules() if r.head.predicate in component]
        _saturate_stratum(stratum_rules, model)

    result = model.as_set()
    if violated_constraints(_instantiate_constraints(program, model), result):
        raise ValueError(
            "perfect_model called on a program whose constraints are violated; "
            "use the stable-model solver for constraint-aware reasoning"
        )
    return result


def _instantiate_constraints(program: DatalogProgram, model: ArgIndex) -> list[Rule]:
    instantiated: list[Rule] = []
    for constraint_rule in program.constraints():
        for mapping in iter_join(constraint_rule.positive_body, model):
            instantiated.append(constraint_rule.substitute(mapping))
    return instantiated


def _saturate_stratum(rules: list[Rule], model: ArgIndex) -> None:
    """Fixpoint of the rules of one stratum against the growing *model*.

    Negative literals are evaluated against the model *at application time*;
    because the program is stratified, negated predicates are never derived
    by this or any later stratum, so the evaluation is sound.
    """
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for mapping in iter_join(rule.positive_body, model):
                grounded = rule.substitute(mapping)
                if not grounded.is_ground:
                    continue
                if any(b in model for b in grounded.negative_body):
                    continue
                if model.add(grounded.head):
                    changed = True


def perfect_model_ground(program: GroundProgram) -> frozenset[Atom]:
    """The perfect model of a *ground* stratified program.

    Strata are computed on the predicate dependency graph of the ground
    rules.  Raises :class:`StratificationError` if the ground program is not
    stratified.
    """
    datalog_view = DatalogProgram(program.proper_rules)
    graph = datalog_view.dependency_graph()
    if graph.has_negative_cycle():
        raise StratificationError("ground program is not stratified")
    components = graph.strongly_connected_components()

    model: set[Atom] = set()
    handled_predicates: set[Predicate] = set()
    for component in components:
        stratum_rules = [r for r in program.proper_rules if r.head.predicate in component]
        changed = True
        while changed:
            changed = False
            for rule in stratum_rules:
                if all(b in model for b in rule.positive_body) and not any(
                    b in model for b in rule.negative_body
                ):
                    if rule.head not in model:
                        model.add(rule.head)
                        changed = True
        handled_predicates |= component

    if violated_constraints(program.constraints, model):
        raise ValueError(
            "perfect_model_ground called on a ground program whose constraints are violated"
        )
    return frozenset(model)
