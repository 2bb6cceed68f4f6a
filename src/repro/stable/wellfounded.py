"""Well-founded semantics of ground Datalog¬ programs via the alternating fixpoint.

The well-founded model assigns each atom of the Herbrand base one of three
values (true / false / unknown).  Its true atoms are true in every stable
model and its false atoms are false in every stable model, so the solver
uses it both for pruning the search and for a fast path on programs whose
well-founded model settles every negated atom.

We use Van Gelder's alternating fixpoint characterization: with
``Γ(I) = least model of the GL reduct P^I``, the sequence

    K_0 = ∅,  U_0 = Γ(K_0),  K_{i+1} = Γ(U_i),  U_{i+1} = Γ(K_{i+1})

is monotone (K increasing, U decreasing) and converges; the well-founded
model has true atoms ``K_∞`` and false atoms ``HB \\ U_∞``.

The iteration stops at its first repeat instead of confirming it with a
further round: if ``K_{i+1} = K_i`` then ``U_{i+1} = Γ(K_i) = U_i``, and if
``K_i = U_i`` then ``K_{i+1} = Γ(U_i) = Γ(K_i) = U_i``, so either equality
is the fixpoint.  When the negated atoms are defined without negation,
the well-founded model is total and takes at most three least-model
passes: ``U_0``, ``K_1`` and ``U_1 = K_1``.
"""

from __future__ import annotations

from typing import Iterable

from repro.logic.atoms import Atom
from repro.logic.rules import Rule
from repro.stable.fixpoint import least_model
from repro.stable.interpretation import PartialInterpretation
from repro.stable.reduct import gelfond_lifschitz_reduct

__all__ = ["alternating_fixpoint", "gamma_operator", "well_founded_model"]


def gamma_operator(rules: list[Rule], interpretation: frozenset[Atom] | set[Atom]) -> frozenset[Atom]:
    """``Γ(I)``: the least model of the GL reduct of the non-constraint rules w.r.t. ``I``."""
    reduct = gelfond_lifschitz_reduct((r for r in rules if not r.is_constraint), interpretation)
    return least_model(reduct)


def alternating_fixpoint(rules: Iterable[Rule]) -> tuple[frozenset[Atom], frozenset[Atom]]:
    """``(K_∞, U_∞)``: the well-founded true atoms and the atoms not well-founded false.

    Constraints do not participate.  ``K_∞ = U_∞`` exactly when the
    well-founded model is total.
    """
    rule_list = list(rules)
    lower: frozenset[Atom] = frozenset()
    upper = gamma_operator(rule_list, lower)
    while lower != upper:
        new_lower = gamma_operator(rule_list, upper)
        if new_lower == lower:
            break
        lower = new_lower
        if lower != upper:  # else Γ(lower) = Γ(upper) = lower: already the fixpoint
            upper = gamma_operator(rule_list, lower)
    return lower, upper


def well_founded_model(rules: Iterable[Rule], herbrand_base: Iterable[Atom] | None = None) -> PartialInterpretation:
    """Compute the well-founded (partial) model of a ground program.

    Constraints do not participate: they never derive atoms and the
    well-founded model is defined for the constraint-free part.  The caller
    is responsible for checking constraints against candidate stable models.
    """
    rule_list = [r for r in rules]
    base: set[Atom] = set(herbrand_base) if herbrand_base is not None else set()
    if herbrand_base is None:
        for r in rule_list:
            if not r.is_constraint:
                base.add(r.head)
            base.update(r.positive_body)
            base.update(r.negative_body)

    lower, upper = alternating_fixpoint(rule_list)
    false_atoms = {a for a in base if a not in upper}
    return PartialInterpretation(true=set(lower), false=false_atoms)
