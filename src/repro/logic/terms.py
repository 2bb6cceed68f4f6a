"""Terms of the logical language: constants and variables.

The paper assumes two disjoint countably infinite sets ``C`` (constants) and
``V`` (variables), and further assumes that constants are translatable into
real numbers.  We keep constants as Python values (``int``, ``float``,
``bool`` or ``str``) and expose :meth:`Constant.as_number` for the numeric
view required by parameterized distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.exceptions import ValidationError

__all__ = ["Constant", "Variable", "Term", "make_term", "is_ground_term"]

#: Python types admissible as constant payloads.
ConstantValue = Union[int, float, bool, str]


@dataclass(frozen=True, order=False)
class Constant:
    """An element of the constant domain ``C``.

    Constants are value objects: two constants are equal iff their payloads
    are equal (``Constant(1) != Constant("1")`` because the payload types
    differ, matching the unique-name assumption of the paper).
    """

    value: ConstantValue

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float, bool, str)):
            raise ValidationError(
                f"constant payload must be int, float, bool or str, got {type(self.value).__name__}"
            )

    @property
    def is_numeric(self) -> bool:
        """Whether the constant already is a number (bools count as 0/1)."""
        return isinstance(self.value, (int, float, bool))

    def as_number(self) -> float:
        """Translate the constant into a real number.

        The paper assumes all constants are translatable into reals; for
        string constants we raise unless the string itself parses as a
        number.
        """
        if isinstance(self.value, bool):
            return 1.0 if self.value else 0.0
        if isinstance(self.value, (int, float)):
            return float(self.value)
        try:
            return float(self.value)
        except ValueError as exc:
            raise ValidationError(f"constant {self.value!r} is not translatable to a number") from exc

    def sort_key(self) -> tuple[int, int | float | str]:
        """A cheap, total ordering key (numbers before strings).

        Used to canonicalize ground programs without the cost of ``str``-ing
        every term; consistent with equality in both directions: equal
        constants share a key (``1 == 1.0 == True``) and distinct constants
        get distinct keys (the payload is kept as-is — coercing ints to
        float would collide integers beyond 2**53).
        """
        if isinstance(self.value, bool):
            return (0, int(self.value))
        if isinstance(self.value, (int, float)):
            return (0, self.value)
        return (1, self.value)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            # Bare only where the parser reads an identifier constant back.
            if self.value.isascii() and self.value.isidentifier() and self.value[0].islower():
                return self.value
            return f'"{self.value}"'
        if isinstance(self.value, bool):
            return "1" if self.value else "0"
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constant({self.value!r})"

    def __hash__(self) -> int:
        # Distinguish 1 / 1.0 / True only through equality of payloads, the
        # default dataclass hash over the payload is what we want, but we
        # include the type name so that Constant("1") and Constant(1) land
        # in different buckets more often than not.
        return hash(("Constant", self.value))


@dataclass(frozen=True, order=False)
class Variable:
    """An element of the variable set ``V``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError("variable name must be a non-empty string")

    def sort_key(self) -> tuple[int, str]:
        """Ordering key; variables sort after every constant (tag 2)."""
        return (2, self.name)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r})"

    def __hash__(self) -> int:
        return hash(("Variable", self.name))


#: A term is either a constant or a variable.  Δ-terms are defined separately
#: in :mod:`repro.gdatalog.delta_terms` and are only allowed in rule heads.
Term = Union[Constant, Variable]


def make_term(value: object) -> Term:
    """Coerce a Python value into a :class:`Term`.

    Strings that start with an uppercase letter or an underscore are treated
    as variables (Prolog convention), everything else becomes a constant.
    Existing :class:`Constant`/:class:`Variable` instances pass through.
    """
    if isinstance(value, (Constant, Variable)):
        return value
    if isinstance(value, str) and value and (value[0].isupper() or value[0] == "_"):
        return Variable(value)
    if isinstance(value, (int, float, bool, str)):
        return Constant(value)
    raise ValidationError(f"cannot interpret {value!r} as a term")


def is_ground_term(term: Term) -> bool:
    """Whether *term* is a constant."""
    return isinstance(term, Constant)
