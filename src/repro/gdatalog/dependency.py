"""Dependency-graph utilities for GDatalog¬ programs (Figure 1 of the paper).

The core dependency analysis (edges, SCCs, stratification) lives on
:class:`repro.logic.program.DependencyGraph`; this module adds exports to
``networkx`` and to Graphviz DOT / ASCII renderings used by the examples and
the Figure-1 benchmark, plus the *ground* dependency analysis used by the
factorized-inference decomposition (:mod:`repro.gdatalog.factorize`):
connected components of the co-occurrence graph over ground atoms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.gdatalog.syntax import GDatalogProgram
from repro.logic.atoms import Atom
from repro.logic.program import DependencyGraph
from repro.logic.rules import Rule

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "to_networkx",
    "to_dot",
    "format_dependency_graph",
    "format_stratification",
    "ground_atom_components",
]


def ground_atom_components(
    rules: Iterable[Rule],
    links: Iterable[tuple[Atom, Atom]] = (),
    extra_atoms: Iterable[Atom] = (),
) -> list[frozenset[Atom]]:
    """Connected components of the ground-atom co-occurrence graph.

    Two atoms are connected when they occur in the same ground rule — head,
    positive or negative body; sharing a rule couples the atoms in every
    stable-model computation — or through an explicit *links* edge (the
    factorizer links each Active atom to its Result atoms, mirroring the AtR
    TGDs).  Constraints contribute only their body atoms: their ``⊥`` head is
    shared by every constraint and must not glue unrelated components
    together.  *extra_atoms* seeds isolated vertices (e.g. database facts
    never matched by any rule).  Components are returned sorted by their
    smallest atom, so the partition is deterministic.
    """
    parent: dict[Atom, Atom] = {}

    def find(atom: Atom) -> Atom:
        root = atom
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[atom] != root:  # path compression
            parent[atom], atom = root, parent[atom]
        return root

    def union(first: Atom, second: Atom) -> None:
        root_first, root_second = find(first), find(second)
        if root_first != root_second:
            parent[root_second] = root_first

    for rule_ in rules:
        atoms = list(rule_.positive_body) + list(rule_.negative_body)
        if not rule_.is_constraint:
            atoms.append(rule_.head)
        for atom_ in atoms[1:]:
            union(atoms[0], atom_)
        if len(atoms) == 1:
            find(atoms[0])
    for source, target in links:
        union(source, target)
    for atom_ in extra_atoms:
        find(atom_)

    grouped: dict[Atom, set[Atom]] = {}
    for atom_ in parent:
        grouped.setdefault(find(atom_), set()).add(atom_)
    components = [frozenset(members) for members in grouped.values()]
    components.sort(key=lambda component: min(a.sort_key() for a in component))
    return components


def to_networkx(program: GDatalogProgram) -> nx.MultiDiGraph:
    """Export ``dg(Π)`` as a ``networkx`` multigraph with a ``negative`` edge attribute.

    networkx is imported here, not at module level, so the CLI and the
    engine start without it.
    """
    import networkx as nx

    graph: DependencyGraph = program.dependency_graph()
    result = nx.MultiDiGraph()
    for predicate in sorted(graph.vertices, key=str):
        result.add_node(predicate.name, arity=predicate.arity)
    for source, target in sorted(graph.positive_edges, key=lambda e: (str(e[0]), str(e[1]))):
        result.add_edge(source.name, target.name, negative=False)
    for source, target in sorted(graph.negative_edges, key=lambda e: (str(e[0]), str(e[1]))):
        result.add_edge(source.name, target.name, negative=True)
    return result


def to_dot(program: GDatalogProgram, name: str = "dependency_graph") -> str:
    """Render ``dg(Π)`` in Graphviz DOT syntax (negative edges dashed, as in Figure 1)."""
    graph = program.dependency_graph()
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for predicate in sorted(graph.vertices, key=str):
        lines.append(f'  "{predicate.name}";')
    for source, target in sorted(graph.positive_edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f'  "{source.name}" -> "{target.name}";')
    for source, target in sorted(graph.negative_edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f'  "{source.name}" -> "{target.name}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines)


def format_dependency_graph(program: GDatalogProgram) -> str:
    """An ASCII listing of the edges of ``dg(Π)`` (negative edges marked ``[neg]``)."""
    graph = program.dependency_graph()
    lines = []
    for source, target in sorted(graph.positive_edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f"{source.name} -> {target.name}")
    for source, target in sorted(graph.negative_edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f"{source.name} -> {target.name} [neg]")
    return "\n".join(lines)


def format_stratification(program: GDatalogProgram) -> str:
    """A one-line-per-stratum rendering of a topological ordering over ``scc(Π)``."""
    lines = []
    for i, component in enumerate(program.stratification(), start=1):
        names = ", ".join(sorted(p.name for p in component))
        lines.append(f"C{i}: {{{names}}}")
    return "\n".join(lines)
