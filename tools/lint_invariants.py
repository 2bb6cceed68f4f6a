#!/usr/bin/env python3
"""AST lint for repository-wide invariants the type checker cannot see.

Four rules, each protecting a property other layers rely on:

* **R1 — randomness/time funnels through** :mod:`repro.rng`.
  ``import random`` / ``from random import ...`` (outside ``TYPE_CHECKING``
  blocks), ``time.time()`` calls and any use of ``numpy.random`` are only
  allowed in ``src/repro/rng.py``.  Seeded runs are bit-reproducible only
  while every stream is built by :func:`repro.rng.seeded_random` /
  :func:`repro.rng.default_rng`; ``time.perf_counter`` (interval timing)
  stays allowed everywhere.

* **R2 — no bare ``ValueError``/``KeyError`` on user-input paths.**
  ``raise ValueError(...)`` / ``raise KeyError(...)`` inside
  ``repro.logic``, ``repro.ppdl`` and ``repro.gdatalog`` must be a typed
  :mod:`repro.exceptions` error instead (``ValidationError`` subclasses
  ``ValueError``, so callers keep working).  Mapping-protocol methods
  (``__getitem__`` / ``__missing__``) are exempt: the protocol *requires*
  ``KeyError`` there.

* **R3 — shared counters mutate only through their locked owners.**
  Assignments/augmented assignments to attributes of ``JOIN_STATS`` or of
  any ``*.stats`` object are only allowed in ``src/repro/logic/join.py``
  and ``src/repro/runtime/service.py`` (whose ``bump``/``snapshot`` methods
  hold the lock).  A drive-by ``service.stats.hits += 1`` elsewhere races.

* **R4 — no silently swallowed exceptions in the server layer.**
  Inside ``src/repro/server/`` a bare ``except:`` is forbidden, and so is
  ``except Exception:`` / ``except BaseException:`` whose body is only
  ``pass``/``...``.  The durability contract (journal-before-ack, typed
  retryable errors) only holds if failures *surface*; a swallowed
  exception turns a crash-safe path into silent data loss.  Handlers that
  log, re-raise, count, or return an error response are fine — the rule
  targets the empty-body pattern specifically.

Exit code 0 when clean, 1 with one ``file:line: RULE message`` per finding.
Run from the repository root (CI does); no third-party dependencies.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Files allowed to import/construct stdlib or NumPy randomness directly.
RNG_ALLOWED = {SRC_ROOT / "rng.py"}

#: Packages where bare ValueError/KeyError raises are forbidden (user-input
#: and evaluation paths; the runtime/server layers wrap these).
TYPED_RAISE_PACKAGES = ("logic", "ppdl", "gdatalog")

#: Files that own the locked shared-counter objects.
COUNTER_OWNERS = {
    SRC_ROOT / "logic" / "join.py",
    SRC_ROOT / "runtime" / "service.py",
}

#: Methods where the Mapping protocol mandates KeyError.
KEYERROR_PROTOCOL_METHODS = {"__getitem__", "__missing__", "__delitem__"}

#: Counter attributes of the *shared* (cross-thread) stats objects.  Per-run
#: ChaseStats counters (nodes_visited, leaves, ...) are single-owner and
#: deliberately not listed.
SHARED_COUNTERS = {
    # ServiceStats (repro/runtime/service.py)
    "hits",
    "misses",
    "evictions",
    "component_hits",
    "component_misses",
    "slice_hits",
    "slice_misses",
    "updates_applied",
    "subtrees_invalidated",
    "subtrees_reused",
    # JoinStats (repro/logic/join.py, process-wide JOIN_STATS)
    "index_probes",
    "full_scans",
    "indexes_built",
    "plans_compiled",
    "plans_reused",
}


def _type_checking_ranges(tree: ast.Module) -> list[tuple[int, int]]:
    """Line ranges of ``if TYPE_CHECKING:`` blocks (type-only imports are fine)."""
    ranges = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            test = node.test
            is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
                isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
            )
            if is_tc:
                ranges.append((node.lineno, max(n.end_lineno or n.lineno for n in node.body)))
    return ranges


def _in_ranges(line: int, ranges: list[tuple[int, int]]) -> bool:
    return any(start <= line <= end for start, end in ranges)


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Map each line to the name of its innermost enclosing function."""
    owner: dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for line in range(node.lineno, (node.end_lineno or node.lineno) + 1):
                owner[line] = node.name  # later (inner) defs overwrite outer ones
    return owner


def _check_rng(path: Path, tree: ast.Module, findings: list[str]) -> None:
    if path in RNG_ALLOWED:
        return
    tc_ranges = _type_checking_ranges(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random" and not _in_ranges(node.lineno, tc_ranges):
                    findings.append(
                        f"{path}:{node.lineno}: R1 import random outside repro/rng.py "
                        "(use repro.rng.seeded_random)"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "random":
                if not _in_ranges(node.lineno, tc_ranges):
                    findings.append(
                        f"{path}:{node.lineno}: R1 from random import ... outside repro/rng.py "
                        "(use repro.rng.seeded_random)"
                    )
        elif isinstance(node, ast.Attribute):
            # numpy.random / np.random in any expression position.
            if node.attr == "random" and isinstance(node.value, ast.Name):
                if node.value.id in ("numpy", "np", "_np"):
                    findings.append(
                        f"{path}:{node.lineno}: R1 numpy.random outside repro/rng.py "
                        "(use repro.rng.default_rng)"
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                findings.append(
                    f"{path}:{node.lineno}: R1 time.time() call "
                    "(use time.perf_counter for intervals; wall-clock reads "
                    "belong behind an injectable seam)"
                )


def _check_typed_raises(path: Path, tree: ast.Module, findings: list[str]) -> None:
    try:
        relative = path.relative_to(SRC_ROOT)
    except ValueError:
        return  # out-of-tree file (explicit path argument): R2 does not apply
    if relative.parts[0] not in TYPED_RAISE_PACKAGES:
        return
    owners = _enclosing_functions(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name not in ("ValueError", "KeyError"):
            continue
        if name == "KeyError" and owners.get(node.lineno) in KEYERROR_PROTOCOL_METHODS:
            continue  # the Mapping protocol requires KeyError here
        findings.append(
            f"{path}:{node.lineno}: R2 bare raise {name} on a library path "
            "(raise a repro.exceptions type; ValidationError subclasses ValueError)"
        )


def _check_counter_mutations(path: Path, tree: ast.Module, findings: list[str]) -> None:
    if path in COUNTER_OWNERS:
        return

    def is_shared_counter(target: ast.expr) -> bool:
        if not isinstance(target, ast.Attribute) or target.attr not in SHARED_COUNTERS:
            return False
        base = target.value
        if isinstance(base, ast.Name) and base.id == "JOIN_STATS":
            return True
        # service.stats.hits / self.stats.misses / stats.evictions — only
        # counters that exist on the shared objects (SHARED_COUNTERS) count.
        return (isinstance(base, ast.Attribute) and base.attr == "stats") or (
            isinstance(base, ast.Name) and base.id == "stats"
        )

    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        for target in targets:
            if is_shared_counter(target):
                findings.append(
                    f"{path}:{node.lineno}: R3 direct mutation of a shared stats "
                    "counter (use the owner's locked bump()/snapshot() methods)"
                )


def _check_swallowed_exceptions(path: Path, tree: ast.Module, findings: list[str]) -> None:
    try:
        relative = path.relative_to(SRC_ROOT)
    except ValueError:
        return
    if relative.parts[0] != "server":
        return

    def names_blanket(handler: ast.ExceptHandler) -> str | None:
        """The blanket exception name this handler catches, if any."""
        if handler.type is None:
            return "bare except"
        node = handler.type
        if isinstance(node, ast.Name) and node.id in ("Exception", "BaseException"):
            return f"except {node.id}"
        return None

    def body_is_empty(handler: ast.ExceptHandler) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in handler.body
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        blanket = names_blanket(node)
        if blanket == "bare except":
            findings.append(
                f"{path}:{node.lineno}: R4 bare except in the server layer "
                "(name the exception types; failures must surface, not vanish)"
            )
        elif blanket is not None and body_is_empty(node):
            findings.append(
                f"{path}:{node.lineno}: R4 {blanket}: pass swallows every failure "
                "(log it, count it, or answer a typed retryable error)"
            )


def lint_file(path: Path) -> list[str]:
    findings: list[str] = []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    _check_rng(path, tree, findings)
    _check_typed_raises(path, tree, findings)
    _check_counter_mutations(path, tree, findings)
    _check_swallowed_exceptions(path, tree, findings)
    return findings


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv[1:]] or [SRC_ROOT]
    findings: list[str] = []
    checked = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            findings.extend(lint_file(path.resolve()))
            checked += 1
    for finding in findings:
        print(finding)
    print(
        f"lint_invariants: {checked} file(s) checked, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
