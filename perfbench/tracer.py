"""In-memory spans around the calls the benchmark's operations make into each layer.

:meth:`Tracer.install` wraps public functions of the layers (module
functions, methods and cached properties) with span recorders, once per
process; untraced runs are separate processes that never install them.
A target that does not exist is listed in :attr:`Tracer.unwrapped`, and a
counter source that does not exist in the *missing* set the counter
readers are given; the run reports both, so a layer metric that reads 0
because its entry point moved is told apart from a layer that was never
entered.

A span records name, start, end, parent span and operation id.  A layer's
self time is its spans' duration minus the time covered by their child
spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

#: ``(module, attribute path, layer)``: the layer entry points that are wrapped.
TARGETS = (
    ("repro.server.protocol", "answer", "op"),
    ("repro.runtime.service", "check_source", "check"),
    ("repro.gdatalog.engine", "translate_program", "translate"),
    ("repro.gdatalog.engine", "make_grounder", "ground"),
    ("repro.gdatalog.grounders", "Grounder.initial_state", "ground"),
    ("repro.gdatalog.grounders", "Grounder.extend_state", "ground"),
    ("repro.gdatalog.grounders", "Grounder.pending_triggers_from_state", "ground"),
    ("repro.gdatalog.grounders", "SimpleGrounder.extend_state", "ground"),
    ("repro.gdatalog.grounders", "SimpleGrounder.delta_root_state", "ground"),
    ("repro.gdatalog.chase", "ChaseEngine.run", "chase"),
    ("repro.gdatalog.chase", "ChaseEngine.sample_path", "sample"),
    ("repro.gdatalog.outcomes", "PossibleOutcome.stable_models", "solve"),
    ("repro.gdatalog.outcomes", "PossibleOutcome.has_stable_model", "solve"),
    ("repro.runtime.batch", "QueryBatch.evaluate", "scan"),
    ("repro.runtime.service", "maintain_engine", "maintain"),
    ("repro.runtime.adaptive", "AdaptiveSampler.estimate", "sample"),
    ("repro.server.journal", "StreamJournal.record_open", "journal"),
    ("repro.server.journal", "StreamJournal.record_delta", "journal"),
)


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, op id]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        #: Per-layer extras read off the wrapped calls (outcomes, modes, ...).
        self.counts: Counter = Counter()
        #: ``module:attribute`` of every target :meth:`install` could not find.
        self.unwrapped: list[str] = []

    # -- recording -------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if self.op_id is not None:
            self._observe(name, fn, args, result)
        return result

    def _observe(self, name: str, fn, args, result) -> None:
        function = getattr(fn, "__name__", "")
        if name == "sample" and function == "sample_path":
            self.counts["sample.samples"] += 1
        elif name == "scan" and len(args) > 1:
            try:
                self.counts["scan.outcomes"] += len(args[1])
            except TypeError:
                pass
        elif name == "chase" and function == "run":
            self.counts["chase.outcomes"] += len(getattr(result, "outcomes", ()))
            stats = getattr(result, "stats", None)
            self.counts["chase.nodes"] += getattr(stats, "nodes_visited", 0) or 0
        elif name == "maintain" and isinstance(result, tuple) and len(result) == 3:
            report = result[2]
            self.counts[f"maintain.{getattr(report, 'mode', 'unknown')}"] += 1
            self.counts["maintain.reused"] += getattr(report, "reused_subtrees", 0)
            self.counts["maintain.invalidated"] += getattr(report, "invalidated_subtrees", 0)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; list the others in ``unwrapped``."""
        for module_name, path, layer in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                owner = None
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.unwrapped.append(f"{module_name}:{path}")
                continue
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._wrap(layer, original.func))
                replacement.__set_name__(owner, attr)
            else:
                replacement = self._wrap(layer, original)
            setattr(owner, attr, replacement)


def self_times(spans: list, op_ids) -> tuple[dict[str, float], Counter]:
    """Self seconds and span counts per layer over the given operations."""
    children: dict[int, float] = defaultdict(float)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent] += end - start
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, _parent, op_id) in enumerate(spans):
        if op_id in op_ids:
            seconds[name] += (end - start) - children[index]
            calls[name] += 1
    return dict(seconds), calls


def solver_counters(missing: set[str]) -> tuple[int, int]:
    """(hits, misses) of the process-wide solver memo; zeros, named in
    *missing*, when it does not exist."""
    try:
        from repro.stable.solver import solver_cache_stats
    except ImportError:
        missing.add("repro.stable.solver:solver_cache_stats")
        return 0, 0
    stats = solver_cache_stats()
    for key in ("hits", "misses"):
        if key not in stats:
            missing.add(f"repro.stable.solver:solver_cache_stats()[{key!r}]")
    return int(stats.get("hits", 0)), int(stats.get("misses", 0))


#: Join-engine counter per metric: the ``join_stats()`` attribute it reads.
JOIN_COUNTERS = {
    "join.index_probes": "index_probes",
    "join.full_scans": "full_scans",
    "columnar.batches": "batches_executed",
    "columnar.cow_copies": "snapshot_copies",
}


def join_counters(missing: set[str]) -> dict[str, int]:
    """Process-wide join-engine counters; zeros, named in *missing*, for the
    ones that do not exist."""
    try:
        from repro.logic.join import join_stats
        stats = join_stats()
    except ImportError:
        missing.add("repro.logic.join:join_stats")
        stats = None
    values = {}
    for metric, attribute in JOIN_COUNTERS.items():
        if stats is not None and not hasattr(stats, attribute):
            missing.add(f"repro.logic.join:join_stats().{attribute}")
        values[metric] = int(getattr(stats, attribute, 0))
    return values
