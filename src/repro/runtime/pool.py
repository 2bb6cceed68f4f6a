"""Multi-worker exploration of the chase tree.

The exhaustive chase enumerates one subtree per probabilistic choice, and
disjoint subtrees share no state beyond the (read-only) grounder: the tree
is embarrassingly parallel below any branching frontier.
:class:`ParallelChaseExplorer` therefore

1. expands the tree breadth-first in the parent process until at least
   ``workers × oversubscribe`` open nodes exist (the *frontier*; leaves and
   truncated paths discovered on the way are banked directly),
2. farms the frontier nodes to a ``fork``-based :mod:`multiprocessing` pool
   — each worker runs the ordinary :class:`~repro.gdatalog.chase.ChaseEngine`
   on its subtree, reusing PR 1's incremental ``GroundingState`` threading,
   and (by default) also pre-solves the stable models of every leaf it
   finds, and
3. merges the partial results into one :class:`ChaseResult` /
   :class:`~repro.gdatalog.probability_space.OutputSpace` in the canonical
   ``choice_key`` order the sequential engine produces.

Under the deterministic trigger strategies (``FIRST``, the default, and
``LAST``) outcome probabilities are **bit-identical** to the sequential
run: both engines pick the same trigger at every node, so every path
multiplies the same pmf factors in the same root-to-leaf order no matter
which process walks it.  The property tests in
``tests/property/test_parallel_equivalence.py`` assert this per outcome.
Under ``TriggerStrategy.RANDOM`` the split and sequential engines consume
their RNG streams in different orders, so the (Lemma 4.4-identical) outcome
sets may carry probabilities that differ in the last ulp — equal up to
floating-point associativity, not bit-for-bit.

Usage::

    explorer = ParallelChaseExplorer(grounder, ChaseConfig(), workers=4)
    space = explorer.output_space()          # == sequential engine's space
    space.probability_has_stable_model()

On platforms without ``fork`` (or with ``workers=1``, or when the tree
never branches) the explorer transparently degrades to the sequential
engine, so callers never need a fallback path of their own.

The same pool machinery backs two further units of parallelism:

* :func:`explore_components` — whole independent components of a factorized
  program (see :mod:`repro.gdatalog.factorize`) as the split unit; and
* :class:`ParallelSampler` — Monte-Carlo sample chunks, each drawn on an
  independent ``SeedSequence.spawn`` stream so forked workers never replay
  the parent generator's state.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.exceptions import ChaseLimitError
from repro.gdatalog.chase import ChaseConfig, ChaseEngine, ChaseNode, ChaseResult, ChaseStats
from repro.gdatalog.grounders import Grounder
from repro.gdatalog.outcomes import PossibleOutcome
from repro.gdatalog.probability_space import OutputSpace
from repro.gdatalog.sampler import Estimate, MonteCarloSampler
from repro.rng import default_rng, generate_uint64, sqrt

if TYPE_CHECKING:
    from repro.rng import SeedSequence

__all__ = [
    "ParallelChaseExplorer",
    "ParallelSampler",
    "default_worker_count",
    "explore_components",
    "spawn_seed_sequences",
]


def default_worker_count() -> int:
    """The worker count used when none is requested (bounded CPU count)."""
    return max(1, min(os.cpu_count() or 1, 8))


def spawn_seed_sequences(seed: int | None, count: int) -> list[SeedSequence]:
    """Independent per-worker RNG roots derived via ``SeedSequence.spawn``.

    Fork-based workers inherit the parent process's memory — including any
    RNG generator state — so sampling with an inherited generator
    would replay the *same* stream in every worker and silently correlate
    parallel Monte-Carlo estimates.  Spawned children are statistically
    independent and deterministic in *seed*, so multi-worker runs are
    reproducible without sharing a stream.
    """
    from repro.rng import SeedSequence  # resolved here: it picks the RNG backend

    return list(SeedSequence(seed).spawn(count))


def _worker_trigger_seed(sequence: SeedSequence) -> int:
    """A plain integer seed (for ``random.Random`` trigger selection) from a spawned root."""
    return generate_uint64(sequence)


@dataclass
class _Frontier:
    """The parent-side split of the chase tree: open subtree roots + banked results."""

    nodes: list[ChaseNode]
    outcomes: list[PossibleOutcome]
    error_mass: float
    truncated: int
    max_depth_reached: int
    stats: ChaseStats


#: Worker-side state inherited through ``fork`` at pool-creation time; tasks
#: only carry a frontier index, results carry plain picklable tuples.
_WORKER_STATE: dict | None = None


def _payload_from_result(result: ChaseResult, presolve: bool = False) -> tuple:
    """Flatten one subtree's :class:`ChaseResult` into the picklable wire tuple."""
    payload = [
        (
            outcome.atr_rules,
            outcome.grounding,
            outcome.probability,
            outcome.stable_models if presolve else None,
        )
        for outcome in result.outcomes
    ]
    stats = result.stats
    return (
        payload,
        result.error_probability,
        result.truncated_paths,
        result.max_depth_reached,
        (
            stats.nodes_expanded,
            stats.nodes_visited,
            stats.leaves,
            stats.grounding_seconds,
            stats.incremental_extensions,
            stats.full_groundings,
        ),
    )


def _explore_subtree(index: int):
    """Worker task: exhaust one frontier subtree and return a picklable payload.

    Each subtree engine gets its own spawned trigger seed: under
    ``TriggerStrategy.RANDOM`` the workers would otherwise all replay the
    parent's stream (fork copies it), selecting correlated trigger orders.
    """
    assert _WORKER_STATE is not None, "worker state must be installed before forking"
    grounder = _WORKER_STATE["grounder"]
    config = replace(_WORKER_STATE["config"], seed=_WORKER_STATE["trigger_seeds"][index])
    node = _WORKER_STATE["frontier"][index]
    result = ChaseEngine(grounder, config).run(root=node)
    return _payload_from_result(result, presolve=_WORKER_STATE["presolve"])


class ParallelChaseExplorer:
    """Explore the chase tree of one grounder with a pool of worker processes.

    Parameters
    ----------
    grounder / config:
        Exactly as for :class:`~repro.gdatalog.chase.ChaseEngine`.
    workers:
        Number of worker processes (default: bounded CPU count).  ``1``
        short-circuits to the sequential engine.
    oversubscribe:
        The frontier is grown to ``workers × oversubscribe`` subtree roots
        so that uneven subtrees still keep every worker busy.  Keep it
        small: every level expanded in the parent is serial work, and by
        Amdahl's law the serial fraction caps the speedup.
    presolve:
        Whether workers also enumerate each leaf's stable models, so query
        evaluation in the parent starts from warm caches (the default — the
        stable-model search usually dominates query latency).
    backend:
        ``"auto"`` (fork when available), ``"fork"`` or ``"serial"``.
    """

    def __init__(
        self,
        grounder: Grounder,
        config: ChaseConfig | None = None,
        workers: int | None = None,
        oversubscribe: int = 2,
        presolve: bool = True,
        backend: str = "auto",
    ):
        if backend not in ("auto", "fork", "serial"):
            raise ValueError(f"backend must be 'auto', 'fork' or 'serial', got {backend!r}")
        self.grounder = grounder
        self.config = config or ChaseConfig()
        self.workers = default_worker_count() if workers is None else max(1, int(workers))
        self.oversubscribe = max(1, int(oversubscribe))
        self.presolve = presolve
        self.backend = backend

    # -- public API -------------------------------------------------------------

    def run(self) -> ChaseResult:
        """The merged :class:`ChaseResult`, identical to the sequential engine's."""
        if self._use_serial():
            return ChaseEngine(self.grounder, self.config).run()
        frontier = self._split_frontier()
        if len(frontier.nodes) <= 1:
            # The tree never branched wide enough to be worth forking for;
            # finish the (at most one) open subtree inline instead of
            # throwing the split work away and re-chasing from the root.
            partials = [
                _payload_from_result(ChaseEngine(self.grounder, self.config).run(root=node))
                for node in frontier.nodes
            ]
            return self._merge(frontier, partials)
        try:
            partials = self._map_frontier(frontier.nodes)
        except (OSError, ValueError):
            # Pool creation can fail in constrained sandboxes; the serial
            # engine is always a correct fallback.
            return ChaseEngine(self.grounder, self.config).run()
        return self._merge(frontier, partials)

    def output_space(self) -> OutputSpace:
        """The merged output probability space ``Π_G(D)``."""
        result = self.run()
        return OutputSpace(result.outcomes, error_probability=result.error_probability)

    # -- splitting ----------------------------------------------------------------

    def _use_serial(self) -> bool:
        if self.backend == "serial" or self.workers <= 1:
            return True
        if self.backend == "auto":
            return "fork" not in multiprocessing.get_all_start_methods()
        return False

    def _split_frontier(self) -> _Frontier:
        """Expand breadth-first until enough disjoint subtree roots exist.

        Leaves, depth-limited paths and truncated-support mass found while
        splitting are banked in the parent; the remaining open nodes become
        the worker assignments.  Expansion follows the engine's own trigger
        strategy, so by Lemma 4.4 the union of subtree results equals the
        sequential enumeration.
        """
        engine = ChaseEngine(self.grounder, self.config)
        target = max(self.workers * self.oversubscribe, 2)
        outcomes: list[PossibleOutcome] = []
        error_mass = 0.0
        truncated = 0
        max_depth_reached = 0

        queue: deque[ChaseNode] = deque([engine.root()])
        open_nodes: list[ChaseNode] = []
        while queue:
            if len(queue) >= target:
                # Enough disjoint subtrees: stop expanding serially and hand
                # everything still open to the workers (they deal with nodes
                # that turn out to be leaves just fine).
                open_nodes.extend(queue)
                queue.clear()
                break
            node = queue.popleft()
            engine.stats.nodes_visited += 1
            max_depth_reached = max(max_depth_reached, node.depth)
            triggers = node.triggers(self.grounder)
            if not triggers:
                engine.stats.leaves += 1
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
            trigger = engine.select_trigger(triggers)
            children = engine.expand(node, trigger)
            error_mass += max(node.probability - sum(c.probability for c in children), 0.0)
            queue.extend(children)

        engine.stats.merge_grounder(self.grounder)
        return _Frontier(
            nodes=open_nodes,
            outcomes=outcomes,
            error_mass=error_mass,
            truncated=truncated,
            max_depth_reached=max_depth_reached,
            stats=engine.stats,
        )

    # -- fan-out / merge -----------------------------------------------------------

    def _map_frontier(self, nodes: list[ChaseNode]) -> list[tuple]:
        """Run the worker pool over the frontier (state inherited via fork)."""
        global _WORKER_STATE
        _WORKER_STATE = {
            "grounder": self.grounder,
            "config": self.config,
            "frontier": nodes,
            "presolve": self.presolve,
            "trigger_seeds": [
                _worker_trigger_seed(s)
                for s in spawn_seed_sequences(self.config.seed, len(nodes))
            ],
        }
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=min(self.workers, len(nodes))) as pool:
                # chunksize=1: subtree sizes are uneven, let idle workers steal.
                return pool.map(_explore_subtree, range(len(nodes)), chunksize=1)
        finally:
            _WORKER_STATE = None

    def _merge(self, frontier: _Frontier, partials: list[tuple]) -> ChaseResult:
        """Stitch banked + worker results into one canonical :class:`ChaseResult`."""
        outcomes = list(frontier.outcomes)
        error_mass = frontier.error_mass
        truncated = frontier.truncated
        max_depth_reached = frontier.max_depth_reached
        stats = frontier.stats

        for payload, partial_error, partial_truncated, partial_depth, stat_values in partials:
            for atr_rules, grounding, probability, models in payload:
                outcome = PossibleOutcome(
                    atr_rules=atr_rules,
                    grounding=grounding,
                    probability=probability,
                    translated=self.grounder.translated,
                )
                if models is not None:
                    # Warm the lazy cache with the worker-solved models so
                    # queries in the parent never re-run the solver.
                    outcome.__dict__["stable_models"] = models
                outcomes.append(outcome)
            error_mass += partial_error
            truncated += partial_truncated
            max_depth_reached = max(max_depth_reached, partial_depth)
            expanded, visited, leaves, seconds, extensions, full = stat_values
            stats.nodes_expanded += expanded
            stats.nodes_visited += visited
            stats.leaves += leaves
            stats.grounding_seconds += seconds
            stats.incremental_extensions += extensions
            stats.full_groundings += full

        if len(outcomes) > self.config.max_outcomes:
            if self.config.strict:
                raise ChaseLimitError(
                    f"chase produced more than {self.config.max_outcomes} possible outcomes"
                )
            # Deterministic truncation in canonical order (the sequential
            # engine truncates in DFS order instead; both respect the cap
            # and account the dropped mass to the error event).
            outcomes.sort(key=lambda o: o.choice_key)
            dropped = outcomes[self.config.max_outcomes :]
            outcomes = outcomes[: self.config.max_outcomes]
            error_mass += sum(o.probability for o in dropped)
            truncated += len(dropped)

        outcomes.sort(key=lambda o: o.choice_key)
        return ChaseResult(
            outcomes=outcomes,
            error_probability=min(error_mass, 1.0),
            truncated_paths=truncated,
            max_depth_reached=max_depth_reached,
            stats=stats,
        )


# ---------------------------------------------------------------------------
# Component-level parallelism (factorized inference)
# ---------------------------------------------------------------------------

#: Worker-side state for component exploration, inherited through ``fork``.
_COMPONENT_STATE: dict | None = None


def _result_from_payload(payload: tuple, grounder: Grounder) -> ChaseResult:
    """Rebuild a :class:`ChaseResult` from the picklable worker wire tuple."""
    outcome_rows, error, truncated, max_depth, stat_values = payload
    outcomes: list[PossibleOutcome] = []
    for atr_rules, grounding, probability, models in outcome_rows:
        outcome = PossibleOutcome(
            atr_rules=atr_rules,
            grounding=grounding,
            probability=probability,
            translated=grounder.translated,
        )
        if models is not None:
            outcome.__dict__["stable_models"] = models
        outcomes.append(outcome)
    expanded, visited, leaves, seconds, extensions, full = stat_values
    stats = ChaseStats(
        nodes_expanded=expanded,
        nodes_visited=visited,
        leaves=leaves,
        grounding_seconds=seconds,
        incremental_extensions=extensions,
        full_groundings=full,
    )
    return ChaseResult(
        outcomes=outcomes,
        error_probability=error,
        truncated_paths=truncated,
        max_depth_reached=max_depth,
        stats=stats,
    )


def _explore_component(index: int):
    """Worker task: exhaust one independent component's chase tree."""
    assert _COMPONENT_STATE is not None, "component state must be installed before forking"
    grounder = _COMPONENT_STATE["grounders"][index]
    config = _COMPONENT_STATE["configs"][index]
    result = ChaseEngine(grounder, config).run()
    return _payload_from_result(result, presolve=_COMPONENT_STATE["presolve"])


def explore_components(
    grounders: Sequence[Grounder],
    config: ChaseConfig | None = None,
    workers: int | None = None,
    presolve: bool = True,
    backend: str = "auto",
) -> list[ChaseResult]:
    """Chase many independent component grounders across a worker pool.

    Components (see :mod:`repro.gdatalog.factorize`) share no ground atoms,
    so they are the natural parallel-split unit for factorized inference:
    each worker exhausts whole components — chase, grounding and (with
    *presolve*) stable models — and the parent only reassembles small
    payloads.  Every component engine receives its own
    ``SeedSequence``-spawned trigger seed, so ``TriggerStrategy.RANDOM``
    runs are decorrelated across workers yet deterministic in
    ``config.seed``; results are identical between the forked and the
    serial fallback path.
    """
    config = config or ChaseConfig()
    workers = default_worker_count() if workers is None else max(1, int(workers))
    configs = [
        replace(config, seed=_worker_trigger_seed(s))
        for s in spawn_seed_sequences(config.seed, len(grounders))
    ]
    serial = (
        backend == "serial"
        or workers <= 1
        or len(grounders) <= 1
        or (backend == "auto" and "fork" not in multiprocessing.get_all_start_methods())
    )
    if not serial:
        global _COMPONENT_STATE
        _COMPONENT_STATE = {
            "grounders": list(grounders),
            "configs": configs,
            "presolve": presolve,
        }
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=min(workers, len(grounders))) as pool:
                payloads = pool.map(_explore_component, range(len(grounders)), chunksize=1)
            return [
                _result_from_payload(payload, grounder)
                for payload, grounder in zip(payloads, grounders)
            ]
        except (OSError, ValueError):
            pass  # constrained sandboxes: fall through to the serial path
        finally:
            _COMPONENT_STATE = None
    return [
        ChaseEngine(grounder, worker_config).run()
        for grounder, worker_config in zip(grounders, configs)
    ]


# ---------------------------------------------------------------------------
# Parallel Monte-Carlo sampling
# ---------------------------------------------------------------------------

#: Worker-side state for parallel sampling, inherited through ``fork``.
_SAMPLER_STATE: dict | None = None


def _sample_chunk(index: int) -> int:
    """Worker task: draw one chunk of samples on an independent RNG stream."""
    assert _SAMPLER_STATE is not None, "sampler state must be installed before forking"
    engine = ChaseEngine(_SAMPLER_STATE["grounder"], _SAMPLER_STATE["config"])
    rng = default_rng(_SAMPLER_STATE["sequences"][index])
    predicate = _SAMPLER_STATE["predicate"]
    successes = 0
    for _ in range(_SAMPLER_STATE["budgets"][index]):
        outcome, _depth = engine.sample_path(rng)
        if outcome is not None and predicate(outcome):
            successes += 1
    return successes


class ParallelSampler:
    """Monte-Carlo estimation split across workers with independent RNG streams.

    Forked workers inherit the parent's memory, so handing them the parent's
    ``default_rng`` generator state would make every worker draw the *same*
    sample paths — the merged estimate would quietly have the variance of a
    single worker's share.  Each worker therefore samples from its own
    ``SeedSequence.spawn`` child (:func:`spawn_seed_sequences`), which keeps
    multi-worker runs deterministic in *seed* and statistically independent
    across workers.  With ``workers=1`` the sampler delegates to
    :class:`~repro.gdatalog.sampler.MonteCarloSampler` with the seed
    untouched, so seeded single-worker estimates stay byte-for-byte
    reproducible against the sequential sampler.

    The serial fallback (no ``fork``, constrained sandboxes) draws the same
    per-worker streams inline, so results never depend on whether the pool
    could actually fork.
    """

    def __init__(
        self,
        grounder: Grounder,
        config: ChaseConfig | None = None,
        workers: int | None = None,
        seed: int | None = None,
        backend: str = "auto",
    ):
        if backend not in ("auto", "fork", "serial"):
            raise ValueError(f"backend must be 'auto', 'fork' or 'serial', got {backend!r}")
        self.grounder = grounder
        self.config = config or ChaseConfig()
        self.workers = default_worker_count() if workers is None else max(1, int(workers))
        self.seed = seed
        self.backend = backend

    def estimate(self, predicate: Callable[[PossibleOutcome], bool], n: int = 1000) -> Estimate:
        """Estimate the probability of the event defined by *predicate* from *n* samples.

        On platforms without the ``fork`` start method a multi-worker
        request degrades gracefully to the seeded single-worker path (with
        a :class:`RuntimeWarning`) instead of raising; the explicit
        ``backend="serial"`` path is unaffected — it deliberately draws the
        per-worker streams inline for determinism parity with forked runs.
        """
        if self.workers <= 1:
            return MonteCarloSampler(self.grounder, self.config, seed=self.seed).estimate(
                predicate, n=n
            )
        if self.backend == "auto" and "fork" not in multiprocessing.get_all_start_methods():
            warnings.warn(
                f"fork start method unavailable on this platform; sampling the "
                f"{self.workers}-worker request on a single worker instead",
                RuntimeWarning,
                stacklevel=2,
            )
            return MonteCarloSampler(self.grounder, self.config, seed=self.seed).estimate(
                predicate, n=n
            )
        budgets = self._budgets(n)
        sequences = spawn_seed_sequences(self.seed, len(budgets))
        successes = self._map_chunks(predicate, budgets, sequences)
        p_hat = successes / n if n else 0.0
        standard_error = (
            float(sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / n)) if n else 0.0
        )
        return Estimate(p_hat, standard_error, n)

    def estimate_query(self, query, n: int = 1000) -> Estimate:
        """Estimate a :class:`~repro.ppdl.queries.Query` (its outcome predicate)."""
        return self.estimate(query.outcome_predicate, n=n)

    # -- internals ---------------------------------------------------------------

    def _budgets(self, n: int) -> list[int]:
        """Split *n* samples over the workers (remainder to the first chunks)."""
        chunks = min(self.workers, max(n, 1))
        base, remainder = divmod(n, chunks)
        return [base + (1 if index < remainder else 0) for index in range(chunks)]

    def _map_chunks(
        self,
        predicate: Callable[[PossibleOutcome], bool],
        budgets: list[int],
        sequences: list[SeedSequence],
    ) -> int:
        serial = self.backend == "serial" or (
            self.backend == "auto" and "fork" not in multiprocessing.get_all_start_methods()
        )
        if not serial:
            global _SAMPLER_STATE
            _SAMPLER_STATE = {
                "grounder": self.grounder,
                "config": self.config,
                "predicate": predicate,
                "budgets": budgets,
                "sequences": sequences,
            }
            try:
                context = multiprocessing.get_context("fork")
                with context.Pool(processes=len(budgets)) as pool:
                    return sum(pool.map(_sample_chunk, range(len(budgets)), chunksize=1))
            except (OSError, ValueError):
                pass  # constrained sandboxes: fall through to the serial path
            finally:
                _SAMPLER_STATE = None
        engine = ChaseEngine(self.grounder, self.config)
        successes = 0
        for budget, sequence in zip(budgets, sequences):
            rng = default_rng(sequence)
            for _ in range(budget):
                outcome, _depth = engine.sample_path(rng)
                if outcome is not None and predicate(outcome):
                    successes += 1
        return successes
