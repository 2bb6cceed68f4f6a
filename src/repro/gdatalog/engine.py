"""High-level facade for generative Datalog¬ inference.

:class:`GDatalogEngine` wires the pieces together: parse or accept a
GDatalog¬[Δ] program and a database, translate to ``Σ_Π``, pick a grounder,
run the chase (exact) or the sampler (Monte-Carlo), and answer probabilistic
queries.

Typical usage::

    engine = GDatalogEngine.from_source(PROGRAM_TEXT, DATABASE_TEXT, grounder="simple")
    space = engine.output_space()
    space.probability_has_stable_model()
    engine.marginal("infected(2, 1)")
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from repro.gdatalog.checker import ProgramAnalysis
    from repro.runtime.service import ComponentCache

from repro.exceptions import GroundingError, ValidationError
from repro.gdatalog.chase import ChaseConfig, ChaseEngine, ChaseRecord, ChaseResult
from repro.gdatalog.factorize import ProductSpace, factorized_space
from repro.gdatalog.grounders import Grounder, grounder_name, make_grounder
from repro.gdatalog.outcomes import PossibleOutcome
from repro.gdatalog.probability_space import AbstractSpace, OutputSpace
from repro.gdatalog.relevance import QuerySlice, atoms_for_queries, compute_slice
from repro.gdatalog.sampler import Estimate, MonteCarloSampler
from repro.gdatalog.syntax import GDatalogProgram, desugar_constraints
from repro.gdatalog.translate import TranslatedProgram, translate_program
from repro.logic.atoms import Atom, Predicate
from repro.logic.database import Database
from repro.logic.parser import parse_atom, parse_database, parse_gdatalog_program

__all__ = ["GDatalogEngine", "cache_profile_lines"]


class GDatalogEngine:
    """Exact and approximate inference for a GDatalog¬[Δ] program on a database."""

    def __init__(
        self,
        program: GDatalogProgram,
        database: Database | Iterable[Atom] = (),
        grounder: str | Grounder = "simple",
        chase_config: ChaseConfig | None = None,
        constraint_mode: str = "native",
        require_edb_database: bool = False,
        analysis: "ProgramAnalysis | None" = None,
        component_cache: "ComponentCache | None" = None,
    ):
        if constraint_mode not in ("native", "desugar"):
            raise ValidationError(f"constraint_mode must be 'native' or 'desugar', got {constraint_mode!r}")
        self.program = desugar_constraints(program) if constraint_mode == "desugar" else program
        self.database = database if isinstance(database, Database) else Database(database)
        if require_edb_database:
            # Definition-level strictness: a database of edb(Π) only.  The
            # paper's own Example 3.6 places the intensional fact
            # Infected(1, 1) in the database, so the permissive behaviour is
            # the default.
            self._validate_database()
        self.chase_config = chase_config or ChaseConfig()
        #: The query-relevant slice this engine was built over by
        #: :meth:`slice_engine` (``None`` for an engine over the whole program).
        self.query_slice: QuerySlice | None = None
        #: The chased components of an :class:`~repro.runtime.service.InferenceService`,
        #: shared by the engines it builds (``None``: chase every component).
        self.component_cache = component_cache
        # One lock per engine guards its memos, so two threads never chase
        # one engine twice while engines never wait on each other.
        # Reentrant: building the space reads the analysis.
        self._lock = threading.RLock()
        self._analysis: "ProgramAnalysis | None" = None
        if analysis is not None and analysis.program.rules == self.program.rules:
            # A precomputed analysis is only valid for this exact rule set;
            # when desugaring rewrote the program, the engine derives its
            # own lazily instead.
            self._analysis = analysis
        self._chase_result: ChaseResult | None = None
        self._space: AbstractSpace | None = None
        # The tree the flat chase of ``_space`` walked, published with it:
        # the samplers descend it instead of grounding every path again.
        self._record: ChaseRecord | None = None
        self._sliced_engines: dict[frozenset[Predicate], GDatalogEngine] = {}
        self.translated: TranslatedProgram = translate_program(self.program)
        self.grounder: Grounder = make_grounder(grounder, self.translated, self.database)
        try:
            self._grounder_name: str | None = grounder_name(grounder)
        except GroundingError:
            # A custom grounder family cannot be rebuilt over a sliced
            # program; sliced() then falls back to the full engine.
            self._grounder_name = None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_source(
        cls,
        program_source: str,
        database_source: str = "",
        grounder: str | Grounder = "simple",
        chase_config: ChaseConfig | None = None,
        constraint_mode: str = "native",
        registry=None,
        require_edb_database: bool = False,
    ) -> "GDatalogEngine":
        """Build an engine from textual program and database sources."""
        program = parse_gdatalog_program(program_source, registry=registry)
        database = parse_database(database_source) if database_source.strip() else Database()
        return cls(
            program,
            database,
            grounder=grounder,
            chase_config=chase_config,
            constraint_mode=constraint_mode,
            require_edb_database=require_edb_database,
        )

    # -- validation ----------------------------------------------------------------

    def _validate_database(self) -> None:
        """The database must range over ``edb(Π)`` only (Definition of ``Π[D]``)."""
        intensional = {p for p in self.program.intensional_predicates()}
        offending = sorted(
            str(a) for a in self.database.facts if a.predicate in intensional
        )
        if offending:
            raise ValidationError(
                "database facts must use extensional predicates only; "
                f"intensional facts found: {offending}"
            )

    # -- static analysis ------------------------------------------------------------

    @property
    def analysis(self) -> "ProgramAnalysis":
        """The static :class:`~repro.gdatalog.checker.ProgramAnalysis` of this engine.

        Computed once (or supplied precomputed via the constructor); its
        memoised strategy inputs — factorization decomposition, permanent
        slice seeds, choice cone — replace the per-request derivations in
        :meth:`output_space`, :meth:`relevant_slice` and :meth:`updated`.
        """
        analysis = self._analysis
        if analysis is None:
            with self._lock:
                if self._analysis is None:
                    from repro.gdatalog.checker import analyze_program

                    self._analysis = analyze_program(self.program, self.database)
                analysis = self._analysis
        return analysis

    # -- exact inference --------------------------------------------------------------

    @property
    def chase_result(self) -> ChaseResult:
        """The exhaustive chase (run once; rerun by constructing a new engine)."""
        result = self._chase_result
        if result is None:
            with self._lock:
                if self._chase_result is None:
                    self._chase_result = ChaseEngine(self.grounder, self.chase_config).run()
                result = self._chase_result
        return result

    def output_space(self, workers: int | None = None) -> AbstractSpace:
        """The output probability space ``Π_G(D)`` restricted to finite outcomes.

        Built on the first call and returned by every later one, whatever
        their *workers*: the strategies below yield the same space.  With
        :attr:`ChaseConfig.factorize` set, the ground program is decomposed
        into independent components and the result is a lazy
        :class:`~repro.gdatalog.factorize.ProductSpace`, whose parts come
        from :attr:`component_cache` when the engine has one; connected (or
        otherwise ineligible) programs fall back to the flat
        :class:`OutputSpace`.  *workers* routes the chase — per component
        when factorized, per subtree otherwise — through the parallel
        runtime.  Only the sequential flat chase keeps the record of its
        tree, which :meth:`sampler` and :meth:`adaptive_estimate` descend.
        """
        space = self._space
        if space is None:
            with self._lock:
                if self._space is None:
                    self._space, self._record = self._build_space(workers)
                space = self._space
        return space

    def _build_space(self, workers: int | None) -> tuple[AbstractSpace, ChaseRecord | None]:
        """Choose the strategy — factorized, parallel or sequential — and run it."""
        config = self.chase_config
        if config.factorize:
            decomposition = self.analysis.decomposition(self.translated, self.database, config)
            if decomposition is not None:
                return factorized_space(
                    self.grounder,
                    config,
                    workers=workers,
                    decomposition=decomposition,
                    cache=self.component_cache,
                    program_digest=self.analysis.program_digest,
                ), None
        if workers is not None and workers > 1:
            return self.parallel_output_space(workers=workers), None
        result = self.chase_result
        space = OutputSpace(result.outcomes, error_probability=result.error_probability)
        return space, result.record

    def _adopt_space(self, space: AbstractSpace, record: ChaseRecord | None = None) -> None:
        """Take *space*, maintained from a pre-delta engine, as the memo of :meth:`output_space`."""
        with self._lock:
            if self._space is None:
                self._space, self._record = space, record

    # -- streaming updates ---------------------------------------------------------

    def updated(self, delta) -> "GDatalogEngine":
        """The engine of the post-delta database, reusing this engine's chase work.

        *delta* is a :class:`~repro.logic.deltas.DbDelta` (or a wire spec
        like ``{"insert": ["lap(7, 3)"], "retract": [...]}``).  The returned
        engine answers every query bit-identically to a from-scratch engine
        over the updated database; how much chase structure was reused is
        recorded on its :attr:`last_update_report` (see
        :mod:`repro.gdatalog.incremental` for the patch/component/rebuild
        modes).  This engine is not mutated and stays valid for the
        pre-delta state.
        """
        from repro.gdatalog.incremental import maintain_engine

        new_engine, _space, report = maintain_engine(self, delta)
        new_engine.last_update_report = report
        return new_engine

    #: The :class:`~repro.gdatalog.incremental.UpdateReport` of the
    #: :meth:`updated` call that produced this engine (``None`` for engines
    #: built from scratch).
    last_update_report = None

    # -- query-relevant slicing -----------------------------------------------------

    def relevant_slice(self, queries: Iterable) -> QuerySlice | None:
        """The query-relevant slice of the batch, or ``None`` when only this engine answers it.

        The one slicing decision, shared by :meth:`sliced` and the inference
        service.  *queries* accepts the same forms as
        :meth:`evaluate_queries`; the slice is the union over the batch (one
        sliced chase answers every query in it).  ``None`` when the batch
        contains a generic query, when nothing can be cut, or when the
        grounder is a custom family that cannot be rebuilt.
        """
        from repro.ppdl.queries import query_from_spec

        if self._grounder_name is None:
            return None
        seeds = atoms_for_queries([query_from_spec(q) for q in queries])
        if seeds is None:
            return None
        slice_ = compute_slice(
            self.program, self.database, seeds, permanent=self.analysis.permanent_seeds
        )
        return None if slice_.is_full else slice_

    def slice_engine(self, slice_: QuerySlice) -> "GDatalogEngine":
        """A new engine over *slice_*, one of this engine's :meth:`relevant_slice` results.

        It keeps this engine's grounder family, chase configuration and
        component cache.
        """
        engine = GDatalogEngine(
            slice_.program,
            slice_.database,
            grounder=self._grounder_name,
            chase_config=self.chase_config,
            component_cache=self.component_cache,
        )
        engine.query_slice = slice_
        return engine

    def sliced(self, queries: Iterable) -> "GDatalogEngine":
        """An engine restricted to the query-relevant slice of the batch.

        Returns ``self`` — reusing any already-built space — whenever
        :meth:`relevant_slice` declines, so callers never need a fallback
        path of their own.  Sliced engines are memoized on the relevant
        predicate set: repeated queries into the same slice reuse one
        engine (and its space).
        """
        slice_ = self.relevant_slice(queries)
        if slice_ is None:
            return self
        engine = self._sliced_engines.get(slice_.predicates)
        if engine is None:
            built = self.slice_engine(slice_)
            # Of two racing builds, every caller gets the one stored first.
            engine = self._sliced_engines.setdefault(slice_.predicates, built)
        return engine

    def possible_outcomes(self) -> list[PossibleOutcome]:
        """``Ω^fin``: the finite possible outcomes, materialized.

        Built from :meth:`output_space`, so a factorized engine enumerates
        the joint outcomes of its components instead of re-running the flat
        exponential chase.  (Materializing is still ``∏ |Ω_i|`` work —
        that is what listing every outcome costs.)
        """
        return list(self.output_space())

    def probability_has_stable_model(self) -> float:
        """P("Π[D] has some stable model")."""
        return self.output_space().probability_has_stable_model()

    def marginal(self, atom: Atom | str, mode: str = "brave") -> float:
        """Brave/cautious marginal probability of an atom (string or object)."""
        resolved = parse_atom(atom) if isinstance(atom, str) else atom
        return self.output_space().marginal(resolved, mode=mode)

    def probability(self, predicate: Callable[[PossibleOutcome], bool]) -> float:
        """Probability of an arbitrary outcome-level event."""
        return self.output_space().probability(predicate)

    # -- runtime integration (parallel / batched / adaptive) -----------------------

    def parallel_output_space(self, workers: int | None = None, **explorer_options) -> OutputSpace:
        """``Π_G(D)`` computed by the multi-worker explorer (identical space).

        Extra keyword arguments are forwarded to
        :class:`~repro.runtime.pool.ParallelChaseExplorer`.  Imported lazily
        so the core engine stays importable without the runtime package.
        """
        from repro.runtime.pool import ParallelChaseExplorer

        explorer = ParallelChaseExplorer(
            self.grounder, self.chase_config, workers=workers, **explorer_options
        )
        return explorer.output_space()

    def evaluate_queries(self, queries, workers: int | None = None) -> list[float]:
        """Answer many queries in one outcome scan (optionally chased in parallel).

        *queries* may be :class:`~repro.ppdl.queries.Query` objects, atom
        strings or wire-format specs (see
        :func:`~repro.ppdl.queries.query_from_spec`).  Call it on
        :meth:`sliced` to chase only the batch's query-relevant slice.
        """
        from repro.ppdl.queries import query_from_spec
        from repro.runtime.batch import QueryBatch

        batch = QueryBatch([query_from_spec(q) for q in queries])
        return batch.evaluate(self.output_space(workers=workers))

    # -- approximate inference ------------------------------------------------------------

    def sampler(self, seed: int | None = None) -> MonteCarloSampler:
        """A Monte-Carlo sampler sharing this engine's grounder and chase configuration.

        Once :meth:`output_space` has built a flat space, the sampler
        descends the chase's recorded tree: the same seeded draws, without
        grounding the nodes the chase already grounded.  Sampling never
        starts the exhaustive chase.
        """
        return MonteCarloSampler(self.grounder, self.chase_config, seed=seed, record=self._record)

    def estimate_has_stable_model(self, n: int = 1000, seed: int | None = None) -> Estimate:
        """Monte-Carlo estimate of P("Π[D] has some stable model")."""
        return self.sampler(seed=seed).estimate_has_stable_model(n=n)

    def estimate_marginal(
        self,
        atom: Atom | str,
        mode: str = "brave",
        n: int = 1000,
        seed: int | None = None,
    ) -> Estimate:
        """Monte-Carlo estimate of an atom marginal."""
        resolved = parse_atom(atom) if isinstance(atom, str) else atom
        return self.sampler(seed=seed).estimate_marginal(resolved, mode=mode, n=n)

    def adaptive_estimate(
        self,
        query,
        target_half_width: float = 0.01,
        stratify: bool = False,
        seed: int | None = None,
        **driver_options,
    ):
        """Adaptive Monte-Carlo estimate stopped at a target Wilson half-width.

        *query* accepts the same forms as :meth:`evaluate_queries`; extra
        keyword arguments reach
        :class:`~repro.runtime.adaptive.AdaptiveSampler`.  Call it on
        :meth:`sliced` to sample the query-relevant slice only.  Like
        :meth:`sampler`, it descends the recorded chase tree once the space
        is built.
        """
        from repro.ppdl.queries import query_from_spec
        from repro.runtime.adaptive import AdaptiveSampler

        driver = AdaptiveSampler(
            self.grounder,
            self.chase_config,
            target_half_width=target_half_width,
            stratify=stratify,
            seed=seed,
            record=self._record,
            **driver_options,
        )
        return driver.estimate(query_from_spec(query))

    # -- reporting -------------------------------------------------------------------------

    def report(self) -> str:
        """A human-readable report of the exact output space."""
        space = self.output_space()
        header = [
            f"program rules:   {len(self.program)}",
            f"database facts:  {len(self.database)}",
            f"grounder:        {type(self.grounder).__name__}",
        ]
        return "\n".join(header) + "\n" + space.summary()

    def profile_summary(self) -> str:
        """A multi-line profile of the cached chase run.

        Reports the chase tree size, how grounding work was split between
        incremental state extensions and from-scratch fixpoints, grounding
        wall-clock time, the shared stable-model solver's memo-cache hit
        rate and the intern-table sizes.  Triggers the chase if it has not
        run yet.  A factorized engine reports its component split instead of
        running the flat chase (which would be exponential in the number of
        components — exactly what factorization avoids).
        """
        if self.chase_config.factorize:
            space = self.output_space()
            if isinstance(space, ProductSpace):
                lines = [
                    "-- chase profile (factorized) --",
                    f"independent components:   {len(space.components)}",
                    f"component outcomes:       {' + '.join(str(len(c)) for c in space.components)}",
                    f"joint outcomes (lazy):    {len(space)}",
                ]
                lines += cache_profile_lines()
                return "\n".join(lines)
        result = self.chase_result
        stats = result.stats
        lines = ["-- chase profile --"]
        if stats is not None:
            lines += [
                f"mode:                     {'incremental' if self.chase_config.incremental else 'from-scratch'}",
                f"nodes visited:            {stats.nodes_visited}",
                f"nodes expanded:           {stats.nodes_expanded}",
                f"leaves:                   {stats.leaves}",
                f"grounding time:           {stats.grounding_seconds:.3f}s",
                f"incremental extensions:   {stats.incremental_extensions}",
                f"from-scratch groundings:  {stats.full_groundings}",
            ]
        lines += cache_profile_lines()
        return "\n".join(lines)


def cache_profile_lines() -> list[str]:
    """The process-wide cache sections of the profile report.

    Shared by :meth:`GDatalogEngine.profile_summary` and the CLI's
    ``sample --profile`` path (which never runs the exhaustive chase).
    """
    from repro.logic.intern import intern_stats
    from repro.logic.join import join_stats
    from repro.stable.solver import solver_cache_stats

    solver = solver_cache_stats()
    solver_total = solver["hits"] + solver["misses"]
    hit_rate = solver["hits"] / solver_total if solver_total else 0.0
    interned = intern_stats()
    joins = join_stats()
    return [
        "-- solver memo cache --",
        f"entries:                  {solver['entries']}",
        f"hits/misses:              {solver['hits']}/{solver['misses']} ({hit_rate:.1%} hit rate)",
        "-- intern tables --",
        f"atoms/rules interned:     {interned['atoms']}/{interned['rules']}",
        "-- join engine (process-wide) --",
        f"index probes/full scans:  {joins.index_probes}/{joins.full_scans}",
        f"plans compiled/reused:    {joins.plans_compiled}/{joins.plans_reused}",
        f"arg indexes built:        {joins.indexes_built}",
    ]
