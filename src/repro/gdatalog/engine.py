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

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from repro.gdatalog.checker import ProgramAnalysis

from repro.exceptions import GroundingError, ValidationError
from repro.gdatalog.chase import ChaseConfig, ChaseEngine, ChaseResult
from repro.gdatalog.factorize import factorized_space
from repro.gdatalog.grounders import Grounder, grounder_name, make_grounder
from repro.gdatalog.outcomes import PossibleOutcome
from repro.gdatalog.probability_space import AbstractSpace, OutputSpace
from repro.gdatalog.relevance import QuerySlice, atoms_for_queries, compute_slice
from repro.gdatalog.sampler import Estimate, MonteCarloSampler
from repro.gdatalog.syntax import GDatalogProgram, desugar_constraints
from repro.gdatalog.translate import TranslatedProgram, translate_program
from repro.logic.atoms import Atom
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
        #: The query-relevant slice applied to this engine (``None`` when
        #: slicing was not requested; ``is_full`` when it cut nothing).
        self.query_slice: QuerySlice | None = None
        if self.chase_config.slice_for_query is not None:
            permanent = analysis.permanent_seeds if analysis is not None else None
            self.query_slice = compute_slice(
                self.program,
                self.database,
                self.chase_config.slice_for_query,
                permanent=permanent,
            )
            if not self.query_slice.is_full:
                self.program = self.query_slice.program
                self.database = self.query_slice.database
        if analysis is not None and analysis.program.rules == self.program.rules:
            # A precomputed analysis is only valid for this exact rule set;
            # when slicing or desugaring rewrote the program, the engine
            # derives its own lazily instead.
            self.analysis = analysis
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

    @cached_property
    def analysis(self) -> "ProgramAnalysis":
        """The static :class:`~repro.gdatalog.checker.ProgramAnalysis` of this engine.

        Computed lazily (or supplied precomputed via the constructor); its
        memoised strategy inputs — factorization decomposition, permanent
        slice seeds, choice cone — replace the per-request derivations in
        :meth:`output_space`, :meth:`sliced` and :meth:`updated`.
        """
        from repro.gdatalog.checker import analyze_program

        return analyze_program(self.program, self.database)

    # -- exact inference --------------------------------------------------------------

    @cached_property
    def chase_result(self) -> ChaseResult:
        """The exhaustive chase (cached; rerun by constructing a new engine)."""
        return ChaseEngine(self.grounder, self.chase_config).run()

    def output_space(self, workers: int | None = None) -> AbstractSpace:
        """The output probability space ``Π_G(D)`` restricted to finite outcomes.

        With :attr:`ChaseConfig.factorize` set, the ground program is
        decomposed into independent components and the result is a lazy
        :class:`~repro.gdatalog.factorize.ProductSpace`; connected (or
        otherwise ineligible) programs fall back to the flat
        :class:`OutputSpace` transparently.  *workers* routes the chase —
        per component when factorized, per subtree otherwise — through the
        parallel runtime.
        """
        if self.chase_config.factorize:
            space = self._factorized_space(workers=workers)
            if space is not None:
                return space
        if workers is not None and workers > 1:
            return self.parallel_output_space(workers=workers)
        result = self.chase_result
        return OutputSpace(result.outcomes, error_probability=result.error_probability)

    def _factorized_space(self, workers: int | None = None):
        """The cached factorized space, or ``None`` when the program is connected."""
        if "factorized" not in self.__dict__:
            decomposition = self.analysis.decomposition(
                self.translated, self.database, self.chase_config
            )
            self.__dict__["factorized"] = (
                None
                if decomposition is None
                else factorized_space(
                    self.grounder,
                    self.chase_config,
                    workers=workers,
                    decomposition=decomposition,
                )
            )
        return self.__dict__["factorized"]

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

    def sliced(self, queries: Iterable) -> "GDatalogEngine":
        """An engine restricted to the query-relevant slice of the batch.

        *queries* accepts the same forms as :meth:`evaluate_queries`; the
        slice is the union over the batch (one sliced chase answers every
        query in it).  Returns ``self`` — reusing any already-cached chase —
        when the batch contains a generic query, when nothing can be cut,
        or when the grounder is a custom family that cannot be rebuilt, so
        callers never need a fallback path of their own.  Sliced engines
        are memoized on the relevant predicate set: repeated queries into
        the same slice reuse one engine (and its cached chase).
        """
        from repro.ppdl.queries import query_from_spec

        if self._grounder_name is None:
            return self
        resolved = [query_from_spec(q) for q in queries]
        seeds = atoms_for_queries(resolved)
        if seeds is None:
            return self
        slice_ = compute_slice(
            self.program, self.database, seeds, permanent=self.analysis.permanent_seeds
        )
        if slice_.is_full:
            return self
        cache: dict = self.__dict__.setdefault("_sliced_engines", {})
        cached = cache.get(slice_.predicates)
        if cached is not None:
            return cached
        engine = GDatalogEngine(
            slice_.program,
            slice_.database,
            grounder=self._grounder_name,
            chase_config=replace(self.chase_config, slice_for_query=None),
        )
        engine.query_slice = slice_
        cache[slice_.predicates] = engine
        return engine

    def possible_outcomes(self) -> list[PossibleOutcome]:
        """``Ω^fin``: the finite possible outcomes, materialized.

        Built from :meth:`output_space`, so a factorized engine enumerates
        the joint outcomes of its components instead of re-running the flat
        exponential chase.  (Materializing is still ``∏ |Ω_i|`` work —
        that is what listing every outcome costs.)
        """
        return list(self.output_space())

    def probability_has_stable_model(self, slice: bool = False) -> float:
        """P("Π[D] has some stable model").

        With *slice* only the model-killing core (constraints, negative
        cycles, inexact choices and their cones) is chased; everything else
        is a factor of exactly 1.
        """
        if slice:
            from repro.ppdl.queries import HasStableModelQuery

            return self.sliced([HasStableModelQuery()]).output_space().probability_has_stable_model()
        return self.output_space().probability_has_stable_model()

    def marginal(self, atom: Atom | str, mode: str = "brave", slice: bool = False) -> float:
        """Brave/cautious marginal probability of an atom (string or object).

        With *slice* only the query-relevant part of the program is chased
        (bit-identical answer; see :mod:`repro.gdatalog.relevance`).
        """
        resolved = parse_atom(atom) if isinstance(atom, str) else atom
        if slice:
            from repro.ppdl.queries import AtomQuery

            return self.sliced([AtomQuery(resolved, mode)]).output_space().marginal(
                resolved, mode=mode
            )
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

    def evaluate_queries(
        self, queries, workers: int | None = None, slice: bool = False
    ) -> list[float]:
        """Answer many queries in one outcome scan (optionally chased in parallel).

        *queries* may be :class:`~repro.ppdl.queries.Query` objects, atom
        strings or wire-format specs (see
        :func:`~repro.ppdl.queries.query_from_spec`).  With *slice* the
        chase is restricted to the union of the batch's query-relevant
        slices (transparent fallback when nothing can be cut).
        """
        from repro.ppdl.queries import query_from_spec
        from repro.runtime.batch import QueryBatch

        resolved = [query_from_spec(q) for q in queries]
        target = self.sliced(resolved) if slice else self
        batch = QueryBatch(resolved)
        return batch.evaluate(target.output_space(workers=workers))

    # -- approximate inference ------------------------------------------------------------

    def sampler(self, seed: int | None = None) -> MonteCarloSampler:
        """A Monte-Carlo sampler sharing this engine's grounder and chase configuration."""
        return MonteCarloSampler(self.grounder, self.chase_config, seed=seed)

    def estimate_has_stable_model(
        self, n: int = 1000, seed: int | None = None, slice: bool = False
    ) -> Estimate:
        """Monte-Carlo estimate of P("Π[D] has some stable model").

        With *slice* the sampler walks only the model-killing core, so each
        path resolves only the triggers that can influence the answer.
        """
        if slice:
            from repro.ppdl.queries import HasStableModelQuery

            return self.sliced([HasStableModelQuery()]).estimate_has_stable_model(n=n, seed=seed)
        return self.sampler(seed=seed).estimate_has_stable_model(n=n)

    def estimate_marginal(
        self,
        atom: Atom | str,
        mode: str = "brave",
        n: int = 1000,
        seed: int | None = None,
        slice: bool = False,
    ) -> Estimate:
        """Monte-Carlo estimate of an atom marginal.

        With *slice* sample paths resolve only the query-relevant triggers
        (irrelevant choices are a factor of 1 and are never drawn).
        """
        resolved = parse_atom(atom) if isinstance(atom, str) else atom
        if slice:
            from repro.ppdl.queries import AtomQuery

            return self.sliced([AtomQuery(resolved, mode)]).estimate_marginal(
                resolved, mode=mode, n=n, seed=seed
            )
        return self.sampler(seed=seed).estimate_marginal(resolved, mode=mode, n=n)

    def adaptive_estimate(
        self,
        query,
        target_half_width: float = 0.01,
        stratify: bool = False,
        seed: int | None = None,
        slice: bool = False,
        **driver_options,
    ):
        """Adaptive Monte-Carlo estimate stopped at a target Wilson half-width.

        *query* accepts the same forms as :meth:`evaluate_queries`; extra
        keyword arguments reach
        :class:`~repro.runtime.adaptive.AdaptiveSampler`.  With *slice* the
        driver samples the query-relevant slice only.
        """
        from repro.ppdl.queries import query_from_spec
        from repro.runtime.adaptive import AdaptiveSampler

        resolved = query_from_spec(query)
        engine = self.sliced([resolved]) if slice else self
        driver = AdaptiveSampler(
            engine.grounder,
            engine.chase_config,
            target_half_width=target_half_width,
            stratify=stratify,
            seed=seed,
            **driver_options,
        )
        return driver.estimate(resolved)

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
            space = self._factorized_space()
            if space is not None:
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
                f"join probes/scans:        {stats.join_index_probes}/{stats.join_full_scans}",
                f"join plans comp./reused:  {stats.join_plans_compiled}/{stats.join_plans_reused}",
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
