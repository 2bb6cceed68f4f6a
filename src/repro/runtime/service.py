"""An inference service facade with engine/space caching.

Serving workloads re-ask the same (program, database) pairs over and over;
rebuilding an engine — parse, translate, ground, chase, solve — per request
throws away all of that work.  :class:`InferenceService` keeps an LRU cache
of :class:`~repro.gdatalog.engine.GDatalogEngine` instances keyed on a
**canonical hash** of the request:

* the program is parsed and its rules re-serialized in sorted order, so two
  textual variants of the same rule set (reordered rules, whitespace,
  comments) share one cache entry;
* the database facts are sorted the same way;
* the grounder name and chase configuration complete the key.

Each cached engine builds and keeps its own exact space
(:meth:`~repro.gdatalog.engine.GDatalogEngine.output_space`), through the
parallel explorer when the service is configured with workers, and batched
queries share one outcome scan via :class:`~repro.runtime.batch.QueryBatch`.
With ``factorize=True`` the service additionally caches at the *component*
level: the engines it builds share one :class:`ComponentCache`, in which the
chased space of each independent block (see :mod:`repro.gdatalog.factorize`)
is content-addressed by (program, component facts, grounder, config), so
requests that share blocks — e.g. overlapping sensor groups, or the same
sub-network queried under different evidence — never re-chase them.  With
``slice=True`` (or a per-request override) exact batches chase only the
query-relevant slice of the program (:mod:`repro.gdatalog.relevance`): the
base engine's sliced engine is cached under a slice-aware key, so different
queries cutting the program to the same slice share one engine.  The LRU
bookkeeping runs under a lock, and parsing, building and chasing outside it,
so a threaded wrapper around the service is safe and a cold request never
blocks hits on other entries.  The ``gdatalog serve`` CLI subcommand wraps
this class in a JSON-lines request loop.

Usage::

    service = InferenceService(cache_size=64, workers=4)
    probabilities = service.evaluate(PROGRAM, DATABASE, ["infected(2, 1)"])
    service.stats.hits, service.stats.misses
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from repro.exceptions import ValidationError
from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.checker import ProgramAnalysis, check_source
from repro.gdatalog.engine import GDatalogEngine
from repro.gdatalog.factorize import ComponentSpace
from repro.gdatalog.incremental import UpdateReport, maintain_engine
from repro.gdatalog.probability_space import AbstractSpace
from repro.logic.atoms import Atom
from repro.logic.database import Database
from repro.logic.deltas import DbDelta
from repro.logic.parser import parse_database, parse_gdatalog_program
from repro.ppdl.queries import Query, query_from_spec
from repro.runtime.adaptive import AdaptiveEstimate
from repro.runtime.batch import QueryBatch

__all__ = ["ServiceStats", "InferenceService", "UpdateResult"]


def _canonical_layout(database: Database) -> tuple[tuple[Atom, ...], str]:
    """The facts of *database* in canonical order and their text (what cache keys hash)."""
    facts = database.canonical_facts
    return facts, "\n".join(f"{fact}." for fact in facts)


def _parse_sources(program_source: str, database_source: str):
    """The parsed (program, database) of a request's raw sources."""
    program = parse_gdatalog_program(program_source)
    database = parse_database(database_source) if database_source.strip() else Database()
    return program, database


@dataclass
class ServiceStats:
    """Cache counters of one service instance.

    ``component_hits`` / ``component_misses`` track the factorized-inference
    component cache: components are content-addressed by (program, component
    facts, grounder, chase config), so two requests sharing an independent
    block reuse its chased space even when the rest of the database differs.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    component_hits: int = 0
    component_misses: int = 0
    #: Cache traffic of query-sliced spaces: two requests whose queries cut
    #: the program down to the same relevant predicate set share one sliced
    #: engine/space even when the query atoms differ.
    slice_hits: int = 0
    slice_misses: int = 0
    #: Streaming-update traffic (:meth:`InferenceService.update`):
    #: ``updates_applied`` counts effective deltas; the subtree counters
    #: aggregate the per-update :class:`~repro.gdatalog.incremental.UpdateReport`
    #: reuse numbers (outcomes in patch mode, components in component mode).
    updates_applied: int = 0
    subtrees_invalidated: int = 0
    subtrees_reused: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    #: The counters :meth:`snapshot` exports (and :meth:`bump` accepts).
    COUNTERS = (
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
    )

    def bump(self, counter: str, amount: int = 1) -> None:
        """Atomically add *amount* to *counter* (thread-safe)."""
        if counter not in self.COUNTERS:
            raise ValueError(f"unknown service counter {counter!r}")
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def snapshot(self) -> dict[str, int]:
        """One consistent view of every counter as a plain dict.

        ``/metrics`` and ``--profile`` read this instead of racing on
        individual attribute reads while another thread is mid-update.
        """
        with self._lock:
            return {name: getattr(self, name) for name in self.COUNTERS}

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


@dataclass(frozen=True)
class UpdateResult:
    """What :meth:`InferenceService.update` hands back to the caller.

    ``database_source`` is the canonical post-delta database text — clients
    use it (or the derived ``key``) for follow-up queries, which then hit
    the maintained cache entry.
    """

    key: str
    database_source: str
    report: UpdateReport


class ComponentCache:
    """The chased components of one service's engines, an LRU by content address.

    The engines an :class:`InferenceService` builds hand it to
    :func:`~repro.gdatalog.factorize.factorized_space`, so two requests
    whose decompositions share an independent block chase it once, even
    when the rest of their databases differ.
    """

    def __init__(self, limit: int, stats: ServiceStats):
        self._limit = limit
        self._stats = stats
        self._spaces: OrderedDict[str, ComponentSpace] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> ComponentSpace | None:
        """The component cached under *key*, counted as a hit, or ``None`` (a miss)."""
        with self._lock:
            part = self._spaces.get(key)
            if part is None:
                self._stats.bump("component_misses")
            else:
                self._stats.bump("component_hits")
                self._spaces.move_to_end(key)
            return part

    def put(self, key: str, part: ComponentSpace) -> None:
        """Cache a chased component and evict the LRU overflow."""
        with self._lock:
            self._spaces[key] = part
            if len(self._spaces) > self._limit:
                self._spaces.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._spaces.clear()


class InferenceService:
    """Engine/space cache plus batched exact and adaptive approximate queries."""

    def __init__(
        self,
        cache_size: int = 32,
        grounder: str = "simple",
        chase_config: ChaseConfig | None = None,
        workers: int | None = None,
        factorize: bool = False,
        slice: bool = False,
        validate: bool = False,
    ):
        if cache_size < 1:
            raise ValidationError(f"cache_size must be at least 1, got {cache_size}")
        self.cache_size = int(cache_size)
        self.grounder = grounder
        self.chase_config = chase_config or ChaseConfig()
        if factorize and not self.chase_config.factorize:
            self.chase_config = replace(self.chase_config, factorize=True)
        self.workers = workers
        #: Default for query-relevant slicing of exact requests (each
        #: request may override it; see :meth:`evaluate`).
        self.slice = bool(slice)
        #: With validation on, every request's sources pass through the
        #: static checker (:func:`~repro.gdatalog.checker.check_source`) on
        #: first sighting; error diagnostics raise
        #: :class:`~repro.gdatalog.checker.DiagnosticsError` and the
        #: analysis (clean or not) is cached so repeats are free.
        self.validate = bool(validate)
        self.stats = ServiceStats()
        # The LRU caches are plain OrderedDicts; every get/put/evict below
        # runs under this lock so threaded callers (e.g. a threaded wrapper
        # around ``serve``) cannot corrupt eviction order or double-insert.
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, GDatalogEngine] = OrderedDict()
        # First-level map from raw request text to the canonical key, so
        # repeated identical requests skip the parse+sort canonicalization
        # entirely on the hot path.  Bounded: cleared wholesale on overflow.
        self._raw_keys: dict[tuple[str, str], str] = {}
        self._raw_keys_limit = max(self.cache_size * 8, 64)
        # Factorized inference caches *components*, not whole spaces: the
        # chased space of one independent block is reusable by any request
        # whose decomposition contains an identical block.
        self._components = ComponentCache(max(self.cache_size * 8, 64), self.stats)
        # Source-level check results, keyed on the raw request text.  Failed
        # analyses are cached too, so a client hammering one bad program
        # pays for the checker exactly once.
        self._analyses: OrderedDict[tuple[str, str], ProgramAnalysis] = OrderedDict()
        self._analyses_limit = max(self.cache_size * 2, 16)

    # -- canonical keys -----------------------------------------------------------

    def cache_key(self, program_source: str, database_source: str = "") -> str:
        """A canonical hash of (program, database, grounder, chase config).

        Parsing-then-sorting makes the key insensitive to rule order,
        whitespace and comments, so syntactic duplicates share one engine.
        The same canonicalization keys the *post-delta* state of
        :meth:`update`, so an updated entry and a fresh request for the
        updated database share one key — no double-entry for equivalent
        states (``tests/runtime/test_service_update.py``).
        """
        program, database = _parse_sources(program_source, database_source)
        return self._canonical_key(program, _canonical_layout(database)[1])

    def _canonical_key(self, program, database_text: str) -> str:
        """The canonical hash of a parsed program and its database's canonical text."""
        rule_lines = sorted(str(rule) for rule in program)
        digest = hashlib.sha256()
        digest.update("\n".join(rule_lines).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(database_text.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.grounder.encode("utf-8"))
        digest.update(repr(self.chase_config).encode("utf-8"))
        return digest.hexdigest()

    @staticmethod
    def canonical_database_source(database: Database) -> str:
        """*database* serialized as sorted ``fact.`` lines.

        Round-trips through :func:`~repro.logic.parser.parse_database` to the
        same :class:`Database`, so it is the textual form :meth:`update`
        returns to clients — querying with it hits the maintained entry.
        """
        return _canonical_layout(database)[1]

    # -- static checking -----------------------------------------------------------

    def check(self, program_source: str, database_source: str = "") -> ProgramAnalysis:
        """The static check of a request's sources (cached on raw text).

        Never raises for diagnostics — callers inspect
        :attr:`~repro.gdatalog.checker.ProgramAnalysis.ok` /
        :attr:`~repro.gdatalog.checker.ProgramAnalysis.diagnostics`.  The
        same cached analysis backs the validation gate, so checking first
        and then querying costs one checker run total.
        """
        raw = (program_source, database_source)
        with self._lock:
            analysis = self._analyses.get(raw)
            if analysis is not None:
                self._analyses.move_to_end(raw)
                return analysis
        analysis = check_source(program_source, database_source)
        self._remember_analysis(raw, analysis)
        return analysis

    def _remember_analysis(self, raw: tuple[str, str], analysis: ProgramAnalysis) -> None:
        with self._lock:
            self._analyses[raw] = analysis
            if len(self._analyses) > self._analyses_limit:
                self._analyses.popitem(last=False)

    def _validated(self, program_source: str, database_source: str) -> ProgramAnalysis | None:
        """The validation gate: the request's analysis, or ``None`` without validation.

        Callers run it *before* taking the global lock, so a cold check
        never blocks cache hits on other entries; :meth:`_lookup` then takes
        the analysis as an argument.
        """
        if not self.validate:
            return None
        analysis = self.check(program_source, database_source)
        analysis.raise_for_errors()
        return analysis

    # -- cache management ----------------------------------------------------------

    def engine(self, program_source: str, database_source: str = "") -> GDatalogEngine:
        """The cached engine for a request (built and inserted on miss)."""
        analysis = self._validated(program_source, database_source)
        return self._lookup(program_source, database_source, analysis)[1]

    def space(self, program_source: str, database_source: str = "") -> AbstractSpace:
        """The request's exact output space (:meth:`GDatalogEngine.output_space`).

        The engine builds it once, in parallel when the service has
        workers; when the service factorizes, only components not yet in
        the service's component cache pay for a chase.
        """
        return self.engine(program_source, database_source).output_space(workers=self.workers)

    def _sliced(
        self,
        program_source: str,
        database_source: str,
        queries,
        analysis: ProgramAnalysis | None,
    ) -> GDatalogEngine:
        """The engine of the batch's query-relevant slice, or the base engine.

        The base engine decides (:meth:`GDatalogEngine.relevant_slice`) and
        builds the sliced engine, which is cached on the base request key
        plus the slice's **relevant predicate set** — not the query atoms —
        so different queries that cut the program down to the same slice
        share one engine.  As in :meth:`_lookup`, the global lock guards
        only the bookkeeping, and a slice miss is counted when its engine
        is inserted.
        """
        base_key, base = self._lookup(program_source, database_source, analysis)
        slice_ = base.relevant_slice(queries)
        if slice_ is None:
            return base
        digest = hashlib.sha256()
        digest.update(base_key.encode("utf-8"))
        digest.update(b"\x00slice\x00")
        digest.update("\n".join(sorted(str(p) for p in slice_.predicates)).encode("utf-8"))
        key = digest.hexdigest()
        with self._lock:
            engine = self._hit(key, "slice_hits")
        if engine is None:
            built = base.slice_engine(slice_)
            with self._lock:
                engine = self._hit(key, "slice_hits")
                if engine is None:
                    self.stats.bump("slice_misses")
                    engine = self._insert(key, built)
        return engine

    def _lookup(
        self, program_source: str, database_source: str, analysis: ProgramAnalysis | None
    ) -> tuple[str, GDatalogEngine]:
        """``(key, engine)`` for a raw request, inserting on miss.

        The global lock guards only the bookkeeping: a miss parses the
        sources (once), keys them and builds the engine outside it, so a
        cold request never blocks hits on other entries; of two racing
        builds of one entry, the one that finishes second is dropped.
        *analysis* is the request's :meth:`_validated` result: with it, the
        sources passed the static checker before any key computation, and
        the engine is built from the checker's analysis.
        """
        raw = (program_source, database_source)
        with self._lock:
            key = self._raw_keys.get(raw)
            engine = self._hit(key)
        if engine is None:
            if analysis is not None:
                program, database = analysis.program, analysis.database or Database()
            else:
                program, database = _parse_sources(program_source, database_source)
            if key is None:
                key = self._canonical_key(program, _canonical_layout(database)[1])
                with self._lock:
                    self._remember_raw_key(raw, key)
                    engine = self._hit(key)
        if engine is None:
            built = GDatalogEngine(
                program,
                database,
                self.grounder,
                self.chase_config,
                analysis=analysis,
                component_cache=self._components,
            )
            with self._lock:
                engine = self._hit(key)
                if engine is None:
                    self.stats.bump("misses")
                    engine = self._insert(key, built)
        return key, engine

    def _hit(self, key: str | None, counter: str = "hits") -> GDatalogEngine | None:
        """The engine cached under *key*, counted as *counter*, or ``None``.

        Caller holds the lock.
        """
        engine = self._entries.get(key) if key is not None else None
        if engine is not None:
            self.stats.bump(counter)
            self._entries.move_to_end(key)
        return engine

    def _remember_raw_key(self, raw: tuple[str, str], key: str) -> None:
        """Map raw request text to its canonical key.  Caller holds the lock."""
        if len(self._raw_keys) >= self._raw_keys_limit:
            self._raw_keys.clear()
        self._raw_keys[raw] = key

    def _insert(self, key: str, engine: GDatalogEngine) -> GDatalogEngine:
        """Insert one engine and evict the LRU overflow.  Caller holds the lock."""
        self._entries[key] = engine
        if len(self._entries) > self.cache_size:
            self._entries.popitem(last=False)
            self.stats.bump("evictions")
        return engine

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached engine/component/analysis (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._raw_keys.clear()
            self._analyses.clear()
        self._components.clear()

    # -- streaming updates -------------------------------------------------------------

    def update(
        self,
        program_source: str,
        database_source: str,
        delta: DbDelta | dict,
    ) -> UpdateResult:
        """Apply a fact delta to the cached (program, database) entry.

        The base engine (and its space, when built) is delta-maintained via
        :func:`~repro.gdatalog.incremental.maintain_engine` and the new
        engine is cached under the **canonical post-delta key** — exactly
        the key :meth:`cache_key` computes for the returned
        ``database_source``, so an updated entry and a fresh request for
        the same database never occupy two slots.  The pre-delta entry is
        kept (its space stays valid for the old state) and ages out of the
        LRU naturally.

        With validation on, the post-delta analysis is derived from the
        base analysis (:meth:`~repro.gdatalog.checker.ProgramAnalysis.with_database`)
        and cached under ``(program_source, database_source)`` of the
        result, so a follow-up query on the returned text is not checked a
        second time; a post-delta text already analysed costs nothing.
        """
        if not isinstance(delta, DbDelta):
            delta = DbDelta.from_spec(delta)
        analysis = self._validated(program_source, database_source)
        _, base = self._lookup(program_source, database_source, analysis)
        new_engine, _, report = maintain_engine(base, delta)
        facts, new_source = _canonical_layout(new_engine.database)
        if analysis is not None:
            raw = (program_source, new_source)
            with self._lock:
                known = raw in self._analyses
            if not known:
                self._remember_analysis(
                    raw, analysis.with_database(new_engine.database, new_source, facts)
                )
        new_key = self._canonical_key(new_engine.program, new_source)
        with self._lock:
            if new_key in self._entries:
                # The post-delta state was already cached (e.g. queried
                # directly before, or a no-op delta): keep the existing
                # engine — it may hold more chase work than ours.
                self._entries.move_to_end(new_key)
            else:
                self._insert(new_key, new_engine)
            self._remember_raw_key((program_source, new_source), new_key)
            self.stats.bump("updates_applied")
            self.stats.bump("subtrees_invalidated", report.invalidated_subtrees)
            self.stats.bump("subtrees_reused", report.reused_subtrees)
        return UpdateResult(key=new_key, database_source=new_source, report=report)

    def replay(
        self,
        program_source: str,
        database_source: str,
        deltas: "Iterable[DbDelta | dict]",
    ) -> UpdateResult:
        """Fold a recorded delta sequence through :meth:`update` — the recovery path.

        Crash recovery (:mod:`repro.server.journal`) is *proved* against
        this method: replaying a stream's journaled deltas from its opening
        sources must land on exactly the state an uninterrupted server
        holds — same canonical ``database_source``, hence the same cache
        ``key`` and the same seeded estimates.  With no deltas the result
        simply canonicalizes the given sources (report mode ``"noop"``).
        """
        result: UpdateResult | None = None
        database = database_source
        for delta in deltas:
            result = self.update(program_source, database, delta)
            database = result.database_source
        if result is not None:
            return result
        program, parsed = _parse_sources(program_source, database_source)
        text = _canonical_layout(parsed)[1]
        return UpdateResult(
            key=self._canonical_key(program, text),
            database_source=text,
            report=UpdateReport(
                mode="noop",
                inserted=0,
                retracted=0,
                invalidated_subtrees=0,
                reused_subtrees=0,
            ),
        )

    # -- queries ---------------------------------------------------------------------

    def evaluate(
        self,
        program_source: str,
        database_source: str,
        queries,
        slice: bool | None = None,
    ) -> list[float]:
        """Exact batched evaluation; *queries* are specs (see ``query_from_spec``).

        *slice* overrides the service-level default: with slicing on, the
        chase is restricted to the batch's query-relevant slice, whose
        engine is cached under a slice-aware key (see :meth:`_sliced`).
        """
        use_slice = self.slice if slice is None else bool(slice)
        resolved = [query_from_spec(spec) for spec in queries]
        batch = QueryBatch(resolved)
        analysis = self._validated(program_source, database_source)
        if use_slice:
            engine = self._sliced(program_source, database_source, resolved, analysis)
        else:
            engine = self._lookup(program_source, database_source, analysis)[1]
        return batch.evaluate(engine.output_space(workers=self.workers))

    def estimate(
        self,
        program_source: str,
        database_source: str,
        query,
        target_half_width: float = 0.01,
        stratify: bool = False,
        seed: int | None = None,
        max_samples: int = 200_000,
    ) -> AdaptiveEstimate:
        """Adaptive Monte-Carlo estimation to a target Wilson half-width.

        Through :meth:`GDatalogEngine.adaptive_estimate`, so an engine whose
        space is built samples along its recorded chase tree.
        """
        resolved: Query = query_from_spec(query)
        engine = self.engine(program_source, database_source)
        return engine.adaptive_estimate(
            resolved,
            target_half_width=target_half_width,
            stratify=stratify,
            seed=seed,
            max_samples=max_samples,
        )
