"""Command-line interface for generative Datalog¬ inference.

Installed as the ``gdatalog`` console script (and callable with
``python -m repro``).  Sub-commands:

* ``run``      — exact inference: print the output probability space.
* ``query``    — exact marginal / has-stable-model queries.
* ``sample``   — Monte-Carlo estimation (fixed budget or ``--adaptive``).
* ``batch``    — many exact queries in one outcome pass, optionally with
  ``--workers N`` parallel chase exploration.
* ``serve``    — JSON-lines inference service on stdin/stdout backed by the
  LRU-cached :class:`~repro.runtime.service.InferenceService`.
* ``update``   — streaming evidence: apply fact-level deltas (JSON lines from
  a file or stdin / ``--follow``) with incremental view maintenance, printing
  one JSON line per delta with the maintenance report and fresh marginals.
* ``check``    — static program checks: lint-style diagnostics with stable
  ``GDLxxx`` codes and source spans (``--strict`` fails on warnings,
  ``--json`` emits the structured analysis).
* ``ground``   — show the translation Σ_Π and the grounding of the empty AtR set.
* ``graph``    — dependency graph / stratification of a program (Figure-1 style).

Examples::

    gdatalog run examples/programs/resilience.dl --database network.facts
    gdatalog query program.dl -d db.facts --atom "infected(2, 1)" --mode cautious
    gdatalog sample program.dl -d db.facts -n 5000 --seed 7
    gdatalog sample program.dl -d db.facts --adaptive --half-width 0.02
    gdatalog sample program.dl -d db.facts -n 20000 --seed 7 --workers 4
    gdatalog batch program.dl -d db.facts --atom "a(1)" --atom "b(2)" --workers 4
    gdatalog query program.dl -d db.facts --factorize --atom "a(1)"
    gdatalog query program.dl -d db.facts --slice --atom "a(1)"
    gdatalog batch program.dl -d db.facts --slice --atom "a(1)" --atom "b(2)"
    echo '{"program_path": "p.dl", "queries": ["a(1)"]}' | gdatalog serve --factorize --slice
    echo '{"insert": ["lap(5)"]}' | gdatalog update race.dl -d telemetry.facts --atom "wins(44)"
    tail -f laps.jsonl | gdatalog update race.dl -d telemetry.facts --follow --atom "wins(44)"
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import TextTable
from repro.exceptions import ReproError
from repro.gdatalog.chase import ChaseConfig
from repro.gdatalog.dependency import format_dependency_graph, format_stratification, to_dot
from repro.gdatalog.engine import GDatalogEngine, cache_profile_lines
from repro.gdatalog.grounders import heads_of
from repro.logic.parser import parse_gdatalog_program

__all__ = ["build_parser", "main"]


class CLIError(ReproError):
    """A user-facing CLI failure: printed as one readable line, exit code 1."""


def _read_text(path: str | None, role: str = "input") -> str:
    """Read a program/database file, mapping I/O failures to readable errors."""
    if path is None:
        return ""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CLIError(f"{role} file not found: {path}") from None
    except IsADirectoryError:
        raise CLIError(f"{role} path is a directory, not a file: {path}") from None
    except OSError as error:
        raise CLIError(f"cannot read {role} file {path}: {error.strerror or error}") from None


def _chase_config(args: argparse.Namespace) -> ChaseConfig:
    return ChaseConfig(
        max_depth=args.max_depth,
        max_outcomes=args.max_outcomes,
        mass_tolerance=args.mass_tolerance,
        factorize=getattr(args, "factorize", False),
    )


def _make_engine(args: argparse.Namespace) -> GDatalogEngine:
    return GDatalogEngine.from_source(
        _read_text(args.program, role="program"),
        _read_text(args.database, role="database"),
        grounder=args.grounder,
        chase_config=_chase_config(args),
    )


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", help="path to the GDatalog¬[Δ] program file")
    parser.add_argument("-d", "--database", help="path to the database (facts) file", default=None)
    parser.add_argument(
        "-g", "--grounder", choices=("simple", "perfect"), default="simple", help="grounder to use"
    )
    parser.add_argument("--max-depth", type=int, default=200, help="chase depth limit")
    parser.add_argument("--max-outcomes", type=int, default=200_000, help="maximum finite outcomes")
    parser.add_argument(
        "--mass-tolerance", type=float, default=1e-9, help="truncation tolerance for infinite supports"
    )
    parser.add_argument(
        "--factorize",
        action="store_true",
        help="decompose exact inference into independent ground components "
        "(falls back to the sequential chase when the program is connected)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="append a profile summary (chase tree size, cache hit rates, grounding time, "
        "join-engine index probes vs. scans and plan-cache traffic)",
    )


def _add_slice_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--slice",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="chase only the query-relevant slice of the program "
        "(bit-identical answers; falls back to the full program when "
        "nothing can be cut)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level ``argparse`` parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="gdatalog", description="Generative Datalog with stable negation — inference CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="exact inference: print the output space")
    _add_common_arguments(run_parser)
    run_parser.add_argument("--show-outcomes", action="store_true", help="list every possible outcome")

    query_parser = subparsers.add_parser("query", help="exact marginal / stable-model queries")
    _add_common_arguments(query_parser)
    query_parser.add_argument("--atom", action="append", default=[], help="atom to query (repeatable)")
    query_parser.add_argument(
        "--mode", choices=("brave", "cautious"), default="brave", help="marginal mode"
    )
    _add_slice_argument(query_parser)

    sample_parser = subparsers.add_parser("sample", help="Monte-Carlo estimation")
    _add_common_arguments(sample_parser)
    sample_parser.add_argument(
        "-n",
        "--samples",
        type=int,
        default=1000,
        help="number of samples (with --adaptive: the maximum sample budget)",
    )
    sample_parser.add_argument("--seed", type=int, default=None, help="random seed")
    sample_parser.add_argument("--atom", action="append", default=[], help="atom to estimate (repeatable)")
    sample_parser.add_argument(
        "--adaptive",
        action="store_true",
        help="sample in chunks until the Wilson confidence interval is narrow enough",
    )
    sample_parser.add_argument(
        "--half-width",
        type=float,
        default=0.05,
        help="target Wilson half-width for --adaptive (default 0.05, "
        "reachable within the default -n 1000 budget at any probability)",
    )
    sample_parser.add_argument(
        "--stratify",
        action="store_true",
        help="with --adaptive: stratify over the first trigger's branches",
    )
    sample_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="draw samples on N worker processes with independent "
        "SeedSequence-spawned RNG streams (seeded runs stay deterministic)",
    )

    batch_parser = subparsers.add_parser(
        "batch", help="many exact queries in a single pass over the outcomes"
    )
    _add_common_arguments(batch_parser)
    batch_parser.add_argument("--atom", action="append", default=[], help="atom to query (repeatable)")
    batch_parser.add_argument(
        "--mode", choices=("brave", "cautious"), default="brave", help="marginal mode"
    )
    batch_parser.add_argument(
        "--workers", type=int, default=None, help="explore the chase tree with N worker processes"
    )
    batch_parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    _add_slice_argument(batch_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="inference service: JSON-lines on stdin/stdout, or --http HOST:PORT",
    )
    serve_parser.add_argument(
        "-g", "--grounder", choices=("simple", "perfect"), default="simple", help="grounder to use"
    )
    serve_parser.add_argument("--cache-size", type=int, default=32, help="engine LRU cache capacity")
    serve_parser.add_argument(
        "--workers", type=int, default=None, help="worker processes for exact requests"
    )
    serve_parser.add_argument(
        "--factorize",
        action="store_true",
        help="factorize exact requests into independent components "
        "(components are cached and reused across requests)",
    )
    serve_parser.add_argument(
        "--max-requests", type=int, default=None, help="stop after N requests (mainly for tests)"
    )
    _add_slice_argument(serve_parser)
    serve_parser.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help="serve over HTTP/WebSocket instead of stdin (e.g. 127.0.0.1:8080; "
        "port 0 picks a free port, printed to stderr)",
    )
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="persistent worker processes behind --http; requests are routed "
        "by canonical program hash so each shard keeps an isolated engine cache",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="per-shard in-flight bound before 503 load shedding (--http)",
    )
    serve_parser.add_argument(
        "--client-rate",
        type=float,
        default=200.0,
        help="per-client sustained requests/second before 429 (--http)",
    )
    serve_parser.add_argument(
        "--client-burst",
        type=float,
        default=400.0,
        help="per-client burst budget (token-bucket capacity, --http)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="maximum seconds to finish in-flight requests after SIGTERM (--http)",
    )
    serve_parser.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="write-ahead journal directory for named streams: every stream "
        "open and delta is made durable before it is acknowledged, and on "
        "boot the journal replays so streams resume at their exact "
        "post-delta state (--http only)",
    )
    serve_parser.add_argument(
        "--journal-fsync",
        choices=("always", "batch", "never"),
        default="always",
        help="journal durability policy: fsync every record (always, the "
        "default), every few records (batch), or leave flushing to the OS "
        "(never)",
    )
    serve_parser.add_argument(
        "--journal-max-bytes",
        type=int,
        default=None,
        help="compact the journal with a snapshot once it grows past this "
        "many bytes (default 16 MiB)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-request deadline in seconds: a request that exceeds it "
        "answers 504 with no state recorded, so it is always safe to retry "
        "(--http only; default: no deadline)",
    )

    update_parser = subparsers.add_parser(
        "update",
        help="apply streaming fact deltas with incremental view maintenance",
    )
    _add_common_arguments(update_parser)
    update_parser.add_argument(
        "--deltas",
        metavar="FILE",
        default=None,
        help="JSON-lines delta feed ('-' or omitted: read stdin); each line is "
        'a delta object like {"insert": ["p(1)"], "retract": ["q(2)"]}',
    )
    update_parser.add_argument(
        "--follow",
        action="store_true",
        help="stream from stdin, answering each delta as it arrives "
        "(output is flushed per line; end the feed with EOF)",
    )
    update_parser.add_argument(
        "--atom", action="append", default=[], help="atom to re-query after every delta (repeatable)"
    )
    update_parser.add_argument(
        "--mode", choices=("brave", "cautious"), default="brave", help="marginal mode"
    )

    check_parser = subparsers.add_parser(
        "check",
        help="static program checks: lint-style diagnostics with stable GDLxxx codes",
    )
    check_parser.add_argument("program", help="path to the GDatalog¬[Δ] program file")
    check_parser.add_argument(
        "-d", "--database", help="path to the database (facts) file", default=None
    )
    check_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full analysis (diagnostics + strategy summary) as JSON",
    )
    check_parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (exit code 1)",
    )

    ground_parser = subparsers.add_parser("ground", help="show the translation and initial grounding")
    _add_common_arguments(ground_parser)

    graph_parser = subparsers.add_parser("graph", help="dependency graph and stratification")
    graph_parser.add_argument("program", help="path to the GDatalog¬[Δ] program file")
    graph_parser.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead of ASCII")

    return parser


# ---------------------------------------------------------------------------
# Sub-command implementations (each returns the text to print)
# ---------------------------------------------------------------------------


def _command_run(args: argparse.Namespace) -> str:
    engine = _make_engine(args)
    lines = [engine.report()]
    if args.show_outcomes:
        lines.append("")
        for outcome in engine.possible_outcomes():
            lines.append(str(outcome))
    if args.profile:
        lines += ["", engine.profile_summary()]
    return "\n".join(lines)


def _command_query(args: argparse.Namespace) -> str:
    engine = _make_engine(args)
    target = engine
    if args.slice:
        from repro.ppdl.queries import AtomQuery, HasStableModelQuery

        queries = [HasStableModelQuery()] + [AtomQuery.of(t, args.mode) for t in args.atom]
        target = engine.sliced(queries)
    table = TextTable(["query", "probability"], title=f"exact queries ({args.mode} mode)")
    table.add_row("has stable model", target.probability_has_stable_model())
    for atom_text in args.atom:
        table.add_row(atom_text, target.marginal(atom_text, mode=args.mode))
    rendered = table.render()
    if args.slice and target.query_slice is not None:
        rendered += "\n" + target.query_slice.summary()
    if args.profile:
        rendered += "\n\n" + target.profile_summary()
    return rendered


def _command_sample(args: argparse.Namespace) -> str:
    engine = _make_engine(args)
    if args.adaptive:
        rendered = _render_adaptive_estimates(engine, args)
    elif args.workers is not None and args.workers > 1:
        rendered = _render_parallel_estimates(engine, args)
    else:
        table = TextTable(
            ["query", "estimate", "std error"], title=f"Monte-Carlo ({args.samples} samples)"
        )
        estimate = engine.estimate_has_stable_model(n=args.samples, seed=args.seed)
        table.add_row("has stable model", estimate.value, estimate.standard_error)
        for atom_text in args.atom:
            atom_estimate = engine.estimate_marginal(atom_text, n=args.samples, seed=args.seed)
            table.add_row(atom_text, atom_estimate.value, atom_estimate.standard_error)
        rendered = table.render()
    if args.profile:
        # Sampling never runs the exhaustive chase; report the caches that
        # the sampled outcome evaluations actually exercised.
        rendered += "\n\n" + "\n".join(cache_profile_lines())
    return rendered


def _render_parallel_estimates(engine: GDatalogEngine, args: argparse.Namespace) -> str:
    """Fixed-budget estimation across worker processes (independent RNG streams)."""
    from repro.ppdl.queries import AtomQuery, HasStableModelQuery
    from repro.runtime.pool import ParallelSampler

    sampler = ParallelSampler(
        engine.grounder, engine.chase_config, workers=args.workers, seed=args.seed
    )
    table = TextTable(
        ["query", "estimate", "std error"],
        title=f"Monte-Carlo ({args.samples} samples, {args.workers} workers)",
    )
    queries = [("has stable model", HasStableModelQuery())]
    queries += [(atom_text, AtomQuery.of(atom_text)) for atom_text in args.atom]
    for label, query in queries:
        estimate = sampler.estimate_query(query, n=args.samples)
        table.add_row(label, estimate.value, estimate.standard_error)
    return table.render()


def _render_adaptive_estimates(engine: GDatalogEngine, args: argparse.Namespace) -> str:
    from repro.ppdl.queries import AtomQuery, HasStableModelQuery

    table = TextTable(
        ["query", "estimate", "half-width", "samples", "converged"],
        title=f"adaptive Monte-Carlo (target half-width {args.half_width})",
    )
    queries = [("has stable model", HasStableModelQuery())]
    queries += [(atom_text, AtomQuery.of(atom_text)) for atom_text in args.atom]
    for label, query in queries:
        result = engine.adaptive_estimate(
            query,
            target_half_width=args.half_width,
            stratify=args.stratify,
            seed=args.seed,
            max_samples=args.samples,
        )
        table.add_row(label, result.value, result.half_width, result.samples, result.converged)
    return table.render()


def _command_batch(args: argparse.Namespace) -> str:
    from repro.ppdl.queries import AtomQuery, HasStableModelQuery

    engine = _make_engine(args)
    queries = [HasStableModelQuery()] + [AtomQuery.of(text, args.mode) for text in args.atom]
    labels = ["has stable model"] + list(args.atom)
    target = engine.sliced(queries) if args.slice else engine
    probabilities = target.evaluate_queries(queries, workers=args.workers)
    if args.json:
        return json.dumps(dict(zip(labels, probabilities)), indent=2)
    table = TextTable(
        ["query", "probability"],
        title=f"batched exact queries ({args.mode} mode, one outcome pass)",
    )
    for label, probability in zip(labels, probabilities):
        table.add_row(label, probability)
    rendered = table.render()
    if args.profile:
        if args.workers is not None and args.workers > 1:
            # profile_summary() would trigger the engine's *sequential*
            # cached chase — redundant work that would also misdescribe the
            # parallel run; report the process-wide caches instead.
            rendered += "\n\n" + "\n".join(cache_profile_lines())
        else:
            rendered += "\n\n" + target.profile_summary()
    return rendered


def _parse_http_address(value: str) -> tuple[str, int]:
    """``HOST:PORT`` (or ``:PORT`` / bare ``PORT``) → (host, port)."""
    host, _, port_text = value.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise CLIError(f"--http expects HOST:PORT, got {value!r}") from None
    if not 0 <= port <= 65535:
        raise CLIError(f"--http port must be in [0, 65535], got {port}")
    return host, port


def _command_serve(args: argparse.Namespace) -> str:
    """Run the inference service on the selected transport.

    The default transport is the JSON-lines loop (one request per stdin
    line, one response per stdout line); ``--http HOST:PORT`` starts the
    asyncio HTTP/WebSocket front end instead (sharded worker processes,
    micro-batching, admission control — see :mod:`repro.server`).  In both
    transports responses mirror the request's ``id`` and either carry
    ``results`` (aligned with the ``queries`` list) or ``ok: false`` with a
    readable ``error``; a malformed request never kills the serving loop.
    """
    if args.http is None and (args.journal or args.request_timeout is not None):
        raise CLIError(
            "--journal and --request-timeout require the HTTP transport (--http HOST:PORT)"
        )
    if args.http is not None:
        import asyncio

        from repro.server.http import ServerConfig, serve_http
        from repro.server.journal import DEFAULT_MAX_BYTES

        host, port = _parse_http_address(args.http)
        if args.journal_max_bytes is not None and args.journal_max_bytes < 1:
            raise CLIError("--journal-max-bytes must be positive")
        if args.request_timeout is not None and args.request_timeout <= 0:
            raise CLIError("--request-timeout must be positive")
        config = ServerConfig(
            host=host,
            port=port,
            shards=args.shards,
            cache_size=args.cache_size,
            grounder=args.grounder,
            factorize=args.factorize,
            slice=args.slice,
            max_queue=args.max_queue,
            client_rate=args.client_rate,
            client_burst=args.client_burst,
            drain_timeout=args.drain_timeout,
            journal_dir=args.journal,
            journal_fsync=args.journal_fsync,
            journal_max_bytes=(
                DEFAULT_MAX_BYTES if args.journal_max_bytes is None else args.journal_max_bytes
            ),
            request_timeout=args.request_timeout,
        )
        asyncio.run(serve_http(config))
        return ""

    from repro.runtime.service import InferenceService
    from repro.server.protocol import StreamRegistry, answer_line

    service = InferenceService(
        cache_size=args.cache_size,
        grounder=args.grounder,
        workers=args.workers,
        factorize=args.factorize,
        slice=args.slice,
    )
    # Named evidence streams live in this loop, not in the service: the
    # stdin transport is the front end here, mirroring the HTTP server.
    streams = StreamRegistry()
    served = 0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        # ``answer_line`` never raises and always echoes the request ``id``
        # (``null`` when the line was not even valid JSON), so pipelined
        # clients keep request/response correlation across malformed input.
        response = answer_line(service, line, streams)
        response["cache"] = service.stats.snapshot()
        print(json.dumps(response), flush=True)
        served += 1
        if args.max_requests is not None and served >= args.max_requests:
            break
    # Keep stdout pure JSON-lines for protocol clients; the human summary
    # goes to stderr.
    print(
        f"served {served} request(s); cache hit rate {service.stats.hit_rate:.1%}",
        file=sys.stderr,
    )
    return ""


def _delta_lines(args: argparse.Namespace):
    """The delta feed: JSON lines from ``--deltas FILE`` or stdin (``--follow``)."""
    if args.deltas not in (None, "-"):
        if args.follow:
            raise CLIError("--follow streams from stdin; it cannot be combined with --deltas FILE")
        return _read_text(args.deltas, role="deltas").splitlines()
    return sys.stdin


def _command_update(args: argparse.Namespace) -> str:
    """Apply a feed of fact deltas, maintaining the output space incrementally.

    One JSON output line per delta — the maintenance report (mode,
    invalidated/reused subtree counts) plus fresh marginals for every
    ``--atom`` — flushed per line so ``tail -f feed | gdatalog update
    --follow`` behaves as a live dashboard.  A malformed line answers
    ``ok: false`` and the feed continues: one bad delta must not kill a
    stream, exactly as in the serve protocol.

    The feed always ends with a flushed summary line
    ``{"ok": true, "done": true, "applied": N, "errors": M, ...}`` and exit
    code 0 — including when Ctrl-C lands mid-stream or the upstream pipe
    closes stdin, so a supervisor tailing the output can always tell a
    clean shutdown from a crash.
    """
    engine = _make_engine(args)
    engine.output_space()  # chase once up front; every delta then maintains it
    applied = 0
    errors = 0
    interrupted = False
    try:
        for line in _delta_lines(args):
            line = line.strip()
            if not line:
                continue
            try:
                spec = json.loads(line)
            except json.JSONDecodeError as error:
                errors += 1
                print(
                    json.dumps({"ok": False, "error": f"invalid JSON delta: {error}"}),
                    flush=True,
                )
                continue
            if isinstance(spec, dict) and isinstance(spec.get("delta"), dict):
                spec = spec["delta"]
            try:
                engine = engine.updated(spec)
                report = engine.last_update_report
                response = {"ok": True, "update": report.as_dict()}
                if args.atom:
                    response["results"] = {
                        atom_text: engine.marginal(atom_text, mode=args.mode)
                        for atom_text in args.atom
                    }
            except ReproError as error:
                errors += 1
                response = {"ok": False, "error": str(error)}
            else:
                applied += 1
            print(json.dumps(response), flush=True)
    except KeyboardInterrupt:
        # Ctrl-C mid-stream is a *normal* way to end a --follow session.
        interrupted = True
    except ValueError:
        # Reading from a stdin the upstream already closed raises
        # "I/O operation on closed file" — treat it like EOF.
        interrupted = True
    summary = {
        "ok": True,
        "done": True,
        "applied": applied,
        "errors": errors,
        "interrupted": interrupted,
    }
    try:
        print(json.dumps(summary), flush=True)
    except BrokenPipeError:
        pass
    try:
        print(f"applied {applied} delta(s)", file=sys.stderr)
    except BrokenPipeError:
        pass
    return ""


def _command_check(args: argparse.Namespace) -> tuple[str, int]:
    """Statically check a program (and optional database), lint style.

    Exit code 0 when no error-severity diagnostic fired (``--strict`` also
    fails on warnings); the diagnostics themselves go to stdout, one
    ``file:line:col: severity GDLxxx: message`` line each (or the full
    structured analysis with ``--json``).
    """
    from repro.gdatalog.checker import check_source, render_diagnostics

    program_source = _read_text(args.program, role="program")
    database_source = _read_text(args.database, role="database")
    analysis = check_source(program_source, database_source)
    errors = len(analysis.errors())
    warnings = len(analysis.warnings())
    infos = len(analysis.diagnostics) - errors - warnings
    failed = errors > 0 or (args.strict and warnings > 0)
    if args.json:
        payload = analysis.as_dict()
        payload["clean"] = not failed
        return json.dumps(payload, indent=2), 1 if failed else 0
    lines = []
    rendered = render_diagnostics(
        analysis.diagnostics,
        filename=args.program,
        database_filename=args.database or "<database>",
    )
    if rendered:
        lines.append(rendered)
    verdict = "FAILED" if failed else "OK"
    lines.append(
        f"{args.program}: {verdict} — {errors} error(s), "
        f"{warnings} warning(s), {infos} info(s)"
    )
    return "\n".join(lines), 1 if failed else 0


def _command_ground(args: argparse.Namespace) -> str:
    engine = _make_engine(args)
    translated = engine.translated
    lines = ["% Σ∄_Π (existential-free part of the translation)"]
    lines.extend(str(rule_) for rule_ in translated.existential_free_rules)
    lines.append("")
    lines.append("% AtR specs (Σ∃_Π up to grounding)")
    for spec in translated.atr_specs:
        lines.append(
            f"% {spec.active_predicate} -> exists y . {spec.result_predicate} "
            f"[distribution {spec.distribution}]"
        )
    grounding = engine.grounder.ground(frozenset())
    lines.append("")
    lines.append(f"% G(∅): {len(grounding)} ground rules, {len(heads_of(grounding))} head atoms")
    lines.extend(str(rule_) for rule_ in sorted(grounding, key=str))
    return "\n".join(lines)


def _command_graph(args: argparse.Namespace) -> str:
    program = parse_gdatalog_program(_read_text(args.program, role="program"))
    if args.dot:
        return to_dot(program)
    lines = ["dependency graph dg(Π):", format_dependency_graph(program), ""]
    if program.is_stratified:
        lines.append("stratification:")
        lines.append(format_stratification(program))
    else:
        lines.append("program is NOT stratified (a cycle traverses a negative edge)")
    return "\n".join(lines)


_COMMANDS = {
    "run": _command_run,
    "query": _command_query,
    "sample": _command_sample,
    "batch": _command_batch,
    "serve": _command_serve,
    "update": _command_update,
    "check": _command_check,
    "ground": _command_ground,
    "graph": _command_graph,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    # Lint-style commands return (text, exit_code); the rest return text
    # (exit 0) — ``check`` signals findings through the code, not stderr.
    code = 0
    if isinstance(output, tuple):
        output, code = output
    if output:
        print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
