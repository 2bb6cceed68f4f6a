"""Unit tests for the ``gdatalog`` command-line interface."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent
RESILIENCE_PROGRAM = REPO_ROOT / "examples" / "programs" / "resilience.dl"
RESILIENCE_FACTS = REPO_ROOT / "examples" / "programs" / "resilience.facts"
DIME_QUARTER_PROGRAM = REPO_ROOT / "examples" / "programs" / "dime_quarter.dl"
DIME_QUARTER_FACTS = REPO_ROOT / "examples" / "programs" / "dime_quarter.facts"
COIN_PROGRAM = REPO_ROOT / "examples" / "programs" / "coin.dl"

#: Removed flags, each with a command line that once accepted it.
REMOVED_FLAGS = {
    "--no-columnar": ["run", str(COIN_PROGRAM), "--no-columnar"],
    "--no-incremental": ["run", str(COIN_PROGRAM), "--no-incremental"],
    "--batch-window": ["serve", "--batch-window", "2"],
}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "program.dl"])
        assert args.command == "run"
        assert args.grounder == "simple"
        assert args.database is None

    def test_query_collects_atoms(self):
        args = build_parser().parse_args(
            ["query", "p.dl", "--atom", "a(1)", "--atom", "b(2)", "--mode", "cautious"]
        )
        assert args.atom == ["a(1)", "b(2)"]
        assert args.mode == "cautious"

    def test_invalid_grounder_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "p.dl", "--grounder", "clever"])

    @pytest.mark.parametrize("flag", list(REMOVED_FLAGS))
    def test_removed_reference_flags_rejected(self, flag, capsys, monkeypatch):
        # An accepted ``serve`` line would read requests from stdin.
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as excinfo:
            main(REMOVED_FLAGS[flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestCommands:
    def test_run_prints_space_summary(self, capsys):
        exit_code = main(["run", str(RESILIENCE_PROGRAM), "-d", str(RESILIENCE_FACTS)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "P(has stable model):        0.190000" in captured.out

    def test_run_show_outcomes(self, capsys):
        exit_code = main(["run", str(COIN_PROGRAM), "--show-outcomes"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "PossibleOutcome" in captured.out

    def test_query_marginals(self, capsys):
        exit_code = main(
            [
                "query",
                str(RESILIENCE_PROGRAM),
                "-d",
                str(RESILIENCE_FACTS),
                "--atom",
                "infected(2, 1)",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "has stable model" in captured.out
        assert "infected(2, 1)" in captured.out

    def test_sample_estimates(self, capsys):
        exit_code = main(
            [
                "sample",
                str(RESILIENCE_PROGRAM),
                "-d",
                str(RESILIENCE_FACTS),
                "-n",
                "200",
                "--seed",
                "1",
                "--atom",
                "infected(2, 1)",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Monte-Carlo (200 samples)" in captured.out

    def test_ground_lists_translation(self, capsys):
        exit_code = main(["ground", str(DIME_QUARTER_PROGRAM), "-d", str(DIME_QUARTER_FACTS)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "active_flip_1_1" in captured.out
        assert "G(∅)" in captured.out

    def test_graph_ascii_and_dot(self, capsys):
        assert main(["graph", str(DIME_QUARTER_PROGRAM)]) == 0
        ascii_output = capsys.readouterr().out
        assert "somedimetail -> quartertail [neg]" in ascii_output
        assert "stratification:" in ascii_output

        assert main(["graph", str(DIME_QUARTER_PROGRAM), "--dot"]) == 0
        dot_output = capsys.readouterr().out
        assert dot_output.startswith("digraph")

    def test_graph_reports_unstratified_program(self, tmp_path, capsys):
        program = tmp_path / "unstratified.dl"
        program.write_text("a(X) :- e(X), not b(X).\nb(X) :- e(X), not a(X).\n")
        assert main(["graph", str(program)]) == 0
        assert "NOT stratified" in capsys.readouterr().out

    def test_missing_file_is_reported(self, capsys):
        exit_code = main(["run", "does-not-exist.dl"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err == "error: program file not found: does-not-exist.dl\n"
        assert "Traceback" not in captured.err

    def test_missing_database_file_is_reported(self, capsys):
        exit_code = main(["run", str(COIN_PROGRAM), "-d", "no-such.facts"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err == "error: database file not found: no-such.facts\n"

    def test_directory_instead_of_file_is_reported(self, tmp_path, capsys):
        exit_code = main(["run", str(tmp_path)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "is a directory" in captured.err
        assert "Traceback" not in captured.err

    def test_parse_error_is_reported(self, tmp_path, capsys):
        broken = tmp_path / "broken.dl"
        broken.write_text("p(X) :- q(X)")  # missing final dot
        exit_code = main(["run", str(broken)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_batch_single_pass_queries(self, capsys):
        exit_code = main(
            [
                "batch",
                str(RESILIENCE_PROGRAM),
                "-d",
                str(RESILIENCE_FACTS),
                "--atom",
                "infected(2, 1)",
                "--atom",
                "infected(3, 1)",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "has stable model" in captured.out
        assert "infected(2, 1)" in captured.out

    def test_batch_json_output_matches_query_command(self, capsys):
        import json

        exit_code = main(
            ["batch", str(RESILIENCE_PROGRAM), "-d", str(RESILIENCE_FACTS), "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["has stable model"] == pytest.approx(0.19)

    def test_batch_with_workers(self, capsys):
        exit_code = main(
            [
                "batch",
                str(RESILIENCE_PROGRAM),
                "-d",
                str(RESILIENCE_FACTS),
                "--workers",
                "2",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        import json

        assert json.loads(captured.out)["has stable model"] == pytest.approx(0.19)

    def test_sample_adaptive(self, capsys):
        exit_code = main(
            [
                "sample",
                str(COIN_PROGRAM),
                "--adaptive",
                "--half-width",
                "0.05",
                "--seed",
                "3",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "adaptive Monte-Carlo" in captured.out
        assert "has stable model" in captured.out

    def test_serve_json_lines(self, capsys, monkeypatch):
        import io
        import json

        requests = [
            json.dumps(
                {
                    "id": 1,
                    "program_path": str(RESILIENCE_PROGRAM),
                    "database_path": str(RESILIENCE_FACTS),
                    "queries": [{"type": "has_stable_model"}, "infected(2, 1)"],
                }
            ),
            json.dumps({"id": 2, "program_path": str(RESILIENCE_PROGRAM), "database_path": str(RESILIENCE_FACTS)}),
            "this is not json",
            json.dumps({"id": 4}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        exit_code = main(["serve"])
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = [json.loads(line) for line in captured.out.strip().splitlines() if line.startswith("{")]
        assert len(lines) == 4
        first, second, bad_json, missing_program = lines
        assert first["ok"] and first["id"] == 1
        assert first["results"][0] == pytest.approx(0.19)
        # Request 2 reuses the cached engine for the same program/database.
        assert second["ok"] and second["cache"]["hits"] >= 1
        assert not bad_json["ok"] and "invalid JSON" in bad_json["error"]
        assert not missing_program["ok"] and "program" in missing_program["error"]

    def test_serve_survives_malformed_field_types(self, capsys, monkeypatch):
        import io
        import json

        requests = [
            json.dumps(
                {
                    "id": 1,
                    "program_path": str(COIN_PROGRAM),
                    "adaptive": True,
                    "half_width": "0.1",  # wrong type: string instead of number
                }
            ),
            json.dumps({"id": 2, "program_path": str(COIN_PROGRAM), "queries": 42}),
            json.dumps({"id": 3, "program_path": str(COIN_PROGRAM), "queries": ["coin(1)"]}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        exit_code = main(["serve"])
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = [json.loads(line) for line in captured.out.strip().splitlines() if line.startswith("{")]
        assert len(lines) == 3  # the bad requests answered with errors, loop survived
        assert not lines[0]["ok"] and not lines[1]["ok"]
        assert lines[2]["ok"] and lines[2]["results"] == [pytest.approx(0.5)]

    def test_serve_max_requests(self, capsys, monkeypatch):
        import io
        import json

        request = json.dumps({"program_path": str(COIN_PROGRAM), "queries": ["coin(1)"]})
        monkeypatch.setattr("sys.stdin", io.StringIO((request + "\n") * 5))
        exit_code = main(["serve", "--max-requests", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.count('"ok": true') == 2
        # stdout stays pure JSON-lines for protocol clients; summary on stderr.
        assert all(line.startswith("{") for line in captured.out.strip().splitlines())
        assert "served 2 request(s)" in captured.err

    def test_module_invocation(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "graph", str(DIME_QUARTER_PROGRAM)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0
        assert "dependency graph" in result.stdout

    def test_cli_import_leaves_networkx_unloaded(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-c", "import sys, repro.cli; print('networkx' in sys.modules)"],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_cli_import_leaves_numpy_unloaded(self):
        """NumPy loads on the first seeded draw, not when ``repro.rng`` is imported."""
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli\n"
            "from repro.rng import seeded_random\n"
            "print('numpy' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, cwd=str(REPO_ROOT)
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestSliceFlag:
    """The ``--slice/--no-slice`` flags on ``query``, ``batch`` and ``serve``."""

    WIDE_PROGRAM = (
        "coin1(X, flip<0.5>[1, X]) :- src1(X).\n"
        "hit1(X) :- coin1(X, 1).\n"
        "coin2(X, flip<0.5>[2, X]) :- src2(X).\n"
        "hit2(X) :- coin2(X, 1).\n"
    )
    WIDE_FACTS = "src1(1). src2(1)."

    @pytest.fixture()
    def wide_paths(self, tmp_path):
        program = tmp_path / "wide.dl"
        program.write_text(self.WIDE_PROGRAM, encoding="utf-8")
        facts = tmp_path / "wide.facts"
        facts.write_text(self.WIDE_FACTS, encoding="utf-8")
        return str(program), str(facts)

    def test_parser_accepts_both_spellings(self):
        assert build_parser().parse_args(["query", "p.dl", "--slice"]).slice is True
        assert build_parser().parse_args(["query", "p.dl", "--no-slice"]).slice is False
        assert build_parser().parse_args(["batch", "p.dl"]).slice is False
        assert build_parser().parse_args(["serve", "--slice"]).slice is True

    def test_query_slice_matches_full(self, capsys, wide_paths):
        program, facts = wide_paths

        def run(*extra):
            assert main(["query", program, "-d", facts, "--atom", "hit1(1)", *extra]) == 0
            return capsys.readouterr().out

        sliced = run("--slice")
        full = run("--no-slice")
        assert "0.5" in sliced
        assert "slice: 2/4 rules" in sliced
        # Identical probability table (the slice summary line aside).
        assert [l for l in sliced.splitlines() if "hit1" in l] == [
            l for l in full.splitlines() if "hit1" in l
        ]

    def test_batch_slice_json_matches_full(self, capsys, wide_paths):
        import json

        program, facts = wide_paths

        def run(*extra):
            code = main(
                ["batch", program, "-d", facts, "--atom", "hit2(1)", "--json", *extra]
            )
            assert code == 0
            return json.loads(capsys.readouterr().out)

        assert run("--slice") == run()

    def test_serve_slice_flag_and_override(self, capsys, monkeypatch, wide_paths):
        import io
        import json

        program, facts = wide_paths
        requests = [
            json.dumps({"id": 1, "program_path": program, "database_path": facts, "queries": ["hit1(1)"]}),
            json.dumps(
                {
                    "id": 2,
                    "program_path": program,
                    "database_path": facts,
                    "queries": ["hit1(1)"],
                    "slice": False,
                }
            ),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        assert main(["serve", "--slice"]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert [line["ok"] for line in lines] == [True, True]
        assert lines[0]["results"] == lines[1]["results"] == [pytest.approx(0.5)]


class TestUpdateCommand:
    """The streaming-update loop always ends with a flushed JSON summary."""

    @pytest.fixture
    def stream_program(self, tmp_path):
        program = tmp_path / "stream.dl"
        program.write_text("coin(X, flip<0.5>[X]) :- src(X).\nhit(X) :- coin(X, 1).\n")
        facts = tmp_path / "stream.facts"
        facts.write_text("src(1).\n")
        return str(program), str(facts)

    def _summary(self, captured_out):
        import json

        lines = [json.loads(line) for line in captured_out.strip().splitlines()]
        assert lines, "update printed no output"
        summary = lines[-1]
        assert summary.get("done") is True
        return lines[:-1], summary

    def test_clean_eof_emits_summary_and_exits_zero(self, capsys, monkeypatch, stream_program):
        import io
        import json

        program, facts = stream_program
        feed = [
            json.dumps({"insert": ["src(2)"]}),
            "this is not json",
            json.dumps({"insert": ["src(3)"]}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(feed) + "\n"))
        exit_code = main(["update", program, "-d", facts, "--atom", "hit(2)"])
        captured = capsys.readouterr()
        assert exit_code == 0
        responses, summary = self._summary(captured.out)
        assert [r["ok"] for r in responses] == [True, False, True]
        assert summary == {
            "ok": True, "done": True, "applied": 2, "errors": 1, "interrupted": False,
        }

    def test_sigint_mid_stream_still_flushes_summary(self, capsys, monkeypatch, stream_program):
        import json

        program, facts = stream_program

        class InterruptedFeed:
            """One good delta, then Ctrl-C lands mid-read."""

            def __iter__(self):
                yield json.dumps({"insert": ["src(2)"]})
                raise KeyboardInterrupt

        monkeypatch.setattr("sys.stdin", InterruptedFeed())
        exit_code = main(["update", program, "-d", facts])
        captured = capsys.readouterr()
        assert exit_code == 0  # a Ctrl-C'd follow session is a clean exit
        responses, summary = self._summary(captured.out)
        assert [r["ok"] for r in responses] == [True]
        assert summary == {
            "ok": True, "done": True, "applied": 1, "errors": 0, "interrupted": True,
        }

    def test_closed_stdin_is_treated_as_eof(self, capsys, monkeypatch, stream_program):
        import json

        program, facts = stream_program

        class ClosingFeed:
            """The upstream pipe closes stdin under us (tail -f killed)."""

            def __iter__(self):
                yield json.dumps({"insert": ["src(2)"]})
                raise ValueError("I/O operation on closed file")

        monkeypatch.setattr("sys.stdin", ClosingFeed())
        exit_code = main(["update", program, "-d", facts])
        captured = capsys.readouterr()
        assert exit_code == 0
        _, summary = self._summary(captured.out)
        assert summary["interrupted"] is True and summary["applied"] == 1
