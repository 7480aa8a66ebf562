"""Command-line surface: parsing, round trips, determinism, exit codes."""
from __future__ import annotations

import ast
import gc
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hamb import cli, selftest
from hamb.errors import GraphSizeError, ParseError, PolicyError
from hamb.exact import ham_dp
from hamb.graphs import DiGraph, UndiGraph, gen_family, gen_gnp
from hamb.io import load_table_policy, parse_graph, serialize_graph, sha256_hex
from hamb.pcg import Stream

from conftest import SRC, run_cli


# Whitespace to str.split() and re's \S, but not a token separator in a text file.
UNICODE_SPACES = ["\u3000", "\xa0", "\x85", "\u2028", "\x1f"]
UNICODE_SPACE_IDS = ["ideographic", "no-break", "next-line", "line-separator", "unit-separator"]


class TestParseGraph:
    def test_text_undirected(self):
        g = parse_graph("3 3 undirected\n1 2\n2 3\n3 1\n")
        assert isinstance(g, UndiGraph)
        assert g.edge_list() == [(1, 2), (1, 3), (2, 3)]

    def test_object_directed(self):
        g = parse_graph('{"n": 3, "kind": "directed", "edges": [[1,2],[2,3],[3,1]]}')
        assert isinstance(g, DiGraph)
        assert g.arcs() == [(1, 2), (2, 3), (3, 1)]

    def test_self_loop_position(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("2 1 undirected\n1 1\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("blank", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_lines_break_only_at_newlines(self, brk, blank):
        with pytest.raises(ParseError, match="self-loop") as exc:
            parse_graph(brk.join(["3 1 undirected", blank, "1 1", ""]))
        assert exc.value.line == 3

    def test_form_feed_stays_inside_its_edge_line(self):
        with pytest.raises(ParseError, match="edge line must be 'u v'") as exc:
            parse_graph("3 2 undirected\n1 2\f2 3\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("sep", UNICODE_SPACES, ids=UNICODE_SPACE_IDS)
    def test_only_ascii_whitespace_separates_tokens(self, sep):
        with pytest.raises(ParseError, match="header must be 'n m kind'") as exc:
            parse_graph(f"3{sep}1 directed\n1 2\n")
        assert exc.value.line == 1
        with pytest.raises(ParseError, match="edge line must be 'u v'") as exc:
            parse_graph(f"3 1 directed\n1{sep}2\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError, match="vertex label must be an integer") as exc:
            parse_graph(f"3 1 directed\n1 2{sep}3\n")
        assert (exc.value.line, exc.value.col) == (2, 3)

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
    def test_ascii_separators_still_split(self, brk):
        text = brk.join(["3\t1\vdirected", " \f", "\t1 \f 2\v", ""])
        assert parse_graph(text) == parse_graph("3 1 directed\n1 2\n")

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("3 undirected\n")
        assert exc.value.line == 1

    def test_bad_token_column(self):
        # the column is the bad label's own, also where it is a prefix of the label before it
        for line, col in (("1 x", 3), ("-2 -", 4), ("+1 +", 4), ("-2  \t-", 6)):
            with pytest.raises(ParseError) as exc:
                parse_graph(f"3 1 directed\n{line}\n")
            assert (exc.value.line, exc.value.col) == (2, col), line

    @pytest.mark.parametrize("digit", ["\uff13", "\u0663", "1_0"], ids=["fullwidth", "arabic-indic", "underscore"])
    def test_integers_are_ascii_digits(self, digit):
        # int() alone reads the fullwidth 3 and Arabic-Indic 3 as 3 and 1_0 as 10.
        with pytest.raises(ParseError, match="n must be an integer") as exc:
            parse_graph(f"{digit} 0 directed\n")
        assert exc.value.line == 1
        with pytest.raises(ParseError, match="m must be an integer"):
            parse_graph(f"12 {digit} directed\n")
        with pytest.raises(ParseError, match="vertex label must be an integer") as exc:
            parse_graph(f"12 1 directed\n1  {digit}\n")
        assert (exc.value.line, exc.value.col) == (2, 4)
        assert parse_graph("+3 +1 directed\n+1 003\n").arcs() == [(1, 3)]

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2"):
            parse_graph("3 2 undirected\n1 2\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("3 1 directed\n1 9\n")

    def test_cap_exceeded(self):
        with pytest.raises(GraphSizeError):
            parse_graph("65 0 directed\n")

    def test_object_bad_syntax_position(self):
        with pytest.raises(ParseError) as exc:
            parse_graph('{"n": 3,\n "kind": }', fmt="object")
        assert exc.value.line == 2

    def test_object_self_loop_index(self):
        with pytest.raises(ParseError, match=r"edges\[1\]"):
            parse_graph('{"n": 3, "kind": "directed", "edges": [[1,2],[2,2]]}')

    def test_object_unknown_key(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_graph('{"n": 2, "kind": "directed", "edges": [], "weighted": true}')

    def test_object_duplicate_key(self, tmp_path, capsys):
        # json keeps the last of two equal keys; a graph file must not depend on that.
        text = '{"n": 3, "kind": "undirected", "edges": [[1,2],[2,3],[3,1]], "n": 4}'
        with pytest.raises(ParseError, match="duplicate key 'n'"):
            parse_graph(text)
        (tmp_path / "dup.json").write_text(text)
        assert cli.main(["exact", "--input", str(tmp_path / "dup.json")]) == 2
        assert "duplicate key 'n'" in capsys.readouterr().err

    def test_cli_reexports_io(self):
        from hamb import cli, io

        assert (cli.parse_graph, cli.serialize_graph) == (io.parse_graph, io.serialize_graph)

    def test_sniffing(self):
        assert isinstance(parse_graph('  {"n": 1, "kind": "directed", "edges": []}'), DiGraph)
        assert isinstance(parse_graph("1 0 directed\n"), DiGraph)


class TestRoundTrip:
    def test_both_formats_all_kinds(self):
        cases = [
            gen_gnp(9, 0.4, 3, "undirected"),
            gen_gnp(9, 0.4, 3, "symmetric-digraph"),
            gen_gnp(9, 0.4, 3, "digraph"),
            gen_family("complete", 5, "undirected"),
            gen_family("path", 4, "digraph"),
        ]
        for g in cases:
            for fmt in ("text", "object"):
                assert parse_graph(serialize_graph(g, fmt), fmt) == g


class TestCliCommands:
    def test_exact_dp_undirected(self, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text(serialize_graph(gen_family("cycle", 5, "undirected")))
        res = run_cli("exact", "--input", str(path), "--method", "dp")
        assert res.returncode == 0
        assert "count: 1" in res.stdout

    def test_exact_permanent_k4(self, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text(serialize_graph(gen_family("complete", 4, "symmetric-digraph")))
        res = run_cli("exact", "--input", str(path), "--method", "permanent")
        assert res.returncode == 0
        assert "count: 9" in res.stdout
        res = run_cli("exact", "--input", str(path), "--method", "dp")
        assert "count: 6" in res.stdout

    def test_estimate_halved_mean(self, tmp_path):
        path = tmp_path / "c3.txt"
        path.write_text(serialize_graph(gen_family("cycle", 3, "undirected")))
        res = run_cli("estimate", "--input", str(path), "--trials", "10", "--seed", "3")
        assert res.returncode == 0
        assert "mean: 2/1" in res.stdout
        assert "halved-mean: 1/1" in res.stdout

    def test_estimate_deterministic_bytes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(gen_gnp(7, 0.5, 2, "symmetric-digraph")))
        args = ("estimate", "--input", str(path), "--trials", "200", "--seed", "42",
                "--policy", "follow-path:2", "--json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_report_strings_reparse_losslessly(self, tmp_path):
        from fractions import Fraction

        from hamb.estimator import RowOrderPolicy, estimate

        g = gen_gnp(7, 0.5, 2, "symmetric-digraph")
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        res = run_cli("estimate", "--input", str(path), "--trials", "200", "--seed", "42",
                      "--policy", "follow-path:2", "--json")
        doc = json.loads(res.stdout)
        report = estimate(g, RowOrderPolicy.follow_path(2), 200, 42)
        assert int(doc["sum"]) == report.sum
        assert Fraction(doc["mean"]) == report.mean
        assert Fraction(doc["sample-variance"]) == report.sample_variance

    def test_estimate_non_hamiltonian(self, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text(serialize_graph(gen_family("path", 4, "undirected")))
        res = run_cli("estimate", "--input", str(path), "--trials", "12", "--seed", "0")
        assert "mean: 0/1" in res.stdout
        assert "zero-fraction: 1" in res.stdout

    def test_bounds_tight_marker(self, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text(serialize_graph(gen_family("cycle", 4, "symmetric-digraph")))
        res = run_cli("bounds", "--input", str(path))
        assert res.returncode == 0
        assert "symmetric: 2/1" in res.stdout
        assert "tight: symmetric" in res.stdout

    def test_bounds_asymmetric_omits_symmetric(self, tmp_path):
        path = tmp_path / "d3.txt"
        path.write_text("3 3 directed\n1 2\n2 3\n3 1\n")
        res = run_cli("bounds", "--input", str(path))
        assert res.returncode == 0
        assert "symmetric:" not in res.stdout
        assert "minc:" in res.stdout and "bregman-log-upper:" in res.stdout

    def test_bounds_undirected_k4(self, tmp_path):
        path = tmp_path / "k4u.txt"
        path.write_text(serialize_graph(gen_family("complete", 4, "undirected")))
        res = run_cli("bounds", "--input", str(path), "--json")
        doc = json.loads(res.stdout)
        assert doc["minc"] == "8/1"
        assert doc["symmetric"] == "81/16"
        assert doc["count"] == "3"

    def test_compare_cycle_family(self):
        res = run_cli("compare", "--family", "cycle", "--n", "3..8")
        assert res.returncode == 0
        rows = res.stdout.strip().splitlines()
        assert rows[0].startswith("n,degrees,symmetric,minc,bregman,exact")
        for row in rows[1:]:
            cells = row.split(",")
            assert cells[2] == "2" and cells[5] == "2"
            assert cells[6] == "true"

    def test_compare_complete_instance(self):
        res = run_cli("compare", "--family", "complete", "--n", "4..4")
        cells = res.stdout.strip().splitlines()[1].split(",")
        assert cells[2] == "10.125"
        assert float(cells[4]) == pytest.approx(10.9027, abs=1e-3)
        assert cells[3] == "16"

    def test_compare_gnp_zero_p(self):
        res = run_cli("compare", "--family", "gnp", "--n", "4..6", "--p", "0")
        for row in res.stdout.strip().splitlines()[1:]:
            cells = row.split(",")
            assert cells[2] == "0" and cells[5] == "0"

    def test_gen_round_trip(self, tmp_path):
        out = tmp_path / "g.txt"
        res = run_cli("gen", "--model", "gnp", "--n", "10", "--p", "0.5", "--seed", "7",
                      "--out", str(out))
        assert res.returncode == 0
        parsed = parse_graph(out.read_text())
        assert parsed == gen_gnp(10, 0.5, 7, "undirected")
        again = tmp_path / "h.txt"
        run_cli("gen", "--model", "gnp", "--n", "10", "--p", "0.5", "--seed", "7",
                "--out", str(again))
        assert out.read_bytes() == again.read_bytes()

    def test_gen_complete_undirected(self, tmp_path):
        out = tmp_path / "k5.txt"
        run_cli("gen", "--model", "complete", "--n", "5", "--out", str(out))
        assert len(parse_graph(out.read_text()).edge_list()) == 10

    def test_gen_object_format(self, tmp_path):
        out = tmp_path / "g.json"
        run_cli("gen", "--model", "cycle", "--n", "4", "--kind", "symmetric-digraph",
                "--format", "object", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["kind"] == "directed" and len(doc["edges"]) == 8

    @pytest.mark.parametrize("fmt", ["text", "object"])
    def test_graph_file_with_utf8_bom(self, tmp_path, capsys, fmt):
        # The byte-order mark is skipped, but the digest covers the file's own bytes.
        data = b"\xef\xbb\xbf" + serialize_graph(gen_family("cycle", 5, "digraph"), fmt).encode()
        (tmp_path / "c5").write_bytes(data)
        assert cli.main(["exact", "--input", str(tmp_path / "c5")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "count: 1" in lines and f"input-sha256: {hashlib.sha256(data).hexdigest()}" in lines

    def test_table_file_with_utf8_bom(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text("3 1 2\n1 2 1\n1 1 1\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_table_policy(str(bom)) == load_table_policy(str(plain))

    @pytest.mark.parametrize("entry", ["\uff11", "1_0"], ids=["fullwidth", "underscore"])
    def test_table_entries_are_ascii_digits(self, tmp_path, entry):
        table = tmp_path / "table.txt"
        table.write_text(f"1 1 1\n1 {entry} 1\n1 1 1\n", encoding="utf-8")
        with pytest.raises(PolicyError, match="line 2: entries must be integers"):
            load_table_policy(str(table))

    @pytest.mark.parametrize("sep", UNICODE_SPACES, ids=UNICODE_SPACE_IDS)
    def test_table_tokens_split_only_at_ascii_whitespace(self, tmp_path, sep):
        table = tmp_path / "table.txt"
        table.write_text(f"3 1 2\n1{sep}2 1\n1 1 1\n", encoding="utf-8")
        with pytest.raises(PolicyError, match="line 2: entries must be integers"):
            load_table_policy(str(table))

    @pytest.mark.parametrize("sep", UNICODE_SPACES, ids=UNICODE_SPACE_IDS)
    def test_unicode_space_in_a_file_exits_2(self, tmp_path, capsys, sep):
        (tmp_path / "g.txt").write_text(f"3 3 undirected\n1 2\n2 3\n3{sep}1\n", encoding="utf-8")
        (tmp_path / "table.txt").write_text(f"1 1 1\n1 1 1\n1{sep}1 1\n", encoding="utf-8")
        (tmp_path / "c3.txt").write_text("3 3 undirected\n1 2\n2 3\n3 1\n")
        assert cli.main(["exact", "--input", str(tmp_path / "g.txt")]) == 2
        assert capsys.readouterr().err == f"input error: line 4: edge line must be 'u v', got {'3' + sep + '1'!r}\n"
        policy = "table:" + str(tmp_path / "table.txt")
        assert cli.main(["estimate", "--trials", "5", "--policy", policy, "--input", str(tmp_path / "c3.txt")]) == 2
        assert "line 3: entries must be integers" in capsys.readouterr().err

    def test_table_ascii_separators_still_split(self, tmp_path):
        plain, mixed = tmp_path / "plain.txt", tmp_path / "mixed.txt"
        plain.write_text("3 1 2\n1 2 1\n1 1 1\n")
        mixed.write_bytes(b"\xef\xbb\xbf3\t1\v2\r\n\f\r1\f2 1\r \t1  1\t1\n")
        assert load_table_policy(str(mixed)) == load_table_policy(str(plain))

    def test_table_file_lines_break_only_at_newlines(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("1 1 1\n\f\nx\n")
        with pytest.raises(PolicyError, match="line 3: entries must be integers"):
            load_table_policy(str(table))
        table.write_text("1 1 1\f1 1 1\n1 1 1\n")  # two rows, not three
        with pytest.raises(PolicyError):
            load_table_policy(str(table))

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--input", "c3.txt", "--trials", "10", "--policy", "table:table.txt"),
            ("exact", "--input", "c3.txt"),
            ("bounds", "--input", "c3.txt"),
            ("gen", "--model", "cycle", "--n", "4", "--out", "out.txt"),
            ("compare", "--family", "cycle", "--n", "3..5"),
        ],
        ids=["estimate-table", "exact", "bounds", "gen", "compare"],
    )
    def test_no_file_read_uses_the_locale_encoding(self, tmp_path, argv):
        # Graph and table files decode as UTF-8 whatever the locale: a read
        # with the locale's default encoding would raise an EncodingWarning here.
        (tmp_path / "c3.txt").write_text(serialize_graph(gen_family("cycle", 3, "undirected")))
        (tmp_path / "table.txt").write_text("3 1 2\n1 2 1\n1 1 1\n")
        entry = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "hamb")
        res = run_cli(*argv, cwd=tmp_path, entry=entry)
        assert res.returncode == 0, res.stderr


class TestExitCodes:
    def test_usage_error_unknown_command(self):
        assert run_cli("frobnicate").returncode == 1

    @pytest.mark.parametrize(
        "argv, code", [(["-h"], 0), (["gen", "-h"], 0), (["exact", "--bogus"], 1), (["nosuch"], 1)]
    )
    def test_one_command_parser_answers_as_the_whole_tree(self, monkeypatch, capsys, argv, code):
        # main adds only the arguments of the command it runs; help and
        # usage errors must read as from the parser with every command's.
        def outcome():
            try:
                got = cli.main(list(argv))
            except SystemExit as e:
                got = e.code
            return (got, *capsys.readouterr())

        one = outcome()
        whole_tree = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda cmd: whole_tree(None))
        assert one == outcome()
        assert one[0] == code
        exact = whole_tree("gen")._subparsers._group_actions[0].choices["exact"]
        assert [a.dest for a in exact._actions] == ["help"]  # gen's parser skips exact's flags

    def test_usage_error_bad_policy_spec(self, tmp_path):
        path = tmp_path / "c3.txt"
        path.write_text(serialize_graph(gen_family("cycle", 3, "undirected")))
        for spec in ("zigzag", "follow-path:", "table:"):
            res = run_cli("estimate", "--input", str(path), "--trials", "5", "--policy", spec)
            assert res.returncode == 1, spec
            assert "usage error" in res.stderr

    @pytest.mark.parametrize("cmd", [
        ("compare", "--family", "gnp", "--n", "3..4", "--p", "0.5"),
        ("gen", "--model", "gnp", "--n", "4", "--p", "0.5", "--out", "g.txt"),
    ])
    @pytest.mark.parametrize("bad", [("--seed", "-1"), ("--p", "1.5")])
    def test_usage_error_bad_draw_args(self, tmp_path, cmd, bad):
        res = run_cli(*cmd, *bad, cwd=tmp_path)
        assert res.returncode == 1, res.stderr
        assert "usage error" in res.stderr
        assert not (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("model", [("complete",), ("gnp", "--p", "0.5")])
    def test_usage_error_gen_n_zero(self, tmp_path, model):
        res = run_cli("gen", "--model", *model, "--n", "0", "--out", "x.txt", cwd=tmp_path)
        assert res.returncode == 1, res.stderr
        assert "usage error" in res.stderr
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_usage_error_gen_short_cycle(self, tmp_path, n):
        # gen reads no input, so a cycle too short to draw is a bad argument.
        res = run_cli("gen", "--model", "cycle", "--n", n, "--out", "x.txt", cwd=tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith(f"usage error: --n must be >= 3 for --model cycle, got {n}"), res.stderr
        assert not (tmp_path / "x.txt").exists()

    def test_usage_error_trials_past_uint64(self, tmp_path):
        # Trial indices are uint64, so a run holds at most 2^64 trials.
        (tmp_path / "c3.txt").write_text(serialize_graph(gen_family("cycle", 3, "undirected")))
        res = run_cli("estimate", "--input", "c3.txt", "--trials", str(10**30), cwd=tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("usage error:"), res.stderr
        assert "Traceback" not in res.stderr

    def test_usage_error_gnp_needs_p(self, tmp_path):
        assert run_cli("compare", "--family", "gnp", "--n", "3..4").returncode == 1
        assert run_cli("gen", "--model", "gnp", "--n", "4", "--out", "g.txt", cwd=tmp_path).returncode == 1

    def test_usage_error_bad_range(self):
        assert run_cli("compare", "--family", "cycle", "--n", "8..3").returncode == 1
        assert run_cli("compare", "--family", "cycle", "--n", "x..3").returncode == 1

    # Every integer flag and spec, with {} where a spelling of 10 goes (compare
    # --n at either end of a range and alone, follow-path on a 10-cycle).
    INTEGER_ARGS = {
        "estimate-trials": ("estimate", "--input", "c10.txt", "--trials", "{}"),
        "estimate-seed": ("estimate", "--input", "c10.txt", "--trials", "5", "--seed", "{}"),
        "follow-path": ("estimate", "--input", "c10.txt", "--trials", "5", "--policy", "follow-path:{}"),
        "compare-seed": ("compare", "--family", "gnp", "--n", "3..4", "--p", "0.5", "--seed", "{}", "--json"),
        "compare-n-low": ("compare", "--family", "cycle", "--n", "{}..12", "--json"),
        "compare-n-high": ("compare", "--family", "cycle", "--n", "3..{}", "--json"),
        "compare-n-single": ("compare", "--family", "cycle", "--n", "{}", "--json"),
        "gen-n": ("gen", "--model", "gnp", "--n", "{}", "--p", "0.5", "--out", "g.txt"),
        "gen-seed": ("gen", "--model", "gnp", "--n", "4", "--p", "0.5", "--seed", "{}", "--out", "g.txt"),
    }

    @staticmethod
    def _run_integer_arg(tmp_path, monkeypatch, capsys, template, spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c10.txt").write_text(serialize_graph(gen_family("cycle", 10, "undirected")))
        (tmp_path / "g.txt").unlink(missing_ok=True)
        code = cli.main([arg.replace("{}", spelling) for arg in template])
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("spelling", ["1_0", "１０", "٣", " 10", "10 "],
                             ids=["underscore", "fullwidth", "arabic-indic", "leading-space", "trailing-space"])
    @pytest.mark.parametrize("template", INTEGER_ARGS.values(), ids=INTEGER_ARGS.keys())
    def test_usage_error_integer_spelling(self, tmp_path, monkeypatch, capsys, template, spelling):
        # Flags read integers as graph files do: int() alone takes each of these.
        code, out, err = self._run_integer_arg(tmp_path, monkeypatch, capsys, template, spelling)
        assert code == 1, err
        assert err.startswith("usage error:"), err
        assert out == ""
        assert not (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("spelling", ["+10", "010"])
    @pytest.mark.parametrize("template", INTEGER_ARGS.values(), ids=INTEGER_ARGS.keys())
    def test_integer_sign_and_leading_zero(self, tmp_path, monkeypatch, capsys, template, spelling):
        # compare --json echoes the range it swept, not the text it was given.
        code, out, err = self._run_integer_arg(tmp_path, monkeypatch, capsys, template, spelling)
        assert code == 0, err
        assert out == self._run_integer_arg(tmp_path, monkeypatch, capsys, template, "10")[1]

    # Both --p flags, with {} where a spelling of the probability goes.
    P_ARGS = {
        "gen": ("gen", "--model", "gnp", "--n", "4", "--p", "{}", "--out", "g.txt"),
        "compare": ("compare", "--family", "gnp", "--n", "3..4", "--p", "{}", "--json"),
    }

    @pytest.mark.parametrize("spelling", ["０.５", "٠.٥", " 0.0_5", "1_0e-1", "0.5 ", "nan", "1.5", "-0.1"],
                             ids=["fullwidth", "arabic-indic", "padded-underscore", "underscore-exponent",
                                  "trailing-space", "nan", "above-one", "below-zero"])
    @pytest.mark.parametrize("template", P_ARGS.values(), ids=P_ARGS.keys())
    def test_usage_error_p_spelling(self, tmp_path, monkeypatch, capsys, template, spelling):
        # float() alone takes the first four, as int() took "1_0" and "１０".
        code, out, err = self._run_integer_arg(tmp_path, monkeypatch, capsys, template, spelling)
        assert code == 1, err
        assert err.startswith("usage error: argument --p:"), err
        assert out == ""
        assert not (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("cmd", [("gen", "--model", "complete", "--n", "4", "--out", "g.txt"),
                                     ("compare", "--family", "cycle", "--n", "3..4")])
    def test_usage_error_p_out_of_range_without_gnp(self, tmp_path, monkeypatch, capsys, cmd):
        # The parser checks --p's range whichever family or model it goes with, as it does --seed's.
        code, out, err = self._run_integer_arg(tmp_path, monkeypatch, capsys, (*cmd, "--p", "1.5"), "")
        assert code == 1 and out == "", err
        assert err.startswith("usage error: argument --p: must be in [0, 1], got 1.5"), err
        assert not (tmp_path / "g.txt").exists()

    # The graph-sha256 that gen prints for G(4, p) at seed 0, and the p it echoes.
    P_SPELLINGS = {
        "0.5": ("4c885d70016e8da35d6900bfb28fc6672228af53ab6ac795fab999cc9e3a6360", "0.5"),
        ".5": ("4c885d70016e8da35d6900bfb28fc6672228af53ab6ac795fab999cc9e3a6360", "0.5"),
        "5e-1": ("4c885d70016e8da35d6900bfb28fc6672228af53ab6ac795fab999cc9e3a6360", "0.5"),
        "+0.5": ("4c885d70016e8da35d6900bfb28fc6672228af53ab6ac795fab999cc9e3a6360", "0.5"),
        "1.": ("39d8aef3d67a0b4b4e17d70a98c1dd283743a947c8fede8cf050464a5c6a94b4", "1"),
        "0": ("a27c20fac24bbeb0abdb83a09a07498f3a2128d2413f4aa2bc8a97fb052825a9", "0"),
        "-0": ("a27c20fac24bbeb0abdb83a09a07498f3a2128d2413f4aa2bc8a97fb052825a9", "0"),
    }

    @pytest.mark.parametrize("spelling", P_SPELLINGS)
    def test_p_spellings_keep_their_bytes(self, tmp_path, monkeypatch, capsys, spelling):
        digest, echo = self.P_SPELLINGS[spelling]
        code, out, err = self._run_integer_arg(tmp_path, monkeypatch, capsys, self.P_ARGS["gen"], spelling)
        assert code == 0, err
        assert out == ("command: gen\nmodel: gnp\nn: 4\nkind: undirected\nseed: 0\nout: g.txt\n"
                       f"graph-sha256: {digest}\np: {echo}\n")
        code, out, err = self._run_integer_arg(tmp_path, monkeypatch, capsys, self.P_ARGS["compare"], spelling)
        assert code == 0, err
        assert json.loads(out)["p"] == echo

    @pytest.mark.parametrize("cmd", [
        ("gen", "--model", "gnp", "--n", "5", "--out", "g.txt", "--p"),
        ("compare", "--family", "gnp", "--n", "3..3", "--json", "--p"),
    ])
    @pytest.mark.parametrize("zero", ["-0", "-0.0"])
    def test_negative_zero_p_prints_as_zero(self, tmp_path, monkeypatch, capsys, cmd, zero):
        # -0 draws what 0 draws, so it prints the same bytes.
        monkeypatch.chdir(tmp_path)
        assert cli.main([*cmd, zero]) == 0
        negative = capsys.readouterr().out
        assert cli.main([*cmd, "0"]) == 0
        assert negative == capsys.readouterr().out

    def test_input_error_self_loop(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 undirected\n1 1\n")
        res = run_cli("exact", "--input", str(path))
        assert res.returncode == 2
        assert "line 2" in res.stderr

    def test_input_error_fullwidth_digits(self, tmp_path):
        # A triangle written in fullwidth digits: int() alone reads it.
        path = tmp_path / "wide.txt"
        path.write_text("\uff13 3 undirected\n1 2\n2 3\n\uff13 1\n", encoding="utf-8")
        res = run_cli("exact", "--input", str(path))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("input error: line 1: n must be an integer"), res.stderr

    def test_input_error_deeply_nested_object(self, tmp_path):
        path = tmp_path / "deep.json"
        depth = 200_000
        path.write_text('{"n": ' + "[" * depth + "]" * depth + ', "kind": "directed", "edges": []}')
        res = run_cli("exact", "--input", str(path))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("input error:")
        assert "Traceback" not in res.stderr

    def test_input_error_missing_file(self):
        assert run_cli("exact", "--input", "/nonexistent/g.txt").returncode == 2

    @pytest.mark.parametrize("out", ["missing/g.txt", "d"], ids=["missing-directory", "directory"])
    def test_input_error_gen_out_unwritable(self, tmp_path, out):
        (tmp_path / "d").mkdir()
        res = run_cli("gen", "--model", "cycle", "--n", "4", "--out", out, cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("input error:"), res.stderr
        assert res.stdout == ""
        assert [p.name for p in tmp_path.rglob("*")] == ["d"]

    def test_size_error_large_graph(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("65 0 directed\n")
        res = run_cli("exact", "--input", path.as_posix())
        assert res.returncode == 3
        assert "cap" in res.stderr

    def test_size_error_method_limit(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(gen_gnp(12, 0.5, 0, "digraph")))
        res = run_cli("exact", "--input", str(path), "--method", "brute")
        assert res.returncode == 3
        assert "10" in res.stderr

    @pytest.mark.parametrize("family", [("complete",), ("gnp", "--p", "0.5")])
    def test_size_error_compare_range_draws_no_row(self, monkeypatch, capsys, family):
        # The range's top is checked against the vertex cap before the first
        # row is drawn, and after the usage checks, which still win.
        def no_draw(*args, **kwargs):
            raise AssertionError("compare drew a row")

        monkeypatch.setattr(cli, "gen_family", no_draw)
        monkeypatch.setattr(cli, "gen_gnp", no_draw)
        for n, first in (("3..65", 65), ("70..80", 70)):
            assert cli.main(["compare", "--family", *family, "--n", n]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"size limit: n={first} exceeds the vertex cap of 64\n"
        assert cli.main(["compare", "--family", *family, "--n", "3..65", "--seed", "-1"]) == 1
        assert capsys.readouterr().out == ""

    def test_environment_cannot_lower_cap(self, tmp_path):
        # The vertex cap is the constant 64; no environment variable moves it.
        g = gen_gnp(10, 0.3, 1, "digraph")
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        res = run_cli("exact", "--input", str(path), env_extra={"HAMB_MAX_N": "5"})
        assert res.returncode == 0, res.stderr
        assert f"count: {ham_dp(g)}" in res.stdout.splitlines()

    def test_policy_error_truncated_table(self, tmp_path):
        graph = tmp_path / "c4.txt"
        graph.write_text(serialize_graph(gen_family("cycle", 4, "undirected")))
        table = tmp_path / "table.txt"
        table.write_text("1 1 1 1\n1 1 1\n")
        res = run_cli("estimate", "--input", str(graph), "--trials", "5",
                      "--policy", f"table:{table}")
        assert res.returncode == 2
        assert "policy error" in res.stderr
        assert "Traceback" not in res.stderr

    def test_policy_error_wrong_table_size(self, tmp_path):
        graph = tmp_path / "c4.txt"
        graph.write_text(serialize_graph(gen_family("cycle", 4, "undirected")))
        table = tmp_path / "table.txt"
        table.write_text("1 1\n1 1\n")
        res = run_cli("estimate", "--input", str(graph), "--trials", "5",
                      "--policy", f"table:{table}")
        assert res.returncode == 2

    def test_policy_error_table_not_utf8(self, tmp_path):
        graph = tmp_path / "c4.txt"
        graph.write_text(serialize_graph(gen_family("cycle", 4, "undirected")))
        table = tmp_path / "table.txt"
        table.write_bytes(b"\xff\xfe1 1 1 1\n")
        res = run_cli("estimate", "--input", str(graph), "--trials", "5",
                      "--policy", f"table:{table}")
        assert res.returncode == 2
        assert res.stderr.startswith("policy error:"), res.stderr

    def test_table_policy_happy_path(self, tmp_path):
        # every branch of the triangle returns 2, so the mean is exact
        graph = tmp_path / "c3.txt"
        graph.write_text(serialize_graph(gen_family("cycle", 3, "undirected")))
        table = tmp_path / "table.txt"
        table.write_text("3 1 2\n1 2 1\n1 1 1\n")
        res = run_cli("estimate", "--input", str(graph), "--trials", "8",
                      "--policy", f"table:{table}")
        assert res.returncode == 0
        assert "halved-mean: 1/1" in res.stdout


class TestSelftestCommand:
    def test_negative_control(self, monkeypatch, capsys):
        # A digraph with a diagonal one, injected past constructor validation.
        fault = tuple.__new__(DiGraph, (3, (0b011, 0b100, 0b010)))
        battery = selftest._graph_battery
        monkeypatch.setattr(selftest, "_graph_battery", lambda: [*battery(), fault])
        assert cli.main(["selftest"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "graph-invariants: FAIL (diagonal entry set at vertex 1)"
        assert lines[-1] == "selftest: FAIL"

    def test_negative_control_asymmetric_undigraph(self, monkeypatch, capsys):
        # Undirected rows that hold the arc 1 -> 2 but not 2 -> 1, injected the same way.
        fault = tuple.__new__(UndiGraph, (3, (0b010, 0b000, 0b000)))
        battery = selftest._graph_battery
        monkeypatch.setattr(selftest, "_graph_battery", lambda: [*battery(), fault])
        assert cli.main(["selftest"]) == 4
        assert capsys.readouterr().out.splitlines()[0] == "graph-invariants: FAIL (undirected rows are not symmetric)"

    def test_vector_draws_equal_scalar_draws(self):
        # Generator.integers takes one uint32 per draw whether it draws one
        # number per call or a row per call, so the suites, which draw rows
        # from hamb.pcg streams, check the same degree sequences and tables
        # as scalar loops over numpy's own generator.
        rng = np.random.default_rng(99)
        scalar = []
        for _ in range(2000):
            n = int(rng.integers(3, 51))
            scalar.append([int(rng.integers(0, n)) for _ in range(n)])
        assert list(selftest._degree_sequences()) == scalar
        vector_rng, scalar_rng = Stream(7), np.random.default_rng(7)
        for n in [4] * 64 + [5, 6] * 5:  # the graph sizes of _suite_unbiasedness, in order
            tables = [p.table for p in selftest._policies_for(n, vector_rng) if p.kind == "table"]
            assert tables == [
                tuple(tuple(int(scalar_rng.integers(1, n - i + 1)) for _ in range(n)) for i in range(n))
                for _ in range(2)
            ]

    def test_oracle_agreement_draws_equal_numpy(self, monkeypatch):
        # The suite adds its own offsets to Stream draws; each (n, p, seed)
        # must still be what numpy's integers(5, 9), uniform(0.2, 0.8) and
        # integers(0, 2**32) give on default_rng(2024).
        calls = []
        real = selftest.gen_gnp
        monkeypatch.setattr(selftest, "gen_gnp", lambda *args, **kw: calls.append(args) or real(*args, **kw))
        assert selftest._suite_oracle_agreement()[0]
        rng = np.random.default_rng(2024)
        want = [(int(rng.integers(5, 9)), float(rng.uniform(0.2, 0.8)), int(rng.integers(0, 2**32)))
                for _ in range(50)]
        assert calls == [(13, 0.5, 13), *want]


# ``python -m hamb`` as ``-m`` runs it, then whether each of a tuple of modules
# was imported (``True``/``False``, space-separated), as the last stdout line at
# exit.
_REPORT_MODULE = (
    "import atexit, runpy, sys; atexit.register(lambda: print(*(m in sys.modules for m in {!r}))); "
    "runpy.run_module('hamb', run_name='__main__', alter_sys=True)"
)
_REPORT_NUMPY = _REPORT_MODULE.format(("numpy",))


def _write_inputs(directory) -> None:
    """The graph files that the import probes below read."""
    graphs = {
        "triangle.txt": gen_family("cycle", 3, "undirected"),
        "n20.txt": gen_gnp(20, 0.3, 1, "undirected"),
        "d8.txt": gen_gnp(8, 0.5, 2, "digraph"),
        "k12.txt": gen_family("complete", 12, "digraph"),
        "k13.txt": gen_family("complete", 13, "digraph"),
    }
    for name, g in graphs.items():
        (directory / name).write_text(serialize_graph(g))


class TestLazyImports:
    @pytest.mark.parametrize(
        "argv, loads_numpy",
        [
            (("bounds", "--input", "triangle.txt"), False),
            (("bounds", "--input", "n20.txt"), False),
            (("exact", "--method", "brute", "--input", "d8.txt"), False),
            (("exact", "--method", "dp", "--input", "k12.txt"), False),
            (("exact", "--method", "permanent", "--input", "k12.txt"), False),
            (("exact", "--method", "dp", "--input", "k13.txt"), True),
            (("gen", "--model", "complete", "--n", "12", "--out", "out.txt"), False),
            (("estimate", "--trials", "5", "--input", "triangle.txt"), True),
            (("gen", "--model", "gnp", "--n", "20", "--p", "0.4", "--seed", "3", "--out", "out.txt"), False),
        ],
    )
    def test_numpy_loads_only_for_numpy_work(self, tmp_path, argv, loads_numpy):
        _write_inputs(tmp_path)
        res = run_cli(*argv, cwd=tmp_path, entry=("-c", _REPORT_NUMPY))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == str(loads_numpy)
        assert res.stderr.splitlines()[-1].startswith("elapsed-ms: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--trials", "3000", "--policy", "ascending", "--input", "g.txt"),
            ("estimate", "--trials", "3000", "--policy", "follow-path:1", "--input", "g.txt"),
            ("compare", "--family", "gnp", "--n", "3..14", "--p", "0.5", "--seed", "3"),
            ("selftest",),
        ],
        ids=["ascending", "follow-path:1", "compare-gnp", "selftest"],
    )
    def test_estimate_never_imports_numpy_random(self, tmp_path, argv):
        # The lockstep kernel computes its PCG64 words itself, and seeded
        # draws come from hamb.pcg; importing numpy.random would cost an
        # estimate process ~3 MB of peak RSS.  compare counts past n = 12 and
        # selftest runs the numpy kernels, so both load numpy itself.
        probe = run_cli(entry=("-c", "import numpy, sys; print('numpy.random' in sys.modules)"))
        if probe.stdout.strip() == "True":
            pytest.skip("a bare 'import numpy' loads numpy.random on this numpy")
        (tmp_path / "g.txt").write_text(serialize_graph(gen_gnp(20, 0.4, 3, "undirected")))
        res = run_cli(*argv, cwd=tmp_path, entry=("-c", _REPORT_MODULE.format(("numpy.random",))))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "False"

    def test_no_module_refers_to_numpy_random(self):
        # Every seeded draw comes from hamb.pcg.  This holds the rule on a
        # numpy whose bare import loads numpy.random, where the probe above
        # is skipped.
        found = []
        for path in sorted((SRC / "hamb").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    names = [f"{node.value.id}.{node.attr}"]
                else:
                    continue
                found += [(path.name, node.lineno, name) for name in names
                          if f"{name}.".startswith(("numpy.random.", "np.random."))]
        assert not found

    def test_only_the_generators_retag_and_no_module_unpacks_a_matrix(self):
        # An UndiGraph holds its doubled image's bit rows, so the counters, the
        # estimator and the CLI read those rows as they are, and a numpy kernel
        # builds its arrays from the rows, not from a list of 0/1 lists.
        found = []
        for path in sorted((SRC / "hamb").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if (name == "matrix" and isinstance(func, ast.Attribute)
                        or name == "to_symmetric_digraph" and path.name != "graphs.py"):
                    found.append((path.name, node.lineno, name))
        assert not found

    # No command loads dataclasses (and with it inspect, ast and dis); each
    # loads only the hamb modules, and the stdlib ones, that it runs.
    @pytest.mark.parametrize(
        "argv, absent",
        [
            (("bounds", "--input", "triangle.txt"), ("dataclasses", "inspect", "hamb.estimator", "json", "_hashlib")),
            (("bounds", "--input", "n20.txt", "--json"), ("dataclasses", "inspect", "hamb.estimator", "hamb.exact", "_hashlib")),
            (("exact", "--method", "brute", "--input", "d8.txt"),
             ("dataclasses", "inspect", "hamb.estimator", "hamb.bounds", "_hashlib")),
            (("gen", "--model", "complete", "--n", "12", "--out", "out.txt"),
             ("dataclasses", "inspect", "hamb.estimator", "hamb.exact", "hamb.bounds", "json", "_hashlib")),
            (("estimate", "--trials", "5", "--input", "triangle.txt"), ("dataclasses", "hamb.exact", "hamb.bounds")),
            (("compare", "--family", "cycle", "--n", "3..5", "--json"), ("dataclasses", "csv", "hashlib")),
            (("selftest",), ("dataclasses",)),
        ],
        ids=["bounds-text", "bounds-n20-json", "exact-brute", "gen-family", "estimate", "compare-json", "selftest"],
    )
    def test_each_command_loads_only_what_it_runs(self, tmp_path, argv, absent):
        _write_inputs(tmp_path)
        res = run_cli(*argv, cwd=tmp_path, entry=("-c", _REPORT_MODULE.format(absent)))
        assert res.returncode == 0, res.stderr
        loaded = dict(zip(absent, res.stdout.splitlines()[-1].split()))
        assert loaded == dict.fromkeys(absent, "False")

    # Digests come from CPython's built-in SHA-256, so no command loads
    # OpenSSL's _hashlib (~3.5 MB of RSS); an exact permanent needs only the
    # Bregman cap, so it loads no fractions (nor the decimal that it imports).
    @pytest.mark.parametrize(
        "argv, absent",
        [
            (("estimate", "--trials", "5", "--policy", "table:table.txt", "--input", "triangle.txt"), ("_hashlib",)),
            (("exact", "--method", "dp", "--input", "k13.txt"), ("_hashlib", "fractions", "decimal")),
            (("exact", "--method", "permanent", "--input", "k13.txt"), ("_hashlib", "fractions", "decimal")),
        ],
        ids=["estimate-table", "exact-dp-k13", "exact-permanent-k13"],
    )
    def test_numpy_commands_load_no_openssl(self, tmp_path, argv, absent):
        probe = run_cli(entry=("-c", f"import numpy, sys; print(*(m in sys.modules for m in {absent!r}))"))
        if "True" in probe.stdout.split():
            pytest.skip(f"a bare 'import numpy' loads one of {absent} on this numpy")
        _write_inputs(tmp_path)
        (tmp_path / "table.txt").write_text("3 1 2\n1 2 1\n1 1 1\n")
        res = run_cli(*argv, cwd=tmp_path, entry=("-c", _REPORT_MODULE.format(("numpy",) + absent)))
        assert res.returncode == 0, res.stderr
        loaded = dict(zip(("numpy",) + absent, res.stdout.splitlines()[-1].split()))
        assert loaded == {"numpy": "True", **dict.fromkeys(absent, "False")}

    # The numpy DP is exact in one pass; only the permanent past n = 12 reads
    # the Bregman cap, to decide on its prime pass.
    @pytest.mark.parametrize("method, bounds", [("dp", "False"), ("permanent", "True")])
    def test_only_the_numpy_permanent_loads_bounds(self, tmp_path, method, bounds):
        _write_inputs(tmp_path)
        res = run_cli("exact", "--method", method, "--input", "k13.txt", cwd=tmp_path,
                      entry=("-c", _REPORT_MODULE.format(("numpy", "hamb.bounds"))))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1].split() == ["True", bounds]

    def test_package_root_binds_nothing(self):
        # Each public name is imported from its module; the root loads none.
        probe = (
            "import hamb, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('hamb.'))); "
            "print(sorted(n for n in vars(hamb) if not n.startswith('_')))"
        )
        res = run_cli(entry=("-c", probe))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["[]", "[]"]


# ``python -m hamb`` as ``-m`` runs it, then, as the last stdout line at exit:
# whether the collector is frozen, and with ``threads`` also the number of
# threads the process has and the OPENBLAS_NUM_THREADS that it sees.
_REPORT_EXIT = (
    "import atexit, gc, os, runpy; atexit.register(lambda: print(gc.get_freeze_count() > 0, *("
    "(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS')) if {threads} else ()))); "
    "runpy.run_module('hamb', run_name='__main__', alter_sys=True)"
)


class TestProcessEntry:
    @pytest.mark.parametrize(
        "argv, code",
        [(("bounds", "--input", "k12.txt"), 0), (("exact", "--input", "missing.txt"), 2)],
        ids=["bounds", "exact-missing-file"],
    )
    def test_python_m_hamb_freezes_the_collector_before_exit(self, tmp_path, argv, code):
        _write_inputs(tmp_path)
        plain = run_cli(*argv, cwd=tmp_path)
        res = run_cli(*argv, cwd=tmp_path, entry=("-c", _REPORT_EXIT.format(threads=False)))
        assert plain.returncode == res.returncode == code, res.stderr
        assert res.stdout.splitlines()[-1] == "True"
        assert res.stdout.splitlines()[:-1] == plain.stdout.splitlines()
        if code:
            assert res.stderr == plain.stderr
            assert res.stderr.startswith("input error:")
        else:
            assert res.stderr.splitlines()[-1].startswith("elapsed-ms: ")

    def test_main_in_process_leaves_the_process_alone(self, tmp_path, monkeypatch, capsys):
        _write_inputs(tmp_path)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        frozen, environ = gc.get_freeze_count(), dict(os.environ)
        assert cli.main(["exact", "--method", "dp", "--input", str(tmp_path / "k13.txt")]) == 0
        assert "count: 479001600" in capsys.readouterr().out.splitlines()
        assert gc.get_freeze_count() == frozen
        assert dict(os.environ) == environ

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
        reason="needs /proc/self/task and at least two CPUs, where OpenBLAS would start a thread",
    )
    @pytest.mark.parametrize(
        "argv",
        [("estimate", "--trials", "5", "--input", "triangle.txt"), ("exact", "--method", "dp", "--input", "k13.txt")],
        ids=["estimate", "exact-dp-k13"],
    )
    def test_numpy_runs_one_blas_thread_unless_set(self, tmp_path, monkeypatch, argv):
        _write_inputs(tmp_path)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        probe = ("-c", _REPORT_EXIT.format(threads=True))
        res = run_cli(*argv, cwd=tmp_path, entry=probe)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "True 1 1"
        res = run_cli(*argv, cwd=tmp_path, entry=probe, env_extra={"OPENBLAS_NUM_THREADS": "2"})
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1].split()[2] == "2"


class TestDigest:
    @pytest.mark.parametrize("size", [0, 1, 55, 56, 63, 64, 65, 4096])
    def test_equals_hashlib_across_block_edges(self, size):
        data = bytes(i * 7 % 256 for i in range(size))
        assert sha256_hex(data) == hashlib.sha256(data).hexdigest()

    @given(st.binary(max_size=300))
    def test_equals_hashlib(self, data):
        assert sha256_hex(data) == hashlib.sha256(data).hexdigest()

    def test_hashlib_fallback_prints_the_same_bytes(self, tmp_path):
        # With neither built-in module importable the digest goes through
        # hashlib; the last stderr line, written at exit, says it did.
        _write_inputs(tmp_path)
        plain = run_cli("bounds", "--input", "k12.txt", cwd=tmp_path)
        entry = (
            "-c",
            "import atexit, runpy, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "atexit.register(lambda: print('hashlib' in sys.modules, file=sys.stderr)); "
            "runpy.run_module('hamb', run_name='__main__', alter_sys=True)",
        )
        res = run_cli("bounds", "--input", "k12.txt", cwd=tmp_path, entry=entry)
        assert plain.returncode == res.returncode == 0, res.stderr
        assert res.stdout == plain.stdout
        assert res.stderr.splitlines()[-1] == "True"


class TestScripts:
    # The scripts import hamb's modules directly, so a name moved or deleted
    # there fails here; kernel overflow warnings are fatal, as in CI's smoke run.
    @pytest.mark.parametrize(
        "script, args, first_line",
        [
            ("bound_region_sweep.py", ("--max-k", "4"),
             "crossover: smallest n from which the product bound stays below bregman"),
            ("estimator_convergence.py", ("--trials", "3000"), "graph: n=10, arcs=50, exact count=170"),
        ],
        ids=["bound-region-sweep", "estimator-convergence"],
    )
    def test_script_runs(self, script, args, first_line):
        path = SRC.parent / "scripts" / script
        res = run_cli(*args, entry=("-W", "error::RuntimeWarning", str(path)))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == first_line

    def test_bench_pairs_alternates_and_summarises(self, tmp_path):
        # Two stand-in checkouts whose perfbench/run.py writes a result file as
        # the real one does, and logs which side ran.
        fake = (
            "import json, pathlib, sys\n"
            "w, seed = sys.argv[sys.argv.index('--workload') + 1], int(sys.argv[sys.argv.index('--seed') + 1])\n"
            "with open({log!r}, 'a') as f: f.write('{side}\\n')\n"
            "wall, rss = seed + {extra}, 31.0 - {extra}\n"
            "work = pathlib.Path('.perfbench_work'); work.mkdir(exist_ok=True)\n"
            "(work / f'result-{{w}}-seed{{seed}}-trace0.json').write_text(json.dumps({{\n"
            "    'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {{\n"
            "        'wall_s': {{'value': wall, 'unit': 's'}}, 'peak_rss_mb': {{'value': rss, 'unit': 'MB'}}}},\n"
            "    'env': {{'python': '3.x', 'numpy': '2.x'}}, 'processes': [['exact:dp', 0, wall, 0, 0, 0, rss]]}}))\n"
        )
        log = tmp_path / "order.log"
        for side, extra in (("parent", 0), ("change", 1)):
            (tmp_path / side / "perfbench").mkdir(parents=True)
            run_py = tmp_path / side / "perfbench" / "run.py"
            run_py.write_text(fake.format(log=str(log), side=side, extra=extra), encoding="utf-8")
        package = tmp_path / "change" / "src" / "hamb"  # the parent side has no src/hamb
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
        (package / "b.py").write_text("z = 3\n", encoding="utf-8")
        (package / "notes.txt").write_text("not counted\n", encoding="utf-8")
        out = tmp_path / "pairs.json"
        res = run_cli("--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "exact-n18", "--seeds", "1", "2", "3", "--seconds", "1", "--out", str(out),
                      entry=(str(SRC.parent / "scripts" / "bench_pairs.py"),))
        assert res.returncode == 0, res.stderr
        assert log.read_text().split() == ["parent", "change", "change", "parent", "parent", "change"]
        report = json.loads(out.read_text())
        assert report["seeds"] == [1, 2, 3] and (report["python"], report["numpy"]) == ("3.x", "2.x")
        assert (report["parent"]["src_hamb_lines"], report["change"]["src_hamb_lines"]) == (None, 3)
        assert [p["first"] for p in report["workloads"]["exact-n18"]["pairs"]] == ["parent", "change", "parent"]
        assert report["workloads"]["exact-n18"]["pairs"][1]["change"]["rss_mb_by_label"] == {"exact:dp": 30.0}
        summary = report["workloads"]["exact-n18"]["summary"]
        assert summary["wall_s"]["parent"] == {"median": 2, "q1": 1.5, "q3": 2.5, "iqr": 1.0}
        assert summary["wall_s"]["change"]["median"] == 3
        assert (summary["wall_s"]["change_higher"], summary["wall_s"]["change_lower"]) == (3, 0)
        assert (summary["peak_rss_mb"]["change_higher"], summary["peak_rss_mb"]["change_lower"]) == (0, 3)
