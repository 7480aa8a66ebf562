"""Command-line surface: parsing, round trips, determinism, exit codes."""
from __future__ import annotations

import json

import pytest

from hamb import ParseError, GraphSizeError, UndiGraph, DiGraph, gen_gnp, gen_family
from hamb.io import parse_graph, serialize_graph

from conftest import run_cli


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

        from hamb import RowOrderPolicy, estimate, gen_gnp as _gnp

        g = _gnp(7, 0.5, 2, "symmetric-digraph")
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
        assert parse_graph(out.read_text()).num_edges == 10

    def test_gen_object_format(self, tmp_path):
        out = tmp_path / "g.json"
        run_cli("gen", "--model", "cycle", "--n", "4", "--kind", "symmetric-digraph",
                "--format", "object", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["kind"] == "directed" and len(doc["edges"]) == 8


class TestExitCodes:
    def test_usage_error_unknown_command(self):
        assert run_cli("frobnicate").returncode == 1

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

    def test_usage_error_gnp_needs_p(self, tmp_path):
        assert run_cli("compare", "--family", "gnp", "--n", "3..4").returncode == 1
        assert run_cli("gen", "--model", "gnp", "--n", "4", "--out", "g.txt", cwd=tmp_path).returncode == 1

    def test_usage_error_bad_range(self):
        assert run_cli("compare", "--family", "cycle", "--n", "8..3").returncode == 1
        assert run_cli("compare", "--family", "cycle", "--n", "x..3").returncode == 1

    def test_input_error_self_loop(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 undirected\n1 1\n")
        res = run_cli("exact", "--input", str(path))
        assert res.returncode == 2
        assert "line 2" in res.stderr

    def test_input_error_missing_file(self):
        assert run_cli("exact", "--input", "/nonexistent/g.txt").returncode == 2

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

    def test_env_var_lowers_cap(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(gen_gnp(10, 0.3, 1, "digraph")))
        res = run_cli("exact", "--input", str(path), env_extra={"HAMB_MAX_N": "5"})
        assert res.returncode == 3

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
    def test_negative_control(self):
        res = run_cli("selftest", "--corrupt-diagonal")
        assert res.returncode == 4
        assert "graph-invariants: FAIL" in res.stdout
