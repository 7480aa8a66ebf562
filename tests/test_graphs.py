"""Graph construction, transformation, contraction, generators."""
from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamb.errors import GraphSizeError
from hamb.exact import ham_dp, ham_undirected
from hamb.graphs import (
    ContractedMatrix,
    DiGraph,
    UndiGraph,
    build_digraph,
    build_undigraph,
    contract,
    gen_family,
    gen_gnp,
    is_symmetric,
    row_sums,
    to_symmetric_digraph,
)

from conftest import digraphs, undigraphs


class TestBuildDigraph:
    def test_three_cycle(self):
        g = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
        assert row_sums(g) == (1, 1, 1)
        assert g.arcs() == [(1, 2), (2, 3), (3, 1)]

    def test_empty(self):
        g = build_digraph(2, [])
        assert g.rows == (0, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_digraph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_digraph(3, [(1, 4)])

    def test_duplicates_collapse(self):
        g = build_digraph(3, [(1, 2), (1, 2), (2, 1)])
        assert g.arcs() == [(1, 2), (2, 1)]

    def test_direct_construction_rejects_diagonal(self):
        with pytest.raises(ValueError, match="self-loop"):
            DiGraph(2, (0b01, 0b10))


class TestUndiGraph:
    def test_rows_are_the_doubled_image(self):
        g = build_undigraph(3, [(1, 2), (3, 2)])
        assert g.rows == (0b010, 0b101, 0b010)
        d = to_symmetric_digraph(g)
        assert type(d) is DiGraph and d.rows == g.rows and d != g

    @pytest.mark.parametrize("n, rows, error, message", [
        (3, (0b010, 0b000, 0b000), ValueError, "undirected rows must be symmetric"),
        (2, (0b01, 0b00), ValueError, "self-loop at vertex 1"),
        (2, (0b110, 0b000), ValueError, "bits outside 1..2"),
        (65, (0,) * 65, GraphSizeError, "exceeds the vertex cap of 64"),
    ], ids=["asymmetric", "diagonal", "outside", "n65"])
    def test_constructor_rejects(self, n, rows, error, message):
        with pytest.raises(error, match=message):
            UndiGraph(n, rows)

    def test_build_messages(self):
        with pytest.raises(ValueError, match=re.escape("edge (1, 4) out of range 1..3")):
            build_undigraph(3, [(1, 2), (1, 4)])
        with pytest.raises(ValueError, match=re.escape("self-loop (2, 2) is not allowed")):
            build_undigraph(3, [(2, 2)])

    @settings(max_examples=60)
    @given(st.data())
    def test_rows_hold_the_pairs(self, data):
        # Unordered, repeated and reversed pairs, as a graph file may list them.
        n = data.draw(st.integers(2, 7))
        vertex = st.integers(1, n)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])))
        g = build_undigraph(n, pairs)
        normalized = {(min(u, v), max(u, v)) for u, v in pairs}
        assert g.edge_list() == sorted(normalized)
        assert row_sums(g) == tuple(sum(k in e for e in normalized) for k in range(1, n + 1))
        assert to_symmetric_digraph(g).arcs() == sorted(normalized | {(v, u) for u, v in normalized})
        if n >= 3:
            assert ham_dp(g) == 2 * ham_undirected(g)


def _pairwise_symmetric(m: ContractedMatrix) -> bool:
    """The definition: entry (u, v) equals entry (v, u) for every pair u < v."""
    return all((m.rows[u] >> v & 1) == (m.rows[v] >> u & 1) for u in range(m.n) for v in range(u + 1, m.n))


class TestSymmetrize:
    def test_triangle(self):
        d = to_symmetric_digraph(gen_family("cycle", 3, "undirected"))
        assert len(d.arcs()) == 6
        assert row_sums(d) == (2, 2, 2)
        assert is_symmetric(d)

    def test_single_edge(self):
        d = to_symmetric_digraph(build_undigraph(2, [(1, 2)]))
        assert sorted(d.arcs()) == [(1, 2), (2, 1)]

    def test_empty(self):
        d = to_symmetric_digraph(build_undigraph(4, []))
        assert d.arcs() == [] and d.n == 4

    def test_directed_cycle_not_symmetric(self):
        assert not is_symmetric(build_digraph(3, [(1, 2), (2, 3), (3, 1)]))

    def test_empty_is_symmetric(self):
        assert is_symmetric(build_digraph(3, []))

    def test_every_three_by_three_matrix(self):
        # All 512 0/1 matrices of dimension 3, diagonal ones included.
        for bits in range(1 << 9):
            m = ContractedMatrix(3, tuple(bits >> 3 * u & 0b111 for u in range(3)))
            assert is_symmetric(m) == _pairwise_symmetric(m), m

    @settings(max_examples=100, deadline=None)
    @given(digraphs(max_n=8))
    def test_hypothesis_digraphs(self, g):
        assert is_symmetric(g) == _pairwise_symmetric(g)

    @pytest.mark.parametrize("arc", [(1, 64), (64, 1), (63, 64)])
    def test_complete_64_less_one_arc_at_bit_63(self, arc):
        k64 = gen_family("complete", 64, "digraph")
        assert is_symmetric(k64)
        u, v = arc[0] - 1, arc[1] - 1
        m = DiGraph(64, tuple(row ^ (1 << v if w == u else 0) for w, row in enumerate(k64.rows)))
        assert not m.rows[u] >> v & 1 and not is_symmetric(m) and not _pairwise_symmetric(m)

    @given(undigraphs())
    def test_row_sums_match_degrees(self, g):
        d = to_symmetric_digraph(g)
        assert is_symmetric(d)
        assert row_sums(d) == row_sums(g)


class TestDegrees:
    def test_cycle(self):
        assert row_sums(gen_family("cycle", 5, "undirected")) == (2, 2, 2, 2, 2)

    def test_path(self):
        assert row_sums(gen_family("path", 3, "undirected")) == (1, 2, 1)

    def test_complete(self):
        assert row_sums(gen_family("complete", 4, "undirected")) == (3, 3, 3, 3)

    def test_symmetrized_k4_row_sums(self):
        assert row_sums(gen_family("complete", 4, "symmetric-digraph")) == (3, 3, 3, 3)


class TestContract:
    def test_symmetrized_triangle(self):
        # hand-applied swap-and-delete on the 3x3 matrix, pivot (1, 2)
        g = gen_family("cycle", 3, "symmetric-digraph")
        assert contract(g, 1, 2).rows == (0b11, 0b01)  # [[1, 1], [1, 0]]

    def test_two_vertex_complete(self):
        g = gen_family("complete", 2, "symmetric-digraph")
        assert contract(g, 1, 2).rows == (1,)

    def test_rejects_bad_indices(self):
        g = gen_family("complete", 3, "symmetric-digraph")
        with pytest.raises(ValueError):
            contract(g, 1, 1)
        with pytest.raises(ValueError):
            contract(g, 0, 2)
        with pytest.raises(ValueError):
            contract(g, 1, 4)

    def test_rejects_one_by_one(self):
        with pytest.raises(ValueError):
            contract(ContractedMatrix(1, (1,)), 1, 1)

    @given(digraphs(min_n=2), st.data())
    def test_shape_and_untouched_entries(self, g, data):
        i = data.draw(st.integers(1, g.n))
        j = data.draw(st.integers(1, g.n).filter(lambda x: x != i))
        c = contract(g, i, j)
        assert c.n == g.n - 1
        # entries outside row i and columns {i, j} survive the swap-and-delete
        kept_rows = [u for u in range(g.n) if u != i - 1]
        kept_cols = [v for v in range(g.n) if v != i - 1]
        for r_new, r_old in enumerate(kept_rows):
            for c_new, c_old in enumerate(kept_cols):
                old = c_old if c_old != j - 1 else i - 1
                assert c.rows[r_new] >> c_new & 1 == g.rows[r_old] >> old & 1


class TestGenerators:
    def test_gnp_zero_p_empty(self):
        assert gen_gnp(6, 0.0, 1, "undirected").edge_list() == []

    def test_gnp_full_p_complete(self):
        g = gen_gnp(5, 1.0, 1, "undirected")
        assert len(g.edge_list()) == 10

    def test_gnp_deterministic(self):
        a = gen_gnp(10, 0.5, 7, "undirected")
        b = gen_gnp(10, 0.5, 7, "undirected")
        assert a == b

    def test_gnp_digraph_deterministic(self):
        assert gen_gnp(8, 0.3, 9, "digraph") == gen_gnp(8, 0.3, 9, "digraph")

    def test_gnp_symmetric_kind(self):
        d = gen_gnp(7, 0.5, 3, "symmetric-digraph")
        assert isinstance(d, DiGraph) and is_symmetric(d)

    def test_gnp_bad_p(self):
        with pytest.raises(ValueError):
            gen_gnp(4, 1.5, 0)

    def test_gnp_bad_seed(self):
        for seed in (-1, True):
            with pytest.raises(ValueError, match="seed"):
                gen_gnp(4, 0.5, seed)

    def test_family_cycle(self):
        g = gen_family("cycle", 5, "undirected")
        assert len(g.edge_list()) == 5 and row_sums(g) == (2,) * 5

    def test_family_complete_symmetric(self):
        assert len(gen_family("complete", 4, "symmetric-digraph").arcs()) == 12

    def test_family_path(self):
        assert gen_family("path", 3, "undirected").edge_list() == [(1, 2), (2, 3)]

    def test_family_directed_cycle(self):
        g = gen_family("cycle", 4, "digraph")
        assert row_sums(g) == (1, 1, 1, 1) and (4, 1) in g.arcs()

    def test_family_cycle_needs_three(self):
        with pytest.raises(ValueError):
            gen_family("cycle", 2, "undirected")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_family("star", 4)


class TestVertexCap:
    def test_hard_cap(self):
        with pytest.raises(GraphSizeError):
            build_digraph(65, [])

    def test_at_cap_ok(self):
        assert build_digraph(64, [(1, 64)]).n == 64


@settings(max_examples=30)
@given(undigraphs(max_n=6))
def test_symmetrize_then_check_invariant_suiteable(g):
    d = to_symmetric_digraph(g)
    assert all(not (d.rows[u] >> u & 1) for u in range(d.n))
