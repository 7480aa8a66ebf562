"""Graph construction, transformation, contraction, witnesses, generators."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamb import (
    ContractedMatrix,
    CycleWitness,
    DiGraph,
    GraphSizeError,
    build_digraph,
    build_undigraph,
    contract,
    degrees,
    gen_family,
    gen_gnp,
    is_symmetric,
    max_vertices,
    row_sums,
    to_symmetric_digraph,
)

from conftest import digraphs, undigraphs


class TestBuildDigraph:
    def test_three_cycle(self):
        g = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
        assert row_sums(g) == (1, 1, 1)
        assert g.has_arc(1, 2) and g.has_arc(2, 3) and g.has_arc(3, 1)
        assert not g.has_arc(2, 1)

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
        assert g.num_arcs == 2

    def test_direct_construction_rejects_diagonal(self):
        with pytest.raises(ValueError, match="self-loop"):
            DiGraph(2, (0b01, 0b10))


class TestSymmetrize:
    def test_triangle(self):
        d = to_symmetric_digraph(gen_family("cycle", 3, "undirected"))
        assert d.num_arcs == 6
        assert row_sums(d) == (2, 2, 2)
        assert is_symmetric(d)

    def test_single_edge(self):
        d = to_symmetric_digraph(build_undigraph(2, [(1, 2)]))
        assert sorted(d.arcs()) == [(1, 2), (2, 1)]

    def test_empty(self):
        d = to_symmetric_digraph(build_undigraph(4, []))
        assert d.num_arcs == 0 and d.n == 4

    def test_directed_cycle_not_symmetric(self):
        assert not is_symmetric(build_digraph(3, [(1, 2), (2, 3), (3, 1)]))

    def test_empty_is_symmetric(self):
        assert is_symmetric(build_digraph(3, []))

    @given(undigraphs())
    def test_row_sums_match_degrees(self, g):
        d = to_symmetric_digraph(g)
        assert is_symmetric(d)
        assert row_sums(d) == degrees(g)


class TestDegrees:
    def test_cycle(self):
        assert degrees(gen_family("cycle", 5, "undirected")) == (2, 2, 2, 2, 2)

    def test_path(self):
        assert degrees(gen_family("path", 3, "undirected")) == (1, 2, 1)

    def test_complete(self):
        assert degrees(gen_family("complete", 4, "undirected")) == (3, 3, 3, 3)

    def test_symmetrized_k4_row_sums(self):
        assert row_sums(gen_family("complete", 4, "symmetric-digraph")) == (3, 3, 3, 3)


class TestContract:
    def test_symmetrized_triangle(self):
        # hand-applied swap-and-delete on the 3x3 matrix, pivot (1, 2)
        g = gen_family("cycle", 3, "symmetric-digraph")
        assert contract(g, 1, 2).matrix() == [[1, 1], [1, 0]]

    def test_two_vertex_complete(self):
        g = gen_family("complete", 2, "symmetric-digraph")
        assert contract(g, 1, 2).matrix() == [[1]]

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
        before = g.matrix()
        after = c.matrix()
        # entries outside row i and columns {i, j} survive the swap-and-delete
        kept_rows = [u for u in range(g.n) if u != i - 1]
        kept_cols = [v for v in range(g.n) if v != i - 1]
        for r_new, r_old in enumerate(kept_rows):
            for c_new, c_old in enumerate(kept_cols):
                if c_old != j - 1:
                    assert after[r_new][c_new] == before[r_old][c_old]
                else:
                    assert after[r_new][c_new] == before[r_old][i - 1]


class TestGenerators:
    def test_gnp_zero_p_empty(self):
        assert gen_gnp(6, 0.0, 1, "undirected").num_edges == 0

    def test_gnp_full_p_complete(self):
        g = gen_gnp(5, 1.0, 1, "undirected")
        assert g.num_edges == 10

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
        assert g.num_edges == 5 and degrees(g) == (2,) * 5

    def test_family_complete_symmetric(self):
        assert gen_family("complete", 4, "symmetric-digraph").num_arcs == 12

    def test_family_path(self):
        assert gen_family("path", 3, "undirected").edge_list() == [(1, 2), (2, 3)]

    def test_family_directed_cycle(self):
        g = gen_family("cycle", 4, "digraph")
        assert row_sums(g) == (1, 1, 1, 1) and g.has_arc(4, 1)

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

    def test_env_lowers(self, monkeypatch):
        monkeypatch.setenv("HAMB_MAX_N", "5")
        assert max_vertices() == 5
        with pytest.raises(GraphSizeError):
            build_digraph(6, [])
        assert build_digraph(5, []).n == 5

    def test_env_cannot_raise(self, monkeypatch):
        monkeypatch.setenv("HAMB_MAX_N", "100")
        assert max_vertices() == 64

    def test_env_malformed(self, monkeypatch):
        monkeypatch.setenv("HAMB_MAX_N", "lots")
        with pytest.raises(GraphSizeError):
            max_vertices()


class TestCycleWitness:
    def test_directed_rotation(self):
        w = CycleWitness.canonical([3, 1, 2], directed=True)
        assert w.vertices == (1, 2, 3)

    def test_undirected_orientation(self):
        w = CycleWitness.canonical([1, 4, 3, 2], directed=False)
        assert w.vertices == (1, 2, 3, 4)

    def test_validates_against_host(self):
        g = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
        assert CycleWitness.canonical([1, 2, 3], True).is_cycle_of(g)
        assert not CycleWitness.canonical([1, 3, 2], True).is_cycle_of(g)

    def test_undirected_validation(self):
        g = gen_family("cycle", 4, "undirected")
        assert CycleWitness.canonical([1, 2, 3, 4], False).is_cycle_of(g)
        assert not CycleWitness.canonical([1, 3, 2, 4], False).is_cycle_of(g)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CycleWitness.canonical([1, 2, 2], True)

    @given(st.permutations(list(range(1, 7))))
    def test_directed_rotations_collapse(self, cycle):
        reps = {
            CycleWitness.canonical(cycle[k:] + cycle[:k], True)
            for k in range(len(cycle))
        }
        assert len(reps) == 1

    @given(st.permutations(list(range(1, 7))))
    def test_undirected_rotations_and_reflections_collapse(self, cycle):
        variants = [cycle[k:] + cycle[:k] for k in range(len(cycle))]
        variants += [list(reversed(v)) for v in variants]
        reps = {CycleWitness.canonical(v, False) for v in variants}
        assert len(reps) == 1

    @given(st.permutations(list(range(1, 8))), st.booleans())
    def test_canonicalization_idempotent(self, cycle, directed):
        w = CycleWitness.canonical(cycle, directed)
        again = CycleWitness.canonical(w.vertices, directed)
        assert again == w


@settings(max_examples=30)
@given(undigraphs(max_n=6))
def test_symmetrize_then_check_invariant_suiteable(g):
    d = to_symmetric_digraph(g)
    assert all(not (d.rows[u] >> u & 1) for u in range(d.n))
