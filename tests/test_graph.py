"""Graph construction, clique predicates, canonical ordering."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from cliquetrace import (
    GraphError,
    GuardError,
    canonicalize,
    degeneracy_ordering,
    filter_nested,
    from_edges,
    induced_subgraph,
    is_clique,
    is_maximal_clique,
    named,
    parse_gen_spec,
)
from cliquetrace.graph import MAX_VERTICES, _relabel, bits
from conftest import graphs


def _relabel_reference(adj, keep):
    """The dict-of-shifted-bits renumbering, decoded through bits()."""
    bit = {old: 1 << new for new, old in enumerate(keep)}
    kept = sum(1 << old for old in keep)
    return tuple(sum(map(bit.__getitem__, bits(adj[u] & kept))) for u in keep)


class TestFromEdges:
    def test_triangle_every_pair_adjacent(self):
        g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert all(g.has_edge(u, v) for u in range(3) for v in range(3) if u != v)

    def test_empty_graph(self):
        g = from_edges(2, [])
        assert g.n == 2 and g.m == 0

    def test_symmetry_collapse(self):
        g = from_edges(3, [(0, 1), (1, 0)])
        assert g.m == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_out_of_range_endpoint_names_edge(self):
        with pytest.raises(GraphError, match=r"\(0, 7\)"):
            from_edges(3, [(0, 7)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            from_edges(3, [(1, 1)])

    def test_vertex_guard_refuses_before_allocating(self):
        assert from_edges(MAX_VERTICES, []).n == MAX_VERTICES
        with pytest.raises(GuardError, match=f"n={MAX_VERTICES + 1}.*n <= {MAX_VERTICES}"):
            from_edges(MAX_VERTICES + 1, [])

    def test_labels_must_be_unique_and_total(self):
        with pytest.raises(GraphError):
            from_edges(2, [], labels=["a", "a"])
        with pytest.raises(GraphError):
            from_edges(2, [], labels=["a"])

    @given(graphs())
    def test_adjacency_symmetric_no_diagonal(self, g):
        for v in range(g.n):
            assert not g.adj[v] >> v & 1
            for u in range(g.n):
                assert bool(g.adj[v] >> u & 1) == bool(g.adj[u] >> v & 1)


class TestCliquePredicates:
    def test_triangle_is_clique(self):
        g = named("complete", 3)
        assert is_clique(g, {0, 1, 2})

    def test_path_endpoints_not_clique(self):
        g = named("path", 3)
        assert not is_clique(g, {0, 2})

    def test_empty_set_is_clique(self):
        assert is_clique(named("path", 3), set())

    def test_singletons_are_cliques(self):
        assert is_clique(named("empty", 2), {1})

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            is_clique(named("path", 3), {0, 5})

    def test_triangle_edge_not_maximal(self):
        g = named("complete", 3)
        assert not is_maximal_clique(g, {0, 1})
        assert is_maximal_clique(g, {0, 1, 2})

    def test_isolated_vertex_is_maximal(self):
        assert is_maximal_clique(named("empty", 4), {3})

    @given(graphs())
    def test_maximal_implies_clique(self, g):
        for v in range(g.n):
            s = {v} | set(g.neighbors(v))
            if is_maximal_clique(g, s):
                assert is_clique(g, s)


class TestInducedSubgraph:
    def test_triangle_pair(self):
        g = named("complete", 3)
        sub, mapping = induced_subgraph(g, {0, 1})
        assert sub.n == 2 and sub.m == 1
        assert mapping == {0: 0, 1: 1}

    def test_full_subgraph_is_identity(self):
        g = named("cycle", 5)
        sub, mapping = induced_subgraph(g, range(5))
        assert sub.adj == g.adj
        assert mapping == {v: v for v in range(5)}

    def test_c5_prefix_is_path(self):
        # Edges of C5 inside {0,1,2}: (0,1) and (1,2) only.
        sub, _ = induced_subgraph(named("cycle", 5), {0, 1, 2})
        assert sub.n == 3 and sub.m == 2
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2) and not sub.has_edge(0, 2)

    @given(graphs(), st.data())
    def test_edge_count_matches_inner_edges(self, g, data):
        if g.n == 0:
            keep = []
        else:
            keep = data.draw(
                st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n)
            )
        sub, _ = induced_subgraph(g, keep)
        inner = sum(1 for u, v in g.edges() if u in set(keep) and v in set(keep))
        assert sub.m == inner


class TestRelabel:
    @pytest.mark.parametrize(
        "spec",
        [
            "gnp:n=2000,p=0.01,seed=1",
            "ktree:n=2000,k=5,seed=1",
            "moonmoser:k=10",
            "gnp:n=85,p=0.5,seed=16",
        ],
    )
    def test_equals_reference_on_large_graphs(self, spec):
        g = parse_gen_spec(spec)
        order = degeneracy_ordering(g).order
        rng = random.Random(g.n)
        subsets = [
            order,
            order[::-1],
            tuple(range(0, g.n, 3)),
            tuple(sorted(rng.sample(range(g.n), g.n // 2))),
            tuple(v for v in order if v % 2),
            (),
        ]
        for keep in subsets:
            assert _relabel(g.adj, keep) == _relabel_reference(g.adj, keep)


class TestCanonicalize:
    def test_dedup_and_size_order(self):
        out = canonicalize([(2, 5), (0, 1, 3), (2, 5)])
        assert out == [(0, 1, 3), (2, 5)]

    def test_empty(self):
        assert canonicalize([]) == []

    def test_keeps_one_empty_row(self):
        assert canonicalize([()]) == [()]
        assert canonicalize([(), (1,), ()]) == [(1,), ()]

    def test_dedups_unsorted_repeats(self):
        assert canonicalize([(3, 1), (1, 3), (2,), (1, 3)]) == [(1, 3), (2,)]

    def test_lexicographic_tie_break(self):
        assert canonicalize([(0, 2), (0, 1)]) == [(0, 1), (0, 2)]

    @given(
        st.lists(
            st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True).map(tuple)
        ),
        st.randoms(use_true_random=False),
    )
    def test_idempotent_and_permutation_invariant(self, cliques, rnd):
        once = canonicalize(cliques)
        assert canonicalize(once) == once
        shuffled = list(cliques)
        rnd.shuffle(shuffled)
        assert canonicalize(shuffled) == once


class TestFilterNested:
    def test_drops_subsets(self):
        assert filter_nested([(0, 1), (0, 1, 2), (3,)]) == [(0, 1, 2), (3,)]

    def test_keeps_overlapping_non_nested(self):
        assert filter_nested([(0, 1), (1, 2)]) == [(0, 1), (1, 2)]
