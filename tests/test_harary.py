"""The 1957 matrix-procedure reconstruction and its flaw classification."""

from __future__ import annotations

from hypothesis import given, settings

from cliquetrace import (
    bk_pivot,
    cliqual_vertices,
    from_edges,
    gnp,
    harary_ross_reconstruction,
    is_clique,
    is_maximal_clique,
    load_assyrian,
    moon_moser,
    named,
    oracle_maximal_cliques,
)
from cliquetrace.harary import PROV_PEELED, PROV_RESIDUAL_FALLBACK, _co_neighbors
from conftest import graphs, ktree_corpus, octahedron


@given(g=graphs(max_n=8))
def test_co_neighbors_are_the_positive_entries_of_triangle_support(g):
    """The masks the reconstruction reads are the positive entries of the 1957
    matrix t = A o A^2: the neighbours u of v with a common neighbour."""
    co = _co_neighbors(list(g.adj), g.vertex_mask())
    for v in range(g.n):
        assert co[v] == sum(1 << u for u in g.neighbors(v) if g.adj[u] & g.adj[v])


class TestCliqualVertices:
    def test_triangle_all(self):
        assert cliqual_vertices(named("complete", 3)) == (0, 1, 2)

    def test_star_none(self):
        assert cliqual_vertices(named("star", 3)) == ()

    def test_k4_minus_edge_all(self):
        g = from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert cliqual_vertices(g) == (0, 1, 2, 3)


class TestReconstruction:
    def test_triangle_clean(self):
        hist = harary_ross_reconstruction(named("complete", 3))
        assert hist.cliques == ((0, 1, 2),)
        assert hist.spurious == ()

    def test_k4_records_one_nested_spurious_set(self):
        hist = harary_ross_reconstruction(named("complete", 4))
        assert hist.true_cliques == ((0, 1, 2, 3),)
        assert hist.spurious == ((1, 2, 3),)

    def test_chordal_ktrees_match_oracle(self):
        for g in ktree_corpus([(8, 2, 0), (10, 3, 1), (12, 4, 2)]):
            hist = harary_ross_reconstruction(g)
            assert list(hist.true_cliques) == oracle_maximal_cliques(g, 3)
            assert all(PROV_RESIDUAL_FALLBACK not in f for f in hist.flags.values())

    def test_trade_network_flags_extra_sets(self):
        g = load_assyrian()
        hist = harary_ross_reconstruction(g)
        six = bk_pivot(g, 3).cliques
        assert set(six) <= set(hist.true_cliques)
        assert hist.spurious  # the documented over-reporting failure mode
        assert all(len(s) >= 3 for s in hist.spurious)

    def test_irreducible_residual_falls_back_to_components(self):
        hist = harary_ross_reconstruction(octahedron())
        assert hist.cliques == (tuple(range(6)),)
        assert hist.flags[tuple(range(6))] == (PROV_RESIDUAL_FALLBACK,)
        assert hist.spurious == (tuple(range(6)),)

    def test_exact_output_is_pinned_on_non_chordal_graphs(self):
        P, R = (PROV_PEELED,), (PROV_RESIDUAL_FALLBACK,)
        cases = [
            (
                load_assyrian(),
                {
                    (1, 17, 18, 22, 25): P,
                    (8, 15, 22, 26): P,
                    (17, 18, 22, 25): P,
                    (2, 12, 17): P,
                    (4, 6, 10): P,
                    (7, 11, 19): P,
                    (15, 22, 26): P,
                    (18, 22, 25): P,
                    (20, 23, 29): P,
                },
                ((17, 18, 22, 25), (15, 22, 26), (18, 22, 25)),
            ),
            (
                gnp(10, 0.5, 0),
                {
                    (0, 5, 6, 7, 9): P,
                    (4, 5, 6, 7, 8): R,
                    (0, 3, 6, 7): P,
                    (5, 6, 7, 9): P,
                    (0, 2, 9): P,
                },
                ((4, 5, 6, 7, 8), (5, 6, 7, 9)),
            ),
            (
                gnp(12, 0.5, 1),
                {(1, 2, 3, 5, 6, 7, 8, 10, 11): R, (0, 4, 9): P, (0, 5, 11): P},
                ((1, 2, 3, 5, 6, 7, 8, 10, 11),),
            ),
            (gnp(14, 0.7, 2), {tuple(range(14)): R}, (tuple(range(14)),)),
        ]
        for g, flags, spurious in cases:
            hist = harary_ross_reconstruction(g)
            assert hist.cliques == tuple(flags)
            assert hist.flags == flags
            assert hist.spurious == spurious

    def test_moon_moser_k2_triangle_free_yields_nothing(self):
        assert harary_ross_reconstruction(moon_moser(2)).cliques == ()

    @given(g=graphs(max_n=9))
    @settings(max_examples=50)
    def test_classification_is_sound(self, g):
        hist = harary_ross_reconstruction(g)
        bad = set(hist.spurious)
        for c in hist.cliques:
            genuine = is_clique(g, c) and is_maximal_clique(g, c)
            assert genuine == (c not in bad)

    @given(g=graphs(max_n=9))
    @settings(max_examples=50)
    def test_every_true_clique_is_covered_by_some_emitted_set(self, g):
        hist = harary_ross_reconstruction(g)
        emitted = [set(c) for c in hist.cliques]
        for truth in oracle_maximal_cliques(g, 3):
            assert any(set(truth) <= e for e in emitted)
