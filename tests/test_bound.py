"""Branch-and-bound maximum clique: size, canonical identity, statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from cliquetrace import (
    bk_pivot,
    gnp,
    is_maximal_clique,
    load_assyrian,
    max_clique_bb,
    moon_moser,
    named,
    oracle_maximum_clique,
)
from conftest import graphs


def test_c5_is_triangle_free():
    clique, _ = max_clique_bb(named("cycle", 5))
    assert len(clique) == 2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_moon_moser_size_k(k):
    clique, _ = max_clique_bb(moon_moser(k))
    assert len(clique) == k


def test_moon_moser_k3_canonical_identity():
    clique, _ = max_clique_bb(moon_moser(3))
    assert clique == oracle_maximum_clique(moon_moser(3)) == (0, 3, 6)


def test_empty_graph():
    clique, stats = max_clique_bb(named("empty", 1))
    assert clique == (0,)
    clique, stats = max_clique_bb(named("empty", 4))
    assert clique == (0,)


@given(g=graphs(max_n=10))
def test_matches_oracle_size_and_identity(g):
    clique, _ = max_clique_bb(g)
    if g.n == 0:
        assert clique == ()
    else:
        assert clique == oracle_maximum_clique(g)


@given(g=graphs(max_n=10))
@settings(max_examples=40)
def test_result_is_maximal(g):
    clique, _ = max_clique_bb(g)
    if clique:
        assert is_maximal_clique(g, clique)


def test_matches_pivot_census_beyond_oracle_scale():
    for n, p, seed in [(40, 0.5, 3), (60, 0.2, 4), (60, 0.5, 5)]:
        g = gnp(n, p, seed)
        clique, _ = max_clique_bb(g)
        assert len(clique) == max(bk_pivot(g).census)


def test_identity_is_the_first_largest_pivot_clique_beyond_oracle_scale():
    """bk_pivot's canonical list starts with the lex-smallest largest clique,
    an independent witness of the identity the B&B must return."""
    for g in [gnp(40, 0.5, 3), gnp(60, 0.5, 5), gnp(85, 0.5, 16), moon_moser(8)]:
        clique, _ = max_clique_bb(g)
        assert clique == bk_pivot(g).cliques[0]
    assert max_clique_bb(moon_moser(8))[0] == (0, 3, 6, 9, 12, 15, 18, 21)


def test_bound_table_invariants():
    g = gnp(25, 0.5, 13)
    _, stats = max_clique_bb(g)
    c = stats.bound_table.c
    assert len(c) == g.n
    for i in range(g.n - 1):
        assert c[i + 1] <= c[i] <= c[i + 1] + 1
    assert c[-1] == 1


def test_pruning_never_expands_more_nodes():
    for seed in range(5):
        g = gnp(16, 0.5, seed)
        pruned_clique, pruned = max_clique_bb(g, prune=True)
        free_clique, free = max_clique_bb(g, prune=False)
        assert pruned_clique == free_clique
        assert pruned.expansions <= free.expansions
        assert free.prunes == 0
        assert pruned.prunes > 0


@pytest.mark.parametrize(
    "build, clique, pruned, unpruned",
    [
        (lambda: gnp(60, 0.5, 1), (0, 5, 11, 15, 22, 25, 52, 55), (1511, 1469), (24887, 0)),
        (lambda: moon_moser(6), (0, 3, 6, 9, 12, 15), (749, 664), (4095, 0)),
        (load_assyrian, (1, 17, 18, 22, 25), (40, 24), (97, 0)),
    ],
)
def test_search_effort_is_pinned(build, clique, pruned, unpruned):
    """Golden (expansions, prunes) with and without pruning; same clique and
    bound table either way."""
    g = build()
    found, stats = max_clique_bb(g)
    free_found, free = max_clique_bb(g, prune=False)
    assert found == free_found == clique
    assert (stats.expansions, stats.prunes) == pruned
    assert (free.expansions, free.prunes) == unpruned
    assert stats.bound_table == free.bound_table
