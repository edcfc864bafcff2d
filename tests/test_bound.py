"""Branch-and-bound maximum clique: size, canonical identity, statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from cliquetrace import (
    SearchStats,
    bk_pivot,
    degeneracy_ordering,
    gnp,
    is_maximal_clique,
    load_assyrian,
    max_clique_bb,
    moon_moser,
    named,
    oracle_maximum_clique,
    random_ktree,
)
from cliquetrace.bound import _color_bound, _first_clique, _later_rows
from cliquetrace.graph import _relabel
from conftest import gnp_corpus, graphs


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
        pruned_clique, pruned = max_clique_bb(g)
        c, free = _unpruned(g)
        assert pruned_clique == _first_clique(g.adj, c[0])
        assert pruned.expansions <= free.expansions
        assert free.prunes == 0
        assert pruned.prunes > 0


@pytest.mark.parametrize(
    "build, clique, pruned, unpruned",
    [
        (lambda: gnp(60, 0.5, 1), (0, 5, 11, 15, 22, 25, 52, 55), (596, 560), (24887, 0)),
        (lambda: moon_moser(6), (0, 3, 6, 9, 12, 15), (93, 72), (4095, 0)),
        (load_assyrian, (1, 17, 18, 22, 25), (40, 24), (97, 0)),
    ],
)
def test_search_effort_is_pinned(build, clique, pruned, unpruned):
    """Golden (expansions, prunes) of the search and of the unpruned reference
    search; same clique and bound table either way."""
    g = build()
    found, stats = max_clique_bb(g)
    c, free = _unpruned(g)
    assert found == _first_clique(g.adj, c[0]) == clique
    assert (stats.expansions, stats.prunes) == pruned
    assert (free.expansions, free.prunes) == unpruned
    assert stats.bound_table.c == tuple(c)


def test_prunes_split_by_cause():
    """(candidate count, bound table, colouring) prunes; ``prunes`` is their sum."""
    cases = [(gnp(60, 0.5, 1), (224, 16, 320)), (moon_moser(6), (23, 0, 49)), (load_assyrian(), (24, 0, 0))]
    for g, split in cases:
        _, stats = max_clique_bb(g)
        assert (stats.count_prunes, stats.table_prunes, stats.color_prunes) == split
        assert stats.prunes == sum(split)


def test_colouring_cut_keeps_dense_gnp_effort_small():
    _, stats = max_clique_bb(gnp(200, 0.5, 1))
    assert stats.expansions <= 60_000


def _suffix_bounds_reference(adj, prune, stats):
    """The bound-table search before the colouring cut, on full renumbered
    rows: the candidate-count and bound-table cuts on popped frames only."""
    n = len(adj)
    c = [0] * n
    best = min(n, 1)
    for i in range(n - 1, -1, -1):
        stats.expansions += 1
        stack = [[adj[i] >> (i + 1) << (i + 1), 1]]
        while stack:
            frame = stack[-1]
            candidates, size = frame
            if candidates == 0:
                stack.pop()
                continue
            low = candidates & -candidates
            v = low.bit_length() - 1
            if prune and (size + candidates.bit_count() <= best or size + c[v] <= best):
                stats.count_prunes += 1
                stack.pop()
                continue
            frame[0] = candidates = candidates ^ low
            stats.expansions += 1
            child = candidates & adj[v]
            if child:
                stack.append([child, size + 1])
            elif size + 1 > best:
                best = size + 1
                if prune:
                    break
        c[i] = best
    return c


def _unpruned(g):
    """Bound table and statistics of the reference search with no cut."""
    stats = SearchStats()
    c = _suffix_bounds_reference(_relabel(g.adj, degeneracy_ordering(g).order), False, stats)
    return c, stats


def _check_against_reference(g):
    """Same table and clique as the reference search, pruned and (on graphs
    with n <= 16, where it stays cheap) unpruned, and no more expansions."""
    order = degeneracy_ordering(g).order
    clique, stats = max_clique_bb(g)
    for prune in (True, False) if g.n <= 16 else (True,):
        ref = SearchStats()
        c = _suffix_bounds_reference(_relabel(g.adj, order), prune, ref)
        assert stats.bound_table.order == order
        assert stats.bound_table.c == tuple(c)
        assert clique == (_first_clique(g.adj, c[0]) if c else ())
        assert stats.expansions <= ref.expansions


def test_bound_table_and_clique_match_the_reference_search():
    corpus = [
        *gnp_corpus(range(41), (0, 0.1, 0.5, 0.9, 1), (0, 1, 2)),
        *(moon_moser(k) for k in range(1, 11)),
        random_ktree(60, 3, 1),
        random_ktree(200, 6, 2),
        load_assyrian(),
    ]
    for g in corpus:
        _check_against_reference(g)


@given(g=graphs(max_n=12))
def test_bound_table_and_clique_match_the_reference_search_property(g):
    _check_against_reference(g)


def test_later_rows_are_full_rows_above_the_diagonal():
    for g in [gnp(30, 0.5, 4), random_ktree(40, 4, 3), moon_moser(5), load_assyrian()]:
        order = degeneracy_ordering(g).order
        full, later = _relabel(g.adj, order), _later_rows(g.adj, order)
        assert later == tuple(row >> (i + 1) << (i + 1) for i, row in enumerate(full))


def test_color_bound_reads_only_later_neighbours():
    for g in gnp_corpus((12, 30), (0.2, 0.5, 0.9), (5, 6)):
        order = degeneracy_ordering(g).order
        full, later = _relabel(g.adj, order), _later_rows(g.adj, order)
        masks = [g.vertex_mask(), *full, *(row & (row >> 1) for row in full)]
        for mask in masks:
            assert _color_bound(later, mask) == _color_bound(full, mask)
