"""Motif censuses against naive sequence-enumeration recounters."""

from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from cliquetrace import (
    Graph,
    GuardError,
    bk_pivot,
    chain_census,
    cycle_census,
    gnp,
    named,
    star_census,
)
from conftest import graphs


def naive_cycles(g: Graph, max_len: int) -> dict[int, int]:
    """Count vertex sequences forming cycles; divide by 2L rotations/reflections."""
    counts: dict[int, int] = {}
    for length in range(3, max_len + 1):
        total = 0
        for seq in permutations(range(g.n), length):
            if all(g.has_edge(seq[i], seq[(i + 1) % length]) for i in range(length)):
                total += 1
        if total:
            counts[length] = total // (2 * length)
    return counts


def naive_chains(g: Graph, max_len: int) -> dict[int, int]:
    """Count vertex sequences forming simple paths; divide by 2 directions."""
    counts: dict[int, int] = {}
    for edges in range(1, max_len + 1):
        total = 0
        for seq in permutations(range(g.n), edges + 1):
            if all(g.has_edge(seq[i], seq[i + 1]) for i in range(edges)):
                total += 1
        if total:
            counts[edges] = total // 2
    return counts


def naive_stars(g: Graph, kmax: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for center in range(g.n):
        nb = list(g.neighbors(center))
        for k in range(2, kmax + 1):
            for leaves in combinations(nb, k):
                if all(not g.has_edge(a, b) for a, b in combinations(leaves, 2)):
                    counts[k] = counts.get(k, 0) + 1
    return counts


class TestCycleCensus:
    def test_c6(self):
        assert cycle_census(named("cycle", 6), 6) == {6: 1}

    def test_k4(self):
        assert cycle_census(named("complete", 4), 4) == {3: 4, 4: 3}

    def test_star_is_acyclic(self):
        assert cycle_census(named("star", 5), 8) == {}

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_graph_identity(self, n):
        assert cycle_census(named("cycle", n), 8) == {n: 1}

    def test_guard(self):
        g = named("cycle", 4)
        with pytest.raises(GuardError):
            cycle_census(g, 2)
        with pytest.raises(GuardError):
            cycle_census(g, 9)


class TestChainCensus:
    def test_path3(self):
        assert chain_census(named("path", 3), 2) == {1: 2, 2: 1}

    def test_triangle(self):
        assert chain_census(named("complete", 3), 2) == {1: 3, 2: 3}

    def test_empty(self):
        assert chain_census(named("empty", 4), 5) == {}

    def test_guard(self):
        with pytest.raises(GuardError):
            chain_census(named("path", 3), 0)
        with pytest.raises(GuardError):
            chain_census(named("path", 3), 9)


class TestStarCensus:
    def test_star3(self):
        assert star_census(named("star", 3), 3) == {2: 3, 3: 1}

    def test_complete_has_no_induced_stars(self):
        assert star_census(named("complete", 4), 3) == {}

    def test_path3_middle_vertex(self):
        assert star_census(named("path", 3), 2) == {2: 1}

    def test_guard(self):
        with pytest.raises(GuardError):
            star_census(named("path", 3), 1)


class TestAgainstNaiveRecounters:
    @given(g=graphs(max_n=7))
    @settings(max_examples=40)
    def test_all_three(self, g):
        assert cycle_census(g, 6) == naive_cycles(g, 6)
        assert chain_census(g, 5) == naive_chains(g, 5)
        assert star_census(g, 5) == naive_stars(g, 5)

    def test_seeded_corpus(self):
        for n in (4, 6, 8):
            for p in (0.3, 0.6):
                g = gnp(n, p, n * 10 + int(p * 10))
                assert cycle_census(g, 7) == naive_cycles(g, 7)
                assert chain_census(g, 6) == naive_chains(g, 6)
                assert star_census(g, 6) == naive_stars(g, 6)


class TestCrossModuleConsistency:
    def test_triangle_free_graphs_have_no_length3_cycles_and_no_big_cliques(self):
        for g in (named("cycle", 6), named("star", 4), gnp(10, 0.15, 2)):
            has_triangle = 3 in cycle_census(g, 3)
            has_big_clique = any(len(c) >= 3 for c in bk_pivot(g).cliques)
            assert has_triangle == has_big_clique


def test_star_census_upper_guard():
    with pytest.raises(GuardError, match="star_census guard"):
        star_census(named("star", 1100), 1100)
    with pytest.raises(GuardError, match="star_census guard"):
        star_census(named("star", 9), 9)
    assert star_census(named("star", 8), 8)[8] == 1
