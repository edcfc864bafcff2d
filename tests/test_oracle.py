"""The subset-scan oracle against hand-derived and predicate-checked truth."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cliquetrace import (
    GuardError,
    bk_pivot,
    canonicalize,
    gnp,
    is_clique,
    is_maximal_clique,
    max_clique_bb,
    moon_moser,
    named,
    oracle_maximal_cliques,
    oracle_maximum_clique,
)
from cliquetrace.graph import bits
from cliquetrace.oracle import _high_cliques, _scan, _set_bits
from conftest import graphs, run_python


def _scan_reference(g):
    """A second scan to compare ``_scan`` with: a membership int per low vertex,
    the subsets holding a low non-neighbour ORed together per vertex, separate
    not-a-clique and extendable accumulators, and a decode through bits()."""
    n = g.n
    low = min(n, 20)
    size = 1 << low
    full = (1 << size) - 1
    member = []
    for v in range(low):
        half = 1 << v
        m = ((1 << half) - 1) << half
        width = half << 1
        while width < size:
            m |= m << width
            width <<= 1
        member.append(m)
    non_adj = [g.vertex_mask() & ~(row | 1 << v) for v, row in enumerate(g.adj)]
    low_out = []
    for row in non_adj:
        out = 0
        for u in bits(row & (size - 1)):
            out |= member[u]
        low_out.append(out)
    found = []
    for high in range(1 << (n - low)):
        base = high << low
        bad = ext = 0
        for v in range(n):
            has_v = member[v] if v < low else (full if base >> v & 1 else 0)
            out = full if non_adj[v] & base else low_out[v]
            bad |= has_v & out
            ext |= full ^ (has_v | out)
        found.extend(base | s for s in bits(full ^ (bad | ext)))
    return found


def test_triangle():
    assert oracle_maximal_cliques(named("complete", 3)) == [(0, 1, 2)]


def test_c5_edges_are_maximal():
    c5 = named("cycle", 5)
    assert oracle_maximal_cliques(c5, 1) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert oracle_maximal_cliques(c5, 3) == []


def test_moon_moser_k2_has_nine_pairs():
    out = oracle_maximal_cliques(moon_moser(2), 1)
    assert len(out) == 9
    assert all(len(c) == 2 for c in out)


def test_moon_moser_k3_count():
    assert len(oracle_maximal_cliques(moon_moser(3), 1)) == 27


def test_maximum_on_empty_graph_breaks_ties_low():
    assert oracle_maximum_clique(named("empty", 4)) == (0,)


def test_maximum_triangle():
    assert oracle_maximum_clique(named("complete", 3)) == (0, 1, 2)


def test_maximum_moon_moser_k3_lexicographic():
    assert oracle_maximum_clique(moon_moser(3)) == (0, 3, 6)


def test_guard_refusal_names_the_guard():
    g = named("empty", 26)
    with pytest.raises(GuardError, match="25"):
        oracle_maximal_cliques(g)
    with pytest.raises(GuardError, match="25"):
        oracle_maximum_clique(g)


def test_min_size_validation():
    with pytest.raises(ValueError):
        oracle_maximal_cliques(named("empty", 2), 0)


@given(graphs(max_n=8))
def test_outputs_pass_predicates_and_are_non_nested(g):
    out = oracle_maximal_cliques(g, 1)
    sets = [set(c) for c in out]
    for i, s in enumerate(sets):
        assert is_maximal_clique(g, s)
        for j, t in enumerate(sets):
            if i != j:
                assert not s <= t
    if g.n:
        assert len(oracle_maximum_clique(g)) == max(len(c) for c in out)


@given(graphs(max_n=10))
def test_maximum_is_the_first_canonical_maximal_clique(g):
    """The maximum clique is the one a full decode and canonical sort of
    every maximal clique would put first."""
    everything = canonicalize(tuple(bits(m)) for m in _scan(g))
    assert oracle_maximum_clique(g) == everything[0]


def _subset_walk(g):
    """Every maximal clique by an independent pure-python subset walk, in
    canonical order."""
    expected = []
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        if members and is_maximal_clique(g, members):
            expected.append(tuple(members))
    expected.sort(key=lambda c: (-len(c), c))
    return expected


@given(graphs(max_n=7))
def test_complete_against_direct_subset_check(g):
    """Re-derive the answer with an independent pure-python subset walk."""
    assert oracle_maximal_cliques(g, 1) == _subset_walk(g)


@pytest.mark.parametrize("g", [moon_moser(3), gnp(10, 0.5, 0)], ids=["moon_moser3", "gnp10"])
def test_independent_of_the_report_sort(g, monkeypatch):
    """The oracle checks the report layer's sort, so it must not call it."""
    def broken(rows):
        raise AssertionError("the oracle called sort_canonical")

    monkeypatch.setattr("cliquetrace.graph.sort_canonical", broken)
    monkeypatch.setattr("cliquetrace.reports.sort_canonical", broken)
    expected = _subset_walk(g)
    assert oracle_maximal_cliques(g) == expected
    assert oracle_maximum_clique(g) == expected[0]


@pytest.mark.parametrize("n,p,seed", [(21, 0.5, 1), (23, 0.3, 2), (25, 0.5, 1)])
def test_multi_chunk_scan_matches_the_searches(n, p, seed):
    """Above n = 15 the scan runs in several chunks of 2**15 subsets, and
    the reference above n = 20 in several chunks of 2**20."""
    g = gnp(n, p, seed)
    assert oracle_maximal_cliques(g) == list(bk_pivot(g).cliques)
    assert oracle_maximum_clique(g) == max_clique_bb(g)[0]
    assert _scan(g) == _scan_reference(g)


def test_oracle_runs_without_numpy():
    """The package, the oracle and the harness import and run with numpy blocked."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from cliquetrace import moon_moser, oracle_maximum_clique, run_comparison\n"
        "g = moon_moser(4)\n"
        "assert oracle_maximum_clique(g) == (0, 3, 6, 9)\n"
        "diff = run_comparison(g, ['bk_pivot', 'harary1957'], with_oracle=True)\n"
        "assert 'oracle' in diff.algorithms\n"
        "assert sys.modules.get('numpy') is None\n"
        "print('ok')\n"
    )
    child = run_python(script)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "ok\n"


@pytest.mark.parametrize("n", range(17))
def test_scan_matches_reference_on_gnp(n):
    for p in (0, 0.2, 0.5, 0.8, 1):
        for seed in (0, 1, 2):
            g = gnp(n, p, seed)
            assert _scan(g) == _scan_reference(g), (n, p, seed)


@pytest.mark.parametrize("n", range(13, 23))
def test_scan_matches_reference_across_the_chunk_boundary(n):
    """The reference keeps chunks of 2**20 subsets, so on either side of
    n = 15 and of n = 20 the two scans cut the subsets differently."""
    for p in (0, 0.3, 0.7, 1):
        g = gnp(n, p, n)
        assert _scan(g) == _scan_reference(g), (n, p)


@given(graphs(max_n=10), st.data())
def test_high_cliques_are_every_clique_of_the_high_vertices(g, data):
    """Every clique of G[{low, ..., n-1}], the empty one included, ascending."""
    low = data.draw(st.integers(0, g.n))
    expected = [
        mask << low
        for mask in range(1 << (g.n - low))
        if is_clique(g, [v + low for v in bits(mask)])
    ]
    assert _high_cliques(g, low) == expected


@pytest.mark.parametrize("k", range(1, 7))
def test_scan_matches_reference_on_moon_moser(k):
    g = moon_moser(k)
    assert _scan(g) == _scan_reference(g)


@given(graphs(max_n=10))
def test_scan_matches_reference(g):
    assert _scan(g) == _scan_reference(g)


def test_set_bits_matches_bits():
    rng = random.Random(9)
    top = 1 << ((1 << 20) - 1)
    masks = [0, 1, 1 << 7, 1 << 8, 1 << 15, 1 << 16, 0x1FF, top, top | 1, top | 1 << 8]
    masks += [rng.getrandbits(rng.randrange(1, 300)) for _ in range(200)]
    masks += [sum(1 << rng.randrange(1 << 20) for _ in range(60)) for _ in range(5)]
    for m in masks:
        assert _set_bits(m) == list(bits(m))


def test_scan_memory_stays_small():
    """No per-vertex list of 2**20-bit ints is kept below n = 21."""
    g = gnp(20, 0.5, 4)
    tracemalloc.start()
    try:
        _scan(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
