"""Enumerators against the oracle; degeneracy ordering; simplicial peel."""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cliquetrace import (
    ALGORITHMS,
    DegeneracyOrder,
    Graph,
    GraphError,
    bk_basic,
    bk_degeneracy,
    bk_pivot,
    canonicalize,
    degeneracy_ordering,
    filter_nested,
    from_edges,
    gnp,
    induced_subgraph,
    is_clique,
    is_maximal_clique,
    load_assyrian,
    moon_moser,
    named,
    oracle_maximal_cliques,
    parse_gen_spec,
    simplicial_reduction,
)
from cliquetrace.enumerators import (
    FREE_PIVOT_MAX,
    _all_candidates,
    _degeneracy_outer,
    _degeneracy_seeds,
    _pivot_branches,
    _search,
    _whole_graph,
)
from cliquetrace.graph import bits
from conftest import gnp_corpus, graphs, ktree_corpus, run_python

ENUMERATORS = (bk_basic, bk_pivot, bk_degeneracy)

# SHA-256 of the comma-joined peel order, with the degeneracy, computed with
# the heap peel (_degeneracy_reference) before the bucket queue replaced it.
ORDER_DIGESTS = {
    "gnp:n=2000,p=0.01,seed=1": (14, "2bdd9f1125f6ba293dde3517c1d5e461db41c1c622a57ee3507727b838d1d46f"),
    "ktree:n=2000,k=5,seed=1": (5, "c0bb3f9fc94bf775aea4235edbbe1d58f9d1a641fce2075f443842d571632e98"),
}


def _degeneracy_reference(g: Graph) -> DegeneracyOrder:
    """The heap peel: pop (degree, id) minima, skipping stale entries."""
    degree = [g.adj[v].bit_count() for v in range(g.n)]
    heap = [(degree[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    alive = g.vertex_mask()
    order: list[int] = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if not alive >> v & 1 or d != degree[v]:
            continue  # stale heap entry
        degeneracy = max(degeneracy, d)
        order.append(v)
        alive ^= 1 << v
        for u in bits(g.adj[v] & alive):
            degree[u] -= 1
            heapq.heappush(heap, (degree[u], u))
    return DegeneracyOrder(order=tuple(order), degeneracy=degeneracy)


class TestAgainstOracle:
    def test_bk_basic_path(self):
        assert bk_basic(named("path", 3)).cliques == ((0, 1), (1, 2))

    def test_bk_pivot_triangle(self):
        assert bk_pivot(named("complete", 3)).cliques == ((0, 1, 2),)

    def test_bk_degeneracy_empty_graph_singletons(self):
        assert bk_degeneracy(named("empty", 3)).cliques == ((0,), (1,), (2,))

    @pytest.mark.parametrize("enum", ENUMERATORS, ids=lambda f: f.__name__)
    @given(g=graphs(max_n=9))
    def test_equals_oracle(self, enum, g):
        assert list(enum(g).cliques) == oracle_maximal_cliques(g, 1)

    def test_seeded_corpus_equals_oracle(self):
        for g in gnp_corpus((6, 9, 12), (0.2, 0.5, 0.8), range(3)):
            truth = oracle_maximal_cliques(g, 1)
            for enum in ENUMERATORS:
                assert list(enum(g).cliques) == truth


class TestMutualAgreement:
    @pytest.mark.parametrize("n,p", [(30, 0.3), (45, 0.5), (60, 0.2), (60, 0.5)])
    def test_beyond_oracle_scale(self, n, p):
        g = gnp(n, p, 11)
        reference = bk_basic(g).cliques
        assert bk_pivot(g).cliques == reference
        assert bk_degeneracy(g).cliques == reference

    def test_moon_moser_pivot_count(self):
        assert len(bk_pivot(moon_moser(4)).cliques) == 81


def _raw_searches(g: Graph) -> dict[str, list]:
    """What ``_search`` yields to the report under each of its three frame setups."""
    return {
        "all_candidates": list(_whole_graph(_all_candidates, g)[0]),
        "pivot_branches": list(_whole_graph(_pivot_branches, g)[0]),
        "degeneracy_seeds": list(_degeneracy_outer(g)[0]),
    }


def _check_raw_output(out: list, truth: set, setup: str) -> None:
    assert all(all(a < b for a, b in zip(c, c[1:])) for c in out), setup
    assert len(set(out)) == len(out), setup
    assert set(out) == truth, setup


def _check_search_contract(g: Graph) -> None:
    truth = set(oracle_maximal_cliques(g))
    for setup, out in _raw_searches(g).items():
        _check_raw_output(out, truth, setup)


class TestSearchContract:
    """The raw search output: strictly increasing tuples, no duplicates,
    the oracle's maximal cliques as a set."""

    @given(g=graphs(max_n=12).filter(lambda g: g.n))
    def test_raw_search_equals_oracle(self, g):
        _check_search_contract(g)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_raw_search_on_moon_moser(self, k):
        _check_search_contract(moon_moser(k))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_raw_search_on_every_graph_up_to_five_vertices(self, n):
        """Every labelled graph on n vertices (1,024 on five): each frame
        with at most three candidates is closed without branching."""
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            edges = [pair for i, pair in enumerate(pairs) if chosen >> i & 1]
            _check_search_contract(from_edges(n, edges))

    def test_empty_graph(self):
        """The root frame of the empty graph is a leaf holding (); there are
        no degeneracy seeds. The report drops () by ``min_size``."""
        assert _raw_searches(from_edges(0, [])) == {
            "all_candidates": [()],
            "pivot_branches": [()],
            "degeneracy_seeds": [],
        }


# Each shape of G[P] on P = {0, 1, 2}: its edges and its maximal cliques.
THREE_CANDIDATE_SHAPES = {
    "empty": ([], [(0,), (1,), (2,)]),
    "one-edge": ([(0, 2)], [(0, 2), (1,)]),
    "path": ([(0, 1), (1, 2)], [(0, 1), (1, 2)]),
    "triangle": ([(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]),
}


def _no_branching(adj, p, x):
    raise AssertionError(f"frame P={p:b} X={x:b} branched")


class TestClosedFrames:
    """A frame with three candidates reports R + C for each maximal clique C
    of G[P] that no vertex of X is adjacent to as a whole, and branches on
    nothing. R is vertex 4, adjacent to every other vertex; X is vertex 3,
    or empty."""

    @pytest.mark.parametrize("shape", sorted(THREE_CANDIDATE_SHAPES))
    def test_x_empty_or_adjacent_to_exactly_one_clique(self, shape):
        edges, cliques = THREE_CANDIDATE_SHAPES[shape]
        for blocked in ((), *cliques):
            x_edges = [(v, 3) for v in blocked]
            g = from_edges(5, edges + x_edges + [(v, 4) for v in range(4)])
            x = 0b1000 if blocked else 0
            out = list(_search(g.adj, [((4,), 0b111, x)], _no_branching))
            assert sorted(out) == sorted((*c, 4) for c in cliques if c != blocked), blocked


def _always_scan(adj, p, x):
    """Tomita's rule in every frame: P minus N(pivot), the pivot maximizing
    |P & N(u)| over P | X, smallest id on ties."""
    pivot = max(bits(p | x), key=lambda u: ((p & adj[u]).bit_count(), -u))
    return p & ~adj[pivot]


@st.composite
def dense_graphs(draw):
    """gnp graphs on 10 to 24 vertices, dense enough that the search meets
    frames on both sides of the free-pivot cut-off."""
    n = draw(st.integers(10, 24))
    p = draw(st.sampled_from((0.5, 0.6, 0.7, 0.8)))
    return gnp(n, p, draw(st.integers(0, 2**32 - 1)))


class TestFreePivotCutoff:
    """A frame with at most FREE_PIVOT_MAX candidates pivots on the lowest
    vertex of P | X without a scan; a larger one scans. Any pivot is exact."""

    @given(g=dense_graphs())
    def test_raw_search_equals_bk_basic(self, g):
        truth = set(_whole_graph(_all_candidates, g)[0])
        _check_raw_output(list(_whole_graph(_pivot_branches, g)[0]), truth, "pivot_branches")
        _check_raw_output(list(_degeneracy_outer(g)[0]), truth, "degeneracy_seeds")

    @pytest.mark.parametrize("size", [FREE_PIVOT_MAX, FREE_PIVOT_MAX + 1])
    @pytest.mark.parametrize("x_dominates", [False, True], ids=["x-empty", "x-dominates"])
    @pytest.mark.parametrize("density,seed", [(0.3, 0), (0.5, 1), (0.5, 2), (0.8, 3)])
    def test_frame_at_the_cutoff_equals_always_scanning(self, size, x_dominates, density, seed):
        """P is vertices 1..size holding a gnp graph and R is vertex size + 1,
        adjacent to all of them. Vertex 0 is adjacent to every other vertex;
        X is vertex 0, which leaves no clique to report, or empty."""
        inner = gnp(size, density, seed)
        edges = [(u + 1, v + 1) for u in range(size) for v in bits(inner.adj[u]) if u < v]
        edges += [(v, size + 1) for v in range(1, size + 1)]
        edges += [(0, v) for v in range(1, size + 2)]
        g = from_edges(size + 2, edges)
        r, p, x = (size + 1,), ((1 << size) - 1) << 1, int(x_dominates)
        lowest = 0 if x else 1
        expected = p & ~g.adj[lowest] if size <= FREE_PIVOT_MAX else _always_scan(g.adj, p, x)
        assert _pivot_branches(g.adj, p, x) == expected
        out = list(_search(g.adj, [(r, p, x)], _pivot_branches))
        assert sorted(out) == sorted(_search(g.adj, [(r, p, x)], _always_scan))
        truth = [] if x else [(*(v + 1 for v in c), size + 1) for c in oracle_maximal_cliques(inner)]
        assert sorted(out) == sorted(truth)


class _CountingStack(list):
    """A search stack that counts the frames popped from it."""

    popped = 0

    def pop(self):
        self.popped += 1
        return super().pop()


def _frame_counts(g: Graph, frames) -> tuple[int, int]:
    """(frames popped, frames branched) for ``_search`` under the pivot rule."""
    branched = 0

    def counted(adj, p, x):
        nonlocal branched
        branched += 1
        return _pivot_branches(adj, p, x)

    stack = _CountingStack(frames)
    list(_search(g.adj, stack, counted))
    return stack.popped, branched


# (frames popped, frames branched) under bk_pivot's root frame and under
# bk_degeneracy's seed frames.
FRAME_COUNTS = {
    "moonmoser:k=6": ((364, 121), (435, 171)),
    "gnp:n=40,p=0.5,seed=1": ((821, 238), (933, 294)),
    "trade": ((28, 2), (31, 1)),
}


class TestSearchCounters:
    """The work the search does, pinned: a change to the branch rule or the
    closed forms shows here before it shows in a timing."""

    @pytest.mark.parametrize("name", sorted(FRAME_COUNTS))
    def test_frames_popped_and_branched(self, name):
        g = load_assyrian() if name == "trade" else parse_gen_spec(name)
        counts = (
            _frame_counts(g, [((), g.vertex_mask(), 0)]),
            _frame_counts(g, _degeneracy_seeds(g)),
        )
        assert counts == FRAME_COUNTS[name]

    @pytest.mark.parametrize("setup", ["root", "degeneracy_seeds"])
    def test_first_clique_comes_after_a_few_frames(self, setup):
        """The search is lazy: the first of moon_moser(8)'s 6,561 cliques
        comes back after at most n = 24 popped frames (8 under the root
        frame, 12 under the degeneracy seeds), not after the thousands the
        whole search pops."""
        g = moon_moser(8)
        frames = [((), g.vertex_mask(), 0)] if setup == "root" else _degeneracy_seeds(g)
        stack = _CountingStack(frames)
        first = next(_search(g.adj, stack, _pivot_branches))
        assert is_maximal_clique(g, first)
        assert stack.popped <= 24


class TestMinSizeAndCensus:
    @given(g=graphs(max_n=9))
    def test_min_size_filter_commutes(self, g):
        full = bk_pivot(g, 1).cliques
        for k in (2, 3):
            assert bk_pivot(g, k).cliques == tuple(c for c in full if len(c) >= k)

    def test_census_sums_to_clique_count(self):
        rep = bk_pivot(gnp(15, 0.5, 5))
        assert sum(rep.census.values()) == len(rep.cliques)

    def test_census_identical_across_enumerators(self):
        g = gnp(20, 0.5, 9)
        censuses = {enum.__name__: enum(g).census for enum in ENUMERATORS}
        assert len({tuple(sorted(c.items())) for c in censuses.values()}) == 1

    def test_census_examples(self):
        assert bk_pivot(named("complete", 4)).census == {4: 1}
        assert bk_pivot(moon_moser(3)).census == {3: 27}
        assert bk_pivot(load_assyrian(), 3).census == {5: 1, 4: 1, 3: 4}

    @pytest.mark.parametrize("n,p,seed", [(9, 0.5, 1), (14, 0.3, 2), (17, 0.7, 3), (20, 0.5, 4)])
    def test_mask_path_equals_tuple_reference(self, n, p, seed):
        g = gnp(n, p, seed)
        reference = oracle_maximal_cliques(g)
        for k in (1, 2, 3, 4):
            expected = tuple(c for c in canonicalize(reference) if len(c) >= k)
            assert bk_pivot(g, k).cliques == expected

    @pytest.mark.parametrize("min_size", [1, 3])
    def test_census_report_is_bk_pivot_relabelled(self, min_size):
        g = gnp(20, 0.5, 9)
        pivot = bk_pivot(g, min_size)
        census = ALGORITHMS["census"].run(g, min_size)
        assert (census.algorithm, census.flags) == ("census", ("CENSUS_PATH",))
        same = replace(census, algorithm="bk_pivot", flags=(), elapsed_us=pivot.elapsed_us)
        assert same == pivot


class TestDegeneracyOrdering:
    def test_path(self):
        assert degeneracy_ordering(named("path", 3)).degeneracy == 1

    def test_complete4(self):
        assert degeneracy_ordering(named("complete", 4)).degeneracy == 3

    def test_cycle5(self):
        assert degeneracy_ordering(named("cycle", 5)).degeneracy == 2

    def test_equals_heap_reference_on_gnp(self):
        for n in range(41):
            for p in (0, 0.1, 0.5, 0.9, 1):
                for seed in (0, 1, 7):
                    g = gnp(n, p, seed)
                    assert degeneracy_ordering(g) == _degeneracy_reference(g), (n, p, seed)

    def test_equals_heap_reference_on_structured_graphs(self):
        structured = [moon_moser(k) for k in range(1, 9)]
        structured += ktree_corpus([(10, 2, 0), (40, 3, 1), (60, 5, 2), (200, 8, 3)])
        structured.append(load_assyrian())
        for g in structured:
            assert degeneracy_ordering(g) == _degeneracy_reference(g)

    @pytest.mark.parametrize("spec", sorted(ORDER_DIGESTS))
    def test_large_golden_order_digests(self, spec):
        out = degeneracy_ordering(parse_gen_spec(spec))
        digest = hashlib.sha256(",".join(map(str, out.order)).encode()).hexdigest()
        assert (out.degeneracy, digest) == ORDER_DIGESTS[spec]

    def test_asymmetric_rows_raise_instead_of_wrapping(self):
        # Rows 0->1, 1->{2,3}, 2->3, 3->0 are not symmetric: after 0 and 1,
        # peeling vertex 2 at degree 0 would take vertex 3 below zero.
        g = Graph(n=4, adj=(2, 12, 8, 1))
        assert _degeneracy_reference(g).degeneracy == 1
        with pytest.raises(GraphError, match="vertex 3"):
            degeneracy_ordering(g)

    @given(g=graphs(max_n=10))
    def test_later_neighbor_bound(self, g):
        out = degeneracy_ordering(g)
        assert out == _degeneracy_reference(g)
        seen = 0
        for v in out.order:
            later = g.adj[v] & ~seen & ~(1 << v)
            assert later.bit_count() <= out.degeneracy
            seen |= 1 << v


class TestSimplicialReduction:
    def test_triangle_peels_fully(self):
        red = simplicial_reduction(named("complete", 3))
        assert red.residual.n == 0
        assert filter_nested(red.recorded) == [(0, 1, 2)]

    def test_c5_is_irreducible(self):
        g = named("cycle", 5)
        red = simplicial_reduction(g)
        assert red.recorded == ()
        assert red.removed == ()
        assert red.residual.adj == g.adj

    def test_star_records_edges_then_singleton(self):
        # Leaves 1 and 2 peel first; at {0, 3} both vertices are simplicial
        # and the smallest-id rule peels the center, leaving leaf 3 last.
        red = simplicial_reduction(named("star", 3))
        assert red.recorded == ((0, 1), (0, 2), (0, 3), (3,))
        assert red.removed == (1, 2, 0, 3)
        assert red.residual.n == 0
        assert filter_nested(red.recorded) == [(0, 1), (0, 2), (0, 3)]

    def test_chordal_ktrees_peel_everything(self):
        for g in ktree_corpus([(10, 2, 0), (14, 3, 1), (18, 4, 2)]):
            red = simplicial_reduction(g)
            assert red.residual.n == 0
            assert filter_nested(red.recorded) == list(bk_pivot(g).cliques)

    def test_chordal_recorded_sets_equal_oracle(self):
        for g in ktree_corpus([(8, 2, 0), (12, 3, 1), (14, 4, 2)]):
            recorded = filter_nested(simplicial_reduction(g).recorded)
            assert recorded == oracle_maximal_cliques(g, 1)

    @given(g=graphs(max_n=9))
    @settings(max_examples=40)
    def test_residual_has_no_simplicial_vertex(self, g):
        residual = simplicial_reduction(g).residual
        for v in range(residual.n):
            assert not is_clique(residual, residual.neighbors(v))

    @given(g=graphs(max_n=9))
    @settings(max_examples=40)
    def test_reduction_soundness_reassembles_all_cliques(self, g):
        red = simplicial_reduction(g)
        alive = sorted(set(range(g.n)) - set(red.removed))
        sub, mapping = induced_subgraph(g, alive)
        back = {new: old for old, new in mapping.items()}
        residual_cliques = [
            tuple(sorted(back[v] for v in c)) for c in bk_pivot(sub).cliques
        ]
        residual_cliques = [c for c in residual_cliques if is_maximal_clique(g, c)]
        combined = filter_nested(list(red.recorded) + residual_cliques)
        assert canonicalize(combined) == list(bk_pivot(g).cliques)


def test_deep_cliques_leave_the_recursion_limit_alone():
    """A 200-clique is found under a recursion limit of 150, which stays 150."""
    script = (
        "import sys\n"
        "from cliquetrace import bk_degeneracy, bk_pivot, max_clique_bb, named\n"
        "sys.setrecursionlimit(150)\n"
        "g = named('complete', 200)\n"
        "whole = tuple(range(200))\n"
        "assert bk_pivot(g).cliques == (whole,)\n"
        "assert bk_degeneracy(g).cliques == (whole,)\n"
        "assert max_clique_bb(g)[0] == whole\n"
        "print(sys.getrecursionlimit())\n"
    )
    child = run_python(script)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "150\n"
