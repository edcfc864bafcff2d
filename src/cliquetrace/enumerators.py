"""Maximal-clique enumerators and the simplicial (unicliqual) reduction.

Three exact enumerators share one explicit-stack search loop over
(R, P, X) frames: R the clique so far, a tuple of vertex ids in the order
the search added them; P the candidates and X the excluded vertices, both
bitsets. Each push extends R by one vertex, and a frame yields each
clique it closes sorted, so the report never decodes a mask and no list of
raw cliques is built. The enumerators differ only in the vertices a frame
branches on:

* ``bk_basic``      every vertex of P, no pivot;
* ``bk_pivot``      P minus the neighbors of a pivot chosen in P | X: in a
  frame with more than FREE_PIVOT_MAX candidates the one maximizing
  |P & N(pivot)|, in a smaller one the lowest vertex of P | X, unscanned;
* ``bk_degeneracy`` one seed frame per vertex in a degeneracy ordering,
  restricted to its later neighborhood, then the pivot rule inside.

A frame reports R | C for each maximal clique C of G[P] that no vertex of
X is adjacent to as a whole (Tomita, Tanaka & Takahashi 2006; Eppstein,
Loeffler & Strash 2010). A frame with at most three candidates is closed
in that form, with no push and no pivot scan, whatever the branching
rule. In a graph on at most three vertices each maximal clique is the
closed neighborhood of one of its own vertices, so the cases are few:

* |P| = 0: R itself, when X is empty;
* |P| = 1, P = {w}: R + w, when no vertex of X is adjacent to w;
* |P| = 2, P = {a, b}: R + ab if a-b is an edge, else R + b and R + a,
  each alone; every one kept when no vertex of X is adjacent to all of it;
* |P| = 3: R + P if G[P] is a triangle, else R + C for each edge and each
  isolated vertex C of G[P]; again each kept when no vertex of X is
  adjacent to all of C.

Any pivot in P | X gives every maximal clique exactly once; the pivot that
maximizes |P & N(pivot)| only bounds the work, by O(3^(n/3)) (Tomita et al.).
A frame with at most FREE_PIVOT_MAX candidates is of bounded size, so its
free pivot changes that bound by no more than a constant factor, and it
saves a scan over P | X that costs more there than the branches it prunes.

The degeneracy ordering is a smallest-last peel over a bucket queue of
degree-indexed bitmasks, O(n + m) row operations in all.

All tie-breaks (the pivot scan, the free pivot, peel order) go to the
smallest vertex id so reports are bit-identical across runs and platforms.
The minimum-size convention is applied as an output filter only, never
inside the search. This module only yields cliques; the registry in
``harness`` reports each search under its id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import GraphError
from .graph import Clique, Graph, bits, induced_subgraph, mask_is_clique


@dataclass(frozen=True)
class DegeneracyOrder:
    """Peel order (min-degree first) and the graph's degeneracy."""

    order: tuple[int, ...]
    degeneracy: int


def degeneracy_ordering(g: Graph) -> DegeneracyOrder:
    """Repeatedly remove a minimum-degree vertex, smallest id on ties.

    Every vertex has at most ``degeneracy`` neighbors later in the order.
    The peel keeps a bucket queue of bitmasks (Matula & Beck's smallest-last
    order, with Batagelj & Zaversnik's buckets): ``bucket[d]`` holds the
    live vertices of current degree d, each step pops the lowest bit of the
    lowest non-empty bucket, and each live neighbor moves down one bucket.
    That is O(n + m) row operations; the scan restarts at d - 1 after each
    pop, since no degree falls by more than one per step.

    Raises GraphError when a degree would fall below zero, which only rows
    that are not symmetric can cause.
    """
    adj = g.adj
    degree = [row.bit_count() for row in adj]
    bucket = [0] * (max(degree, default=0) + 1)
    for v, d in enumerate(degree):
        bucket[d] |= 1 << v
    alive = g.vertex_mask()
    order: list[int] = []
    degeneracy = d = 0
    for _ in range(g.n):
        while not bucket[d]:
            d += 1
        b = bucket[d]
        low = b & -b
        bucket[d] = b ^ low
        v = low.bit_length() - 1
        if d > degeneracy:
            degeneracy = d
        order.append(v)
        alive ^= low
        nb = adj[v] & alive
        while nb:  # bits() inlined; neighbor order does not matter here
            u = nb.bit_length() - 1
            bu = 1 << u
            nb ^= bu
            du = degree[u]
            if not du:
                raise GraphError(f"vertex {u} loses more neighbors than its row holds")
            bucket[du] ^= bu
            bucket[du - 1] |= bu
            degree[u] = du - 1
        if d:
            d -= 1
    return DegeneracyOrder(order=tuple(order), degeneracy=degeneracy)


def _all_candidates(adj: Sequence[int], p: int, x: int) -> int:
    return p


# The largest frame that pivots without a scan. Below it the scan costs more
# than the branches it prunes; measured on cut-offs of 8, 10, 12 and 16.
FREE_PIVOT_MAX = 10


def _pivot_branches(adj: Sequence[int], p: int, x: int) -> int:
    """P minus N(pivot). A frame with more than FREE_PIVOT_MAX candidates
    scans P | X for the pivot maximizing |P & N(u)| (smallest id on ties);
    a smaller one takes the lowest vertex of P | X, with no scan."""
    todo = p | x
    if p.bit_count() <= FREE_PIVOT_MAX:
        return p & ~adj[(todo & -todo).bit_length() - 1]
    pivot, best = -1, -1
    # bits() inlined: with the push loop in _search, this scan is the hot path
    # of a frame with more than FREE_PIVOT_MAX candidates (smaller ones return
    # above, and those with at most three never branch)
    while todo:
        low = todo & -todo
        todo ^= low
        u = low.bit_length() - 1
        score = (p & adj[u]).bit_count()
        if score > best:
            pivot, best = u, score
    return p & ~adj[pivot]


def _search(
    adj: Sequence[int], stack: list[tuple[Clique, int, int]], branches: Callable[..., int]
) -> Iterator[Clique]:
    """Run every frame on ``stack`` to exhaustion, yielding the maximal
    cliques as increasing vertex tuples, each as soon as its frame closes it."""
    while stack:
        r, p, x = stack.pop()
        rest = p & (p - 1)  # P less its lowest vertex
        rest2 = rest & (rest - 1)  # P less its two lowest
        if not rest2 & (rest2 - 1):  # |P| <= 3: closed form, see the module docstring
            if not p:
                if not x:
                    yield tuple(sorted(r))
            elif not rest:
                w = p.bit_length() - 1
                if not x & adj[w]:
                    yield tuple(sorted((*r, w)))
            elif not rest2:
                a, b = (p ^ rest).bit_length() - 1, rest.bit_length() - 1
                xa, xb = x & adj[a], x & adj[b]
                if adj[a] & rest:
                    if not xa & xb:
                        yield tuple(sorted((*r, a, b)))
                else:  # b first: branching pushes a, then b, and pops b first
                    if not xb:
                        yield tuple(sorted((*r, b)))
                    if not xa:
                        yield tuple(sorted((*r, a)))
            else:
                a = (p ^ rest).bit_length() - 1
                b = (rest ^ rest2).bit_length() - 1
                c = rest2.bit_length() - 1
                na, nb = adj[a], adj[b]
                ab, ac, bc = na >> b & 1, na >> c & 1, nb >> c & 1
                xa, xb, xc = x & na, x & nb, x & adj[c]
                if ab and ac and bc:
                    if not xa & xb & xc:
                        yield tuple(sorted((*r, a, b, c)))
                else:  # each edge and each isolated vertex of G[P]
                    if not (ac or bc or xc):
                        yield tuple(sorted((*r, c)))
                    if bc and not xb & xc:
                        yield tuple(sorted((*r, b, c)))
                    if not (ab or bc or xb):
                        yield tuple(sorted((*r, b)))
                    if ac and not xa & xc:
                        yield tuple(sorted((*r, a, c)))
                    if ab and not xa & xb:
                        yield tuple(sorted((*r, a, b)))
                    if not (ab or ac or xa):
                        yield tuple(sorted((*r, a)))
            continue
        todo = branches(adj, p, x)
        while todo:
            bv = todo & -todo
            todo ^= bv
            v = bv.bit_length() - 1
            p ^= bv
            stack.append((r + (v,), p & adj[v], x & adj[v]))
            x |= bv


def _whole_graph(
    branches: Callable[..., int], g: Graph
) -> tuple[Iterator[Clique], tuple[str, ...]]:
    return _search(g.adj, [((), g.vertex_mask(), 0)], branches), ()


def _degeneracy_seeds(g: Graph) -> list[tuple[Clique, int, int]]:
    """One frame per vertex in degeneracy order: its later neighbors as P,
    its earlier ones as X."""
    stack = []
    seen = 0
    for v in degeneracy_ordering(g).order:
        bv = 1 << v
        stack.append(((v,), g.adj[v] & ~seen & ~bv, g.adj[v] & seen))
        seen |= bv
    return stack


def _degeneracy_outer(g: Graph) -> tuple[Iterator[Clique], tuple[str, ...]]:
    return _search(g.adj, _degeneracy_seeds(g), _pivot_branches), ()


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of the unicliqual-point peel.

    ``recorded`` holds the closed neighborhood of each peeled simplicial
    vertex, in peel order; ``residual`` is the simplicial-free remainder
    (vertex ids remapped, order preserving); ``removed`` lists peeled
    vertices by original id in peel order.
    """

    recorded: tuple[Clique, ...]
    residual: Graph
    removed: tuple[int, ...]


def simplicial_reduction(g: Graph) -> ReductionResult:
    """Peel vertices whose neighborhood is a clique, recording each closed
    neighborhood, until no simplicial vertex remains.

    Exhaustive exactly on chordal graphs. Ties go to the smallest id;
    isolated vertices are simplicial and peel as singletons.
    """
    alive = g.vertex_mask()
    recorded: list[Clique] = []
    removed: list[int] = []
    while True:
        peeled = None
        for v in bits(alive):
            nb = g.adj[v] & alive
            if mask_is_clique(g.adj, nb):
                peeled = v
                break
        if peeled is None:
            break
        nb = g.adj[peeled] & alive
        recorded.append(tuple(bits(nb | (1 << peeled))))
        removed.append(peeled)
        alive ^= 1 << peeled
    residual, _ = induced_subgraph(g, bits(alive))
    return ReductionResult(
        recorded=tuple(recorded), residual=residual, removed=tuple(removed)
    )
