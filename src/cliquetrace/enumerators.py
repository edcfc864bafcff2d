"""Maximal-clique enumerators and the simplicial (unicliqual) reduction.

Three exact enumerators share one recursion skeleton over bitset candidate
(P) and exclusion (X) sets:

* ``bk_basic``      recursive extension, no pivot;
* ``bk_pivot``      pivot chosen in P | X maximizing |P & N(pivot)|;
* ``bk_degeneracy`` outer loop over a degeneracy ordering, pivot recursion
  inside each vertex's later neighborhood.

All tie-breaks (pivot choice, peel order) go to the smallest vertex id so
reports are bit-identical across runs and platforms. The minimum-size
convention is applied as an output filter only, never inside the recursion.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from .graph import Clique, Graph, bits, induced_subgraph, mask_is_clique
from .reports import CliqueReport, SearchResult, census_of, timed_report


def _ensure_stack(n: int) -> None:
    # Recursion depth is bounded by the clique number plus a few frames.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), n + 128))


@dataclass(frozen=True)
class DegeneracyOrder:
    """Peel order (min-degree first) and the graph's degeneracy."""

    order: tuple[int, ...]
    degeneracy: int


def degeneracy_ordering(g: Graph) -> DegeneracyOrder:
    """Repeatedly remove a minimum-degree vertex, smallest id on ties.

    Every vertex has at most ``degeneracy`` neighbors later in the order.
    """
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


def _expand_basic(adj: Sequence[int], r: int, p: int, x: int, out: list[int]) -> None:
    if p == 0 and x == 0:
        out.append(r)
        return
    todo = p
    for v in bits(todo):
        bv = 1 << v
        _expand_basic(adj, r | bv, p & adj[v], x & adj[v], out)
        p ^= bv
        x |= bv


def _expand_pivot(adj: Sequence[int], r: int, p: int, x: int, out: list[int]) -> None:
    if p == 0 and x == 0:
        out.append(r)
        return
    pivot, best = -1, -1
    for u in bits(p | x):
        score = (p & adj[u]).bit_count()
        if score > best:
            pivot, best = u, score
    for v in bits(p & ~adj[pivot]):
        bv = 1 << v
        _expand_pivot(adj, r | bv, p & adj[v], x & adj[v], out)
        p ^= bv
        x |= bv


def _whole_graph(expand: Callable[..., None], g: Graph) -> SearchResult:
    _ensure_stack(g.n)
    out: list[int] = []
    expand(g.adj, 0, g.vertex_mask(), 0, out)
    return out, ()


def _degeneracy_outer(g: Graph) -> SearchResult:
    _ensure_stack(g.n)
    out: list[int] = []
    seen = 0
    for v in degeneracy_ordering(g).order:
        bv = 1 << v
        later = g.adj[v] & ~seen & ~bv
        earlier = g.adj[v] & seen
        _expand_pivot(g.adj, bv, later, earlier, out)
        seen |= bv
    return out, ()


def bk_basic(g: Graph, min_size: int = 1) -> CliqueReport:
    """All maximal cliques by plain recursive extension (exponential, exact)."""
    return timed_report("bk_basic", g, min_size, partial(_whole_graph, _expand_basic))


def bk_pivot(g: Graph, min_size: int = 1) -> CliqueReport:
    """All maximal cliques with pivoting; skips non-pivot-neighbor branches."""
    return timed_report("bk_pivot", g, min_size, partial(_whole_graph, _expand_pivot))


def bk_degeneracy(g: Graph, min_size: int = 1) -> CliqueReport:
    """All maximal cliques, outer loop in degeneracy order, pivot recursion inside."""
    return timed_report("bk_degeneracy", g, min_size, _degeneracy_outer)


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


def clique_census(report: CliqueReport | Iterable[Clique]) -> dict[int, int]:
    """Histogram of clique sizes from a report or a plain clique list."""
    cliques = report.cliques if isinstance(report, CliqueReport) else report
    return census_of(cliques)
