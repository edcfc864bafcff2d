"""Exact maximum clique via vertex-ordered branch and bound.

The graph is renumbered once into degeneracy order (as in Östergård's
Cliquer), so vertex i is order[i]. Round i, for i = n-1 down to 0, finds
the largest clique containing i among its neighbours above i, always
branching on the lowest set bit, and records c[i] = clique number of the
suffix {i, ..., n-1}. No step reads a neighbour below the vertex it
branches on, so row i keeps only i's neighbours above i: the peel's later
neighbours, renumbered by ``graph._renumber``.

With k = incumbent - |current|, a child is pushed only when it can still
hold a k-clique. Three cuts test that, cheapest first: the candidate count,
the bound table entry c[lowest candidate] (Östergård, Discrete Appl. Math.
120, 2002), and the class count of a greedy colouring (Tomita & Seki,
DMTCS 2003). A round stops as soon as it improves the incumbent by one (the
suffix clique number can only grow by one per round, so that improvement is
already optimal for the round), so the incumbent is fixed within a round.
A frame's candidates shrink after each branch, though, so whenever a frame
is back on top of the stack the first two cuts test it again.
``SearchStats`` counts the prunes of each cut. The searches run on explicit
stacks, never Python recursion.

The returned clique is the lexicographically smallest maximum clique: the
first omega-clique that one depth-first search in lexicographic order meets,
so results are stable golden-test material.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumerators import _peel
from .graph import Clique, Graph, _renumber


@dataclass(frozen=True)
class BoundTable:
    """c[i] = maximum clique size within {order[i], ..., order[n-1]}."""

    order: tuple[int, ...]
    c: tuple[int, ...]


@dataclass
class SearchStats:
    """Branch-and-bound counters plus the bound table of the run.

    Prunes are split by the cut that made them: the candidate count, the
    suffix bound table and the greedy colouring.
    """

    expansions: int = 0
    count_prunes: int = 0
    table_prunes: int = 0
    color_prunes: int = 0
    bound_table: BoundTable | None = None

    @property
    def prunes(self) -> int:
        return self.count_prunes + self.table_prunes + self.color_prunes


def _suffix_bounds(adj: tuple[int, ...], stats: SearchStats) -> list[int]:
    """Bound table c of a renumbered graph: rounds over [candidates, size] frames.

    Row i of ``adj`` holds only the neighbours of i above i (the peel's later
    neighbours through ``graph._renumber``), so it is round i's root as it
    stands. Every other read of a row is masked by candidates above the row's
    vertex.
    """
    n = len(adj)
    c = [0] * n
    best = min(n, 1)  # the last round's root is a leaf: vertex n-1 alone
    expansions = n  # one per round root
    count_prunes = table_prunes = color_prunes = 0
    for i in range(n - 1, -1, -1):
        stack = [[adj[i], 1]]
        while stack:
            frame = stack[-1]
            candidates, size = frame
            if candidates == 0:
                stack.pop()
                continue
            low = candidates & -candidates
            v = low.bit_length() - 1
            if size + candidates.bit_count() <= best:
                count_prunes += 1
                stack.pop()
                continue
            if size + c[v] <= best:
                table_prunes += 1
                stack.pop()
                continue
            frame[0] = candidates = candidates ^ low
            expansions += 1
            child = candidates & adj[v]
            if child:
                k = best - size  # the child beats best only with a k-clique inside
                if child.bit_count() < k:
                    count_prunes += 1
                elif c[(child & -child).bit_length() - 1] < k:
                    table_prunes += 1
                elif _color_bound(adj, child) < k:
                    color_prunes += 1
                else:
                    stack.append([child, size + 1])
            elif size + 1 > best:
                best = size + 1
                break
        c[i] = best
    # best never falls: c steps up from 1 by at most one iff it holds 1..best
    if len(set(c)) != best:
        raise AssertionError(f"bound table {c} steps up by more than one")
    stats.expansions += expansions
    stats.count_prunes += count_prunes
    stats.table_prunes += table_prunes
    stats.color_prunes += color_prunes
    return c


def _color_bound(adj: tuple[int, ...], mask: int) -> int:
    """Greedy sequential coloring; the class count bounds the clique size.

    Each class takes the lowest vertex left and drops its neighbours from the
    vertices still available, all of which lie above it. So rows that hold
    only the later neighbours give the same classes as full rows.
    """
    colors = 0
    while mask:
        colors += 1
        avail = mask
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            mask ^= low
            avail = (avail ^ low) & ~adj[v]
    return colors


def _first_clique(adj: tuple[int, ...], k: int) -> Clique:
    """First k-clique met by a depth-first search taking the smallest vertex
    first, over [candidates, k, vertex] frames.

    The search meets increasing vertex sequences in lexicographic order and
    both cuts (candidate count, coloring bound) are sound, so for k = omega
    the clique returned is the lexicographically smallest maximum clique.
    """
    stack = [[(1 << len(adj)) - 1, k, -1]]
    while True:
        frame = stack[-1]
        candidates, k, _ = frame
        if candidates.bit_count() < k:
            stack.pop()
            continue
        low = candidates & -candidates
        v = low.bit_length() - 1
        frame[0] = candidates = candidates ^ low
        if k == 1:
            return tuple(f[2] for f in stack[1:]) + (v,)
        child = candidates & adj[v]
        if child.bit_count() >= k - 1 and _color_bound(adj, child) >= k - 1:
            stack.append([child, k - 1, v])


def max_clique_bb(g: Graph) -> tuple[Clique, SearchStats]:
    """A maximum clique plus search statistics."""
    order, _, later = _peel(g.adj)
    stats = SearchStats()
    c = _suffix_bounds(_renumber(later, order, g.n), stats)
    stats.bound_table = BoundTable(order=order, c=tuple(c))
    if not c:
        return (), stats
    return _first_clique(g.adj, c[0]), stats
